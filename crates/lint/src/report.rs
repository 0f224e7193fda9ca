//! Findings and their rendering: human tables and `--json` output.

use std::fmt::Write as _;

/// One rule violation (or meta problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `HOT001`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file (or artifact).
    pub file: String,
    /// 1-indexed line, or 0 for whole-file/artifact findings.
    pub line: u32,
    /// What went wrong, in one sentence.
    pub message: String,
}

impl Finding {
    /// Creates a finding.
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

/// The result of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, in rule-then-file order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Number of `xlint: allow` annotations that suppressed a finding.
    pub annotations_used: usize,
}

impl Report {
    /// `true` when the scan produced no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable table.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if self.findings.is_empty() {
            let _ = writeln!(
                out,
                "xlint: clean ({} files scanned, {} allow annotation(s) in effect)",
                self.files_scanned, self.annotations_used
            );
        } else {
            let loc = |f: &Finding| {
                if f.line == 0 {
                    f.file.clone()
                } else {
                    format!("{}:{}", f.file, f.line)
                }
            };
            let width = self
                .findings
                .iter()
                .map(|f| loc(f).len())
                .max()
                .unwrap_or(0);
            let mut last_rule = "";
            for f in &self.findings {
                if f.rule != last_rule {
                    let _ = writeln!(out, "\n{} — {}", f.rule, rule_summary(f.rule));
                    last_rule = f.rule;
                }
                let _ = writeln!(out, "  {:width$}  {}", loc(f), f.message);
            }
            let _ = writeln!(
                out,
                "\nxlint: {} finding(s) across {} files scanned",
                self.findings.len(),
                self.files_scanned
            );
            let _ = writeln!(
                out,
                "suppress only with `// xlint: allow(RULE, reason = \"...\")` — the reason is required"
            );
        }
        out
    }

    /// Renders the `--json` form: a stable, machine-readable findings list.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                if i == 0 { "" } else { "," },
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"files_scanned\": {},\n  \"annotations_used\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.annotations_used,
            self.is_clean()
        );
        out
    }
}

/// One-line summary of each rule, shown in tables and `--list-rules`.
pub fn rule_summary(rule: &str) -> &'static str {
    match rule {
        "HOT001" => {
            "no allocation calls inside hot-path-manifest modules; no manifest entry without a file"
        }
        "XLINT001" => "an `xlint: allow` annotation must carry a non-empty reason",
        "XLINT002" => "an `xlint: allow` annotation must suppress something (no stale allows)",
        _ => "unknown rule",
    }
}

/// All rule identifiers, in listing order.
pub const ALL_RULES: &[&str] = &["HOT001", "XLINT001", "XLINT002"];

/// Escapes a string as a JSON literal (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shape() {
        let mut report = Report {
            files_scanned: 3,
            ..Report::default()
        };
        report
            .findings
            .push(Finding::new("HOT001", "a/b.rs", 7, "uses \"Vec::new\""));
        let json = report.render_json();
        assert!(json.contains("\"rule\": \"HOT001\""));
        assert!(json.contains("\\\"Vec::new\\\""));
        assert!(json.contains("\"clean\": false"));
    }

    #[test]
    fn clean_report_renders_quietly() {
        let report = Report {
            files_scanned: 5,
            annotations_used: 2,
            ..Report::default()
        };
        assert!(report.is_clean());
        assert!(report.render_human().contains("clean"));
        assert!(report.render_json().contains("\"clean\": true"));
    }
}
