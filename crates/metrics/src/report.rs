//! Plain-text table rendering for the experiment binaries.

use std::fmt;

/// A simple column-aligned table that can also be emitted as CSV.
///
/// The experiment binaries use it to print, for every figure of the paper, the
/// series of values the figure plots.
///
/// # Example
///
/// ```
/// use bneck_metrics::Table;
/// let mut table = Table::new("figure-5-left", &["sessions", "time_to_quiescence_us"]);
/// table.add_row(&["10".to_string(), "123".to_string()]);
/// let text = table.to_string();
/// assert!(text.contains("sessions"));
/// assert!(table.to_csv().starts_with("sessions,"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row does not have exactly one cell per column.
    pub fn add_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match the header width"
        );
        self.rows.push(cells.to_vec());
    }

    /// Appends a row of displayable values.
    pub fn push<T: fmt::Display>(&mut self, cells: &[T]) {
        let rendered: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.add_row(&rendered);
    }

    /// Renders the table as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "# {}", self.title)?;
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "{}", rule.join("  "))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders() {
        let mut t = Table::new("demo", &["a", "longer_header"]);
        t.push(&[1, 2]);
        t.push(&[300, 4]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.title, "demo");
        let text = t.to_string();
        assert!(text.contains("# demo"));
        assert!(text.contains("longer_header"));
        // Columns are right aligned to the widest cell.
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push(&["1", "2"]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push(&[1]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_rejected() {
        let _ = Table::new("demo", &[]);
    }
}
