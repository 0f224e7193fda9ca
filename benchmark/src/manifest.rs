//! Keeps the benchmark's release profile equal to the root manifest's, so the
//! numbers measure the code generation that ships.

/// The `key = value` lines of `[section]` in a Cargo manifest, comments and
/// blank lines dropped, in file order.
fn section(manifest: &str, section: &str) -> Vec<String> {
    let header = format!("[{section}]");
    manifest
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty())
        .map(|line| line.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

mod tests {
    use super::*;

    #[test]
    fn release_profile_matches_the_root_manifest() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
        let own = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let root = section(
            &std::fs::read_to_string(root).expect(root),
            "profile.release",
        );
        let own = section(&std::fs::read_to_string(own).expect(own), "profile.release");
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(own, root, "benchmark/Cargo.toml [profile.release] diverged");
    }

    #[test]
    fn section_reads_one_table_and_skips_comments() {
        let text = "[a]\nx = 1\n\n[profile.release]\n# why\nopt-level = 3 # fast\nlto  =  \"thin\"\n[b]\ny = 2\n";
        assert_eq!(
            section(text, "profile.release"),
            vec!["opt-level = 3", "lto = \"thin\""]
        );
        assert!(section(text, "missing").is_empty());
    }
}
