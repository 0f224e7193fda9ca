//! Negative fixture: allocation outside the hot-path manifest is no finding.

pub mod hot;

pub fn cold_path() -> Vec<u32> {
    Vec::new()
}
