//! Positive fixture for HOT001: allocation in a hot-path-manifest module.

pub fn allocates() -> Vec<u32> {
    Vec::new() // HOT001
}

pub fn reasonless() -> String {
    // xlint: allow(HOT001)
    format!("suppressed, but the allow states no reason") // XLINT001
}
