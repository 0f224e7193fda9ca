//! Positive fixture for XLINT002: an allow in a file outside the hot-path
//! manifest suppresses nothing.

// xlint: allow(HOT001, reason = "this file is not in the hot-path manifest, so this allow is stale") // XLINT002
pub fn stale_target() -> Vec<u32> {
    Vec::new()
}
