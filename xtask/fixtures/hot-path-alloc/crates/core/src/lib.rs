//! Fixture: an allocation inside a `// hot-path`-marked function fires the
//! `hot-path-alloc` lint; the same allocation in an unmarked function is
//! fine.

/// Marked hot: the `Vec::new()` in the body must be flagged.
// hot-path
pub fn drain_round() -> Vec<u8> {
    Vec::new()
}

/// Unmarked: allocating here is allowed.
pub fn setup() -> Vec<u8> {
    vec![1, 2, 3]
}
