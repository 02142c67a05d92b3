//! Fixture: a `// hot-path` function reaches a panic-capable indexing
//! operation through a cross-module call and then a method call; the
//! whole chain must be flagged at the panic site. Two more hot functions
//! take the error of a `Result` without stating an invariant.

pub mod table;

/// Drains one round by summing the slots named by `order`.
// hot-path
pub fn drain_round(t: &table::Table, order: &[usize]) -> u64 {
    table::lookup_sum(t, order)
}

/// Takes the error of a round that must have failed.
// hot-path
pub fn failed_round(r: Result<u64, u8>) -> u8 {
    r.unwrap_err()
}

/// Same, with a message that states no invariant.
// hot-path
pub fn failed_round_said(r: Result<u64, u8>) -> u8 {
    r.expect_err("the round failed")
}
