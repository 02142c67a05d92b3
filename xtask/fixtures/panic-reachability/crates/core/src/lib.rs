//! Fixture: a `// hot-path` function reaches a panic-capable indexing
//! operation through a cross-module call and then a method call; the
//! whole chain must be flagged at the panic site.

pub mod table;

/// Drains one round by summing the slots named by `order`.
// hot-path
pub fn drain_round(t: &table::Table, order: &[usize]) -> u64 {
    table::lookup_sum(t, order)
}
