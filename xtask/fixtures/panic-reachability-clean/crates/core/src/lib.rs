//! Fixture: `panic-reachability` must not over-propagate. Waived
//! indexing, invariant `expect`s, panic sites in functions no hot root
//! reaches, and `#[cfg(test)]`-only callees that share a name with a
//! panic-free helper are all fine.

/// Reads one slot on the hot path; the bound is the caller's invariant.
// hot-path
pub fn hot_read(values: &[u64], idx: usize) -> u64 {
    values[idx] // panic-ok: idx is range-checked by the caller at enqueue time
}

/// Hot wrapper over an invariant `expect` — the sanctioned loud crash.
// hot-path
pub fn hot_seed(values: &[u64]) -> u64 {
    *values.first().expect("invariant: the engine seeds at least one slot")
}

/// Hot dispatcher: resolves to the panic-free `probe` below, not to the
/// `#[cfg(test)]`-only `probe` in the test module.
// hot-path
pub fn hot_dispatch(values: &[u64]) -> u64 {
    probe(values)
}

/// Panic-free probe.
pub fn probe(values: &[u64]) -> u64 {
    values.first().copied().unwrap_or(0)
}

/// Cold helper: nothing hot reaches it, so its indexing is not flagged.
pub fn cold_probe(values: &[u64], idx: usize) -> u64 {
    values[idx]
}

#[cfg(test)]
mod tests {
    // A test-only `probe` that indexes; it must not be attributed to
    // `hot_dispatch`, whose call resolves to the non-test `probe`.
    fn probe(values: &[u64]) -> u64 {
        values[7]
    }

    #[test]
    fn test_probe_reads_the_eighth_slot() {
        assert_eq!(probe(&[0; 8]), 0);
    }
}
