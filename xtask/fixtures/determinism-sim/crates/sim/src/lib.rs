//! Fixture: a hash map inside the simulator, whose event order must replay.

use std::collections::HashMap;

/// Counts occurrences (in nondeterministic iteration order!).
pub fn count(items: &[u32]) -> HashMap<u32, usize> {
    let mut m = HashMap::new();
    for &i in items {
        *m.entry(i).or_insert(0) += 1;
    }
    m
}
