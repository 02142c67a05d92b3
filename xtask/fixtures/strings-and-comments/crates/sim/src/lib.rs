//! Fixture: unordered-collection names in sim-crate strings and comments.

// HashMap and HashSet in a comment must not fire in crates/sim.

/// The names quoted in a string must not fire either.
pub const NAMES: &str = "HashMap<u32, f64> and HashSet<(u32, u32)>";
