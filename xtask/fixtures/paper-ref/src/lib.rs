//! Fixture: a stale paper reference (§9.9 does not exist).

/// Implements the flux capacitor of §9.9.
pub fn flux() -> u32 {
    88
}
