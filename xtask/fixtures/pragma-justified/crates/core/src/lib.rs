//! Fixture: a waiver pragma with no written reason.

/// Narrows a packed key; the waiver names no invariant.
pub fn vertex_of(key: u64) -> u32 {
    key as u32 // cast-ok:
}
