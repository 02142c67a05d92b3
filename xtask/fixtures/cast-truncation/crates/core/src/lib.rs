//! Fixture: an unannotated narrowing cast in the engine crate.

/// Narrows a packed key to a vertex index without stating why that is safe.
pub fn vertex_of(key: u64) -> u32 {
    key as u32
}
