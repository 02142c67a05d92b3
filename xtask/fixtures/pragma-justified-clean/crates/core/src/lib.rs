//! Fixture: every waiver pragma carries its justification, on its line or
//! the line above.

/// Narrows a packed key to a vertex index.
pub fn vertex_of(key: u64) -> u32 {
    (key & 0xffff_ffff) as u32 // cast-ok: masked to the low 32 bits
}

/// Picks a slot; the bound is the caller's.
pub fn slot(values: &[u64], idx: usize) -> u64 {
    // panic-ok: idx is range-checked by the caller at enqueue time
    values[idx]
}
