//! Fixture: narrowing casts carrying invariants, and a widening cast.

/// Narrows a packed key to a vertex index; the invariant is written down.
pub fn vertex_of(key: u64) -> u32 {
    (key & 0xffff_ffff) as u32 // cast-ok: masked to the low 32 bits
}

/// Widening never truncates, so it needs no annotation.
pub fn widen(v: u32) -> u64 {
    v as u64
}
