//! Fixture: a waiver pragma whose operation has since been fixed is a
//! stale claim and must be flagged.

/// The cast this waiver once excused was replaced by `u64::from`; the
/// pragma is now stale documentation.
pub fn widen(x: u32) -> u64 {
    // cast-ok: a u32 widens losslessly into u64
    u64::from(x)
}

