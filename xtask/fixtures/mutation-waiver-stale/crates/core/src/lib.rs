//! Fixture: a justified `// mutation-ok:` waiver that no longer covers
//! any mutation site has rotted and must be reported dead.

/// The expression this waiver once excused was rewritten; nothing on
/// the line below is a mutation site any more.
pub fn ident(value: usize) -> usize {
    // mutation-ok: the old threshold tolerated either comparison bound
    value
}
