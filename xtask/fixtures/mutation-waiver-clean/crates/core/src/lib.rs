//! Fixture: a justified `// mutation-ok:` waiver that covers a live
//! jetmut mutation site counts as used and raises nothing.

/// Growth headroom for a scratch buffer; flipping the `+` only changes
/// how much slack is reserved, which the waiver below documents.
pub fn headroom(cap: usize) -> usize {
    // mutation-ok: sizing heuristic — either operand order stays correct
    cap + 8
}
