//! Fixture: a `// mutation-ok:` waiver with no reason text is an
//! unjustified pragma, even though it sits on a mutation site.

/// The waived `+` below is a jetmut arith-swap site, so the pragma is
/// *used* (no `dead-waiver`) — only `pragma-justified` must fire.
pub fn tail(base: usize, extra: usize) -> usize {
    // mutation-ok:
    base + extra
}
