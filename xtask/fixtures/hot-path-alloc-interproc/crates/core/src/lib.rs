//! Fixture: a `// hot-path` function whose marked body never allocates
//! still gets flagged when it calls an allocating helper in another
//! module — the interprocedural upgrade of `hot-path-alloc`.

pub mod buffer;

/// Drains a round into a fresh buffer.
// hot-path
pub fn drain_round() -> Vec<u64> {
    buffer::fresh()
}
