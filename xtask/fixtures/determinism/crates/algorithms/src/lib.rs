//! Fixture: a wall-clock read inside determinism-critical code.

/// Times a propagation round with the wall clock — banned: replayed runs
/// would observe different values.
pub fn round_time_ms() -> u128 {
    let start = std::time::Instant::now();
    start.elapsed().as_millis()
}
