//! Fixture: a thread spawned outside the approved concurrency modules.

/// Runs a closure on a helper thread — banned here: concurrency may only
/// enter through reviewed modules.
pub fn run_detached(f: impl FnOnce() + Send + 'static) {
    std::thread::spawn(f);
}
