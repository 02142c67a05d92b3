//! Vector-clock happens-before race checker (DESIGN.md §14.3).
//!
//! The schedule fuzzer ([`crate::schedule`]) detects *divergence*; it
//! cannot distinguish "no race" from "a race that happened to produce the
//! same bits". This module closes that gap: the sharded engine records
//! every channel transfer and every conceptual shard-state access into a
//! [`RaceLog`](jetstream_core::sync::RaceLog), and [`check_trace`] replays
//! the trace through per-thread vector clocks, reporting any pair of
//! conflicting accesses to the same resource with no happens-before edge
//! between them.
//!
//! The model: each thread carries a vector clock, incremented at every
//! recorded event. A channel send enqueues the sender's clock into that
//! channel's FIFO; the matching recv joins it into the receiver. A lock
//! acquire joins the lock's clock into the acquirer; a release joins the
//! holder's clock back into the lock (so critical sections under one lock
//! are pairwise ordered). Locksets are tracked per thread purely for
//! diagnostics — a race report says whether the two accesses shared any
//! lock, which distinguishes "forgot the lock" from "wrong channel
//! protocol". Two accesses conflict when they touch the same resource and
//! at least one writes; a conflict where neither access happens-before
//! the other is a race.
//!
//! Like every dynamic analysis, the checker certifies the executions it
//! saw, not all executions; coverage comes from the schedule matrix, and
//! instrumentation completeness from the `concurrency-discipline` lint,
//! which confines primitives to the instrumented module.
//!
//! This is library code on the sanitizer's CI path, so every failure mode
//! is a value of [`TraceError`], never a panic.

use jetstream_core::sync::{AccessKind, Resource, TraceEvent};

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A vector clock: thread id → logical time.
type Clock = BTreeMap<usize, u64>;

/// `into := into ⊔ other`, pointwise max.
fn join(into: &mut Clock, other: &Clock) {
    for (&t, &v) in other {
        let e = into.entry(t).or_insert(0);
        *e = (*e).max(v);
    }
}

/// Whether the event that produced `earlier` (on `earlier_thread`)
/// happens-before the event that produced `later`: `later` must have
/// observed at least `earlier_thread`'s time at the earlier event.
fn happens_before(earlier: &Clock, earlier_thread: usize, later: &Clock) -> bool {
    later.get(&earlier_thread).copied().unwrap_or(0)
        >= earlier.get(&earlier_thread).copied().unwrap_or(0)
}

/// One side of a racing pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RacyAccess {
    /// Accessing thread id (coordinator 0, worker `s` is `s + 1`).
    pub thread: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// Index of the event in the recorded trace.
    pub index: usize,
}

/// Two conflicting accesses with no happens-before edge between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The contended resource.
    pub resource: Resource,
    /// The earlier recorded access.
    pub first: RacyAccess,
    /// The later recorded access.
    pub second: RacyAccess,
    /// Locks both threads held at their access — non-empty means the
    /// vector-clock edge is missing despite a shared lock (a protocol
    /// bug in the trace), empty means genuinely unsynchronized.
    pub common_locks: BTreeSet<usize>,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unordered conflicting accesses to {:?}: thread {} {:?} (event {}) vs thread {} \
             {:?} (event {}), common locks {:?}",
            self.resource,
            self.first.thread,
            self.first.kind,
            self.first.index,
            self.second.thread,
            self.second.kind,
            self.second.index,
            self.common_locks,
        )
    }
}

/// Any way a trace can fail the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A data race: the defect this checker exists to find.
    Race(Box<Race>),
    /// A `Recv` with no matching queued `Send` on that channel — the
    /// trace is malformed (instrumentation bug, not an engine bug).
    RecvWithoutSend {
        /// Channel id of the unmatched recv.
        channel: usize,
        /// Index of the event in the recorded trace.
        index: usize,
    },
    /// A `Release` of a lock the thread did not hold.
    ReleaseWithoutAcquire {
        /// Lock id of the unmatched release.
        lock: usize,
        /// Index of the event in the recorded trace.
        index: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Race(r) => r.fmt(f),
            TraceError::RecvWithoutSend { channel, index } => {
                write!(f, "malformed trace: recv on channel {channel} (event {index}) has no matching send")
            }
            TraceError::ReleaseWithoutAcquire { lock, index } => {
                write!(f, "malformed trace: release of lock {lock} (event {index}) without acquire")
            }
        }
    }
}

/// Summary of a clean trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total events replayed.
    pub events: usize,
    /// Resource accesses among them.
    pub accesses: usize,
    /// Distinct threads seen.
    pub threads: usize,
}

/// One remembered access for conflict checking.
#[derive(Debug, Clone)]
struct AccessRecord {
    thread: usize,
    kind: AccessKind,
    index: usize,
    clock: Clock,
    locks: BTreeSet<usize>,
}

/// Replays `events` through vector clocks and reports the first pair of
/// conflicting resource accesses with no happens-before edge.
///
/// # Errors
///
/// [`TraceError::Race`] on the first race; the malformed-trace variants
/// when the event stream itself is inconsistent.
pub fn check_trace(events: &[TraceEvent]) -> Result<TraceStats, TraceError> {
    let mut clocks: BTreeMap<usize, Clock> = BTreeMap::new();
    let mut locksets: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut channels: BTreeMap<usize, VecDeque<Clock>> = BTreeMap::new();
    let mut locks: BTreeMap<usize, Clock> = BTreeMap::new();
    let mut history: BTreeMap<Resource, Vec<AccessRecord>> = BTreeMap::new();
    let mut stats = TraceStats { events: events.len(), ..TraceStats::default() };

    // Advances `thread`'s clock past a new event.
    let tick = |clocks: &mut BTreeMap<usize, Clock>, thread: usize| {
        let clock = clocks.entry(thread).or_default();
        *clock.entry(thread).or_insert(0) += 1;
    };

    for (index, ev) in events.iter().enumerate() {
        match *ev {
            TraceEvent::Send { thread, channel } => {
                tick(&mut clocks, thread);
                let snapshot = clocks.entry(thread).or_default().clone();
                channels.entry(channel).or_default().push_back(snapshot);
            }
            TraceEvent::Recv { thread, channel } => {
                tick(&mut clocks, thread);
                let Some(sent) = channels.entry(channel).or_default().pop_front() else {
                    return Err(TraceError::RecvWithoutSend { channel, index });
                };
                join(clocks.entry(thread).or_default(), &sent);
            }
            TraceEvent::Acquire { thread, lock } => {
                tick(&mut clocks, thread);
                let lock_clock = locks.entry(lock).or_default().clone();
                join(clocks.entry(thread).or_default(), &lock_clock);
                locksets.entry(thread).or_default().insert(lock);
            }
            TraceEvent::Release { thread, lock } => {
                tick(&mut clocks, thread);
                if !locksets.entry(thread).or_default().remove(&lock) {
                    return Err(TraceError::ReleaseWithoutAcquire { lock, index });
                }
                let held = clocks.entry(thread).or_default().clone();
                join(locks.entry(lock).or_default(), &held);
            }
            TraceEvent::Access { thread, resource, kind } => {
                tick(&mut clocks, thread);
                stats.accesses += 1;
                let clock = clocks.entry(thread).or_default().clone();
                let held = locksets.entry(thread).or_default().clone();
                let records = history.entry(resource).or_default();
                for prev in records.iter() {
                    let conflicts = prev.kind == AccessKind::Write || kind == AccessKind::Write;
                    if !conflicts || prev.thread == thread {
                        continue;
                    }
                    if !happens_before(&prev.clock, prev.thread, &clock) {
                        return Err(TraceError::Race(Box::new(Race {
                            resource,
                            first: RacyAccess {
                                thread: prev.thread,
                                kind: prev.kind,
                                index: prev.index,
                            },
                            second: RacyAccess { thread, kind, index },
                            common_locks: prev.locks.intersection(&held).copied().collect(),
                        })));
                    }
                }
                records.push(AccessRecord { thread, kind, index, clock, locks: held });
            }
        }
    }
    stats.threads = clocks.len();
    Ok(stats)
}

/// A hand-written trace of a 2-worker drain (DESIGN.md §16.4 topology:
/// coordinator 0, worker `s` at thread `s + 1`, channel `f * T + t` from
/// thread `f` to thread `t`) with a deliberately seeded ordering bug:
/// worker 2 folds a cross-shard contribution **in place** into shard 0's
/// queue (a `ShardState(0)` write) instead of shipping it as a
/// `ToWorker::Run` over the peer channel, so nothing orders the write
/// against worker 1's own pass writes. [`check_trace`] **must** report a
/// race on this trace — a sanitizer that cannot find a planted race proves
/// nothing (the `schedule-sanitizer` binary asserts this on every run).
pub fn seeded_ordering_bug_trace() -> Vec<TraceEvent> {
    use AccessKind::{Read, Write};
    use TraceEvent::{Access, Recv, Send};
    // s_count = 2, t_count = 3. Start hand-off: channel w + 1 to worker
    // w. Status: thread * t_count (3 for worker 1, 6 for worker 2). Peer
    // runs would use thread * t_count + peer + 1 — the bug is exactly that
    // no such send happens.
    vec![
        // The coordinator seeds both shards' queues in place, then spawns
        // each worker behind a start hand-off.
        Access { thread: 0, resource: Resource::ShardState(0), kind: Write },
        Access { thread: 0, resource: Resource::ShardState(1), kind: Write },
        Send { thread: 0, channel: 1 },
        Send { thread: 0, channel: 2 },
        // Worker 1 takes the hand-off and runs two passes.
        Recv { thread: 1, channel: 1 },
        Access { thread: 1, resource: Resource::ShardState(0), kind: Write },
        Access { thread: 1, resource: Resource::ShardState(0), kind: Write },
        // Worker 2 does the same on its own shard...
        Recv { thread: 2, channel: 2 },
        Access { thread: 2, resource: Resource::ShardState(1), kind: Write },
        Access { thread: 2, resource: Resource::ShardState(1), kind: Write },
        // ...then the bug: a cross-shard contribution folded straight
        // into shard 0's queue, not shipped as a run on channel
        // 2 * 3 + 1 + 1 = 8. No happens-before edge to worker 1's writes.
        Access { thread: 2, resource: Resource::ShardState(0), kind: Write },
        // Both workers report idle; the coordinator confirms quiescence,
        // stops them, and reads the shards behind their Done acks.
        Send { thread: 1, channel: 3 },
        Send { thread: 2, channel: 6 },
        Recv { thread: 0, channel: 3 },
        Recv { thread: 0, channel: 6 },
        Access { thread: 0, resource: Resource::ShardState(0), kind: Read },
        Access { thread: 0, resource: Resource::ShardState(1), kind: Read },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(thread: usize, resource: Resource, kind: AccessKind) -> TraceEvent {
        TraceEvent::Access { thread, resource, kind }
    }

    #[test]
    fn a_correct_trace_is_clean() {
        use AccessKind::{Read, Write};
        use TraceEvent::{Recv, Send};
        // Same shape as the seeded trace, with worker 2 shipping its
        // cross-shard contribution as a run on the peer channel
        // (2 * 3 + 1 + 1 = 8) for worker 1 to fold into its own queue.
        let trace = vec![
            acc(0, Resource::ShardState(0), Write),
            acc(0, Resource::ShardState(1), Write),
            Send { thread: 0, channel: 1 },
            Send { thread: 0, channel: 2 },
            Recv { thread: 1, channel: 1 },
            acc(1, Resource::ShardState(0), Write),
            acc(1, Resource::ShardState(0), Write),
            Recv { thread: 2, channel: 2 },
            acc(2, Resource::ShardState(1), Write),
            acc(2, Resource::ShardState(1), Write),
            Send { thread: 2, channel: 8 },
            Recv { thread: 1, channel: 8 },
            acc(1, Resource::ShardState(0), Write),
            Send { thread: 1, channel: 3 },
            Send { thread: 2, channel: 6 },
            Recv { thread: 0, channel: 3 },
            Recv { thread: 0, channel: 6 },
            acc(0, Resource::ShardState(0), Read),
            acc(0, Resource::ShardState(1), Read),
        ];
        let stats = check_trace(&trace).expect("clean trace flagged");
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.accesses, 9);
    }

    #[test]
    fn the_seeded_ordering_bug_is_detected() {
        let err =
            check_trace(&seeded_ordering_bug_trace()).expect_err("the planted race must be found");
        match err {
            TraceError::Race(race) => {
                assert_eq!(race.resource, Resource::ShardState(0));
                assert_eq!(race.first.thread, 1);
                assert_eq!(race.second.thread, 2);
                assert!(race.common_locks.is_empty());
            }
            other => panic!("expected a race, got {other}"),
        }
    }

    #[test]
    fn lock_edges_order_critical_sections() {
        use AccessKind::Write;
        use TraceEvent::{Acquire, Release};
        let locked = vec![
            Acquire { thread: 1, lock: 9 },
            acc(1, Resource::ShardState(0), Write),
            Release { thread: 1, lock: 9 },
            Acquire { thread: 2, lock: 9 },
            acc(2, Resource::ShardState(0), Write),
            Release { thread: 2, lock: 9 },
        ];
        check_trace(&locked).expect("lock-ordered writes flagged as a race");

        // Same accesses without the lock: a race, with empty locksets.
        let unlocked =
            vec![acc(1, Resource::ShardState(0), Write), acc(2, Resource::ShardState(0), Write)];
        let err = check_trace(&unlocked).expect_err("unlocked conflicting writes not flagged");
        assert!(matches!(err, TraceError::Race(_)));
    }

    #[test]
    fn disjoint_locks_still_race_and_are_reported_in_the_locksets() {
        use AccessKind::Write;
        use TraceEvent::{Acquire, Release};
        let trace = vec![
            Acquire { thread: 1, lock: 7 },
            acc(1, Resource::ShardState(0), Write),
            Release { thread: 1, lock: 7 },
            Acquire { thread: 2, lock: 8 },
            acc(2, Resource::ShardState(0), Write),
            Release { thread: 2, lock: 8 },
        ];
        match check_trace(&trace) {
            Err(TraceError::Race(race)) => assert!(race.common_locks.is_empty()),
            other => panic!("expected a race, got {other:?}"),
        }
    }

    #[test]
    fn reads_never_race_with_reads() {
        use AccessKind::Read;
        let trace =
            vec![acc(1, Resource::ShardState(0), Read), acc(2, Resource::ShardState(0), Read)];
        check_trace(&trace).expect("concurrent reads are not a race");
    }

    #[test]
    fn malformed_traces_are_rejected_not_miscounted() {
        let orphan_recv = vec![TraceEvent::Recv { thread: 1, channel: 4 }];
        assert_eq!(
            check_trace(&orphan_recv),
            Err(TraceError::RecvWithoutSend { channel: 4, index: 0 })
        );
        let orphan_release = vec![TraceEvent::Release { thread: 1, lock: 3 }];
        assert_eq!(
            check_trace(&orphan_release),
            Err(TraceError::ReleaseWithoutAcquire { lock: 3, index: 0 })
        );
    }
}
