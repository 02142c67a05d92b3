//! Property tests for [`CoalescingQueue`]: random insert/drain
//! interleavings must preserve the structural invariants checked by
//! `validate()` and the `QueueStats` conservation law (`inserts ==
//! coalesced + drained + len()`). As in the engine, a sequence runs in
//! disjoint phases: delete phases (a Tag or VAP wave, whose deletes
//! coalesce) and regular phases, with the queue drained whole between
//! them, since a delete meeting a regular resident panics.
//! The row properties pin the row entry points — the kernel's whole-row
//! emission and the set-up phases' rows — to the event-at-a-time
//! reference, and the
//! run-exchange properties at the bottom pin the contract the async
//! engine's cross-shard exchange (DESIGN.md §16.2) builds on
//! [`CoalescingQueue::insert_run`].

#![expect(clippy::panic, reason = "test code: a failed `validate()` is the failure signal")]

use jetstream_algorithms::{Algorithm, EdgeOp, Reduce, Sssp};
use jetstream_core::{Carry, CoalescingQueue, Event, Row};
use jetstream_testkit::{run_cases, DetRng};

fn alg() -> Sssp {
    Sssp::new(0)
}

/// What one `take_*_into` call drains, collected.
fn taken(take: impl FnOnce(&mut Vec<Event>) -> usize) -> Vec<Event> {
    let mut out = Vec::new();
    take(&mut out);
    out
}

/// A random event of the phase's kind targeting one of `num_vertices`
/// vertices: in a delete phase a delete with a source id, otherwise a
/// regular event, ~15% of them request-flagged.
fn arb_event(rng: &mut DetRng, num_vertices: usize, deletes: bool) -> Event {
    let target = rng.gen_index(num_vertices) as u32;
    let payload = rng.gen_f64() * 10.0;
    if deletes {
        Event::delete(rng.gen_index(num_vertices) as u32, target, payload)
    } else if rng.gen_bool(0.15) {
        Event::request(target, payload)
    } else {
        Event::regular(target, payload)
    }
}

/// Applies a random operation to `queue` in phase `deletes`, returning how
/// many events the operation handed back to the caller (drains only). A
/// phase switch drains the queue whole first.
fn arb_op(rng: &mut DetRng, queue: &mut CoalescingQueue, n: usize, deletes: &mut bool) -> usize {
    match rng.gen_index(10) {
        // Inserting dominates so queues actually fill up.
        0..=5 => {
            queue.insert(arb_event(rng, n, *deletes), &alg());
            0
        }
        6 => queue.take_bin_into(rng.gen_index(queue.num_bins()), &mut Vec::new()),
        7 | 8 => {
            let lo = rng.gen_index(n + 1);
            let hi = lo + rng.gen_index(n + 1 - lo);
            queue.take_range_into(lo, hi, &mut Vec::new())
        }
        _ => {
            *deletes = !*deletes;
            queue.take_all_into(&mut Vec::new())
        }
    }
}

#[test]
fn random_interleavings_preserve_invariants() {
    run_cases("queue: random interleavings preserve invariants", 128, |rng| {
        let num_vertices = 1 + rng.gen_index(64);
        let num_bins = 1 + rng.gen_index(8);
        let mut queue = CoalescingQueue::new(num_vertices, num_bins);
        let mut deletes = rng.gen_bool(0.5);
        for _ in 0..rng.gen_index(120) {
            arb_op(rng, &mut queue, num_vertices, &mut deletes);
            queue.validate().unwrap_or_else(|why| panic!("{why}"));
        }
    });
}

#[test]
fn stats_account_for_every_event() {
    run_cases("queue: stats account for every event", 128, |rng| {
        let num_vertices = 1 + rng.gen_index(48);
        let mut queue = CoalescingQueue::new(num_vertices, 1 + rng.gen_index(6));
        let (mut inserted, mut received, mut deletes) = (0u64, 0u64, rng.gen_bool(0.5));
        for _ in 0..rng.gen_index(150) {
            if rng.gen_bool(0.6) {
                queue.insert(arb_event(rng, num_vertices, deletes), &alg());
                inserted += 1;
            } else {
                received += match rng.gen_index(3) {
                    0 => queue.take_bin_into(rng.gen_index(queue.num_bins()), &mut Vec::new()),
                    1 => {
                        let lo = rng.gen_index(num_vertices + 1);
                        let hi = lo + rng.gen_index(num_vertices + 1 - lo);
                        queue.take_range_into(lo, hi, &mut Vec::new())
                    }
                    _ => {
                        deletes = !deletes;
                        queue.take_all_into(&mut Vec::new())
                    }
                } as u64;
            }
        }
        let stats = queue.stats();
        assert_eq!(stats.inserts, inserted, "insert counter");
        assert_eq!(stats.drained, received, "drain counter");
        assert_eq!(
            stats.inserts,
            stats.coalesced + stats.drained + queue.len() as u64,
            "conservation: {stats:?} with {} resident",
            queue.len()
        );
    });
}

#[test]
fn full_drain_empties_the_queue_exactly_once() {
    run_cases("queue: full drain empties exactly once", 64, |rng| {
        let num_vertices = 1 + rng.gen_index(48);
        let mut queue = CoalescingQueue::new(num_vertices, 1 + rng.gen_index(6));
        let deletes = rng.gen_bool(0.5);
        for _ in 0..rng.gen_index(100) {
            queue.insert(arb_event(rng, num_vertices, deletes), &alg());
        }
        let resident = queue.len();
        let mut drained = 0;
        for bin in 0..queue.num_bins() {
            let events = taken(|out| queue.take_bin_into(bin, out));
            // Bin drains come out in ascending vertex order (§4.2).
            assert!(events.windows(2).all(|w| w[0].target < w[1].target));
            drained += events.len();
        }
        assert_eq!(drained, resident, "drained everything exactly once");
        assert!(queue.is_empty());
        queue.validate().unwrap_or_else(|why| panic!("{why}"));
    });
}

/// The retained pre-bitmap reference implementation: one `Option<Event>`
/// slot per vertex, linear scans on every drain. Deliberately naive — it
/// restates the queue's contract in the simplest possible code so the
/// bitmap/SoA production queue can be checked against it operation by
/// operation (same drained events in the same order, same `QueueStats`).
struct NaiveQueue {
    slots: Vec<Option<Event>>,
    bin_size: usize,
    num_bins: usize,
    stats: jetstream_core::QueueStats,
}

impl NaiveQueue {
    fn new(num_vertices: usize, num_bins: usize) -> Self {
        let bin_size = num_vertices.div_ceil(num_bins).max(1);
        let num_bins = if num_vertices == 0 { 1 } else { num_vertices.div_ceil(bin_size) };
        NaiveQueue {
            slots: vec![None; num_vertices],
            bin_size,
            num_bins,
            stats: jetstream_core::QueueStats::default(),
        }
    }

    fn insert(&mut self, event: Event, reduce: Reduce) {
        self.stats.inserts += 1;
        match &mut self.slots[event.target as usize] {
            slot @ None => *slot = Some(event),
            Some(resident) => {
                assert_eq!(resident.is_delete, event.is_delete, "phases are disjoint");
                let reduced = reduce.apply(resident.payload, event.payload);
                if reduced != resident.payload {
                    resident.source = event.source;
                }
                resident.payload = reduced;
                resident.request |= event.request;
                self.stats.coalesced += 1;
            }
        }
    }

    fn take_range(&mut self, lo: usize, hi: usize) -> Vec<Event> {
        let out: Vec<Event> = self.slots[lo..hi].iter_mut().filter_map(Option::take).collect();
        self.stats.drained += out.len() as u64;
        out
    }

    fn take_bin(&mut self, bin: usize) -> Vec<Event> {
        let lo = bin * self.bin_size;
        let hi = ((bin + 1) * self.bin_size).min(self.slots.len());
        self.take_range(lo, hi)
    }

    fn take_all(&mut self) -> Vec<Event> {
        self.take_range(0, self.slots.len())
    }
}

#[test]
fn bitmap_queue_matches_the_naive_reference_exactly() {
    // Differential property: the production bitmap/SoA queue and the naive
    // slot-scan reference, fed the identical random op sequence (inserts,
    // all three drain shapes, phase switches), must hand back the identical
    // events in the identical order and report identical `QueueStats`
    // after every single operation.
    run_cases("queue: bitmap == naive reference", 256, |rng| {
        let num_vertices = 1 + rng.gen_index(200);
        matches_the_naive_reference(rng, num_vertices);
    });
}

#[test]
fn a_summary_over_many_words_matches_the_naive_reference() {
    // The same differential property over vertex spaces of 2 to 4 summary
    // words (4,096 vertices each), where drains skip unmarked words and
    // `validate` checks every summary bit against its occupancy word.
    run_cases("queue: summary over many words == naive reference", 32, |rng| {
        let num_vertices = 4096 + rng.gen_index(3 * 4096);
        matches_the_naive_reference(rng, num_vertices);
    });
}

/// One random op sequence on a `num_vertices` queue and the naive
/// reference, compared after every operation.
fn matches_the_naive_reference(rng: &mut DetRng, num_vertices: usize) {
    let num_bins = 1 + rng.gen_index(8);
    let mut real = CoalescingQueue::new(num_vertices, num_bins);
    let mut naive = NaiveQueue::new(num_vertices, num_bins);
    assert_eq!(real.num_bins(), naive.num_bins, "bin geometry diverged");
    let mut scratch: Vec<Event> = Vec::new();
    let mut deletes = rng.gen_bool(0.5);
    for op in 0..rng.gen_index(300) {
        match rng.gen_index(12) {
            0..=6 => {
                let ev = arb_event(rng, num_vertices, deletes);
                real.insert(ev, &alg());
                naive.insert(ev, alg().reduce_op());
            }
            7 => {
                let bin = rng.gen_index(real.num_bins());
                scratch.clear();
                real.take_bin_into(bin, &mut scratch);
                assert_eq!(scratch, naive.take_bin(bin), "take_bin({bin}) at op {op}");
            }
            8 => {
                let lo = rng.gen_index(num_vertices + 1);
                let hi = lo + rng.gen_index(num_vertices + 1 - lo);
                scratch.clear();
                real.take_range_into(lo, hi, &mut scratch);
                assert_eq!(scratch, naive.take_range(lo, hi), "take_range at op {op}");
            }
            _ => {
                // Every phase switch drains whole; so do some drains.
                deletes ^= rng.gen_bool(0.7);
                scratch.clear();
                real.take_all_into(&mut scratch);
                assert_eq!(scratch, naive.take_all(), "take_all at op {op}");
            }
        }
        assert_eq!(real.stats(), naive.stats, "stats diverged at op {op}");
        real.validate().unwrap_or_else(|why| panic!("{why}"));
    }
    // Final full drain: both sides must empty identically.
    scratch.clear();
    real.take_all_into(&mut scratch);
    assert_eq!(scratch, naive.take_all(), "final take_all");
    assert!(real.is_empty());
    assert_eq!(real.stats(), naive.stats, "final stats");
}

/// A random payload from a small set, so ties are common.
fn tied_payload(rng: &mut DetRng) -> f64 {
    (rng.gen_index(7) as f64 - 3.0) * 0.5
}

/// [`tied_payload`], or now and then a NaN or an infinity: the compiled
/// fold arms must treat them exactly as `Reduce::apply` and
/// `EdgeOp::apply` do (`min`/`max` ignore a NaN operand, `+` keeps it).
fn edge_payload(rng: &mut DetRng) -> f64 {
    match rng.gen_index(8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => tied_payload(rng),
    }
}

/// One row as a row entry point takes it: ascending or not, with
/// duplicates, every target in `base..base + num_vertices`.
fn arb_row(rng: &mut DetRng, base: u32, num_vertices: usize) -> Vec<u32> {
    (0..rng.gen_index(65)).map(|_| base + rng.gen_index(num_vertices) as u32).collect()
}

/// Drained events compared bit for bit: a sum of opposite infinities is
/// a NaN, which `==` would never match.
fn bits(events: &[Event]) -> Vec<(u32, u64, bool, bool, Option<u32>)> {
    events.iter().map(fingerprint).collect()
}

/// One random event of the phase's kind for `target`: a delete in a
/// delete phase; otherwise a plain regular event, a request, or — when
/// `tagged` — a sourced one.
fn phase_event(rng: &mut DetRng, target: u32, payload: f64, deletes: bool, tagged: bool) -> Event {
    match (deletes, rng.gen_index(if tagged { 3 } else { 2 })) {
        (true, _) => Event::delete(rng.gen_index(50) as u32, target, payload),
        (false, 0) => Event::regular(target, payload),
        (false, 1) => Event::request(target, payload),
        _ => Event::regular_from(rng.gen_index(50) as u32, target, payload),
    }
}

/// The harness every row entry point is held to: `insert` puts one random
/// row of the phase's kind into the real queue through the entry point
/// under test and the same events, one by one in row order, into the
/// naive reference — `(rng, real, naive, base, num_vertices, reduce,
/// deletes)`, returning a label. The two must agree on the `QueueStats`
/// after every row, on every bin drained mid-sequence, and on the final
/// slots, whatever is already resident: plain, request-flagged and sourced
/// regular events in a regular phase, deletes in a delete phase. A phase
/// switch drains both whole.
fn rows_match_their_events(
    name: &str,
    insert: impl Fn(
        &mut DetRng,
        &mut CoalescingQueue,
        &mut NaiveQueue,
        u32,
        usize,
        Reduce,
        bool,
    ) -> String,
) {
    run_cases(name, 256, |rng| {
        let num_vertices = 1 + rng.gen_index(96);
        let num_bins = 1 + rng.gen_index(8);
        let base = rng.gen_index(1000) as u32;
        let mut real = CoalescingQueue::new(num_vertices, num_bins);
        let mut naive = NaiveQueue::new(num_vertices, num_bins);
        let mut deletes = rng.gen_bool(0.5);
        for step in 0..rng.gen_index(12) {
            if rng.gen_bool(0.3) {
                deletes = !deletes;
                let (a, b) = (bits(&taken(|out| real.take_all_into(out))), bits(&naive.take_all()));
                assert_eq!(a, b, "phase switch before row {step}");
            }
            // Residents first: half the regular phases start from plain
            // residents only, so the shortcut is what the row runs through.
            let tagged = rng.gen_bool(0.5);
            for _ in 0..rng.gen_index(40) {
                let (target, payload) = (rng.gen_index(num_vertices) as u32, tied_payload(rng));
                let ev = phase_event(rng, target, payload, deletes, tagged);
                let reduce = [Reduce::Min, Reduce::Max, Reduce::Sum][rng.gen_index(3)];
                real.insert_with(ev, reduce);
                naive.insert(ev, reduce);
            }

            let reduce = [Reduce::Min, Reduce::Max, Reduce::Sum][rng.gen_index(3)];
            let label = insert(rng, &mut real, &mut naive, base, num_vertices, reduce, deletes);
            assert_eq!(real.stats(), naive.stats, "stats after row {step} ({reduce:?}, {label})");
            real.validate().unwrap_or_else(|why| panic!("after row {step}: {why}"));

            if rng.gen_bool(0.3) {
                // Drain a bin mid-sequence: the tagged-resident count has
                // to follow drains as well as folds.
                let bin = rng.gen_index(real.num_bins());
                let (a, b) =
                    (bits(&taken(|out| real.take_bin_into(bin, out))), bits(&naive.take_bin(bin)));
                assert_eq!(a, b, "bin {bin} after row {step}");
                real.validate().unwrap_or_else(|why| panic!("after draining bin {bin}: {why}"));
            }
        }
        for bin in 0..real.num_bins() {
            let (a, b) =
                (bits(&taken(|out| real.take_bin_into(bin, out))), bits(&naive.take_bin(bin)));
            assert_eq!(a, b, "final contents of bin {bin}");
        }
        assert_eq!(real.stats(), naive.stats, "final stats");
        real.validate().unwrap_or_else(|why| panic!("{why}"));
    });
}

#[test]
fn a_row_insert_is_its_events_inserted_one_by_one() {
    // `insert_row` is every row's way into a queue: the kernel's whole-row
    // emission and the set-up phases' rows of seeds and requests. It
    // matches the carry once per row, so every carry is held to its
    // events inserted one by one, under every operator: sourced and
    // sourceless regular rows (a plain row takes the two-array shortcut
    // while nothing tagged is resident, the flag path otherwise — "a
    // dominant sourceless payload clears the source"); weighted rows
    // under every `EdgeOp`, bases and weights including signed zeros,
    // negatives, infinities and NaN; request rows; and Tag's delete
    // waves, which fold into resident deletes.
    rows_match_their_events(
        "queue: insert_row == event-at-a-time",
        |rng, real, naive, base, n, reduce, deletes| {
            let source = rng.gen_bool(0.5).then(|| rng.gen_index(50) as u32);
            let targets = arb_row(rng, base, n);
            let weights: Vec<f64> = targets
                .iter()
                .map(|_| if rng.gen_bool(0.2) { -0.0 } else { edge_payload(rng) })
                .collect();
            let carry = match (deletes, rng.gen_index(3)) {
                (true, _) => {
                    Carry::Delete { payload: tied_payload(rng), source: rng.gen_index(50) as u32 }
                }
                (false, 0) => Carry::Regular { delta: tied_payload(rng), source },
                (false, 1) => {
                    let op =
                        [EdgeOp::AddWeight, EdgeOp::MinWeight, EdgeOp::Uniform, EdgeOp::PerEdge]
                            [rng.gen_index(4)];
                    Carry::Weighted { weights: &weights, base: edge_payload(rng), op, source }
                }
                _ => Carry::Request { payload: tied_payload(rng) },
            };
            let row = Row { targets: &targets, carry };
            real.insert_row(base, row, reduce);
            for ev in row.events() {
                naive.insert(Event { target: ev.target - base, ..ev }, reduce);
            }
            format!("{carry:?}")
        },
    );
}

#[test]
fn a_run_insert_is_its_events_inserted_one_by_one() {
    // `insert_run` is how a receiving shard folds a pre-coalesced run,
    // with its operator resolved once for the run: held to the naive
    // reference under all three operators, over runs mixing plain,
    // request and sourced events, or runs of deletes, whose payloads
    // include NaN.
    rows_match_their_events(
        "queue: insert_run == event-at-a-time",
        |rng, real, naive, _base, n, reduce, deletes| {
            let run: Vec<Event> = (0..rng.gen_index(65))
                .map(|_| {
                    let (target, payload) = (rng.gen_index(n) as u32, edge_payload(rng));
                    phase_event(rng, target, payload, deletes, true)
                })
                .collect();
            real.insert_run(&run, reduce);
            for &ev in &run {
                naive.insert(ev, reduce);
            }
            format!("run of {}", run.len())
        },
    );
}

#[test]
#[should_panic(expected = "out of range")]
fn a_row_target_below_the_base_is_out_of_range() {
    let mut queue = CoalescingQueue::new(8, 2);
    let row = Row { targets: &[101, 99], carry: Carry::Regular { delta: 1.0, source: None } };
    queue.insert_row(100, row, Reduce::Sum);
}

/// Builds `num_shards` contiguous vertex ranges covering `num_vertices`
/// (the same ownership shape `ShardedEngine` uses). Returns the `S + 1`
/// range boundaries.
fn contiguous_bounds(rng: &mut DetRng, num_vertices: usize, num_shards: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> =
        (0..num_shards - 1).map(|_| rng.gen_index(num_vertices + 1)).collect();
    cuts.sort_unstable();
    let mut bounds = Vec::with_capacity(num_shards + 1);
    bounds.push(0);
    bounds.extend(cuts);
    bounds.push(num_vertices);
    bounds
}

/// The observable identity of a drained event, as a sortable tuple.
/// Payloads compare by bit pattern so the multiset comparison is exact.
fn fingerprint(ev: &Event) -> (u32, u64, bool, bool, Option<u32>) {
    (ev.target, ev.payload.to_bits(), ev.is_delete, ev.request, ev.source)
}

/// Drains `queue` whole, its events shifted by `lo` and fingerprinted.
fn drained(queue: &mut CoalescingQueue, lo: u32) -> Vec<(u32, u64, bool, bool, Option<u32>)> {
    let shift = |mut ev: Event| {
        ev.target += lo;
        fingerprint(&ev)
    };
    taken(|out| queue.take_all_into(out)).into_iter().map(shift).collect()
}

#[test]
fn sharded_queues_coalesce_to_the_same_multiset_as_one_queue() {
    // The sharded engine's correctness rests on coalescing being a
    // per-vertex operation: splitting one queue into per-shard queues by
    // contiguous vertex ownership must not change what coalesces with
    // what. Feed the same event stream, in delete and regular phases, into
    // one global queue and into S local queues, drain both sides whole at
    // every phase switch and at the end, and demand the same event
    // multiset and the same summed `QueueStats`.
    run_cases("queue: sharded split preserves coalescing multiset", 192, |rng| {
        let num_vertices = 8 + rng.gen_index(56);
        let num_shards = 1 + rng.gen_index(6);
        let bounds = contiguous_bounds(rng, num_vertices, num_shards);

        let mut single = CoalescingQueue::new(num_vertices, 1 + rng.gen_index(6));
        let mut locals: Vec<CoalescingQueue> = bounds
            .windows(2)
            .map(|w| CoalescingQueue::new((w[1] - w[0]).max(1), 1 + rng.gen_index(4)))
            .collect();
        let (mut merged, mut sharded) = (Vec::new(), Vec::new());
        let mut deletes = rng.gen_bool(0.5);
        for _ in 0..rng.gen_index(200) {
            if rng.gen_bool(0.05) {
                // A phase switch: the engine drains every lane whole.
                deletes = !deletes;
                merged.extend(drained(&mut single, 0));
                for (local, w) in locals.iter_mut().zip(bounds.windows(2)) {
                    sharded.extend(drained(local, w[0] as u32));
                }
                continue;
            }
            let ev = arb_event(rng, num_vertices, deletes);
            let shard = bounds.partition_point(|&b| b <= ev.target as usize) - 1;
            let mut translated = ev;
            translated.target -= bounds[shard] as u32;
            single.insert(ev, &alg());
            locals[shard].insert(translated, &alg());
        }

        merged.extend(drained(&mut single, 0));
        let mut stats = jetstream_core::QueueStats::default();
        for (local, w) in locals.iter_mut().zip(bounds.windows(2)) {
            sharded.extend(drained(local, w[0] as u32));
            stats += local.stats();
            local.validate().unwrap_or_else(|why| panic!("{why}"));
        }
        merged.sort_unstable();
        sharded.sort_unstable();
        assert_eq!(merged, sharded, "drained multisets diverged");
        assert_eq!(stats, single.stats(), "summed shard stats diverged");
        single.validate().unwrap_or_else(|why| panic!("{why}"));
    });
}

#[test]
fn run_exchange_delivers_the_event_at_a_time_multiset() {
    // Models the async engine's cross-shard exchange (DESIGN.md §16.2):
    // k sender outboxes fold events bound for one receiver, flush whole
    // queue-bins as ascending runs at arbitrary moments, and the receiver
    // merges every run with `insert_run` — a k-way merge amortized
    // through the receiver's own slots. Contract under test: batched run
    // delivery is indistinguishable from inserting the same events one at
    // a time in the same arrival order — same drained multiset, same
    // `QueueStats` — no matter how the k flush streams interleave, and
    // regardless of whether run boundaries line up with receiver bins.
    // Events come in delete and regular phases; at a phase switch every
    // sender flushes and both receivers drain whole, as a drain ends.
    run_cases("queue: run exchange == event-at-a-time", 192, |rng| {
        let num_vertices = 8 + rng.gen_index(56);
        let num_senders = 1 + rng.gen_index(5);
        let mut outboxes: Vec<CoalescingQueue> = (0..num_senders)
            .map(|_| CoalescingQueue::new(num_vertices, 1 + rng.gen_index(4)))
            .collect();
        let receiver_bins = 1 + rng.gen_index(6);
        let mut batched = CoalescingQueue::new(num_vertices, receiver_bins);
        let mut one_at_a_time = CoalescingQueue::new(num_vertices, receiver_bins);
        let deliver =
            |run: &[Event], batched: &mut CoalescingQueue, single: &mut CoalescingQueue| {
                batched.insert_run(run, alg().reduce_op());
                for &ev in run {
                    single.insert(ev, &alg());
                }
            };
        let (mut from_runs, mut from_events) = (Vec::new(), Vec::new());
        let mut deletes = rng.gen_bool(0.5);

        for step in 0..=rng.gen_index(250) {
            match rng.gen_index(12) {
                // Producing dominates so outboxes hold real runs.
                0..=6 => {
                    let sender = rng.gen_index(num_senders);
                    outboxes[sender].insert(arb_event(rng, num_vertices, deletes), &alg());
                }
                7..=9 => {
                    // Partial flush: one bin of one sender, the unit the
                    // async engine ships under a non-zero chunk plan.
                    let sender = rng.gen_index(num_senders);
                    let bin = rng.gen_index(outboxes[sender].num_bins());
                    let run = taken(|out| outboxes[sender].take_bin_into(bin, out));
                    deliver(&run, &mut batched, &mut one_at_a_time);
                }
                _ => {
                    // End of a phase: every sender drains completely
                    // (chunk plan 0), then both receivers.
                    for outbox in &mut outboxes {
                        let run = taken(|out| outbox.take_all_into(out));
                        deliver(&run, &mut batched, &mut one_at_a_time);
                        assert!(outbox.is_empty(), "a sender retained events");
                    }
                    from_runs.extend(drained(&mut batched, 0));
                    from_events.extend(drained(&mut one_at_a_time, 0));
                    deletes = !deletes;
                }
            }
            batched.validate().unwrap_or_else(|why| panic!("step {step}: {why}"));
        }
        for outbox in &mut outboxes {
            let run = taken(|out| outbox.take_all_into(out));
            deliver(&run, &mut batched, &mut one_at_a_time);
        }
        assert_eq!(batched.stats(), one_at_a_time.stats(), "stats diverged");
        from_runs.extend(drained(&mut batched, 0));
        from_events.extend(drained(&mut one_at_a_time, 0));
        from_runs.sort_unstable();
        from_events.sort_unstable();
        assert_eq!(from_runs, from_events, "drained multisets diverged");
    });
}

#[test]
fn outbox_folding_commutes_with_shipping_for_selective_streams() {
    // The other half of the exchange contract: folding events in the
    // sender's outbox *before* shipping must be invisible to the
    // receiver's final state, because the reduce (min, for SSSP) is
    // associative and commutative — fold-then-ship and ship-then-fold
    // reach the same slots. Feed one stream of regular/request events
    // both directly into a receiver and through randomly-flushed
    // outboxes into another; the fully drained multisets must match.
    run_cases("queue: outbox folding commutes with shipping", 192, |rng| {
        let num_vertices = 8 + rng.gen_index(56);
        let num_senders = 1 + rng.gen_index(5);
        let mut outboxes: Vec<CoalescingQueue> = (0..num_senders)
            .map(|_| CoalescingQueue::new(num_vertices, 1 + rng.gen_index(4)))
            .collect();
        let mut through_outboxes = CoalescingQueue::new(num_vertices, 1 + rng.gen_index(6));
        let mut direct = CoalescingQueue::new(num_vertices, 1 + rng.gen_index(6));

        for _ in 0..rng.gen_index(250) {
            if rng.gen_bool(0.75) {
                let target = rng.gen_index(num_vertices) as u32;
                let payload = rng.gen_f64() * 10.0;
                let ev = if rng.gen_bool(0.15) {
                    Event::request(target, payload)
                } else {
                    Event::regular(target, payload)
                };
                direct.insert(ev, &alg());
                outboxes[rng.gen_index(num_senders)].insert(ev, &alg());
            } else {
                let sender = rng.gen_index(num_senders);
                let bin = rng.gen_index(outboxes[sender].num_bins());
                let run = taken(|out| outboxes[sender].take_bin_into(bin, out));
                through_outboxes.insert_run(&run, alg().reduce_op());
            }
        }
        for outbox in &mut outboxes {
            let run = taken(|out| outbox.take_all_into(out));
            through_outboxes.insert_run(&run, alg().reduce_op());
        }
        let (mut a, mut b) = (drained(&mut through_outboxes, 0), drained(&mut direct, 0));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "folded fixpoints diverged");
    });
}
