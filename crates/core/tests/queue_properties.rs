//! Property tests for [`CoalescingQueue`]: random insert/drain
//! interleavings — with `coalesce_deletes` toggled mid-sequence — must
//! preserve the structural invariants checked by `validate()` and the
//! `QueueStats` conservation law (`inserts == coalesced + drained +
//! len()`, where `len()` counts slot residents and overflow together).
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

/// A random event targeting one of `num_vertices` vertices; ~25% are
/// delete events (with a source id), ~15% carry the request flag.
fn arb_event(rng: &mut DetRng, num_vertices: usize) -> Event {
    let target = rng.gen_index(num_vertices) as u32;
    let payload = rng.gen_f64() * 10.0;
    if rng.gen_bool(0.25) {
        Event::delete(rng.gen_index(num_vertices) as u32, target, payload)
    } else if rng.gen_bool(0.15) {
        Event::request(target, payload)
    } else {
        Event::regular(target, payload)
    }
}

/// Applies a random operation to `queue`, returning how many events the
/// operation handed back to the caller (drains only).
fn arb_op(rng: &mut DetRng, queue: &mut CoalescingQueue, num_vertices: usize) -> usize {
    match rng.gen_index(10) {
        // Inserting dominates so queues actually fill up.
        0..=5 => {
            queue.insert(arb_event(rng, num_vertices), &alg());
            0
        }
        6 => queue.take_bin_into(rng.gen_index(queue.num_bins()), &mut Vec::new()),
        7 => {
            let lo = rng.gen_index(num_vertices + 1);
            let hi = lo + rng.gen_index(num_vertices + 1 - lo);
            queue.take_range_into(lo, hi, &mut Vec::new())
        }
        8 => usize::from(queue.pop_overflow().is_some()),
        _ => {
            // Toggle delete coalescing mid-sequence (the engine does this
            // when entering/leaving DAP recovery).
            queue.set_coalesce_deletes(rng.gen_bool(0.5));
            0
        }
    }
}

#[test]
fn random_interleavings_preserve_invariants() {
    run_cases("queue: random interleavings preserve invariants", 128, |rng| {
        let num_vertices = 1 + rng.gen_index(64);
        let num_bins = 1 + rng.gen_index(8);
        let mut queue = CoalescingQueue::new(num_vertices, num_bins);
        let ops = rng.gen_index(120);
        for _ in 0..ops {
            arb_op(rng, &mut queue, num_vertices);
            queue.validate().unwrap_or_else(|why| panic!("{why}"));
        }
    });
}

#[test]
fn stats_account_for_every_event() {
    run_cases("queue: stats account for every event", 128, |rng| {
        let num_vertices = 1 + rng.gen_index(48);
        let mut queue = CoalescingQueue::new(num_vertices, 1 + rng.gen_index(6));
        let mut inserted = 0u64;
        let mut received = 0u64;
        for _ in 0..rng.gen_index(150) {
            if rng.gen_bool(0.6) {
                queue.insert(arb_event(rng, num_vertices), &alg());
                inserted += 1;
            } else {
                received += match rng.gen_index(4) {
                    0 => queue.take_bin_into(rng.gen_index(queue.num_bins()), &mut Vec::new()),
                    1 => {
                        let lo = rng.gen_index(num_vertices + 1);
                        let hi = lo + rng.gen_index(num_vertices + 1 - lo);
                        queue.take_range_into(lo, hi, &mut Vec::new())
                    }
                    2 => usize::from(queue.pop_overflow().is_some()),
                    _ => {
                        queue.set_coalesce_deletes(rng.gen_bool(0.5));
                        0
                    }
                } as u64;
            }
        }
        let stats = queue.stats();
        assert_eq!(stats.inserts, inserted, "insert counter");
        assert_eq!(stats.drained, received, "drain counter");
        // `len()` counts slot residents and overflow together.
        assert_eq!(
            stats.inserts,
            stats.coalesced + stats.drained + queue.len() as u64,
            "conservation: {stats:?} with {} resident ({} in overflow)",
            queue.len(),
            queue.overflow_len()
        );
    });
}

#[test]
fn disabling_delete_coalescing_evicts_resident_deletes() {
    run_cases("queue: disabling delete coalescing evicts deletes", 64, |rng| {
        let num_vertices = 1 + rng.gen_index(32);
        let mut queue = CoalescingQueue::new(num_vertices, 1 + rng.gen_index(4));
        for _ in 0..rng.gen_index(60) {
            queue.insert(arb_event(rng, num_vertices), &alg());
        }
        let before = queue.len();
        let overflow_before = queue.overflow_len();
        queue.set_coalesce_deletes(false);
        queue.validate().unwrap_or_else(|why| panic!("{why}"));
        // Eviction moves events from slots to the overflow buffer without
        // losing any (`len()` counts both).
        assert_eq!(queue.len(), before);
        assert!(queue.overflow_len() >= overflow_before);
        // A delete inserted now must bypass the slots entirely.
        let overflow_before = queue.overflow_len();
        queue.insert(Event::delete(0, 0, 1.0), &alg());
        assert_eq!(queue.overflow_len(), overflow_before + 1);
        queue.validate().unwrap_or_else(|why| panic!("{why}"));
    });
}

#[test]
fn full_drain_empties_the_queue_exactly_once() {
    run_cases("queue: full drain empties exactly once", 64, |rng| {
        let num_vertices = 1 + rng.gen_index(48);
        let mut queue = CoalescingQueue::new(num_vertices, 1 + rng.gen_index(6));
        for _ in 0..rng.gen_index(100) {
            queue.insert(arb_event(rng, num_vertices), &alg());
        }
        let resident = queue.len();
        let mut drained = 0;
        for bin in 0..queue.num_bins() {
            let events = taken(|out| queue.take_bin_into(bin, out));
            // Bin drains come out in ascending vertex order (§4.2).
            assert!(events.windows(2).all(|w| w[0].target < w[1].target));
            drained += events.len();
        }
        while queue.pop_overflow().is_some() {
            drained += 1;
        }
        assert_eq!(drained, resident, "drained everything exactly once");
        assert!(queue.is_empty());
        assert_eq!(queue.overflow_len(), 0);
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
    overflow: std::collections::VecDeque<Event>,
    coalesce_deletes: bool,
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
            overflow: std::collections::VecDeque::new(),
            coalesce_deletes: true,
            stats: jetstream_core::QueueStats::default(),
        }
    }

    fn set_coalesce_deletes(&mut self, coalesce: bool) {
        self.coalesce_deletes = coalesce;
        if coalesce {
            return;
        }
        for idx in 0..self.slots.len() {
            if let Some(ev) = self.slots[idx].take_if(|e| e.is_delete) {
                self.stats.overflowed += 1;
                self.overflow.push_back(ev);
            }
        }
    }

    fn insert(&mut self, event: Event, reduce: Reduce) {
        self.stats.inserts += 1;
        if event.is_delete && !self.coalesce_deletes {
            self.stats.overflowed += 1;
            self.overflow.push_back(event);
            return;
        }
        match &mut self.slots[event.target as usize] {
            slot @ None => *slot = Some(event),
            Some(resident) => {
                if resident.is_delete != event.is_delete {
                    self.stats.overflowed += 1;
                    self.overflow.push_back(event);
                    return;
                }
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

    fn pop_overflow(&mut self) -> Option<Event> {
        let ev = self.overflow.pop_front();
        if ev.is_some() {
            self.stats.drained += 1;
        }
        ev
    }
}

#[test]
fn bitmap_queue_matches_the_naive_reference_exactly() {
    // Differential property: the production bitmap/SoA queue and the naive
    // slot-scan reference, fed the identical random op sequence (inserts,
    // all three drain shapes, overflow pops, mid-stream coalesce-mode
    // toggles), must hand back the identical events in the identical order
    // and report identical `QueueStats` after every single operation.
    run_cases("queue: bitmap == naive reference", 256, |rng| {
        let num_vertices = 1 + rng.gen_index(200);
        let num_bins = 1 + rng.gen_index(8);
        let mut real = CoalescingQueue::new(num_vertices, num_bins);
        let mut naive = NaiveQueue::new(num_vertices, num_bins);
        assert_eq!(real.num_bins(), naive.num_bins, "bin geometry diverged");
        let mut scratch: Vec<Event> = Vec::new();
        for op in 0..rng.gen_index(300) {
            match rng.gen_index(12) {
                0..=6 => {
                    let ev = arb_event(rng, num_vertices);
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
                9 => {
                    scratch.clear();
                    real.take_all_into(&mut scratch);
                    assert_eq!(scratch, naive.take_all(), "take_all at op {op}");
                }
                10 => {
                    assert_eq!(real.pop_overflow(), naive.pop_overflow(), "overflow at op {op}");
                }
                _ => {
                    let coalesce = rng.gen_bool(0.5);
                    real.set_coalesce_deletes(coalesce);
                    naive.set_coalesce_deletes(coalesce);
                }
            }
            assert_eq!(real.stats(), naive.stats, "stats diverged at op {op}");
            real.validate().unwrap_or_else(|why| panic!("{why}"));
        }
        // Final full drain: both sides must empty identically.
        scratch.clear();
        real.take_all_into(&mut scratch);
        assert_eq!(scratch, naive.take_all(), "final take_all");
        loop {
            let (a, b) = (real.pop_overflow(), naive.pop_overflow());
            assert_eq!(a, b, "final overflow drain");
            if a.is_none() {
                break;
            }
        }
        assert!(real.is_empty());
        assert_eq!(real.stats(), naive.stats, "final stats");
    });
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

/// The harness every row entry point is held to: `insert` puts one random
/// row into the real queue through the entry point under test and the
/// same events, one by one in row order, into the naive reference —
/// `(rng, real, naive, base, num_vertices, reduce)`, returning a label.
/// The two must agree on the four `QueueStats` after every row, on every
/// bin drained mid-sequence, and on the final slots and overflow order,
/// whatever is already resident: plain, request-flagged and sourced
/// regular events, deletes, with delete coalescing on or off.
fn rows_match_their_events(
    name: &str,
    insert: impl Fn(&mut DetRng, &mut CoalescingQueue, &mut NaiveQueue, u32, usize, Reduce) -> String,
) {
    run_cases(name, 256, |rng| {
        let num_vertices = 1 + rng.gen_index(96);
        let num_bins = 1 + rng.gen_index(8);
        let base = rng.gen_index(1000) as u32;
        let mut real = CoalescingQueue::new(num_vertices, num_bins);
        let mut naive = NaiveQueue::new(num_vertices, num_bins);
        for step in 0..rng.gen_index(12) {
            // Residents first: half the cases start from plain residents
            // only, so the shortcut is what the row runs through.
            let tagged_allowed = rng.gen_bool(0.5);
            for _ in 0..rng.gen_index(40) {
                let target = rng.gen_index(num_vertices) as u32;
                let ev = match rng.gen_index(if tagged_allowed { 4 } else { 2 }) {
                    0 => Event::regular(target, tied_payload(rng)),
                    1 => Event::request(target, tied_payload(rng)),
                    2 => Event::regular_from(rng.gen_index(50) as u32, target, tied_payload(rng)),
                    _ => Event::delete(rng.gen_index(50) as u32, target, tied_payload(rng)),
                };
                let reduce = [Reduce::Min, Reduce::Max, Reduce::Sum][rng.gen_index(3)];
                real.insert_with(ev, reduce);
                naive.insert(ev, reduce);
            }
            if rng.gen_bool(0.3) {
                let coalesce = rng.gen_bool(0.5);
                real.set_coalesce_deletes(coalesce);
                naive.set_coalesce_deletes(coalesce);
            }

            let reduce = [Reduce::Min, Reduce::Max, Reduce::Sum][rng.gen_index(3)];
            let label = insert(rng, &mut real, &mut naive, base, num_vertices, reduce);
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
        loop {
            let (a, b) = (real.pop_overflow(), naive.pop_overflow());
            assert_eq!(a.as_ref().map(fingerprint), b.as_ref().map(fingerprint), "overflow order");
            if a.is_none() {
                break;
            }
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
    // negatives, infinities and NaN; request rows; and delete waves,
    // which fold into resident deletes with delete coalescing on and go
    // to overflow in row order with it off. A regular row's events spill
    // beside resident deletes, never fold into them.
    rows_match_their_events(
        "queue: insert_row == event-at-a-time",
        |rng, real, naive, base, n, reduce| {
            let source = rng.gen_bool(0.5).then(|| rng.gen_index(50) as u32);
            let targets = arb_row(rng, base, n);
            let weights: Vec<f64> = targets
                .iter()
                .map(|_| if rng.gen_bool(0.2) { -0.0 } else { edge_payload(rng) })
                .collect();
            let carry = match rng.gen_index(4) {
                0 => Carry::Regular { delta: tied_payload(rng), source },
                1 => {
                    let op =
                        [EdgeOp::AddWeight, EdgeOp::MinWeight, EdgeOp::Uniform, EdgeOp::PerEdge]
                            [rng.gen_index(4)];
                    Carry::Weighted { weights: &weights, base: edge_payload(rng), op, source }
                }
                2 => Carry::Request { payload: tied_payload(rng) },
                _ => {
                    let coalesce = rng.gen_bool(0.5);
                    real.set_coalesce_deletes(coalesce);
                    naive.set_coalesce_deletes(coalesce);
                    Carry::Delete { payload: tied_payload(rng), source: rng.gen_index(50) as u32 }
                }
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
    // request, sourced and delete events whose payloads include NaN.
    rows_match_their_events(
        "queue: insert_run == event-at-a-time",
        |rng, real, naive, _base, n, reduce| {
            let run: Vec<Event> = (0..rng.gen_index(65))
                .map(|_| {
                    let target = rng.gen_index(n) as u32;
                    let payload = edge_payload(rng);
                    match rng.gen_index(4) {
                        0 => Event::regular(target, payload),
                        1 => Event::request(target, payload),
                        2 => Event::regular_from(rng.gen_index(50) as u32, target, payload),
                        _ => Event::delete(rng.gen_index(50) as u32, target, payload),
                    }
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

#[test]
fn sharded_queues_coalesce_to_the_same_multiset_as_one_queue() {
    // The sharded engine's correctness rests on coalescing being a
    // per-vertex operation: splitting one queue into per-shard queues by
    // contiguous vertex ownership must not change what coalesces with
    // what. Feed the same event stream (including mid-stream
    // `coalesce_deletes` toggles) into one global queue and into S local
    // queues, drain both sides fully, and demand the same event multiset
    // and the same summed `QueueStats`.
    run_cases("queue: sharded split preserves coalescing multiset", 192, |rng| {
        let num_vertices = 8 + rng.gen_index(56);
        let num_shards = 1 + rng.gen_index(6);
        let bounds = contiguous_bounds(rng, num_vertices, num_shards);

        let mut single = CoalescingQueue::new(num_vertices, 1 + rng.gen_index(6));
        let mut locals: Vec<CoalescingQueue> = bounds
            .windows(2)
            .map(|w| CoalescingQueue::new((w[1] - w[0]).max(1), 1 + rng.gen_index(4)))
            .collect();
        let coalesce_deletes = rng.gen_bool(0.5);
        single.set_coalesce_deletes(coalesce_deletes);
        for local in &mut locals {
            local.set_coalesce_deletes(coalesce_deletes);
        }

        for _ in 0..rng.gen_index(200) {
            if rng.gen_bool(0.05) {
                // The engine flips this on all lanes at once when entering
                // or leaving DAP recovery; mirror that here.
                let coalesce = rng.gen_bool(0.5);
                single.set_coalesce_deletes(coalesce);
                for local in &mut locals {
                    local.set_coalesce_deletes(coalesce);
                }
                continue;
            }
            let ev = arb_event(rng, num_vertices);
            let shard = bounds.partition_point(|&b| b <= ev.target as usize) - 1;
            let mut translated = ev;
            translated.target -= bounds[shard] as u32;
            single.insert(ev, &alg());
            locals[shard].insert(translated, &alg());
        }

        let drain =
            |queue: &mut CoalescingQueue, lo: u32| -> Vec<(u32, u64, bool, bool, Option<u32>)> {
                let mut out: Vec<_> = taken(|out| queue.take_all_into(out))
                    .into_iter()
                    .map(|mut ev| {
                        ev.target += lo;
                        fingerprint(&ev)
                    })
                    .collect();
                while let Some(mut ev) = queue.pop_overflow() {
                    ev.target += lo;
                    out.push(fingerprint(&ev));
                }
                out
            };

        let mut merged = drain(&mut single, 0);
        let mut sharded = Vec::new();
        let mut stats = jetstream_core::QueueStats::default();
        for (local, w) in locals.iter_mut().zip(bounds.windows(2)) {
            sharded.extend(drain(local, w[0] as u32));
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

        for _ in 0..rng.gen_index(250) {
            match rng.gen_index(10) {
                // Producing dominates so outboxes hold real runs.
                0..=6 => {
                    let sender = rng.gen_index(num_senders);
                    outboxes[sender].insert(arb_event(rng, num_vertices), &alg());
                }
                7..=8 => {
                    // Partial flush: one bin of one sender, the unit the
                    // async engine ships under a non-zero chunk plan.
                    let sender = rng.gen_index(num_senders);
                    let bin = rng.gen_index(outboxes[sender].num_bins());
                    let run = taken(|out| outboxes[sender].take_bin_into(bin, out));
                    deliver(&run, &mut batched, &mut one_at_a_time);
                }
                _ => {
                    // Overflow shipments travel as single-event runs.
                    let sender = rng.gen_index(num_senders);
                    if let Some(ev) = outboxes[sender].pop_overflow() {
                        deliver(&[ev], &mut batched, &mut one_at_a_time);
                    }
                }
            }
            batched.validate().unwrap_or_else(|why| panic!("{why}"));
        }
        // Final flush: every sender drains completely (chunk plan 0).
        for outbox in &mut outboxes {
            let run = taken(|out| outbox.take_all_into(out));
            deliver(&run, &mut batched, &mut one_at_a_time);
            while let Some(ev) = outbox.pop_overflow() {
                deliver(&[ev], &mut batched, &mut one_at_a_time);
            }
            assert!(outbox.is_empty(), "a sender retained events");
        }

        assert_eq!(batched.stats(), one_at_a_time.stats(), "stats diverged");
        let drain = |queue: &mut CoalescingQueue| -> Vec<_> {
            let mut out: Vec<_> =
                taken(|out| queue.take_all_into(out)).iter().map(fingerprint).collect();
            while let Some(ev) = queue.pop_overflow() {
                out.push(fingerprint(&ev));
            }
            out.sort_unstable();
            out
        };
        assert_eq!(drain(&mut batched), drain(&mut one_at_a_time), "drained multisets diverged");
        assert!(batched.is_empty());
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
    // Delete events are excluded by construction: a delete meeting a
    // regular resident parks in overflow instead of folding, so its
    // placement is arrival-order-dependent by design — the engine-level
    // async differential suite covers mixed-kind equivalence.
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
            assert_eq!(outbox.overflow_len(), 0, "same-kind streams never overflow an outbox");
        }

        let drain = |queue: &mut CoalescingQueue| -> Vec<_> {
            let mut out: Vec<_> =
                taken(|out| queue.take_all_into(out)).iter().map(fingerprint).collect();
            assert!(queue.pop_overflow().is_none(), "same-kind streams never overflow");
            out.sort_unstable();
            out
        };
        assert_eq!(drain(&mut through_outboxes), drain(&mut direct), "folded fixpoints diverged");
    });
}
