//! Pins the slot layout of both views of a `CsrPair` under churn.
//!
//! A seeded churn on every dataset profile at the default scale deletes
//! more than it inserts, grows the out-hub's and the in-hub's rows past
//! their slack, and scatters inserts over low-degree rows. So both views
//! relocate rows and end by compacting at least once. After every batch,
//! each view's `arena_slots()` and the `(row, entry)` pairs of every row
//! the batch touched fold into one FNV-1a fingerprint per profile. After
//! the last batch, every row of both views does. The fingerprint reads
//! only what both views answer (`neighbor_targets`, `arena_slots`,
//! `num_edges`), so it pins the layout whatever a view stores beside its
//! targets. The values were captured before the in-edge view lost its
//! weight column.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use std::collections::BTreeSet;

use jetstream_graph::gen::{DatasetProfile, DEFAULT_SCALE};
use jetstream_graph::rng::DetRng;
use jetstream_graph::{CsrPair, UpdateBatch, VertexId};

/// Churn batches per profile.
const BATCHES: usize = 16;

/// FNV-1a (64-bit), fed word by word.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn row(&mut self, row: VertexId, entries: &[VertexId]) {
        self.eat(u64::from(row));
        self.eat(entries.len() as u64);
        for &e in entries {
            self.eat(u64::from(e));
        }
    }
}

fn vertex(rng: &mut DetRng, n: usize) -> VertexId {
    VertexId::try_from(rng.gen_index(n)).unwrap()
}

/// The vertex with the most entries in `row_len`, lowest id on ties.
fn hub(n: usize, row_len: impl Fn(VertexId) -> usize) -> VertexId {
    (0..n).map(|v| VertexId::try_from(v).unwrap()).max_by_key(|&v| (row_len(v), !v)).unwrap()
}

/// One churn batch: `deletes` distinct live edges, picked row first so
/// low-degree rows empty out; `hub_inserts` fresh edges out of the out-hub
/// and as many into the in-hub; `inserts` fresh edges anywhere.
fn churn_batch(
    pair: &CsrPair,
    rng: &mut DetRng,
    (out_hub, in_hub): (VertexId, VertexId),
    (deletes, hub_inserts, inserts): (usize, usize, usize),
) -> UpdateBatch {
    let n = pair.num_vertices();
    let mut batch = UpdateBatch::new();
    let mut deleted = BTreeSet::new();
    for _ in 0..deletes * 64 {
        if deleted.len() == deletes {
            break;
        }
        let u = vertex(rng, n);
        let row = pair.out.neighbor_targets(u);
        if !row.is_empty() {
            deleted.insert((u, row[rng.gen_index(row.len())]));
        }
    }
    for &(u, v) in &deleted {
        batch.delete(u, v);
    }
    let mut added = BTreeSet::new();
    let mut add = |rng: &mut DetRng, u: VertexId, v: VertexId| {
        let fresh = u != v && pair.out.neighbor_targets(u).binary_search(&v).is_err();
        if fresh && added.insert((u, v)) {
            batch.insert(u, v, 0.5 + rng.gen_f64());
        }
    };
    for _ in 0..hub_inserts {
        let v = vertex(rng, n);
        add(rng, out_hub, v);
        let u = vertex(rng, n);
        add(rng, u, in_hub);
    }
    for _ in 0..inserts {
        let (u, v) = (vertex(rng, n), vertex(rng, n));
        add(rng, u, v);
    }
    batch
}

/// Runs the churn on `profile`; returns the fingerprint and the number of
/// batches that relocated rows (arena grew) and compacted (arena shrank),
/// per view: `(hash, [out relocating, out compacting, in relocating, in
/// compacting])`.
fn churn(profile: DatasetProfile) -> (u64, [usize; 4]) {
    let mut pair = CsrPair::new(profile.generate(DEFAULT_SCALE));
    let n = pair.num_vertices();
    let edges = pair.num_edges();
    let hubs = (hub(n, |v| pair.out.degree(v)), hub(n, |v| pair.inc.degree(v)));
    let sizes =
        (edges / 25, 16 + pair.out.degree(hubs.0).max(pair.inc.degree(hubs.1)) / 8, edges / 200);
    let mut rng = DetRng::seed_from_u64(0x1a70_u64 ^ edges as u64);
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut moves = [0usize; 4];
    for b in 0..BATCHES {
        let batch = churn_batch(&pair, &mut rng, hubs, sizes);
        let before = [pair.out.arena_slots(), pair.inc.arena_slots()];
        pair.apply_batch(&batch).expect("the churn keeps every batch valid");
        let after = [pair.out.arena_slots(), pair.inc.arena_slots()];
        for (view, (&was, &is)) in before.iter().zip(&after).enumerate() {
            moves[2 * view] += usize::from(is > was);
            moves[2 * view + 1] += usize::from(is < was);
        }
        hash.eat(b as u64);
        hash.eat(pair.num_edges() as u64);
        hash.eat(after[0] as u64);
        hash.eat(after[1] as u64);
        let rows = |pick: fn(&(VertexId, VertexId)) -> VertexId| -> BTreeSet<VertexId> {
            let dels = batch.deletions().iter().map(pick);
            dels.chain(batch.insertions().iter().map(|&(u, v, _)| pick(&(u, v)))).collect()
        };
        for u in rows(|e| e.0) {
            hash.row(u, pair.out.neighbor_targets(u));
        }
        for v in rows(|e| e.1) {
            hash.row(v, pair.inc.neighbor_targets(v));
        }
    }
    assert_eq!(pair.validate(), Ok(()), "{}", profile.name());
    for v in 0..n {
        let v = VertexId::try_from(v).unwrap();
        hash.row(v, pair.out.neighbor_targets(v));
        hash.row(v, pair.inc.neighbor_targets(v));
    }
    (hash.0, moves)
}

#[test]
fn churned_pair_layouts_on_every_profile() {
    let expected = [
        (DatasetProfile::Wikipedia, 0xdd42_dbf5_8732_974a, [15, 1, 15, 1]),
        (DatasetProfile::Facebook, 0x486b_b54d_392d_bd7b, [15, 1, 15, 1]),
        (DatasetProfile::LiveJournal, 0x272a_b790_ed19_05a0, [15, 1, 15, 1]),
        (DatasetProfile::Uk2002, 0x73ce_cf9f_b9fe_017e, [15, 1, 15, 1]),
        (DatasetProfile::Twitter, 0x882a_bd9e_489d_db9b, [15, 1, 15, 1]),
    ];
    for (profile, want_hash, want_moves) in expected {
        let (hash, moves) = churn(profile);
        for (what, count) in
            ["out relocations", "out compactions", "in relocations", "in compactions"]
                .iter()
                .zip(moves)
        {
            assert!(count >= 1, "{}: no batch showed {what}", profile.name());
        }
        assert_eq!(
            (hash, moves),
            (want_hash, want_moves),
            "{}: the layout changed",
            profile.name()
        );
    }
}
