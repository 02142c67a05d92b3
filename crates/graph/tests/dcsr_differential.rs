//! Differential fuzz suite for the in-place gapped CSR (DESIGN.md §17).
//!
//! The contract of `CsrPair::apply_batch` is that incremental maintenance
//! is *bit-identical* to a from-scratch `Csr::from_edges` build of the
//! mutated edge list: same rows, same ascending neighbor order, same
//! weights, and exact out/in duality. Every test here drives a maintained
//! pair and an [`EdgeModel`] — an ordered edge map that shares no code
//! with the arena — through the same batch sequence and compares full
//! traversals after every batch — through slack growth, row relocations,
//! tombstoned deletes, and compaction.

#![expect(
    clippy::expect_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use jetstream_graph::rng::DetRng;
use jetstream_graph::{gen, Csr, CsrPair, UpdateBatch, VertexId};
use jetstream_testkit::EdgeModel;

/// A maintained pair beside the model of the same graph.
fn pair_and_model(graph: Csr) -> (CsrPair, EdgeModel) {
    let model = EdgeModel::of(&graph);
    (CsrPair::new(graph), model)
}

/// Applies `batch` to both and compares them.
fn step(maintained: &mut CsrPair, model: &mut EdgeModel, batch: &UpdateBatch, ctx: &str) {
    maintained.apply_batch(batch).expect("batches here are valid by construction");
    model.apply(batch);
    model.assert_matches(maintained, ctx);
}

fn vid(rng: &mut DetRng, n: usize) -> VertexId {
    rng.gen_index(n) as VertexId // cast-ok: test graphs have far fewer than 2^32 vertices
}

/// A churn batch: deletes a random subset of existing edges, re-inserts
/// some of them with fresh weights in the *same* batch (weight changes),
/// and inserts fresh edges — the full shape `apply_batch` accepts.
fn churn_batch(
    host: &Csr,
    rng: &mut DetRng,
    max_inserts: usize,
    max_deletes: usize,
) -> UpdateBatch {
    let n = host.num_vertices();
    let mut batch = UpdateBatch::new();
    let edges: Vec<(VertexId, VertexId, f64)> = host.iter_edges().collect();
    let deletes = max_deletes.min(edges.len());
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < deletes {
        let i = rng.gen_index(edges.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    let mut deleted: Vec<(VertexId, VertexId)> = Vec::new();
    for &i in &picked {
        let (u, v, _) = edges[i];
        batch.delete(u, v);
        deleted.push((u, v));
    }
    let mut pending: Vec<(VertexId, VertexId)> = Vec::new();
    for _ in 0..max_inserts {
        // ~30% of insertions re-insert an edge deleted earlier in this
        // batch — the delete-then-reinsert weight-change path.
        if !deleted.is_empty() && rng.gen_bool(0.3) {
            let (u, v) = deleted[rng.gen_index(deleted.len())];
            if !pending.contains(&(u, v)) {
                pending.push((u, v));
                batch.insert(u, v, rng.gen_f64() * 4.0 + 0.5);
            }
            continue;
        }
        for _ in 0..32 {
            let u = vid(rng, n);
            let v = vid(rng, n);
            let survives = host.has_edge(u, v) && !deleted.contains(&(u, v));
            if u != v && !survives && !pending.contains(&(u, v)) {
                pending.push((u, v));
                batch.insert(u, v, rng.gen_f64() * 4.0 + 0.5);
                break;
            }
        }
    }
    batch
}

/// Drives `batches` churn batches over an R-MAT-ish start graph, checking
/// the maintained pair against the model after every batch. Returns how
/// many times the arena visibly shrank (compactions observed).
fn run_differential(seed: u64, num_vertices: usize, start_edges: usize, batches: usize) -> usize {
    let mut rng = DetRng::seed_from_u64(seed);
    let (mut maintained, mut model) =
        pair_and_model(gen::erdos_renyi(num_vertices, start_edges, seed ^ 0x9e37));
    let mut compactions = 0;
    for i in 0..batches {
        let inserts = rng.gen_range(1, 9);
        let deletes = rng.gen_range(0, 7);
        let batch = churn_batch(&maintained.out, &mut rng, inserts, deletes);
        let before = maintained.out.arena_slots() + maintained.inc.arena_slots();
        step(&mut maintained, &mut model, &batch, &format!("seed {seed} step {i}"));
        if maintained.out.arena_slots() + maintained.inc.arena_slots() < before {
            compactions += 1;
        }
        // The compaction policy bounds garbage: after every batch each
        // view's arena is at most twice the live edges plus the slop.
        assert!(
            maintained.out.arena_slots() <= 2 * maintained.out.num_edges() + 64,
            "seed {seed} step {i}: out arena exceeds the compaction bound"
        );
        assert!(
            maintained.inc.arena_slots() <= 2 * maintained.inc.num_edges() + 64,
            "seed {seed} step {i}: in arena exceeds the compaction bound"
        );
    }
    compactions
}

#[test]
fn fuzzed_maintenance_matches_rebuild_across_seeds() {
    // 4 seeds x 300 batches = 1200 random insert/delete/reinsert batches,
    // each checked edge-for-edge against the from-scratch rebuild.
    let mut total_compactions = 0;
    for seed in [11, 23, 47, 91] {
        total_compactions += run_differential(seed, 48, 180, 300);
    }
    // The churn is heavy enough that the compaction path must have fired;
    // otherwise the suite is not exercising relocation garbage at all.
    assert!(total_compactions > 0, "no compaction ever triggered — fuzz too gentle");
}

#[test]
fn dense_graph_heavy_delete_churn() {
    // Small dense graph, deletion-heavy batches: rows shrink to empty and
    // grow back, keeping lots of slack and tombstoned extents in play.
    let mut rng = DetRng::seed_from_u64(7);
    let (mut maintained, mut model) = pair_and_model(gen::erdos_renyi(16, 120, 3));
    for i in 0..200 {
        let batch = churn_batch(&maintained.out, &mut rng, 3, 8);
        step(&mut maintained, &mut model, &batch, &format!("dense step {i}"));
    }
}

#[test]
fn empty_rows_stay_empty_and_reusable() {
    // Vertices 8..16 start isolated (empty rows in both views); edges are
    // later attached to them and removed again.
    let mut start = Csr::new(16);
    for v in 1..8u32 {
        start.insert_edge(0, v, v as f64).expect("insert of an in-range edge should succeed");
    }
    let (mut maintained, mut model) = pair_and_model(start);
    model.assert_matches(&maintained, "isolated start");

    let mut batch = UpdateBatch::new();
    for v in 8..16u32 {
        batch.insert(v, 0, 1.0);
        batch.insert(0, v, 2.0);
    }
    step(&mut maintained, &mut model, &batch, "attach isolated");

    let mut batch = UpdateBatch::new();
    for v in 8..16u32 {
        batch.delete(v, 0);
        batch.delete(0, v);
    }
    step(&mut maintained, &mut model, &batch, "detach isolated");
    for v in 8..16u32 {
        assert_eq!(maintained.out.degree(v), 0);
        assert_eq!(maintained.inc.degree(v), 0);
    }
}

#[test]
fn max_degree_hub_grows_and_shrinks() {
    // A hub with an out-edge to every other vertex: the maximum-degree row
    // relocates repeatedly as it grows one edge at a time, then shrinks
    // back through single deletes.
    let n = 256usize;
    let (mut maintained, mut model) = pair_and_model(Csr::new(n));
    for v in 1..n as u32 {
        let mut batch = UpdateBatch::new();
        batch.insert(0, v, f64::from(v));
        step(&mut maintained, &mut model, &batch, "hub growing");
    }
    assert_eq!(maintained.out.degree(0), n - 1);
    // Delete every other spoke, then reinsert them with new weights.
    let mut batch = UpdateBatch::new();
    for v in (1..n as u32).step_by(2) {
        batch.delete(0, v);
    }
    step(&mut maintained, &mut model, &batch, "hub half drained");
    let mut batch = UpdateBatch::new();
    for v in (1..n as u32).step_by(2) {
        batch.insert(0, v, 0.25);
    }
    step(&mut maintained, &mut model, &batch, "hub refilled");
}

#[test]
fn delete_then_reinsert_same_batch_matches_oracle() {
    let (mut maintained, mut model) = pair_and_model(gen::erdos_renyi(20, 60, 13));
    let edges = model.edges();
    let mut batch = UpdateBatch::new();
    // Reweight the first five edges in a single batch.
    for &(u, v, w) in edges.iter().take(5) {
        batch.delete(u, v);
        batch.insert(u, v, w + 10.0);
    }
    step(&mut maintained, &mut model, &batch, "same-batch reweight");
    for &(u, v, w) in edges.iter().take(5) {
        assert_eq!(maintained.out.edge_weight(u, v), Some(w + 10.0));
        assert!(maintained.inc.neighbor_targets(v).contains(&u), "{u} -> {v} left in-row {v}");
    }
}

#[test]
fn generator_batches_also_round_trip() {
    // `gen::random_batch` is what the engines and benches feed through the
    // maintenance path; make sure its shape is covered too.
    let (mut maintained, mut model) = pair_and_model(gen::erdos_renyi(64, 400, 29));
    for i in 0..100u64 {
        let batch = gen::random_batch(&maintained.out, 6, 3, 1000 + i);
        step(&mut maintained, &mut model, &batch, &format!("generator step {i}"));
    }
}

#[test]
fn transpose_by_counting_round_trips_every_generator_profile() {
    for profile in gen::DatasetProfile::ALL {
        let g = profile.generate(20_000);
        let t = g.transpose();
        assert_eq!(
            t.validate(),
            Ok(()),
            "{profile:?}: validate() checks that every in-row ascends"
        );
        assert_eq!(t.num_edges(), g.num_edges(), "{profile:?}");
        assert_eq!(t.transpose(), g, "{profile:?}: transposing twice is the identity");
        EdgeModel::of(&g).assert_matches(&CsrPair::new(g), &format!("{profile:?}"));
    }
}

/// A batch that is valid or breaks any rule the check enforces: present
/// and missing deletions (some repeated), fresh, duplicate and re-inserted
/// edges, self-loops, endpoints one past the range, and negative, `-0.0`
/// and non-finite weights.
fn mixed_batch(host: &Csr, rng: &mut DetRng) -> UpdateBatch {
    let n = host.num_vertices();
    let edges: Vec<(VertexId, VertexId, f64)> = host.iter_edges().collect();
    let any = |rng: &mut DetRng| {
        let past = usize::from(rng.gen_bool(0.05));
        vid(rng, n + past)
    };
    let mut batch = UpdateBatch::new();
    for _ in 0..rng.gen_index(4) {
        if !edges.is_empty() && rng.gen_bool(0.8) {
            let (u, v, _) = edges[rng.gen_index(edges.len())];
            batch.delete(u, v);
        } else {
            batch.delete(any(rng), any(rng));
        }
    }
    for _ in 0..rng.gen_index(5) {
        let weight = match rng.gen_index(20) {
            0 => -1.5,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            _ => 1.0 + rng.gen_f64(),
        };
        let (u, v) = match batch.deletions().first() {
            Some(&re) if rng.gen_bool(0.2) => re,
            _ if !edges.is_empty() && rng.gen_bool(0.1) => {
                let (u, v, _) = edges[rng.gen_index(edges.len())];
                (u, v)
            }
            _ => (any(rng), any(rng)),
        };
        batch.insert(u, v, weight);
    }
    batch
}

#[test]
fn the_pair_check_judges_every_batch_as_the_graph_check_does() {
    // `CsrPair::check_batch` gathers the in-view's rows besides `out`'s;
    // it must accept and reject exactly what `Csr::check_batch` does, with
    // the same error, and an accepted batch must commit as `apply_batch`
    // would.
    jetstream_testkit::run_cases("dcsr: pair check == graph check", 64, |rng| {
        let n = 2 + rng.gen_index(40);
        let mut pair = CsrPair::new(gen::erdos_renyi(n, rng.gen_index(4 * n), rng.next_u64()));
        let mut model = EdgeModel::of(&pair.out);
        let (mut accepted, mut rejected) = (0, 0);
        for step in 0..40 {
            let batch = mixed_batch(&pair.out, rng);
            let alone = pair.out.check_batch(&batch).map(|_| ());
            let checked = pair.check_batch(&batch);
            let verdict = checked.as_ref().map(|_| ()).map_err(Clone::clone);
            assert_eq!(verdict, alone, "step {step}: {batch:?}");
            if let Ok(checked) = checked {
                pair.commit(checked);
                model.apply(&batch);
                model.assert_matches(&pair, &format!("step {step}"));
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
    });
}
