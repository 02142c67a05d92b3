//! Pins the software baselines' counters and values, bit for bit.
//!
//! KickStarter (SSSP) and GraphBolt (PageRank) run a cold computation and
//! then three weighted batches that delete as well as insert, on a small
//! R-MAT graph. Every `SoftwareStats` and an FNV-1a hash of the values'
//! `to_bits` are compared with figures captured while both baselines read
//! in-edge weights from a `CsrPair`, so how a baseline stores its in-edges
//! cannot move what it counts or computes. `tests/full_stack.rs` compares
//! values only.

#![expect(
    clippy::unwrap_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use jetstream_algorithms::{Value, Workload};
use jetstream_baselines::{GraphBolt, KickStarter, SoftwareStats};
use jetstream_graph::{gen, Csr, UpdateBatch};

/// `(vertex_reads, vertex_writes, edge_reads, resets, rounds)`.
type Counts = (u64, u64, u64, u64, u64);

fn counts(s: SoftwareStats) -> Counts {
    (s.vertex_reads, s.vertex_writes, s.edge_reads, s.resets, s.rounds)
}

/// FNV-1a (64-bit) over every value's bit pattern.
fn value_bits(values: &[Value]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The base graph and the graph each batch is drawn against.
fn scenario() -> (Csr, Vec<UpdateBatch>) {
    let base = gen::rmat(400, 3200, gen::RmatParams::default(), 0x60_1d);
    let mut graph = base.clone();
    let batches = (0..3u64)
        .map(|i| {
            let batch = gen::batch_with_ratio(&graph, 80, 0.5, 0x60_1e + i);
            graph.apply_batch(&batch).unwrap();
            batch
        })
        .collect();
    (base, batches)
}

#[test]
fn kickstarter_sssp_counters_and_values() {
    let (base, batches) = scenario();
    let mut ks = KickStarter::new(Workload::Sssp.instantiate(0), base);
    let mut got = vec![(counts(ks.initial_compute()), value_bits(ks.values()))];
    for batch in &batches {
        got.push((counts(ks.apply_batch(batch).unwrap()), value_bits(ks.values())));
    }
    let want: Vec<(Counts, u64)> = vec![
        ((6828, 903, 6828, 0, 8), 0x0c12_2f0f_f790_4232),
        ((539, 49, 413, 16, 2), 0xd8af_ef87_a047_7afc),
        ((3044, 321, 2825, 115, 3), 0x3017_7359_b07f_816f),
        ((211, 22, 91, 4, 2), 0xa8f6_f342_9ccb_a37f),
    ];
    assert_eq!(got, want);
}

#[test]
fn graphbolt_pagerank_counters_and_values() {
    let (base, batches) = scenario();
    let mut gb = GraphBolt::new(Workload::PageRank.instantiate(0), base);
    let mut got = vec![(counts(gb.initial_compute()), value_bits(gb.values()))];
    for batch in &batches {
        got.push((counts(gb.apply_batch(batch).unwrap()), value_bits(gb.values())));
    }
    let want: Vec<(Counts, u64)> = vec![
        ((172800, 21600, 172800, 0, 54), 0x83d4_b384_adcc_8c15),
        ((175832, 17884, 175832, 249, 55), 0x35f6_72f0_34f0_462d),
        ((179040, 18451, 179040, 279, 56), 0x7d78_67a7_59f9_9a59),
        ((182210, 19126, 182210, 277, 57), 0x4f8e_a9a4_8004_efae),
    ];
    assert_eq!(got, want);
}
