//! Output checks run inside every benchmark run: a number is reported
//! only beside proof that the program computed the right thing.

use std::time::Instant;

use jetstream_algorithms::oracle::{accumulative_tolerance, values_match_tol};
use jetstream_algorithms::{oracle_values, UpdateKind, Value, Workload};
use jetstream_bench::harness::ACCUMULATIVE_EPSILON;
use jetstream_graph::{AdjacencyGraph, CsrPair, UpdateBatch, VertexId};

/// Attempted and failed operations of a run, with the first few reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (batches, messages, queries, checks).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Why, for the log (capped).
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts `n` attempted operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one attempted operation that failed.
    pub fn fail(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    /// Counts one attempted operation by its result.
    pub fn record(&mut self, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(1),
            Err(reason) => self.fail(reason),
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }
}

/// Selective values must match bit for bit; accumulative values within
/// the harness tolerance derived from [`ACCUMULATIVE_EPSILON`].
pub fn values_agree(workload: Workload, got: &[Value], want: &[Value]) -> Result<(), String> {
    let agree = match workload.kind() {
        UpdateKind::Selective => {
            got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
        }
        UpdateKind::Accumulative => {
            values_match_tol(got, want, accumulative_tolerance(ACCUMULATIVE_EPSILON))
        }
    };
    if agree {
        return Ok(());
    }
    let first = got.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits());
    Err(format!(
        "{}: values disagree (first differing vertex {first:?}: {:?} vs {:?})",
        workload.name(),
        first.and_then(|i| got.get(i)),
        first.and_then(|i| want.get(i)),
    ))
}

/// Compares `values` with the sequential oracle on `csr`; returns the
/// oracle's wall time in milliseconds beside the verdict.
pub fn against_oracle(
    workload: Workload,
    values: &[Value],
    csr: &CsrPair,
    root: VertexId,
) -> (Result<(), String>, f64) {
    let start = Instant::now();
    let want = oracle_values(workload, &csr.out, root);
    let oracle_ms = start.elapsed().as_secs_f64() * 1e3;
    (values_agree(workload, values, &want), oracle_ms)
}

/// `base` with `batches` applied by the plain host-graph path: the
/// offline replay every engine's graph is compared against.
pub fn replay_graph<'a>(
    base: &AdjacencyGraph,
    batches: impl IntoIterator<Item = &'a UpdateBatch>,
) -> Result<AdjacencyGraph, String> {
    let mut graph = base.clone();
    for (i, batch) in batches.into_iter().enumerate() {
        graph.apply_batch(batch).map_err(|e| format!("replay of batch {i}: {e}"))?;
    }
    Ok(graph)
}

/// The engine's host graph and its maintained CSR must both equal the
/// offline replay.
pub fn graph_agrees(
    host: &AdjacencyGraph,
    csr: &CsrPair,
    replay: &AdjacencyGraph,
) -> Result<(), String> {
    if host != replay {
        return Err(String::from("engine host graph differs from the offline replay"));
    }
    csr.validate().map_err(|e| format!("maintained CSR invalid: {e}"))?;
    if !csr.out.iter_edges().eq(replay.iter_edges()) {
        return Err(String::from("maintained CSR differs from the offline replay"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_is_bit_exact_and_accumulative_is_toleranced() {
        assert!(values_agree(Workload::Sssp, &[1.0, f64::INFINITY], &[1.0, f64::INFINITY]).is_ok());
        let err = values_agree(Workload::Sssp, &[1.0, 2.0], &[1.0, 2.0 + 1e-12]).unwrap_err();
        assert!(err.contains("vertex Some(1)"), "{err}");
        assert!(values_agree(Workload::PageRank, &[1.0, 2.0], &[1.0, 2.0 + 1e-6]).is_ok());
        assert!(values_agree(Workload::PageRank, &[1.0, 2.0], &[1.0, 2.1]).is_err());
        assert!(values_agree(Workload::Bfs, &[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn tally_counts_and_caps_reasons() {
        let mut t = Tally::default();
        t.ok(3);
        for i in 0..10 {
            t.record(Err(format!("r{i}")));
        }
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed, t.reasons.len()), (14, 10, 8));
        let mut u = Tally::default();
        u.merge(t);
        assert_eq!((u.attempted, u.failed), (14, 10));
    }

    #[test]
    fn graph_checks_catch_a_missed_update() {
        let mut base = AdjacencyGraph::new(3);
        base.insert_edge(0, 1, 1.0).expect("fresh edge");
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 2.0);
        let replay = replay_graph(&base, [&batch]).expect("valid batch");
        assert!(graph_agrees(&replay, &replay.snapshot_pair(), &replay).is_ok());
        assert!(graph_agrees(&base, &replay.snapshot_pair(), &replay).is_err());
        assert!(graph_agrees(&replay, &base.snapshot_pair(), &replay).is_err());
        assert!(replay_graph(&replay, [&batch]).is_err(), "duplicate insert must not replay");
    }
}
