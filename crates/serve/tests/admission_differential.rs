//! Admission against a reference model (DESIGN.md §15.2).
//!
//! `Admission` keeps edge presence in two hashed layers over the graph —
//! the message being validated, then the open batch — and consults them
//! in that order. The model here shares none of that: it keeps the whole
//! edge set as of the open batch in one ordered set, validates a message
//! by walking a copy of it, and restates the seal and token rules from the
//! contract. Seeded random message streams over a handful of vertices hit
//! every rejection kind, insert/delete/insert of one edge inside a
//! message, conflict seals and size seals at small `max_updates`; every
//! admit, deadline flush and forced flush must return exactly what the
//! model returns — sealed batches, token bindings, batch ids and typed
//! rejections alike.

#![expect(clippy::panic, reason = "test code: an unexpected rejection kind is the failure signal")]

use std::cell::Cell;
use std::collections::BTreeSet;

use jetstream_graph::rng::DetRng;
use jetstream_graph::{Csr, EdgeUpdate, GraphError, UpdateBatch, UpdateRejection, VertexId};
use jetstream_serve::admission::{Admission, AdmitOk, FlushPolicy, SealedBatch};
use jetstream_testkit::run_cases;

type Edge = (VertexId, VertexId);

/// The admission contract over one ordered edge set.
struct Model {
    policy: FlushPolicy,
    /// Every edge present once the open batch applies.
    present: BTreeSet<Edge>,
    /// Edges the open batch inserts: a delete of one seals first.
    inserted: BTreeSet<Edge>,
    open: UpdateBatch,
    tokens: Vec<(u64, u64)>,
    opened_at: Option<u64>,
    next_id: u64,
}

impl Model {
    fn new(policy: FlushPolicy, graph: &Csr) -> Self {
        Model {
            policy,
            present: graph.iter_edges().map(|(u, v, _)| (u, v)).collect(),
            inserted: BTreeSet::new(),
            open: UpdateBatch::new(),
            tokens: Vec::new(),
            opened_at: None,
            next_id: 1,
        }
    }

    fn seal(&mut self) -> SealedBatch {
        self.inserted.clear();
        self.opened_at = None;
        self.next_id += 1;
        SealedBatch {
            batch_id: self.next_id - 1,
            batch: std::mem::take(&mut self.open),
            tokens: std::mem::take(&mut self.tokens),
        }
    }

    fn admit(
        &mut self,
        client: u64,
        token: u64,
        updates: &[EdgeUpdate],
        num_vertices: usize,
        now: u64,
    ) -> Result<AdmitOk, UpdateRejection> {
        let mut view = self.present.clone();
        for (index, &update) in updates.iter().enumerate() {
            let reject = |error| UpdateRejection { index, update, error };
            update.check_bounds(num_vertices).map_err(reject)?;
            let (source, target) = (update.source(), update.target());
            let applied = if update.is_insert() {
                view.insert((source, target))
            } else {
                view.remove(&(source, target))
            };
            if !applied {
                return Err(reject(if update.is_insert() {
                    GraphError::DuplicateEdge { source, target }
                } else {
                    GraphError::MissingEdge { source, target }
                }));
            }
        }
        self.present = view;
        let mut sealed = Vec::new();
        for &update in updates {
            let edge = (update.source(), update.target());
            if !update.is_insert() && self.inserted.contains(&edge) {
                sealed.push(self.seal());
            }
            self.open.extend([update]);
            if update.is_insert() {
                self.inserted.insert(edge);
            }
            self.opened_at.get_or_insert(now);
            if self.open.len() >= self.policy.max_updates {
                sealed.push(self.seal());
            }
        }
        // The message's last update sits in the last sealed batch exactly
        // when nothing was appended after that seal.
        let last_sealed = !updates.is_empty() && self.open.is_empty();
        let batch_id = match sealed.last_mut() {
            Some(last) if last_sealed => {
                last.tokens.push((client, token));
                last.batch_id
            }
            _ => {
                self.tokens.push((client, token));
                self.opened_at.get_or_insert(now);
                self.next_id
            }
        };
        Ok(AdmitOk { batch_id, sealed })
    }

    fn pending(&self) -> bool {
        !self.open.is_empty() || !self.tokens.is_empty()
    }

    fn flush_due(&mut self, now: u64) -> Option<SealedBatch> {
        let due = self.opened_at.is_some_and(|t| now >= t.saturating_add(self.policy.max_delay_ns));
        (due && self.pending()).then(|| self.seal())
    }

    fn force_flush(&mut self) -> Option<SealedBatch> {
        self.pending().then(|| self.seal())
    }
}

/// What the streams must have exercised, summed over every case.
#[derive(Default)]
struct Seen {
    rejections: [Cell<u32>; 5],
    conflict_seals: Cell<u32>,
    size_seals: Cell<u32>,
    insert_delete_insert: Cell<u32>,
}

impl Seen {
    fn rejection(&self, error: &GraphError) {
        let kind = match error {
            GraphError::VertexOutOfRange { .. } => 0,
            GraphError::SelfLoop { .. } => 1,
            GraphError::InvalidWeight { .. } => 2,
            GraphError::DuplicateEdge { .. } => 3,
            GraphError::MissingEdge { .. } => 4,
            other => panic!("admission rejected with {other:?}"),
        };
        self.rejections[kind].set(self.rejections[kind].get() + 1);
    }
}

fn bump(counter: &Cell<u32>) {
    counter.set(counter.get() + 1);
}

/// A random message over `n` vertices: mostly edges among them (deletes
/// drawn from `graph` half the time so many are valid), sometimes an
/// endpoint past the range, a self-loop or an infinite or negative weight,
/// and sometimes the previous edge again with the other kind.
fn message(rng: &mut DetRng, graph: &Csr, n: u32) -> Vec<EdgeUpdate> {
    let edges: Vec<Edge> = graph.iter_edges().map(|(u, v, _)| (u, v)).collect();
    let mut updates: Vec<EdgeUpdate> = Vec::new();
    for _ in 0..rng.gen_index(7) {
        let vertex = |rng: &mut DetRng| rng.gen_index(n as usize) as VertexId;
        let (mut source, mut target) = (vertex(rng), vertex(rng));
        let mut insert = rng.gen_bool(0.5);
        let mut weight = 1.0 + rng.gen_index(3) as f64;
        match rng.gen_index(12) {
            0 => target = n + rng.gen_index(2) as VertexId,
            1 => (target, insert) = (source, true),
            2 => (insert, weight) = (true, [f64::INFINITY, -1.0][rng.gen_index(2)]),
            3..=5 if !updates.is_empty() => {
                let last = updates[updates.len() - 1];
                (source, target, insert) = (last.source(), last.target(), !last.is_insert());
            }
            6 | 7 if !edges.is_empty() && !insert => {
                (source, target) = edges[rng.gen_index(edges.len())];
            }
            _ => {}
        }
        updates.push(if insert {
            EdgeUpdate::Insert { source, target, weight }
        } else {
            EdgeUpdate::Delete { source, target }
        });
    }
    updates
}

fn insert_delete_insert(updates: &[EdgeUpdate]) -> bool {
    updates.windows(3).any(|w| {
        let edge = |u: &EdgeUpdate| (u.source(), u.target());
        edge(&w[0]) == edge(&w[1])
            && edge(&w[1]) == edge(&w[2])
            && w[0].is_insert()
            && !w[1].is_insert()
            && w[2].is_insert()
    })
}

#[test]
fn admission_matches_the_ordered_model() {
    let seen = Seen::default();
    run_cases("admission_matches_the_ordered_model", 300, |rng| {
        let n = 4 + rng.gen_index(4) as u32;
        let edges: Vec<(VertexId, VertexId, f64)> = (0..rng.gen_index(10))
            .map(|_| {
                (rng.gen_index(n as usize) as VertexId, rng.gen_index(n as usize) as VertexId, 1.0)
            })
            .collect();
        let mut graph = Csr::from_edges(n as usize, &edges);
        let policy = FlushPolicy {
            max_updates: 1 + rng.gen_index(6),
            max_delay_ns: 100 + rng.gen_range_inclusive(0, 900),
        };
        let mut admission = Admission::fresh(policy);
        let mut model = Model::new(policy, &graph);
        let mut now = 0u64;
        for step in 0..80u64 {
            now += rng.gen_range_inclusive(0, 300);
            let sealed = match rng.gen_index(20) {
                0 => {
                    let got = admission.force_flush();
                    assert_eq!(got, model.force_flush(), "step {step}: force_flush");
                    got.into_iter().collect()
                }
                1 => {
                    let got = admission.flush_due(now);
                    assert_eq!(got, model.flush_due(now), "step {step}: flush_due at {now}");
                    got.into_iter().collect()
                }
                _ => {
                    let updates = message(rng, &graph, n);
                    let client = rng.gen_index(3) as u64;
                    let got = admission.admit(client, step, &updates, &graph, now);
                    let want = model.admit(client, step, &updates, graph.num_vertices(), now);
                    assert_eq!(got, want, "step {step}: admit {updates:?}");
                    match got {
                        Err(rejection) => {
                            seen.rejection(&rejection.error);
                            Vec::new()
                        }
                        Ok(ok) => {
                            if insert_delete_insert(&updates) {
                                bump(&seen.insert_delete_insert);
                            }
                            for s in &ok.sealed {
                                let size = s.batch.len() >= policy.max_updates;
                                bump(if size { &seen.size_seals } else { &seen.conflict_seals });
                            }
                            ok.sealed
                        }
                    }
                }
            };
            for s in &sealed {
                graph.apply_batch(&s.batch).expect("admission seals only valid batches");
            }
            assert_eq!(admission.pending_len(), model.open.len(), "step {step}");
            assert_eq!(admission.deadline_ns(), model.opened_at.map(|t| t + policy.max_delay_ns));
        }
    });
    let counts: Vec<u32> = seen.rejections.iter().map(Cell::get).collect();
    assert!(counts.iter().all(|&c| c > 0), "rejection kinds seen: {counts:?}");
    assert!(seen.conflict_seals.get() > 0 && seen.size_seals.get() > 0);
    assert!(seen.insert_delete_insert.get() > 0, "no message re-inserted what it deleted");
}
