//! Admission control: coalesces per-client update messages into engine
//! [`UpdateBatch`]es under a size/latency flush policy, validating every
//! update against the live graph before it is accepted.
//!
//! The admission front-end is a deterministic state machine (DESIGN.md
//! §15.2): it owns one *open* batch at a time, appends validated updates
//! to it, and *seals* the batch — handing it to the engine — when any of
//! the following fires:
//!
//! * **size** — the open batch reached `max_updates`;
//! * **deadline** — the batch has been open for `max_delay_ns` (checked
//!   by the server loop between messages);
//! * **conflict** — an incoming delete targets an edge inserted earlier
//!   into the *same* open batch. [`UpdateBatch`] applies deletions before
//!   insertions, so the pair cannot legally share a batch; sealing first
//!   preserves the client-observed order;
//! * **explicit flush** — a client asked for a read-your-writes barrier,
//!   or the server loop found its inbox dry: with no message left to wait
//!   for, waiting out the deadline would only add latency.
//!
//! Validation is exact, not just bounds checking: presence is evaluated
//! against the graph *overlaid with the open batch*, so duplicate
//! inserts and deletes of absent edges are bounced here with a typed
//! [`UpdateRejection`] and an engine-side apply error is unreachable.

use std::collections::HashMap; // nondeterminism-ok: keyed lookups only, never iterated (Presence)

use jetstream_graph::{AdjacencyGraph, EdgeUpdate, UpdateBatch, UpdateRejection, VertexId};

/// Edge presence by `(source, target)`, as one layer over the graph last
/// recorded it. A hash map keyed per process (std's `RandomState`), so a
/// client cannot pick keys that collide; only ever probed by key, never
/// iterated, so hash order cannot reach a batch or a reply.
type Presence = HashMap<(VertexId, VertexId), bool>; // nondeterminism-ok: never iterated, see above

/// The most updates the presence maps are sized for up front. A larger
/// (or unbounded, `usize::MAX`) `max_updates` grows them on demand, once,
/// to their high-water mark; clearing keeps the capacity.
const PRESIZE_LIMIT: usize = 1 << 16;

/// When the open batch is handed to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Seal as soon as the open batch holds this many updates.
    pub max_updates: usize,
    /// Seal once the oldest update in the batch is this old. The server
    /// seals as soon as its inbox runs dry, so this bounds only a batch
    /// held open by an inbox that never does.
    pub max_delay_ns: u64,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy { max_updates: 4096, max_delay_ns: 2_000_000 }
    }
}

/// A batch sealed by admission, ready for the engine, with the client
/// tokens that ride on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedBatch {
    /// Monotonic id, assigned at seal time.
    pub batch_id: u64,
    /// The coalesced updates.
    pub batch: UpdateBatch,
    /// `(client, token)` pairs whose update messages end in this batch;
    /// each earns a `Converged` when the batch applies.
    pub tokens: Vec<(u64, u64)>,
}

/// Successful admission of one update message.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitOk {
    /// Id of the batch holding the message's *last* update — the batch
    /// whose `Converged` certifies the whole message (earlier parts ride
    /// earlier batches, which apply first).
    pub batch_id: u64,
    /// Batches sealed while admitting, in apply order.
    pub sealed: Vec<SealedBatch>,
}

/// The admission front-end state machine.
#[derive(Debug)]
pub struct Admission {
    policy: FlushPolicy,
    open: UpdateBatch,
    tokens: Vec<(u64, u64)>,
    /// Edge presence as of the open batch, where it differs from the host
    /// graph (`true` = present, i.e. inserted by the open batch — the
    /// conflict-seal trigger). Cleared at seal: once the batch applies,
    /// the graph absorbs the delta.
    overlay: Presence,
    /// Scratch for [`Admission::validate`]: presence as of the message
    /// being validated, where it differs from `overlay`. Cleared on entry.
    spec: Presence,
    /// `now_ns` when the open batch received its first update.
    opened_at_ns: Option<u64>,
    next_batch_id: u64,
}

impl Admission {
    /// A fresh front-end with nothing pending.
    pub fn fresh(policy: FlushPolicy) -> Self {
        let presize = policy.max_updates.min(PRESIZE_LIMIT);
        Admission {
            policy,
            open: UpdateBatch::new(),
            tokens: Vec::new(),
            overlay: Presence::with_capacity(presize),
            spec: Presence::with_capacity(presize),
            opened_at_ns: None,
            next_batch_id: 1,
        }
    }

    /// The policy this front-end flushes under.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Number of updates waiting in the open batch.
    pub fn pending_len(&self) -> usize {
        self.open.len()
    }

    /// Validates a whole message against the graph plus the open batch
    /// without admitting anything. Returns the first failure, typed.
    // hot-path
    fn validate(
        &mut self,
        graph: &AdjacencyGraph,
        updates: &[EdgeUpdate],
    ) -> Result<(), UpdateRejection> {
        // `spec` sequences the message against itself. Seal points don't
        // change presence — a sealed batch applies before the rest of the
        // message is admitted — so one speculative overlay suffices.
        self.spec.clear();
        let num_vertices = graph.num_vertices();
        for (index, update) in updates.iter().enumerate() {
            let reject = |error| UpdateRejection { index, update: *update, error };
            update.check_bounds(num_vertices).map_err(reject)?;
            let (source, target) = (update.source(), update.target());
            let insert = update.is_insert();
            // The message's own last word on the edge, recorded in the same
            // probe that reads it; else the open batch's. Present when one
            // of them says so, or neither says anything and the graph has
            // the edge.
            let said = match self.spec.insert((source, target), insert) {
                None => self.overlay.get(&(source, target)).copied(),
                recorded => recorded,
            };
            let present = said == Some(true) || (said.is_none() && graph.has_edge(source, target));
            if present == insert {
                return Err(reject(if insert {
                    jetstream_graph::GraphError::DuplicateEdge { source, target }
                } else {
                    jetstream_graph::GraphError::MissingEdge { source, target }
                }));
            }
        }
        Ok(())
    }

    /// Seals the open batch unconditionally, resetting the open state.
    fn seal(&mut self) -> SealedBatch {
        let batch_id = self.next_batch_id;
        self.next_batch_id += 1;
        self.overlay.clear();
        self.opened_at_ns = None;
        SealedBatch {
            batch_id,
            batch: std::mem::take(&mut self.open),
            tokens: std::mem::take(&mut self.tokens),
        }
    }

    /// True when the open batch holds updates or tokens to account for.
    fn has_pending(&self) -> bool {
        !self.open.is_empty() || !self.tokens.is_empty()
    }

    /// Admits one client message: validates every update, appends them to
    /// the open batch, and seals wherever the size or conflict rule fires.
    /// All-or-nothing: on rejection no update of the message is admitted
    /// and admission state is unchanged.
    ///
    /// Sealed batches must be applied to the engine, in order, before the
    /// next call.
    ///
    /// # Errors
    ///
    /// The first invalid update, as a typed [`UpdateRejection`] naming its
    /// index (out-of-range endpoint, self-loop, non-finite weight,
    /// duplicate insert, delete of an absent edge).
    pub fn admit(
        &mut self,
        client: u64,
        token: u64,
        updates: &[EdgeUpdate],
        graph: &AdjacencyGraph,
        now_ns: u64,
    ) -> Result<AdmitOk, UpdateRejection> {
        self.validate(graph, updates)?;
        let mut sealed = Vec::new();
        self.append(updates, now_ns, &mut sealed);
        // Bind the token to the batch holding the message's last update.
        // The open batch is empty here only when that last update just
        // sealed one (conflict seals happen *before* an append), so the
        // token rides the most recent sealed batch in that case.
        let batch_id = match sealed.last_mut() {
            Some(last) if self.open.is_empty() && !updates.is_empty() => {
                last.tokens.push((client, token));
                last.batch_id
            }
            _ => {
                self.tokens.push((client, token));
                self.opened_at_ns.get_or_insert(now_ns);
                self.next_batch_id
            }
        };
        Ok(AdmitOk { batch_id, sealed })
    }

    /// Appends a validated message to the open batch, sealing into
    /// `sealed` wherever the size or conflict rule fires.
    // hot-path
    fn append(&mut self, updates: &[EdgeUpdate], now_ns: u64, sealed: &mut Vec<SealedBatch>) {
        for update in updates {
            let key = (update.source(), update.target());
            // Conflict rule: a delete of an edge this open batch inserts
            // cannot share the batch (deletions apply first).
            if !update.is_insert() && self.overlay.get(&key) == Some(&true) {
                sealed.push(self.seal());
            }
            self.open.extend(std::iter::once(*update));
            self.opened_at_ns.get_or_insert(now_ns);
            self.overlay.insert(key, update.is_insert());
            if self.open.len() >= self.policy.max_updates {
                sealed.push(self.seal());
            }
        }
    }

    /// Nanosecond deadline by which the open batch must seal, if one is
    /// pending.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.opened_at_ns.map(|t| t.saturating_add(self.policy.max_delay_ns))
    }

    /// Seals the open batch when its latency deadline has passed.
    pub fn flush_due(&mut self, now_ns: u64) -> Option<SealedBatch> {
        match self.deadline_ns() {
            Some(deadline) if now_ns >= deadline && self.has_pending() => Some(self.seal()),
            _ => None,
        }
    }

    /// Seals the open batch now (explicit client flush / shutdown drain).
    pub fn force_flush(&mut self) -> Option<SealedBatch> {
        if self.has_pending() {
            Some(self.seal())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_graph::GraphError;

    fn graph3() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(8);
        g.insert_edge(0, 1, 1.0).unwrap();
        g.insert_edge(1, 2, 1.0).unwrap();
        g
    }

    fn ins(s: u32, t: u32) -> EdgeUpdate {
        EdgeUpdate::Insert { source: s, target: t, weight: 1.0 }
    }

    fn del(s: u32, t: u32) -> EdgeUpdate {
        EdgeUpdate::Delete { source: s, target: t }
    }

    #[test]
    fn coalesces_until_size_threshold() {
        let g = graph3();
        let mut a = Admission::fresh(FlushPolicy { max_updates: 3, max_delay_ns: u64::MAX });
        let r1 = a.admit(1, 10, &[ins(2, 3)], &g, 0).unwrap();
        assert!(r1.sealed.is_empty());
        assert_eq!(a.pending_len(), 1);
        let r2 = a.admit(2, 20, &[ins(3, 4), ins(4, 5)], &g, 5).unwrap();
        // Third update crossed the threshold: one sealed batch, both
        // tokens riding it, nothing left open.
        assert_eq!(r2.sealed.len(), 1);
        let sealed = &r2.sealed[0];
        assert_eq!(sealed.batch.len(), 3);
        assert_eq!(sealed.tokens, vec![(1, 10), (2, 20)]);
        assert_eq!(r2.batch_id, sealed.batch_id);
        assert_eq!(a.pending_len(), 0);
        assert!(a.deadline_ns().is_none());
    }

    #[test]
    fn mid_message_size_seal_binds_the_token_exactly_once() {
        let g = graph3();
        let mut a = Admission::fresh(FlushPolicy { max_updates: 2, max_delay_ns: u64::MAX });
        // Five updates with a threshold of two: two sealed batches, one
        // update left open; the token rides only the open batch.
        let r = a
            .admit(9, 77, &[ins(2, 3), ins(3, 4), ins(4, 5), ins(5, 6), ins(6, 7)], &g, 0)
            .unwrap();
        assert_eq!(r.sealed.len(), 2);
        assert!(r.sealed.iter().all(|s| s.tokens.is_empty()));
        assert_eq!(a.pending_len(), 1);
        let open = a.force_flush().unwrap();
        assert_eq!(open.tokens, vec![(9, 77)]);
        assert_eq!(open.batch_id, r.batch_id);
        let total: usize = r.sealed.iter().map(|s| s.batch.len()).sum::<usize>() + open.batch.len();
        assert_eq!(total, 5);
    }

    #[test]
    fn deadline_flush_waits_for_max_delay() {
        let g = graph3();
        let mut a = Admission::fresh(FlushPolicy { max_updates: 100, max_delay_ns: 1000 });
        a.admit(1, 1, &[ins(2, 3)], &g, 500).unwrap();
        assert_eq!(a.deadline_ns(), Some(1500));
        assert!(a.flush_due(1499).is_none());
        let sealed = a.flush_due(1500).expect("deadline passed");
        assert_eq!(sealed.batch.insertions(), &[(2, 3, 1.0)]);
        assert!(a.flush_due(u64::MAX).is_none(), "nothing left to flush");
    }

    #[test]
    fn delete_of_open_batch_insert_forces_a_seal() {
        let g = graph3();
        let mut a = Admission::fresh(FlushPolicy { max_updates: 100, max_delay_ns: u64::MAX });
        a.admit(1, 1, &[ins(5, 6)], &g, 0).unwrap();
        // Deleting (5,6) cannot join the batch that inserts it: deletions
        // apply before insertions inside a batch.
        let r = a.admit(1, 2, &[del(5, 6)], &g, 1).unwrap();
        assert_eq!(r.sealed.len(), 1);
        assert_eq!(r.sealed[0].batch.insertions(), &[(5, 6, 1.0)]);
        assert_eq!(r.sealed[0].tokens, vec![(1, 1)]);
        assert_eq!(a.pending_len(), 1, "the delete stays open");
        assert_ne!(r.batch_id, r.sealed[0].batch_id);
        let open = a.force_flush().expect("delete pending");
        assert_eq!(open.batch.deletions(), &[(5, 6)]);
        assert_eq!(open.tokens, vec![(1, 2)]);
        assert_eq!(open.batch_id, r.batch_id);
    }

    #[test]
    fn delete_then_reinsert_shares_a_batch() {
        // The weight-change idiom is legal in one batch: deletions apply
        // first, so del(0,1) + ins(0,1) coalesce without a seal.
        let g = graph3();
        let mut a = Admission::fresh(FlushPolicy { max_updates: 100, max_delay_ns: u64::MAX });
        let r = a.admit(1, 1, &[del(0, 1), ins(0, 1)], &g, 0).unwrap();
        assert!(r.sealed.is_empty());
        let sealed = a.force_flush().unwrap();
        assert_eq!(sealed.batch.deletions(), &[(0, 1)]);
        assert_eq!(sealed.batch.insertions(), &[(0, 1, 1.0)]);
    }

    #[test]
    fn rejection_is_typed_and_atomic() {
        let g = graph3();
        let mut a = Admission::fresh(FlushPolicy::default());
        // Out-of-range endpoint, with a valid update in front: nothing is
        // admitted.
        let err = a.admit(1, 1, &[ins(2, 3), ins(0, 99)], &g, 0).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.error, GraphError::VertexOutOfRange { vertex: 99, num_vertices: 8 });
        assert_eq!(a.pending_len(), 0);
        // Duplicate insert of a live edge.
        let err = a.admit(1, 2, &[ins(0, 1)], &g, 0).unwrap_err();
        assert_eq!(err.error, GraphError::DuplicateEdge { source: 0, target: 1 });
        // Delete of an absent edge.
        let err = a.admit(1, 3, &[del(6, 7)], &g, 0).unwrap_err();
        assert_eq!(err.error, GraphError::MissingEdge { source: 6, target: 7 });
        // Duplicate insert against the *open batch*, not just the graph.
        a.admit(1, 4, &[ins(2, 3)], &g, 0).unwrap();
        let err = a.admit(1, 5, &[ins(2, 3)], &g, 0).unwrap_err();
        assert_eq!(err.error, GraphError::DuplicateEdge { source: 2, target: 3 });
        // Delete of an edge the open batch deleted already.
        a.admit(1, 6, &[del(0, 1)], &g, 0).unwrap();
        let err = a.admit(1, 7, &[del(0, 1)], &g, 0).unwrap_err();
        assert_eq!(err.error, GraphError::MissingEdge { source: 0, target: 1 });
    }

    #[test]
    fn empty_update_message_still_earns_a_converged() {
        let g = graph3();
        let mut a = Admission::fresh(FlushPolicy::default());
        let r = a.admit(3, 42, &[], &g, 0).unwrap();
        assert!(r.sealed.is_empty());
        // The token is pending, so a flush seals an empty batch carrying it.
        let sealed = a.force_flush().expect("token pending");
        assert!(sealed.batch.is_empty());
        assert_eq!(sealed.tokens, vec![(3, 42)]);
        assert_eq!(sealed.batch_id, r.batch_id);
    }

    #[test]
    fn intra_message_sequences_validate_in_order() {
        let g = graph3();
        let mut a = Admission::fresh(FlushPolicy::default());
        // insert then delete of a fresh edge inside one message: legal,
        // but forces a seal between them.
        let r = a.admit(1, 1, &[ins(6, 7), del(6, 7)], &g, 0).unwrap();
        assert_eq!(r.sealed.len(), 1);
        // insert, delete, insert again: the final insert is valid because
        // the delete precedes it in client order.
        let r = a.admit(1, 2, &[ins(5, 6), del(5, 6), ins(5, 6)], &g, 0).unwrap();
        assert_eq!(r.sealed.len(), 1);
        let open = a.force_flush().unwrap();
        // Open batch: del(5,6) + ins(5,6) — the weight-change shape.
        assert_eq!(open.batch.deletions(), &[(5, 6)]);
        assert_eq!(open.batch.insertions(), &[(5, 6, 1.0)]);
    }
}
