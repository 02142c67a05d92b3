use jetstream_algorithms::{EdgeOp, Value};
use jetstream_graph::{VertexId, Weight};

/// A lightweight message triggering computation at its target vertex (§4.2).
///
/// GraphPulse events are `(target, payload)` tuples; JetStream extends the
/// payload with flags for the new event types (§3.3–3.4) and, under
/// dependency-aware propagation (DAP, §5.2), with the id of the vertex whose
/// update produced the event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Destination vertex.
    pub target: VertexId,
    /// The delta carried to the target (for delete events under VAP: the
    /// contribution that previously flowed over the deleted path).
    pub payload: Value,
    /// Delete flag: this event tags/resets impacted vertices during the
    /// recovery phase (Algorithm 4).
    pub is_delete: bool,
    /// Request flag: the receiving vertex must propagate its state to all
    /// outgoing neighbors even if its own state does not change (§3.4).
    pub request: bool,
    /// Source vertex that generated the event (DAP only; `None` otherwise
    /// and for initial events).
    pub source: Option<VertexId>,
}

// The queue holds one potential event per vertex; any growth of this
// struct multiplies directly into queue memory and drain bandwidth. The
// current layout packs to 24 bytes (payload + target + Option<source> +
// two flag bytes); see DESIGN.md §12 before relaxing the bound.
const _: () = assert!(std::mem::size_of::<Event>() <= 24, "Event grew past 24 bytes");

impl Event {
    /// A regular value-carrying event.
    pub fn regular(target: VertexId, payload: Value) -> Self {
        Event { target, payload, is_delete: false, request: false, source: None }
    }

    /// A regular event stamped with its source vertex (DAP).
    pub fn regular_from(source: VertexId, target: VertexId, payload: Value) -> Self {
        Event { target, payload, is_delete: false, request: false, source: Some(source) }
    }

    /// A request event: payload is the identity so it cannot perturb state.
    pub fn request(target: VertexId, identity: Value) -> Self {
        Event { target, payload: identity, is_delete: false, request: true, source: None }
    }

    /// A delete event carrying the (previously propagated) contribution
    /// `payload` from `source`.
    pub fn delete(source: VertexId, target: VertexId, payload: Value) -> Self {
        Event { target, payload, is_delete: true, request: false, source: Some(source) }
    }
}

/// A CSR row of arrivals: one event per entry of `targets`, in row order,
/// each shaped by the one `carry` (§4.4: a processing engine computes a
/// vertex's delta once and its generation streams walk the row). The
/// kernel and the set-up phases build rows; executors route them whole;
/// [`CoalescingQueue::insert_row`](crate::CoalescingQueue::insert_row)
/// folds them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row<'a> {
    /// Destination vertices, in row order.
    pub targets: &'a [VertexId],
    /// What each arrival carries.
    pub carry: Carry<'a>,
}

/// What every arrival of a [`Row`] carries: the row's one shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Carry<'a> {
    /// A regular event carrying `delta` from `source` (PageRank, BFS, CC,
    /// and the accumulative set-up phases' seeds).
    Regular {
        /// The shared delta.
        delta: Value,
        /// DAP source, `None` otherwise.
        source: Option<VertexId>,
    },
    /// A regular event from `source` carrying `op.apply(base, w)`, `w`
    /// its target's entry of `weights` (SSSP, SSWP).
    Weighted {
        /// One weight per target.
        weights: &'a [Weight],
        /// The row gate's delta.
        base: Value,
        /// The algorithm's edge operator.
        op: EdgeOp,
        /// DAP source, `None` otherwise.
        source: Option<VertexId>,
    },
    /// A request event carrying `payload`, the identity (request set-up,
    /// §3.4).
    Request {
        /// The identity.
        payload: Value,
    },
    /// A delete event from `source` carrying `payload` (a Tag or DAP
    /// delete wave leaving a reset vertex).
    Delete {
        /// The identity.
        payload: Value,
        /// The reset vertex.
        source: VertexId,
    },
}

impl<'a> Row<'a> {
    /// The part of this row whose targets are `targets`, the row's
    /// arrivals from `start` on: a weighted row's weights are cut to
    /// match. How an executor cuts a row at shard bounds.
    ///
    /// # Panics
    ///
    /// Panics if the row is weighted and its weights end before
    /// `start + targets.len()`.
    #[inline]
    pub(crate) fn part(self, start: usize, targets: &'a [VertexId]) -> Row<'a> {
        let carry = match self.carry {
            Carry::Weighted { weights, base, op, source } => {
                let (weights, _) = weights.split_at(start).1.split_at(targets.len());
                Carry::Weighted { weights, base, op, source }
            }
            carry => carry,
        };
        Row { targets, carry }
    }

    /// The row's events, in row order: what inserting the row one event at
    /// a time inserts.
    pub fn events(self) -> impl Iterator<Item = Event> + 'a {
        let Row { targets, carry } = self;
        let mut weights = match carry {
            Carry::Weighted { weights, .. } => weights.iter(),
            _ => [].iter(),
        };
        targets.iter().map(move |&v| match carry {
            Carry::Regular { delta, source } => Event { source, ..Event::regular(v, delta) },
            Carry::Weighted { base, op, source, .. } => {
                #[expect(clippy::expect_used, reason = "invariant: one weight per target")]
                let w = weights.next().expect("invariant: a weighted row has a weight per target");
                Event { source, ..Event::regular(v, op.apply(base, *w)) }
            }
            Carry::Request { payload } => Event::request(v, payload),
            Carry::Delete { payload, source } => Event::delete(source, v, payload),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_flags() {
        let r = Event::regular(3, 1.5);
        assert!(!r.is_delete && !r.request && r.source.is_none());

        let q = Event::request(3, f64::INFINITY);
        assert!(q.request && !q.is_delete);
        assert!(q.payload.is_infinite());

        let d = Event::delete(1, 3, 9.0);
        assert!(d.is_delete && !d.request);
        assert_eq!(d.source, Some(1));

        let s = Event::regular_from(7, 3, 2.0);
        assert_eq!(s.source, Some(7));
    }

    #[test]
    #[should_panic(expected = "mid > len")]
    fn a_part_past_a_weighted_rows_end_panics() {
        let carry = Carry::Weighted {
            weights: &[1.0, 2.0],
            base: 0.0,
            op: EdgeOp::AddWeight,
            source: None,
        };
        let _ = Row { targets: &[1, 2], carry }.part(2, &[3]);
    }
}
