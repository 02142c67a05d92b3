//! The coalescing event queue (§4.2–4.3): one slot per vertex, an
//! occupancy bitmap, and the fixed-function [`Reduce`] fold.
//!
//! Arrivals come three ways: one event ([`CoalescingQueue::insert_with`]),
//! a cross-shard run of events ([`CoalescingQueue::insert_run`]), or a
//! CSR [`Row`] ([`CoalescingQueue::insert_row`]), whose [`Carry`] says
//! what every arrival holds — a shared delta, a delta per weight, a
//! request, a Tag or VAP delete wave. All three go through one private
//! slot fold, the only insert-side code that indexes the slot arrays; a
//! row books its `QueueStats` once. A DAP delete wave never enters a
//! queue: the flow runs it as a frontier of rows (DESIGN.md §12).
//!
//! The fold is compiled per operator, as the hardware's `Reduce` ALU is
//! configured once per application (§4.3): a row or a run matches its
//! [`Reduce`] (and a row its carry, a weighted one its [`EdgeOp`]) once,
//! then folds every arrival through a loop monomorphized for that
//! operator and that carry's flag bits.

use jetstream_algorithms::{Algorithm, EdgeOp, Reduce, Value};
use jetstream_graph::{ix, vid, VertexId, Weight};

use crate::event::{Carry, Event, Row};

/// Statistics collected by the queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events inserted (including coalesced ones).
    pub inserts: u64,
    /// Insertions that merged into an existing slot instead of occupying a
    /// new one.
    pub coalesced: u64,
    /// Events handed back to the engine by
    /// [`CoalescingQueue::take_bin_into`],
    /// [`CoalescingQueue::take_range_into`] or
    /// [`CoalescingQueue::take_all_into`].
    pub drained: u64,
}

impl std::ops::AddAssign for QueueStats {
    fn add_assign(&mut self, rhs: QueueStats) {
        self.inserts += rhs.inserts;
        self.coalesced += rhs.coalesced;
        self.drained += rhs.drained;
    }
}

/// Slot flag bits packed into one byte per vertex.
const FLAG_DELETE: u8 = 1;
const FLAG_REQUEST: u8 = 1 << 1;
const FLAG_SOURCE: u8 = 1 << 2;
/// A resident with either bit set is *tagged*: folding even a plain
/// (regular, sourceless, non-request) arrival into it has to look at the
/// flag byte — a delete never shares a slot with a regular event (the
/// fold asserts it), and a dominant sourceless payload must clear the
/// resident's source.
const FLAG_TAGGED: u8 = FLAG_DELETE | FLAG_SOURCE;

/// Evaluates `$body` with `$op` bound to `$reduce` compiled: a closure
/// that is exactly [`Reduce::apply`] for that operator, NaN rule included.
/// The one dispatch on [`Reduce`] behind the row and run entry points —
/// each arm monomorphizes `$body`'s fold loop, so no arrival tests the
/// operator.
macro_rules! with_compiled {
    ($reduce:expr, |$op:ident| $body:expr) => {
        match $reduce {
            Reduce::Min => {
                let $op = |state: Value, delta: Value| state.min(delta);
                $body
            }
            Reduce::Max => {
                let $op = |state: Value, delta: Value| state.max(delta);
                $body
            }
            Reduce::Sum => {
                let $op = |state: Value, delta: Value| state + delta;
                $body
            }
        }
    };
}

/// The delete/request bits of `event`'s flag byte.
fn kind_of(event: &Event) -> u8 {
    u8::from(event.is_delete) | if event.request { FLAG_REQUEST } else { 0 }
}

/// The on-chip coalescing event queue (§4.2).
///
/// The hardware queue is a set of *bins*, each a direct-mapped grid holding
/// at most one event per vertex; an insertion that hits an occupied cell is
/// combined with the resident event by the application's `Reduce` (regular
/// events) or by delete-event merging. Bins are drained one at a time in
/// round-robin order, and events inside a bin drain in vertex-id order
/// (giving the DRAM page locality the paper relies on).
///
/// This functional model maps vertex `v` to bin `v / bin_size` and keeps one
/// slot per vertex, stored structure-of-arrays: an occupancy bitmap (one bit
/// per vertex) plus parallel payload/source/flags arrays. An arrival is a
/// single bit test, and while no tagged event (a delete, or a regular
/// event carrying a source) is resident, coalescing a plain arrival reads
/// and writes the bitmap word and the payload and nothing else — the case
/// of every regular phase of an accumulative run (PageRank on the
/// LiveJournal profile: 94 % of arrivals coalesce). Drains walk the bitmap word by word with
/// `trailing_zeros`, so their cost is proportional to `V/64` words plus the
/// number of resident events — not to `bin_size` — and the engines reuse
/// caller-provided scratch buffers via the `take_*_into` methods so steady-
/// state drains allocate nothing.
///
/// Phases are disjoint, so a delete never meets a regular event here; DAP
/// delete events, which must not coalesce (§5.2), never enter a queue.
#[derive(Debug)]
pub struct CoalescingQueue {
    /// One bit per vertex: set iff the vertex has a resident event.
    occupancy: Vec<u64>,
    /// Resident payload per vertex (valid only when the occupancy bit is set).
    payload: Vec<Value>,
    /// Resident source per vertex (valid only when `FLAG_SOURCE` is set).
    source: Vec<VertexId>,
    /// Resident flag byte per vertex (valid only when occupied).
    flags: Vec<u8>,
    num_vertices: usize,
    bin_size: usize,
    num_bins: usize,
    len: usize,
    /// Occupied slots whose flag byte has a [`FLAG_TAGGED`] bit.
    tagged: usize,
    stats: QueueStats,
}

/// The slot state of a [`CoalescingQueue`], borrowed for the folds of one
/// insert call.
///
/// The two arrays a plain coalesce touches are held as slices, so a row's
/// loop keeps their pointers and lengths in registers instead of reloading
/// them through the queue after every store; the rest is reached by
/// reference, only on the paths that need it (a single-event insert
/// would otherwise pay for five `Vec` headers it mostly never reads).
struct Slots<'a> {
    occupancy: &'a mut [u64],
    payload: &'a mut [Value],
    source: &'a mut Vec<VertexId>,
    flags: &'a mut Vec<u8>,
    len: &'a mut usize,
    tagged: &'a mut usize,
}

impl Slots<'_> {
    /// True while every resident is plain: no delete, no sourced event.
    #[inline(always)]
    fn none_tagged(&self) -> bool {
        *self.tagged == 0
    }

    /// Folds one arrival into slot `idx`, returning whether it coalesced
    /// into a resident (rather than claiming the empty slot); `kind` holds
    /// its delete/request flag bits and `plain` says that it is a regular,
    /// sourceless, non-request event arriving while
    /// [`none_tagged`](Self::none_tagged). `reduce` is the compiled
    /// operator (see [`with_compiled`]).
    ///
    /// The only insert-side code that indexes the slot arrays: `idx` is
    /// checked here, once, against `payload`'s length, and
    /// [`CoalescingQueue::new`] sizes `source`/`flags` to the same length
    /// and `occupancy` to a bit for each.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, or if a delete meets a regular
    /// resident or the reverse: phases are disjoint (DESIGN.md §12).
    // hot-path
    #[inline(always)]
    fn fold(
        &mut self,
        idx: usize,
        payload: Value,
        source: Option<VertexId>,
        kind: u8,
        plain: bool,
        reduce: impl Fn(Value, Value) -> Value,
    ) -> bool {
        assert!(idx < self.payload.len(), "event target {idx} out of range");
        let mask = 1u64 << (idx % 64);
        // panic-ok: idx < payload.len() asserted above; array sizes in the doc comment
        let (occupancy, slot) = (&mut self.occupancy[idx / 64], &mut self.payload[idx]);
        if *occupancy & mask == 0 {
            *occupancy |= mask;
            *slot = payload;
            let flags = kind | if source.is_some() { FLAG_SOURCE } else { 0 };
            self.flags[idx] = flags; // panic-ok: idx < payload.len(), as above
            if let Some(s) = source {
                self.source[idx] = s; // panic-ok: idx < payload.len(), as above
            }
            *self.tagged += usize::from(flags & FLAG_TAGGED != 0);
            *self.len += 1;
            return false;
        }
        if plain {
            // A plain arrival among plain residents: nothing but the
            // payload can change, and no other array is read.
            *slot = reduce(*slot, payload);
            return true;
        }
        let flags = &mut self.flags[idx]; // panic-ok: idx < payload.len(), as above
        assert!(
            (*flags ^ kind) & FLAG_DELETE == 0,
            "a delete and a regular event met in slot {idx}"
        );
        let reduced = reduce(*slot, payload);
        if reduced != *slot {
            // The arrival's payload dominates: the slot takes its source.
            let was_tagged = *flags & FLAG_TAGGED != 0;
            match source {
                Some(s) => {
                    self.source[idx] = s; // panic-ok: idx < payload.len(), as above
                    *flags |= FLAG_SOURCE;
                }
                None => *flags &= !FLAG_SOURCE,
            }
            *self.tagged += usize::from(*flags & FLAG_TAGGED != 0);
            *self.tagged -= usize::from(was_tagged);
        }
        *slot = reduced;
        if kind & FLAG_REQUEST != 0 {
            *flags |= FLAG_REQUEST;
        }
        true
    }
}

impl CoalescingQueue {
    /// Creates a queue for `num_vertices` vertices spread over `num_bins`
    /// contiguous-range bins.
    ///
    /// # Panics
    ///
    /// Panics if `num_bins` is zero.
    pub fn new(num_vertices: usize, num_bins: usize) -> Self {
        assert!(num_bins > 0, "need at least one bin");
        let bin_size = num_vertices.div_ceil(num_bins).max(1);
        let num_bins = if num_vertices == 0 { 1 } else { num_vertices.div_ceil(bin_size) };
        CoalescingQueue {
            occupancy: vec![0; num_vertices.div_ceil(64)],
            payload: vec![0.0; num_vertices],
            source: vec![0; num_vertices],
            flags: vec![0; num_vertices],
            num_vertices,
            bin_size,
            num_bins,
            len: 0,
            tagged: 0,
            stats: QueueStats::default(),
        }
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative queue statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The bin that vertex `v` maps to. Bins are contiguous vertex-id
    /// ranges of `bin_size`; ids at or past `bin_size * num_bins` (which
    /// can exist when `num_vertices` is not a multiple of the bin count)
    /// clamp into the last bin, so every representable `VertexId` maps to
    /// a valid bin.
    pub fn bin_for(&self, v: VertexId) -> usize {
        (ix(v) / self.bin_size).min(self.num_bins - 1)
    }

    /// Reconstructs the resident event for occupied vertex `v` from the
    /// parallel arrays.
    fn event_at(&self, v: usize) -> Event {
        // panic-ok: v is an occupied slot index < num_vertices, the arrays' length
        let (flags, payload, source) = (self.flags[v], self.payload[v], self.source[v]);
        Event {
            target: vid(v),
            payload,
            is_delete: flags & FLAG_DELETE != 0,
            request: flags & FLAG_REQUEST != 0,
            source: (flags & FLAG_SOURCE != 0).then_some(source),
        }
    }

    /// Inserts an event, coalescing with any resident event for the same
    /// vertex using the algorithm's `Reduce` (§4.2).
    ///
    /// Coalescing rules:
    /// * two regular events: payloads reduced, request flags OR-ed, and the
    ///   source of the dominant payload retained (DAP, §5.2);
    /// * two delete events (Tag, VAP): merged keeping the dominant payload
    ///   and its source.
    ///
    /// # Panics
    ///
    /// Panics if the target vertex is out of range, or if a delete meets a
    /// regular resident or the reverse: phases are disjoint.
    #[inline]
    pub fn insert(&mut self, event: Event, alg: &dyn Algorithm) {
        self.insert_with(event, alg.reduce_op());
    }

    /// [`insert`](CoalescingQueue::insert) with the algorithm's operator
    /// already resolved — what the engines call per emitted event.
    // hot-path
    #[inline]
    pub fn insert_with(&mut self, event: Event, reduce: Reduce) {
        self.insert_compiled(event, |state, delta| reduce.apply(state, delta));
    }

    /// [`insert_with`](CoalescingQueue::insert_with) folding with the
    /// compiled operator `reduce`.
    #[inline(always)]
    fn insert_compiled(&mut self, event: Event, reduce: impl Fn(Value, Value) -> Value) {
        self.stats.inserts += 1;
        let mut slots = self.slots();
        let kind = kind_of(&event);
        let plain = event.source.is_none() && kind == 0 && slots.none_tagged();
        if slots.fold(ix(event.target), event.payload, event.source, kind, plain, reduce) {
            self.stats.coalesced += 1;
        }
    }

    /// Inserts a whole run of events (async mode's cross-shard runs,
    /// already in this queue's local coordinates), folding each into its
    /// slot exactly like [`insert`](CoalescingQueue::insert). The operator
    /// is resolved once for the run.
    ///
    /// # Panics
    ///
    /// Panics if any target is out of range.
    // hot-path
    pub fn insert_run(&mut self, events: &[Event], reduce: Reduce) {
        with_compiled!(reduce, |op| {
            for &ev in events {
                self.insert_compiled(ev, op);
            }
        });
    }

    /// Inserts a [`Row`]: exactly its [`events`](Row::events) inserted one
    /// by one in row order, with the statistics booked once for the row.
    /// `base` is the global id of this queue's slot 0 (0 for a
    /// whole-graph queue, the shard's first vertex for a shard-local one).
    /// The carry is matched here, once for the row (a weighted row's
    /// [`EdgeOp`] with it). The match
    /// inlines into the caller, where an executor cutting one row into
    /// runs can hoist it, and each shape folds out of line with its
    /// fields in registers: one out-of-line body taking the row through
    /// memory made the 2-shard PageRank cold evaluation ~7 % slower.
    ///
    /// # Panics
    ///
    /// Panics if a weighted row's `weights` is not as long as its
    /// `targets`, if a target lies outside `base..base + num_vertices`, or
    /// as [`insert`](CoalescingQueue::insert) does on a kind collision.
    // hot-path
    #[inline]
    pub fn insert_row(&mut self, base: VertexId, row: Row<'_>, reduce: Reduce) {
        let Row { targets, carry } = row;
        match carry {
            Carry::Regular { delta, source } => {
                self.insert_shared::<0>(base, targets, delta, source, reduce)
            }
            Carry::Weighted { weights, base: delta, op, source } => match op {
                EdgeOp::AddWeight => {
                    self.insert_weighted(base, targets, weights, source, reduce, |w| delta + w)
                }
                EdgeOp::MinWeight => {
                    self.insert_weighted(base, targets, weights, source, reduce, |w| delta.min(w))
                }
                // What `EdgeOp::apply` gives every weight for these: the base.
                EdgeOp::Uniform | EdgeOp::PerEdge => {
                    self.insert_shared::<0>(base, targets, delta, source, reduce)
                }
            },
            Carry::Request { payload } => {
                self.insert_shared::<FLAG_REQUEST>(base, targets, payload, None, reduce)
            }
            Carry::Delete { payload, source } => {
                self.insert_shared::<FLAG_DELETE>(base, targets, payload, Some(source), reduce)
            }
        }
    }

    /// A row whose arrivals all carry `payload`, with the flag bits
    /// `KIND`: a constant, so each shape folds through its own loop.
    #[inline(never)]
    fn insert_shared<const KIND: u8>(
        &mut self,
        base: VertexId,
        targets: &[VertexId],
        payload: Value,
        source: Option<VertexId>,
        reduce: Reduce,
    ) {
        let row = targets.iter().map(|&v| (v, payload));
        self.fold_row(base, row, targets.len(), source, KIND, reduce);
    }

    /// A weighted row: each arrival carries `apply` of its weight, the
    /// row's [`EdgeOp`] compiled.
    #[inline(never)]
    fn insert_weighted(
        &mut self,
        base: VertexId,
        targets: &[VertexId],
        weights: &[Weight],
        source: Option<VertexId>,
        reduce: Reduce,
        apply: impl Fn(Weight) -> Value,
    ) {
        assert_eq!(targets.len(), weights.len(), "a row has one weight per target");
        let row = targets.iter().zip(weights).map(|(&v, &w)| (v, apply(w)));
        self.fold_row(base, row, targets.len(), source, 0, reduce);
    }

    /// Folds a row's `arrivals` arrivals — `(global target, payload)` in
    /// row order, sharing `source` and the flag bits `kind` — into their
    /// slots, and books the row's `QueueStats` once. The one body behind [`insert_row`](CoalescingQueue::insert_row):
    /// each shape passes its `kind` as a constant, so every inlined copy
    /// is specialized (a runtime `kind` left the plain PageRank row ~10 %
    /// slower). `reduce` is matched here, once for the row, into a loop
    /// compiled for its operator (EXPERIMENTS.md, "Fold with a compiled
    /// operator").
    #[inline(always)]
    fn fold_row(
        &mut self,
        base: VertexId,
        row: impl Iterator<Item = (VertexId, Value)>,
        arrivals: usize,
        source: Option<VertexId>,
        kind: u8,
        reduce: Reduce,
    ) {
        with_compiled!(reduce, |op| self.fold_row_compiled(base, row, arrivals, source, kind, op));
    }

    /// [`fold_row`](CoalescingQueue::fold_row) with its operator compiled.
    // hot-path
    #[inline(always)]
    fn fold_row_compiled(
        &mut self,
        base: VertexId,
        row: impl Iterator<Item = (VertexId, Value)>,
        arrivals: usize,
        source: Option<VertexId>,
        kind: u8,
        reduce: impl Fn(Value, Value) -> Value + Copy,
    ) {
        let resident = self.len;
        let mut slots = self.slots();
        // No arrival of a plain row tags a slot, so this holds row-long.
        // The loop is unswitched on it by hand: a plain arrival only claims
        // or coalesces, so the plain loop carries no flag path, and keeps
        // PageRank's row (§4.4) in registers.
        if source.is_none() && kind == 0 && slots.none_tagged() {
            for (v, payload) in row {
                slots.fold(ix(v.wrapping_sub(base)), payload, None, 0, true, reduce);
            }
        } else {
            for (v, payload) in row {
                slots.fold(ix(v.wrapping_sub(base)), payload, source, kind, false, reduce);
            }
        }
        // Every arrival claimed an empty slot (the growth of `len`) or
        // coalesced: booked once for the row.
        let claimed = self.len - resident;
        self.stats.inserts += arrivals as u64;
        self.stats.coalesced += (arrivals - claimed) as u64;
    }

    /// Lends the slot state to one call's folds.
    #[inline(always)]
    fn slots(&mut self) -> Slots<'_> {
        Slots {
            occupancy: &mut self.occupancy,
            payload: &mut self.payload,
            source: &mut self.source,
            flags: &mut self.flags,
            len: &mut self.len,
            tagged: &mut self.tagged,
        }
    }

    /// Clears every occupancy bit in `lo..hi`, appending the reconstructed
    /// events to `out` in ascending vertex order. Returns the number of
    /// events drained. `len` and stats are the caller's job.
    // hot-path
    fn drain_bits(&mut self, lo: usize, hi: usize, out: &mut Vec<Event>) -> usize {
        if lo >= hi {
            return 0;
        }
        let mut drained = 0;
        let (first_word, last_word) = (lo / 64, (hi - 1) / 64);
        for wi in first_word..=last_word {
            let mut word = self.occupancy[wi]; // panic-ok: wi <= (hi-1)/64 and every caller bounds hi <= num_vertices
            if wi == first_word {
                word &= !0u64 << (lo % 64);
            }
            if wi == last_word {
                let top = hi - wi * 64; // 1..=64 live bits in this word
                if top < 64 {
                    word &= (1u64 << top) - 1;
                }
            }
            if word == 0 {
                continue;
            }
            self.occupancy[wi] &= !word; // panic-ok: wi <= (hi-1)/64 and every caller bounds hi <= num_vertices
            while word != 0 {
                let bit = word.trailing_zeros() as usize; // cast-ok: trailing_zeros of a u64 word is <= 64
                word &= word - 1;
                let ev = self.event_at(wi * 64 + bit);
                self.tagged -= usize::from(ev.is_delete || ev.source.is_some());
                out.push(ev);
                drained += 1;
            }
        }
        drained
    }

    /// Drains all events in `bin` into `out` (appended in ascending vertex
    /// order), returning how many were drained. `out` is not cleared, so a
    /// caller reusing a scratch buffer across rounds must clear it first.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= num_bins()`.
    // hot-path
    pub fn take_bin_into(&mut self, bin: usize, out: &mut Vec<Event>) -> usize {
        assert!(bin < self.num_bins, "bin {bin} out of range");
        let lo = bin * self.bin_size;
        let hi = ((bin + 1) * self.bin_size).min(self.num_vertices);
        self.take_range_into(lo, hi, out)
    }

    /// Drains all queued events whose target lies in `lo..hi` into `out`
    /// (appended in ascending vertex order), returning how many were
    /// drained: [`take_bin_into`](Self::take_bin_into) over any vertex
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vertex count.
    // hot-path
    pub fn take_range_into(&mut self, lo: usize, hi: usize, out: &mut Vec<Event>) -> usize {
        assert!(lo <= hi && hi <= self.num_vertices, "range {lo}..{hi} out of bounds");
        let drained = self.drain_bits(lo, hi, out);
        self.len -= drained;
        self.stats.drained += drained as u64;
        drained
    }

    /// Drains every queued slot event into `out` (appended in ascending
    /// vertex order), returning how many were drained — the canonical round
    /// snapshot the sequential drain loop is built on. Bins are contiguous
    /// ascending vertex ranges, so one full bitmap sweep is identical to
    /// draining bin 0, bin 1, … in order.
    // hot-path
    pub fn take_all_into(&mut self, out: &mut Vec<Event>) -> usize {
        if self.len == 0 {
            return 0;
        }
        out.reserve(self.len);
        let drained = self.drain_bits(0, self.num_vertices, out);
        debug_assert_eq!(drained, self.len);
        self.len = 0;
        self.stats.drained += drained as u64;
        drained
    }

    /// Checks the queue's structural invariants, returning a description of
    /// the first violation found:
    ///
    /// * no occupancy bit is set beyond the vertex count;
    /// * the occupied-bit count equals the resident length;
    /// * the tagged-resident count (deletes and sourced events) matches a
    ///   recount — the plain-coalesce shortcut trusts it to be zero;
    /// * event conservation: every insert is still resident, was coalesced
    ///   away, or has been drained (`inserts == coalesced + drained +
    ///   len()`).
    ///
    /// Always compiled; the engine wires it into the drain loop as a debug
    /// assertion under the `strict-invariants` feature.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(last) = self.occupancy.last() {
            let live = self.num_vertices - (self.occupancy.len() - 1) * 64;
            if live < 64 && *last & !((1u64 << live) - 1) != 0 {
                return Err("occupancy bit set beyond the vertex count".into());
            }
        }
        let occupied: usize = self.occupancy.iter().map(|w| w.count_ones() as usize).sum(); // cast-ok: count_ones of a u64 word is <= 64
        if occupied != self.len {
            return Err(format!("{occupied} occupied slots but len = {}", self.len));
        }
        let tagged = (0..self.num_vertices)
            .filter(|&v| self.is_occupied(v) && self.flags[v] & FLAG_TAGGED != 0)
            .count();
        if tagged != self.tagged {
            return Err(format!("{tagged} tagged residents but the count says {}", self.tagged));
        }
        let accounted = self.stats.coalesced + self.stats.drained + self.len as u64;
        if self.stats.inserts != accounted {
            return Err(format!(
                "event conservation broken: {} inserts != {} coalesced + {} drained + \
                 {} resident",
                self.stats.inserts, self.stats.coalesced, self.stats.drained, self.len
            ));
        }
        Ok(())
    }

    fn is_occupied(&self, v: usize) -> bool {
        self.occupancy[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Debug-assertion wrapper around [`validate`](CoalescingQueue::validate)
    /// — a no-op in release builds.
    pub fn debug_validate(&self) {
        debug_assert_eq!(self.validate(), Ok(()), "queue invariant violated");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_algorithms::{Algorithm, PageRank, Sssp};

    fn sssp() -> Sssp {
        Sssp::new(0)
    }

    /// What one `take_*_into` call drains, collected.
    fn taken(take: impl FnOnce(&mut Vec<Event>) -> usize) -> Vec<Event> {
        let mut out = Vec::new();
        take(&mut out);
        out
    }

    #[test]
    fn insert_and_drain_in_vertex_order() {
        let mut q = CoalescingQueue::new(10, 2);
        let a = sssp();
        q.insert(Event::regular(7, 1.0), &a);
        q.insert(Event::regular(2, 2.0), &a);
        q.insert(Event::regular(4, 3.0), &a);
        assert_eq!(q.len(), 3);
        let bin0 = taken(|out| q.take_bin_into(0, out));
        assert_eq!(bin0.iter().map(|e| e.target).collect::<Vec<_>>(), vec![2, 4]);
        let bin1 = taken(|out| q.take_bin_into(1, out));
        assert_eq!(bin1[0].target, 7);
        assert!(q.is_empty());
    }

    #[test]
    fn bin_for_maps_the_last_vertex_into_the_last_bin() {
        // 10 vertices over 4 requested bins -> bin_size 3, 4 bins; the
        // last bin holds only vertex 9.
        let q = CoalescingQueue::new(10, 4);
        assert_eq!(q.num_bins(), 4);
        assert_eq!(q.bin_for(0), 0);
        assert_eq!(q.bin_for(2), 0);
        assert_eq!(q.bin_for(3), 1);
        assert_eq!(q.bin_for(8), 2);
        assert_eq!(q.bin_for(9), q.num_bins() - 1, "num_vertices-1 must land in the last bin");
        // Out-of-population ids clamp into the last bin.
        assert_eq!(q.bin_for(u32::MAX), q.num_bins() - 1);
    }

    #[test]
    fn the_last_vertex_round_trips_through_the_max_bin() {
        let mut q = CoalescingQueue::new(10, 4);
        let a = sssp();
        q.insert(Event::regular(9, 1.5), &a);
        assert_eq!(q.len(), 1);
        let last = q.num_bins() - 1;
        assert_eq!(q.bin_for(9), last);
        let evs = taken(|out| q.take_bin_into(last, out));
        assert_eq!(evs.iter().map(|e| e.target).collect::<Vec<_>>(), vec![9]);
        assert!(q.is_empty());
        q.validate().unwrap();
    }

    #[test]
    fn regular_events_coalesce_with_reduce() {
        let mut q = CoalescingQueue::new(4, 1);
        let a = sssp();
        q.insert(Event::regular(1, 5.0), &a);
        q.insert(Event::regular(1, 3.0), &a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().coalesced, 1);
        let evs = taken(|out| q.take_bin_into(0, out));
        assert_eq!(evs[0].payload, 3.0); // min for SSSP
    }

    #[test]
    fn accumulative_coalescing_sums() {
        let mut q = CoalescingQueue::new(4, 1);
        let pr = PageRank::default();
        q.insert(Event::regular(2, 0.25), &pr);
        q.insert(Event::regular(2, 0.5), &pr);
        let evs = taken(|out| q.take_bin_into(0, out));
        assert_eq!(evs[0].payload, 0.75);
    }

    #[test]
    fn dominant_source_survives_coalescing() {
        let mut q = CoalescingQueue::new(4, 1);
        let a = sssp();
        q.insert(Event::regular_from(9, 1, 5.0), &a);
        q.insert(Event::regular_from(8, 1, 3.0), &a);
        let evs = taken(|out| q.take_bin_into(0, out));
        assert_eq!(evs[0].source, Some(8)); // 3.0 dominates for min
                                            // Now the losing order.
        q.insert(Event::regular_from(8, 1, 3.0), &a);
        q.insert(Event::regular_from(9, 1, 5.0), &a);
        let evs = taken(|out| q.take_bin_into(0, out));
        assert_eq!(evs[0].source, Some(8));
    }

    #[test]
    fn dominant_sourceless_event_clears_source() {
        // A winning payload carried by a source-less event must erase the
        // loser's source, exactly as the AoS layout's `resident.source =
        // event.source` did.
        let mut q = CoalescingQueue::new(4, 1);
        let a = sssp();
        q.insert(Event::regular_from(9, 1, 5.0), &a);
        q.insert(Event::regular(1, 3.0), &a);
        let evs = taken(|out| q.take_bin_into(0, out));
        assert_eq!(evs[0].source, None);
    }

    #[test]
    fn request_flag_is_sticky() {
        let mut q = CoalescingQueue::new(4, 1);
        let a = sssp();
        q.insert(Event::request(1, a.identity()), &a);
        q.insert(Event::regular(1, 3.0), &a);
        let evs = taken(|out| q.take_bin_into(0, out));
        assert!(evs[0].request);
        assert_eq!(evs[0].payload, 3.0);
    }

    #[test]
    fn delete_events_coalesce_by_default() {
        let mut q = CoalescingQueue::new(4, 1);
        let a = sssp();
        q.insert(Event::delete(0, 1, 5.0), &a);
        q.insert(Event::delete(2, 1, 3.0), &a);
        assert_eq!(q.len(), 1);
        let evs = taken(|out| q.take_bin_into(0, out));
        assert!(evs[0].is_delete);
        assert_eq!(evs[0].payload, 3.0);
        assert_eq!(evs[0].source, Some(2));
    }

    // Phases are disjoint, so a delete meeting a regular resident is a
    // broken flow: the fold fails loudly in either direction.
    #[test]
    #[should_panic(expected = "a delete and a regular event met in slot 1")]
    fn a_delete_meeting_a_regular_resident_panics() {
        let mut q = CoalescingQueue::new(4, 1);
        q.insert(Event::regular(1, 3.0), &sssp());
        q.insert(Event::delete(0, 1, 5.0), &sssp());
    }

    #[test]
    #[should_panic(expected = "a delete and a regular event met in slot 2")]
    fn a_regular_row_meeting_a_resident_delete_panics() {
        let mut q = CoalescingQueue::new(4, 1);
        q.insert(Event::delete(0, 2, 5.0), &sssp());
        let row = Row { targets: &[1, 2], carry: Carry::Regular { delta: 1.0, source: None } };
        q.insert_row(0, row, Reduce::Min);
    }

    #[test]
    fn take_range_drains_only_the_slice() {
        let mut q = CoalescingQueue::new(10, 2);
        let a = sssp();
        for v in [1u32, 4, 7, 9] {
            q.insert(Event::regular(v, 1.0), &a);
        }
        let first = taken(|out| q.take_range_into(0, 5, out));
        assert_eq!(first.iter().map(|e| e.target).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(q.len(), 2);
        let second = taken(|out| q.take_range_into(5, 10, out));
        assert_eq!(second.iter().map(|e| e.target).collect::<Vec<_>>(), vec![7, 9]);
        assert!(q.is_empty());
        // Bins stay consistent after range draining.
        q.insert(Event::regular(2, 1.0), &a);
        assert_eq!(taken(|out| q.take_bin_into(0, out)).len(), 1);
    }

    #[test]
    fn take_range_straddling_a_word_boundary() {
        let mut q = CoalescingQueue::new(200, 3);
        let a = sssp();
        for v in [0u32, 63, 64, 65, 127, 128, 199] {
            q.insert(Event::regular(v, 1.0), &a);
        }
        let mid = taken(|out| q.take_range_into(63, 129, out));
        assert_eq!(mid.iter().map(|e| e.target).collect::<Vec<_>>(), vec![63, 64, 65, 127, 128]);
        assert_eq!(q.validate(), Ok(()));
        let rest = taken(|out| q.take_all_into(out));
        assert_eq!(rest.iter().map(|e| e.target).collect::<Vec<_>>(), vec![0, 199]);
        assert!(q.is_empty());
    }

    #[test]
    fn take_all_drains_every_slot_in_vertex_order() {
        let mut q = CoalescingQueue::new(10, 3);
        let a = sssp();
        for v in [9u32, 0, 5, 3, 7] {
            q.insert(Event::regular(v, v as f64), &a);
        }
        let evs = taken(|out| q.take_all_into(out));
        assert_eq!(evs.iter().map(|e| e.target).collect::<Vec<_>>(), vec![0, 3, 5, 7, 9]);
        assert!(q.is_empty());
        assert_eq!(q.validate(), Ok(()));
        // Bins stay consistent: a fresh insert drains normally.
        q.insert(Event::regular(4, 1.0), &a);
        assert_eq!(taken(|out| q.take_all_into(out)).len(), 1);
    }

    #[test]
    fn scratch_drains_reuse_the_buffer_without_reallocating() {
        // Steady-state contract: once the scratch buffer has grown to the
        // high-water mark, repeated clear + take_all_into cycles never move
        // or reallocate it.
        let mut q = CoalescingQueue::new(256, 4);
        let a = sssp();
        let mut scratch: Vec<Event> = Vec::with_capacity(256);
        let ptr = scratch.as_ptr();
        let cap = scratch.capacity();
        for round in 0..10 {
            for v in 0..256u32 {
                if (v + round) % 3 == 0 {
                    q.insert(Event::regular(v, f64::from(v)), &a);
                }
            }
            scratch.clear();
            let n = q.take_all_into(&mut scratch);
            assert_eq!(n, scratch.len());
            assert!(scratch.windows(2).all(|w| w[0].target < w[1].target));
            assert_eq!(scratch.as_ptr(), ptr, "scratch buffer moved");
            assert_eq!(scratch.capacity(), cap, "scratch buffer reallocated");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn take_into_appends_without_clearing() {
        let mut q = CoalescingQueue::new(8, 2);
        let a = sssp();
        q.insert(Event::regular(1, 1.0), &a);
        q.insert(Event::regular(6, 6.0), &a);
        let mut out = vec![Event::regular(0, 0.0)];
        assert_eq!(q.take_bin_into(0, &mut out), 1);
        assert_eq!(q.take_bin_into(1, &mut out), 1);
        assert_eq!(out.iter().map(|e| e.target).collect::<Vec<_>>(), vec![0, 1, 6]);
    }

    #[test]
    fn queue_stats_add_assign_sums_fields() {
        let mut a = QueueStats { inserts: 1, coalesced: 2, drained: 4 };
        a += QueueStats { inserts: 10, coalesced: 20, drained: 40 };
        assert_eq!(a, QueueStats { inserts: 11, coalesced: 22, drained: 44 });
    }

    #[test]
    fn empty_bins_drain_empty() {
        let mut q = CoalescingQueue::new(8, 4);
        assert!(taken(|out| q.take_bin_into(3, out)).is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn zero_vertex_queue_is_usable() {
        let q = CoalescingQueue::new(0, 4);
        assert!(q.is_empty());
        assert_eq!(q.num_bins(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let mut q = CoalescingQueue::new(2, 1);
        q.insert(Event::regular(5, 1.0), &sssp());
    }

    // kills jm-25b10b98 (queue.rs cmp-boundary `num_bins > 0` -> `>= 0`):
    // the mutant admits zero bins and dies in div_ceil instead of the
    // documented panic.
    #[test]
    #[should_panic(expected = "need at least one bin")]
    fn zero_bins_is_rejected_with_the_documented_panic() {
        let _ = CoalescingQueue::new(4, 0);
    }

    // kills jm-85c14553 (queue.rs cmp-boundary, the fold's `idx <
    // payload.len()` -> `<=`): the first out-of-range id is exactly
    // num_vertices, and the mutant lets it through to a raw
    // index-out-of-bounds on `payload`.
    #[test]
    #[should_panic(expected = "event target 10 out of range")]
    fn target_equal_to_vertex_count_is_out_of_range() {
        let mut q = CoalescingQueue::new(10, 2);
        q.insert(Event::regular(10, 1.0), &sssp());
    }

    // kills jm-272071bc (queue.rs cmp-boundary `lo >= hi` -> `>`): the
    // lo == hi == 0 guard is load-bearing — without it `(hi - 1) / 64`
    // underflows.
    #[test]
    fn draining_an_empty_bit_range_is_a_no_op() {
        let mut q = CoalescingQueue::new(8, 2);
        q.insert(Event::regular(0, 1.0), &sssp());
        let mut out = Vec::new();
        assert_eq!(q.drain_bits(0, 0, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(q.len(), 1, "an empty range must not touch queued events");
    }

    // kills jm-85c15fe9 (queue.rs cmp-boundary `bin < num_bins` -> `<=`):
    // the first out-of-range bin is exactly num_bins, and the mutant lets
    // it through to drain the empty range past the last vertex instead of
    // the documented panic.
    #[test]
    #[should_panic(expected = "bin 2 out of range")]
    fn bin_equal_to_bin_count_is_out_of_range() {
        let mut q = CoalescingQueue::new(10, 2);
        let mut out = Vec::new();
        q.take_bin_into(2, &mut out);
    }
}
