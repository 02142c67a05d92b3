use std::ops::AddAssign;

/// Execution phases of the JetStream flow (§4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Static (cold) evaluation inherited from GraphPulse (§4.6.1).
    Initial,
    /// Stream Reader converts deleted edges to delete events (§4.6.2).
    DeleteSetup,
    /// Delete events propagate, tagging/resetting impacted vertices.
    DeletePropagation,
    /// Request events are created for impacted vertices' in-neighbors.
    RequestSetup,
    /// Accumulative only: negative deltas propagate on the intermediate
    /// (sink-transformed) graph.
    IntermediateCompute,
    /// Stream Reader converts inserted edges to events.
    InsertSetup,
    /// Incremental reevaluation on the new graph version.
    Recompute,
}

impl Phase {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Initial => "initial",
            Phase::DeleteSetup => "delete-setup",
            Phase::DeletePropagation => "delete-propagation",
            Phase::RequestSetup => "request-setup",
            Phase::IntermediateCompute => "intermediate-compute",
            Phase::InsertSetup => "insert-setup",
            Phase::Recompute => "recompute",
        }
    }
}

/// Operation counts for one engine run (initial evaluation or one streaming
/// batch). These are the quantities behind Figs. 9 and 10 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events popped from the queue and applied to vertices.
    pub events_processed: u64,
    /// Events generated by propagation (before coalescing).
    pub events_generated: u64,
    /// Vertex state reads.
    pub vertex_reads: u64,
    /// Vertex state writes (state changes).
    pub vertex_writes: u64,
    /// Edges read during propagation.
    pub edge_reads: u64,
    /// Vertices reset to the identity by delete propagation (Fig. 10).
    pub resets: u64,
    /// Of those, vertices the DAP restore step handed their previous value
    /// back before request set-up.
    pub restored: u64,
    /// Delete events processed during recovery.
    pub delete_events: u64,
    /// Request events generated during re-approximation.
    pub request_events: u64,
    /// Streamed updates read by the Stream Reader.
    pub stream_reads: u64,
    /// Completed queue drain rounds.
    pub rounds: u64,
    /// Events that coalesced into an existing queue slot.
    pub events_coalesced: u64,
    /// Always 0: the engine models no §4.7 slices; the cycle simulator
    /// counts cross-slice spills (`SimReport::spilled_events` in
    /// `jetstream-sim`). Kept only because the benchmark's ledger reads it
    /// as `core.spilled_events_per_batch`.
    pub spilled_events: u64,
}

impl RunStats {
    /// Total vertex accesses (reads + writes), the y-axis of Fig. 9 (left).
    pub fn vertex_accesses(&self) -> u64 {
        self.vertex_reads + self.vertex_writes
    }

    /// Total edge accesses, the y-axis of Fig. 9 (right).
    pub fn edge_accesses(&self) -> u64 {
        self.edge_reads
    }
}

impl AddAssign for RunStats {
    fn add_assign(&mut self, rhs: RunStats) {
        self.events_processed += rhs.events_processed;
        self.events_generated += rhs.events_generated;
        self.vertex_reads += rhs.vertex_reads;
        self.vertex_writes += rhs.vertex_writes;
        self.edge_reads += rhs.edge_reads;
        self.resets += rhs.resets;
        self.restored += rhs.restored;
        self.delete_events += rhs.delete_events;
        self.request_events += rhs.request_events;
        self.stream_reads += rhs.stream_reads;
        self.rounds += rhs.rounds;
        self.events_coalesced += rhs.events_coalesced;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_sum_reads_and_writes() {
        let s = RunStats { vertex_reads: 3, vertex_writes: 2, edge_reads: 7, ..Default::default() };
        assert_eq!(s.vertex_accesses(), 5);
        assert_eq!(s.edge_accesses(), 7);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = RunStats { events_processed: 1, rounds: 2, ..Default::default() };
        let b = RunStats { events_processed: 10, rounds: 1, resets: 4, ..Default::default() };
        a += b;
        assert_eq!(a.events_processed, 11);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.resets, 4);
    }

    #[test]
    fn phase_labels_are_distinct() {
        let all = [
            Phase::Initial,
            Phase::DeleteSetup,
            Phase::DeletePropagation,
            Phase::RequestSetup,
            Phase::IntermediateCompute,
            Phase::InsertSetup,
            Phase::Recompute,
        ];
        let labels: std::collections::HashSet<_> = all.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), all.len());
    }
}
