//! JetStream — event-driven streaming graph analytics.
//!
//! Facade crate re-exporting the whole workspace. See the individual crates
//! for details:
//!
//! * [`graph`] — graph substrate (CSR, mutation batches, generators).
//! * [`algorithms`] — delta-accumulative (DAIC) graph algorithms.
//! * [`engine`] — the functional event-driven engine (GraphPulse compute +
//!   JetStream streaming).
//! * [`sim`] — the cycle-level accelerator simulator.
//! * [`baselines`] — KickStarter- and GraphBolt-style software frameworks.
//! * [`hwmodel`] — power/area analytic model.
//! * [`store`] — durable state store (checkpoints, write-ahead log, crash
//!   recovery) for the streaming engine.

pub use jetstream_algorithms as algorithms;
pub use jetstream_baselines as baselines;
pub use jetstream_core as engine;
pub use jetstream_graph as graph;
pub use jetstream_hwmodel as hwmodel;
pub use jetstream_sim as sim;
pub use jetstream_store as store;
