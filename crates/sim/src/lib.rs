//! Cycle-level simulator of the JetStream accelerator datapath.
//!
//! The paper evaluates JetStream on a cycle-accurate microarchitectural
//! simulator built on the Structural Simulation Toolkit with DRAMSim2 for
//! off-chip memory (§6). This crate stands in for both with one timing
//! model, a transaction-level replay of the functional engine's op trace:
//!
//! * [`SimConfig`] — the hardware configuration of Table 1 (8 processing
//!   engines @ 1 GHz, 16-bin on-chip queue, 16×16 crossbar, 4 DRAM
//!   channels), with per-strategy event/vertex record sizes.
//! * [`dram::Dram`] — a transaction-level multi-channel DRAM model with
//!   per-bank open-row state and bus bandwidth limits (the DRAMSim2
//!   substitute).
//! * [`AcceleratorSim`] — replays the operation traces recorded by the
//!   functional engine (`jetstream_core::trace`) through the datapath of
//!   Fig. 7, with per-port contention on the 16×16 crossbar, producing
//!   cycle counts, per-phase timing, and off-chip traffic statistics
//!   (Table 3, Figs. 11–14).
//!
//! Functional results never depend on this crate: the engine computes them;
//! the simulator only assigns time and traffic to what the engine did.

mod config;
pub mod dram;
mod replay;

pub use config::{SimConfig, CLOCK_HZ, LINE_BYTES};
pub use replay::{AcceleratorSim, SimReport};
