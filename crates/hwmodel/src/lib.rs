//! Analytic power and area model of the JetStream accelerator (Table 4).
//!
//! The paper estimates component power and area with CACTI 7 (22 nm ITRS-HP
//! SRAM for the queue memory, 28 nm for the total die). This crate is the
//! CACTI substitute: per-component analytic models calibrated to published
//! per-technology constants, with JetStream's overheads derived from its
//! architectural deltas — larger events widen the NoC and buffers, the
//! coalescer pipelines gain delete merging, and the apply units gain reset
//! logic and the Impact Buffer.
//!
//! The headline reproduction targets of Table 4:
//!
//! * queue memory dominates (64 × 1 MB banks, ~192 mm², ~8.8 W);
//! * network overhead grows with the event width (+~78 % static power for
//!   DAP's 14-byte events vs GraphPulse's 8-byte events);
//! * the overall increase is small (~+3 % area, ~+1 % power).
//!
//! # Example
//!
//! ```
//! use jetstream_hwmodel::{HwConfig, estimate};
//!
//! let gp = estimate(&HwConfig::graphpulse());
//! let js = estimate(&HwConfig::jetstream_dap());
//! let area_overhead = js.total_area_mm2() / gp.total_area_mm2() - 1.0;
//! assert!(area_overhead > 0.0 && area_overhead < 0.10); // "~3%" in Table 4
//! ```

/// Hardware structure description for the estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwConfig {
    /// On-chip queue memory in 1 MB eDRAM banks (Table 1: 64 MB).
    pub queue_banks: u32,
    /// Processing engines, each with a scratchpad (Table 1: 8).
    pub processors: u32,
    /// Scratchpad size per processor in KB (§6.3: 2 KB).
    pub scratchpad_kb: u32,
    /// Crossbar ports (16×16).
    pub noc_ports: u32,
    /// Event width in bits (GraphPulse: 64; JetStream base/VAP: 80;
    /// DAP: 112).
    pub event_bits: u32,
    /// Whether the streaming extensions are present (Stream Reader, Impact
    /// Buffer, reset logic, delete coalescing).
    pub streaming_extensions: bool,
}

impl HwConfig {
    /// The GraphPulse baseline configuration.
    pub fn graphpulse() -> Self {
        HwConfig {
            queue_banks: 64,
            processors: 8,
            scratchpad_kb: 2,
            noc_ports: 16,
            event_bits: 64,
            streaming_extensions: false,
        }
    }

    /// JetStream with base/VAP events (80-bit payloads with flags).
    pub fn jetstream_vap() -> Self {
        HwConfig { event_bits: 80, streaming_extensions: true, ..HwConfig::graphpulse() }
    }

    /// JetStream with DAP events (112-bit payloads carrying source ids).
    pub fn jetstream_dap() -> Self {
        HwConfig { event_bits: 112, streaming_extensions: true, ..HwConfig::graphpulse() }
    }
}

/// Estimate for one accelerator component (one row of Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentEstimate {
    /// Component name ("Queue", "Scratchpad", "Network", "Proc. Logic").
    pub name: &'static str,
    /// Number of unit instances.
    pub count: u32,
    /// Static (leakage) power per unit, mW.
    pub static_mw: f64,
    /// Dynamic power per unit at reference activity, mW.
    pub dynamic_mw: f64,
    /// Total area across all units, mm².
    pub area_mm2: f64,
}

impl ComponentEstimate {
    /// Total power across all units, mW.
    pub fn total_mw(&self) -> f64 {
        (self.static_mw + self.dynamic_mw) * self.count as f64
    }
}

/// A full power/area estimate (Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct HwReport {
    /// Per-component rows.
    pub components: Vec<ComponentEstimate>,
}

impl HwReport {
    /// Total accelerator power, mW.
    pub fn total_mw(&self) -> f64 {
        self.components.iter().map(ComponentEstimate::total_mw).sum()
    }

    /// Total accelerator area, mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_mm2).sum()
    }

    /// The row with the given name, if present.
    pub fn component(&self, name: &str) -> Option<&ComponentEstimate> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Energy in joules for a run of `cycles` at 1 GHz with the given
    /// event and DRAM activity (used for the paper's ~13× energy-efficiency
    /// claim: shorter runs at nearly identical power draw).
    pub fn energy_joules(&self, cycles: u64, events: u64, dram_bytes: u64) -> f64 {
        let seconds = cycles as f64 / 1.0e9;
        let on_chip = self.total_mw() * 1e-3 * seconds;
        let per_event_j = 45e-12; // queue insert + apply + crossbar hop
        let per_dram_byte_j = 15e-12; // DDR3 access energy per byte
        on_chip + events as f64 * per_event_j + dram_bytes as f64 * per_dram_byte_j
    }
}

// --- Calibration constants (22 nm queue memory, 28 nm logic) -------------

/// eDRAM queue bank (1 MB): leakage mW, dynamic mW at reference activity,
/// area mm². Calibrated to CACTI-7 22 nm ITRS-HP numbers as reported in
/// Table 4 (64 banks → 192 mm², ≈8.8 W).
const QUEUE_STATIC_MW: f64 = 116.0;
const QUEUE_DYNAMIC_MW: f64 = 22.0;
const QUEUE_AREA_MM2: f64 = 2.97;

/// SRAM scratchpad (2 KB).
const SCRATCHPAD_STATIC_MW: f64 = 0.35;
const SCRATCHPAD_DYNAMIC_MW: f64 = 1.13;
const SCRATCHPAD_AREA_MM2: f64 = 0.026;

/// Crossbar cost per port² per event bit (wires and buffers scale with the
/// flit width).
const NOC_STATIC_MW_PER_PORT2_BIT: f64 = 0.003;
const NOC_DYNAMIC_MW_PER_PORT2_BIT: f64 = 0.00019;
const NOC_AREA_MM2_PER_PORT2_BIT: f64 = 0.000194;

/// Apply/propagate pipelines per processor (dominated by the FP units).
const LOGIC_DYNAMIC_MW_PER_PROC: f64 = 0.16;
const LOGIC_AREA_MM2_PER_PROC: f64 = 0.058;

/// Extra coalescer comparators, reset logic, and the Impact Buffer.
const STREAMING_LOGIC_DYNAMIC_MW: f64 = 0.5;
const STREAMING_LOGIC_AREA_MM2: f64 = 0.23;

/// Produces the Table 4 estimate for a hardware configuration.
pub fn estimate(config: &HwConfig) -> HwReport {
    // Queue banks: the streaming coalescer extensions add ~1% static
    // (wider tags) while the dynamic draw drops slightly because streaming
    // runs process fewer events per bank-cycle (§6.3).
    let (q_static, q_dyn, q_area) = if config.streaming_extensions {
        (QUEUE_STATIC_MW * 1.01, QUEUE_DYNAMIC_MW * 0.94, QUEUE_AREA_MM2 * 1.01)
    } else {
        (QUEUE_STATIC_MW, QUEUE_DYNAMIC_MW, QUEUE_AREA_MM2)
    };
    let queue = ComponentEstimate {
        name: "Queue",
        count: config.queue_banks,
        static_mw: q_static,
        dynamic_mw: q_dyn,
        area_mm2: q_area * config.queue_banks as f64,
    };

    // Scratchpads widen with the event size (processing-buffer entries).
    let width_ratio = config.event_bits as f64 / 64.0;
    let sp_dyn = SCRATCHPAD_DYNAMIC_MW * (1.0 + 0.06 * (width_ratio - 1.0) / 0.75);
    let scratchpad = ComponentEstimate {
        name: "Scratchpad",
        count: config.processors,
        static_mw: SCRATCHPAD_STATIC_MW,
        dynamic_mw: sp_dyn,
        area_mm2: SCRATCHPAD_AREA_MM2 * config.processors as f64,
    };

    // Crossbar: wires, arbiters, and buffers all scale with ports² × width.
    let port2_bits = config.noc_ports as f64 * config.noc_ports as f64 * config.event_bits as f64;
    let network = ComponentEstimate {
        name: "Network",
        count: 1,
        static_mw: NOC_STATIC_MW_PER_PORT2_BIT * port2_bits,
        dynamic_mw: NOC_DYNAMIC_MW_PER_PORT2_BIT * port2_bits,
        area_mm2: NOC_AREA_MM2_PER_PORT2_BIT * port2_bits,
    };

    // Processing logic: FP pipelines plus (for JetStream) the reset logic,
    // Stream Reader, and Impact Buffer.
    let mut logic_dyn = LOGIC_DYNAMIC_MW_PER_PROC * config.processors as f64;
    let mut logic_area = LOGIC_AREA_MM2_PER_PROC * config.processors as f64;
    if config.streaming_extensions {
        logic_dyn += STREAMING_LOGIC_DYNAMIC_MW;
        logic_area += STREAMING_LOGIC_AREA_MM2;
    }
    let logic = ComponentEstimate {
        name: "Proc. Logic",
        count: 1,
        static_mw: 0.0,
        dynamic_mw: logic_dyn,
        area_mm2: logic_area,
    };

    HwReport { components: vec![queue, scratchpad, network, logic] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_dominates_area_and_power() {
        let r = estimate(&HwConfig::jetstream_dap());
        let queue = r.component("Queue").unwrap();
        assert!(queue.area_mm2 / r.total_area_mm2() > 0.9);
        assert!(queue.total_mw() / r.total_mw() > 0.9);
    }

    #[test]
    fn totals_match_table4_magnitudes() {
        // Table 4: JetStream totals ≈ 8926 mW, ≈ 199 mm²; queue ≈ 192 mm².
        let r = estimate(&HwConfig::jetstream_dap());
        let total_mw = r.total_mw();
        let total_area = r.total_area_mm2();
        assert!((8000.0..10000.0).contains(&total_mw), "power {total_mw}");
        assert!((180.0..220.0).contains(&total_area), "area {total_area}");
        let queue = r.component("Queue").unwrap();
        assert!((185.0..200.0).contains(&queue.area_mm2));
    }

    #[test]
    fn jetstream_overheads_are_small() {
        // Table 4: ~+3% area, ~+1% power over GraphPulse.
        let gp = estimate(&HwConfig::graphpulse());
        let js = estimate(&HwConfig::jetstream_dap());
        let area_overhead = js.total_area_mm2() / gp.total_area_mm2() - 1.0;
        let power_overhead = js.total_mw() / gp.total_mw() - 1.0;
        assert!((0.0..0.08).contains(&area_overhead), "area +{area_overhead:.3}");
        assert!((-0.02..0.05).contains(&power_overhead), "power +{power_overhead:.3}");
    }

    #[test]
    fn network_grows_with_event_width() {
        // Table 4: network static power +78%, area +84% for DAP events.
        let gp = estimate(&HwConfig::graphpulse());
        let js = estimate(&HwConfig::jetstream_dap());
        let gp_net = gp.component("Network").unwrap();
        let js_net = js.component("Network").unwrap();
        let static_growth = js_net.static_mw / gp_net.static_mw - 1.0;
        assert!((0.6..0.9).contains(&static_growth), "network static +{static_growth:.2}");
    }

    #[test]
    fn vap_between_graphpulse_and_dap() {
        let gp = estimate(&HwConfig::graphpulse());
        let vap = estimate(&HwConfig::jetstream_vap());
        let dap = estimate(&HwConfig::jetstream_dap());
        assert!(vap.total_area_mm2() > gp.total_area_mm2());
        assert!(dap.total_area_mm2() > vap.total_area_mm2());
    }

    #[test]
    fn energy_scales_with_runtime() {
        let r = estimate(&HwConfig::jetstream_dap());
        let short = r.energy_joules(1_000_000, 100_000, 1_000_000);
        let long = r.energy_joules(13_000_000, 1_300_000, 13_000_000);
        assert!(long > 12.0 * short && long < 14.0 * short);
    }
}
