//! Property-based tests on the timing substrate: conservation and
//! monotonicity laws the DRAM model must satisfy for any access pattern.

use jetstream_sim::dram::Dram;
use jetstream_sim::{SimConfig, LINE_BYTES};
use jetstream_testkit::{run_cases, DetRng};

fn arb_addrs(rng: &mut DetRng, max_len: usize, bits: u32) -> Vec<u64> {
    let n = rng.gen_range(1, max_len);
    (0..n).map(|_| rng.gen_range(0, 1usize << bits) as u64).collect()
}

/// Every access is counted once, bytes move in whole lines, and row
/// hits never exceed total accesses.
#[test]
fn dram_accounting_is_conserved() {
    run_cases("dram_accounting_is_conserved", 64, |rng| {
        let addrs = arb_addrs(rng, 200, 24);
        let write_mask: Vec<bool> = (0..addrs.len()).map(|_| rng.gen_bool(0.5)).collect();
        let mut dram = Dram::new(&SimConfig::graphpulse());
        let mut t = 0;
        for (i, &addr) in addrs.iter().enumerate() {
            let done = dram.access(addr & !(LINE_BYTES - 1), t, write_mask[i]);
            assert!(done > t, "completion must be after issue");
            t = done.saturating_sub(10); // overlapping issue stream
        }
        let stats = dram.stats();
        assert_eq!(stats.reads + stats.writes, addrs.len() as u64);
        assert_eq!(stats.bytes_transferred, addrs.len() as u64 * LINE_BYTES);
        assert!(stats.row_hits <= stats.reads + stats.writes);
    });
}

/// Completion times never precede the request time, and the channel
/// drain time bounds every completion.
#[test]
fn dram_time_is_monotone() {
    run_cases("dram_time_is_monotone", 64, |rng| {
        let addrs = arb_addrs(rng, 100, 20);
        let mut dram = Dram::new(&SimConfig::graphpulse());
        let mut last_done = 0;
        for (i, &addr) in addrs.iter().enumerate() {
            let at = i as u64 * 2;
            let done = dram.access(addr & !(LINE_BYTES - 1), at, false);
            assert!(done >= at);
            last_done = last_done.max(done);
        }
        assert!(dram.drain_cycle() >= last_done.saturating_sub(64));
    });
}

/// Sequential streams are at least as fast as random ones of the same
/// length (row-buffer locality can only help).
#[test]
fn dram_sequential_not_slower_than_random() {
    run_cases("dram_sequential_not_slower_than_random", 64, |rng| {
        let seed_addrs: Vec<u64> =
            (0..rng.gen_range(16, 64)).map(|_| rng.gen_range(0, 1 << 24) as u64).collect();
        let n = seed_addrs.len() as u64;
        let mut seq = Dram::new(&SimConfig::graphpulse());
        let mut t_seq = 0;
        for i in 0..n {
            t_seq = t_seq.max(seq.access(i * LINE_BYTES, 0, false));
        }
        let mut rnd = Dram::new(&SimConfig::graphpulse());
        let mut t_rnd = 0;
        for &a in &seed_addrs {
            t_rnd = t_rnd.max(rnd.access(a & !(LINE_BYTES - 1), 0, false));
        }
        assert!(
            seq.stats().row_hits >= rnd.stats().row_hits || t_seq <= t_rnd,
            "sequential ({t_seq}) should exploit at least as much locality as random ({t_rnd})"
        );
    });
}
