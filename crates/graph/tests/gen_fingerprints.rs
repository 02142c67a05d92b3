//! Pins every generator's output bit for bit.
//!
//! Each fingerprint is FNV-1a over the vertex count, `arena_slots()` and
//! every `(source, target, weight bits)` of `iter_edges()`, so a change to
//! how a graph is built — the order of RNG draws, which weight a duplicate
//! pair keeps, the slack a row is given — shows up here even when the
//! graph still looks plausible. The values were captured from the
//! edge-by-edge generators; any faster construction must reproduce them.

use jetstream_graph::gen::{self, DatasetProfile, RmatParams, DEFAULT_SCALE};
use jetstream_graph::Csr;

/// FNV-1a (64-bit) of the graph's identity.
fn fingerprint(g: &Csr) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(g.num_vertices() as u64).to_le_bytes());
    eat(&(g.arena_slots() as u64).to_le_bytes());
    for (u, v, w) in g.iter_edges() {
        eat(&u.to_le_bytes());
        eat(&v.to_le_bytes());
        eat(&w.to_bits().to_le_bytes());
    }
    hash
}

fn check(name: &str, g: &Csr, edges: usize, expected: u64) {
    assert_eq!(g.validate(), Ok(()), "{name}");
    assert_eq!(
        (g.num_edges(), fingerprint(g)),
        (edges, expected),
        "{name}: the generated graph changed"
    );
}

#[test]
fn dataset_profiles_at_the_default_scale() {
    let expected = [
        (DatasetProfile::Wikipedia, 45_030, 0x1109_276d_22ee_cb35),
        (DatasetProfile::Facebook, 47_330, 0x4667_39f5_12d6_5449),
        (DatasetProfile::LiveJournal, 68_990, 0xd77c_042b_73d0_1d5c),
        (DatasetProfile::Uk2002, 298_000, 0x6dbb_55e3_6356_4862),
        (DatasetProfile::Twitter, 1_460_000, 0x76f1_0dc4_f0a5_cbe4),
    ];
    for (profile, edges, hash) in expected {
        check(profile.name(), &profile.generate(DEFAULT_SCALE), edges, hash);
    }
}

#[test]
fn small_generator_instances() {
    let rmat = RmatParams::default();
    check("rmat 256x1024", &gen::rmat(256, 1024, rmat, 7), 1024, 0x462b_ede4_b1b1_1f9b);
    check("rmat 1000x6000", &gen::rmat(1000, 6000, rmat, 2), 6000, 0x3872_7ae2_7405_eb76);
    check("layered 50x4", &gen::layered_narrow(50, 4, 600, 11), 600, 0x70c4_5b4a_6d56_6e81);
    check("erdos-renyi 300x900", &gen::erdos_renyi(300, 900, 5), 900, 0xb343_9916_9f68_034e);
    check("small-world 100/3", &gen::small_world(100, 3, 0.1, 11), 300, 0x3338_7d6d_7102_0776);
    check("small-world 64/6", &gen::small_world(64, 6, 0.5, 3), 370, 0x9ce1_86dc_9b8b_c0b7);
}

/// Graphs too small to hold `num_edges`: the attempts budget runs out
/// before the edge target is met, so the result is whatever the last
/// attempt left.
#[test]
fn instances_whose_attempts_run_out() {
    let rmat = gen::rmat(8, 60, RmatParams::default(), 4);
    let layered = gen::layered_narrow(4, 2, 100, 9);
    let uniform = gen::erdos_renyi(8, 60, 6);
    for (g, wanted) in [(&rmat, 60), (&layered, 100), (&uniform, 60)] {
        assert!(g.num_edges() < wanted, "8 vertices hold at most 56 edges");
    }
    check("rmat 8x60", &rmat, 49, 0x635e_0211_7394_31ef);
    check("layered 4x2", &layered, 43, 0x07ec_bc9f_2aab_dadd);
    check("erdos-renyi 8x60", &uniform, 56, 0x4f52_f169_f1fd_1c5f);
}

/// The `pr_lj_seq` input.
#[test]
fn livejournal_at_scale_100() {
    check(
        "LiveJournal/100",
        &DatasetProfile::LiveJournal.generate(100),
        689_900,
        0x2b1e_5a21_9da2_6ba9,
    );
}
