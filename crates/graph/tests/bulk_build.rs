//! The bulk builder against the edge-by-edge reference.
//!
//! `Csr::from_edges` buckets, sorts and cuts a whole list at once; the
//! reference inserts the same list one edge at a time, ignoring every
//! refusal, and compacts. On noisy lists — duplicate pairs with different
//! weights, self-loops, out-of-range endpoints, empty rows, a hub row —
//! the two must agree in edges, weight bits and `arena_slots()`, and so
//! must `transpose` and the reference built from the swapped list.

use jetstream_graph::rng::DetRng;
use jetstream_graph::{vid, Csr, VertexId, Weight};
use jetstream_testkit::run_cases;

type Edge = (VertexId, VertexId, Weight);

fn reference(num_vertices: usize, edges: &[Edge]) -> Csr {
    let mut g = Csr::new(num_vertices);
    for &(u, v, w) in edges {
        // Refusals are the point: the builder must skip the same edges.
        let _ = g.insert_edge(u, v, w);
    }
    g.compact();
    g
}

fn assert_identical(built: &Csr, expected: &Csr, what: &str) {
    let bits = |g: &Csr| g.iter_edges().map(|(u, v, w)| (u, v, w.to_bits())).collect::<Vec<_>>();
    assert_eq!(built.num_vertices(), expected.num_vertices(), "{what}: vertex count");
    assert_eq!(bits(built), bits(expected), "{what}: edges and weights");
    assert_eq!(built.arena_slots(), expected.arena_slots(), "{what}: arena slots");
    assert_eq!(built.validate(), Ok(()), "{what}");
}

fn check(num_vertices: usize, edges: &[Edge]) {
    let built = Csr::from_edges(num_vertices, edges);
    assert_identical(&built, &reference(num_vertices, edges), "from_edges");
    let swapped: Vec<Edge> = edges.iter().map(|&(u, v, w)| (v, u, w)).collect();
    assert_identical(&built.transpose(), &reference(num_vertices, &swapped), "transpose");
}

fn vertex(rng: &mut DetRng, bound: usize) -> VertexId {
    vid(rng.gen_index(bound))
}

/// A noisy list over `n` vertices whose sources all lie in the lower
/// half, so the upper half's rows stay empty; with `hub`, one source gets
/// at least a thousand entries, duplicates among them.
fn noisy(rng: &mut DetRng, n: usize, hub: bool) -> Vec<Edge> {
    let mut edges: Vec<Edge> = Vec::new();
    let len = rng.gen_index(300) + if hub { 1800 } else { 0 };
    let hub_vertex = vertex(rng, n / 2);
    for _ in 0..len {
        let weight = rng.gen_range_inclusive(1, 64) as Weight;
        let roll = rng.gen_index(100);
        let edge = if roll < 15 && !edges.is_empty() {
            // The same pair again, under a different weight.
            let (u, v, w) = edges[rng.gen_index(edges.len())];
            (u, v, w + weight)
        } else if roll < 20 {
            let u = vertex(rng, n / 2);
            (u, u, weight)
        } else if roll < 25 {
            let past = vid(n) + vertex(rng, 3);
            if rng.gen_bool(0.5) {
                (past, vertex(rng, n), weight)
            } else {
                (vertex(rng, n / 2), past, weight)
            }
        } else if hub && rng.gen_bool(0.8) {
            (hub_vertex, vertex(rng, n), weight)
        } else {
            (vertex(rng, n / 2), vertex(rng, n), weight)
        };
        edges.push(edge);
    }
    edges
}

#[test]
fn bulk_build_equals_edge_by_edge_insertion() {
    run_cases("bulk_build_equals_edge_by_edge_insertion", 200, |rng| {
        let n = 2 + rng.gen_index(60);
        let hub = rng.gen_bool(0.25);
        check(n, &noisy(rng, n, hub));
    });
}

#[test]
fn a_hub_row_of_a_thousand_entries() {
    let mut rng = DetRng::seed_from_u64(7);
    let edges = noisy(&mut rng, 1500, true);
    let entries = |v: VertexId| edges.iter().filter(|e| e.0 == v).count();
    assert!((0..750).any(|v| entries(v) >= 1000), "one source carries the hub");
    check(1500, &edges);
}

#[test]
fn empty_lists_and_lists_with_nothing_to_keep() {
    check(0, &[]);
    check(5, &[]);
    check(3, &[(1, 1, 1.0), (0, 3, 1.0), (4, 0, 1.0)]);
    assert_eq!(Csr::from_edges(3, &[(1, 1, 1.0)]).arena_slots(), 0);
}
