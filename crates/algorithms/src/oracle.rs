//! Sequential reference implementations ("oracles") of every workload.
//!
//! These are classical textbook algorithms with none of the event-driven
//! machinery; the engine, simulator, and baselines are all validated against
//! them. Selective results are exact; accumulative results are fixpoints of
//! Jacobi iteration and comparable within [`VALUE_TOLERANCE`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use jetstream_graph::{Csr, VertexId};

use crate::{Adsorption, Value};

/// Comparison tolerance for accumulative (floating-point fixpoint) values.
pub const VALUE_TOLERANCE: Value = 1e-6;

/// Dijkstra single-source shortest paths. Unreached vertices hold `+∞`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn sssp(graph: &Csr, root: VertexId) -> Vec<Value> {
    assert!((root as usize) < graph.num_vertices(), "root out of range");
    let n = graph.num_vertices();
    let mut dist = vec![Value::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem { priority: 0.0, vertex: root });
    while let Some(HeapItem { priority, vertex }) = heap.pop() {
        if priority > dist[vertex as usize] {
            continue;
        }
        for e in graph.neighbors(vertex) {
            let cand = priority + e.weight;
            if cand < dist[e.other as usize] {
                dist[e.other as usize] = cand;
                heap.push(HeapItem { priority: cand, vertex: e.other });
            }
        }
    }
    dist
}

/// Widest-path (maximum bottleneck) from `root`. Unreached vertices hold `0`;
/// the root holds `+∞`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn sswp(graph: &Csr, root: VertexId) -> Vec<Value> {
    assert!((root as usize) < graph.num_vertices(), "root out of range");
    let n = graph.num_vertices();
    let mut width = vec![0.0 as Value; n];
    width[root as usize] = Value::INFINITY;
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem { priority: -Value::INFINITY, vertex: root });
    while let Some(HeapItem { priority, vertex }) = heap.pop() {
        let w = -priority;
        if w < width[vertex as usize] {
            continue;
        }
        for e in graph.neighbors(vertex) {
            let cand = w.min(e.weight);
            if cand > width[e.other as usize] {
                width[e.other as usize] = cand;
                heap.push(HeapItem { priority: -cand, vertex: e.other });
            }
        }
    }
    width
}

/// BFS hop distance from `root`. Unreached vertices hold `+∞`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn bfs(graph: &Csr, root: VertexId) -> Vec<Value> {
    assert!((root as usize) < graph.num_vertices(), "root out of range");
    let n = graph.num_vertices();
    let mut dist = vec![Value::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut queue = VecDeque::new();
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        for e in graph.neighbors(u) {
            if dist[e.other as usize].is_infinite() {
                dist[e.other as usize] = dist[u as usize] + 1.0;
                queue.push_back(e.other);
            }
        }
    }
    dist
}

/// Minimum-label propagation fixpoint over *directed* edges: each vertex
/// holds `min(v, min{u : u reaches v})`, matching the event-driven CC
/// algorithm (labels flow along out-edges only).
pub fn connected_components(graph: &Csr) -> Vec<Value> {
    let n = graph.num_vertices();
    let mut label = vec![u32::MAX; n];
    // Visiting sources in ascending id order assigns each vertex the
    // smallest id that reaches it; every vertex is expanded at most once.
    for src in 0..n as VertexId {
        if label[src as usize] != u32::MAX {
            continue;
        }
        label[src as usize] = src;
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for e in graph.neighbors(u) {
                if label[e.other as usize] == u32::MAX {
                    label[e.other as usize] = src;
                    queue.push_back(e.other);
                }
            }
        }
    }
    label.into_iter().map(Value::from).collect()
}

/// PageRank fixpoint by Jacobi iteration of
/// `x_v = (1-d) + d·Σ_{u→v} x_u / deg(u)` (no dangling redistribution,
/// matching the delta-accumulative model).
pub fn pagerank(graph: &Csr, damping: Value) -> Vec<Value> {
    let n = graph.num_vertices();
    let teleport = 1.0 - damping;
    let inc = graph.transpose();
    let deg: Vec<usize> = (0..n as VertexId).map(|v| graph.degree(v)).collect();
    let mut x = vec![teleport; n];
    for _ in 0..10_000 {
        let mut next = vec![teleport; n];
        for (v, slot) in next.iter_mut().enumerate() {
            let mut acc = 0.0;
            for e in inc.neighbors(v as VertexId) {
                let u = e.other as usize;
                if deg[u] > 0 {
                    acc += x[u] / deg[u] as Value;
                }
            }
            *slot += damping * acc;
        }
        let diff: Value =
            next.iter().zip(x.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, Value::max);
        x = next;
        if diff < VALUE_TOLERANCE / 10.0 {
            break;
        }
    }
    x
}

/// Adsorption fixpoint by Jacobi iteration of
/// `x_v = inj(v) + c·Σ_{u→v} (w(u,v)/wsum(u))·x_u`.
pub fn adsorption(graph: &Csr, continuation: Value) -> Vec<Value> {
    let n = graph.num_vertices();
    let inc = graph.transpose();
    let wsum: Vec<Value> =
        (0..n as VertexId).map(|v| graph.neighbors(v).map(|e| e.weight).sum()).collect();
    let inj: Vec<Value> = (0..n as VertexId).map(Adsorption::injection).collect();
    let mut x = inj.clone();
    for _ in 0..10_000 {
        let mut next = inj.clone();
        for (v, slot) in next.iter_mut().enumerate() {
            let mut acc = 0.0;
            for e in inc.neighbors(v as VertexId) {
                let u = e.other as usize;
                if wsum[u] > 0.0 {
                    acc += x[u] * e.weight / wsum[u];
                }
            }
            *slot += continuation * acc;
        }
        let diff: Value =
            next.iter().zip(x.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, Value::max);
        x = next;
        if diff < VALUE_TOLERANCE / 10.0 {
            break;
        }
    }
    x
}

/// True when two value vectors agree within [`VALUE_TOLERANCE`]
/// (infinities must match exactly).
pub fn values_match(a: &[Value], b: &[Value]) -> bool {
    values_match_tol(a, b, VALUE_TOLERANCE)
}

/// True when two value vectors agree within a relative tolerance `tol`
/// (infinities must match exactly).
///
/// Selective algorithms produce bit-exact values; accumulative algorithms
/// converge within their propagation epsilon, so compare them with
/// [`accumulative_tolerance`] of that epsilon.
pub fn values_match_tol(a: &[Value], b: &[Value], tol: Value) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(&x, &y)| {
            if x.is_infinite() || y.is_infinite() {
                x == y
            } else {
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0)
            }
        })
}

/// Comparison tolerance appropriate for an accumulative run with the given
/// propagation `epsilon`: truncated sub-epsilon deltas accumulate across
/// in-edges and rounds, amplified by at most `1/(1-d)`; a few hundred of
/// them bound the end-to-end error well below `500·epsilon` in practice.
pub fn accumulative_tolerance(epsilon: Value) -> Value {
    (epsilon * 500.0).max(VALUE_TOLERANCE)
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem {
    priority: Value,
    vertex: VertexId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on priority (BinaryHeap is a max-heap).
        other
            .priority
            .partial_cmp(&self.priority)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.vertex.cmp(&other.vertex))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example graph of Fig. 2(a): A=0, B=1, C=2, D=3, E=4.
    fn figure2_graph() -> Csr {
        Csr::from_edges(
            5,
            &[
                (0, 1, 3.0), // A -> B
                (0, 2, 5.0), // A -> C
                (1, 2, 7.0), // B -> C
                (1, 3, 2.0), // B -> D (3 + 2 = 5? paper shows D=5 via B)
                (2, 3, 8.0), // C -> D
                (2, 4, 7.0), // C -> E
                (3, 4, 6.0), // D -> E? keep reachable
                (4, 0, 2.0), // E -> A back edge
            ],
        )
    }

    #[test]
    fn sssp_on_figure2() {
        let d = sssp(&figure2_graph(), 0);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 3.0);
        assert_eq!(d[2], 5.0);
        assert_eq!(d[3], 5.0);
        assert_eq!(d[4], 11.0);
    }

    #[test]
    fn sssp_unreachable_is_infinite() {
        let g = Csr::from_edges(3, &[(0, 1, 1.0)]);
        let d = sssp(&g, 0);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn sswp_bottleneck() {
        // 0 -> 1 -> 2 with widths 5 then 3: widest path to 2 is 3.
        // direct 0 -> 2 width 2 loses.
        let g = Csr::from_edges(3, &[(0, 1, 5.0), (1, 2, 3.0), (0, 2, 2.0)]);
        let w = sswp(&g, 0);
        assert!(w[0].is_infinite());
        assert_eq!(w[1], 5.0);
        assert_eq!(w[2], 3.0);
    }

    #[test]
    fn bfs_levels() {
        let g = Csr::from_edges(4, &[(0, 1, 9.0), (1, 2, 9.0), (0, 2, 9.0), (2, 3, 9.0)]);
        let d = bfs(&g, 0);
        assert_eq!(d, vec![0.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn cc_labels_follow_reachability() {
        // 0 -> 1, 2 -> 1: vertex 1 gets label 0; vertex 2 keeps its own.
        let g = Csr::from_edges(3, &[(0, 1, 1.0), (2, 1, 1.0)]);
        let l = connected_components(&g);
        assert_eq!(l, vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn cc_cycle_shares_min_label() {
        let g = Csr::from_edges(3, &[(1, 2, 1.0), (2, 1, 1.0), (0, 1, 1.0)]);
        let l = connected_components(&g);
        assert_eq!(l, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn pagerank_sums_mass_on_chain() {
        // 0 -> 1: x0 = 0.15, x1 = 0.15 + 0.85·0.15.
        let g = Csr::from_edges(2, &[(0, 1, 1.0)]);
        let x = pagerank(&g, 0.85);
        assert!((x[0] - 0.15).abs() < 1e-9);
        assert!((x[1] - (0.15 + 0.85 * 0.15)).abs() < 1e-9);
    }

    #[test]
    fn pagerank_cycle_converges() {
        let g = Csr::from_edges(2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let x = pagerank(&g, 0.85);
        // Symmetric: x = 0.15 + 0.85 x  =>  x = 1.
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn adsorption_weight_share() {
        // 0 splits mass to 1 (w=3) and 2 (w=1).
        let g = Csr::from_edges(3, &[(0, 1, 3.0), (0, 2, 1.0)]);
        let x = adsorption(&g, 0.8);
        let i0 = Adsorption::injection(0);
        let i1 = Adsorption::injection(1);
        let i2 = Adsorption::injection(2);
        assert!((x[0] - i0).abs() < 1e-9);
        assert!((x[1] - (i1 + 0.8 * 0.75 * i0)).abs() < 1e-9);
        assert!((x[2] - (i2 + 0.8 * 0.25 * i0)).abs() < 1e-9);
    }

    #[test]
    fn values_match_tolerates_small_error() {
        assert!(values_match(&[1.0, 2.0], &[1.0 + 1e-9, 2.0 - 1e-9]));
        assert!(!values_match(&[1.0], &[1.1]));
        assert!(values_match(&[Value::INFINITY], &[Value::INFINITY]));
        assert!(!values_match(&[Value::INFINITY], &[1.0]));
        assert!(!values_match(&[1.0, 2.0], &[1.0]));
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn sssp_bad_root_panics() {
        let _ = sssp(&Csr::new(2), 9);
    }
}
