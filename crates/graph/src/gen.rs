//! Deterministic synthetic workload generation.
//!
//! The paper evaluates on five real-world graphs (Table 2): Wikipedia,
//! Facebook, LiveJournal, UK-2002, and Twitter. Those datasets are not
//! redistributable here, so this module provides deterministic generators
//! whose outputs mimic the two structural regimes the paper distinguishes:
//!
//! * *"large, highly connected networks"* (Facebook, LiveJournal, Twitter) —
//!   produced by an R-MAT/Kronecker generator with power-law degree skew;
//! * *"narrow graphs with long paths"* (Wikipedia page links, UK-2002 web
//!   crawl) — produced by a layered generator with small layer width and
//!   mostly-forward edges, giving long diameters.
//!
//! [`DatasetProfile`] captures each paper dataset with its node/edge counts;
//! [`DatasetProfile::generate`] emits a scaled-down instance (default 1000×
//! smaller) with the same shape, and batch sizes are scaled by the same
//! factor (see [`DatasetProfile::scaled_batch`]) so batch-to-graph ratios
//! match the paper's.

use crate::rng::DetRng;
use crate::{vid, Csr, UpdateBatch, VertexId, Weight};

/// Default scale divisor applied to the paper's dataset sizes.
pub const DEFAULT_SCALE: u32 = 1000;

/// Parameters of an R-MAT (recursive matrix) generator.
///
/// Standard Graph500-style quadrant probabilities. `a + b + c + d` must be
/// `1.0` (checked with a small tolerance at generation time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Top-left quadrant probability (hub ↔ hub).
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability.
    pub d: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        // Graph500 reference parameters: strong power-law skew.
        RmatParams { a: 0.57, b: 0.19, c: 0.19, d: 0.05 }
    }
}

/// Generates a simple directed graph with R-MAT structure.
///
/// Duplicate edges and self-loops produced by the recursive process are
/// skipped and redrawn, so the result has fewer than `num_edges` edges
/// only when the `num_edges * 20` attempts run out first.
///
/// # Panics
///
/// Panics if the quadrant probabilities do not sum to ~1.
pub fn rmat(num_vertices: usize, num_edges: usize, params: RmatParams, seed: u64) -> Csr {
    let sum = params.a + params.b + params.c + params.d;
    assert!((sum - 1.0).abs() < 1e-9, "rmat probabilities must sum to 1, got {sum}");
    let mut rng = DetRng::seed_from_u64(seed);
    let scale = (num_vertices as f64).log2().ceil() as u32; // cast-ok: log2 of a usize vertex count is < 64
    let (ab, abc) = (params.a + params.b, params.a + params.b + params.c);
    let edges = candidates(num_edges, &mut rng, Vec::new(), |rng| {
        // One draw per level picks the quadrant q = 2·row bit + column
        // bit: a, b, c and d split [0, 1) in that order.
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r = rng.gen_f64();
            let q = usize::from(r >= params.a) + usize::from(r >= ab) + usize::from(r >= abc);
            u = u << 1 | q >> 1;
            v = v << 1 | q & 1;
        }
        (u < num_vertices && v < num_vertices && u != v).then(|| (vid(u), vid(v)))
    });
    Csr::from_edges(num_vertices, &edges)
}

/// Generates a "narrow graph with long paths": `layers` layers of
/// `width` vertices with mostly-forward edges and a few skip edges,
/// mimicking the long-diameter structure of web crawls (UK-2002) and
/// page-link graphs (Wikipedia).
pub fn layered_narrow(layers: usize, width: usize, num_edges: usize, seed: u64) -> Csr {
    assert!(layers >= 2, "need at least two layers");
    assert!(width >= 1, "need at least one vertex per layer");
    let n = layers * width;
    let mut rng = DetRng::seed_from_u64(seed);
    // Backbone: connect each layer to the next so long paths exist.
    let mut backbone = Vec::with_capacity(n);
    for l in 0..layers - 1 {
        for i in 0..width {
            let u = vid(l * width + i);
            let v = vid((l + 1) * width + rng.gen_index(width));
            if u != v {
                backbone.push((u, v, random_weight(&mut rng)));
            }
        }
    }
    // Fill the remainder with short-range forward (and a few backward)
    // edges. Targets within a layer are skewed quadratically toward low
    // indices: like real page-link graphs, a few pages absorb most links
    // while many keep an in-degree of one or two (which also gives the
    // deletion-recovery dependency trees realistic depth).
    let edges = candidates(num_edges, &mut rng, backbone, |rng| {
        let l = rng.gen_index(layers);
        let hop: i64 = if rng.gen_bool(0.9) {
            rng.gen_range_inclusive(1, 3) as i64
        } else {
            -(rng.gen_range_inclusive(1, 2) as i64)
        };
        let l2 = usize::try_from(l as i64 + hop).ok().filter(|&l2| l2 < layers)?;
        let u = vid(l * width + rng.gen_index(width));
        let skew = rng.gen_f64();
        let target_idx = ((skew * skew) * width as f64) as usize; // cast-ok: skew^2 is in [0, 1), so the product is < width
        let v = vid(l2 * width + target_idx.min(width - 1));
        (u != v).then_some((u, v))
    });
    Csr::from_edges(n, &edges)
}

/// Generates a Watts–Strogatz style small-world directed graph: a ring
/// lattice where each vertex points to its next `k` clockwise neighbors,
/// with each edge rewired to a uniformly random target with probability
/// `rewire_p`. Low `rewire_p` keeps the high-diameter lattice structure;
/// the rewired shortcuts collapse path lengths, which makes delete
/// recovery touch long dependence chains — a worst-ish case for the
/// sharded engine's cross-shard exchange (ring neighbors mostly stay
/// within a contiguous shard, shortcuts almost never do).
///
/// Duplicate edges and self-loops produced by rewiring are skipped, so the
/// result can have slightly fewer than `num_vertices * k` edges.
pub fn small_world(num_vertices: usize, k: usize, rewire_p: f64, seed: u64) -> Csr {
    let mut rng = DetRng::seed_from_u64(seed);
    if num_vertices < 2 {
        return Csr::new(num_vertices);
    }
    let mut edges = Vec::with_capacity(num_vertices * k);
    for u in 0..num_vertices {
        for step in 1..=k {
            let mut v = (u + step) % num_vertices;
            // Compare against a 53-bit uniform sample in [0, 1).
            let roll = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if roll < rewire_p {
                v = rng.gen_index(num_vertices);
            }
            if v != u {
                edges.push((vid(u), vid(v), random_weight(&mut rng)));
            }
        }
    }
    Csr::from_edges(num_vertices, &edges)
}

/// Generates a uniform Erdős–Rényi style random directed graph.
pub fn erdos_renyi(num_vertices: usize, num_edges: usize, seed: u64) -> Csr {
    let mut rng = DetRng::seed_from_u64(seed);
    let edges = candidates(num_edges, &mut rng, Vec::new(), |rng| {
        let u = vid(rng.gen_index(num_vertices));
        let v = vid(rng.gen_index(num_vertices));
        (u != v).then_some((u, v))
    });
    Csr::from_edges(num_vertices, &edges)
}

/// The generators' attempts loop, drawn in bulk: until `num_edges`
/// distinct pairs are among `edges` or `num_edges * 20` attempts are
/// spent, an attempt `draw`s a candidate — `None` for one it rejects — and
/// gives it a random weight. Returns every candidate, for
/// [`Csr::from_edges`] to build the graph that inserting them one by one
/// would leave.
///
/// No attempt adds more than one distinct pair, so a chunk of
/// `num_edges - distinct` attempts can never overshoot, and drawing a
/// whole chunk before counting makes exactly the draws the edge-at-a-time
/// loop makes. Each chunk's pairs are sorted and merged into the sorted
/// pairs accepted so far, which counts the new ones.
fn candidates(
    num_edges: usize,
    rng: &mut DetRng,
    mut edges: Vec<(VertexId, VertexId, Weight)>,
    mut draw: impl FnMut(&mut DetRng) -> Option<(VertexId, VertexId)>,
) -> Vec<(VertexId, VertexId, Weight)> {
    let pair = |&(u, v, _): &(VertexId, VertexId, Weight)| u64::from(u) << 32 | u64::from(v);
    let mut seen: Vec<u64> = edges.iter().map(pair).collect();
    seen.sort_unstable();
    seen.dedup();
    let max_attempts = num_edges * 20;
    let mut attempts = 0;
    let (mut fresh, mut merged) = (Vec::new(), Vec::new());
    while seen.len() < num_edges && attempts < max_attempts {
        let chunk = (num_edges - seen.len()).min(max_attempts - attempts);
        attempts += chunk;
        let drawn = edges.len();
        edges.reserve_exact(chunk);
        for _ in 0..chunk {
            if let Some((u, v)) = draw(rng) {
                edges.push((u, v, random_weight(rng)));
            }
        }
        fresh.clear();
        fresh.extend(edges[drawn..].iter().map(pair));
        fresh.sort_unstable();
        fresh.dedup();
        merged.clear();
        let mut old = seen.iter().copied().peekable();
        for &p in &fresh {
            while let Some(q) = old.next_if(|&q| q < p) {
                merged.push(q);
            }
            if old.peek() != Some(&p) {
                merged.push(p);
            }
        }
        merged.extend(old);
        std::mem::swap(&mut seen, &mut merged);
    }
    edges
}

fn random_weight(rng: &mut DetRng) -> Weight {
    // Integer weights 1..=64 as f64: wide spread of distinct values so
    // value-aware propagation (VAP, §5.1) has distinct states to compare,
    // while staying exactly representable.
    rng.gen_range_inclusive(1, 64) as Weight
}

/// The five input graphs of Table 2, reproduced as scaled synthetic profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DatasetProfile {
    /// Wikipedia page links (WK): 3.56 M nodes, 45.03 M edges; narrow/long.
    Wikipedia,
    /// Facebook social network (FB): 3.01 M nodes, 47.33 M edges; connected.
    Facebook,
    /// LiveJournal social network (LJ): 4.84 M nodes, 68.99 M edges.
    LiveJournal,
    /// UK-2002 web crawl (UK): 18.5 M nodes, 298 M edges; narrow/long.
    Uk2002,
    /// Twitter follower graph (TW): 41.65 M nodes, 1.46 B edges.
    Twitter,
}

impl DatasetProfile {
    /// All five profiles in the paper's Table 2 order.
    pub const ALL: [DatasetProfile; 5] = [
        DatasetProfile::Wikipedia,
        DatasetProfile::Facebook,
        DatasetProfile::LiveJournal,
        DatasetProfile::Uk2002,
        DatasetProfile::Twitter,
    ];

    /// Short tag used in the paper's tables ("WK", "FB", ...).
    pub fn tag(self) -> &'static str {
        match self {
            DatasetProfile::Wikipedia => "WK",
            DatasetProfile::Facebook => "FB",
            DatasetProfile::LiveJournal => "LJ",
            DatasetProfile::Uk2002 => "UK",
            DatasetProfile::Twitter => "TW",
        }
    }

    /// Full dataset name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetProfile::Wikipedia => "Wikipedia",
            DatasetProfile::Facebook => "Facebook",
            DatasetProfile::LiveJournal => "LiveJournal",
            DatasetProfile::Uk2002 => "UK-2002",
            DatasetProfile::Twitter => "Twitter",
        }
    }

    /// Node count of the real dataset (paper's Table 2).
    pub fn paper_nodes(self) -> u64 {
        match self {
            DatasetProfile::Wikipedia => 3_560_000,
            DatasetProfile::Facebook => 3_010_000,
            DatasetProfile::LiveJournal => 4_840_000,
            DatasetProfile::Uk2002 => 18_500_000,
            DatasetProfile::Twitter => 41_650_000,
        }
    }

    /// Edge count of the real dataset (paper's Table 2).
    pub fn paper_edges(self) -> u64 {
        match self {
            DatasetProfile::Wikipedia => 45_030_000,
            DatasetProfile::Facebook => 47_330_000,
            DatasetProfile::LiveJournal => 68_990_000,
            DatasetProfile::Uk2002 => 298_000_000,
            DatasetProfile::Twitter => 1_460_000_000,
        }
    }

    /// True for the "narrow graphs with long paths" regime (WK, UK).
    pub fn is_narrow(self) -> bool {
        matches!(self, DatasetProfile::Wikipedia | DatasetProfile::Uk2002)
    }

    /// Why [`generate`](Self::generate) cannot build this profile at
    /// `scale`: zero, or large enough to leave fewer than 16 vertices. The
    /// binaries call this on a `--scale` argument before generating.
    ///
    /// # Errors
    ///
    /// One line naming the bound `scale` is outside of.
    pub fn check_scale(self, scale: u32) -> Result<(), String> {
        if scale == 0 {
            return Err(String::from("scale must be positive"));
        }
        let largest = self.paper_nodes() / 16;
        if u64::from(scale) > largest {
            return Err(format!(
                "scale {scale} leaves too few vertices ({} allows at most {largest})",
                self.name()
            ));
        }
        Ok(())
    }

    /// Generates the scaled synthetic stand-in for this dataset.
    ///
    /// `scale` divides the paper's node and edge counts (use
    /// [`DEFAULT_SCALE`] = 1000 to match the benchmark harness). Generation
    /// is deterministic for a given `(profile, scale)`.
    ///
    /// # Panics
    ///
    /// Panics on a `scale` that [`check_scale`](Self::check_scale) refuses.
    pub fn generate(self, scale: u32) -> Csr {
        let checked = self.check_scale(scale);
        assert!(checked.is_ok(), "{checked:?}");
        let nodes = (self.paper_nodes() / scale as u64) as usize; // cast-ok: paper-scale counts divided down by `scale` fit usize on our targets
        let edges = (self.paper_edges() / scale as u64) as usize; // cast-ok: paper-scale counts divided down by `scale` fit usize on our targets
        let seed = 0x4a45_5453 + self as u64; // deterministic per profile
        if self.is_narrow() {
            // Layered structure with a fixed depth of ~32: web crawls and
            // page-link graphs have diameters in the tens (versus ~6 for
            // social networks), which is what "narrow graphs with long
            // paths" contrasts against — not thousands of hops.
            let layers = 32usize;
            let width = (nodes / layers).max(4);
            layered_narrow(layers, width, edges, seed)
        } else {
            rmat(nodes, edges, RmatParams::default(), seed)
        }
    }

    /// Scales a paper batch size (e.g. 100 000) by the same divisor as the
    /// graph so the batch-to-graph ratio matches the paper's experiments.
    ///
    /// At least one update is always requested.
    pub fn scaled_batch(self, paper_batch: u64, scale: u32) -> usize {
        ((paper_batch / scale as u64) as usize).max(1) // cast-ok: paper-scale batch size divided down by `scale` fits usize
    }
}

/// A continuous source of structure-respecting streaming updates.
///
/// Streaming-graph evaluations (KickStarter, GraphBolt, and this paper)
/// construct update streams from the dataset itself: a fraction of the real
/// edges is *held out* of the base graph and streamed back as insertions,
/// while deletions sample the currently present edges (and return to the
/// pool, so the stream never runs dry). This keeps inserted edges
/// structurally plausible — a random endpoint pair in a high-diameter web
/// graph would create shortcuts that no real update stream contains.
///
/// # Example
///
/// ```
/// use jetstream_graph::gen::{self, EdgeStream};
///
/// let full = gen::erdos_renyi(100, 500, 1);
/// let mut stream = EdgeStream::new(&full, 0.1, 42);
/// let base_edges = stream.graph().num_edges();
/// let batch = stream.next_batch(20, 0.7);
/// assert_eq!(batch.len(), 20);
/// assert_eq!(stream.graph().num_edges(), base_edges + 14 - 6);
/// ```
#[derive(Debug, Clone)]
pub struct EdgeStream {
    graph: Csr,
    pool: Vec<(VertexId, VertexId, Weight)>,
    rng: DetRng,
}

impl EdgeStream {
    /// Splits `full` into a base graph and an insertion pool holding
    /// `holdout_fraction` of the edges.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < holdout_fraction < 1`.
    pub fn new(full: &Csr, holdout_fraction: f64, seed: u64) -> Self {
        assert!(
            holdout_fraction > 0.0 && holdout_fraction < 1.0,
            "holdout fraction must be in (0, 1)"
        );
        let mut rng = DetRng::seed_from_u64(seed);
        let mut edges: Vec<(VertexId, VertexId, Weight)> = full.iter_edges().collect();
        // Fisher-Yates the tail into the holdout pool.
        let holdout = ((edges.len() as f64 * holdout_fraction) as usize).max(1); // cast-ok: holdout_fraction is in [0, 1], so the product is <= edges.len()
        let n = edges.len();
        for i in 0..holdout.min(n) {
            let j = rng.gen_range(i, n);
            edges.swap(i, j);
        }
        let pool: Vec<_> = edges[..holdout.min(n)].to_vec();
        let base: Vec<_> = edges[holdout.min(n)..].to_vec();
        EdgeStream { graph: Csr::from_edges(full.num_vertices(), &base), pool, rng }
    }

    /// The current base graph (already reflects every produced batch).
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Remaining pool of edges available for insertion.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Produces the next batch of `size` updates with the given insertion
    /// fraction, applies it to the internal base graph, and returns it.
    /// Deleted edges re-enter the pool. Requests are clamped to what the
    /// pool / current edge set can supply.
    #[allow(clippy::expect_used)] // invariant: the batch is built against self.graph
    pub fn next_batch(&mut self, size: usize, insertion_fraction: f64) -> UpdateBatch {
        assert!(
            (0.0..=1.0).contains(&insertion_fraction),
            "insertion fraction must be within [0, 1]"
        );
        let want_ins = (size as f64 * insertion_fraction).round() as usize; // cast-ok: insertion_fraction is in [0, 1], so the product is <= size
        let want_del = size - want_ins;
        let mut batch = UpdateBatch::new();

        // Insertions: draw without replacement from the pool.
        let ins = want_ins.min(self.pool.len());
        for _ in 0..ins {
            let idx = self.rng.gen_index(self.pool.len());
            let (u, v, w) = self.pool.swap_remove(idx);
            // The same pair may have been re-inserted by an earlier batch.
            if self.graph.has_edge(u, v) {
                continue;
            }
            batch.insert(u, v, w);
        }

        // Deletions: sample current edges, skipping edges this batch
        // inserts (insert+delete of the same pair in one batch is a weight
        // change, not what this stream models).
        let current: Vec<(VertexId, VertexId, Weight)> = self.graph.iter_edges().collect();
        let inserted: std::collections::BTreeSet<(VertexId, VertexId)> =
            batch.insertions().iter().map(|&(u, v, _)| (u, v)).collect();
        let mut chosen = std::collections::BTreeSet::new();
        let del = want_del.min(current.len());
        let mut attempts = 0;
        while chosen.len() < del && attempts < del * 50 + 100 {
            attempts += 1;
            let idx = self.rng.gen_index(current.len());
            let (u, v, w) = current[idx];
            if inserted.contains(&(u, v)) || !chosen.insert(idx) {
                continue;
            }
            batch.delete(u, v);
            self.pool.push((u, v, w));
        }

        self.graph
            .apply_batch(&batch)
            .expect("invariant: stream batches are valid by construction");
        batch
    }
}

/// Generates a random update batch against `g`.
///
/// `deletions` edges are sampled uniformly (without replacement) from the
/// existing edge set; `insertions` fresh edges (absent from `g`, no
/// self-loops, not duplicated within the batch) are sampled uniformly. The
/// paper's default composition is 70 % insertions / 30 % deletions at batch
/// size 100 K (§6.2); see [`batch_with_ratio`] for that form.
pub fn random_batch(g: &Csr, insertions: usize, deletions: usize, seed: u64) -> UpdateBatch {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut batch = UpdateBatch::new();

    // Sample deletions from the existing edges.
    let all_edges: Vec<(VertexId, VertexId)> = g.iter_edges().map(|(u, v, _)| (u, v)).collect();
    let del_count = deletions.min(all_edges.len());
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < del_count {
        let idx = rng.gen_index(all_edges.len());
        if chosen.insert(idx) {
            let (u, v) = all_edges[idx];
            batch.delete(u, v);
        }
    }

    // Sample insertions among absent edges.
    let n = g.num_vertices();
    let mut pending = std::collections::BTreeSet::new();
    let mut added = 0usize;
    let mut attempts = 0usize;
    let max_attempts = insertions * 100 + 1000;
    while added < insertions && attempts < max_attempts {
        attempts += 1;
        let u = vid(rng.gen_index(n));
        let v = vid(rng.gen_index(n));
        if u == v || g.has_edge(u, v) || !pending.insert((u, v)) {
            continue;
        }
        let w = random_weight(&mut rng);
        batch.insert(u, v, w);
        added += 1;
    }
    batch
}

/// Generates a batch of `size` updates with the given insertion fraction
/// (`0.0 ..= 1.0`); the paper's default is `0.7`.
pub fn batch_with_ratio(g: &Csr, size: usize, insertion_fraction: f64, seed: u64) -> UpdateBatch {
    assert!((0.0..=1.0).contains(&insertion_fraction), "insertion fraction must be within [0, 1]");
    let ins = (size as f64 * insertion_fraction).round() as usize; // cast-ok: insertion_fraction is in [0, 1], so the product is <= size
    let del = size - ins;
    random_batch(g, ins, del, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(256, 1024, RmatParams::default(), 7);
        let b = rmat(256, 1024, RmatParams::default(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn rmat_reaches_requested_size() {
        let g = rmat(512, 2048, RmatParams::default(), 1);
        assert!(g.num_edges() >= 1800, "got {}", g.num_edges());
        assert_eq!(g.num_vertices(), 512);
    }

    #[test]
    fn rmat_has_degree_skew() {
        let g = rmat(1024, 8192, RmatParams::default(), 3);
        let max_deg = (0..1024).map(|v| g.degree(v)).max().expect("range is non-empty");
        let avg = g.num_edges() as f64 / 1024.0;
        assert!(max_deg as f64 > 4.0 * avg, "expected power-law skew: max {max_deg} vs avg {avg}");
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_rejects_bad_probabilities() {
        let _ = rmat(16, 16, RmatParams { a: 0.5, b: 0.5, c: 0.5, d: 0.5 }, 0);
    }

    #[test]
    fn layered_narrow_has_long_paths() {
        let g = layered_narrow(50, 4, 600, 11);
        assert_eq!(g.num_vertices(), 200);
        // BFS from layer 0 should reach depth close to the layer count.
        let mut dist = vec![usize::MAX; 200];
        let mut queue = std::collections::VecDeque::new();
        for i in 0..4u32 {
            dist[i as usize] = 0;
            queue.push_back(i);
        }
        let mut max_d = 0;
        while let Some(u) = queue.pop_front() {
            for e in g.neighbors(u) {
                if dist[e.other as usize] == usize::MAX {
                    dist[e.other as usize] = dist[u as usize] + 1;
                    max_d = max_d.max(dist[e.other as usize]);
                    queue.push_back(e.other);
                }
            }
        }
        // Skip edges have hop <= 3, so BFS depth is at least ~layers/3.
        assert!(max_d >= 15, "expected long paths, max depth {max_d}");
    }

    #[test]
    fn erdos_renyi_size() {
        let g = erdos_renyi(300, 900, 5);
        assert!(g.num_edges() >= 850);
    }

    #[test]
    fn profiles_scale_counts() {
        let p = DatasetProfile::Wikipedia;
        assert_eq!(p.scaled_batch(100_000, 1000), 100);
        assert_eq!(p.scaled_batch(10, 1000), 1);
        let g = p.generate(4000);
        assert!(g.num_vertices() > 500);
        // 3.56 M nodes / 222 500 = 16, the smallest count `generate` takes.
        assert_eq!(p.check_scale(222_500), Ok(()));
        assert!(p.generate(222_500).num_vertices() >= 16);
        assert!(matches!(p.check_scale(222_501), Err(why) if why.contains("too few")));
        assert!(matches!(p.check_scale(0), Err(why) if why.contains("positive")));
    }

    #[test]
    fn all_profiles_have_unique_tags() {
        let tags: std::collections::BTreeSet<_> =
            DatasetProfile::ALL.iter().map(|p| p.tag()).collect();
        assert_eq!(tags.len(), 5);
    }

    #[test]
    fn edge_stream_holds_out_and_replays_real_edges() {
        let full = erdos_renyi(200, 1000, 4);
        let mut stream = EdgeStream::new(&full, 0.2, 5);
        let held = full.num_edges() - stream.graph().num_edges();
        assert!(held >= full.num_edges() / 6, "held {held}");
        let batch = stream.next_batch(40, 1.0);
        for &(u, v, w) in batch.insertions() {
            // Every inserted edge is a real edge of the full graph.
            assert_eq!(full.edge_weight(u, v), Some(w));
        }
    }

    #[test]
    fn edge_stream_batches_apply_cleanly_over_many_rounds() {
        let full = rmat(256, 2048, RmatParams::default(), 6);
        let mut stream = EdgeStream::new(&full, 0.1, 7);
        let mut shadow = stream.graph().clone();
        for _ in 0..10 {
            let batch = stream.next_batch(30, 0.7);
            shadow.apply_batch(&batch).expect("batch touches only in-range vertices");
            assert_eq!(&shadow, stream.graph());
        }
    }

    #[test]
    fn edge_stream_deletions_return_to_pool() {
        let full = erdos_renyi(100, 500, 8);
        let mut stream = EdgeStream::new(&full, 0.1, 9);
        let before = stream.pool_len();
        let batch = stream.next_batch(20, 0.0); // deletions only
        assert_eq!(stream.pool_len(), before + batch.deletions().len());
    }

    #[test]
    #[should_panic(expected = "holdout")]
    fn edge_stream_rejects_bad_fraction() {
        let full = erdos_renyi(10, 20, 1);
        let _ = EdgeStream::new(&full, 1.5, 0);
    }

    #[test]
    fn random_batch_respects_counts_and_validity() {
        let g = erdos_renyi(200, 800, 9);
        let batch = random_batch(&g, 30, 20, 13);
        assert_eq!(batch.insertions().len(), 30);
        assert_eq!(batch.deletions().len(), 20);
        for &(u, v, _) in batch.insertions() {
            assert!(!g.has_edge(u, v), "insertion {u}->{v} already present");
            assert_ne!(u, v);
        }
        for &(u, v) in batch.deletions() {
            assert!(g.has_edge(u, v), "deletion {u}->{v} not present");
        }
        // The batch must apply cleanly.
        let mut g2 = g.clone();
        g2.apply_batch(&batch).expect("batch touches only in-range vertices");
    }

    #[test]
    fn batch_with_ratio_splits() {
        let g = erdos_renyi(200, 800, 9);
        let batch = batch_with_ratio(&g, 100, 0.7, 21);
        assert_eq!(batch.insertions().len(), 70);
        assert_eq!(batch.deletions().len(), 30);
    }

    #[test]
    fn deletions_in_batch_are_distinct() {
        let g = erdos_renyi(100, 300, 2);
        let batch = random_batch(&g, 0, 50, 3);
        let set: std::collections::BTreeSet<_> = batch.deletions().iter().collect();
        assert_eq!(set.len(), batch.deletions().len());
    }

    #[test]
    fn small_world_is_deterministic_and_mostly_lattice() {
        let a = small_world(100, 3, 0.1, 11);
        let b = small_world(100, 3, 0.1, 11);
        assert_eq!(a, b);
        assert!(a.num_edges() > 250, "got {} edges", a.num_edges());
        // Most edges stay within the ring distance k.
        let local = a
            .iter_edges()
            .filter(|&(u, v, _)| {
                let d = (v as i64 - u as i64).rem_euclid(100);
                (1..=3).contains(&d)
            })
            .count();
        assert!(local * 10 >= a.num_edges() * 7, "only {local}/{} local", a.num_edges());
    }

    #[test]
    fn small_world_handles_degenerate_sizes() {
        assert_eq!(small_world(0, 2, 0.1, 1).num_edges(), 0);
        assert_eq!(small_world(1, 2, 0.1, 1).num_edges(), 0);
    }
}
