//! In-memory spans recorded by the benchmark's own code around calls into
//! each layer's public functions, written out as JSON lines at exit.
//!
//! A span names the layer call it wraps, its start and end on one
//! monotonic clock, the span that caused it, and the batch it belongs to.
//! A layer's *self time* is its spans' duration minus what their direct
//! children cover, so the self times of a tree sum to its root. Spans
//! are recorded only in the traced run; the untraced run calls the same
//! layer functions with no recorder in between.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open: `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder; children refer to it as `parent`.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified call name, e.g. `core.apply`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Batch (or message) index the span belongs to.
    pub batch: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus their direct children's.
    pub self_ns: u64,
}

/// Collects spans on the calling thread.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    batch: u32,
}

impl SpanRecorder {
    /// An empty recorder whose clock starts now.
    pub fn start() -> Self {
        SpanRecorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), batch: 0 }
    }

    /// Tags spans opened from now on with batch index `batch`.
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = u32::try_from(batch).unwrap_or(u32::MAX);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.push(name, now, 0);
        self.open.push(u32::try_from(self.spans.len() - 1).unwrap_or(u32::MAX));
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> u64 {
        let now = self.now_ns();
        let Some(span) = self.open.pop().and_then(|id| self.spans.get_mut(id as usize)) else {
            return 0;
        };
        span.end_ns = now;
        span.duration_ns()
    }

    /// Appends a span with explicit times under the innermost open one.
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        let parent = self.open.last().copied();
        self.spans.push(Span { id, parent, name, start_ns, end_ns, batch: self.batch });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals and self times over `spans`.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(slot) = span.parent.and_then(|p| children_ns.get_mut(p as usize)) {
            *slot += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(children_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(covered);
    }
    out
}

/// `(Σ self time of every span below a root) / (Σ root durations)` over the
/// roots named `root`: how much of the traced interval the layer spans
/// account for. The self times of a subtree sum to its top span, so the
/// numerator is what the roots' direct children cover.
pub fn layer_sum_ratio(spans: &[Span], root: &str) -> Option<f64> {
    let is_root = |s: &Span| s.parent.is_none() && s.name == root;
    let under_root = |id: u32| spans.get(id as usize).is_some_and(is_root);
    let root_total: u64 = spans.iter().filter(|s| is_root(s)).map(Span::duration_ns).sum();
    let covered: u64 =
        spans.iter().filter(|s| s.parent.is_some_and(under_root)).map(Span::duration_ns).sum();
    (root_total > 0).then(|| covered as f64 / root_total as f64)
}

/// Writes one JSON object per span:
/// `{"id":..,"parent":..|null,"name":"..","start_ns":..,"end_ns":..,"batch":..}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or_else(|| String::from("null"), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"batch\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.batch
        );
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root[0,100] { a[10,60] { b[20,30], b[30,45] }, c[60,90] }
    fn tree() -> SpanRecorder {
        let mut r = SpanRecorder::start();
        r.set_batch(7);
        r.push("root", 0, 100);
        r.open.push(0);
        r.push("a", 10, 60);
        r.open.push(1);
        r.push("b", 20, 30);
        r.push("b", 30, 45);
        r.open.pop();
        r.push("c", 60, 90);
        r.open.pop();
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let r = tree();
        let t = layer_times(r.spans());
        assert_eq!(t["root"], LayerTime { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["a"], LayerTime { count: 1, total_ns: 50, self_ns: 25 });
        assert_eq!(t["b"], LayerTime { count: 2, total_ns: 25, self_ns: 25 });
        assert_eq!(t["c"], LayerTime { count: 1, total_ns: 30, self_ns: 30 });
        // Self times of a tree sum to its root.
        assert_eq!(t.values().map(|l| l.self_ns).sum::<u64>(), 100);
        // 80 of the root's 100 ns lie inside layer spans.
        assert_eq!(layer_sum_ratio(r.spans(), "root"), Some(0.8));
        assert_eq!(layer_sum_ratio(r.spans(), "a"), None, "`a` is not a root");
        assert_eq!(layer_sum_ratio(&[], "root"), None);
    }

    #[test]
    fn enter_exit_nest_and_tag_batches() {
        let mut r = SpanRecorder::start();
        r.set_batch(3);
        r.enter("outer");
        r.enter("inner");
        assert!(r.exit() <= r.exit(), "inner closes first and is the shorter");
        assert_eq!(r.exit(), 0, "nothing left to close");
        let s = r.spans();
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s.iter().all(|x| x.batch == 3));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let dir = std::env::temp_dir().join(format!("jsb-spans-{}", std::process::id()));
        let path = dir.join("t.spans.jsonl");
        write_jsonl(&path, tree().spans()).expect("temp dir is writable");
        let text = std::fs::read_to_string(&path).expect("just written");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(text.lines().count(), 5);
        assert_eq!(
            text.lines().next(),
            Some("{\"id\":0,\"parent\":null,\"name\":\"root\",\"start_ns\":0,\"end_ns\":100,\"batch\":7}")
        );
        assert!(text.contains("\"parent\":1,\"name\":\"b\""));
    }
}
