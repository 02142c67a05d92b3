//! Edge-list file I/O.
//!
//! The formats real streaming-graph systems consume:
//!
//! * **Graph files** — whitespace-separated edge lists, one `source target
//!   [weight]` triple per line; `#` and `%` prefix comments (SNAP and
//!   Matrix-Market-adjacent conventions). Missing weights default to `1`.
//! * **Update files** — streaming batches, one update per line: `a source
//!   target weight` adds an edge, `d source target` deletes one; blank
//!   lines separate batches.
//!
//! Everything reads from generic [`BufRead`]/[`Write`] endpoints, so files,
//! stdin, and in-memory buffers all work; pass `&mut reader` if you need
//! the endpoint back.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use crate::update::valid_weight;
use crate::{Csr, GraphError, UpdateBatch, VertexId, Weight};

/// Errors produced while parsing graph or update files.
#[derive(Debug)]
#[non_exhaustive]
pub enum ParseError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Byte offset of the start of the offending line within the
        /// input — what a text editor's "go to byte" or `dd`/`xxd` can
        /// seek to directly, complementing the line number for inputs
        /// with very long lines.
        byte: u64,
        /// What went wrong.
        message: String,
    },
    /// The parsed edges violate simple-graph constraints.
    Graph(GraphError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "read failed: {e}"),
            ParseError::Syntax { line, byte, message } => {
                write!(f, "parse error on line {line} (byte {byte}): {message}")
            }
            ParseError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            ParseError::Graph(e) => Some(e),
            ParseError::Syntax { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<GraphError> for ParseError {
    fn from(e: GraphError) -> Self {
        ParseError::Graph(e)
    }
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.is_empty() || t.starts_with('#') || t.starts_with('%')
}

/// Position of the line being parsed: 1-based line number plus the byte
/// offset of the line's first byte within the input.
#[derive(Debug, Clone, Copy)]
struct Loc {
    line: usize,
    byte: u64,
}

impl Loc {
    fn syntax(self, message: impl Into<String>) -> ParseError {
        ParseError::Syntax { line: self.line, byte: self.byte, message: message.into() }
    }
}

/// Drives `body` over each line of `reader`, tracking line numbers and byte
/// offsets (including the line terminator bytes `lines()` would hide).
fn for_each_line<R: BufRead>(
    mut reader: R,
    mut body: impl FnMut(&str, Loc) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let mut buf = String::new();
    let mut line = 0usize;
    let mut byte = 0u64;
    loop {
        buf.clear();
        let n = reader.read_line(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        line += 1;
        let loc = Loc { line, byte };
        byte += n as u64;
        body(buf.trim_end_matches(['\n', '\r']), loc)?;
    }
}

fn parse_vertex(tok: &str, at: Loc) -> Result<VertexId, ParseError> {
    tok.parse().map_err(|_| at.syntax(format!("invalid vertex id {tok:?}")))
}

fn parse_weight(tok: &str, at: Loc) -> Result<Weight, ParseError> {
    let w: Weight = tok.parse().map_err(|_| at.syntax(format!("invalid weight {tok:?}")))?;
    if valid_weight(w) {
        Ok(w)
    } else {
        Err(at.syntax(format!("negative or non-finite weight {tok:?}")))
    }
}

/// Reads a whitespace-separated edge list into a graph.
///
/// The vertex count is `max id + 1` (or `min_vertices` if larger).
/// Duplicate edges and self-loops are skipped, matching common loader
/// behaviour for raw datasets.
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure or malformed lines.
pub fn read_edge_list<R: BufRead>(reader: R, min_vertices: usize) -> Result<Csr, ParseError> {
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    let mut max_id: u64 = 0;
    for_each_line(reader, |line, at| {
        if is_comment(line) {
            return Ok(());
        }
        let mut it = line.split_whitespace();
        // `is_comment` treats blank lines as comments, but re-check rather
        // than rely on that coupling: a token-less line is simply skipped.
        let Some(first) = it.next() else { return Ok(()) };
        let u = parse_vertex(first, at)?;
        let v = it
            .next()
            .ok_or_else(|| at.syntax("missing target vertex"))
            .and_then(|t| parse_vertex(t, at))?;
        let w = match it.next() {
            Some(tok) => parse_weight(tok, at)?,
            None => 1.0,
        };
        if let Some(extra) = it.next() {
            return Err(at.syntax(format!("unexpected trailing token {extra:?}")));
        }
        max_id = max_id.max(u as u64).max(v as u64);
        edges.push((u, v, w));
        Ok(())
    })?;
    // cast-ok: max_id accumulates u32 vertex ids, so max_id + 1 <= 2^32 fits usize
    let n = ((max_id + 1) as usize).max(min_vertices).max(if edges.is_empty() {
        min_vertices
    } else {
        0
    });
    Ok(Csr::from_edges(n, &edges))
}

/// Loads an edge-list file from `path`.
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure or malformed lines.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<Csr, ParseError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(BufReader::new(file), 0)
}

/// Writes a graph as a `source target weight` edge list.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_edge_list<W: Write>(graph: &Csr, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# {} vertices, {} edges", graph.num_vertices(), graph.num_edges())?;
    for (u, v, w) in graph.iter_edges() {
        writeln!(writer, "{u} {v} {w}")?;
    }
    Ok(())
}

/// Reads streaming update batches: `a u v w` inserts, `d u v` deletes,
/// blank lines separate batches. Comments are allowed anywhere.
///
/// # Errors
///
/// Returns [`ParseError`] on I/O failure or malformed lines.
pub fn read_update_batches<R: BufRead>(reader: R) -> Result<Vec<UpdateBatch>, ParseError> {
    let mut batches = Vec::new();
    let mut current = UpdateBatch::new();
    for_each_line(reader, |line, at| {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            if !current.is_empty() {
                batches.push(std::mem::take(&mut current));
            }
            return Ok(());
        }
        if trimmed.starts_with('#') || trimmed.starts_with('%') {
            return Ok(());
        }
        let mut it = trimmed.split_whitespace();
        let Some(op) = it.next() else { return Ok(()) };
        match op {
            "a" | "A" => {
                let u = it
                    .next()
                    .ok_or_else(|| at.syntax("insertion missing source"))
                    .and_then(|t| parse_vertex(t, at))?;
                let v = it
                    .next()
                    .ok_or_else(|| at.syntax("insertion missing target"))
                    .and_then(|t| parse_vertex(t, at))?;
                let w = match it.next() {
                    Some(tok) => parse_weight(tok, at)?,
                    None => 1.0,
                };
                current.insert(u, v, w);
            }
            "d" | "D" => {
                let u = it
                    .next()
                    .ok_or_else(|| at.syntax("deletion missing source"))
                    .and_then(|t| parse_vertex(t, at))?;
                let v = it
                    .next()
                    .ok_or_else(|| at.syntax("deletion missing target"))
                    .and_then(|t| parse_vertex(t, at))?;
                current.delete(u, v);
            }
            other => {
                return Err(at.syntax(format!("unknown update op {other:?} (expected 'a' or 'd')")));
            }
        }
        Ok(())
    })?;
    if !current.is_empty() {
        batches.push(current);
    }
    Ok(batches)
}

/// Writes update batches in the format [`read_update_batches`] accepts.
///
/// The text format cannot represent an *empty* batch (a blank line is a
/// separator, and consecutive separators collapse), so empty batches are
/// skipped: reading the output back yields exactly the input with empty
/// batches removed. Callers that need empty batches round-tripped should
/// use the binary WAL format of the `jetstream-store` crate instead.
///
/// # Errors
///
/// Returns any I/O error from the writer. A negative or non-finite
/// insertion weight is reported as [`std::io::ErrorKind::InvalidInput`]
/// rather than written:
/// [`read_update_batches`] would reject it, so writing it would produce a
/// file that cannot be read back.
pub fn write_update_batches<W: Write>(
    batches: &[UpdateBatch],
    mut writer: W,
) -> std::io::Result<()> {
    let mut wrote_any = false;
    for batch in batches {
        if batch.is_empty() {
            continue;
        }
        if wrote_any {
            writeln!(writer)?;
        }
        wrote_any = true;
        for &(u, v, w) in batch.insertions() {
            if !valid_weight(w) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("negative or non-finite weight {w} on insertion {u} -> {v}"),
                ));
            }
            writeln!(writer, "a {u} {v} {w}")?;
        }
        for &(u, v) in batch.deletions() {
            writeln!(writer, "d {u} {v}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_basic_edge_list() {
        let text = "# a comment\n0 1 2.5\n1 2\n% another comment\n2 0 7\n";
        let g = read_edge_list(Cursor::new(text), 0).expect("edge-list parse should succeed");
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
        assert_eq!(g.edge_weight(1, 2), Some(1.0)); // default weight
    }

    #[test]
    fn min_vertices_pads_isolated_tail() {
        let g = read_edge_list(Cursor::new("0 1\n"), 10).expect("edge-list parse should succeed");
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g =
            read_edge_list(Cursor::new("# nothing\n"), 5).expect("edge-list parse should succeed");
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn bad_vertex_is_a_syntax_error_with_line_number() {
        let err =
            read_edge_list(Cursor::new("0 1\nx 2\n"), 0).expect_err("a bad vertex must not parse");
        match err {
            ParseError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(read_edge_list(Cursor::new("0 1 2 3\n"), 0).is_err());
    }

    #[test]
    fn non_finite_weight_rejected() {
        assert!(read_edge_list(Cursor::new("0 1 inf\n"), 0).is_err());
    }

    #[test]
    fn negative_weights_are_rejected_and_negative_zero_is_zero() {
        assert!(read_edge_list(Cursor::new("0 1 -3\n"), 0).is_err());
        assert!(read_update_batches(Cursor::new("a 0 1 -0.5\n")).is_err());
        let g = read_edge_list(Cursor::new("0 1 -0\n"), 0).expect("-0 is a zero weight");
        assert_eq!(g.edge_weight(0, 1), Some(0.0));
        let mut b = UpdateBatch::new();
        b.insert(0, 1, -1.0);
        assert!(write_update_batches(&[b], Vec::new()).is_err());
    }

    #[test]
    fn graph_roundtrip() {
        let text = "0 1 2\n1 2 3\n2 0 4\n";
        let g = read_edge_list(Cursor::new(text), 0).expect("edge-list parse should succeed");
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).expect("edge-list parse should succeed");
        let g2 = read_edge_list(Cursor::new(buf), 0).expect("edge-list parse should succeed");
        assert_eq!(g, g2);
    }

    #[test]
    fn read_batches_with_separators() {
        let text = "a 0 1 2.0\nd 1 2\n\na 3 4\n# comment\nd 0 1\n";
        let batches =
            read_update_batches(Cursor::new(text)).expect("batch-file parse should succeed");
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].insertions(), &[(0, 1, 2.0)]);
        assert_eq!(batches[0].deletions(), &[(1, 2)]);
        assert_eq!(batches[1].insertions(), &[(3, 4, 1.0)]);
        assert_eq!(batches[1].deletions(), &[(0, 1)]);
    }

    #[test]
    fn unknown_op_rejected() {
        let err =
            read_update_batches(Cursor::new("x 0 1\n")).expect_err("an unknown op must not parse");
        assert!(matches!(err, ParseError::Syntax { line: 1, .. }));
    }

    #[test]
    fn batches_roundtrip() {
        let mut b1 = UpdateBatch::new();
        b1.insert(0, 1, 2.0).delete(3, 4);
        let mut b2 = UpdateBatch::new();
        b2.insert(5, 6, 1.5);
        let batches = vec![b1, b2];
        let mut buf = Vec::new();
        write_update_batches(&batches, &mut buf).expect("batch-file write to Vec should succeed");
        let back = read_update_batches(Cursor::new(buf)).expect("batch-file parse should succeed");
        assert_eq!(back, batches);
    }

    #[test]
    fn load_graph_missing_file_is_io_error() {
        let err = load_graph("/nonexistent/graph.txt").expect_err("a missing file must not load");
        assert!(matches!(err, ParseError::Io(_)));
    }

    #[test]
    fn syntax_errors_carry_the_line_start_byte_offset() {
        // "# header\n" is 9 bytes, "0 1\n" is 4: the bad line starts at 13.
        let err = read_edge_list(Cursor::new("# header\n0 1\nx 2\n"), 0)
            .expect_err("a bad line must not parse");
        match err {
            ParseError::Syntax { line, byte, .. } => {
                assert_eq!(line, 3);
                assert_eq!(byte, 13);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Same for the update parser: "a 0 1\n" is 6 bytes, "\n" is 1.
        let err = read_update_batches(Cursor::new("a 0 1\n\nz 1 2\n"))
            .expect_err("a bad op must not parse");
        match err {
            ParseError::Syntax { line, byte, message } => {
                assert_eq!(line, 3);
                assert_eq!(byte, 7);
                assert!(message.contains('z'), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The offset survives into the rendered message.
        let err =
            read_edge_list(Cursor::new("0 1\nbad\n"), 0).expect_err("a bad line must not parse");
        assert!(err.to_string().contains("(byte 4)"), "{err}");
    }

    #[test]
    fn empty_batches_are_skipped_by_the_writer() {
        let mut b1 = UpdateBatch::new();
        b1.insert(0, 1, 2.0);
        let mut b2 = UpdateBatch::new();
        b2.delete(1, 2);
        let batches = vec![
            UpdateBatch::new(),
            b1.clone(),
            UpdateBatch::new(),
            b2.clone(),
            UpdateBatch::new(),
        ];
        let mut buf = Vec::new();
        write_update_batches(&batches, &mut buf).expect("batch-file write to Vec should succeed");
        let back = read_update_batches(Cursor::new(buf)).expect("batch-file parse should succeed");
        assert_eq!(back, vec![b1, b2]);
    }

    #[test]
    fn non_finite_insertion_weight_is_rejected_by_the_writer() {
        let mut b = UpdateBatch::new();
        b.insert(0, 1, f64::NAN);
        let err =
            write_update_batches(&[b], Vec::new()).expect_err("a NaN weight must not be written");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn update_batches_roundtrip_property() {
        use jetstream_testkit::run_cases;
        run_cases("io: update batches round-trip through text", 96, |rng| {
            let n_batches = rng.gen_index(6);
            let mut batches = Vec::new();
            for _ in 0..n_batches {
                let mut b = UpdateBatch::new();
                // Deliberately includes empty and deletion-only batches.
                let n_ins = rng.gen_index(4);
                let n_del = rng.gen_index(4);
                for _ in 0..n_ins {
                    let u = rng.gen_index(1000) as VertexId;
                    let v = rng.gen_index(1000) as VertexId;
                    // Valid weights of varied magnitude: finite, not negative.
                    let w = rng.gen_f64() * 10f64.powi(rng.gen_index(7) as i32 - 3);
                    b.insert(u, v, w);
                }
                for _ in 0..n_del {
                    let u = rng.gen_index(1000) as VertexId;
                    let v = rng.gen_index(1000) as VertexId;
                    b.delete(u, v);
                }
                batches.push(b);
            }
            let mut buf = Vec::new();
            write_update_batches(&batches, &mut buf)
                .expect("batch-file write to Vec should succeed");
            let back =
                read_update_batches(Cursor::new(buf)).expect("batch-file parse should succeed");
            let expected: Vec<UpdateBatch> =
                batches.into_iter().filter(|b| !b.is_empty()).collect();
            assert_eq!(back, expected);
        });
    }
}
