//! The length-prefixed binary wire protocol spoken by `jetstream-serve`.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by the payload, whose first byte is the message tag
//! (see DESIGN.md §15.1 for the full wire-format table). Requests use
//! tags `0x01..=0x08`, responses `0x81..=0x8B`, so a stream position can
//! never be confused about direction.
//!
//! The decode path is a `panic-reachability` root (`cargo xtask check`
//! walks it): it must reject truncated, oversized, and garbage payloads
//! with a typed [`ProtocolError`] and is written without slice indexing,
//! `unwrap`, or arithmetic that can overflow — every read goes through
//! `Cursor::grab_chunk`, which bounds-checks via `slice::get`.

use jetstream_graph::EdgeUpdate;

/// Protocol version carried in `Hello` / `HelloAck`. Bumped on any wire
/// format change; the server refuses mismatched clients.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on a frame payload. A well-formed client never needs more
/// (the largest message, a full `Update`, fits ~61k insertions); anything
/// larger is rejected before allocation so a hostile length prefix cannot
/// balloon server memory.
pub const MAX_PAYLOAD_LEN: usize = 1 << 20;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; must be the first message on a connection.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Free-form client name, echoed in server logs and stats.
        client_name: String,
    },
    /// A batch of edge updates to admit.
    Update {
        /// Client-chosen correlation id; echoed in `Admitted`, `Rejected`,
        /// and the eventual `Converged` covering these updates.
        token: u64,
        /// The updates, applied in order relative to this connection.
        updates: Vec<EdgeUpdate>,
    },
    /// Read one vertex value from converged state.
    QueryValue {
        /// The vertex to read.
        vertex: u32,
    },
    /// Read the impacted-vertex set of the most recent batch.
    QueryImpacted,
    /// Walk the dependence tree from a vertex back to its root.
    QueryPath {
        /// The vertex whose dependence path is wanted.
        vertex: u32,
    },
    /// Force the open admission batch to seal and apply now
    /// (read-your-writes barrier).
    Flush,
    /// Fetch server counters.
    Stats,
    /// Orderly goodbye; the server answers `Bye` and closes.
    Goodbye,
}

/// Server counters reported by [`Response::StatsReply`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Update batches applied to the engine.
    pub batches_applied: u64,
    /// Individual edge updates applied.
    pub updates_applied: u64,
    /// Updates classified safe by the admission pre-check.
    pub safe_updates: u64,
    /// Updates classified unsafe (full re-evaluation path).
    pub unsafe_updates: u64,
    /// Batches that took the safe-delete fast path.
    pub fast_path_batches: u64,
    /// Update messages bounced with `Busy` (backpressure).
    pub busy_rejections: u64,
    /// Update messages bounced with `Rejected` (validation).
    pub rejected_updates: u64,
    /// Durable checkpoints written.
    pub checkpoints: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake reply.
    HelloAck {
        /// Server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Vertex-id space; updates must stay inside `0..num_vertices`.
        num_vertices: u64,
        /// Name of the algorithm the engine is running (e.g. `sssp`).
        algorithm: String,
    },
    /// The update message was admitted into a coalescing batch.
    Admitted {
        /// Echo of the request token.
        token: u64,
        /// Id of the admission batch holding the message's last update;
        /// the matching `Converged` carries the same id.
        batch_id: u64,
    },
    /// The client exceeded its in-flight budget; the message was dropped
    /// and should be retried after a `Converged` arrives.
    Busy {
        /// Echo of the request token.
        token: u64,
    },
    /// The update message failed validation and was dropped whole.
    Rejected {
        /// Echo of the request token.
        token: u64,
        /// Zero-based index of the first invalid update.
        index: u32,
        /// Human-readable rendering of the typed validation error.
        reason: String,
    },
    /// Answer to `QueryValue`.
    Value {
        /// Echo of the queried vertex.
        vertex: u32,
        /// Its converged value.
        value: f64,
    },
    /// Answer to `QueryImpacted`: vertices touched by the latest batch.
    Impacted {
        /// Impacted vertex ids, ascending.
        vertices: Vec<u32>,
    },
    /// Answer to `QueryPath`: dependence chain root → vertex.
    Path {
        /// The chain, starting at the tree root and ending at the queried
        /// vertex; empty when the vertex is unreached or the algorithm
        /// records no dependencies.
        vertices: Vec<u32>,
    },
    /// An admission batch finished applying and the engine re-converged.
    Converged {
        /// Id of the applied batch.
        batch_id: u64,
        /// This client's tokens whose updates the batch contained.
        tokens: Vec<u64>,
        /// Safe-classified updates in the batch (all clients).
        safe_updates: u32,
        /// Unsafe-classified updates in the batch (all clients).
        unsafe_updates: u32,
    },
    /// Answer to `Stats`.
    StatsReply(ServerStats),
    /// The request could not be served (unknown vertex, bad handshake…).
    Error {
        /// What went wrong.
        message: String,
    },
    /// Goodbye acknowledgement; the server closes after sending it.
    Bye,
}

/// Typed decode failure. Every malformed payload maps to one of these;
/// the decode path never panics (audited by `panic-reachability`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The payload ended before the message was complete, or a declared
    /// element count cannot fit in the bytes that remain.
    Truncated,
    /// The leading tag byte names no known message.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// Bytes were left over after a complete message was decoded.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// An edge-update item had an unknown kind byte.
    BadUpdateKind {
        /// The offending kind.
        kind: u8,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProtocolError::Truncated => write!(f, "payload truncated"),
            ProtocolError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            ProtocolError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtocolError::BadUpdateKind { kind } => {
                write!(f, "unknown edge-update kind {kind:#04x}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

// Request tags.
const TAG_HELLO: u8 = 0x01;
const TAG_UPDATE: u8 = 0x02;
const TAG_QUERY_VALUE: u8 = 0x03;
const TAG_QUERY_IMPACTED: u8 = 0x04;
const TAG_QUERY_PATH: u8 = 0x05;
const TAG_FLUSH: u8 = 0x06;
const TAG_STATS: u8 = 0x07;
const TAG_GOODBYE: u8 = 0x08;
// Response tags.
const TAG_HELLO_ACK: u8 = 0x81;
const TAG_ADMITTED: u8 = 0x82;
const TAG_BUSY: u8 = 0x83;
const TAG_REJECTED: u8 = 0x84;
const TAG_VALUE: u8 = 0x85;
const TAG_IMPACTED: u8 = 0x86;
const TAG_PATH: u8 = 0x87;
const TAG_CONVERGED: u8 = 0x88;
const TAG_STATS_REPLY: u8 = 0x89;
const TAG_ERROR: u8 = 0x8A;
const TAG_BYE: u8 = 0x8B;

// Per-item minimum encoded sizes, used to bound declared counts before
// any allocation happens.
const MIN_UPDATE_BYTES: usize = 9; // kind + two u32 endpoints
const MIN_U32_BYTES: usize = 4;
const MIN_U64_BYTES: usize = 8;

/// Bounds-checked, panic-free reader over a payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn fresh(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn leftover(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `n` bytes, or `Truncated`. The only primitive that moves
    /// the cursor; everything else is built on it.
    fn grab_chunk(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated)?;
        let chunk = self.buf.get(self.pos..end).ok_or(ProtocolError::Truncated)?;
        self.pos = end;
        Ok(chunk)
    }

    fn grab_u8(&mut self) -> Result<u8, ProtocolError> {
        let chunk = self.grab_chunk(1)?;
        chunk.first().copied().ok_or(ProtocolError::Truncated)
    }

    fn grab_u32(&mut self) -> Result<u32, ProtocolError> {
        let chunk = self.grab_chunk(4)?;
        let arr: [u8; 4] = chunk.try_into().map_err(|_| ProtocolError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    fn grab_u64(&mut self) -> Result<u64, ProtocolError> {
        let chunk = self.grab_chunk(8)?;
        let arr: [u8; 8] = chunk.try_into().map_err(|_| ProtocolError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    fn grab_f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.grab_u64()?))
    }

    /// A declared element count, rejected up front when even minimally
    /// sized elements cannot fit in the remaining bytes — so a hostile
    /// count never drives a huge allocation.
    fn grab_count(&mut self, min_item_bytes: usize) -> Result<usize, ProtocolError> {
        let n = self.grab_u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.leftover() {
            return Err(ProtocolError::Truncated);
        }
        Ok(n)
    }

    fn grab_string(&mut self) -> Result<String, ProtocolError> {
        let n = self.grab_count(1)?;
        let bytes = self.grab_chunk(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn grab_update(&mut self) -> Result<EdgeUpdate, ProtocolError> {
        let kind = self.grab_u8()?;
        let source = self.grab_u32()?;
        let target = self.grab_u32()?;
        match kind {
            0 => Ok(EdgeUpdate::Insert { source, target, weight: self.grab_f64()? }),
            1 => Ok(EdgeUpdate::Delete { source, target }),
            kind => Err(ProtocolError::BadUpdateKind { kind }),
        }
    }

    fn grab_u32_list(&mut self) -> Result<Vec<u32>, ProtocolError> {
        let n = self.grab_count(MIN_U32_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.grab_u32()?);
        }
        Ok(out)
    }

    fn grab_u64_list(&mut self) -> Result<Vec<u64>, ProtocolError> {
        let n = self.grab_count(MIN_U64_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.grab_u64()?);
        }
        Ok(out)
    }
}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_update(out: &mut Vec<u8>, u: &EdgeUpdate) {
    match *u {
        EdgeUpdate::Insert { source, target, weight } => {
            put_u8(out, 0);
            put_u32(out, source);
            put_u32(out, target);
            put_f64(out, weight);
        }
        EdgeUpdate::Delete { source, target } => {
            put_u8(out, 1);
            put_u32(out, source);
            put_u32(out, target);
        }
    }
}

/// Encodes a request into a frame payload (tag byte + body, no length
/// prefix — framing adds that).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Hello { version, client_name } => {
            put_u8(&mut out, TAG_HELLO);
            put_u32(&mut out, *version);
            put_string(&mut out, client_name);
        }
        Request::Update { token, updates } => {
            put_u8(&mut out, TAG_UPDATE);
            put_u64(&mut out, *token);
            put_u32(&mut out, updates.len() as u32);
            for u in updates {
                put_update(&mut out, u);
            }
        }
        Request::QueryValue { vertex } => {
            put_u8(&mut out, TAG_QUERY_VALUE);
            put_u32(&mut out, *vertex);
        }
        Request::QueryImpacted => put_u8(&mut out, TAG_QUERY_IMPACTED),
        Request::QueryPath { vertex } => {
            put_u8(&mut out, TAG_QUERY_PATH);
            put_u32(&mut out, *vertex);
        }
        Request::Flush => put_u8(&mut out, TAG_FLUSH),
        Request::Stats => put_u8(&mut out, TAG_STATS),
        Request::Goodbye => put_u8(&mut out, TAG_GOODBYE),
    }
    out
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::HelloAck { version, num_vertices, algorithm } => {
            put_u8(&mut out, TAG_HELLO_ACK);
            put_u32(&mut out, *version);
            put_u64(&mut out, *num_vertices);
            put_string(&mut out, algorithm);
        }
        Response::Admitted { token, batch_id } => {
            put_u8(&mut out, TAG_ADMITTED);
            put_u64(&mut out, *token);
            put_u64(&mut out, *batch_id);
        }
        Response::Busy { token } => {
            put_u8(&mut out, TAG_BUSY);
            put_u64(&mut out, *token);
        }
        Response::Rejected { token, index, reason } => {
            put_u8(&mut out, TAG_REJECTED);
            put_u64(&mut out, *token);
            put_u32(&mut out, *index);
            put_string(&mut out, reason);
        }
        Response::Value { vertex, value } => {
            put_u8(&mut out, TAG_VALUE);
            put_u32(&mut out, *vertex);
            put_f64(&mut out, *value);
        }
        Response::Impacted { vertices } => {
            put_u8(&mut out, TAG_IMPACTED);
            put_u32(&mut out, vertices.len() as u32);
            for &v in vertices {
                put_u32(&mut out, v);
            }
        }
        Response::Path { vertices } => {
            put_u8(&mut out, TAG_PATH);
            put_u32(&mut out, vertices.len() as u32);
            for &v in vertices {
                put_u32(&mut out, v);
            }
        }
        Response::Converged { batch_id, tokens, safe_updates, unsafe_updates } => {
            put_u8(&mut out, TAG_CONVERGED);
            put_u64(&mut out, *batch_id);
            put_u32(&mut out, tokens.len() as u32);
            for &t in tokens {
                put_u64(&mut out, t);
            }
            put_u32(&mut out, *safe_updates);
            put_u32(&mut out, *unsafe_updates);
        }
        Response::StatsReply(s) => {
            put_u8(&mut out, TAG_STATS_REPLY);
            for v in [
                s.batches_applied,
                s.updates_applied,
                s.safe_updates,
                s.unsafe_updates,
                s.fast_path_batches,
                s.busy_rejections,
                s.rejected_updates,
                s.checkpoints,
                s.connections,
            ] {
                put_u64(&mut out, v);
            }
        }
        Response::Error { message } => {
            put_u8(&mut out, TAG_ERROR);
            put_string(&mut out, message);
        }
        Response::Bye => put_u8(&mut out, TAG_BYE),
    }
    out
}

/// Decodes a frame payload into a [`Request`].
///
/// # Errors
///
/// Any malformed payload — truncated, garbage tag, trailing bytes, bad
/// UTF-8, unknown update kind — returns the corresponding typed
/// [`ProtocolError`]; this function never panics.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::fresh(payload);
    let req = match c.grab_u8()? {
        TAG_HELLO => Request::Hello { version: c.grab_u32()?, client_name: c.grab_string()? },
        TAG_UPDATE => {
            let token = c.grab_u64()?;
            let n = c.grab_count(MIN_UPDATE_BYTES)?;
            let mut updates = Vec::with_capacity(n);
            for _ in 0..n {
                updates.push(c.grab_update()?);
            }
            Request::Update { token, updates }
        }
        TAG_QUERY_VALUE => Request::QueryValue { vertex: c.grab_u32()? },
        TAG_QUERY_IMPACTED => Request::QueryImpacted,
        TAG_QUERY_PATH => Request::QueryPath { vertex: c.grab_u32()? },
        TAG_FLUSH => Request::Flush,
        TAG_STATS => Request::Stats,
        TAG_GOODBYE => Request::Goodbye,
        tag => return Err(ProtocolError::UnknownTag { tag }),
    };
    match c.leftover() {
        0 => Ok(req),
        extra => Err(ProtocolError::TrailingBytes { extra }),
    }
}

/// Decodes a frame payload into a [`Response`].
///
/// # Errors
///
/// Same contract as [`decode_request`]: typed errors, no panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::fresh(payload);
    let resp = match c.grab_u8()? {
        TAG_HELLO_ACK => Response::HelloAck {
            version: c.grab_u32()?,
            num_vertices: c.grab_u64()?,
            algorithm: c.grab_string()?,
        },
        TAG_ADMITTED => Response::Admitted { token: c.grab_u64()?, batch_id: c.grab_u64()? },
        TAG_BUSY => Response::Busy { token: c.grab_u64()? },
        TAG_REJECTED => Response::Rejected {
            token: c.grab_u64()?,
            index: c.grab_u32()?,
            reason: c.grab_string()?,
        },
        TAG_VALUE => Response::Value { vertex: c.grab_u32()?, value: c.grab_f64()? },
        TAG_IMPACTED => Response::Impacted { vertices: c.grab_u32_list()? },
        TAG_PATH => Response::Path { vertices: c.grab_u32_list()? },
        TAG_CONVERGED => Response::Converged {
            batch_id: c.grab_u64()?,
            tokens: c.grab_u64_list()?,
            safe_updates: c.grab_u32()?,
            unsafe_updates: c.grab_u32()?,
        },
        TAG_STATS_REPLY => Response::StatsReply(ServerStats {
            batches_applied: c.grab_u64()?,
            updates_applied: c.grab_u64()?,
            safe_updates: c.grab_u64()?,
            unsafe_updates: c.grab_u64()?,
            fast_path_batches: c.grab_u64()?,
            busy_rejections: c.grab_u64()?,
            rejected_updates: c.grab_u64()?,
            checkpoints: c.grab_u64()?,
            connections: c.grab_u64()?,
        }),
        TAG_ERROR => Response::Error { message: c.grab_string()? },
        TAG_BYE => Response::Bye,
        tag => return Err(ProtocolError::UnknownTag { tag }),
    };
    match c.leftover() {
        0 => Ok(resp),
        extra => Err(ProtocolError::TrailingBytes { extra }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_do_not_collide_across_directions() {
        // Requests live below 0x80, responses above: a frame can never be
        // decoded as the wrong direction without an UnknownTag error.
        for payload in [vec![TAG_HELLO_ACK], vec![TAG_BYE]] {
            assert!(matches!(
                decode_request(&payload),
                Err(ProtocolError::UnknownTag { .. }) | Err(ProtocolError::Truncated)
            ));
        }
        assert!(matches!(decode_response(&[TAG_FLUSH]), Err(ProtocolError::UnknownTag { .. })));
    }

    #[test]
    fn declared_count_larger_than_payload_is_truncated_not_allocated() {
        // Update message claiming u32::MAX items with a 1-byte body.
        let mut payload = vec![TAG_UPDATE];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.push(0);
        assert_eq!(decode_request(&payload), Err(ProtocolError::Truncated));
    }

    #[test]
    fn string_length_is_bounded_by_remaining_bytes() {
        let mut payload = vec![TAG_ERROR];
        payload.extend_from_slice(&1000u32.to_le_bytes());
        payload.extend_from_slice(b"short");
        assert_eq!(decode_response(&payload), Err(ProtocolError::Truncated));
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut payload = vec![TAG_ERROR];
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_response(&payload), Err(ProtocolError::BadUtf8));
    }

    #[test]
    fn bad_update_kind_is_a_typed_error() {
        let mut payload = vec![TAG_UPDATE];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(9); // kind
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode_request(&payload), Err(ProtocolError::BadUpdateKind { kind: 9 }));
    }

    #[test]
    fn empty_payload_is_truncated() {
        assert_eq!(decode_request(&[]), Err(ProtocolError::Truncated));
        assert_eq!(decode_response(&[]), Err(ProtocolError::Truncated));
    }
}
