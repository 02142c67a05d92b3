//! Frame transport: the `u32` length prefix around protocol payloads, and
//! the TCP/Unix-domain connection abstraction both ends share.
//!
//! A frame is `len: u32 LE` followed by `len` payload bytes; `len` is
//! capped at [`MAX_PAYLOAD_LEN`](crate::protocol::MAX_PAYLOAD_LEN) so a
//! hostile prefix cannot drive an unbounded allocation (DESIGN.md §15.1).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use crate::protocol::MAX_PAYLOAD_LEN;

/// Frame-layer failure: transport errors plus the length-prefix cap.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer announced a payload larger than the protocol allows.
    Oversized {
        /// The announced length.
        len: u32,
    },
    /// The connection closed mid-frame (clean close between frames is
    /// reported as `Ok(None)` by [`read_frame`], not as an error).
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_PAYLOAD_LEN}")
            }
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A connected byte stream, TCP or Unix-domain.
#[derive(Debug)]
pub enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Conn {
    /// Clones the underlying socket handle (same file descriptor).
    ///
    /// # Errors
    ///
    /// Propagates the OS `dup` failure.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Sets the read timeout, letting blocked readers poll shutdown flags.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Disables Nagle batching on TCP (no-op on Unix sockets): the server
    /// trades a little bandwidth for tail latency.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nodelay(true),
            Conn::Unix(_) => Ok(()),
        }
    }

    /// Forces blocking mode (sockets accepted from a non-blocking
    /// listener may inherit its mode on some platforms; the session
    /// threads rely on blocking reads with a timeout).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_blocking(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(false),
            Conn::Unix(s) => s.set_nonblocking(false),
        }
    }

    /// Shuts down both directions, waking any thread blocked on the peer.
    pub fn shutdown_both(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// True for the error kinds a socket read timeout produces.
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Fills `buf` completely, retrying across read timeouts while
/// `keep_going()` holds. Returns:
///
/// * `Ok(true)` — buffer filled;
/// * `Ok(false)` — clean EOF (or `keep_going` turned false) **before the
///   first byte**;
/// * `Err(Truncated)` — EOF or shutdown strictly inside the buffer.
fn fill_or_eof<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    keep_going: &mut dyn FnMut() -> bool,
) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        let Some(window) = buf.get_mut(filled..) else {
            return Err(FrameError::Truncated);
        };
        match r.read(window) {
            Ok(0) => {
                return if filled == 0 { Ok(false) } else { Err(FrameError::Truncated) };
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if !keep_going() {
                    return if filled == 0 { Ok(false) } else { Err(FrameError::Truncated) };
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame. `Ok(None)` means the connection ended cleanly at a
/// frame boundary (peer close, or `keep_going` turned false while idle).
///
/// # Errors
///
/// [`FrameError::Oversized`] for a length prefix over the cap,
/// [`FrameError::Truncated`] for a mid-frame close, [`FrameError::Io`]
/// for transport failures.
pub fn read_frame<R: Read>(
    r: &mut R,
    keep_going: &mut dyn FnMut() -> bool,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    if !fill_or_eof(r, &mut prefix, keep_going)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(prefix);
    if len as usize > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    if !fill_or_eof(r, &mut payload, keep_going)? && len > 0 {
        return Err(FrameError::Truncated);
    }
    Ok(Some(payload))
}

/// Reads one frame from a stream with no timeout installed (blocking
/// clients).
///
/// # Errors
///
/// Same contract as [`read_frame`].
pub fn read_frame_blocking<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    read_frame(r, &mut || true)
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the payload exceeds the cap, otherwise
/// transport failures.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversized { len: payload.len() as u32 });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"omega").unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame_blocking(&mut r).unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(read_frame_blocking(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame_blocking(&mut r).unwrap().as_deref(), Some(&b"omega"[..]));
        assert!(read_frame_blocking(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_PAYLOAD_LEN as u32 + 1).to_le_bytes());
        let mut r = io::Cursor::new(wire);
        assert!(matches!(read_frame_blocking(&mut r), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn close_mid_frame_is_truncated() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&100u32.to_le_bytes());
        wire.extend_from_slice(b"only a few bytes");
        let mut r = io::Cursor::new(wire);
        assert!(matches!(read_frame_blocking(&mut r), Err(FrameError::Truncated)));
        // A partial length prefix is also a truncation.
        let mut r = io::Cursor::new(vec![1u8, 2]);
        assert!(matches!(read_frame_blocking(&mut r), Err(FrameError::Truncated)));
    }
}
