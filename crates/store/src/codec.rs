//! Little-endian binary encoding helpers shared by the snapshot, WAL, and
//! manifest formats.
//!
//! Writers push into a `Vec<u8>`; readers go through [`Reader`], which tracks
//! its byte offset so every decode failure can name the first bad byte (the
//! offsets surface in [`StoreError::Corrupt`]).

use std::path::Path;

use crate::error::StoreError;

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Offset-tracking cursor over a decoded byte buffer.
///
/// `base` is the buffer's offset within the file it was read from, so
/// reported offsets are file offsets even when only a slice of the file is
/// being decoded (e.g. a single WAL record payload).
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], base: u64) -> Self {
        Reader { buf, pos: 0, base }
    }

    /// File offset of the next unread byte.
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, path: &Path, what: &str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::corrupt(
                path,
                self.offset(),
                format!("truncated: need {n} bytes for {what}, {} left", self.remaining()),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, path: &Path, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, path, what)?[0])
    }

    pub(crate) fn u32(&mut self, path: &Path, what: &str) -> Result<u32, StoreError> {
        let s = self.take(4, path, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn u64(&mut self, path: &Path, what: &str) -> Result<u64, StoreError> {
        let s = self.take(8, path, what)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    pub(crate) fn f64(&mut self, path: &Path, what: &str) -> Result<f64, StoreError> {
        let s = self.take(8, path, what)?;
        Ok(f64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Decodes a `u64` count and guards it against the bytes actually
    /// available: each counted element occupies at least `elem_size` bytes,
    /// so a count that implies more bytes than remain is corruption — caught
    /// here instead of as an out-of-memory allocation.
    pub(crate) fn count(
        &mut self,
        elem_size: usize,
        path: &Path,
        what: &str,
    ) -> Result<usize, StoreError> {
        let at = self.offset();
        let n = self.u64(path, what)?;
        let fits = n <= (self.remaining() / elem_size.max(1)) as u64;
        if !fits {
            return Err(StoreError::corrupt(
                path,
                at,
                format!("implausible {what} count {n}: only {} bytes remain", self.remaining()),
            ));
        }
        Ok(n as usize)
    }

    /// Asserts the buffer is fully consumed.
    pub(crate) fn expect_end(&self, path: &Path, what: &str) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::corrupt(
                path,
                self.offset(),
                format!("{} trailing bytes after {what}", self.remaining()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn p() -> PathBuf {
        PathBuf::from("mem")
    }

    #[test]
    fn round_trip_scalars() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f64(&mut buf, -0.125);
        let mut r = Reader::new(&buf, 100);
        assert_eq!(r.u8(&p(), "a").unwrap(), 7);
        assert_eq!(r.u32(&p(), "b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64(&p(), "c").unwrap(), u64::MAX - 3);
        assert_eq!(r.f64(&p(), "d").unwrap(), -0.125);
        assert_eq!(r.offset(), 100 + buf.len() as u64);
        r.expect_end(&p(), "buffer").unwrap();
    }

    #[test]
    fn truncation_reports_file_offset() {
        let buf = [1u8, 2];
        let mut r = Reader::new(&buf, 50);
        let err = r.u32(&p(), "header").unwrap_err();
        match err {
            StoreError::Corrupt { offset, detail, .. } => {
                assert_eq!(offset, 50);
                assert!(detail.contains("header"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn implausible_count_is_corruption() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // claims ~2^64 elements
        let mut r = Reader::new(&buf, 0);
        assert!(r.count(16, &p(), "edges").unwrap_err().is_corruption());
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = [0u8; 3];
        let mut r = Reader::new(&buf, 0);
        r.u8(&p(), "x").unwrap();
        assert!(r.expect_end(&p(), "record").is_err());
    }
}
