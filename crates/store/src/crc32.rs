//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), hand-rolled.
//!
//! The container this workspace builds in has no crate-registry access, so —
//! as PR 1 did for RNG and property testing — the checksum used by the
//! snapshot and WAL formats is implemented here on `std` alone. The variant
//! is the ubiquitous zlib/PNG/Ethernet CRC-32 so files can be checked with
//! standard external tooling.

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the checksum state after
/// byte `b` followed by `k` zero bytes, so eight input bytes fold into the
/// state with eight independent lookups instead of eight dependent ones.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One byte-at-a-time step: the tail of [`Crc32::update`] (and the whole of
/// the test oracle).
fn step(state: u32, byte: u8) -> u32 {
    TABLES[0][((state ^ byte as u32) & 0xFF) as usize] ^ (state >> 8)
}

/// Streaming CRC-32 hasher.
///
/// # Example
///
/// ```
/// use jetstream_store::crc32::Crc32;
/// let mut h = Crc32::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finish(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum, eight bytes per step (slice-by-8).
    pub fn update(&mut self, data: &[u8]) {
        let mut s = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ s;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            s = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            s = step(s, b);
        }
        self.state = s;
    }

    /// The checksum of everything fed so far (the hasher stays usable).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_testkit::run_cases;

    /// The byte-at-a-time reference the sliced loop must equal.
    fn bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFF_FFFF, |s, &b| step(s, b))
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_reference() {
        run_cases("crc32 slice-by-8 vs bytewise", 256, |rng| {
            let buf: Vec<u8> = (0..rng.gen_index(300)).map(|_| rng.next_u64() as u8).collect();
            // Every alignment of the 8-byte blocks against the buffer, and
            // a split point that leaves the hasher mid-stream.
            let from = rng.gen_index(buf.len() + 1);
            let data = &buf[from..];
            assert_eq!(crc32(data), bytewise(data), "len {} from {from}", data.len());
            let cut = rng.gen_index(data.len() + 1);
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), bytewise(data), "split at {cut}");
        });
    }

    #[test]
    fn standard_check_value() {
        // The universal CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0u16..1024).map(|i| (i % 251) as u8).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"jetstream durable state store".to_vec();
        let reference = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
