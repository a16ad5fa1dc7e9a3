//! In-repo CRC32C (Castagnoli) checksum primitive.
//!
//! The storage-integrity layer (graph manifests, replica verification,
//! `pdtl verify`) needs a fast, well-known digest without pulling in a
//! crates.io dependency. CRC32C fits: table-driven, 4 bytes per entry,
//! and its error-detection properties (all 1- and 2-bit errors, all
//! burst errors up to 32 bits) match the fault model we inject —
//! bit flips, truncations, and torn writes.
//!
//! The implementation is the standard reflected table-driven form over
//! the Castagnoli polynomial `0x1EDC6F41` (reflected `0x82F63B78`),
//! eight bytes per step (slicing-by-8: table `k` advances a byte that
//! sits `k` positions before the end of the step, so the eight lookups
//! of a step are independent) with a bytewise tail, verified against
//! the canonical check vector `crc32c(b"123456789") == 0xE3069283` and
//! against the one-byte-per-step loop.

use std::io::Read;
use std::path::Path;

use crate::error::{IoError, Result};

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// The lookup tables, built at compile time: `TABLES[0]` is the
/// classic byte table, `TABLES[k][b]` is byte `b` followed by `k` zero
/// bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One byte per step: the tail of [`Crc32c::update`], and the reference
/// its eight-byte steps are tested against.
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Streaming CRC32C hasher.
///
/// ```
/// use pdtl_io::checksum::Crc32c;
/// let mut h = Crc32c::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finalize(), 0xE306_9283);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Start a fresh digest.
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Feed `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut steps = bytes.chunks_exact(8);
        for s in &mut steps {
            let lo = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][s[4] as usize]
                ^ TABLES[2][s[5] as usize]
                ^ TABLES[1][s[6] as usize]
                ^ TABLES[0][s[7] as usize];
        }
        self.state = update_bytewise(crc, steps.remainder());
    }

    /// Finish and return the digest. The hasher may keep being fed;
    /// `finalize` is a snapshot, not a terminal operation.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32C of a byte slice.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(bytes);
    h.finalize()
}

/// Digest a whole file, returning `(length, crc32c)`.
///
/// Reads in 64 KiB chunks through a plain [`std::fs::File`]; integrity
/// scans are metadata traffic, deliberately *not* routed through the
/// accounted I/O layer so they never perturb the cost model's
/// `bytes_read` bookkeeping.
pub fn crc32c_of_file(path: &Path) -> Result<(u64, u32)> {
    let mut file = std::fs::File::open(path).map_err(|e| IoError::os("open", path, e))?;
    let mut buf = vec![0u8; 64 * 1024];
    let mut h = Crc32c::new();
    let mut len = 0u64;
    loop {
        let got = file
            .read(&mut buf)
            .map_err(|e| IoError::os("read", path, e))?;
        if got == 0 {
            break;
        }
        h.update(&buf[..got]);
        len += got as u64;
    }
    Ok((len, h.finalize()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vector() {
        // The canonical CRC32C check vector (RFC 3720 appendix et al.).
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc32c::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32c(&data));
    }

    #[test]
    fn eight_byte_steps_match_the_bytewise_loop_at_every_split() {
        // Seeded lengths in 0..=4 KiB (the ends included), each fed as
        // two `update` calls split at every position, so every head /
        // tail length meets every step alignment.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut lens = vec![0usize, 1, 7, 8, 9, 4095, 4096];
        lens.extend((0..6).map(|_| (next() % 4097) as usize));
        for len in lens {
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let expected = !update_bytewise(!0, &data);
            assert_eq!(crc32c(&data), expected, "len {len}");
            for split in 0..=len {
                let mut h = Crc32c::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), expected, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0u8; 4096];
        let base = crc32c(&data);
        for byte in [0usize, 1000, 4095] {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), base, "flip at {byte}:{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn file_digest_matches_slice_digest() {
        let dir = std::env::temp_dir().join("pdtl-crc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("blob");
        let data: Vec<u8> = (0..50_000u32).flat_map(|w| w.to_le_bytes()).collect();
        std::fs::write(&p, &data).unwrap();
        let (len, crc) = crc32c_of_file(&p).unwrap();
        assert_eq!(len, data.len() as u64);
        assert_eq!(crc, crc32c(&data));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_file_is_typed_error() {
        let err = crc32c_of_file(Path::new("/nonexistent/pdtl-nope")).unwrap_err();
        assert!(err.to_string().contains("pdtl-nope"));
    }
}
