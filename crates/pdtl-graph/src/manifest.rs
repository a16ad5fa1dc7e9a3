//! Per-graph integrity manifests (`.mft`).
//!
//! A graph base is up to six data files (`.deg`/`.adj`/`.hdr`/`.vix`/
//! `.map`/`.skt`); nothing in the original format verifies their bytes,
//! so a bit-flipped adjacency run or a truncated sidecar either panics
//! or — worse — silently changes the triangle count. The manifest
//! closes that hole: one `.mft` sidecar per base recording each data
//! file's byte length and CRC32C digest, itself protected by a trailing
//! self-checksum and committed crash-safely (temp file → `sync_all` →
//! atomic rename) *after* every data file is durable. The manifest is
//! therefore the write's commit record: a crash mid-write leaves either
//! a complete, verifiable graph or no manifest at all — never an
//! openable half-graph that checks out.
//!
//! Verification runs at two tiers:
//!
//! * **quick** ([`Manifest::verify_quick`], used by `DiskGraph::open`)
//!   — checks every recorded length and fully digests small files
//!   (≤ [`QUICK_DIGEST_MAX`] bytes, which covers every header/sidecar
//!   on real graphs). Catches truncations, torn metadata and missing
//!   files at open time for a few `stat` calls.
//! * **full** ([`Manifest::verify_full`], used by `pdtl verify`, the
//!   runners' input checks and post-copy replica verification) — one
//!   sequential digest pass over every file. Catches single-bit flips
//!   anywhere, including deep inside a multi-gigabyte `.adj`.
//!
//! The manifest is *advisory-absent*: a base without a `.mft` (any
//! graph written before the integrity layer existed) opens and counts
//! exactly as before. All manifest I/O goes through plain `std::fs` —
//! integrity scans are metadata traffic and deliberately invisible to
//! the accounted I/O layer, so the counted `bytes_read` keeps
//! measuring the algorithm, not the safety net.
//!
//! On-disk layout (little-endian `u32` words):
//!
//! ```text
//! [ magic "PMFT" | version | entry count k ]
//! k × [ ext code | crc32c | len lo | len hi ]
//! [ crc32c of all preceding bytes ]
//! ```

use std::path::{Path, PathBuf};

use pdtl_io::checksum::{crc32c, crc32c_of_file};
use pdtl_io::IoError;

use crate::disk::suffixed;
use crate::error::{GraphError, Result};

/// Magic word opening a manifest (`"PMFT"` in LE bytes).
const MFT_MAGIC: u32 = u32::from_le_bytes(*b"PMFT");
/// Manifest format version.
const MFT_VERSION: u32 = 1;

/// Extension of the manifest sidecar itself.
pub const MFT_EXT: &str = ".mft";

/// The data files a manifest may cover, in extension-code order. The
/// manifest never lists itself; `DiskGraph::ALL_EXTS` is this list
/// plus [`MFT_EXT`].
pub const DATA_EXTS: [&str; 6] = [".deg", ".adj", ".hdr", ".vix", ".map", ".skt"];

/// Files at most this many bytes are fully digested by the quick
/// verification tier (so `.hdr`, `.vix`, `.map`, `.skt` on typical
/// graphs are always covered at open time).
pub const QUICK_DIGEST_MAX: u64 = 4096;

/// One covered file: its extension, byte length and CRC32C digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Extension (from [`DATA_EXTS`]), dot included.
    pub ext: &'static str,
    /// Byte length at capture time.
    pub len: u64,
    /// CRC32C of the whole file at capture time.
    pub crc: u32,
}

/// Outcome of a successful full verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Files digested.
    pub files: usize,
    /// Total bytes digested.
    pub bytes: u64,
}

/// The parsed (or freshly captured) integrity manifest of a graph base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Covered files, in [`DATA_EXTS`] order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Path of the manifest sidecar for `base`.
    pub fn path_for(base: &Path) -> PathBuf {
        suffixed(base, MFT_EXT)
    }

    /// Digest every data file currently present at `base` into a fresh
    /// manifest (nothing is written; see [`store`](Self::store)).
    pub fn capture(base: &Path) -> Result<Manifest> {
        let mut entries = Vec::new();
        for ext in DATA_EXTS {
            let p = suffixed(base, ext);
            if !p.exists() {
                continue;
            }
            let (len, crc) = crc32c_of_file(&p)?;
            entries.push(ManifestEntry { ext, len, crc });
        }
        Ok(Manifest { entries })
    }

    /// Write this manifest for `base` crash-safely: encode into
    /// `base.mft-tmp`, `sync_all`, then atomically rename over
    /// `base.mft`. Callers must only invoke this after the covered
    /// data files are themselves durable — the rename is the commit
    /// point of the whole graph write.
    pub fn store(&self, base: &Path) -> Result<()> {
        let final_p = Self::path_for(base);
        let tmp_p = suffixed(base, ".mft-tmp");
        let bytes = self.encode();
        std::fs::write(&tmp_p, &bytes).map_err(|e| IoError::os("write", &tmp_p, e))?;
        let f = std::fs::File::open(&tmp_p).map_err(|e| IoError::os("open", &tmp_p, e))?;
        f.sync_all().map_err(|e| IoError::os("sync", &tmp_p, e))?;
        std::fs::rename(&tmp_p, &final_p).map_err(|e| IoError::os("rename", &tmp_p, e))?;
        Ok(())
    }

    /// [`capture`](Self::capture) then [`store`](Self::store).
    pub fn capture_and_store(base: &Path) -> Result<Manifest> {
        let m = Self::capture(base)?;
        m.store(base)?;
        Ok(m)
    }

    /// Load the manifest for `base`. `Ok(None)` when the sidecar does
    /// not exist (a pre-integrity graph — advisory-absent); a typed
    /// [`GraphError::Corrupt`] when it exists but fails its own
    /// structural checks or trailing self-checksum.
    pub fn load(base: &Path) -> Result<Option<Manifest>> {
        let p = Self::path_for(base);
        let bytes = match std::fs::read(&p) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(IoError::os("read", &p, e).into()),
        };
        let corrupt = |detail: &str| GraphError::Corrupt {
            path: p.clone(),
            detail: detail.to_string(),
        };
        if bytes.len() < 16 || bytes.len() % 4 != 0 {
            return Err(corrupt("manifest too short or misaligned"));
        }
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let self_crc = *words.last().unwrap();
        if crc32c(&bytes[..bytes.len() - 4]) != self_crc {
            return Err(corrupt("manifest self-checksum mismatch"));
        }
        if words[0] != MFT_MAGIC {
            return Err(corrupt("not a PDTL manifest"));
        }
        if words[1] != MFT_VERSION {
            return Err(corrupt("unknown manifest version"));
        }
        let k = words[2] as usize;
        if words.len() != 3 + 4 * k + 1 {
            return Err(corrupt("manifest entry count disagrees with length"));
        }
        let mut entries = Vec::with_capacity(k);
        for chunk in words[3..3 + 4 * k].chunks_exact(4) {
            let ext = DATA_EXTS
                .get(chunk[0] as usize)
                .copied()
                .ok_or_else(|| corrupt("manifest names an unknown file extension"))?;
            entries.push(ManifestEntry {
                ext,
                len: u64::from(chunk[2]) | (u64::from(chunk[3]) << 32),
                crc: chunk[1],
            });
        }
        Ok(Some(Manifest { entries }))
    }

    /// Quick tier: verify every recorded length and fully digest files
    /// of at most [`QUICK_DIGEST_MAX`] bytes. Cheap enough for every
    /// `DiskGraph::open`.
    pub fn verify_quick(&self, base: &Path) -> Result<()> {
        for e in &self.entries {
            let p = suffixed(base, e.ext);
            check_len(&p, e)?;
            if e.len <= QUICK_DIGEST_MAX {
                self.check_digest(&p, e)?;
            }
        }
        Ok(())
    }

    /// Full tier: every recorded length, then one digest pass over
    /// every covered file, each digested once. Catches anything quick
    /// verification can — plus bit flips in large payloads.
    pub fn verify_full(&self, base: &Path) -> Result<VerifyReport> {
        for e in &self.entries {
            check_len(&suffixed(base, e.ext), e)?;
        }
        let mut bytes = 0u64;
        for e in &self.entries {
            let p = suffixed(base, e.ext);
            self.check_digest(&p, e)?;
            bytes += e.len;
        }
        Ok(VerifyReport {
            files: self.entries.len(),
            bytes,
        })
    }

    fn check_digest(&self, p: &Path, e: &ManifestEntry) -> Result<()> {
        let (_, crc) = crc32c_of_file(p)?;
        if crc != e.crc {
            return Err(GraphError::Corrupt {
                path: p.to_path_buf(),
                detail: format!(
                    "checksum mismatch (manifest {:#010x}, disk {crc:#010x})",
                    e.crc
                ),
            });
        }
        Ok(())
    }

    fn encode(&self) -> Vec<u8> {
        let mut words: Vec<u32> = vec![MFT_MAGIC, MFT_VERSION, self.entries.len() as u32];
        for e in &self.entries {
            let code = DATA_EXTS
                .iter()
                .position(|x| *x == e.ext)
                .expect("manifest entries only ever name DATA_EXTS members by construction")
                as u32;
            words.extend([code, e.crc, e.len as u32, (e.len >> 32) as u32]);
        }
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let self_crc = crc32c(&bytes);
        bytes.extend(self_crc.to_le_bytes());
        bytes
    }
}

/// The file at `p` has exactly the length `e` records: a missing or
/// shorter file is truncated, a longer one corrupt.
fn check_len(p: &Path, e: &ManifestEntry) -> Result<()> {
    let truncated = |actual| GraphError::Truncated {
        path: p.to_path_buf(),
        expected: e.len,
        actual,
    };
    let actual = std::fs::metadata(p).map_err(|_| truncated(0))?.len();
    if actual < e.len {
        return Err(truncated(actual));
    }
    if actual > e.len {
        return Err(GraphError::Corrupt {
            path: p.to_path_buf(),
            detail: format!(
                "file grew past the manifest ({} bytes recorded, {actual} found)",
                e.len
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-mft-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn fake_graph(base: &Path) {
        std::fs::write(suffixed(base, ".deg"), vec![1u8; 40]).unwrap();
        std::fs::write(suffixed(base, ".adj"), vec![2u8; 8000]).unwrap();
        std::fs::write(suffixed(base, ".skt"), vec![3u8; 80]).unwrap();
    }

    #[test]
    fn capture_store_load_round_trip() {
        let base = tmpbase("rt");
        fake_graph(&base);
        let m = Manifest::capture_and_store(&base).unwrap();
        assert_eq!(m.entries.len(), 3);
        assert_eq!(m.entries[0].ext, ".deg");
        assert_eq!(m.entries[1].len, 8000);
        let loaded = Manifest::load(&base).unwrap().expect("manifest present");
        assert_eq!(loaded, m);
        assert!(
            !suffixed(&base, ".mft-tmp").exists(),
            "tmp file renamed away"
        );
    }

    #[test]
    fn absent_manifest_is_none() {
        assert!(Manifest::load(&tmpbase("absent")).unwrap().is_none());
    }

    #[test]
    fn quick_catches_truncation_and_small_file_corruption() {
        let base = tmpbase("quick");
        fake_graph(&base);
        let m = Manifest::capture_and_store(&base).unwrap();
        m.verify_quick(&base).unwrap();

        // Truncate the big file: caught by the length check alone.
        let adj = suffixed(&base, ".adj");
        let keep = std::fs::read(&adj).unwrap();
        std::fs::write(&adj, &keep[..4000]).unwrap();
        match m.verify_quick(&base).unwrap_err() {
            GraphError::Truncated {
                expected, actual, ..
            } => {
                assert_eq!((expected, actual), (8000, 4000));
            }
            other => panic!("expected Truncated, got {other}"),
        }
        std::fs::write(&adj, &keep).unwrap();

        // Flip a bit in a small file: caught by the quick digest.
        let skt = suffixed(&base, ".skt");
        let mut b = std::fs::read(&skt).unwrap();
        b[10] ^= 0x40;
        std::fs::write(&skt, &b).unwrap();
        assert!(matches!(
            m.verify_quick(&base).unwrap_err(),
            GraphError::Corrupt { .. }
        ));
    }

    #[test]
    fn full_catches_bitflip_quick_misses() {
        let base = tmpbase("full");
        fake_graph(&base);
        let m = Manifest::capture_and_store(&base).unwrap();

        // Flip one bit deep inside the 8000-byte .adj (> QUICK_DIGEST_MAX).
        let adj = suffixed(&base, ".adj");
        let mut b = std::fs::read(&adj).unwrap();
        b[7000] ^= 0x01;
        std::fs::write(&adj, &b).unwrap();

        m.verify_quick(&base).unwrap(); // length unchanged: quick passes
        let err = m.verify_full(&base).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt { .. }), "{err}");

        b[7000] ^= 0x01;
        std::fs::write(&adj, &b).unwrap();
        let report = m.verify_full(&base).unwrap();
        assert_eq!(report.files, 3);
        assert_eq!(report.bytes, 40 + 8000 + 80);
    }

    #[test]
    fn manifest_self_check_detects_its_own_corruption() {
        let base = tmpbase("selfcheck");
        fake_graph(&base);
        Manifest::capture_and_store(&base).unwrap();
        let p = Manifest::path_for(&base);
        let mut b = std::fs::read(&p).unwrap();
        b[6] ^= 0xFF;
        std::fs::write(&p, &b).unwrap();
        assert!(matches!(
            Manifest::load(&base).unwrap_err(),
            GraphError::Corrupt { .. }
        ));
        // Garbage and truncated manifests are typed errors, not panics.
        std::fs::write(&p, b"junk").unwrap();
        assert!(Manifest::load(&base).is_err());
        std::fs::write(&p, [0u8; 17]).unwrap();
        assert!(Manifest::load(&base).is_err());
    }

    #[test]
    fn missing_covered_file_is_truncated_to_zero() {
        let base = tmpbase("missing");
        fake_graph(&base);
        let m = Manifest::capture_and_store(&base).unwrap();
        std::fs::remove_file(suffixed(&base, ".skt")).unwrap();
        assert!(matches!(
            m.verify_quick(&base).unwrap_err(),
            GraphError::Truncated { actual: 0, .. }
        ));
    }
}
