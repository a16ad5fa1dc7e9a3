//! Deterministic disk-fault injection.
//!
//! The compute-fault plan (`FaultPlan` in `pdtl-cluster`, the CLI's
//! `--fault`) injects crashes, stalls and copy failures; this module
//! injects *storage* faults — the bit flips, truncations and torn
//! writes the integrity layer exists to catch. A [`DiskFaultPlan`]
//! names graph files by extension and mutates them in place, seeded so
//! every run of a test is reproducible:
//!
//! ```text
//! bitflip@adj:97;truncate@skt:55
//! ```
//!
//! Grammar: `;`-separated specs of the form `<kind>@<target>[:<seed>]`
//! where `<kind>` is `bitflip` | `truncate` | `torn` and `<target>` is
//! a graph-file extension without the dot (`deg`, `adj`, `hdr`, `vix`,
//! `map`, `skt`, `mft`). The seed defaults to 1 and picks the fault
//! offset deterministically from the file length. A malformed plan is a
//! typed error, never the empty plan.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::{IoError, Result};

/// The graph file a disk fault targets, by extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The degree array (`.deg`).
    Deg,
    /// The adjacency payload (`.adj`).
    Adj,
    /// The codec header (`.hdr`).
    Hdr,
    /// The varint fencepost index (`.vix`).
    Vix,
    /// The rank map (`.map`).
    Map,
    /// The per-rank scan-sketch sidecar (`.skt`).
    Skt,
    /// The integrity manifest itself (`.mft`).
    Mft,
}

impl FaultTarget {
    /// All targets, in manifest extension-code order.
    pub const ALL: [FaultTarget; 7] = [
        FaultTarget::Deg,
        FaultTarget::Adj,
        FaultTarget::Hdr,
        FaultTarget::Vix,
        FaultTarget::Map,
        FaultTarget::Skt,
        FaultTarget::Mft,
    ];

    /// The file extension this target names, dot included.
    pub fn ext(self) -> &'static str {
        match self {
            FaultTarget::Deg => ".deg",
            FaultTarget::Adj => ".adj",
            FaultTarget::Hdr => ".hdr",
            FaultTarget::Vix => ".vix",
            FaultTarget::Map => ".map",
            FaultTarget::Skt => ".skt",
            FaultTarget::Mft => ".mft",
        }
    }

    /// Parse a dotless extension name (`"adj"`), or `None`.
    pub fn parse(s: &str) -> Option<FaultTarget> {
        Self::ALL.iter().copied().find(|t| &t.ext()[1..] == s)
    }
}

/// What kind of damage to inflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFaultKind {
    /// Flip one seeded bit in place (silent media corruption).
    BitFlip,
    /// Truncate the file to a seeded shorter length (lost tail).
    Truncate,
    /// Invert a seeded ~256-byte window in place, modeling a sector
    /// that persisted stale bytes during a torn write.
    TornWrite,
}

impl DiskFaultKind {
    fn parse(s: &str) -> Option<DiskFaultKind> {
        match s {
            "bitflip" => Some(DiskFaultKind::BitFlip),
            "truncate" => Some(DiskFaultKind::Truncate),
            "torn" => Some(DiskFaultKind::TornWrite),
            _ => None,
        }
    }
}

/// One parsed fault: a kind, a target file, and a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFaultSpec {
    /// Damage to inflict.
    pub kind: DiskFaultKind,
    /// Which graph file to damage.
    pub target: FaultTarget,
    /// Deterministic offset seed.
    pub seed: u64,
}

impl DiskFaultSpec {
    /// Apply this fault to `<base><ext>`. Returns the damaged path, or
    /// `Ok(None)` when the target file does not exist (plans are
    /// codec-generic; a raw graph has no `.vix` to corrupt) or is
    /// empty.
    pub fn apply(&self, base: &Path) -> Result<Option<PathBuf>> {
        let mut p = base.as_os_str().to_owned();
        p.push(self.target.ext());
        let path = PathBuf::from(p);
        let len = match std::fs::metadata(&path) {
            Ok(md) => md.len(),
            Err(_) => return Ok(None),
        };
        if len == 0 {
            return Ok(None);
        }
        match self.kind {
            DiskFaultKind::BitFlip => {
                let off = self.seed % len;
                let bit = (self.seed / len.max(1)) % 8;
                let mut f = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .map_err(|e| IoError::os("open", &path, e))?;
                let mut b = [0u8; 1];
                f.seek(SeekFrom::Start(off))
                    .map_err(|e| IoError::os("seek", &path, e))?;
                f.read_exact(&mut b)
                    .map_err(|e| IoError::os("read", &path, e))?;
                b[0] ^= 1 << bit;
                f.seek(SeekFrom::Start(off))
                    .map_err(|e| IoError::os("seek", &path, e))?;
                f.write_all(&b)
                    .map_err(|e| IoError::os("write", &path, e))?;
                f.sync_all().map_err(|e| IoError::os("sync", &path, e))?;
            }
            DiskFaultKind::Truncate => {
                let new_len = self.seed % len; // always strictly shorter
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| IoError::os("open", &path, e))?;
                f.set_len(new_len)
                    .map_err(|e| IoError::os("truncate", &path, e))?;
                f.sync_all().map_err(|e| IoError::os("sync", &path, e))?;
            }
            DiskFaultKind::TornWrite => {
                let off = self.seed % len;
                let window = 256.min(len - off) as usize;
                let mut f = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .map_err(|e| IoError::os("open", &path, e))?;
                let mut buf = vec![0u8; window];
                f.seek(SeekFrom::Start(off))
                    .map_err(|e| IoError::os("seek", &path, e))?;
                f.read_exact(&mut buf)
                    .map_err(|e| IoError::os("read", &path, e))?;
                // Bit-inverting guarantees every byte in the window
                // changes, keeping seeded plans deterministic.
                for b in &mut buf {
                    *b = !*b;
                }
                f.seek(SeekFrom::Start(off))
                    .map_err(|e| IoError::os("seek", &path, e))?;
                f.write_all(&buf)
                    .map_err(|e| IoError::os("write", &path, e))?;
                f.sync_all().map_err(|e| IoError::os("sync", &path, e))?;
            }
        }
        Ok(Some(path))
    }
}

/// A parsed disk-fault plan: zero or more specs applied in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskFaultPlan {
    /// The faults, in plan order.
    pub specs: Vec<DiskFaultSpec>,
}

impl DiskFaultPlan {
    /// Parse a plan string (see module docs for the grammar). The empty
    /// string parses to the empty plan.
    pub fn parse(s: &str) -> Result<DiskFaultPlan> {
        let mut specs = Vec::new();
        for raw in s.split(';') {
            let part = raw.trim();
            if part.is_empty() {
                continue;
            }
            specs.push(parse_spec(part)?);
        }
        Ok(DiskFaultPlan { specs })
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Apply every spec against `base`, returning the paths actually
    /// damaged (specs whose target file is absent are skipped).
    pub fn apply(&self, base: &Path) -> Result<Vec<PathBuf>> {
        let mut hit = Vec::new();
        for spec in &self.specs {
            if let Some(p) = spec.apply(base)? {
                hit.push(p);
            }
        }
        Ok(hit)
    }
}

fn bad_plan(detail: String) -> IoError {
    IoError::malformed(Path::new("<disk fault plan>"), detail)
}

fn parse_spec(part: &str) -> Result<DiskFaultSpec> {
    let (kind_s, rest) = part
        .split_once('@')
        .ok_or_else(|| bad_plan(format!("spec `{part}` missing `@target`")))?;
    let kind = DiskFaultKind::parse(kind_s)
        .ok_or_else(|| bad_plan(format!("unknown disk fault kind `{kind_s}`")))?;
    let (target_s, seed_s) = match rest.split_once(':') {
        Some((t, s)) => (t, Some(s)),
        None => (rest, None),
    };
    let target = FaultTarget::parse(target_s)
        .ok_or_else(|| bad_plan(format!("unknown fault target `{target_s}`")))?;
    let seed = match seed_s {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| bad_plan(format!("bad seed `{s}` in `{part}`")))?,
        None => 1,
    };
    Ok(DiskFaultSpec { kind, target, seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-diskfault-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn parses_full_grammar() {
        let plan = DiskFaultPlan::parse("bitflip@adj:97; truncate@skt:55;torn@deg").unwrap();
        assert_eq!(
            plan.specs,
            vec![
                DiskFaultSpec {
                    kind: DiskFaultKind::BitFlip,
                    target: FaultTarget::Adj,
                    seed: 97
                },
                DiskFaultSpec {
                    kind: DiskFaultKind::Truncate,
                    target: FaultTarget::Skt,
                    seed: 55
                },
                DiskFaultSpec {
                    kind: DiskFaultKind::TornWrite,
                    target: FaultTarget::Deg,
                    seed: 1
                },
            ]
        );
        assert!(DiskFaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in ["bitflip", "melt@adj", "bitflip@exe", "bitflip@adj:xyz"] {
            assert!(DiskFaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn bitflip_changes_exactly_one_bit() {
        let base = scratch("flip");
        let mut p = base.as_os_str().to_owned();
        p.push(".adj");
        let path = PathBuf::from(p);
        let data = vec![0xA5u8; 1000];
        std::fs::write(&path, &data).unwrap();
        let plan = DiskFaultPlan::parse("bitflip@adj:12345").unwrap();
        let hit = plan.apply(&base).unwrap();
        assert_eq!(hit, vec![path.clone()]);
        let after = std::fs::read(&path).unwrap();
        let diff_bits: u32 = data
            .iter()
            .zip(&after)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
    }

    #[test]
    fn truncate_shortens_and_torn_rewrites_window() {
        let base = scratch("tt");
        let mk = |ext: &str, len: usize| {
            let mut p = base.as_os_str().to_owned();
            p.push(ext);
            let path = PathBuf::from(p);
            std::fs::write(&path, vec![0x3Cu8; len]).unwrap();
            path
        };
        let deg = mk(".deg", 800);
        let skt = mk(".skt", 640);
        let plan = DiskFaultPlan::parse("truncate@skt:9999;torn@deg:3").unwrap();
        let hit = plan.apply(&base).unwrap();
        assert_eq!(hit.len(), 2);
        assert!(std::fs::metadata(&skt).unwrap().len() < 640);
        let after = std::fs::read(&deg).unwrap();
        assert_eq!(after.len(), 800);
        assert!(after.contains(&!0x3Cu8));
    }

    #[test]
    fn absent_target_is_skipped() {
        let base = scratch("absent");
        let plan = DiskFaultPlan::parse("bitflip@vix:7").unwrap();
        assert!(plan.apply(&base).unwrap().is_empty());
    }

    #[test]
    fn same_seed_is_deterministic() {
        let base = scratch("det");
        let mut p = base.as_os_str().to_owned();
        p.push(".map");
        let path = PathBuf::from(p);
        let spec = DiskFaultSpec {
            kind: DiskFaultKind::BitFlip,
            target: FaultTarget::Map,
            seed: 424_242,
        };
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            std::fs::write(&path, vec![0u8; 512]).unwrap();
            spec.apply(&base).unwrap();
            outcomes.push(std::fs::read(&path).unwrap());
        }
        assert_eq!(outcomes[0], outcomes[1]);
    }
}
