//! Deterministic read-fault injection at the [`U32Source`] seam.
//!
//! [`FaultySource`] wraps any [`U32Source`] and fails with a
//! [`IoError::Malformed`](crate::IoError) "injected short read" once a
//! configured number of values has been delivered. The cluster layer
//! uses it to simulate a node whose replica goes bad mid-scan (a
//! truncated file, a dying disk) without touching real storage, so
//! fault-tolerance tests stay deterministic and hermetic.
//!
//! Positioning calls (`seek_to` / `skip`) are passed through unchanged
//! and do not count against the budget: the fault models data delivery
//! failing, not the seek machinery, and keeping the trigger tied to
//! values *read* makes the failure point independent of the access
//! pattern's seek/skip mix.

use crate::error::{IoError, Result};
use crate::stream::U32Source;

/// A [`U32Source`] that delivers at most `budget` values and then
/// errors on every subsequent read, emulating a short read / truncated
/// replica at a deterministic offset. A second mode
/// ([`with_bitflip`](Self::with_bitflip)) instead corrupts one value
/// *silently* in flight, modeling media corruption the transport
/// cannot see — the case only end-to-end digests catch.
#[derive(Debug)]
pub struct FaultySource<S> {
    inner: S,
    /// Values still deliverable before the injected failure.
    remaining: u64,
    /// Silent corruption: XOR `mask` into the value at source `index`.
    flip: Option<(u64, u32)>,
}

impl<S: U32Source> FaultySource<S> {
    /// Wrap `inner`, allowing `budget` values to be read before the
    /// injected failure fires.
    pub fn new(inner: S, budget: u64) -> Self {
        FaultySource {
            inner,
            remaining: budget,
            flip: None,
        }
    }

    /// Wrap `inner` so the value at source index `index` is delivered
    /// XOR-ed with `mask` (no read budget). Unlike the short-read mode
    /// this fault is *silent*: reads succeed and the corrupted value
    /// flows into the engine, which is exactly why checksummed
    /// manifests exist — transports cannot detect it.
    pub fn with_bitflip(inner: S, index: u64, mask: u32) -> Self {
        FaultySource {
            inner,
            remaining: u64::MAX,
            flip: Some((index, mask)),
        }
    }

    /// Whether a request for `n` values may be lent from the inner
    /// source as is: the budget covers all of it and nothing is to be
    /// corrupted in flight.
    fn covers(&self, n: usize) -> bool {
        self.flip.is_none() && self.remaining >= n as u64
    }

    fn exhausted(&self) -> IoError {
        IoError::malformed(
            "<fault-injected>",
            "injected short read: source budget exhausted",
        )
    }
}

impl<S: U32Source> U32Source for FaultySource<S> {
    fn len_u32(&self) -> u64 {
        self.inner.len_u32()
    }

    fn position(&self) -> u64 {
        self.inner.position()
    }

    fn seek_to(&mut self, index: u64) -> Result<()> {
        self.inner.seek_to(index)
    }

    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize> {
        if n == 0 {
            return Ok(0);
        }
        if self.remaining == 0 {
            return Err(self.exhausted());
        }
        let allowed = self.remaining.min(n as u64) as usize;
        let before = self.inner.position();
        let got = self.inner.read_into(out, allowed)?;
        self.remaining -= got as u64;
        if let Some((index, mask)) = self.flip {
            if index >= before && index < before + got as u64 {
                let slot = out.len() - got + (index - before) as usize;
                out[slot] ^= mask;
            }
        }
        if got == 0 && allowed < n {
            // At EOF with the budget smaller than the request: report
            // honest EOF rather than a fault — the budget only fires
            // on data that would otherwise have been delivered.
            return Ok(0);
        }
        Ok(got)
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        self.inner.skip(n)
    }

    fn path(&self) -> &std::path::Path {
        self.inner.path()
    }

    /// Lends the inner run (zero-copy where the transport lends) while
    /// the fault does not touch the request; otherwise copies through
    /// [`read_into`](Self::read_into), which applies it.
    fn next_run<'a>(&'a mut self, n: usize, scratch: &'a mut Vec<u32>) -> Result<&'a [u32]> {
        if !self.covers(n) {
            scratch.clear();
            self.read_into(scratch, n)?;
            return Ok(scratch);
        }
        let run = self.inner.next_run(n, scratch)?;
        self.remaining -= run.len() as u64;
        Ok(run)
    }

    /// As [`next_run`](Self::next_run), else the provided seek +
    /// `read_into`.
    fn range_run<'a>(
        &'a mut self,
        pos: u64,
        len: usize,
        scratch: &'a mut Vec<u32>,
    ) -> Result<&'a [u32]> {
        if !self.covers(len) {
            self.read_exact_range(pos, len, scratch)?;
            return Ok(scratch);
        }
        let run = self.inner.range_run(pos, len, scratch)?;
        self.remaining -= run.len() as u64;
        Ok(run)
    }

    fn hint_range(&mut self, pos: u64, len: usize) {
        self.inner.hint_range(pos, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoStats;
    use crate::stream::U32Writer;
    use std::sync::Arc;

    fn write_values(dir: &std::path::Path, vals: &[u32]) -> std::path::PathBuf {
        let path = dir.join("vals.u32");
        let stats = Arc::new(IoStats::default());
        let mut w = U32Writer::create(&path, stats).unwrap();
        w.write_all(vals).unwrap();
        w.finish().unwrap();
        path
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pdtl-fault-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn delivers_exactly_budget_then_errors() {
        let dir = temp_dir("budget");
        let path = write_values(&dir, &[1, 2, 3, 4, 5, 6]);
        let stats = Arc::new(IoStats::default());
        let reader = crate::stream::U32Reader::open(&path, stats).unwrap();
        let mut src = FaultySource::new(reader, 4);
        let mut out = Vec::new();
        assert_eq!(src.read_into(&mut out, 3).unwrap(), 3);
        assert_eq!(src.read_into(&mut out, 3).unwrap(), 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
        let err = src.read_into(&mut out, 1).unwrap_err();
        assert!(err.to_string().contains("injected short read"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_requests_and_positioning_do_not_consume_budget() {
        let dir = temp_dir("seek");
        let path = write_values(&dir, &[10, 20, 30]);
        let stats = Arc::new(IoStats::default());
        let reader = crate::stream::U32Reader::open(&path, stats).unwrap();
        let mut src = FaultySource::new(reader, 2);
        let mut out = Vec::new();
        assert_eq!(src.read_into(&mut out, 0).unwrap(), 0);
        src.seek_to(1).unwrap();
        src.skip(1).unwrap();
        assert_eq!(src.position(), 2);
        assert_eq!(src.read_into(&mut out, 1).unwrap(), 1);
        assert_eq!(out, vec![30]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_corrupts_silently_at_the_seeded_index() {
        let dir = temp_dir("flip");
        let path = write_values(&dir, &[10, 20, 30, 40, 50]);
        let stats = Arc::new(IoStats::default());
        let reader = crate::stream::U32Reader::open(&path, stats).unwrap();
        let mut src = FaultySource::with_bitflip(reader, 3, 0x8000_0001);
        let mut out = Vec::new();
        assert_eq!(src.read_into(&mut out, 2).unwrap(), 2);
        assert_eq!(src.read_into(&mut out, 3).unwrap(), 3);
        assert_eq!(out, vec![10, 20, 30, 40 ^ 0x8000_0001, 50]);
        // Re-reading the same index corrupts again: the fault models
        // bad media, not a one-shot glitch.
        src.seek_to(3).unwrap();
        out.clear();
        assert_eq!(src.read_into(&mut out, 1).unwrap(), 1);
        assert_eq!(out, vec![40 ^ 0x8000_0001]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn honest_eof_is_not_a_fault() {
        let dir = temp_dir("eof");
        let path = write_values(&dir, &[7]);
        let stats = Arc::new(IoStats::default());
        let reader = crate::stream::U32Reader::open(&path, stats).unwrap();
        let mut src = FaultySource::new(reader, 100);
        let mut out = Vec::new();
        assert_eq!(src.read_into(&mut out, 8).unwrap(), 1);
        assert_eq!(src.read_into(&mut out, 8).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_boxed_fault_wrapped_mapping_still_lends_its_runs() {
        if !crate::mmap_supported() {
            return;
        }
        let dir = temp_dir("lend");
        let vals: Vec<u32> = (0..5_000).collect();
        let path = write_values(&dir, &vals);
        let open = |budget| -> Box<dyn U32Source> {
            let map = crate::MmapSource::with_block(&path, IoStats::new(), 512).unwrap();
            Box::new(FaultySource::new(map.boxed(), budget))
        };

        let mut src = open(u64::MAX);
        let mut scratch = Vec::new();
        let mapping = src
            .range_run(0, 5_000, &mut scratch)
            .unwrap()
            .as_ptr_range();
        src.seek_to(1_200).unwrap();
        let run = src.next_run(700, &mut scratch).unwrap();
        assert_eq!(run, &vals[1_200..1_900]);
        assert!(mapping.contains(&run.as_ptr()), "borrowed from the mapping");
        let run = src.range_run(4_000, 1_000, &mut scratch).unwrap();
        assert!(mapping.contains(&run.as_ptr()) && run == &vals[4_000..]);
        assert!(scratch.is_empty(), "lent runs never touch the scratch");

        // A budget that runs out mid-request copies what it still
        // covers, then fails typed — through both forms.
        let mut src = open(1_000);
        assert_eq!(src.next_run(900, &mut scratch).unwrap().len(), 900);
        assert_eq!(src.next_run(900, &mut scratch).unwrap(), &vals[900..1_000]);
        let err = src.next_run(1, &mut scratch).unwrap_err();
        assert!(err.to_string().contains("injected short read"), "{err}");
        let err = src.range_run(0, 10, &mut scratch).unwrap_err();
        assert!(err.to_string().contains("injected short read"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
