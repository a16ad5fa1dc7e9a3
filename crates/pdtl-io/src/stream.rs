//! Buffered, counted little-endian `u32` file streams.
//!
//! Every PDTL graph file is a flat stream of little-endian `u32`s (degrees
//! in `.deg`, neighbour ids in `.adj`), matching the binary format of the
//! original MGT implementation the paper builds on. These wrappers add:
//!
//! * buffering in block-sized chunks, so the block-model accounting in
//!   [`IoStats`] reflects real access patterns;
//! * byte/op/time counting on every refill and flush;
//! * positioned reads (`seek_to`), counted as seeks.
//!
//! Positioning guarantees: `seek_to` and `skip` clamp to end-of-file (a
//! reader's position never exceeds [`U32Reader::len_u32`], so
//! `read_all` can never underflow its remaining count), and `skip`
//! coalesces short forward skips into buffered read-through — only a
//! skip landing beyond one buffer refill pays an OS seek. Bound-pruned
//! scans that skip many consecutive short out-lists therefore stay
//! sequential on disk instead of degenerating into a seek storm.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::error::{IoError, Result};
use crate::stats::IoStats;

/// Size of one encoded `u32` in the on-disk format.
pub const BYTES_PER_U32: u64 = 4;

/// Default stream buffer: one 64 KiB block. Shared with
/// [`MmapSource`](crate::MmapSource) so backends account in identical
/// block units by default.
pub(crate) const DEFAULT_BUF_U32S: usize = 16 * 1024;

/// A buffered reader of little-endian `u32`s with I/O accounting.
#[derive(Debug)]
pub struct U32Reader {
    file: File,
    path: PathBuf,
    stats: Arc<IoStats>,
    buf: Vec<u8>,
    /// Valid bytes in `buf`.
    filled: usize,
    /// Consumed bytes in `buf`.
    pos: usize,
    /// Total `u32`s in the file.
    len_u32: u64,
    /// Index of the next `u32` to be returned.
    next_index: u64,
    /// Emulated device latency added to every refill (see
    /// [`set_read_latency`](Self::set_read_latency)).
    read_latency: std::time::Duration,
}

impl U32Reader {
    /// Open `path` for reading with the default buffer size.
    pub fn open(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Self::with_buffer(path, stats, DEFAULT_BUF_U32S)
    }

    /// Open `path` with a buffer of `buf_u32s` values (minimum 1).
    pub fn with_buffer(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        buf_u32s: usize,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| IoError::os("open", &path, e))?;
        let meta = file.metadata().map_err(|e| IoError::os("stat", &path, e))?;
        if meta.len() % BYTES_PER_U32 != 0 {
            return Err(IoError::malformed(
                &path,
                format!("size {} is not a multiple of 4", meta.len()),
            ));
        }
        Ok(Self {
            file,
            len_u32: meta.len() / BYTES_PER_U32,
            path,
            stats,
            buf: vec![0u8; buf_u32s.max(1) * BYTES_PER_U32 as usize],
            filled: 0,
            pos: 0,
            next_index: 0,
            read_latency: std::time::Duration::ZERO,
        })
    }

    /// Emulate a storage device with the given per-block-read latency:
    /// every refill sleeps `latency` before issuing the OS read, and the
    /// sleep is charged to [`IoStats`] I/O time like any other blocking
    /// read. Zero (the default) measures the real hardware.
    ///
    /// This is the I/O analogue of the cluster's `NetModel`: page-cached
    /// files never block, so ablations that compare blocking against
    /// overlapped I/O on warm fixtures need a deterministic way to
    /// recreate the device waits the paper's multi-pass bound is about.
    pub fn set_read_latency(&mut self, latency: std::time::Duration) {
        self.read_latency = latency;
    }

    /// Total number of `u32`s in the file.
    pub fn len_u32(&self) -> u64 {
        self.len_u32
    }

    /// The file this reader streams from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffer capacity in `u32`s (the block size of every refill).
    pub fn buf_u32s(&self) -> usize {
        self.buf.len() / BYTES_PER_U32 as usize
    }

    /// Decompose into the raw parts a background prefetcher needs:
    /// `(file, path, stats, buf_u32s, len_u32, read_latency)`. Any
    /// buffered-but-unread data is discarded; the consumer restarts
    /// from an explicit offset.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (File, PathBuf, Arc<IoStats>, usize, u64, std::time::Duration) {
        let buf_u32s = self.buf_u32s();
        (
            self.file,
            self.path,
            self.stats,
            buf_u32s,
            self.len_u32,
            self.read_latency,
        )
    }

    /// Index of the next value [`next`](Self::next) would return.
    pub fn position(&self) -> u64 {
        self.next_index
    }

    /// Reposition the stream to the `index`-th `u32`. Counted as a seek.
    /// Positions past end-of-file clamp to the end (subsequent reads
    /// report EOF) — they never produce an out-of-range `position`.
    pub fn seek_to(&mut self, index: u64) -> Result<()> {
        let index = index.min(self.len_u32);
        self.file
            .seek(SeekFrom::Start(index * BYTES_PER_U32))
            .map_err(|e| IoError::os("seek", &self.path, e))?;
        self.stats.record_seek();
        self.filled = 0;
        self.pos = 0;
        self.next_index = index;
        Ok(())
    }

    fn refill(&mut self) -> Result<usize> {
        let start = Instant::now();
        if !self.read_latency.is_zero() {
            std::thread::sleep(self.read_latency);
        }
        let n = self
            .file
            .read(&mut self.buf)
            .map_err(|e| IoError::os("read", &self.path, e))?;
        self.stats.record_read(n as u64, start.elapsed());
        self.filled = n;
        self.pos = 0;
        Ok(n)
    }

    /// Read the next value, or `None` at end of file.
    ///
    /// Deliberately named like `Iterator::next` — this is a fallible
    /// streaming reader, not an iterator (it returns `Result<Option<_>>`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<u32>> {
        if self.pos + 4 > self.filled {
            // A partial trailing word cannot occur: file length is a
            // multiple of 4 and refills always start 4-aligned.
            if self.refill()? == 0 {
                return Ok(None);
            }
        }
        let b = &self.buf[self.pos..self.pos + 4];
        self.pos += 4;
        self.next_index += 1;
        Ok(Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
    }

    /// Append up to `n` values onto `out`, returning how many were read
    /// (less than `n` only at end of file).
    pub fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize> {
        let mut got = 0usize;
        while got < n {
            if self.pos + 4 > self.filled && self.refill()? == 0 {
                break;
            }
            let avail = (self.filled - self.pos) / 4;
            let take = avail.min(n - got);
            let bytes = &self.buf[self.pos..self.pos + take * 4];
            out.extend(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
            self.pos += take * 4;
            got += take;
        }
        self.next_index += got as u64;
        Ok(got)
    }

    /// Read the whole remaining file into a vector.
    pub fn read_all(&mut self) -> Result<Vec<u32>> {
        // Saturate: position is clamped to len_u32, but stay safe even
        // if a future caller violates that.
        let remaining = self.len_u32.saturating_sub(self.next_index) as usize;
        let mut out = Vec::with_capacity(remaining);
        self.read_into(&mut out, remaining)?;
        Ok(out)
    }

    /// Seek to `pos` and read exactly `len` values into `out` (cleared
    /// first); errors if the range reaches past end of file. The one
    /// chunk-load primitive shared by the blocking and prefetching MGT
    /// chunk sources, so their failure behaviour cannot drift.
    pub fn read_exact_range(&mut self, pos: u64, len: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        self.seek_to(pos)?;
        let got = self.read_into(out, len)?;
        if got != len {
            return Err(IoError::malformed(
                &self.path,
                format!("chunk [{pos}, {pos}+{len}) reaches past end of file"),
            ));
        }
        Ok(())
    }

    /// Skip `n` values without decoding them (clamped at end-of-file).
    ///
    /// A skip that stays within the buffered data just advances the
    /// cursor. A skip reaching at most one refill beyond it is
    /// *read through* — the buffer is refilled sequentially and the
    /// skipped values discarded — so consecutive short skips (a
    /// bound-pruned scan) never leave the sequential read path. Only a
    /// skip landing beyond the next refill pays an OS seek.
    pub fn skip(&mut self, n: u64) -> Result<()> {
        let n = n.min(self.len_u32.saturating_sub(self.next_index));
        let buffered = ((self.filled - self.pos) / 4) as u64;
        if n <= buffered {
            self.pos += (n * 4) as usize;
            self.next_index += n;
            return Ok(());
        }
        let beyond = n - buffered;
        if beyond <= (self.buf.len() / 4) as u64 {
            self.pos = self.filled;
            self.next_index += buffered;
            let mut left = beyond;
            while left > 0 {
                if self.refill()? == 0 {
                    break;
                }
                let take = ((self.filled / 4) as u64).min(left);
                self.pos = (take * 4) as usize;
                self.next_index += take;
                left -= take;
            }
            Ok(())
        } else {
            self.seek_to(self.next_index + n)
        }
    }
}

/// The positioned-read interface shared by [`U32Reader`] and the
/// overlapped [`PrefetchReader`](crate::prefetch::PrefetchReader), so
/// stream consumers (the MGT scan pass) can swap blocking for
/// prefetching I/O without changing their logic. Both implementations
/// follow the same positioning contract: positions clamp at
/// end-of-file, short skips read through, long skips count as seeks.
pub trait U32Source {
    /// Total number of `u32`s in the file.
    fn len_u32(&self) -> u64;

    /// Index of the next value a read would return.
    fn position(&self) -> u64;

    /// Reposition to the `index`-th `u32` (clamped; counted as a seek).
    fn seek_to(&mut self, index: u64) -> Result<()>;

    /// Append up to `n` values onto `out`, returning how many were read.
    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize>;

    /// Skip `n` values (clamped; short skips coalesce to read-through).
    fn skip(&mut self, n: u64) -> Result<()>;

    /// Seek to `pos` and read exactly `len` values into `out` (cleared
    /// first); errors if the range reaches past end of file. Provided in
    /// terms of [`seek_to`](Self::seek_to) + [`read_into`](Self::read_into)
    /// so every source — including codec-wrapped ones, where positions
    /// are *decoded* indices — shares one chunk-load primitive.
    fn read_exact_range(&mut self, pos: u64, len: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        self.seek_to(pos)?;
        let got = self.read_into(out, len)?;
        if got != len {
            return Err(IoError::malformed(
                "<u32 stream>",
                format!("chunk [{pos}, {pos}+{len}) reaches past end of file"),
            ));
        }
        Ok(())
    }
}

impl U32Source for U32Reader {
    fn len_u32(&self) -> u64 {
        U32Reader::len_u32(self)
    }

    fn position(&self) -> u64 {
        U32Reader::position(self)
    }

    fn seek_to(&mut self, index: u64) -> Result<()> {
        U32Reader::seek_to(self, index)
    }

    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize> {
        U32Reader::read_into(self, out, n)
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        U32Reader::skip(self, n)
    }
}

/// A boxed source is a source, so a consumer that takes its transport
/// by value (a codec layer) can be built once over whichever backend
/// was opened at run time.
impl<S: U32Source + ?Sized> U32Source for Box<S> {
    fn len_u32(&self) -> u64 {
        (**self).len_u32()
    }

    fn position(&self) -> u64 {
        (**self).position()
    }

    fn seek_to(&mut self, index: u64) -> Result<()> {
        (**self).seek_to(index)
    }

    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize> {
        (**self).read_into(out, n)
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        (**self).skip(n)
    }

    fn read_exact_range(&mut self, pos: u64, len: usize, out: &mut Vec<u32>) -> Result<()> {
        (**self).read_exact_range(pos, len, out)
    }
}

/// A buffered writer of little-endian `u32`s with I/O accounting.
#[derive(Debug)]
pub struct U32Writer {
    file: File,
    path: PathBuf,
    stats: Arc<IoStats>,
    buf: Vec<u8>,
    /// Flush threshold in bytes (explicit: `Vec::with_capacity` may
    /// round up, and the flush condition must not depend on that).
    cap: usize,
    written_u32: u64,
}

impl U32Writer {
    /// Create (truncate) `path` for writing with the default buffer.
    pub fn create(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Self::with_buffer(path, stats, DEFAULT_BUF_U32S)
    }

    /// Create `path` with a buffer of `buf_u32s` values.
    pub fn with_buffer(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        buf_u32s: usize,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path).map_err(|e| IoError::os("create", &path, e))?;
        let cap = buf_u32s.max(1) * BYTES_PER_U32 as usize;
        Ok(Self {
            file,
            path,
            stats,
            buf: Vec::with_capacity(cap),
            cap,
            written_u32: 0,
        })
    }

    /// Number of values written so far (including buffered ones).
    pub fn written_u32(&self) -> u64 {
        self.written_u32
    }

    /// Append one value.
    pub fn write(&mut self, v: u32) -> Result<()> {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.written_u32 += 1;
        if self.buf.len() >= self.cap {
            self.flush_buf()?;
        }
        Ok(())
    }

    /// Append a slice of values, encoding buffer-sized runs at a time
    /// (one capacity check per run, not one per value).
    pub fn write_all(&mut self, vs: &[u32]) -> Result<()> {
        let mut rest = vs;
        while !rest.is_empty() {
            if self.buf.len() >= self.cap {
                self.flush_buf()?;
            }
            let room = ((self.cap - self.buf.len()) / BYTES_PER_U32 as usize).max(1);
            let (now, later) = rest.split_at(room.min(rest.len()));
            for &v in now {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
            self.written_u32 += now.len() as u64;
            rest = later;
        }
        if self.buf.len() >= self.cap {
            self.flush_buf()?;
        }
        Ok(())
    }

    fn flush_buf(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        self.file
            .write_all(&self.buf)
            .map_err(|e| IoError::os("write", &self.path, e))?;
        self.stats
            .record_write(self.buf.len() as u64, start.elapsed());
        self.buf.clear();
        Ok(())
    }

    /// Flush buffers and make the file durable; must be called before
    /// dropping if the data matters (drop also flushes, but swallows
    /// errors and does not sync). `sync_all` before close means a
    /// crash immediately after a graph write — or after `copy_to`
    /// lands a replica — cannot lose acknowledged bytes, which is the
    /// contract the integrity manifest's digests are recorded against.
    pub fn finish(mut self) -> Result<u64> {
        self.flush_buf()?;
        self.file
            .flush()
            .map_err(|e| IoError::os("flush", &self.path, e))?;
        self.file
            .sync_all()
            .map_err(|e| IoError::os("sync", &self.path, e))?;
        Ok(self.written_u32)
    }
}

impl Drop for U32Writer {
    fn drop(&mut self) {
        let _ = self.flush_buf();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn round_trip_small() {
        let p = tmp("rt-small");
        let stats = IoStats::new();
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&[1, 2, 3, u32::MAX]).unwrap();
        assert_eq!(w.finish().unwrap(), 4);

        let mut r = U32Reader::open(&p, stats.clone()).unwrap();
        assert_eq!(r.len_u32(), 4);
        assert_eq!(r.read_all().unwrap(), vec![1, 2, 3, u32::MAX]);
        assert_eq!(stats.bytes_written(), 16);
        assert_eq!(stats.bytes_read(), 16);
    }

    #[test]
    fn round_trip_crosses_buffer_boundary() {
        let p = tmp("rt-buf");
        let stats = IoStats::new();
        let vals: Vec<u32> = (0..10_000).collect();
        let mut w = U32Writer::with_buffer(&p, stats.clone(), 7).unwrap();
        w.write_all(&vals).unwrap();
        w.finish().unwrap();

        let mut r = U32Reader::with_buffer(&p, stats.clone(), 13).unwrap();
        assert_eq!(r.read_all().unwrap(), vals);
    }

    #[test]
    fn next_iterates_in_order() {
        let p = tmp("next");
        let stats = IoStats::new();
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&[10, 20, 30]).unwrap();
        w.finish().unwrap();

        let mut r = U32Reader::open(&p, stats).unwrap();
        assert_eq!(r.next().unwrap(), Some(10));
        assert_eq!(r.position(), 1);
        assert_eq!(r.next().unwrap(), Some(20));
        assert_eq!(r.next().unwrap(), Some(30));
        assert_eq!(r.next().unwrap(), None);
        assert_eq!(r.next().unwrap(), None);
    }

    #[test]
    fn seek_and_skip() {
        let p = tmp("seek");
        let stats = IoStats::new();
        let vals: Vec<u32> = (100..200).collect();
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&vals).unwrap();
        w.finish().unwrap();

        let mut r = U32Reader::with_buffer(&p, stats.clone(), 8).unwrap();
        r.seek_to(50).unwrap();
        assert_eq!(r.next().unwrap(), Some(150));
        assert_eq!(stats.seeks(), 1);
        // short skip stays inside the buffer (8-u32 buffer holds 151..=157)
        r.skip(2).unwrap();
        assert_eq!(r.next().unwrap(), Some(153));
        // long skip falls back to seek
        r.skip(40).unwrap();
        assert_eq!(r.next().unwrap(), Some(194));
        assert_eq!(stats.seeks(), 2);
    }

    #[test]
    fn seek_past_eof_clamps_and_read_all_saturates() {
        // Regression: seek_to/skip used to accept positions past EOF,
        // and read_all then computed `len_u32 - next_index` on
        // `next_index > len_u32` (u64 underflow).
        let p = tmp("eof-clamp");
        let stats = IoStats::new();
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&[7, 8, 9]).unwrap();
        w.finish().unwrap();

        let mut r = U32Reader::open(&p, stats.clone()).unwrap();
        r.seek_to(1_000_000).unwrap();
        assert_eq!(r.position(), 3, "clamped to len_u32");
        assert_eq!(r.read_all().unwrap(), Vec::<u32>::new());
        assert_eq!(r.next().unwrap(), None);

        let mut r = U32Reader::open(&p, stats).unwrap();
        r.skip(u64::MAX).unwrap();
        assert_eq!(r.position(), 3, "skip clamps too");
        assert_eq!(r.read_all().unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn consecutive_short_skips_coalesce_into_read_through() {
        // Regression for the seek storm: a bound-pruned scan skipping
        // many short out-lists must stay on the sequential read path.
        let p = tmp("skip-coalesce");
        let stats = IoStats::new();
        let vals: Vec<u32> = (0..4096).collect();
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&vals).unwrap();
        w.finish().unwrap();

        // 16-u32 buffer; skip 10, read 2, repeatedly: every skip lands
        // at most one refill beyond the buffer, so zero OS seeks.
        let mut r = U32Reader::with_buffer(&p, stats.clone(), 16).unwrap();
        let mut out = Vec::new();
        let mut expect_at = 0u64;
        while r.position() + 12 < r.len_u32() {
            r.skip(10).unwrap();
            expect_at += 10;
            out.clear();
            assert_eq!(r.read_into(&mut out, 2).unwrap(), 2);
            assert_eq!(out, vec![expect_at as u32, expect_at as u32 + 1]);
            expect_at += 2;
        }
        assert_eq!(stats.seeks(), 0, "short skips must not seek");

        // A skip landing beyond one refill still falls back to a seek.
        let mut r = U32Reader::with_buffer(&p, stats.clone(), 16).unwrap();
        r.skip(100).unwrap();
        assert_eq!(stats.seeks(), 1);
        assert_eq!(r.next().unwrap(), Some(100));
    }

    #[test]
    fn bulk_write_all_matches_per_value_writes() {
        let stats = IoStats::new();
        let vals: Vec<u32> = (0..1000).map(|i| i * 3 + 1).collect();

        let p_bulk = tmp("bulk");
        let mut w = U32Writer::with_buffer(&p_bulk, stats.clone(), 37).unwrap();
        w.write_all(&vals).unwrap();
        assert_eq!(w.written_u32(), 1000);
        w.finish().unwrap();

        let p_one = tmp("one-by-one");
        let mut w = U32Writer::with_buffer(&p_one, stats.clone(), 37).unwrap();
        for &v in &vals {
            w.write(v).unwrap();
        }
        w.finish().unwrap();

        assert_eq!(
            std::fs::read(&p_bulk).unwrap(),
            std::fs::read(&p_one).unwrap(),
            "bulk and per-value writes must produce identical files"
        );
        let mut r = U32Reader::open(&p_bulk, stats).unwrap();
        assert_eq!(r.read_all().unwrap(), vals);
    }

    #[test]
    fn write_all_flushes_in_buffer_sized_ops() {
        let p = tmp("bulk-ops");
        let stats = IoStats::new();
        let mut w = U32Writer::with_buffer(&p, stats.clone(), 8).unwrap();
        w.write_all(&(0..64u32).collect::<Vec<_>>()).unwrap();
        w.finish().unwrap();
        assert_eq!(stats.bytes_written(), 256);
        assert_eq!(stats.write_ops(), 8, "one op per full 8-u32 buffer");
    }

    #[test]
    fn read_into_partial_at_eof() {
        let p = tmp("partial");
        let stats = IoStats::new();
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&[1, 2, 3]).unwrap();
        w.finish().unwrap();

        let mut r = U32Reader::open(&p, stats).unwrap();
        let mut out = Vec::new();
        assert_eq!(r.read_into(&mut out, 10).unwrap(), 3);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_non_u32_sized_file() {
        let p = tmp("badsize");
        std::fs::write(&p, [0u8; 5]).unwrap();
        let err = U32Reader::open(&p, IoStats::new()).unwrap_err();
        assert!(err.to_string().contains("multiple of 4"));
    }

    #[test]
    fn missing_file_error_names_path() {
        let p = tmp("does-not-exist-xyz");
        let _ = std::fs::remove_file(&p);
        let err = U32Reader::open(&p, IoStats::new()).unwrap_err();
        assert!(err.to_string().contains("does-not-exist-xyz"));
    }

    #[test]
    fn drop_flushes_buffered_writes() {
        let p = tmp("dropflush");
        let stats = IoStats::new();
        {
            let mut w = U32Writer::with_buffer(&p, stats.clone(), 1024).unwrap();
            w.write(42).unwrap();
            // no finish(): Drop must flush
        }
        let mut r = U32Reader::open(&p, stats).unwrap();
        assert_eq!(r.read_all().unwrap(), vec![42]);
    }

    #[test]
    fn io_time_is_recorded() {
        let p = tmp("iotime");
        let stats = IoStats::new();
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&(0..100u32).collect::<Vec<_>>()).unwrap();
        w.finish().unwrap();
        let mut r = U32Reader::open(&p, stats.clone()).unwrap();
        r.read_all().unwrap();
        assert!(stats.io_time() > std::time::Duration::ZERO);
    }
}
