//! Buffered, counted little-endian `u32` file streams.
//!
//! Every PDTL graph file is a flat stream of little-endian `u32`s (degrees
//! in `.deg`, neighbour ids in `.adj`), matching the binary format of the
//! original MGT implementation the paper builds on. This module holds the
//! read side's one cursor and the write side's one writer:
//!
//! * [`BlockStream`] — *the* stream contract: position, block window,
//!   end-of-file clamps, `read_into` across block boundaries, the
//!   three-way `skip` rule and every [`IoStats`] charge, written once
//!   over the [`BlockFetch`] seam. The four transports ([`U32Reader`],
//!   [`PrefetchReader`](crate::PrefetchReader),
//!   [`MmapSource`](crate::MmapSource), [`UringSource`](crate::UringSource))
//!   are this cursor over four fetchers, so they cannot count
//!   differently: a fetcher decides how (and how early) a block arrives,
//!   never which blocks are touched or what is charged for them.
//! * [`U32Source`] — the seam consumers program against: the cursor
//!   itself, or a layer above it (a codec, a fault injector).
//! * [`U32Writer`] — buffered, counted writes.
//!
//! Positioning guarantees: `seek_to` and `skip` clamp to end-of-file (a
//! stream's position never exceeds its `len_u32`, so `read_all` can never
//! underflow its remaining count), and `skip` coalesces short forward
//! skips into buffered read-through — only a skip landing beyond one
//! block refill counts as a seek. Bound-pruned scans that skip many
//! consecutive short out-lists therefore stay sequential on disk instead
//! of degenerating into a seek storm.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{IoError, Result};
use crate::mmap::Map;
use crate::stats::IoStats;

/// Size of one encoded `u32` in the on-disk format.
pub const BYTES_PER_U32: u64 = 4;

/// Default block: 64 KiB, for every transport, so backends account in
/// identical block units by default.
pub(crate) const DEFAULT_BUF_U32S: usize = 16 * 1024;

/// What genuinely differs between transports: how one block gets from
/// the file to the cursor. Everything else — which blocks are touched,
/// in which order, and what [`IoStats`] is charged for them — belongs
/// to [`BlockStream`].
pub trait BlockFetch: std::fmt::Debug {
    /// Deliver the block of `want` values (at least 1, inside the file)
    /// that starts at index `at` into `buf` as little-endian bytes,
    /// after the emulated device `latency`. Returns the values
    /// delivered — fewer than `want` only if the file shrank after it
    /// was opened — and the device time to charge for them. A fetcher
    /// whose stream lends the whole file leaves `buf` alone.
    fn fetch(
        &mut self,
        at: u64,
        want: usize,
        latency: Duration,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<(usize, Duration)>;

    /// The cursor repositioned: the next fetch starts at `at`, and
    /// read-ahead held for other positions is stale (it was never
    /// charged).
    fn moved_to(&mut self, _at: u64) {}

    /// Advisory: a positioned load of `[pos, pos + len)` comes next.
    fn hint(&mut self, _pos: u64, _len: usize) {}
}

/// Run-time choice of fetcher: one indirect call per block, none per
/// read, which is how the engines hold whichever backend was opened.
impl BlockFetch for Box<dyn BlockFetch> {
    fn fetch(
        &mut self,
        at: u64,
        want: usize,
        latency: Duration,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<(usize, Duration)> {
        (**self).fetch(at, want, latency, buf)
    }

    fn moved_to(&mut self, at: u64) {
        (**self).moved_to(at)
    }

    fn hint(&mut self, pos: u64, len: usize) {
        (**self).hint(pos, len)
    }
}

/// Fill `buf` from `src`, looping over short reads until it is full or
/// the source ends; returns the bytes filled. A single `read(2)` may
/// return fewer bytes than asked (a signal, FUSE, NFS), and taking a
/// `4k + r`-byte result as the block would misalign every later `u32`.
pub(crate) fn fill_block(src: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Open a `u32` stream file, returning it with its length in `u32`s.
/// The one place the "size is a multiple of 4" invariant every
/// transport relies on is checked.
pub(crate) fn open_u32_file(path: &Path) -> Result<(File, u64)> {
    let file = File::open(path).map_err(|e| IoError::os("open", path, e))?;
    let meta = file.metadata().map_err(|e| IoError::os("stat", path, e))?;
    if meta.len() % BYTES_PER_U32 != 0 {
        return Err(IoError::malformed(
            path,
            format!("size {} is not a multiple of 4", meta.len()),
        ));
    }
    Ok((file, meta.len() / BYTES_PER_U32))
}

/// The blocking fetcher: one synchronous positioned read per block.
/// Also the read primitive of the prefetch producer thread, so the two
/// cannot treat short reads differently.
#[derive(Debug)]
pub struct PreadFetch {
    file: File,
    /// Index the OS file cursor sits at; `None` after a failed read.
    cursor: Option<u64>,
}

impl PreadFetch {
    /// Read the block of `want` values at index `at` into `buf`
    /// (seeking only if the OS cursor is elsewhere); returns the values
    /// read. File length is a multiple of 4 and fixed at open time, so
    /// a short or ragged tail can only mean concurrent truncation and
    /// is cut to whole `u32`s.
    pub(crate) fn read_block(
        &mut self,
        at: u64,
        want: usize,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<usize> {
        if self.cursor.take() != Some(at) {
            self.file.seek(SeekFrom::Start(at * BYTES_PER_U32))?;
        }
        buf.resize(want * BYTES_PER_U32 as usize, 0);
        let filled = fill_block(&mut self.file, buf)?;
        buf.truncate(filled / BYTES_PER_U32 as usize * BYTES_PER_U32 as usize);
        let n = buf.len() / BYTES_PER_U32 as usize;
        self.cursor = Some(at + n as u64);
        Ok(n)
    }
}

impl BlockFetch for PreadFetch {
    fn fetch(
        &mut self,
        at: u64,
        want: usize,
        latency: Duration,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<(usize, Duration)> {
        let start = Instant::now();
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        let n = self.read_block(at, want, buf)?;
        Ok((n, start.elapsed()))
    }
}

/// The one block cursor every raw transport is: a window of one block
/// over a `u32` file, refilled through a [`BlockFetch`].
///
/// It owns the whole stream contract — see the module docs — and is the
/// only place a raw stream charges [`IoStats`]: one `record_read` per
/// block fetched (of the bytes delivered and the device time the
/// fetcher reports), one zero-byte `record_read` for a read attempted
/// at end of file, one `record_seek` per reposition. Read-ahead a
/// fetcher discards is never charged.
#[derive(Debug)]
pub struct BlockStream<F> {
    fetch: F,
    path: PathBuf,
    stats: Arc<IoStats>,
    /// Total `u32`s in the file (fixed at open).
    len_u32: u64,
    /// Index of the next value a read returns.
    next_index: u64,
    /// The current block's bytes (unused when the file is lent).
    buf: Vec<u8>,
    /// Values in the current block, and how many are consumed. The
    /// block after it starts at `next_index + (filled - pos)`.
    filled: usize,
    pos: usize,
    /// Block size in `u32`s: the refill and accounting granularity.
    block_u32s: usize,
    /// Emulated device latency per block (see
    /// [`set_read_latency`](Self::set_read_latency)).
    read_latency: Duration,
    /// The whole file, when the transport maps it: values are then
    /// served from here — runs borrowed, not copied — and the window
    /// above only does the accounting.
    lent: Option<Arc<Map>>,
    /// The range [`hint_range`](U32Source::hint_range) announced, held
    /// until the load before it completes.
    hinted: Option<(u64, usize)>,
}

/// The blocking transport: [`BlockStream`] over synchronous reads.
pub type U32Reader = BlockStream<PreadFetch>;

impl U32Reader {
    /// Open `path` for reading with the default block size.
    pub fn open(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Self::with_buffer(path, stats, DEFAULT_BUF_U32S)
    }

    /// Open `path` with a block of `buf_u32s` values (minimum 1).
    pub fn with_buffer(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        buf_u32s: usize,
    ) -> Result<Self> {
        let path = path.as_ref();
        let (file, len_u32) = open_u32_file(path)?;
        let cursor = Some(0);
        let fetch = PreadFetch { file, cursor };
        Ok(Self::over(fetch, path, stats, len_u32, buf_u32s, None))
    }
}

impl<F: BlockFetch> BlockStream<F> {
    /// A cursor at position 0 of the `len_u32`-value file at `path`,
    /// fetching blocks of `block_u32s` values (minimum 1) through
    /// `fetch`.
    pub(crate) fn over(
        fetch: F,
        path: &Path,
        stats: Arc<IoStats>,
        len_u32: u64,
        block_u32s: usize,
        lent: Option<Arc<Map>>,
    ) -> Self {
        Self {
            fetch,
            path: path.to_path_buf(),
            stats,
            len_u32,
            next_index: 0,
            buf: Vec::new(),
            filled: 0,
            pos: 0,
            block_u32s: block_u32s.max(1),
            read_latency: Duration::ZERO,
            lent,
            hinted: None,
        }
    }

    /// The same cursor — position, window and settings intact — over
    /// the fetcher `wrap` builds from this one.
    pub(crate) fn try_map_fetch<G: BlockFetch>(
        self,
        wrap: impl FnOnce(F) -> Result<G>,
    ) -> Result<BlockStream<G>> {
        Ok(BlockStream {
            fetch: wrap(self.fetch)?,
            path: self.path,
            stats: self.stats,
            len_u32: self.len_u32,
            next_index: self.next_index,
            buf: self.buf,
            filled: self.filled,
            pos: self.pos,
            block_u32s: self.block_u32s,
            read_latency: self.read_latency,
            lent: self.lent,
            hinted: self.hinted,
        })
    }

    /// Erase the fetcher type, so one consumer can be built over
    /// whichever backend was opened at run time. Reads stay direct
    /// calls into this cursor; only block fetches go through the box.
    pub fn boxed(self) -> BlockStream<Box<dyn BlockFetch>>
    where
        F: 'static,
    {
        self.try_map_fetch(|f| Ok(Box::new(f) as Box<dyn BlockFetch>))
            .expect("boxing a fetcher cannot fail")
    }

    /// Emulate a storage device with the given per-block latency, paid
    /// on every block fetched from here on and charged to [`IoStats`]
    /// I/O time like any other device wait. Zero (the default) measures
    /// the real hardware. How the wait is paid is the fetcher's: the
    /// synchronous ones sleep it per block, the overlapping ones hide
    /// whatever compute already covered.
    ///
    /// This is the I/O analogue of the cluster's `NetModel`: page-cached
    /// files never block, so ablations that compare blocking against
    /// overlapped I/O on warm fixtures need a deterministic way to
    /// recreate the device waits the paper's multi-pass bound is about.
    pub fn set_read_latency(&mut self, latency: Duration) {
        self.read_latency = latency;
    }

    /// The emulated per-block device latency.
    pub(crate) fn read_latency(&self) -> Duration {
        self.read_latency
    }

    /// Block size in `u32`s.
    pub(crate) fn block_u32s(&self) -> usize {
        self.block_u32s
    }

    /// Index the next block fetch starts at (the window's end).
    pub(crate) fn fetch_pos(&self) -> u64 {
        self.next_index + (self.filled - self.pos) as u64
    }

    /// Fetch the block after an exhausted window and charge it. At end
    /// of file nothing is fetched and the charge is the zero-byte read
    /// (device wait included) a reader probing for more data issues —
    /// the one EOF rule of every transport.
    fn refill(&mut self) -> Result<usize> {
        debug_assert_eq!(self.pos, self.filled);
        let at = self.next_index;
        let want = (self.len_u32 - at).min(self.block_u32s as u64) as usize;
        let (n, took) = if want == 0 {
            let start = Instant::now();
            if !self.read_latency.is_zero() {
                std::thread::sleep(self.read_latency);
            }
            (0, start.elapsed())
        } else {
            self.fetch
                .fetch(at, want, self.read_latency, &mut self.buf)
                .map_err(|e| IoError::os("read", &self.path, e))?
        };
        self.stats.record_read(n as u64 * BYTES_PER_U32, took);
        self.filled = n;
        self.pos = 0;
        Ok(n)
    }

    /// Consume up to `n` values (fewer only at end of file), refilling
    /// across blocks and handing each consumed piece's bytes to
    /// `piece`; returns how many were consumed.
    fn walk(&mut self, n: usize, mut piece: impl FnMut(&[u8])) -> Result<usize> {
        let mut got = 0usize;
        while got < n {
            if self.pos == self.filled && self.refill()? == 0 {
                break;
            }
            let take = (self.filled - self.pos).min(n - got);
            let bytes = match &self.lent {
                Some(file) => &file.bytes()[self.next_index as usize * 4..],
                None => &self.buf[self.pos * 4..],
            };
            piece(&bytes[..take * 4]);
            self.pos += take;
            self.next_index += take as u64;
            got += take;
        }
        Ok(got)
    }

    /// The `n` values at `start`: borrowed from the lent file, else the
    /// copy just decoded into `scratch`.
    fn run_at<'a>(&'a self, start: u64, n: usize, scratch: &'a [u32]) -> &'a [u32] {
        match &self.lent {
            Some(file) => &file.u32s()[start as usize..start as usize + n],
            None => scratch,
        }
    }

    /// Read the next value, or `None` at end of file.
    ///
    /// Deliberately named like `Iterator::next` — this is a fallible
    /// streaming reader, not an iterator (it returns `Result<Option<_>>`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<u32>> {
        let mut value = None;
        self.walk(1, |b| {
            value = Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        })?;
        Ok(value)
    }

    /// Read the whole remaining file into a vector.
    pub fn read_all(&mut self) -> Result<Vec<u32>> {
        let remaining = (self.len_u32 - self.next_index) as usize;
        let mut out = Vec::with_capacity(remaining);
        self.read_into(&mut out, remaining)?;
        Ok(out)
    }
}

impl<F: BlockFetch> U32Source for BlockStream<F> {
    fn len_u32(&self) -> u64 {
        self.len_u32
    }

    fn position(&self) -> u64 {
        self.next_index
    }

    fn path(&self) -> &Path {
        &self.path
    }

    /// Positions past end-of-file clamp to the end (subsequent reads
    /// report EOF) — they never produce an out-of-range `position`.
    fn seek_to(&mut self, index: u64) -> Result<()> {
        let index = index.min(self.len_u32);
        self.stats.record_seek();
        self.filled = 0;
        self.pos = 0;
        self.next_index = index;
        self.fetch.moved_to(index);
        Ok(())
    }

    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize> {
        self.walk(n, |bytes| {
            out.extend(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            )
        })
    }

    /// A skip that stays within the current block just advances the
    /// cursor. A skip reaching at most one block beyond it is *read
    /// through* — blocks are fetched sequentially and the skipped
    /// values discarded — so consecutive short skips (a bound-pruned
    /// scan) never leave the sequential read path. Only a skip landing
    /// beyond that repositions, and counts as a seek.
    fn skip(&mut self, n: u64) -> Result<()> {
        let n = n.min(self.len_u32 - self.next_index);
        let buffered = (self.filled - self.pos) as u64;
        if n <= buffered {
            self.pos += n as usize;
            self.next_index += n;
            Ok(())
        } else if n - buffered <= self.block_u32s as u64 {
            self.walk(n as usize, |_| ()).map(drop)
        } else {
            self.seek_to(self.next_index + n)
        }
    }

    fn next_run<'a>(&'a mut self, n: usize, scratch: &'a mut Vec<u32>) -> Result<&'a [u32]> {
        let start = self.next_index;
        let got = if self.lent.is_some() {
            self.walk(n, |_| ())?
        } else {
            scratch.clear();
            self.read_into(scratch, n)?
        };
        Ok(self.run_at(start, got, scratch))
    }

    fn range_run<'a>(
        &'a mut self,
        pos: u64,
        len: usize,
        scratch: &'a mut Vec<u32>,
    ) -> Result<&'a [u32]> {
        self.seek_to(pos)?;
        if self.next_run(len, scratch)?.len() != len {
            return Err(past_end(&self.path, pos, len));
        }
        // Only now: read-ahead queued before the load would compete
        // with it for the fetcher's slots.
        if let Some((next_pos, next_len)) = self.hinted.take() {
            self.fetch.hint(next_pos, next_len);
        }
        // (`pos` itself may have been clamped, when `len` is 0.)
        Ok(self.run_at(self.next_index - len as u64, len, scratch))
    }

    fn hint_range(&mut self, pos: u64, len: usize) {
        self.hinted = Some((pos, len));
    }
}

/// The typed error of a positioned load that reaches past end of file.
fn past_end(path: &Path, pos: u64, len: usize) -> IoError {
    IoError::malformed(
        path,
        format!("chunk [{pos}, {pos}+{len}) reaches past end of file"),
    )
}

/// The positioned-read interface stream consumers (the MGT scan pass
/// and chunk loader, the codec layer) program against: a
/// [`BlockStream`] over any fetcher, or a layer above one. Every
/// implementation follows the same positioning contract: positions
/// clamp at end-of-file, short skips read through, long skips count as
/// seeks.
pub trait U32Source {
    /// Total number of `u32`s in the file.
    fn len_u32(&self) -> u64;

    /// Index of the next value a read would return.
    fn position(&self) -> u64;

    /// Reposition to the `index`-th `u32` (clamped; counted as a seek).
    fn seek_to(&mut self, index: u64) -> Result<()>;

    /// Append up to `n` values onto `out`, returning how many were read
    /// (less than `n` only at end of file).
    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize>;

    /// Skip `n` values (clamped; short skips coalesce to read-through).
    fn skip(&mut self, n: u64) -> Result<()>;

    /// The file behind the stream, for error messages. Layers forward
    /// their transport's.
    fn path(&self) -> &Path {
        Path::new("<u32 stream>")
    }

    /// Seek to `pos` and read exactly `len` values into `out` (cleared
    /// first); errors if the range reaches past end of file. Provided in
    /// terms of [`seek_to`](Self::seek_to) + [`read_into`](Self::read_into)
    /// so every source — including codec-wrapped ones, where positions
    /// are *decoded* indices — shares one chunk-load primitive.
    fn read_exact_range(&mut self, pos: u64, len: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        self.seek_to(pos)?;
        if self.read_into(out, len)? != len {
            return Err(past_end(self.path(), pos, len));
        }
        Ok(())
    }

    /// The next `n` values (fewer at end of file) as a slice: decoded
    /// into `scratch` (cleared first), unless the source can lend them
    /// — a mapped file returns a window of the mapping and leaves
    /// `scratch` untouched.
    fn next_run<'a>(&'a mut self, n: usize, scratch: &'a mut Vec<u32>) -> Result<&'a [u32]> {
        scratch.clear();
        self.read_into(scratch, n)?;
        Ok(scratch)
    }

    /// [`read_exact_range`](Self::read_exact_range) as a slice, lent
    /// where [`next_run`](Self::next_run) lends.
    fn range_run<'a>(
        &'a mut self,
        pos: u64,
        len: usize,
        scratch: &'a mut Vec<u32>,
    ) -> Result<&'a [u32]> {
        self.read_exact_range(pos, len, scratch)?;
        Ok(scratch)
    }

    /// Advisory: announce the [`range_run`](Self::range_run) that will
    /// follow the next one. A source that can read ahead starts on
    /// `[pos, pos + len)` as soon as that next load completes, so it
    /// arrives while the caller computes; others ignore it. Never
    /// charged.
    fn hint_range(&mut self, _pos: u64, _len: usize) {}
}

/// A boxed source is a source, so a consumer can hold whichever layer
/// stack was built at run time.
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

    fn path(&self) -> &Path {
        (**self).path()
    }

    fn read_exact_range(&mut self, pos: u64, len: usize, out: &mut Vec<u32>) -> Result<()> {
        (**self).read_exact_range(pos, len, out)
    }

    fn next_run<'a>(&'a mut self, n: usize, scratch: &'a mut Vec<u32>) -> Result<&'a [u32]> {
        (**self).next_run(n, scratch)
    }

    fn range_run<'a>(
        &'a mut self,
        pos: u64,
        len: usize,
        scratch: &'a mut Vec<u32>,
    ) -> Result<&'a [u32]> {
        (**self).range_run(pos, len, scratch)
    }

    fn hint_range(&mut self, pos: u64, len: usize) {
        (**self).hint_range(pos, len)
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
    /// The first write failure. Nothing is buffered or written after
    /// it, and every later call reports it again.
    failed: Option<std::io::Error>,
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
            failed: None,
        })
    }

    /// Number of values accepted so far (including buffered ones;
    /// values offered after a failed write are dropped, not counted).
    pub fn written_u32(&self) -> u64 {
        self.written_u32
    }

    /// `Err` with the first write failure, if there was one. A failure
    /// is final: the buffer it hit may have landed in part, so the
    /// writer accepts nothing further and `write` / `write_all` /
    /// `finish` all return it from then on.
    pub fn check(&self) -> Result<()> {
        match &self.failed {
            None => Ok(()),
            Some(e) => Err(IoError::os(
                "write",
                &self.path,
                std::io::Error::new(e.kind(), e.to_string()),
            )),
        }
    }

    /// Append one value.
    pub fn write(&mut self, v: u32) -> Result<()> {
        self.check()?;
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
        self.check()?;
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
        let wrote = self.file.write_all(&self.buf);
        let len = self.buf.len() as u64;
        self.buf.clear();
        match wrote {
            Ok(()) => {
                self.stats.record_write(len, start.elapsed());
                Ok(())
            }
            Err(e) => {
                self.failed = Some(e);
                self.check()
            }
        }
    }

    /// Flush buffers and make the file durable; must be called before
    /// dropping if the data matters (drop also flushes, but swallows
    /// errors and does not sync). `sync_all` before close means a
    /// crash immediately after a graph write — or after `copy_to`
    /// lands a replica — cannot lose acknowledged bytes, which is the
    /// contract the integrity manifest's digests are recorded against.
    pub fn finish(mut self) -> Result<u64> {
        self.check()?;
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

    /// `/dev/full` accepts the open and fails every write with ENOSPC.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_write_is_sticky_and_stops_buffering() {
        let stats = IoStats::new();
        let mut w = U32Writer::with_buffer("/dev/full", stats.clone(), 16).unwrap();
        let cap = w.cap;
        let mut first_err = None;
        for v in 0..100u32 {
            let r = if v % 2 == 0 {
                w.write(v)
            } else {
                w.write_all(&[v, v])
            };
            assert!(w.buf.len() <= cap + 4, "buffered {} bytes", w.buf.len());
            match (&first_err, r) {
                (None, Err(e)) => first_err = Some((v, e.to_string())),
                (Some((_, msg)), r) => assert_eq!(&r.unwrap_err().to_string(), msg),
                (None, Ok(())) => {}
            }
        }
        let (at, msg) = first_err.expect("the first full buffer fails");
        assert!(at < 16, "failed at value {at}");
        assert!(msg.contains("/dev/full"), "{msg}");
        // Values offered after the failure are dropped, not kept.
        assert!(w.buf.is_empty());
        assert!(w.written_u32() <= 17);
        assert_eq!(w.check().unwrap_err().to_string(), msg);
        assert_eq!(w.finish().unwrap_err().to_string(), msg);
        assert_eq!(stats.bytes_written(), 0);
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

    /// What a cursor asked of its fetcher, in order.
    #[derive(Debug, PartialEq)]
    enum Ask {
        Fetch(u64, usize),
        Moved(u64),
        Hint(u64, usize),
    }

    /// An in-memory fetcher: the "file" is a `Vec<u32>`, no filesystem.
    #[derive(Debug)]
    struct VecFetch {
        vals: Vec<u32>,
        asked: Vec<Ask>,
    }

    impl BlockFetch for VecFetch {
        fn fetch(
            &mut self,
            at: u64,
            want: usize,
            _latency: Duration,
            buf: &mut Vec<u8>,
        ) -> std::io::Result<(usize, Duration)> {
            self.asked.push(Ask::Fetch(at, want));
            buf.clear();
            for v in &self.vals[at as usize..at as usize + want] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Ok((want, Duration::ZERO))
        }

        fn moved_to(&mut self, at: u64) {
            self.asked.push(Ask::Moved(at));
        }

        fn hint(&mut self, pos: u64, len: usize) {
            self.asked.push(Ask::Hint(pos, len));
        }
    }

    /// A cursor over the values `0..len` in blocks of `block`.
    fn cursor(len: u32, block: usize) -> (BlockStream<VecFetch>, Arc<IoStats>) {
        let stats = IoStats::new();
        let fetch = VecFetch {
            vals: (0..len).collect(),
            asked: Vec::new(),
        };
        let path = Path::new("/fake/vals.u32");
        let c = BlockStream::over(fetch, path, stats.clone(), len as u64, block, None);
        (c, stats)
    }

    #[test]
    fn cursor_skip_takes_each_of_its_three_branches() {
        let (mut c, stats) = cursor(100, 10);
        assert_eq!(c.next().unwrap(), Some(0));
        // Inside the block: no fetch, up to and including its last value.
        c.skip(5).unwrap();
        c.skip(4).unwrap();
        assert_eq!(c.position(), 10);
        assert_eq!(c.fetch.asked, [Ask::Fetch(0, 10)]);
        // At most one block beyond the window: read through, no seek —
        // from an exhausted window and from a partly consumed one.
        c.skip(10).unwrap();
        assert_eq!(c.next().unwrap(), Some(20));
        c.skip(9 + 10).unwrap();
        assert_eq!(c.position(), 40);
        assert_eq!(stats.seeks(), 0);
        assert_eq!(
            c.fetch.asked[1..],
            [Ask::Fetch(10, 10), Ask::Fetch(20, 10), Ask::Fetch(30, 10)]
        );
        // Further: a reposition, charged as a seek, fetching nothing.
        c.skip(11).unwrap();
        assert_eq!(c.position(), 51);
        assert_eq!(stats.seeks(), 1);
        assert_eq!(c.fetch.asked[4..], [Ask::Moved(51)]);
        assert_eq!(c.next().unwrap(), Some(51));
        c.skip(9 + 11).unwrap(); // one past read-through reach
        assert_eq!((c.position(), stats.seeks()), (72, 2));
        // Every fetch, and nothing else, was charged as a read.
        assert_eq!(stats.read_ops(), 5);
        assert_eq!(stats.bytes_read(), 5 * 10 * 4);
    }

    #[test]
    fn cursor_clamps_at_end_of_file_and_charges_the_probe() {
        let (mut c, stats) = cursor(25, 10);
        let mut out = Vec::new();
        c.seek_to(1_000).unwrap();
        assert_eq!(c.position(), 25, "seek clamps");
        assert_eq!(c.read_into(&mut out, 5).unwrap(), 0);
        assert_eq!(c.next().unwrap(), None);
        // A read at EOF is one zero-byte op each time, fetcher untouched.
        assert_eq!((stats.read_ops(), stats.bytes_read()), (2, 0));
        assert_eq!(c.fetch.asked, [Ask::Moved(25)]);

        c.seek_to(3).unwrap();
        c.skip(u64::MAX).unwrap();
        assert_eq!(c.position(), 25, "skip clamps");
        c.seek_to(20).unwrap();
        // The tail block is short; asking past it probes once.
        assert_eq!(c.read_into(&mut out, 10).unwrap(), 5);
        assert_eq!(out, [20, 21, 22, 23, 24]);
        assert_eq!(c.fetch.asked.last(), Some(&Ask::Fetch(20, 5)));
        assert_eq!((stats.read_ops(), stats.bytes_read()), (4, 20));
        assert_eq!(c.read_all().unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn cursor_with_block_size_one_and_over_an_empty_file() {
        let (mut c, stats) = cursor(9, 0); // block size is at least 1
        let mut out = Vec::new();
        assert_eq!(c.read_into(&mut out, 3).unwrap(), 3);
        c.skip(1).unwrap(); // one block beyond: read through
        c.skip(2).unwrap(); // two: seek
        assert_eq!(c.next().unwrap(), Some(6));
        assert_eq!(out, [0, 1, 2]);
        assert_eq!((stats.read_ops(), stats.seeks()), (5, 1));

        let (mut c, stats) = cursor(0, 16);
        assert_eq!(c.read_into(&mut out, 10).unwrap(), 0);
        c.seek_to(5).unwrap();
        assert_eq!(c.position(), 0, "clamped to the empty length");
        c.skip(u64::MAX).unwrap();
        assert!(c.next_run(3, &mut out).unwrap().is_empty());
        assert!(c.range_run(0, 0, &mut out).unwrap().is_empty());
        assert!(c.range_run(0, 1, &mut out).is_err());
        assert_eq!(stats.bytes_read(), 0);
        assert!(!c.fetch.asked.iter().any(|a| matches!(a, Ask::Fetch(..))));
    }

    #[test]
    fn runs_straddle_blocks_and_positioned_loads_check_the_end() {
        let (mut c, stats) = cursor(100, 10);
        let mut scratch = vec![77];
        c.skip(5).unwrap();
        let run = c.next_run(25, &mut scratch).unwrap();
        assert_eq!(run, (5..30).collect::<Vec<u32>>());
        assert_eq!(stats.read_ops(), 3, "blocks 0, 10 and 20");
        assert_eq!(c.next_run(0, &mut scratch).unwrap(), [0u32; 0]);

        // A hint waits for the load announced before it to finish.
        c.hint_range(50, 7);
        assert_eq!(c.range_run(88, 12, &mut scratch).unwrap()[11], 99);
        assert_eq!(
            c.fetch.asked[3..],
            [
                Ask::Moved(88),
                Ask::Fetch(88, 10),
                Ask::Fetch(98, 2),
                Ask::Hint(50, 7)
            ]
        );
        // One value too many: typed error naming the file, for the
        // borrowed and the copying form alike.
        for err in [
            c.range_run(90, 11, &mut scratch).unwrap_err(),
            c.read_exact_range(90, 11, &mut scratch).unwrap_err(),
        ] {
            let msg = err.to_string();
            assert!(
                msg.contains("[90, 90+11) reaches past end of file"),
                "{msg}"
            );
            assert!(msg.contains("/fake/vals.u32"), "{msg}");
        }
    }

    #[test]
    fn boxing_a_cursor_keeps_its_place() {
        let (mut c, stats) = cursor(50, 8);
        c.skip(3).unwrap();
        let mut boxed = c.boxed();
        assert_eq!(boxed.next().unwrap(), Some(3));
        assert_eq!(boxed.read_all().unwrap(), (4..50).collect::<Vec<u32>>());
        assert_eq!(stats.bytes_read(), 50 * 4);
    }

    #[test]
    fn fill_block_loops_over_short_reads() {
        /// Hands out 1–7 bytes per call, with an interruption now and then.
        struct Trickle<'a>(&'a [u8], usize);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 += 1;
                if self.1.is_multiple_of(5) {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let n = (1 + self.1 % 7).min(buf.len()).min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let data: Vec<u8> = (0..=255).collect();
        let mut src = Trickle(&data, 0);
        let mut block = [0u8; 64];
        // Full blocks despite the trickle, then the 8-byte tail, then EOF.
        for want in [&data[..64], &data[64..128], &data[128..192], &data[192..]] {
            assert_eq!(fill_block(&mut src, &mut block).unwrap(), 64);
            assert_eq!(&block[..], want);
        }
        let mut src = Trickle(&data[..72], 0);
        assert_eq!(fill_block(&mut src, &mut block).unwrap(), 64);
        assert_eq!(fill_block(&mut src, &mut block).unwrap(), 8);
        assert_eq!(&block[..8], &data[64..72]);
        assert_eq!(fill_block(&mut src, &mut block).unwrap(), 0);
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
