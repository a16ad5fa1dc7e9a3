//! Overlapped (read-ahead) streaming: hide disk latency behind compute.
//!
//! The MGT engine's inner loop alternates chunk loads and scan-pass
//! reads with intersection work, and with the blocking [`U32Reader`]
//! every one of those reads stalls the worker (Theorem IV.2's
//! `|E|²/(MB)` multi-pass term is pure I/O wait). This module provides
//! the two overlap primitives the engines build on:
//!
//! * [`PrefetchReader`] — the stream cursor over a fetcher whose
//!   background thread keeps up to [`PREFETCH_DEPTH`] block-sized
//!   buffers ahead of the consumer, so sequential scans (including
//!   bound-pruned scans, whose short skips read through) never block on
//!   the next block. Blocks stay raw bytes until the consumer decodes
//!   what it actually reads, so skipped regions cost no decode — the
//!   same cost profile as the blocking reader, minus the read stalls.
//! * [`ChunkPrefetcher`] — positioned whole-range loads on a background
//!   thread; the MGT engine requests chunk `k+1` the moment chunk `k`
//!   is handed over, so the next `edg` array loads during the current
//!   scan pass.
//!
//! **Accounting contract:** both primitives report through the same
//! [`IoStats`](crate::IoStats) as their blocking twins and count
//! *exactly the same* `bytes_read`, `read_ops` and `seeks` for the
//! same logical access pattern — the one [`BlockStream`] cursor does the charging, when the
//! consumer takes a block, and read-ahead blocks discarded by a
//! reposition are never charged. That is what makes
//! `IoBackend::Prefetch` a pure scheduling change rather than a
//! different I/O plan.
//!
//! One deliberate asymmetry: `io_time` measures *device activity*
//! (each consumed block is charged its producer-side read duration,
//! emulated latency included). For a blocking reader that equals the
//! caller's stall time; for an overlapped reader the activity runs
//! concurrently with compute, so a worker's `io_time` can approach —
//! or exceed — its wall time even though it barely stalled. That is
//! the point of overlapping; `CpuIoTimer` clamps its breakdown to the
//! wall accordingly.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::{IoError, Result};
use crate::stream::{BlockFetch, BlockStream, PreadFetch, U32Reader, U32Source};

/// Blocks the producer keeps ready ahead of the consumer.
pub const PREFETCH_DEPTH: usize = 4;

/// Shared producer/consumer state of a [`PrefetchReader`].
#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signalled when the producer should look for work.
    produce: Condvar,
    /// Signalled when a block (or EOF/error) is ready for the consumer.
    consume: Condvar,
}

#[derive(Debug)]
struct State {
    /// Bumped by every consumer reposition; blocks from older epochs
    /// are recycled, never delivered.
    epoch: u64,
    /// Next `u32` index the producer should read for the current epoch.
    read_at: u64,
    /// Emulated device latency of the blocks the producer starts on.
    latency: Duration,
    /// Filled byte blocks (in file order) with their read times.
    queue: VecDeque<(Vec<u8>, Duration)>,
    /// Recycled block buffers.
    free: Vec<Vec<u8>>,
    /// Current epoch reached end-of-file.
    eof: bool,
    /// Producer-side failure, delivered to the consumer once.
    error: Option<std::io::Error>,
    shutdown: bool,
}

/// The read-ahead fetcher: a background thread fills the next
/// block-sized buffers while the cursor's consumer works through the
/// current one, and a fetch takes the oldest ready block.
#[derive(Debug)]
pub struct ProducerFetch {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

/// A read-ahead [`U32Source`]: [`BlockStream`] over [`ProducerFetch`].
///
/// Construct one from an (unconsumed) [`U32Reader`] via
/// [`PrefetchReader::new`]; it inherits the reader's file, block size,
/// emulated latency and [`IoStats`](crate::IoStats).
pub type PrefetchReader = BlockStream<ProducerFetch>;

impl PrefetchReader {
    /// Wrap `reader`, taking over its file and cursor state; the
    /// producer starts reading ahead where the reader's window ends.
    /// Errors if the background thread cannot be spawned (the engines'
    /// whole API is `Result`-based, so thread exhaustion must not abort
    /// the process).
    pub fn new(reader: U32Reader) -> Result<Self> {
        let path = reader.path().to_path_buf();
        let (len_u32, block_u32s) = (reader.len_u32(), reader.block_u32s());
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                read_at: reader.fetch_pos(),
                latency: reader.read_latency(),
                queue: VecDeque::new(),
                free: Vec::new(),
                eof: false,
                error: None,
                shutdown: false,
            }),
            produce: Condvar::new(),
            consume: Condvar::new(),
        });
        reader.try_map_fetch(|file| {
            let producer_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("pdtl-prefetch".into())
                .spawn(move || producer(file, len_u32, block_u32s, producer_shared))
                .map_err(|e| IoError::os("spawn", path, e))?;
            Ok(ProducerFetch {
                shared,
                handle: Some(handle),
            })
        })
    }
}

impl BlockFetch for ProducerFetch {
    /// Take the next ready block from the producer, which reads in
    /// file order from the last reposition — the order the cursor
    /// fetches in — so `at` needs no checking. The charge is the
    /// producer's read time: the device was busy that long, however
    /// little of it the consumer waited out.
    fn fetch(
        &mut self,
        _at: u64,
        _want: usize,
        latency: Duration,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<(usize, Duration)> {
        let mut st = self.shared.state.lock().unwrap();
        st.latency = latency;
        loop {
            if let Some((block, took)) = st.queue.pop_front() {
                let old = std::mem::replace(buf, block);
                if old.capacity() > 0 {
                    st.free.push(old);
                }
                self.shared.produce.notify_one();
                return Ok((buf.len() / 4, took));
            }
            if let Some(e) = st.error.take() {
                return Err(e);
            }
            if st.eof {
                buf.clear();
                return Ok((0, Duration::ZERO));
            }
            st = self.shared.consume.wait(st).unwrap();
        }
    }

    fn moved_to(&mut self, at: u64) {
        let mut st = self.shared.state.lock().unwrap();
        st.epoch += 1;
        st.read_at = at;
        st.eof = false;
        st.error = None;
        while let Some((b, _)) = st.queue.pop_front() {
            st.free.push(b);
        }
        self.shared.produce.notify_one();
    }
}

impl Drop for ProducerFetch {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.produce.notify_one();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The background read loop of a [`ProducerFetch`].
fn producer(mut file: PreadFetch, len_u32: u64, block_u32s: usize, shared: Arc<Shared>) {
    loop {
        // Decide what to read (or stop) under the lock.
        let (epoch, at, latency, mut out) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if !st.eof && st.error.is_none() && st.queue.len() < PREFETCH_DEPTH {
                    if st.read_at >= len_u32 {
                        st.eof = true;
                        shared.consume.notify_one();
                        continue;
                    }
                    let out = st.free.pop().unwrap_or_default();
                    break (st.epoch, st.read_at, st.latency, out);
                }
                st = shared.produce.wait(st).unwrap();
            }
        };

        // The emulated device wait runs first, *interruptibly*: a
        // consumer reposition (epoch bump) notifies `produce`, so the
        // producer abandons a stale wait immediately instead of
        // serialising stale sleeps in front of the new epoch's first
        // block. Real sleeps would make every scan rewind pay for
        // whatever read-ahead was in flight.
        if !latency.is_zero() {
            let deadline = Instant::now() + latency;
            let mut st = shared.state.lock().unwrap();
            let abandoned = loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != epoch {
                    break true;
                }
                let now = Instant::now();
                if now >= deadline {
                    break false;
                }
                let (back, _) = shared.produce.wait_timeout(st, deadline - now).unwrap();
                st = back;
            };
            if abandoned {
                st.free.push(out);
                continue;
            }
        }

        // Read one block outside the lock, straight into the buffer
        // (the same fill-or-EOF read the blocking fetcher issues). The
        // emulated device wait is charged with it, as there.
        let want = (len_u32 - at).min(block_u32s as u64) as usize;
        let start = Instant::now();
        let result = file.read_block(at, want, &mut out);
        let took = start.elapsed() + latency;

        // Publish under the lock, unless a reposition obsoleted us.
        let mut st = shared.state.lock().unwrap();
        if st.epoch != epoch {
            if out.capacity() > 0 {
                st.free.push(out);
            }
            continue;
        }
        match result {
            Ok(0) => st.eof = true,
            Ok(n) => {
                st.read_at = at + n as u64;
                st.queue.push_back((out, took));
            }
            Err(e) => {
                st.error = Some(e);
                st.eof = true; // deliver the error once, then EOF
            }
        }
        shared.consume.notify_one();
    }
}

/// A request to load `[pos, pos + len)` of a `u32` file, with a spare
/// buffer to fill.
type ChunkRequest = (u64, usize, Vec<u32>);

/// Positioned whole-range loads on a background thread.
///
/// The MGT engine requests chunk `k+1` as soon as chunk `k` is handed
/// over, so the next `edg` chunk loads from disk while the current scan
/// pass computes. Loads go through an owned [`U32Reader`] (one
/// `seek_to` + `read_into` per chunk), so `bytes_read` and `seeks`
/// match the blocking chunk loader exactly.
#[derive(Debug)]
pub struct ChunkPrefetcher {
    requests: Option<std::sync::mpsc::Sender<ChunkRequest>>,
    results: std::sync::mpsc::Receiver<Result<Vec<u32>>>,
    handle: Option<JoinHandle<()>>,
    /// Set on drop so the worker discards queued requests instead of
    /// performing (and then throwing away) their reads.
    closed: Arc<std::sync::atomic::AtomicBool>,
    path: PathBuf,
}

impl ChunkPrefetcher {
    /// Move `reader` to a background thread that serves load requests.
    /// Errors if the background thread cannot be spawned.
    pub fn new(mut reader: U32Reader) -> Result<Self> {
        let path = reader.path().to_path_buf();
        let (req_tx, req_rx) = std::sync::mpsc::channel::<ChunkRequest>();
        let (res_tx, res_rx) = std::sync::mpsc::channel::<Result<Vec<u32>>>();
        let closed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let thread_closed = Arc::clone(&closed);
        let handle = std::thread::Builder::new()
            .name("pdtl-chunk-prefetch".into())
            .spawn(move || {
                for (pos, len, mut buf) in req_rx {
                    if thread_closed.load(std::sync::atomic::Ordering::Acquire) {
                        // Consumer hung up: drain without reading, so
                        // error-path teardown never waits on a chunk
                        // load (or its emulated device latency) whose
                        // result nobody will take.
                        continue;
                    }
                    let loaded = reader
                        .read_exact_range(pos, len, &mut buf)
                        .map(|()| std::mem::take(&mut buf));
                    if res_tx.send(loaded).is_err() {
                        return; // consumer gone
                    }
                }
            })
            .map_err(|e| IoError::os("spawn", &path, e))?;
        Ok(Self {
            requests: Some(req_tx),
            results: res_rx,
            handle: Some(handle),
            closed,
            path,
        })
    }

    /// Enqueue the load of `[pos, pos + len)`; `spare` is recycled as
    /// the destination buffer. Results arrive in request order via
    /// [`take`](Self::take).
    pub fn request(&self, pos: u64, len: usize, spare: Vec<u32>) {
        if let Some(tx) = &self.requests {
            // A send failure surfaces as an error on the next `take`.
            let _ = tx.send((pos, len, spare));
        }
    }

    /// Block until the oldest outstanding request completes and return
    /// its chunk.
    pub fn take(&mut self) -> Result<Vec<u32>> {
        self.results.recv().map_err(|_| {
            IoError::os(
                "prefetch",
                &self.path,
                std::io::Error::other("chunk prefetch thread terminated"),
            )
        })?
    }
}

impl Drop for ChunkPrefetcher {
    fn drop(&mut self) {
        self.closed
            .store(true, std::sync::atomic::Ordering::Release);
        self.requests.take(); // hang up; the thread drains and exits
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::U32Writer;
    use crate::IoStats;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-prefetch-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn write_vals(name: &str, vals: &[u32]) -> PathBuf {
        let p = tmp(name);
        let stats = IoStats::new();
        let mut w = U32Writer::create(&p, stats).unwrap();
        w.write_all(vals).unwrap();
        w.finish().unwrap();
        p
    }

    /// Drive any `U32Source` through a mixed access pattern and return
    /// everything it produced.
    fn drive(r: &mut impl U32Source) -> Vec<u32> {
        let mut out = Vec::new();
        r.read_into(&mut out, 100).unwrap();
        r.skip(37).unwrap(); // short: read-through
        r.read_into(&mut out, 50).unwrap();
        r.skip(5000).unwrap(); // long: seek
        r.read_into(&mut out, 200).unwrap();
        r.seek_to(3).unwrap();
        r.read_into(&mut out, 10).unwrap();
        r.skip(u64::MAX).unwrap(); // clamps at EOF
        r.read_into(&mut out, 10).unwrap(); // nothing left
        out
    }

    #[test]
    fn matches_blocking_reader_values_and_accounting() {
        let vals: Vec<u32> = (0..20_000).map(|i| i * 7 + 1).collect();
        let p = write_vals("parity", &vals);

        let blocking_stats = IoStats::new();
        let mut blocking = U32Reader::with_buffer(&p, blocking_stats.clone(), 512).unwrap();
        let blocking_out = drive(&mut blocking);

        let prefetch_stats = IoStats::new();
        let mut prefetch =
            PrefetchReader::new(U32Reader::with_buffer(&p, prefetch_stats.clone(), 512).unwrap())
                .unwrap();
        let prefetch_out = drive(&mut prefetch);

        assert_eq!(prefetch_out, blocking_out, "identical value streams");
        assert_eq!(prefetch.position(), blocking.position());
        assert_eq!(
            prefetch_stats.bytes_read(),
            blocking_stats.bytes_read(),
            "prefetching must not change the byte accounting"
        );
        assert_eq!(
            prefetch_stats.seeks(),
            blocking_stats.seeks(),
            "prefetching must not change the seek accounting"
        );
    }

    #[test]
    fn sequential_read_all_round_trips() {
        let vals: Vec<u32> = (0..100_000).collect();
        let p = write_vals("seq", &vals);
        let stats = IoStats::new();
        let mut r =
            PrefetchReader::new(U32Reader::with_buffer(&p, stats.clone(), 1000).unwrap()).unwrap();
        let mut out = Vec::new();
        assert_eq!(r.read_into(&mut out, vals.len() + 5).unwrap(), vals.len());
        assert_eq!(out, vals);
        assert_eq!(stats.bytes_read(), vals.len() as u64 * 4);
        assert!(stats.io_time() > Duration::ZERO);
    }

    #[test]
    fn seek_discards_read_ahead_without_charging_it() {
        let vals: Vec<u32> = (0..50_000).collect();
        let p = write_vals("discard", &vals);
        let stats = IoStats::new();
        let mut r =
            PrefetchReader::new(U32Reader::with_buffer(&p, stats.clone(), 100).unwrap()).unwrap();
        let mut out = Vec::new();
        // Consume one block, give the producer time to read ahead,
        // then jump: the read-ahead must not be charged.
        r.read_into(&mut out, 100).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        r.seek_to(40_000).unwrap();
        out.clear();
        r.read_into(&mut out, 100).unwrap();
        assert_eq!(out[0], 40_000);
        assert_eq!(
            stats.bytes_read(),
            2 * 100 * 4,
            "only the two consumed blocks are charged"
        );
        assert_eq!(stats.seeks(), 1);
    }

    #[test]
    fn repeated_rescans_deliver_identical_data() {
        // The MGT scan pass seeks back to 0 once per chunk iteration.
        let vals: Vec<u32> = (0..5_000).map(|i| i ^ 0xA5A5).collect();
        let p = write_vals("rescan", &vals);
        let mut r =
            PrefetchReader::new(U32Reader::with_buffer(&p, IoStats::new(), 64).unwrap()).unwrap();
        for _ in 0..5 {
            r.seek_to(0).unwrap();
            let mut out = Vec::new();
            r.read_into(&mut out, vals.len()).unwrap();
            assert_eq!(out, vals);
        }
    }

    #[test]
    fn chunk_prefetcher_serves_requests_in_order() {
        let vals: Vec<u32> = (0..10_000).collect();
        let p = write_vals("chunks", &vals);
        let stats = IoStats::new();
        let mut pf = ChunkPrefetcher::new(U32Reader::open(&p, stats.clone()).unwrap()).unwrap();
        pf.request(0, 100, Vec::new());
        pf.request(5_000, 250, Vec::new());
        pf.request(9_990, 10, Vec::new());
        assert_eq!(pf.take().unwrap(), &vals[0..100]);
        assert_eq!(pf.take().unwrap(), &vals[5_000..5_250]);
        assert_eq!(pf.take().unwrap(), &vals[9_990..10_000]);
        assert_eq!(stats.seeks(), 3, "one seek per positioned chunk load");
    }

    #[test]
    fn chunk_prefetcher_reports_out_of_range_loads() {
        let vals: Vec<u32> = (0..100).collect();
        let p = write_vals("chunk-oob", &vals);
        let mut pf = ChunkPrefetcher::new(U32Reader::open(&p, IoStats::new()).unwrap()).unwrap();
        pf.request(50, 100, Vec::new());
        let err = pf.take().unwrap_err();
        assert!(err.to_string().contains("past end of file"), "{err}");
    }

    #[test]
    fn drop_joins_background_threads_cleanly() {
        let vals: Vec<u32> = (0..100_000).collect();
        let p = write_vals("drop", &vals);
        // Drop with read-ahead in flight and requests outstanding.
        let r = PrefetchReader::new(U32Reader::open(&p, IoStats::new()).unwrap()).unwrap();
        drop(r);
        let pf = ChunkPrefetcher::new(U32Reader::open(&p, IoStats::new()).unwrap()).unwrap();
        pf.request(0, 50_000, Vec::new());
        drop(pf);
    }
}
