//! Overlapped (read-ahead) streaming: hide disk latency behind compute.
//!
//! The MGT engine's inner loop alternates chunk loads and scan-pass
//! reads with intersection work, and with the blocking [`U32Reader`]
//! every one of those reads stalls the worker (Theorem IV.2's
//! `|E|²/(MB)` multi-pass term is pure I/O wait). This module provides
//! the thread-based overlap primitive the engines build on,
//! [`PrefetchReader`]: the stream cursor over a fetcher whose
//! background thread keeps up to [`PREFETCH_DEPTH`] block-sized buffers
//! ahead of the consumer, so sequential scans (including bound-pruned
//! scans, whose short skips read through) never block on the next
//! block. Blocks stay raw bytes until the consumer decodes what it
//! actually reads, so skipped regions cost no decode — the same cost
//! profile as the blocking reader, minus the read stalls. A positioned
//! load announced through [`BlockFetch::hint`] re-aims the same thread:
//! the MGT engine announces chunk `k+1` when chunk `k` is handed over,
//! so the next `edg` array is read whole during the current scan pass.
//!
//! **Accounting contract:** the reader reports through the same
//! [`IoStats`](crate::IoStats) as its blocking twin and counts
//! *exactly the same* `bytes_read`, `read_ops` and `seeks` for the
//! same logical access pattern — the one [`BlockStream`] cursor does the charging, when the
//! consumer takes a block, and read-ahead blocks discarded by a
//! reposition (hinted or not) are never charged. That is what makes
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
    /// Total `u32`s in the file, and the block size in `u32`s.
    len_u32: u64,
    block_u32s: usize,
}

#[derive(Debug)]
struct State {
    /// Bumped by every reposition; blocks from older epochs are
    /// recycled, never delivered.
    epoch: u64,
    /// Next `u32` index the producer should read for the current epoch.
    read_at: u64,
    /// Blocks the producer may hold ready in the current epoch:
    /// [`PREFETCH_DEPTH`], or a whole hinted range if that is more.
    depth: usize,
    /// Where the current epoch started, while it is a hint's and the
    /// consumer has not followed it yet.
    hinted: Option<u64>,
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

impl State {
    /// Start a new epoch reading from `at`, holding up to `depth`
    /// blocks; what was read for the old one is recycled uncharged.
    fn aim(&mut self, at: u64, depth: usize) {
        self.epoch += 1;
        self.read_at = at;
        self.depth = depth;
        self.eof = false;
        self.error = None;
        self.free
            .extend(self.queue.drain(..).map(|(block, _)| block));
    }
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
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                read_at: reader.fetch_pos(),
                depth: PREFETCH_DEPTH,
                hinted: None,
                latency: reader.read_latency(),
                queue: VecDeque::new(),
                free: Vec::new(),
                eof: false,
                error: None,
                shutdown: false,
            }),
            produce: Condvar::new(),
            consume: Condvar::new(),
            len_u32: reader.len_u32(),
            block_u32s: reader.block_u32s(),
        });
        reader.try_map_fetch(|file| {
            let producer_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("pdtl-prefetch".into())
                .spawn(move || producer(file, producer_shared))
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
    /// fetches in — so `at` needs checking only against a hint the
    /// consumer did not follow (a hint never changes what a fetch
    /// returns). The charge is the producer's read time: the device was
    /// busy that long, however little of it the consumer waited out.
    fn fetch(
        &mut self,
        at: u64,
        _want: usize,
        latency: Duration,
        buf: &mut Vec<u8>,
    ) -> std::io::Result<(usize, Duration)> {
        let mut st = self.shared.state.lock().unwrap();
        if st.hinted.take().is_some_and(|hinted| hinted != at) {
            st.aim(at, PREFETCH_DEPTH);
            self.shared.produce.notify_one();
        }
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

    /// A move to the hinted position keeps what the hint read ahead;
    /// any other starts a new epoch there.
    fn moved_to(&mut self, at: u64) {
        let mut st = self.shared.state.lock().unwrap();
        if st.hinted.take() != Some(at) {
            st.aim(at, PREFETCH_DEPTH);
            self.shared.produce.notify_one();
        }
    }

    /// Re-aim the read-ahead at the announced range and let it hold the
    /// whole of it — the memory a second chunk buffer would take — so
    /// the load arrives while the caller computes on the previous one.
    fn hint(&mut self, pos: u64, len: usize) {
        let pos = pos.min(self.shared.len_u32);
        let depth = len.div_ceil(self.shared.block_u32s).max(PREFETCH_DEPTH);
        let mut st = self.shared.state.lock().unwrap();
        st.aim(pos, depth);
        st.hinted = Some(pos);
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
fn producer(mut file: PreadFetch, shared: Arc<Shared>) {
    loop {
        // Decide what to read (or stop) under the lock.
        let (epoch, at, latency, mut out) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if !st.eof && st.error.is_none() && st.queue.len() < st.depth {
                    if st.read_at >= shared.len_u32 {
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
        let want = (shared.len_u32 - at).min(shared.block_u32s as u64) as usize;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::U32Writer;
    use crate::IoStats;
    use std::path::PathBuf;

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

    /// A reader over `0..n` in 100-value blocks, every block read
    /// costing an emulated `latency_ms`.
    fn slow_reader(name: &str, n: u32, latency_ms: u64) -> (PrefetchReader, Arc<IoStats>) {
        let p = write_vals(name, &(0..n).collect::<Vec<u32>>());
        let stats = IoStats::new();
        let mut r = U32Reader::with_buffer(&p, stats.clone(), 100).unwrap();
        r.set_read_latency(Duration::from_millis(latency_ms));
        (PrefetchReader::new(r).unwrap(), stats)
    }

    #[test]
    fn hinted_range_arrives_while_the_caller_computes() {
        // Six blocks at 30 ms each: 180 ms of device time if the load
        // starts when it is asked for, none of it left to wait out if
        // the hint started it 600 ms earlier.
        let (mut r, stats) = slow_reader("hint-hit", 50_000, 30);
        let mut buf = Vec::new();
        r.hint_range(20_000, 600);
        assert_eq!(r.range_run(0, 100, &mut buf).unwrap()[99], 99);
        std::thread::sleep(Duration::from_millis(600)); // "the scan pass"
        let start = Instant::now();
        let run = r.range_run(20_000, 600, &mut buf).unwrap();
        let waited = start.elapsed();
        assert_eq!((run[0], run[599]), (20_000, 20_599));
        assert!(
            waited < Duration::from_millis(90),
            "a hinted load must not wait out its blocks again: {waited:?}"
        );
        assert_eq!(stats.bytes_read(), 7 * 100 * 4);
        assert_eq!((stats.seeks(), stats.read_ops()), (2, 7));
    }

    #[test]
    fn hint_not_followed_is_discarded_uncharged() {
        let (mut r, stats) = slow_reader("hint-miss", 50_000, 1);
        let mut buf = Vec::new();
        r.hint_range(20_000, 600);
        r.range_run(0, 100, &mut buf).unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let it read ahead
        let run = r.range_run(40_000, 150, &mut buf).unwrap();
        assert_eq!((run[0], run[149]), (40_000, 40_149));
        // Reading on from there fetches at a position no hint named.
        r.hint_range(100, 100);
        assert_eq!(r.range_run(300, 100, &mut buf).unwrap()[0], 300);
        assert_eq!(r.next_run(100, &mut buf).unwrap()[0], 400);
        assert_eq!(
            stats.bytes_read(),
            (1 + 2 + 1 + 1) * 100 * 4,
            "only consumed blocks are charged, never a hint's read-ahead"
        );
        assert_eq!(stats.seeks(), 3);
    }

    #[test]
    fn drop_joins_background_threads_cleanly() {
        let vals: Vec<u32> = (0..100_000).collect();
        let p = write_vals("drop", &vals);
        // Drop with read-ahead in flight…
        let r = PrefetchReader::new(U32Reader::open(&p, IoStats::new()).unwrap()).unwrap();
        drop(r);
        // …and with a hinted epoch of 400 slow blocks barely begun.
        let (mut r, _) = slow_reader("drop-hinted", 50_000, 20);
        r.hint_range(10_000, 40_000);
        r.range_run(0, 100, &mut Vec::new()).unwrap();
        let start = Instant::now();
        drop(r);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "drop must not drain the hint"
        );
    }
}
