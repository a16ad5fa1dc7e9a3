//! The workspace's one data-parallel primitive: a `Sync` closure mapped
//! over contiguous chunks of `0..n` on scoped threads — the shape of the
//! disk orientation's two passes and of the baselines' counters. The MGT
//! workers are not this shape: [`run_workers`](crate::runner::run_workers)
//! moves an owned sink into one thread per job, because its `P` is the
//! paper's processor count, not a pool size.

use std::ops::Range;
use std::sync::OnceLock;
use std::thread;

/// The host's available parallelism, read once: the call re-reads
/// cgroup and affinity state every time (tens of microseconds on Linux).
pub fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `shard` over one contiguous chunk of `0..n` per thread, on at
/// most `threads` threads (0 counts as 1), and return the per-chunk
/// results in chunk order. A single chunk — one thread, or `n <= 1` —
/// runs inline on the caller. A shard's panic resumes on the caller
/// after every other shard has finished.
pub fn map_chunks<R, F>(n: usize, threads: usize, shard: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return vec![shard(0..n)];
    }
    let chunk = n.div_ceil(threads);
    // `scope` joins every thread it spawned before it returns or unwinds.
    thread::scope(|s| {
        let shard = &shard;
        let workers: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| s.spawn(move || shard(lo..(lo + chunk).min(n))))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_index_order() {
        for n in [0usize, 1, 2, 7, 64] {
            for threads in [0usize, 1, 2, 3, 100] {
                let chunks = map_chunks(n, threads, |r| r.collect::<Vec<_>>());
                assert!(chunks.len() <= threads.max(1), "n={n} threads={threads}");
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                let expect: Vec<usize> = (0..n).collect();
                assert_eq!(flat, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn a_single_chunk_runs_on_the_caller() {
        let me = thread::current().id();
        for (n, threads) in [(0, 4), (1, 4), (9, 1), (9, 0)] {
            let ids = map_chunks(n, threads, |_| thread::current().id());
            assert_eq!(ids, [me], "n={n} threads={threads}");
        }
        let ids = map_chunks(9, 3, |_| thread::current().id());
        assert!(ids.iter().all(|&id| id != me));
    }

    #[test]
    fn a_shard_panic_reaches_the_caller_after_every_shard_ran() {
        let ran = AtomicUsize::new(0);
        // All four shards are in flight when the first one panics.
        let all_started = std::sync::Barrier::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_chunks(4, 4, |r| {
                all_started.wait();
                ran.fetch_add(1, Ordering::SeqCst);
                assert_ne!(r.start, 0, "shard 0 fails");
            })
        }));
        let payload = caught.expect_err("the panic must surface");
        let msg = payload.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains("shard 0 fails"), "{msg}");
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }
}
