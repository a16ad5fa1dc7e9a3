//! The workspace's data-parallel primitives: a `Sync` closure mapped
//! over contiguous chunks of `0..n` on scoped threads — the shape of the
//! disk orientation's two passes and of the baselines' counters — the
//! same map handing each thread one disjoint mutable part of a buffer
//! (`map_parts`, the graph generators' sampling and per-list sorts), and
//! two unlike closures run side by side (`join`, the planner's).
//!
//! The module lives in `pdtl-io`, the lowest crate, because
//! `pdtl-graph`'s generators and `pdtl-core`'s engine both run on it;
//! `pdtl-core` re-exports it as `pdtl_core::par`. The MGT workers are
//! not this shape: `pdtl_core::runner::run_workers` moves an owned sink
//! into one thread per job, because its `P` is the paper's processor
//! count, not a pool size.

use std::ops::Range;
use std::sync::{Mutex, OnceLock};
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

/// Run `work` on each of `parts` — disjoint pieces of one buffer, cut
/// by the caller with `split_at_mut` / `chunks_mut` — one thread per
/// part through [`map_chunks`], and return the results in part order.
/// `work` gets the part's index beside the part. Zero or one part runs
/// inline on the caller; the caller sizes `parts` to the threads it
/// wants.
pub fn map_parts<P, R, F>(parts: Vec<P>, work: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    // Each slot is taken exactly once, by the one thread its index maps
    // to, so no lock is ever contended; the guard is dropped before
    // `work` runs, so no panic can poison one.
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let take = |i: usize| {
        let part = slots[i]
            .lock()
            .expect("no thread panics holding a slot")
            .take();
        work(i, part.expect("each part is taken once"))
    };
    map_chunks(slots.len(), slots.len(), |run| {
        run.map(take).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Run `a` and `b` side by side — `a` on a scoped thread when the host
/// has more than one, `b` on the caller — and return both results. A
/// panic in `a` resumes on the caller after `b` has finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    RA: Send,
    B: FnOnce() -> RB,
{
    if host_threads() == 1 {
        let ra = a();
        return (ra, b());
    }
    thread::scope(|s| {
        let ha = s.spawn(a);
        let rb = b();
        let ra = ha.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        (ra, rb)
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
    fn map_parts_hands_each_part_to_one_call_in_order() {
        for (len, parts) in [(0usize, 1usize), (5, 1), (10, 3), (64, 5)] {
            let mut buf = vec![0usize; len];
            let size = len.div_ceil(parts).max(1);
            let pieces: Vec<&mut [usize]> = buf.chunks_mut(size).collect();
            let lens = map_parts(pieces, |i, piece| {
                for (j, x) in piece.iter_mut().enumerate() {
                    *x = i * size + j;
                }
                piece.len()
            });
            assert_eq!(lens.iter().sum::<usize>(), len, "len={len} parts={parts}");
            assert!(buf.iter().enumerate().all(|(i, &x)| i == x));
        }
        let me = thread::current().id();
        assert_eq!(map_parts(vec![()], |_, ()| thread::current().id()), [me]);
    }

    #[test]
    fn join_returns_both_results_and_surfaces_a_panic() {
        let v: Vec<u32> = (0..10).collect();
        let (sum, len) = join(|| v.iter().sum::<u32>(), || v.len());
        assert_eq!((sum, len), (45, 10));
        let b_ran = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join(
                || panic!("a fails"),
                || b_ran.fetch_add(1, Ordering::SeqCst),
            )
        }));
        assert!(caught.is_err());
        assert_eq!(b_ran.load(Ordering::SeqCst), 1);
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
