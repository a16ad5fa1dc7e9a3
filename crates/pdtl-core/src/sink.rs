//! Triangle output sinks.
//!
//! PDTL is a *listing* framework: the engine reports every triangle
//! `(u, v, w)` — cone vertex first, then the pivot edge — and the sink
//! decides what to do with it. Counting uses the zero-cost [`CountSink`]
//! (the paper's experiments measure counting "to allow comparison with
//! alternative implementations"). Listing to a file gives each core
//! its own buffered on-disk [`FileSink`], so a core holds one writer
//! buffer rather than its triples and the output cost — the `T/B` term
//! of Theorem IV.2 — is written at the writer's bulk speed.
//! [`CollectSink`] holds a run's triples in memory (tests, examples,
//! the analytics that take a triangle slice) and [`LimitSink`] the
//! first `limit` of them (`pdtl serve`'s listing preview).
//!
//! A core runs every range it claims into its one sink
//! ([`crate::runner`]), so a sink holds its ranges' output one after
//! the other, in the order the core ran them, and the fan-out hands
//! back each sink as a [`CoreSink`] with that order. A listing is put
//! together from those tables in range order, whichever core ran each
//! range: [`CollectSink::concat`], [`LimitSink::concat`], and the part
//! files of
//! [`LocalRunner::run_listing_to_file`](crate::LocalRunner::run_listing_to_file).
//!
//! The sink also picks the engine's kernel, one of three. A sink that
//! lends per-vertex counters ([`TriangleSink::vertex_counts`], the
//! clustering analytics' `VertexCountSink`) has the join add each
//! triangle to its three vertices' counters in rank space and never
//! sees a triple. Otherwise, while [`TriangleSink::wants_triples`] is
//! `false` the join only counts (it sums mark bytes instead of
//! compacting hits), so a [`CountSink`] run never produces a triple and
//! a full [`LimitSink`] stops producing them; while it is `true` the
//! hits are compacted, translated to original ids and emitted. The
//! count, the I/O and the work counters do not change with the kernel;
//! only what reaches the sink does.

use std::path::Path;
use std::sync::Arc;

use pdtl_io::{IoError, IoStats, Result, U32Writer};

/// Consumer of reported triangles. Its two provided methods pick the
/// join's kernel (module doc); a sink overriding neither is a listing
/// sink, and one whose answers are constants ([`CountSink`], and the
/// defaults here) compiles to one kernel with no branch for the others.
pub trait TriangleSink {
    /// Rank-indexed per-vertex counters the sink lends the engine, one
    /// per rank of the oriented graph (`n` of them). While it returns
    /// `Some`, the join adds each triangle it finds to the counters of
    /// its three vertices' ranks — the pivot's hits to `v`, each hit
    /// `w`'s mark byte to `w`, the out-list's total to `u` — and calls
    /// neither [`wants_triples`](Self::wants_triples) nor
    /// [`emit`](Self::emit). The counters are in rank space; the sink
    /// translates them to ids once, through the graph's rank → id
    /// table, when the run is done.
    #[inline(always)]
    fn vertex_counts(&mut self) -> Option<&mut [u64]> {
        None
    }

    /// Whether the sink still takes triples. While it returns `false`
    /// the engine counts triangles without producing them: its join
    /// sums mark bytes instead of compacting hits, and `emit` is not
    /// called. The engine asks once per joined out-list, so a sink may
    /// turn it off mid-run (a full [`LimitSink`]).
    #[inline(always)]
    fn wants_triples(&self) -> bool {
        true
    }

    /// Called once per triangle while [`wants_triples`](Self::wants_triples)
    /// holds, `u` the cone vertex, `(v, w)` the pivot edge (so
    /// `u ≺ v ≺ w` in the degree order).
    fn emit(&mut self, u: u32, v: u32, w: u32);

    /// Flush buffered output (no-op by default).
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// Called before each range the sink's core runs into it, with the
    /// range's index in the plan. A sink that keeps a prefix of the
    /// listing in range order marks where the range starts
    /// ([`LimitSink`]); by default nothing happens.
    #[inline(always)]
    fn start_range(&mut self, _range: usize) {}
}

/// One core's sink beside the ranges it ran into it.
#[derive(Debug, Clone)]
pub struct CoreSink<S> {
    /// The sink every range of the core emitted into.
    pub sink: S,
    /// `(range index, triangles)` of each range the core ran, in the
    /// order it ran them: the order its output lies in the sink.
    pub parts: Vec<(usize, u64)>,
}

/// Where each range's output lies in its core's sink, a range of `t`
/// triangles taking `len(t)` units: `(core, start, len)`, indexed by
/// range.
pub(crate) fn range_parts<S>(
    cores: &[CoreSink<S>],
    len: impl Fn(u64) -> u64,
) -> Vec<(usize, u64, u64)> {
    let mut parts = vec![(0, 0, 0); cores.iter().map(|c| c.parts.len()).sum()];
    for (core, c) in cores.iter().enumerate() {
        let mut at = 0;
        for &(i, t) in &c.parts {
            parts[i] = (core, at, len(t));
            at += len(t);
        }
    }
    parts
}

/// Counting-only sink: `emit` is a no-op the optimiser removes; the
/// engine's own counter carries the result.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountSink;

impl TriangleSink for CountSink {
    #[inline(always)]
    fn wants_triples(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _u: u32, _v: u32, _w: u32) {}
}

/// Collects triples in memory (tests, small graphs, analytics).
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    /// The collected triangles in emission order.
    pub triangles: Vec<(u32, u32, u32)>,
}

impl CollectSink {
    /// The listing of a run: every range's triples, in range order,
    /// whichever core ran the range. The listing is allocated zeroed,
    /// which maps pages that cost nothing until written, and each
    /// range's slot of it goes to the core that ran the range. Each
    /// core's triples are then copied into their slots from its last
    /// range back, a chunk at a time off the end of its vector, and the
    /// vector shrunk after each chunk, so the peak is the listing plus a
    /// chunk per core: there is never a second copy of `T`, nor of any
    /// core's share. The cores' copies run on threads of their own:
    /// most of their time is the first touch of the listing's pages.
    ///
    /// # Panics
    ///
    /// If a core's vector does not hold exactly the triangles its
    /// `parts` name.
    pub fn concat(cores: Vec<CoreSink<CollectSink>>) -> Vec<(u32, u32, u32)> {
        /// Triples moved between two shrinks of a core's vector.
        const CHUNK: usize = 1 << 16;
        let mut lens = vec![0; cores.iter().map(|c| c.parts.len()).sum()];
        for &(i, t) in cores.iter().flat_map(|c| &c.parts) {
            lens[i] = t as usize;
        }
        let mut all = vec![(0, 0, 0); lens.iter().sum()];
        let mut slots = Vec::with_capacity(lens.len());
        let mut rest = &mut all[..];
        for len in lens {
            let (slot, tail) = std::mem::take(&mut rest).split_at_mut(len);
            slots.push(Some(slot));
            rest = tail;
        }
        let copies: Vec<_> = (cores.into_iter())
            .map(|CoreSink { sink, parts }| {
                let held: u64 = parts.iter().map(|&(_, t)| t).sum();
                let from = sink.triangles;
                assert_eq!(
                    from.len() as u64,
                    held,
                    "a core's triples and its parts disagree"
                );
                let mine: Vec<_> = (parts.iter())
                    .map(|&(i, _)| slots[i].take().expect("each range is run once"))
                    .collect();
                (from, mine)
            })
            .collect();
        /// Copy `from`, whose ranges run in `slots`' order, into the
        /// slots from the last one back, shrinking `from` as it empties.
        fn place(mut from: Vec<(u32, u32, u32)>, slots: Vec<&mut [(u32, u32, u32)]>) {
            for slot in slots.into_iter().rev() {
                let mut left = slot.len();
                while left > 0 {
                    let (n, end) = (left.min(CHUNK), from.len());
                    slot[left - n..left].copy_from_slice(&from[end - n..]);
                    from.truncate(end - n);
                    from.shrink_to_fit();
                    left -= n;
                }
            }
        }
        if copies.len() > 1 {
            std::thread::scope(|scope| {
                for (from, mine) in copies {
                    scope.spawn(move || place(from, mine));
                }
            });
        } else {
            copies
                .into_iter()
                .for_each(|(from, mine)| place(from, mine));
        }
        all
    }
}

impl TriangleSink for CollectSink {
    fn emit(&mut self, u: u32, v: u32, w: u32) {
        self.triangles.push((u, v, w));
    }
}

/// Keeps the first `limit` triples of its core's ranges taken in range
/// order: a listing preview (`pdtl serve`'s `list --limit`) holds at
/// most `limit` triples a core, as many as when each core ran one
/// range, and which triples it keeps does not depend on which core ran
/// which range. The first `limit` of the listing are among them: the
/// listing's prefix holds, of each core's ranges, a prefix of their
/// output taken in range order. Once the range being run can add
/// nothing to that, the sink wants no more triples and the core counts
/// the rest of the range; the run's total is its report's `triangles`.
#[derive(Debug, Clone)]
pub struct LimitSink {
    limit: usize,
    /// Each range the core ran, in the order it ran them.
    kept: Vec<KeptRange>,
    /// Triples kept over all of `kept`.
    held: usize,
    /// Triples the range being run may keep: `limit` less those kept of
    /// the core's lower ranges.
    room: usize,
}

/// `(range index, the range's kept triples)` of a [`LimitSink`].
type KeptRange = (usize, Vec<(u32, u32, u32)>);

impl LimitSink {
    /// A sink keeping at most `limit` triples.
    pub fn new(limit: usize) -> Self {
        Self {
            limit,
            kept: Vec::new(),
            held: 0,
            room: 0,
        }
    }

    /// The first `limit` triples of a run in range order: the prefix of
    /// [`CollectSink::concat`]'s listing.
    pub fn concat(cores: Vec<CoreSink<LimitSink>>) -> Vec<(u32, u32, u32)> {
        let limit = cores.first().map_or(0, |c| c.sink.limit);
        let mut ranges: Vec<_> = cores.into_iter().flat_map(|c| c.sink.kept).collect();
        ranges.sort_unstable_by_key(|&(i, _)| i);
        ranges
            .into_iter()
            .flat_map(|(_, t)| t)
            .take(limit)
            .collect()
    }

    /// Whether the range being run may keep another triple.
    #[inline(always)]
    fn open(&self) -> bool {
        self.kept.last().is_some_and(|(_, t)| t.len() < self.room)
    }
}

impl TriangleSink for LimitSink {
    #[inline(always)]
    fn wants_triples(&self) -> bool {
        self.open()
    }

    /// Keeps the triple while it is among the first `limit` of the
    /// core's ranges in range order; the triple it then pushes past
    /// them, the last of the highest range holding any, is dropped.
    fn emit(&mut self, u: u32, v: u32, w: u32) {
        if !self.open() {
            return;
        }
        if let Some((_, t)) = self.kept.last_mut() {
            t.push((u, v, w));
        }
        self.held += 1;
        if self.held > self.limit {
            let highest = (self.kept.iter_mut())
                .filter(|(_, t)| !t.is_empty())
                .max_by_key(|&&mut (i, _)| i);
            if let Some((_, t)) = highest {
                t.pop();
                self.held -= 1;
            }
        }
    }

    fn start_range(&mut self, range: usize) {
        let below: usize = (self.kept.iter())
            .filter(|&&(i, _)| i < range)
            .map(|(_, t)| t.len())
            .sum();
        self.room = self.limit - below;
        self.kept.push((range, Vec::new()));
    }
}

/// Streams triples to a binary file (3 × `u32` little-endian per
/// triangle) through a counted writer. On the file-listing path each
/// core owns one, on a part file of its own
/// ([`LocalRunner::run_listing_to_file`](crate::LocalRunner::run_listing_to_file)),
/// so the `T/B` output term is written at the writer's bulk speed
/// while the core holds one buffer, not its triples.
#[derive(Debug)]
pub struct FileSink {
    writer: U32Writer,
}

impl FileSink {
    /// Create a sink writing to `path`.
    pub fn create(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Ok(Self {
            writer: U32Writer::create(path, stats)?,
        })
    }

    /// Whole triangles the writer accepted: after a write failure the
    /// count stops, because the writer drops what follows.
    pub fn written(&self) -> u64 {
        self.writer.written_u32() / 3
    }

    /// Flush and close, returning the triangle count — or the first
    /// write failure, after which no further triple reached the file.
    pub fn finish(self) -> Result<u64> {
        Ok(self.writer.finish()? / 3)
    }

    /// [`finish`](Self::finish) without the sync: for a part file that
    /// is copied into the listing and deleted, which is synced once.
    pub(crate) fn close(self) -> Result<u64> {
        Ok(self.writer.close()? / 3)
    }
}

impl TriangleSink for FileSink {
    #[inline]
    fn emit(&mut self, u: u32, v: u32, w: u32) {
        // A failed write is sticky in the writer (it drops what
        // follows and repeats the error), so the hot path stays
        // infallible and flush()/finish() report it.
        let _ = self.writer.write_triple(u, v, w);
    }

    /// Reports a failed write; the buffer itself is flushed by
    /// [`FileSink::finish`].
    fn flush(&mut self) -> Result<()> {
        self.writer.check()
    }
}

/// Read a [`FileSink`] file back as triples (verification helper). A
/// file that ends inside a triple is malformed, not a shorter listing.
pub fn read_triangle_file(
    path: impl AsRef<Path>,
    stats: Arc<IoStats>,
) -> Result<Vec<(u32, u32, u32)>> {
    let path = path.as_ref();
    let vals = pdtl_io::U32Reader::open(path, stats)?.read_all()?;
    if vals.len() % 3 != 0 {
        return Err(IoError::malformed(
            path,
            format!("{} words is not a whole number of triples", vals.len()),
        ));
    }
    Ok(vals.chunks_exact(3).map(|c| (c[0], c[1], c[2])).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_sink_collects_in_order() {
        let mut s = CollectSink::default();
        s.emit(1, 2, 3);
        s.emit(4, 5, 6);
        assert_eq!(s.triangles, vec![(1, 2, 3), (4, 5, 6)]);
    }

    /// Cores that ran `ranges` (range indices, in the order each core
    /// ran them) of a listing where range `i` found `sizes[i]` triangles,
    /// each triple `(i, k, 0)` for the `k`-th of its range, emitted into
    /// `make()` sinks the way the fan-out emits them.
    fn cores<S: TriangleSink>(
        ranges: &[&[usize]],
        sizes: &[u32],
        make: impl Fn() -> S,
    ) -> Vec<CoreSink<S>> {
        (ranges.iter())
            .map(|ran| {
                let mut sink = make();
                for &i in *ran {
                    sink.start_range(i);
                    (0..sizes[i]).for_each(|k| sink.emit(i as u32, k, 0));
                }
                let parts = ran.iter().map(|&i| (i, u64::from(sizes[i]))).collect();
                CoreSink { sink, parts }
            })
            .collect()
    }

    /// The listing of `sizes` in range order.
    fn listing(sizes: &[u32]) -> Vec<(u32, u32, u32)> {
        (0..sizes.len() as u32)
            .flat_map(|i| (0..sizes[i as usize]).map(move |k| (i, k, 0)))
            .collect()
    }

    #[test]
    fn concat_keeps_range_order_whichever_core_ran_each_range() {
        // Chunks of 2^16 triples: range 3 crosses two of them.
        let sizes = [5, 0, 2, 70_000, 1, 3];
        let claims: [&[&[usize]]; 5] = [
            &[&[5, 4, 3, 2, 1, 0]],
            &[&[5, 2], &[4, 3, 1, 0]],
            &[&[3], &[5, 4, 2, 1, 0], &[]],
            &[&[], &[5, 3, 0], &[4, 2, 1]],
            &[&[1], &[0], &[2], &[3], &[4], &[5]],
        ];
        for ran in claims {
            let all = CollectSink::concat(cores(ran, &sizes, CollectSink::default));
            assert!(all == listing(&sizes), "{ran:?}");
        }
        assert!(CollectSink::concat(Vec::new()).is_empty());
        let none = CoreSink {
            sink: CollectSink::default(),
            parts: Vec::new(),
        };
        assert!(CollectSink::concat(vec![none]).is_empty());
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn concat_refuses_parts_that_do_not_match_the_triples() {
        let mut core = cores(&[&[1, 0]], &[2, 3], CollectSink::default);
        core[0].parts[0].1 -= 1;
        CollectSink::concat(core);
    }

    #[test]
    fn limit_sinks_keep_the_prefix_of_the_listing() {
        let sizes = [2, 0, 9, 1, 6];
        // Claims count down; the last layout runs upward, which the
        // sink keeps right as well.
        let claims: [&[&[usize]]; 4] = [
            &[&[4, 3, 2, 1, 0]],
            &[&[4, 1], &[3, 2, 0]],
            &[&[2], &[4, 3, 1, 0]],
            &[&[0, 2, 4], &[1, 3]],
        ];
        for ran in claims {
            for limit in [0, 1, 2, 3, 4, 11, 12, 18, 40] {
                let sinks = cores(ran, &sizes, || LimitSink::new(limit));
                // A core holds at most `limit`, however many ranges it ran.
                assert!(sinks.iter().all(|c| c.sink.held <= limit));
                let kept = LimitSink::concat(sinks);
                let all = listing(&sizes);
                assert_eq!(kept, all[..limit.min(all.len())], "{ran:?} limit {limit}");
            }
        }
        assert!(LimitSink::concat(Vec::new()).is_empty());
    }

    #[test]
    fn a_limit_sink_wants_triples_until_it_is_full() {
        let mut s = LimitSink::new(2);
        // No range started: nothing to keep.
        assert!(!s.wants_triples());
        s.start_range(4);
        assert!(s.wants_triples());
        s.emit(1, 2, 3);
        assert!(s.wants_triples());
        s.emit(4, 5, 6);
        assert!(!s.wants_triples());
        // A lower range may keep `limit` of its own; each triple it
        // keeps drops one of the higher range's.
        s.start_range(1);
        assert!(s.wants_triples());
        s.emit(7, 8, 9);
        assert_eq!(s.held, 2);
        s.emit(1, 1, 1);
        s.emit(2, 2, 2);
        assert!(!s.wants_triples());
        assert_eq!(s.held, 2);
        assert_eq!(s.kept, vec![(4, vec![]), (1, vec![(7, 8, 9), (1, 1, 1)])]);
        // A higher range has no room left under the lower ones.
        s.start_range(6);
        assert!(!s.wants_triples());
        assert!(!LimitSink::new(0).wants_triples());
        assert!(!CountSink.wants_triples());
        assert!(CollectSink::default().wants_triples());
    }

    #[test]
    fn count_sink_is_noop() {
        let mut s = CountSink;
        s.emit(1, 2, 3);
        s.flush().unwrap();
    }

    #[test]
    fn file_sink_round_trips() {
        let dir = std::env::temp_dir().join("pdtl-sink-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("tri-{}", std::process::id()));
        let stats = IoStats::new();
        let mut s = FileSink::create(&path, stats.clone()).unwrap();
        s.emit(1, 2, 3);
        s.emit(7, 8, 9);
        assert_eq!(s.written(), 2);
        assert_eq!(s.finish().unwrap(), 2);
        let got = read_triangle_file(&path, stats.clone()).unwrap();
        assert_eq!(got, vec![(1, 2, 3), (7, 8, 9)]);
        // output IO is counted — the T/B term exists
        assert_eq!(stats.bytes_written(), 24);
    }

    #[test]
    fn a_file_cut_inside_a_triple_is_malformed() {
        let dir = std::env::temp_dir().join("pdtl-sink-tests");
        std::fs::create_dir_all(&dir).unwrap();
        for extra in [1u32, 2] {
            let path = dir.join(format!("cut-{extra}-{}", std::process::id()));
            let stats = IoStats::new();
            let mut w = U32Writer::create(&path, stats.clone()).unwrap();
            for v in 0..6 + extra {
                w.write(v).unwrap();
            }
            w.finish().unwrap();
            let err = read_triangle_file(&path, stats).unwrap_err();
            assert!(matches!(err, IoError::Malformed { .. }), "{err}");
            let msg = err.to_string();
            assert!(msg.contains(&path.display().to_string()), "{msg}");
            assert!(msg.contains(&format!("{} words", 6 + extra)), "{msg}");
        }
    }

    /// `/dev/full` fails every write with ENOSPC.
    #[cfg(target_os = "linux")]
    #[test]
    fn file_sink_reports_a_full_disk() {
        let mut s = FileSink::create("/dev/full", IoStats::new()).unwrap();
        s.flush().unwrap();
        // Nine writer buffers of triples (16 Ki values each).
        for t in 0..50_000u32 {
            s.emit(t, t + 1, t + 2);
        }
        let err = s.flush().unwrap_err().to_string();
        assert!(err.contains("/dev/full"), "{err}");
        // The count stops at the failure: the first buffer (16 Ki
        // values, the last triple straddling it) failed, and the
        // triples offered after it were dropped, not counted.
        assert_eq!(s.written(), 16 * 1024 / 3);
        s.emit(1, 2, 3);
        assert_eq!(s.written(), 16 * 1024 / 3);
        assert_eq!(s.finish().unwrap_err().to_string(), err);
    }

    #[test]
    fn file_sink_triples_straddle_every_flush() {
        // 16 Ki values a buffer is not a multiple of 3, so a triple
        // straddles every flush; three buffers and a bit round-trip.
        let dir = std::env::temp_dir().join("pdtl-sink-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("straddle-{}", std::process::id()));
        let stats = IoStats::new();
        let want: Vec<_> = (0..20_000u32).map(|i| (i, !i, i.rotate_left(7))).collect();
        let mut s = FileSink::create(&path, stats.clone()).unwrap();
        for &(u, v, w) in &want {
            s.emit(u, v, w);
        }
        assert_eq!(s.finish().unwrap(), want.len() as u64);
        assert_eq!(read_triangle_file(&path, stats.clone()).unwrap(), want);
        assert_eq!(stats.bytes_written(), 12 * want.len() as u64);
    }
}
