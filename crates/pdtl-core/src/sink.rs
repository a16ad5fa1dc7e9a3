//! Triangle output sinks.
//!
//! PDTL is a *listing* framework: the engine reports every triangle
//! `(u, v, w)` — cone vertex first, then the pivot edge — and the sink
//! decides what to do with it. Counting uses the zero-cost [`CountSink`]
//! (the paper's experiments measure counting "to allow comparison with
//! alternative implementations"). Listing to a file gives each worker
//! its own buffered on-disk [`FileSink`], so a worker holds one writer
//! buffer rather than its triples and the output cost — the `T/B` term
//! of Theorem IV.2 — is written at the writer's bulk speed.
//! [`CollectSink`] holds a run's triples in memory (tests, examples,
//! the analytics that take a triangle slice) and [`LimitSink`] the
//! first `limit` of them (`pdtl serve`'s listing preview).
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
    /// translates them to ids once, through the graph's `RankMap`,
    /// when the run is done.
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
    /// The listing of a run: every worker's triples, in worker order.
    /// The largest worker's vector grows in place into the listing and
    /// the others are block-copied around it, so the peak is the listing
    /// plus the smaller workers' triples, not plus a second copy of the
    /// largest (the one a balanced split of a listing run is likely to
    /// leave with the most). Measured, an exact `with_capacity` up front
    /// costs `list-file` 7% of `wall_s`, a `flat_map` collect costs
    /// `serve-mix` 5%.
    pub fn concat(mut sinks: Vec<CollectSink>) -> Vec<(u32, u32, u32)> {
        let Some(largest) = (0..sinks.len()).max_by_key(|&i| sinks[i].triangles.len()) else {
            return Vec::new();
        };
        let mut all = std::mem::take(&mut sinks[largest].triangles);
        let mut head = Vec::new();
        for sink in &mut sinks[..largest] {
            head.extend(std::mem::take(&mut sink.triangles));
        }
        all.splice(0..0, head);
        for sink in &mut sinks[largest + 1..] {
            all.extend(std::mem::take(&mut sink.triangles));
        }
        all
    }
}

impl TriangleSink for CollectSink {
    fn emit(&mut self, u: u32, v: u32, w: u32) {
        self.triangles.push((u, v, w));
    }
}

/// Keeps the first `limit` triples a worker emits: a listing preview
/// (`pdtl serve`'s `list --limit`) holds `limit` triples per worker,
/// not the worker's share of `T`. Once it holds `limit` it wants no
/// more, so the worker counts the rest of its range; the run's total
/// is its report's `triangles`.
#[derive(Debug, Clone)]
pub struct LimitSink {
    limit: usize,
    kept: Vec<(u32, u32, u32)>,
}

impl LimitSink {
    /// A sink keeping at most `limit` triples.
    pub fn new(limit: usize) -> Self {
        Self {
            limit,
            kept: Vec::new(),
        }
    }

    /// The first `limit` triples of a run, in worker order: the prefix
    /// of [`CollectSink::concat`]'s listing.
    pub fn concat(sinks: Vec<LimitSink>) -> Vec<(u32, u32, u32)> {
        let limit = sinks.first().map_or(0, |s| s.limit);
        let kept = sinks.into_iter().flat_map(|s| s.kept).take(limit);
        kept.collect()
    }
}

impl TriangleSink for LimitSink {
    #[inline(always)]
    fn wants_triples(&self) -> bool {
        self.kept.len() < self.limit
    }

    fn emit(&mut self, u: u32, v: u32, w: u32) {
        if self.kept.len() < self.limit {
            self.kept.push((u, v, w));
        }
    }
}

/// Streams triples to a binary file (3 × `u32` little-endian per
/// triangle) through a counted writer. On the file-listing path each
/// worker owns one, on a part file of its own
/// ([`LocalRunner::run_listing_to_file`](crate::LocalRunner::run_listing_to_file)),
/// so the `T/B` output term is written at the writer's bulk speed
/// while the worker holds one buffer, not its triples.
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

    #[test]
    fn concat_keeps_worker_order_wherever_the_largest_sink_is() {
        let sink = |lo: u32, n: u32| CollectSink {
            triangles: (lo..lo + n).map(|i| (i, i, i)).collect(),
        };
        for sizes in [[5, 1, 2], [1, 5, 2], [1, 2, 5], [0, 0, 0], [3, 3, 0]] {
            let mut lo = 0;
            let sinks = sizes.map(|n| {
                lo += n;
                sink(lo - n, n)
            });
            let all: Vec<u32> = CollectSink::concat(sinks.to_vec())
                .iter()
                .map(|t| t.0)
                .collect();
            assert_eq!(all, (0..lo).collect::<Vec<_>>(), "{sizes:?}");
        }
        assert!(CollectSink::concat(Vec::new()).is_empty());
    }

    #[test]
    fn limit_sinks_keep_the_prefix_of_the_listing() {
        let sink = |lo: u32, n: u32| {
            let mut s = LimitSink::new(4);
            (lo..lo + n).for_each(|i| s.emit(i, i, i));
            s
        };
        let kept = LimitSink::concat(vec![sink(0, 2), sink(2, 0), sink(2, 9)]);
        assert_eq!(kept.iter().map(|t| t.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert!(LimitSink::concat(Vec::new()).is_empty());
    }

    #[test]
    fn a_limit_sink_wants_triples_until_it_is_full() {
        let mut s = LimitSink::new(2);
        assert!(s.wants_triples());
        s.emit(1, 2, 3);
        assert!(s.wants_triples());
        s.emit(4, 5, 6);
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
