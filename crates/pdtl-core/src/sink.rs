//! Triangle output sinks.
//!
//! PDTL is a *listing* framework: the engine reports every triangle
//! `(u, v, w)` — cone vertex first, then the pivot edge — and the sink
//! decides what to do with it. Counting uses the zero-cost [`CountSink`]
//! (the paper's experiments measure counting "to allow comparison with
//! alternative implementations"); listing writes triples through
//! [`CollectSink`] or the buffered on-disk [`FileSink`], whose output
//! cost is the `T/B` term of Theorem IV.2.

use std::path::Path;
use std::sync::Arc;

use pdtl_io::{IoError, IoStats, Result, U32Writer};

/// Consumer of reported triangles.
pub trait TriangleSink {
    /// `true` when [`emit`](Self::emit) ignores its arguments, so the
    /// engine may count a pivot's triangles without producing them
    /// (its join then sums mark bits instead of compacting hits). A
    /// constant rather than a method: the choice is made per sink type
    /// at compile time, so no probe carries a branch for it.
    const COUNTS_ONLY: bool = false;

    /// Called once per triangle, `u` the cone vertex, `(v, w)` the pivot
    /// edge (so `u ≺ v ≺ w` in the degree order).
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
    const COUNTS_ONLY: bool = true;

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

/// Streams triples to a binary file (3 × `u32` little-endian per
/// triangle) through a counted writer.
#[derive(Debug)]
pub struct FileSink {
    writer: U32Writer,
    written: u64,
}

impl FileSink {
    /// Create a sink writing to `path`.
    pub fn create(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Ok(Self {
            writer: U32Writer::create(path, stats)?,
            written: 0,
        })
    }

    /// Triangles written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush and close, returning the triangle count — or the first
    /// write failure, after which no further triple reached the file.
    pub fn finish(self) -> Result<u64> {
        self.writer.finish()?;
        Ok(self.written)
    }
}

impl TriangleSink for FileSink {
    fn emit(&mut self, u: u32, v: u32, w: u32) {
        // A failed write is sticky in the writer (it drops what
        // follows and repeats the error), so the hot path stays
        // infallible and flush()/finish() report it.
        let _ = self.writer.write(u);
        let _ = self.writer.write(v);
        let _ = self.writer.write(w);
        self.written += 1;
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
        assert_eq!(s.finish().unwrap_err().to_string(), err);
    }
}
