//! The modified MGT engine (the paper's Algorithm 2), over the
//! rank-space oriented graph.
//!
//! Given the sorted, oriented graph `G*` in rank space, a processor
//! responsible for the contiguous pivot-edge range `[lo, hi)` repeats,
//! until the range is exhausted:
//!
//! 1. **Chunk load** — read the next `c·M` out-neighbours of the range
//!    into the `edg` array, and record in the dense `ind` array (indexed
//!    `v - vlow`) each resident vertex's segment offset and length.
//! 2. **Scan** — stream vertex out-lists `N(u)` from disk into the `nm`
//!    array; compute `N⁺(u)` (those `v ∈ N(u)` with resident out-edges)
//!    via O(1) `ind` probes; then join `N(u)` with the chunk by
//!    **mark and probe**: set the bit of every entry of `nm` above the
//!    first such `v` in a per-worker `n`-bit array, report `(u, v, w)`
//!    for each `w` in each `v`'s resident segment whose bit is set, and
//!    clear the bits again (`ChunkIndex::join`). The marks are the
//!    paper's "arrays, not hash structures" (§IV-A1) once more — `ind`
//!    is already a dense array indexed by vertex — and the probes cost
//!    `Σ_v d⁺(v)·d⁻(v)`, inside Theorem IV.3's `O(α|E|)`.
//!
//! Rank space buys the hot path two structural wins:
//!
//! * **The suffix rule for free** — every `w` completing a triangle
//!   satisfies `w ∈ N(v)` and hence `w > v` numerically, so a probe
//!   from `v`'s segment can only land on marks above `v`: no test
//!   separates the part of `N(u)` before the pivot from the part after.
//! * **Scan pruning** — a chunk resident on `[vlow, vhigh]` can only be
//!   hit by scanned vertices `u < vhigh` (out-neighbours ascend), so the
//!   scan stops there; and a vertex whose precomputed `(min, max)`
//!   out-neighbour bounds miss the window is skipped with
//!   [`U32Reader::skip`](pdtl_io::U32Reader::skip) instead of read,
//!   cutting `bytes_read` in the multi-pass regime where MGT's I/O bound
//!   actually bites. [`MgtOptions::scan_pruning`] gates both (on by
//!   default; `scan_pruning_cuts_bytes_read_in_multipass_runs` and the
//!   I/O tests compare).
//!
//! The join replaced a sorted merge of `nm[idx+1..]` with each segment
//! (~180 list elements per `(u, v)` pair on RMAT-17 at ~2.7 ns each —
//! mispredicted merge branches, not memory); a probe is a load, a shift
//! and an add. The merge kernels of [`crate::intersect`] remain the
//! primitive of the baselines and of the benchmark's oracle. Memory per
//! worker beside the `Θ(M)` chunk: `n/8` bytes of marks and up to
//! `4·d*_max` bytes of compacted hits (listing sinks only), next to the
//! `20n` bytes per graph of `offsets` + `bounds` + `ids`.
//!
//! On top of that, [`MgtOptions::backend`] selects how the remaining
//! I/O is performed. The I/O *plan* — which blocks of the adjacency are
//! touched, in which order — belongs to the one stream cursor
//! ([`pdtl_io::BlockStream`]) and is the same for every backend; a
//! backend is only the fetcher that delivers those blocks
//! ([`IoBackend::open`], the single place one is chosen):
//!
//! * [`IoBackend::Prefetch`] (the default) overlaps I/O with
//!   intersection work: a [`pdtl_io::PrefetchReader`]'s background
//!   thread reads the scan stream ahead (keeping the pruned scan's
//!   coalesced short skips sequential on disk), another's reads the
//!   hinted chunk `k+1` while chunk `k`'s scan pass computes.
//! * [`IoBackend::Mmap`] maps the oriented adjacency once
//!   ([`pdtl_io::MmapSource`]) and lends both the scan stream and the
//!   `edg` chunks *zero-copy*: the chunk index is built directly over
//!   the mapped region, so chunk "loads" become pointer arithmetic plus
//!   accounting — the fastest backend when the graph sits in the page
//!   cache. Unsupported platforms degrade to `Blocking` automatically.
//! * [`IoBackend::Uring`] drives the same overlap through the kernel
//!   instead of threads: block reads are queued on an `io_uring`
//!   submission queue with depth > 1 ([`pdtl_io::UringSource`]), so the
//!   next chunk and the scan read-ahead complete asynchronously while
//!   the engine computes — no producer threads, no hand-off copies.
//!   Kernels without `io_uring` degrade to `Prefetch` automatically.
//! * [`IoBackend::Blocking`] is the PR 2 synchronous behaviour, kept as
//!   the ablation baseline.
//!
//! Switching backends is therefore a pure scheduling change — one
//! accounting, four fetchers: the engine counts the exact same
//! `bytes_read`, `read_ops` and `seeks` whichever backend runs, which
//! the integration and property tests assert. Device waits can be
//! recreated deterministically on warm page caches via
//! [`MgtOptions::io_latency`] (honoured by all four backends).
//!
//! Orthogonal to the backend, the graph's on-disk **codec** decides
//! what those transports carry. A [`Codec::DeltaVarint`] adjacency
//! stores each out-list as delta + varint bytes; the engine reads the
//! codec from the graph header and, when compressed, stacks a
//! [`VarintSource`] decoder on top of whichever transport the backend
//! selected — scan skips, chunk loads and seeks all happen in *decoded*
//! positions while only the encoded bytes cross the device, which is
//! exactly where the multi-pass `|E|²/(MB)` term pays. The decoded
//! logical volume is counted separately
//! ([`IoStats::record_decoded`](pdtl_io::IoStats::record_decoded)), so
//! reports show both dimensions.
//!
//! Everything is arrays, sorted or dense — the paper found set/map
//! structures >10× slower (§IV-A1). Each triangle is found exactly once
//! because its pivot edge `(v, w)` occupies exactly one adjacency
//! position, which belongs to exactly one processor's range and is
//! resident in exactly one chunk.
//! Triangles are translated back to original ids at the sink boundary
//! through the graph's [`RankMap`](pdtl_graph::RankMap), so the output
//! contract (original ids, cone vertex first) is unchanged.
//!
//! Correctness does **not** depend on the small-degree assumption
//! `d* ≤ cM` — a list split across more than two chunks still has each
//! position resident exactly once; the assumption only tightens the CPU
//! bound (§IV-A2). The engine therefore handles over-budget vertices with
//! no special casing and the property tests exercise `M` far below
//! `d*_max`.

use std::sync::Arc;

use pdtl_io::{
    Codec, CpuIoTimer, FaultySource, IoBackend, IoStats, MemoryBudget, U32Source, VarintSource,
};

use crate::balance::EdgeRange;
use crate::error::Result;
use crate::metrics::WorkerReport;
use crate::orient::{OrientedCsr, OrientedGraph};
use crate::sink::TriangleSink;

/// Tuning knobs of the MGT engines (ablation surface).
///
/// `MgtOptions::default()` honours the `PDTL_IO_BACKEND` environment
/// override; struct-update syntax pins individual knobs:
///
/// ```
/// use pdtl_core::mgt::{mgt_in_memory_opt, MgtOptions};
/// use pdtl_core::orient::orient_csr;
/// use pdtl_core::sink::CountSink;
/// use pdtl_graph::gen::classic::complete;
/// use pdtl_io::{IoBackend, MemoryBudget};
///
/// let opts = MgtOptions {
///     backend: IoBackend::Uring, // engines resolve() it per platform
///     ..MgtOptions::default()
/// };
/// let oriented = orient_csr(&complete(10).unwrap());
/// let (triangles, _cpu_ops) =
///     mgt_in_memory_opt(&oriented, MemoryBudget::edges(64), &mut CountSink, opts);
/// assert_eq!(triangles, 120); // C(10, 3)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgtOptions {
    /// Stop each chunk's scan at `vhigh` and seek past out-lists whose
    /// `(min, max)` bounds cannot overlap the resident window. Disable
    /// only to measure the ablation (PR 1 behaviour).
    pub scan_pruning: bool,
    /// How the disk engine performs its chunk and scan I/O. Every
    /// backend counts the exact same `bytes_read` and `seeks` — the
    /// choice is a scheduling/copy change, not a different I/O plan:
    /// [`IoBackend::Prefetch`] (default) hides device waits behind
    /// compute with threads, [`IoBackend::Uring`] does the same through
    /// kernel submission queues, [`IoBackend::Mmap`] serves
    /// page-cache-resident graphs zero-copy, [`IoBackend::Blocking`] is
    /// the synchronous reference.
    /// The `PDTL_IO_BACKEND` env var overrides the default, which is
    /// how the CI matrix runs the suite under each backend. Ignored by
    /// the in-memory engine, which has no I/O at all.
    pub backend: IoBackend,
    /// Emulated per-block-read device latency
    /// ([`pdtl_io::BlockStream::set_read_latency`]), the I/O analogue of the
    /// cluster's `NetModel`: page-cached fixtures never block, so the
    /// blocking-vs-overlapped comparison needs a deterministic way to
    /// recreate the device waits the multi-pass bound is about. Zero
    /// (the default) measures the real hardware.
    pub io_latency: std::time::Duration,
    /// Deterministic fault injection at the scan seam: deliver this
    /// many `u32`s through the scan-pass [`U32Source`], then fail every
    /// further read with an "injected short read" error
    /// ([`pdtl_io::FaultySource`]). Emulates a truncated or dying
    /// replica for the cluster's fault-tolerance tests; `None` (the
    /// default) reads normally.
    pub read_fault: Option<u64>,
    /// How the oriented adjacency is *encoded on disk*
    /// ([`Codec::Raw`] or [`Codec::DeltaVarint`]). This knob selects
    /// the format written by the orientation step (and is what the
    /// cluster ships to workers so every node writes the same format);
    /// the disk engine itself always honours the codec recorded in the
    /// graph's header, so an engine handed a raw graph reads it raw
    /// regardless of this setting. The `PDTL_CODEC` env var overrides
    /// the default, which is how the CI matrix runs the suite under
    /// each codec.
    pub codec: Codec,
}

impl Default for MgtOptions {
    fn default() -> Self {
        Self {
            scan_pruning: true,
            backend: IoBackend::default_from_env(),
            io_latency: std::time::Duration::ZERO,
            read_fault: None,
            codec: Codec::default_from_env(),
        }
    }
}

/// Run MGT over `range` of the oriented graph with the given budget,
/// reporting triangles (original ids) to `sink`. One call = one logical
/// processor.
pub fn mgt_count_range<S: TriangleSink>(
    og: &OrientedGraph,
    range: EdgeRange,
    budget: MemoryBudget,
    sink: &mut S,
    stats: Arc<IoStats>,
) -> Result<WorkerReport> {
    mgt_count_range_opt(og, range, budget, sink, stats, MgtOptions::default())
}

/// [`mgt_count_range`] with explicit [`MgtOptions`].
pub fn mgt_count_range_opt<S: TriangleSink>(
    og: &OrientedGraph,
    range: EdgeRange,
    budget: MemoryBudget,
    sink: &mut S,
    stats: Arc<IoStats>,
    opts: MgtOptions,
) -> Result<WorkerReport> {
    let timer = CpuIoTimer::start(stats.clone());
    let io_before = stats.snapshot();

    // Two streams over the oriented adjacency, opened the same way:
    // one for the scan pass, one for chunk loads.
    let open = |backend: IoBackend| backend.open(&og.disk.adj_path(), &stats, opts.io_latency);
    let (served, scan) = open(opts.backend)?;
    let (_, chunks) = open(served)?;
    // The scan stream is wrapped in `FaultySource` so `read_fault` can
    // cut data delivery at a deterministic offset; an unset fault is an
    // unlimited budget (a compare + subtract per out-list, and the
    // transport's borrowed runs pass through untouched).
    let fault_budget = opts.read_fault.unwrap_or(u64::MAX);
    let (triangles, cpu_ops, iterations) = if og.disk.codec() == Codec::DeltaVarint {
        // Compressed adjacency: the transports still move the *encoded*
        // bytes, and a `VarintSource` above each decodes runs back into
        // rank space — scan skips, chunk loads and seeks all happen in
        // decoded positions. The decoder issues identical word-granular
        // operations whichever fetcher carries the bytes, so the
        // compressed format needs no per-backend cases either. Decoded
        // runs cannot be lent, and a decoded `next` chunk has no fixed
        // byte address to hint until the decoder reaches it.
        let index = og.varint_index().ok_or_else(|| {
            pdtl_io::IoError::malformed(
                og.disk.adj_path(),
                "delta-varint graph carries no varint index",
            )
        })?;
        let decoding = |transport| VarintSource::new(transport, index.clone(), stats.clone());
        let scan = FaultySource::new(decoding(scan)?, fault_budget);
        mgt_disk_loop(og, range, budget, sink, opts, decoding(chunks)?, scan)?
    } else {
        let scan = FaultySource::new(scan, fault_budget);
        mgt_disk_loop(og, range, budget, sink, opts, chunks, scan)?
    };
    sink.flush()?;

    let io_after = stats.snapshot();
    Ok(WorkerReport {
        worker: 0,
        range,
        triangles,
        iterations,
        cpu_ops,
        io: pdtl_io::stats::IoSnapshot {
            bytes_read: io_after.bytes_read - io_before.bytes_read,
            bytes_written: io_after.bytes_written - io_before.bytes_written,
            read_ops: io_after.read_ops - io_before.read_ops,
            write_ops: io_after.write_ops - io_before.write_ops,
            seeks: io_after.seeks - io_before.seeks,
            io_time: io_after.io_time.saturating_sub(io_before.io_time),
            u32s_decoded: io_after.u32s_decoded - io_before.u32s_decoded,
        },
        breakdown: timer.finish(),
    })
}

/// The disk engine's chunk/scan loop, generic over the two streams'
/// layer stack (raw cursor, or a decoder above it) so per-out-list
/// calls stay direct; backends differ only behind the cursor's block
/// fetches. Returns `(triangles, cpu_ops, iterations)`.
fn mgt_disk_loop<S: TriangleSink, C: U32Source, R: U32Source>(
    og: &OrientedGraph,
    range: EdgeRange,
    budget: MemoryBudget,
    sink: &mut S,
    opts: MgtOptions,
    mut chunks: C,
    mut scan_reader: R,
) -> Result<(u64, u64, u64)> {
    let offsets = &og.offsets;
    let ids = og.map.ids();
    let n = og.num_vertices();
    let chunk_cap = budget.chunk_edges();
    // Backing storage for streams that copy (the mapped adjacency lends
    // slices of the mapping instead and leaves these untouched).
    let mut edg_buf: Vec<u32> = Vec::with_capacity(chunk_cap.min(range.len() as usize));
    let mut ind: Vec<(u32, u32)> = Vec::new();
    let mut nm_buf: Vec<u32> = Vec::with_capacity(og.d_star_max as usize);
    let mut scratch = JoinScratch::new(n);
    let mut triangles = 0u64;
    let mut cpu_ops = 0u64;
    let mut iterations = 0u64;

    let mut pos = range.start;
    while pos < range.end {
        let len = (range.end - pos).min(chunk_cap as u64) as usize;
        iterations += 1;

        // -- chunk load: edg + ind ------------------------------------
        // Announce the chunk after this one first: a stream that reads
        // ahead starts on it once this one is loaded, during the scan.
        let chunk_end = pos + len as u64;
        if chunk_end < range.end {
            let next_len = (range.end - chunk_end).min(chunk_cap as u64) as usize;
            chunks.hint_range(chunk_end, next_len);
        }
        let edg = chunks.range_run(pos, len, &mut edg_buf)?;
        let window = build_chunk_index(offsets, pos, chunk_end, &mut ind);
        cpu_ops += len as u64 + window.ind.len() as u64;

        // -- scan pass ------------------------------------------------
        // Only u < vhigh can hold a window vertex: out-neighbours ascend
        // in rank space, so every v ∈ N(u) satisfies v > u.
        let scan_cap = if opts.scan_pruning { window.vhigh } else { n };
        scan_reader.seek_to(0)?;
        for u in 0..scan_cap {
            let du = (offsets[u as usize + 1] - offsets[u as usize]) as usize;
            if du == 0 {
                continue;
            }
            if opts.scan_pruning {
                let (bmin, bmax) = og.bounds[u as usize];
                if bmax < window.vlow || bmin > window.vhigh {
                    scan_reader.skip(du as u64)?;
                    cpu_ops += 1;
                    continue;
                }
            }
            let nm = scan_reader.next_run(du, &mut nm_buf)?;
            let (t, ops) = window.join(&mut scratch, ids, edg, u, nm, sink);
            triangles += t;
            cpu_ops += du as u64 + ops;
        }
        debug_assert!(scratch.is_clear(), "join left marks behind");

        pos = chunk_end;
    }
    Ok((triangles, cpu_ops, iterations))
}

/// Build the dense chunk index for the resident window `[pos,
/// chunk_end)`: `ind[v - vlow] = (offset within the chunk, length)` for
/// every vertex with resident out-edges. Shared by the disk and
/// in-memory engines so they cannot drift.
fn build_chunk_index<'a>(
    offsets: &[u64],
    pos: u64,
    chunk_end: u64,
    ind: &'a mut Vec<(u32, u32)>,
) -> ChunkIndex<'a> {
    let vlow = vertex_of(offsets, pos);
    let vhigh = vertex_of(offsets, chunk_end - 1);
    ind.clear();
    ind.resize((vhigh - vlow + 1) as usize, (0, 0));
    for v in vlow..=vhigh {
        let seg_start = offsets[v as usize].max(pos);
        let seg_end = offsets[v as usize + 1].min(chunk_end);
        if seg_end > seg_start {
            ind[(v - vlow) as usize] = ((seg_start - pos) as u32, (seg_end - seg_start) as u32);
        }
    }
    ChunkIndex { vlow, vhigh, ind }
}

/// The resident window of one iteration: its vertices `[vlow, vhigh]`
/// and their segments of the `edg` chunk.
struct ChunkIndex<'a> {
    vlow: u32,
    vhigh: u32,
    ind: &'a [(u32, u32)],
}

impl ChunkIndex<'_> {
    /// Algorithm 2's join of one out-list `nm = N(u)` with the resident
    /// chunk `edg`, as one mark-and-probe pass (Chiba–Nishizeki's
    /// marking scheme over the dense vertex range):
    ///
    /// 1. **mark** — set the bit of every entry of `nm` above the first
    ///    `v ∈ N⁺(u)` (entries of `nm` with resident out-edges; `nm` is
    ///    sorted, so restrict to `[vlow, vhigh]` first);
    /// 2. **probe** — for each such `v`, every `w` in `v`'s resident
    ///    segment whose bit is set closes the triangle `(u, v, w)`.
    ///    Out-neighbours ascend, so every probed `w > v`: marks at or
    ///    below `v` are never read and the suffix rule needs no test;
    /// 3. **clear** — unset exactly what step 1 set.
    ///
    /// The probe is one load, one shift and one add per `w`, with no
    /// branch on the outcome — the sorted merge this replaces spent its
    /// time in mispredicted compare branches, not in memory. That is
    /// why counting and listing differ: a counting sink
    /// ([`TriangleSink::COUNTS_ONLY`]) sums the bits, and a listing
    /// sink gets its hits compacted branch-free first and translated to
    /// original ids after, so neither loop branches per probe. Triples
    /// come out in the merge's order: `v` ascending, then `w`
    /// ascending.
    ///
    /// Returns `(triangles, marks + probes)`; the marks and the hits
    /// live in the worker's [`JoinScratch`]. Always inlined: as a call
    /// per out-list it cost the multi-pass engine 7% of `calc_s`.
    #[inline(always)]
    fn join<S: TriangleSink>(
        &self,
        scratch: &mut JoinScratch,
        ids: &[u32],
        edg: &[u32],
        u: u32,
        nm: &[u32],
        sink: &mut S,
    ) -> (u64, u64) {
        let lo_i = nm.partition_point(|&x| x < self.vlow);
        // The last entry of `nm` has nothing above it to pair with.
        let hi_i = nm
            .partition_point(|&x| x <= self.vhigh)
            .min(nm.len().saturating_sub(1));
        let segment = |v: u32| self.ind[(v - self.vlow) as usize];
        let Some(first) = (lo_i..hi_i).find(|&idx| segment(nm[idx]).1 != 0) else {
            return (0, 0);
        };
        let marked = &nm[first + 1..];
        scratch.mark(marked);
        let iu = ids[u as usize];
        let (mut triangles, mut probes) = (0u64, 0u64);
        for &v in &nm[first..hi_i] {
            let (seg_off, seg_len) = segment(v);
            let ev = &edg[seg_off as usize..(seg_off + seg_len) as usize];
            probes += ev.len() as u64;
            if S::COUNTS_ONLY {
                triangles += scratch.count_marked(ev);
            } else {
                let iv = ids[v as usize];
                let hits = scratch.marked_of(ev);
                for &w in hits {
                    sink.emit(iu, iv, ids[w as usize]);
                }
                triangles += hits.len() as u64;
            }
        }
        scratch.clear(marked);
        (triangles, marked.len() as u64 + probes)
    }
}

/// Per-worker scratch of [`ChunkIndex::join`]: `n/8` bytes of marks and
/// up to `4·d*_max` bytes of hits (the module doc sets them beside what
/// a worker already holds).
struct JoinScratch {
    /// One bit per vertex, all zero between joins.
    marks: Vec<u64>,
    /// The marked entries of the segment probed last (listing sinks
    /// only; grows to the longest segment seen).
    hits: Vec<u32>,
}

impl JoinScratch {
    fn new(n: u32) -> Self {
        Self {
            marks: vec![0; (n as usize).div_ceil(64)],
            hits: Vec::new(),
        }
    }

    fn mark(&mut self, ws: &[u32]) {
        for &w in ws {
            self.marks[(w >> 6) as usize] |= 1 << (w & 63);
        }
    }

    /// Undo [`Self::mark`]`(ws)`: no other bit is set, so zeroing the
    /// words `ws` touches clears exactly the bits it set.
    fn clear(&mut self, ws: &[u32]) {
        for &w in ws {
            self.marks[(w >> 6) as usize] = 0;
        }
    }

    fn is_clear(&self) -> bool {
        self.marks.iter().all(|&word| word == 0)
    }

    #[inline(always)]
    fn bit(&self, w: u32) -> u64 {
        (self.marks[(w >> 6) as usize] >> (w & 63)) & 1
    }

    /// How many of `ws` are marked.
    #[inline(always)]
    fn count_marked(&self, ws: &[u32]) -> u64 {
        ws.iter().map(|&w| self.bit(w)).sum()
    }

    /// The marked entries of `ws`, in order: every `w` is stored at the
    /// cursor and the cursor advances by its bit, so a miss is
    /// overwritten by the next entry.
    #[inline(always)]
    fn marked_of(&mut self, ws: &[u32]) -> &[u32] {
        if self.hits.len() < ws.len() {
            self.hits.resize(ws.len(), 0);
        }
        let mut k = 0usize;
        for &w in ws {
            self.hits[k] = w;
            k += self.bit(w) as usize;
        }
        &self.hits[..k]
    }
}

/// Index of the vertex owning adjacency position `pos` (vertices with
/// `d* = 0` own no positions and are skipped automatically).
#[inline]
fn vertex_of(offsets: &[u64], pos: u64) -> u32 {
    debug_assert!(pos < *offsets.last().unwrap());
    (offsets.partition_point(|&o| o <= pos) - 1) as u32
}

/// Pure in-memory MGT over an [`OrientedCsr`] — identical chunk logic
/// without the disk, used by tests, baselines and the convenience
/// counter. Emits original ids. Returns (triangles, cpu_ops).
pub fn mgt_in_memory<S: TriangleSink>(
    o: &OrientedCsr,
    budget: MemoryBudget,
    sink: &mut S,
) -> (u64, u64) {
    mgt_in_memory_opt(o, budget, sink, MgtOptions::default())
}

/// [`mgt_in_memory`] with explicit [`MgtOptions`].
pub fn mgt_in_memory_opt<S: TriangleSink>(
    o: &OrientedCsr,
    budget: MemoryBudget,
    sink: &mut S,
    opts: MgtOptions,
) -> (u64, u64) {
    let n = o.num_vertices();
    let ids = o.map.ids();
    let m_star = o.m_star();
    let chunk_cap = budget.chunk_edges() as u64;
    let mut triangles = 0u64;
    let mut cpu_ops = 0u64;
    let mut ind: Vec<(u32, u32)> = Vec::new();
    let mut scratch = JoinScratch::new(n);

    let mut pos = 0u64;
    while pos < m_star {
        let chunk_end = (pos + chunk_cap).min(m_star);
        let edg = &o.adj[pos as usize..chunk_end as usize];
        let window = build_chunk_index(&o.offsets, pos, chunk_end, &mut ind);
        cpu_ops += edg.len() as u64 + window.ind.len() as u64;

        let scan_cap = if opts.scan_pruning { window.vhigh } else { n };
        for u in 0..scan_cap {
            let nm = o.out(u);
            if nm.is_empty() {
                continue;
            }
            if opts.scan_pruning && (*nm.last().unwrap() < window.vlow || nm[0] > window.vhigh) {
                cpu_ops += 1;
                continue;
            }
            let (t, ops) = window.join(&mut scratch, ids, edg, u, nm, sink);
            triangles += t;
            cpu_ops += nm.len() as u64 + ops;
        }
        debug_assert!(scratch.is_clear(), "join left marks behind");
        pos = chunk_end;
    }
    let _ = sink.flush();
    (triangles, cpu_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orient::{orient_csr, orient_to_disk};
    use crate::sink::{CollectSink, CountSink};
    use pdtl_graph::gen::classic::{complete, cycle, grid, wheel};
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;
    use pdtl_graph::{DiskGraph, Graph};
    use std::path::PathBuf;

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-mgt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn disk_oriented(g: &Graph, tag: &str) -> (OrientedGraph, Arc<IoStats>) {
        let stats = IoStats::new();
        let dg = DiskGraph::write(g, tmpbase(&format!("{tag}-in")), &stats).unwrap();
        let (og, _) = orient_to_disk(&dg, tmpbase(&format!("{tag}-or")), 2, &stats).unwrap();
        (og, stats)
    }

    fn full_range(og: &OrientedGraph) -> EdgeRange {
        EdgeRange {
            start: 0,
            end: og.m_star(),
        }
    }

    #[test]
    fn counts_fixture_graphs_exactly() {
        for (g, tag) in [
            (complete(10).unwrap(), "k10"),
            (cycle(12).unwrap(), "c12"),
            (wheel(9).unwrap(), "w9"),
            (grid(5, 6).unwrap(), "g56"),
        ] {
            let expected = triangle_count(&g);
            let (og, stats) = disk_oriented(&g, tag);
            let r = mgt_count_range(
                &og,
                full_range(&og),
                MemoryBudget::edges(1 << 16),
                &mut CountSink,
                stats,
            )
            .unwrap();
            assert_eq!(r.triangles, expected, "{tag}");
        }
    }

    #[test]
    fn counts_match_oracle_on_rmat_across_budgets() {
        let g = rmat(8, 11).unwrap();
        let expected = triangle_count(&g);
        let (og, stats) = disk_oriented(&g, "budgets");
        // budgets from "everything fits" down to pathologically tiny,
        // including below d*_max (small-degree assumption violated).
        for edges in [1 << 20, 4096, 256, 32, 8, 2] {
            let r = mgt_count_range(
                &og,
                full_range(&og),
                MemoryBudget::edges(edges),
                &mut CountSink,
                stats.clone(),
            )
            .unwrap();
            assert_eq!(r.triangles, expected, "budget {edges}");
            assert_eq!(
                r.iterations,
                MemoryBudget::edges(edges).iterations_for(og.m_star())
            );
        }
    }

    #[test]
    fn pruned_and_unpruned_agree() {
        let g = rmat(8, 11).unwrap();
        let expected = triangle_count(&g);
        let (og, stats) = disk_oriented(&g, "prune-agree");
        for edges in [1 << 20, 512, 16] {
            for prune in [true, false] {
                let r = mgt_count_range_opt(
                    &og,
                    full_range(&og),
                    MemoryBudget::edges(edges),
                    &mut CountSink,
                    stats.clone(),
                    MgtOptions {
                        scan_pruning: prune,
                        ..MgtOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(r.triangles, expected, "budget {edges} prune {prune}");
            }
        }
    }

    #[test]
    fn scan_pruning_cuts_bytes_read_in_multipass_runs() {
        // The adjacency file must span several read buffers (64 KiB)
        // for block-granular pruning to bite: RMAT-12 is ~4 buffers
        // raw. The fixture is pinned to the raw codec — delta-varint
        // shrinks it to ~1.3 buffers, at which point skip coalescing
        // reads the whole file through regardless of pruning and the
        // ablation being measured here disappears (the codec's own
        // bytes_read win is asserted at the pipeline level instead).
        use crate::orient::orient_to_disk_with;
        let g = rmat(12, 18).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("prune-io-in"), &stats).unwrap();
        let (og, _) =
            orient_to_disk_with(&dg, tmpbase("prune-io-or"), 2, Codec::Raw, &stats).unwrap();
        let run = |prune: bool| {
            let s = IoStats::new();
            let r = mgt_count_range_opt(
                &og,
                full_range(&og),
                MemoryBudget::edges(4096),
                &mut CountSink,
                s,
                MgtOptions {
                    scan_pruning: prune,
                    ..MgtOptions::default()
                },
            )
            .unwrap();
            (r.triangles, r.io.bytes_read, r.io.seeks, r.iterations)
        };
        let (t_pruned, io_pruned, seeks_pruned, iters) = run(true);
        let (t_full, io_full, _, _) = run(false);
        println!(
            "scan pruning bytes_read: {io_pruned} vs {io_full} ({:.1}% cut), \
             {seeks_pruned} seeks over {iters} iterations",
            100.0 * (1.0 - io_pruned as f64 / io_full as f64)
        );
        assert_eq!(t_pruned, t_full);
        assert!(
            io_pruned * 5 <= io_full * 4,
            "pruning must cut at least 20% of bytes_read: {io_pruned} vs {io_full}"
        );
        // Regression for the seek storm: before skip coalescing, every
        // buffer-missing skip paid an OS seek (thousands across this
        // fixture). With read-through, only the per-iteration chunk
        // seek + scan rewind remain, plus the occasional genuinely
        // long skip.
        assert!(
            seeks_pruned <= 3 * iters,
            "pruned scan must not seek-storm: {seeks_pruned} seeks over {iters} iterations"
        );
    }

    #[test]
    fn overlap_reduces_wall_time_in_multipass_runs() {
        // RMAT-12 at budget 4096 is the multi-pass regime the Theorem
        // IV.2 `|E|²/(MB)` term dominates: the blocking engine stalls
        // on every chunk load and scan refill. The fixture lives in the
        // page cache (and CI machines may have a single core), so the
        // device waits that regime is about are recreated with the
        // deterministic `io_latency` emulation — 50 µs per block read,
        // a fast-SSD figure. A sleeping producer yields its core, so
        // genuine overlap shows up even on one CPU; what cannot be
        // hidden (first block after each scan rewind) still bounds the
        // win, keeping the comparison honest. Min-of-3 runs per mode.
        let g = rmat(12, 18).unwrap();
        let (og, _) = disk_oriented(&g, "overlap-wall");
        let run = |backend: IoBackend| {
            let s = IoStats::new();
            let r = mgt_count_range_opt(
                &og,
                full_range(&og),
                MemoryBudget::edges(4096),
                &mut CountSink,
                s,
                MgtOptions {
                    backend,
                    io_latency: std::time::Duration::from_micros(50),
                    ..MgtOptions::default()
                },
            )
            .unwrap();
            (r.triangles, r.io.bytes_read, r.io.seeks, r.breakdown.wall)
        };
        let best = |backend| (0..3).map(|_| run(backend)).min_by_key(|r| r.3).unwrap();
        let (t_ov, bytes_ov, seeks_ov, wall_ov) = best(IoBackend::Prefetch);
        let (t_bl, bytes_bl, seeks_bl, wall_bl) = best(IoBackend::Blocking);
        println!(
            "prefetch backend wall at 50µs/block device latency: {wall_ov:?} vs blocking \
             {wall_bl:?} ({:.1}% cut; {bytes_ov} bytes, {seeks_ov} seeks each)",
            100.0 * (1.0 - wall_ov.as_secs_f64() / wall_bl.as_secs_f64())
        );
        assert_eq!(t_ov, t_bl, "identical triangle counts");
        assert_eq!(bytes_ov, bytes_bl, "identical bytes_read");
        assert_eq!(seeks_ov, seeks_bl, "identical seeks");
        // The wall-clock claim is asserted for optimized builds only:
        // debug builds time unoptimized mutex/condvar/decode paths (on
        // possibly single-core CI boxes), which is not the comparison
        // the overlap is about. Release runs cut ~20% here; on a
        // machine saturated by other work, PDTL_SKIP_PERF_ASSERTS=1
        // opts out of the strict inequality (counts/bytes/seeks above
        // are always asserted).
        if cfg!(debug_assertions) || std::env::var_os("PDTL_SKIP_PERF_ASSERTS").is_some() {
            return;
        }
        assert!(
            wall_ov < wall_bl,
            "overlapped I/O must reduce wall time in the multi-pass regime: \
             {wall_ov:?} vs {wall_bl:?}"
        );
    }

    #[test]
    fn all_backends_agree_across_budgets() {
        // Every I/O backend must produce the oracle count and identical
        // I/O accounting at every budget, including chunk = 1 edge. The
        // blocking engine is the accounting reference.
        let g = rmat(8, 11).unwrap();
        let expected = triangle_count(&g);
        let (og, _) = disk_oriented(&g, "backend-agree");
        for edges in [1 << 20, 4096, 256, 32, 8, 2] {
            let run = |backend: IoBackend| {
                let s = IoStats::new();
                let r = mgt_count_range_opt(
                    &og,
                    full_range(&og),
                    MemoryBudget::edges(edges),
                    &mut CountSink,
                    s,
                    MgtOptions {
                        backend,
                        ..MgtOptions::default()
                    },
                )
                .unwrap();
                (r.triangles, r.io.bytes_read, r.io.seeks)
            };
            let (t_bl, bytes_bl, seeks_bl) = run(IoBackend::Blocking);
            assert_eq!(t_bl, expected, "budget {edges}");
            for backend in [IoBackend::Prefetch, IoBackend::Mmap, IoBackend::Uring] {
                let (t, bytes, seeks) = run(backend);
                assert_eq!(t, expected, "budget {edges} {backend}");
                assert_eq!(bytes, bytes_bl, "budget {edges} {backend}: bytes_read");
                assert_eq!(seeks, seeks_bl, "budget {edges} {backend}: seeks");
            }
        }
    }

    #[test]
    fn compressed_graphs_count_identically_across_backends() {
        // The codec × transport cross-product: a delta-varint graph
        // must produce the oracle count under every backend, with the
        // decoded-volume dimension populated and identical accounting
        // across backends (the decoder issues the same word ops
        // whichever transport carries the bytes).
        use crate::orient::orient_to_disk_with;
        let g = rmat(8, 11).unwrap();
        let expected = triangle_count(&g);
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("codec-agree-in"), &stats).unwrap();
        let (og, _) = orient_to_disk_with(
            &dg,
            tmpbase("codec-agree-or"),
            2,
            Codec::DeltaVarint,
            &stats,
        )
        .unwrap();
        assert_eq!(og.disk.codec(), Codec::DeltaVarint);
        for edges in [1 << 20, 256, 8] {
            let run = |backend: IoBackend| {
                let s = IoStats::new();
                let r = mgt_count_range_opt(
                    &og,
                    full_range(&og),
                    MemoryBudget::edges(edges),
                    &mut CountSink,
                    s,
                    MgtOptions {
                        backend,
                        ..MgtOptions::default()
                    },
                )
                .unwrap();
                (r.triangles, r.io.bytes_read, r.io.seeks, r.io.u32s_decoded)
            };
            let (t_bl, bytes_bl, seeks_bl, dec_bl) = run(IoBackend::Blocking);
            assert_eq!(t_bl, expected, "budget {edges}");
            assert!(dec_bl > 0, "decoded dimension must be populated");
            for backend in [IoBackend::Prefetch, IoBackend::Mmap, IoBackend::Uring] {
                let (t, bytes, seeks, dec) = run(backend);
                assert_eq!(t, expected, "budget {edges} {backend}");
                assert_eq!(bytes, bytes_bl, "budget {edges} {backend}: bytes_read");
                assert_eq!(seeks, seeks_bl, "budget {edges} {backend}: seeks");
                assert_eq!(dec, dec_bl, "budget {edges} {backend}: u32s_decoded");
            }
        }
    }

    #[test]
    fn ranges_partition_the_count() {
        let g = rmat(8, 12).unwrap();
        let expected = triangle_count(&g);
        let (og, stats) = disk_oriented(&g, "ranges");
        let m = og.m_star();
        for parts in [2u64, 3, 7] {
            let mut total = 0u64;
            for i in 0..parts {
                let range = EdgeRange {
                    start: m * i / parts,
                    end: m * (i + 1) / parts,
                };
                let r = mgt_count_range(
                    &og,
                    range,
                    MemoryBudget::edges(512),
                    &mut CountSink,
                    stats.clone(),
                )
                .unwrap();
                total += r.triangles;
            }
            assert_eq!(total, expected, "parts {parts}");
        }
    }

    #[test]
    fn listing_matches_oracle_set() {
        let g = rmat(7, 13).unwrap();
        let (og, stats) = disk_oriented(&g, "listing");
        let mut sink = CollectSink::default();
        let r = mgt_count_range(
            &og,
            full_range(&og),
            MemoryBudget::edges(128),
            &mut sink,
            stats,
        )
        .unwrap();
        assert_eq!(r.triangles as usize, sink.triangles.len());

        // canonicalise (u,v,w) -> sorted ids and compare with oracle
        let mut got: Vec<(u32, u32, u32)> = sink
            .triangles
            .iter()
            .map(|&(a, b, c)| {
                let mut t = [a, b, c];
                t.sort_unstable();
                (t[0], t[1], t[2])
            })
            .collect();
        got.sort_unstable();
        let mut expected = pdtl_graph::verify::triangle_list(&g);
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn each_triangle_emitted_once_with_cone_first() {
        // The sink boundary translates ranks back: emitted triples are
        // original ids, cone vertex first under the degree order.
        let g = rmat(6, 14).unwrap();
        let (og, stats) = disk_oriented(&g, "cone");
        let mut sink = CollectSink::default();
        mgt_count_range(
            &og,
            full_range(&og),
            MemoryBudget::edges(64),
            &mut sink,
            stats,
        )
        .unwrap();
        let degrees = g.degrees();
        let ord = crate::order::DegreeOrder::new(&degrees);
        let mut seen = std::collections::HashSet::new();
        for &(u, v, w) in &sink.triangles {
            assert!(ord.precedes(u, v) && ord.precedes(v, w), "u ≺ v ≺ w");
            assert!(g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w));
            let mut t = [u, v, w];
            t.sort_unstable();
            assert!(seen.insert(t), "duplicate triangle {t:?}");
        }
    }

    #[test]
    fn empty_range_and_empty_graph() {
        let g = rmat(6, 15).unwrap();
        let (og, stats) = disk_oriented(&g, "empty-range");
        let r = mgt_count_range(
            &og,
            EdgeRange { start: 5, end: 5 },
            MemoryBudget::edges(64),
            &mut CountSink,
            stats,
        )
        .unwrap();
        assert_eq!(r.triangles, 0);
        assert_eq!(r.iterations, 0);

        let g = Graph::empty(4);
        let (og, stats) = disk_oriented(&g, "empty-graph");
        let r = mgt_count_range(
            &og,
            full_range(&og),
            MemoryBudget::edges(64),
            &mut CountSink,
            stats,
        )
        .unwrap();
        assert_eq!(r.triangles, 0);
    }

    #[test]
    fn io_grows_with_iterations() {
        // Theorem IV.2: h = ceil(m*/cM) passes over the graph.
        let g = rmat(8, 16).unwrap();
        let (og, stats) = disk_oriented(&g, "iogrow");
        let run = |edges: usize| {
            let s = IoStats::new();
            let r = mgt_count_range(
                &og,
                EdgeRange {
                    start: 0,
                    end: og.m_star(),
                },
                MemoryBudget::edges(edges),
                &mut CountSink,
                s,
            )
            .unwrap();
            (r.iterations, r.io.bytes_read)
        };
        let _ = &stats;
        let (it_big, io_big) = run(1 << 20);
        let (it_small, io_small) = run(256);
        assert_eq!(it_big, 1);
        assert!(it_small > it_big);
        assert!(
            io_small > 2 * io_big,
            "more iterations must re-scan the graph: {io_small} vs {io_big}"
        );
    }

    #[test]
    fn in_memory_matches_disk_engine() {
        let g = rmat(8, 17).unwrap();
        let o = orient_csr(&g);
        for edges in [1 << 20, 512, 16] {
            let (t, ops) = mgt_in_memory(&o, MemoryBudget::edges(edges), &mut CountSink);
            assert_eq!(t, triangle_count(&g), "budget {edges}");
            assert!(ops > 0);
        }
    }

    #[test]
    fn in_memory_pruning_agrees_and_saves_work() {
        let g = rmat(8, 20).unwrap();
        let o = orient_csr(&g);
        let budget = MemoryBudget::edges(512);
        let (t_p, ops_p) = mgt_in_memory_opt(&o, budget, &mut CountSink, MgtOptions::default());
        let (t_f, ops_f) = mgt_in_memory_opt(
            &o,
            budget,
            &mut CountSink,
            MgtOptions {
                scan_pruning: false,
                ..MgtOptions::default()
            },
        );
        assert_eq!(t_p, t_f);
        assert!(
            ops_p < ops_f,
            "pruning must reduce counted work: {ops_p} vs {ops_f}"
        );
    }

    #[test]
    fn cpu_ops_respect_arboricity_flavor() {
        // On the (planar) grid the intersection work must stay linear-ish
        // in |E|: cpu_ops = O(|E|) with a small constant when M is large.
        // The counted-comparison accounting tightens the old 20|E| bound.
        let g = grid(40, 40).unwrap();
        let o = orient_csr(&g);
        let (_, ops) = mgt_in_memory(&o, MemoryBudget::edges(1 << 22), &mut CountSink);
        let m = g.num_edges();
        assert!(
            ops < 8 * m,
            "planar graph: ops {ops} should be O(|E|) = O({m})"
        );
    }

    /// The join's contract, spelled without it: per chunk, per `u`,
    /// per resident `v ∈ N(u)` ascending, the `w` of `v`'s resident
    /// segment that are also in `N(u)` above `v` — what a sorted merge
    /// of `N(u)`'s suffix with the segment visits, in its order.
    fn reference_listing(o: &OrientedCsr, chunk: u64) -> Vec<(u32, u32, u32)> {
        let ids = o.map.ids();
        let mut out = Vec::new();
        let mut pos = 0u64;
        while pos < o.m_star() {
            let end = (pos + chunk).min(o.m_star());
            for u in 0..o.num_vertices() {
                let nm = o.out(u);
                for (idx, &v) in nm.iter().enumerate() {
                    let lo = o.offsets[v as usize].max(pos);
                    let hi = o.offsets[v as usize + 1].min(end);
                    for &w in o.adj.get(lo as usize..hi as usize).unwrap_or(&[]) {
                        if nm[idx + 1..].binary_search(&w).is_ok() {
                            out.push((ids[u as usize], ids[v as usize], ids[w as usize]));
                        }
                    }
                }
            }
            pos = end;
        }
        out
    }

    #[test]
    fn join_lists_in_merge_order_counts_alike_and_leaves_no_marks() {
        use pdtl_graph::gen::classic::erdos_renyi;
        use pdtl_graph::gen::models::barabasi_albert;
        for (g, tag) in [
            (erdos_renyi(70, 700, 1).unwrap(), "er70"),
            (erdos_renyi(131, 1500, 2).unwrap(), "er131"),
            (barabasi_albert(200, 6, 3).unwrap(), "ba200"),
        ] {
            let o = orient_csr(&g);
            let (n, ids) = (o.num_vertices(), o.map.ids());
            assert_ne!(n % 64, 0, "{tag}: the last mark word is partial");
            assert!(o.d_star_max >= 7, "{tag}: lists span >= 3 chunks of 1..=3");
            let (og, _) = disk_oriented(&g, tag);
            // Chunks of exactly 1, 2, 3, 7, 64 edges, and one chunk.
            for edges in [1usize, 2, 3, 7, 64, 1 << 30] {
                let budget = MemoryBudget::edges(edges).with_load_factor(1.0);
                let chunk = budget.chunk_edges() as u64;
                let expected = reference_listing(&o, chunk);
                assert_eq!(expected.len() as u64, triangle_count(&g), "{tag} {edges}");
                assert!(
                    expected.iter().any(|t| t.2 == ids[n as usize - 1]),
                    "{tag}: vertex n-1 closes a triangle"
                );

                // Join by join: the same sequence, no mark left behind.
                let mut got = CollectSink::default();
                let mut scratch = JoinScratch::new(n);
                let mut ind = Vec::new();
                let mut pos = 0u64;
                while pos < o.m_star() {
                    let end = (pos + chunk).min(o.m_star());
                    let window = build_chunk_index(&o.offsets, pos, end, &mut ind);
                    let edg = &o.adj[pos as usize..end as usize];
                    for u in (0..n).filter(|&u| o.d_star(u) > 0) {
                        window.join(&mut scratch, ids, edg, u, o.out(u), &mut got);
                        assert!(scratch.is_clear(), "{tag} {edges}: u {u} at {pos}");
                    }
                    pos = end;
                }
                assert_eq!(got.triangles, expected, "{tag} {edges}: join sequence");

                // Both engines, listing and counting: same sequence,
                // same count, same cpu_ops whichever sink runs.
                let mut mem = CollectSink::default();
                let listed = mgt_in_memory(&o, budget, &mut mem);
                assert_eq!(mem.triangles, expected, "{tag} {edges}: in-memory sequence");
                assert_eq!(mgt_in_memory(&o, budget, &mut CountSink), listed);

                let range = EdgeRange {
                    start: og.m_star() / 5,
                    end: og.m_star(),
                };
                let mut disk = CollectSink::default();
                let listed =
                    mgt_count_range(&og, range, budget, &mut disk, IoStats::new()).unwrap();
                let counted =
                    mgt_count_range(&og, range, budget, &mut CountSink, IoStats::new()).unwrap();
                assert_eq!(listed.triangles as usize, disk.triangles.len());
                assert_eq!(
                    (counted.triangles, counted.cpu_ops),
                    (listed.triangles, listed.cpu_ops),
                    "{tag} {edges}: disk count vs listing"
                );
            }
        }
    }

    #[test]
    fn vertex_of_skips_zero_degree_vertices() {
        // offsets: v0 has 2, v1 has 0, v2 has 3
        let offsets = [0u64, 2, 2, 5];
        assert_eq!(vertex_of(&offsets, 0), 0);
        assert_eq!(vertex_of(&offsets, 1), 0);
        assert_eq!(vertex_of(&offsets, 2), 2);
        assert_eq!(vertex_of(&offsets, 4), 2);
    }

    #[test]
    fn chunk_index_marks_partial_segments() {
        // offsets: v0: [0,3), v1: [3,4), v2: [4,8)
        let offsets = [0u64, 3, 4, 8];
        let mut ind = Vec::new();
        let w = build_chunk_index(&offsets, 2, 6, &mut ind);
        assert_eq!((w.vlow, w.vhigh), (0, 2));
        // v0 contributes [2,3), v1 all of [3,4), v2 [4,6)
        assert_eq!(w.ind, [(0, 1), (1, 1), (2, 2)]);
    }
}
