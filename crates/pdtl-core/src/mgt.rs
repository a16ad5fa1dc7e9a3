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
//!    **mark and probe**: set the byte of every entry of `nm` above the
//!    first such `v` in a per-worker `n`-byte array, report `(u, v, w)`
//!    for each `w` in each `v`'s resident segment whose byte is set, and
//!    clear the bytes again (`ChunkIndex::join`). The marks are the
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
//!   scan stops there; and a vertex whose out-list cannot hold a window
//!   vertex is skipped with [`U32Reader::skip`](pdtl_io::U32Reader::skip)
//!   instead of read, cutting `bytes_read` in the multi-pass regime
//!   where MGT's I/O bound actually bites. Both are part of the engine,
//!   not a setting, applied through one rule (`ScanRule`) in the one
//!   chunk/scan loop every engine runs (`mgt_loop`).
//!
//! There is one worker, `mgt_range`, over the borrowed view of `G*`
//! the planner reads too (`orient::View`), and one loop generic over the
//! two [`U32Source`]s it reads chunks and out-lists from. Where the
//! adjacency lives only picks those streams: cursors over an oriented
//! `.adj` (a decoder above them for delta-varint), or, for a resident
//! run (one whose chunks hold all of `G*`, `LocalRunner`) and
//! [`mgt_in_memory`], [`SliceSource`]s over the array, which lend every
//! chunk and out-list and skip by moving a cursor. Over one range and
//! budget every store counts the same `cpu_ops`, `iterations` and scan
//! counters and emits the same triples in the same order, and a
//! resident worker reports no I/O because none happens.
//!
//! # Scan pruning
//!
//! The skip test is one AND per out-list: `N(u)` is read iff
//! `sketch[u] & mask ≠ 0`. Bit `b` of `sketch[u]` (orientation's
//! `.skt`) says `N(u)` holds a vertex of bucket `b`, one of 64 slices
//! of rank space of `|E*|/64` positions of out-list volume each
//! (`orient::SketchBuckets`); `mask` holds the buckets of the window,
//! `bucket(vlow)..=bucket(vhigh)`. A list holding a window vertex has
//! that vertex's bit inside the mask, so no list the join needs is
//! skipped, and a skipped list emits nothing: what the join reports,
//! and in which order, does not change.
//!
//! The test this replaced compared each list's `(min, max)` hull with
//! the window. On a multi-pass count the hull is mostly empty space
//! (RMAT-17, `M` = 32 Ki: the join used 12 % of the lists the
//! low-range worker read); the sketch keeps the gaps a hull fills and
//! reads 37 % fewer entries in the same 8 bytes per vertex (92.4 M →
//! 58.4 M over both workers; 45 % fewer at `M` = 1 Ki). Each worker
//! counts the entries and lists its scans read and the lists the join
//! used ([`WorkerReport::scanned`] and beside it), and `balance`
//! predicts `scanned` exactly.
//!
//! The join replaced a sorted merge of `nm[idx+1..]` with each segment
//! (~180 list elements per `(u, v)` pair on RMAT-17 at ~2.7 ns each —
//! mispredicted merge branches, not memory); a probe is one byte load
//! and an add. The merge kernels of [`crate::intersect`] remain the
//! primitive of the baselines. Memory per worker beside the `Θ(M)`
//! chunk: `n` bytes of marks (128 KiB at RMAT-17), up to `4·d*_max`
//! bytes of compacted hits (listing sinks only) and, for a sink that
//! counts per vertex, the `8n` bytes of counters it lends, next to the
//! `20n` bytes per graph of `offsets` + `sketch` + `ids`. A byte per
//! vertex rather than a bit takes the index shift, the variable shift
//! and the mask off every probe (ARCHITECTURE, "Why a byte per vertex,
//! not a bit").
//!
//! On top of that, [`MgtOptions::backend`] selects how the remaining
//! I/O is performed. The I/O *plan* — which blocks of the adjacency are
//! touched, in which order — belongs to the one stream cursor
//! ([`pdtl_io::BlockStream`]) and is the same for every backend; a
//! backend is only the fetcher that delivers those blocks
//! ([`IoBackend::open`], the single place one is chosen):
//!
//! * [`IoBackend::Prefetch`] (the default) reads exactly as `Blocking`
//!   does: [`pdtl_io::PrefetchReader`] is [`pdtl_io::U32Reader`].
//! * [`IoBackend::Mmap`] maps the oriented adjacency once
//!   ([`pdtl_io::MmapSource`]) and lends both the scan stream and the
//!   `edg` chunks *zero-copy*: the chunk index is built directly over
//!   the mapped region, so chunk "loads" become pointer arithmetic plus
//!   accounting — the fastest backend when the graph sits in the page
//!   cache. Unsupported platforms degrade to `Blocking` automatically.
//! * [`IoBackend::Blocking`] is the synchronous behaviour, kept as the
//!   ablation baseline.
//!
//! Switching backends is therefore a pure scheduling change — one
//! accounting, two fetchers: the engine counts the exact same
//! `bytes_read`, `read_ops` and `seeks` whichever backend runs, which
//! the integration and property tests assert. Device waits can be
//! recreated deterministically on warm page caches via
//! [`MgtOptions::io_latency`] (honoured by all three backends).
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
//! through the graph's rank → id table (`ids`), so the output contract
//! (original ids, cone vertex first) is unchanged; a sink that counts
//! per vertex is lent rank-indexed counters and translates them through
//! the same table once, after the run.
//!
//! Correctness does **not** depend on the small-degree assumption
//! `d* ≤ cM` — a list split across more than two chunks still has each
//! position resident exactly once; the assumption only tightens the CPU
//! bound (§IV-A2). The engine therefore handles over-budget vertices with
//! no special casing and the property tests exercise `M` far below
//! `d*_max`.

use std::sync::Arc;

use pdtl_graph::DiskGraph;
use pdtl_io::stats::IoSnapshot;
use pdtl_io::{
    Codec, CpuIoTimer, FaultySource, IoBackend, IoStats, MemoryBudget, SliceSource, U32Source,
    VarintSource,
};

use crate::balance::EdgeRange;
use crate::error::Result;
use crate::metrics::WorkerReport;
use crate::orient::{Adj, OrientedCsr, OrientedGraph, SketchBuckets, View};
use crate::sink::TriangleSink;

/// How a worker reading files performs its I/O, and the format orientation
/// writes. None of them changes which lists a scan reads: scan pruning
/// is the engine's one rule (module doc, "Scan pruning"), not an option.
///
/// `MgtOptions::default()` is fixed — the prefetch backend, no emulated
/// latency, no injected fault, the raw codec — and struct-update syntax
/// pins individual knobs:
///
/// ```
/// use pdtl_core::mgt::MgtOptions;
/// use pdtl_io::{Codec, IoBackend};
///
/// let opts = MgtOptions {
///     backend: IoBackend::Mmap, // engines resolve() it per platform
///     ..MgtOptions::default()
/// };
/// assert_eq!((opts.read_fault, opts.codec), (None, Codec::Raw));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MgtOptions {
    /// How a worker reading files performs its chunk and scan I/O. Every
    /// backend counts the exact same `bytes_read` and `seeks` — the
    /// choice is a scheduling/copy change, not a different I/O plan:
    /// [`IoBackend::Prefetch`] (default) reads as `Blocking` does,
    /// [`IoBackend::Mmap`] serves
    /// page-cache-resident graphs zero-copy, [`IoBackend::Blocking`] is
    /// the synchronous reference. Ignored over a resident adjacency,
    /// which has no I/O at all.
    pub backend: IoBackend,
    /// Emulated per-block-read device latency
    /// ([`pdtl_io::BlockStream::set_read_latency`]): every block the
    /// worker's streams fetch sleeps it, charged as I/O wait (a resident
    /// adjacency fetches no block).
    /// Page-cached fixtures never block, so this recreates the device
    /// waits the multi-pass bound is about. Zero (the default) measures
    /// the real hardware.
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
    /// a worker reads a graph under the codec it was written with, so a
    /// raw graph reads raw regardless of this setting. A resident run
    /// writes no `G*`, so it has nothing to encode.
    pub codec: Codec,
}

impl Default for MgtOptions {
    fn default() -> Self {
        Self {
            backend: IoBackend::Prefetch,
            io_latency: std::time::Duration::ZERO,
            read_fault: None,
            codec: Codec::Raw,
        }
    }
}

/// Run MGT over `range` of the oriented graph with the given budget,
/// reporting triangles (original ids) to `sink`. One call = one logical
/// processor: `mgt_range` over the graph's files.
pub fn mgt_count_range_opt<S: TriangleSink>(
    og: &OrientedGraph,
    range: EdgeRange,
    budget: MemoryBudget,
    sink: &mut S,
    stats: Arc<IoStats>,
    opts: MgtOptions,
) -> Result<WorkerReport> {
    mgt_range(og.view(), range, budget, sink, stats, opts)
}

/// The one MGT worker: `range` of `g` at `budget` into `sink`, its I/O
/// counted in `stats`. Where the adjacency lives only decides the two
/// streams [`mgt_loop`] reads chunks and out-lists from; a resident
/// array lends both and reads nothing, so its report's I/O is zero and
/// `backend` and `io_latency` have nothing to act on.
pub(crate) fn mgt_range<S: TriangleSink>(
    g: View<'_>,
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
    let open = |disk: &DiskGraph| -> Result<_> {
        let open = || opts.backend.open(&disk.adj_path(), &stats, opts.io_latency);
        Ok((open()?, open()?))
    };
    // The scan stream is wrapped in `FaultySource` so `read_fault` can
    // cut data delivery at a deterministic offset; an unset fault is an
    // unlimited budget (a compare + subtract per out-list, and borrowed
    // runs pass through untouched).
    let fault = opts.read_fault.unwrap_or(u64::MAX);
    let done = match g.adj {
        Adj::Resident(adj) => {
            let adj = SliceSource::new(adj);
            let scan = FaultySource::new(adj.clone(), fault);
            mgt_loop(g, range, budget, sink, adj, scan)?
        }
        Adj::Raw(disk) => {
            let (scan, chunks) = open(disk)?;
            mgt_loop(
                g,
                range,
                budget,
                sink,
                chunks,
                FaultySource::new(scan, fault),
            )?
        }
        Adj::Varint(disk, index) => {
            // Compressed adjacency: the transports still move the
            // *encoded* bytes, and a `VarintSource` above each decodes
            // runs back into rank space — scan skips, chunk loads and
            // seeks all happen in decoded positions. The decoder issues
            // identical word-granular operations whichever fetcher
            // carries the bytes, so the compressed format needs no
            // per-backend cases either. Decoded runs cannot be lent, and
            // a decoded `next` chunk has no fixed byte address to hint
            // until the decoder reaches it.
            let (scan, chunks) = open(disk)?;
            let decoding = |transport| VarintSource::new(transport, index.clone(), stats.clone());
            let scan = FaultySource::new(decoding(scan)?, fault);
            mgt_loop(g, range, budget, sink, decoding(chunks)?, scan)?
        }
    };
    sink.flush()?;
    Ok(done.report(range, &stats, io_before, timer))
}

/// What one worker's chunk/scan loop counted.
#[derive(Default)]
struct LoopCounts {
    triangles: u64,
    cpu_ops: u64,
    iterations: u64,
    /// Out-list entries the scans read.
    scanned: u64,
    /// Out-lists the scans read.
    scan_lists: u64,
    /// Read out-lists whose join found a resident vertex.
    scan_hits: u64,
}

impl LoopCounts {
    /// The worker report of a loop over `range`: the counts, beside the
    /// I/O `stats` took since `io_before` and `timer`'s split.
    fn report(
        self,
        range: EdgeRange,
        stats: &IoStats,
        io_before: IoSnapshot,
        timer: CpuIoTimer,
    ) -> WorkerReport {
        WorkerReport {
            worker: 0,
            range,
            triangles: self.triangles,
            iterations: self.iterations,
            cpu_ops: self.cpu_ops,
            scanned: self.scanned,
            scan_lists: self.scan_lists,
            scan_hits: self.scan_hits,
            io: stats.snapshot().since(&io_before),
            breakdown: timer.finish(),
        }
    }
}

/// The engine's one chunk/scan loop, generic over the two streams'
/// layer stack (a disk cursor, a decoder above one, or a resident
/// slice) so per-out-list calls stay direct; backends differ only
/// behind the cursor's block fetches, and a resident slice lends what
/// a cursor would read.
fn mgt_loop<S: TriangleSink, C: U32Source, R: U32Source>(
    g: View<'_>,
    range: EdgeRange,
    budget: MemoryBudget,
    sink: &mut S,
    mut chunks: C,
    mut scan_reader: R,
) -> Result<LoopCounts> {
    let offsets = g.offsets;
    let ids = g.ids;
    let chunk_cap = budget.chunk_edges();
    // Backing storage for streams that copy (a mapped or resident
    // adjacency lends slices instead and leaves these untouched).
    let mut edg_buf: Vec<u32> = Vec::with_capacity(chunk_cap.min(range.len() as usize));
    let mut ind: Vec<(u32, u32)> = Vec::new();
    let mut nm_buf: Vec<u32> = Vec::with_capacity(g.d_star_max as usize);
    let mut scratch = JoinScratch::new(g.num_vertices());
    let mut c = LoopCounts::default();

    let mut pos = range.start;
    while pos < range.end {
        let len = (range.end - pos).min(chunk_cap as u64) as usize;
        c.iterations += 1;

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
        c.cpu_ops += len as u64 + window.ind.len() as u64;

        // -- scan pass ------------------------------------------------
        let rule = window.scan_rule(g.buckets, g.sketch);
        scan_reader.seek_to(0)?;
        for u in 0..rule.end {
            let du = (offsets[u as usize + 1] - offsets[u as usize]) as usize;
            if du == 0 {
                continue;
            }
            if rule.skips(u) {
                scan_reader.skip(du as u64)?;
                c.cpu_ops += 1;
                continue;
            }
            let nm = scan_reader.next_run(du, &mut nm_buf)?;
            let (t, ops) = window.join(&mut scratch, ids, edg, u, nm, sink);
            c.triangles += t;
            c.cpu_ops += du as u64 + ops;
            c.scanned += du as u64;
            c.scan_lists += 1;
            // The join marks something exactly when it found a resident
            // vertex with an entry above it.
            c.scan_hits += u64::from(ops > 0);
        }
        debug_assert!(scratch.is_clear(), "join left marks behind");

        pos = chunk_end;
    }
    Ok(c)
}

/// Build the dense chunk index for the resident window `[pos,
/// chunk_end)`: `ind[v - vlow] = (offset within the chunk, length)` for
/// every vertex with resident out-edges.
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

/// Which out-lists one chunk's scan reads: the engine's scan pruning
/// (module doc, "Scan pruning"), decided here and nowhere else.
struct ScanRule<'s> {
    /// The scan visits `u < end = vhigh`: out-neighbours ascend in rank
    /// space, so no later list holds a window vertex.
    end: u32,
    /// The window's sketch buckets, `bucket(vlow)..=bucket(vhigh)`.
    mask: u64,
    /// The per-rank scan sketches.
    sketch: &'s [u64],
}

impl ScanRule<'_> {
    /// Whether `N(u)` may be skipped: its sketch misses the window's
    /// buckets, so it holds no window vertex and its join emits nothing.
    #[inline(always)]
    fn skips(&self, u: u32) -> bool {
        self.sketch[u as usize] & self.mask == 0
    }
}

impl ChunkIndex<'_> {
    /// The scan rule of this window over `sketch`, whose bits name
    /// `buckets`.
    fn scan_rule<'s>(&self, buckets: &SketchBuckets, sketch: &'s [u64]) -> ScanRule<'s> {
        ScanRule {
            end: self.vhigh,
            mask: buckets.window_mask(self.vlow, self.vhigh),
            sketch,
        }
    }

    /// Algorithm 2's join of one out-list `nm = N(u)` with the resident
    /// chunk `edg`, as one mark-and-probe pass (Chiba–Nishizeki's
    /// marking scheme over the dense vertex range):
    ///
    /// 1. **mark** — set the byte of every entry of `nm` above the first
    ///    `v ∈ N⁺(u)` (entries of `nm` with resident out-edges; `nm` is
    ///    sorted, so restrict to `[vlow, vhigh]` first);
    /// 2. **probe** — for each such `v`, every `w` in `v`'s resident
    ///    segment whose byte is set closes the triangle `(u, v, w)`.
    ///    Out-neighbours ascend, so every probed `w > v`: marks at or
    ///    below `v` are never read and the suffix rule needs no test;
    /// 3. **clear** — unset exactly what step 1 set.
    ///
    /// The probe is one byte load and one add per `w`, with no
    /// branch on the outcome — the sorted merge this replaces spent its
    /// time in mispredicted compare branches, not in memory. That is
    /// why counting and listing differ, and the sink picks which of
    /// three kernels runs, asked once per out-list:
    ///
    /// * **per-vertex** — a sink lending rank-indexed counters
    ///   ([`TriangleSink::vertex_counts`]: clustering) has each probed
    ///   `w`'s mark byte added to `counts[w]`, the pivot's sum to
    ///   `counts[v]` and the out-list's total to `counts[u]`: a count
    ///   plus one store per probe, and `emit` is never called;
    /// * **counting** — a sink that wants no triples
    ///   ([`TriangleSink::wants_triples`] false: a [`CountSink`], a full
    ///   [`LimitSink`]) has the bytes summed;
    /// * **listing** — any other sink gets its hits compacted
    ///   branch-free first and translated to original ids after, so
    ///   no loop branches per probe.
    ///
    /// All three count the same triangles and operations. Triples come
    /// out in the merge's order: `v` ascending, then `w` ascending.
    ///
    /// [`CountSink`]: crate::sink::CountSink
    /// [`LimitSink`]: crate::sink::LimitSink
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
        if let Some(counts) = sink.vertex_counts() {
            let (mut triangles, mut probes) = (0u64, 0u64);
            for &v in &nm[first..hi_i] {
                let (seg_off, seg_len) = segment(v);
                let ev = &edg[seg_off as usize..(seg_off + seg_len) as usize];
                probes += ev.len() as u64;
                let t = scratch.add_marked(ev, counts);
                counts[v as usize] += t;
                triangles += t;
            }
            counts[u as usize] += triangles;
            scratch.clear(marked);
            return (triangles, marked.len() as u64 + probes);
        }
        let iu = ids[u as usize];
        let listing = sink.wants_triples();
        let (mut triangles, mut probes) = (0u64, 0u64);
        for &v in &nm[first..hi_i] {
            let (seg_off, seg_len) = segment(v);
            let ev = &edg[seg_off as usize..(seg_off + seg_len) as usize];
            probes += ev.len() as u64;
            if !listing {
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

/// Per-worker scratch of [`ChunkIndex::join`]: `n` bytes of marks and
/// up to `4·d*_max` bytes of hits (the module doc sets them beside what
/// a worker already holds).
struct JoinScratch {
    /// One byte per vertex, 1 = marked, all zero between joins.
    marks: Vec<u8>,
    /// The marked entries of the segment probed last (listing sinks
    /// only; grows to the longest segment seen).
    hits: Vec<u32>,
}

impl JoinScratch {
    fn new(n: u32) -> Self {
        Self {
            marks: vec![0; n as usize],
            hits: Vec::new(),
        }
    }

    fn mark(&mut self, ws: &[u32]) {
        for &w in ws {
            self.marks[w as usize] = 1;
        }
    }

    /// Undo [`Self::mark`]`(ws)`.
    fn clear(&mut self, ws: &[u32]) {
        for &w in ws {
            self.marks[w as usize] = 0;
        }
    }

    fn is_clear(&self) -> bool {
        self.marks.iter().all(|&m| m == 0)
    }

    /// How many of `ws` are marked: the mark bytes summed in four
    /// independent accumulators, so consecutive probes do not wait on
    /// one add chain. A segment is shorter than `2³²`, so no lane
    /// overflows.
    #[inline(always)]
    fn count_marked(&self, ws: &[u32]) -> u64 {
        let m = &self.marks;
        let mut acc = [0u32; 4];
        let quads = ws.chunks_exact(4);
        let tail = quads.remainder();
        for q in quads {
            acc[0] += u32::from(m[q[0] as usize]);
            acc[1] += u32::from(m[q[1] as usize]);
            acc[2] += u32::from(m[q[2] as usize]);
            acc[3] += u32::from(m[q[3] as usize]);
        }
        for &w in tail {
            acc[0] += u32::from(m[w as usize]);
        }
        acc.iter().map(|&a| u64::from(a)).sum()
    }

    /// How many of `ws` are marked, each `w`'s mark byte also added to
    /// `counts[w]`: the per-vertex kernel's probe, a [`Self::count_marked`]
    /// step plus one store per `w`, with no branch on the outcome. As
    /// there, four accumulators keep the sum off one add chain.
    #[inline(always)]
    fn add_marked(&self, ws: &[u32], counts: &mut [u64]) -> u64 {
        let m = &self.marks;
        // Equal lengths let the mark's bounds check cover the counter's
        // (both checks cost 12% of an in-memory RMAT-12 run).
        let counts = &mut counts[..m.len()];
        let mut acc = [0u64; 4];
        let quads = ws.chunks_exact(4);
        let tail = quads.remainder();
        for q in quads {
            for (a, &w) in acc.iter_mut().zip(q) {
                let hit = u64::from(m[w as usize]);
                counts[w as usize] += hit;
                *a += hit;
            }
        }
        for &w in tail {
            let hit = u64::from(m[w as usize]);
            counts[w as usize] += hit;
            acc[0] += hit;
        }
        acc.iter().sum()
    }

    /// The marked entries of `ws`, in order: every `w` is stored at the
    /// cursor and the cursor advances by its mark, so a miss is
    /// overwritten by the next entry.
    #[inline(always)]
    fn marked_of(&mut self, ws: &[u32]) -> &[u32] {
        if self.hits.len() < ws.len() {
            self.hits.resize(ws.len(), 0);
        }
        let mut k = 0usize;
        for &w in ws {
            self.hits[k] = w;
            k += usize::from(self.marks[w as usize]);
        }
        &self.hits[..k]
    }
}

/// Index of the vertex owning adjacency position `pos` (vertices with
/// `d* = 0` own no positions and are skipped automatically).
#[inline]
pub(crate) fn vertex_of(offsets: &[u64], pos: u64) -> u32 {
    debug_assert!(pos < *offsets.last().unwrap());
    (offsets.partition_point(|&o| o <= pos) - 1) as u32
}

/// Pure in-memory MGT over an [`OrientedCsr`]: `mgt_range` over `[0,
/// |E*|)` of the array, with the scan sketches orientation would write,
/// so it reads and skips exactly the lists the disk engine does and
/// counts the same `cpu_ops`. Used by tests, baselines and the
/// convenience counter. Emits original ids. Returns (triangles,
/// cpu_ops).
///
/// # Panics
///
/// If the sink's flush fails: nothing else of an in-memory join can.
pub fn mgt_in_memory<S: TriangleSink>(
    o: &OrientedCsr,
    budget: MemoryBudget,
    sink: &mut S,
) -> (u64, u64) {
    let (buckets, sketch) = o.sketches();
    let range = EdgeRange {
        start: 0,
        end: o.m_star(),
    };
    let view = o.view(&buckets, &sketch);
    let report = mgt_range(
        view,
        range,
        budget,
        sink,
        IoStats::new(),
        MgtOptions::default(),
    )
    .unwrap_or_else(|e| panic!("an in-memory join fails only in its sink's flush: {e}"));
    (report.triangles, report.cpu_ops)
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
            let r = mgt_count_range_opt(
                &og,
                full_range(&og),
                MemoryBudget::edges(1 << 16),
                &mut CountSink,
                stats,
                MgtOptions::default(),
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
            let r = mgt_count_range_opt(
                &og,
                full_range(&og),
                MemoryBudget::edges(edges),
                &mut CountSink,
                stats.clone(),
                MgtOptions::default(),
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
    fn scan_pruning_cuts_bytes_read_in_multipass_runs() {
        // The adjacency file must span several read buffers (64 KiB)
        // for block-granular pruning to bite: RMAT-12 is ~4 buffers
        // raw. The fixture is pinned to the raw codec — delta-varint
        // shrinks it to ~1.3 buffers, at which point skip coalescing
        // reads the whole file through regardless of pruning and the
        // cut being measured here disappears (the codec's own
        // bytes_read win is asserted at the pipeline level instead).
        use crate::orient::orient_to_disk_with;
        let g = rmat(12, 18).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("prune-io-in"), &stats).unwrap();
        let (og, _) =
            orient_to_disk_with(&dg, tmpbase("prune-io-or"), 2, Codec::Raw, &stats).unwrap();
        let budget = MemoryBudget::edges(4096);
        let r = mgt_count_range_opt(
            &og,
            full_range(&og),
            budget,
            &mut CountSink,
            IoStats::new(),
            MgtOptions::default(),
        )
        .unwrap();
        let (io_pruned, seeks_pruned, iters) = (r.io.bytes_read, r.io.seeks, r.iterations);
        // An unpruned run reads the whole adjacency once per iteration,
        // beside the chunk loads both runs share (whole blocks each).
        let loads = IoStats::new();
        let mut chunks = IoBackend::Blocking
            .open(&og.disk.adj_path(), &loads, std::time::Duration::ZERO)
            .unwrap();
        let mut pos = 0;
        while pos < og.m_star() {
            let len = (og.m_star() - pos).min(budget.chunk_edges() as u64);
            chunks
                .range_run(pos, len as usize, &mut Vec::new())
                .unwrap();
            pos += len;
        }
        let io_full = iters * og.m_star() * 4 + loads.bytes_read();
        println!(
            "scan pruning bytes_read: {io_pruned} vs {io_full} unpruned ({:.1}% cut), \
             {seeks_pruned} seeks over {iters} iterations",
            100.0 * (1.0 - io_pruned as f64 / io_full as f64)
        );
        assert_eq!(r.triangles, triangle_count(&g));
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
            for backend in [IoBackend::Prefetch, IoBackend::Mmap] {
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
            for backend in [IoBackend::Prefetch, IoBackend::Mmap] {
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
                let r = mgt_count_range_opt(
                    &og,
                    range,
                    MemoryBudget::edges(512),
                    &mut CountSink,
                    stats.clone(),
                    MgtOptions::default(),
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
        let r = mgt_count_range_opt(
            &og,
            full_range(&og),
            MemoryBudget::edges(128),
            &mut sink,
            stats,
            MgtOptions::default(),
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
        mgt_count_range_opt(
            &og,
            full_range(&og),
            MemoryBudget::edges(64),
            &mut sink,
            stats,
            MgtOptions::default(),
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
        let r = mgt_count_range_opt(
            &og,
            EdgeRange { start: 5, end: 5 },
            MemoryBudget::edges(64),
            &mut CountSink,
            stats,
            MgtOptions::default(),
        )
        .unwrap();
        assert_eq!(r.triangles, 0);
        assert_eq!(r.iterations, 0);

        let g = Graph::empty(4);
        let (og, stats) = disk_oriented(&g, "empty-graph");
        let r = mgt_count_range_opt(
            &og,
            full_range(&og),
            MemoryBudget::edges(64),
            &mut CountSink,
            stats,
            MgtOptions::default(),
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
            let r = mgt_count_range_opt(
                &og,
                EdgeRange {
                    start: 0,
                    end: og.m_star(),
                },
                MemoryBudget::edges(edges),
                &mut CountSink,
                s,
                MgtOptions::default(),
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
    fn in_memory_and_disk_engines_count_the_same_work() {
        // One scan rule: the in-memory engine reads and skips exactly
        // the lists the disk engine does over `[0, |E*|)`, so the two
        // agree on `cpu_ops`, not only on the count — at chunks of 1,
        // 7 and 64 edges and in one pass.
        use pdtl_graph::gen::chunglu::power_law_graph;
        use pdtl_graph::gen::models::barabasi_albert;
        for (g, tag) in [
            (rmat(8, 20).unwrap(), "rmat8"),
            (
                power_law_graph(300, 1500, 2.1, 2.0, 60.0, 4).unwrap(),
                "cl300",
            ),
            (barabasi_albert(250, 5, 6).unwrap(), "ba250"),
        ] {
            let o = orient_csr(&g);
            let (og, _) = disk_oriented(&g, &format!("engines-{tag}"));
            let (buckets, sketch) = o.sketches();
            assert_eq!((&buckets, &sketch), (og.buckets(), &og.sketch), "{tag}");
            for edges in [2usize, 14, 128, 1 << 30] {
                let budget = MemoryBudget::edges(edges);
                let (t, ops) = mgt_in_memory(&o, budget, &mut CountSink);
                let r = mgt_count_range_opt(
                    &og,
                    full_range(&og),
                    budget,
                    &mut CountSink,
                    IoStats::new(),
                    MgtOptions::default(),
                )
                .unwrap();
                assert_eq!(t, triangle_count(&g), "{tag} {edges}");
                assert_eq!((t, ops), (r.triangles, r.cpu_ops), "{tag} {edges}");
                // Less work than the scan alone would be unpruned: every
                // list read once per iteration.
                if r.iterations > 1 {
                    let unpruned = r.iterations * o.m_star();
                    assert!(ops < unpruned, "{tag} {edges}: {ops} vs {unpruned}");
                }
            }
        }
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
        let ids = &o.ids;
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
            let (n, ids) = (o.num_vertices(), &o.ids);
            assert_ne!(n % 64, 0, "{tag}: the last mark word is partial");
            assert!(o.d_star_max >= 7, "{tag}: lists span >= 3 chunks of 1..=3");
            let (og, _) = disk_oriented(&g, tag);
            // Chunks of exactly 1, 2, 3, 7, 64 edges, and one chunk.
            for edges in [1usize, 2, 3, 7, 64, 1 << 30] {
                let budget = MemoryBudget::edges(2 * edges);
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
                let listed = mgt_count_range_opt(
                    &og,
                    range,
                    budget,
                    &mut disk,
                    IoStats::new(),
                    MgtOptions::default(),
                )
                .unwrap();
                let counted = mgt_count_range_opt(
                    &og,
                    range,
                    budget,
                    &mut CountSink,
                    IoStats::new(),
                    MgtOptions::default(),
                )
                .unwrap();
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
    fn byte_marks_count_and_compact_every_segment_length() {
        let n = 37u32;
        let mut scratch = JoinScratch::new(n);
        // Vertex 0, vertex n - 1 and a scatter between them.
        let marked: Vec<u32> = vec![0, 3, 4, 9, 17, 18, 30, n - 1];
        scratch.mark(&marked);
        let is_marked = |w: u32| marked.contains(&w);
        // Every remainder of the 4-way unroll, twice over; vertex 0 and
        // vertex n - 1 land both in a quad and in the remainder.
        for len in 0..=9usize {
            for start in [0u32, 1, 2, 3, n - 9] {
                let ws: Vec<u32> = (0..len as u32).map(|i| (start + 4 * i) % n).collect();
                let naive = ws.iter().filter(|&&w| is_marked(w)).count() as u64;
                assert_eq!(scratch.count_marked(&ws), naive, "len {len} from {start}");
                let mut counts = vec![0u64; n as usize];
                assert_eq!(scratch.add_marked(&ws, &mut counts), naive);
                for w in 0..n {
                    let hits = ws.iter().filter(|&&x| x == w && is_marked(w)).count();
                    assert_eq!(
                        counts[w as usize], hits as u64,
                        "len {len} from {start}: {w}"
                    );
                }
                let hits: Vec<u32> = ws.iter().copied().filter(|&w| is_marked(w)).collect();
                assert_eq!(scratch.marked_of(&ws), hits, "len {len} from {start}");
            }
        }
        let all: Vec<u32> = (0..n).collect();
        assert_eq!(scratch.count_marked(&all), marked.len() as u64);
        assert_eq!(scratch.marked_of(&all), marked);
        assert!(!scratch.is_clear());
        scratch.clear(&marked);
        assert!(scratch.is_clear());
        assert_eq!(scratch.count_marked(&all), 0);
        assert!(scratch.marked_of(&all).is_empty());
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
