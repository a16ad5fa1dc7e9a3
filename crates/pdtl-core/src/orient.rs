//! Degree-based orientation into **rank space** (sequential and
//! multicore).
//!
//! Orientation rewrites the bidirectional input into `G* = (V, E*)` where
//! `(u, v) ∈ E*` iff `{u, v} ∈ E` and `u ≺ v` under the degree order —
//! and simultaneously relabels every vertex by its *rank* in that order,
//! so `u ≺ v ⟺ u < v` numerically. In rank space every out-neighbour of
//! `v` is greater than `v`, which is what lets the MGT inner loop
//! intersect only the admissible suffix of `N(u)` and prune whole
//! out-lists against a chunk's resident window. The [`RankMap`] is
//! carried on the oriented graph and translated back at the sink
//! boundary, so listings still emit original ids.
//!
//! The multicore path follows Section IV-B1: *"the master reads the
//! entire degree array into memory (provided |V| < PM), and each core
//! performs the orientation on a contiguous set of edges."* Relabeling
//! adds one counting pass: pass 1 scans the adjacency sequentially and
//! counts each vertex's oriented out-degree (fixing the rank-space
//! layout); pass 2 scans again, filters, rank-maps and sorts each
//! out-list, and hands it — with the word offset of its rank — to the
//! worker's private scatter block. A full block (32 Ki words) is sorted
//! by offset and written in that order, one `seek` per maximal group of
//! abutting lists and sequential `write`s through a 16 KiB staging
//! buffer inside it; the worker ends with an explicit final flush.
//!
//! A block coalesces because of how ranks are assigned:
//! [`RankMap::by_degree`] orders by `(degree, id)`, and a worker owns a
//! contiguous id range, so the vertices of one degree inside that range
//! sit on *consecutive* ranks — adjacent bytes of `.adj` — apart from
//! the other workers' vertices of the same degree, which form their own
//! contiguous stretches beside them. At RMAT-17 a block holds about
//! 1 500 out-lists and collapses into about 130 runs.
//!
//! In the Aggarwal–Vitter model the reads are two `scan(|E|)`s. The
//! writes are positioned: one per out-list (up to `|V|` block
//! transfers, not `|E*|/B`) when every list was written on its own, now
//! one per run of a block — 90 191 → 7 674 `seek`s at RMAT-17 on two
//! workers, counted by [`IoStats`] as the device sees them. CPU is
//! `O(|E|)` plus the `O(|V| log |V|)` rank sort and the per-list and
//! per-block sorts. Memory is the `Θ(|V|)` arrays Theorem IV.2 already
//! assumes (degrees, ranks, rank-space offsets) plus, per worker, the
//! block, its entry table (16 bytes per list held) and the staging
//! buffer.
//!
//! Alongside `base{.deg,.adj}` the orientation persists:
//!
//! * `base.map` — the rank → original-id table (`|V|` u32s);
//! * `base.skt` — one 64-bit **scan sketch** per rank (`|V|` u64s,
//!   little-endian, 0 for empty lists): bit `b` is set iff the out-list
//!   holds a vertex of bucket `b`, one of 64 equal-volume slices of
//!   rank space. It is the `Θ(|V|)` index MGT's scan pruning skips
//!   out-lists that miss a chunk's window with (mgt.rs, "Scan
//!   pruning"), and it holds for every budget.
//!
//! Under [`Codec::DeltaVarint`] ([`orient_to_disk_with`]) the `.adj`
//! is additionally recompressed: rank space makes every out-list a
//! strictly increasing run with small gaps, which delta + varint
//! encoding shrinks ~2–4× — cutting the real `bytes_read` of every
//! multi-pass MGT scan, exactly where Theorem IV.2's `|E|²/(MB)` term
//! dominates. The `.vix`/`.hdr` sidecars (see [`pdtl_graph::disk`])
//! keep seeks and skips working in decoded index space.

use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pdtl_graph::disk::{begin_write, offsets_from_degrees, suffixed, write_graph_header};
use pdtl_graph::manifest::Manifest;
use pdtl_graph::rank::RankMap;
use pdtl_graph::{DiskGraph, Graph};
use pdtl_io::{
    Codec, CpuIoTimer, IoStats, U32Reader, U32Source, U32Writer, VarintAdjWriter, VarintIndex,
};

use crate::error::Result;
use crate::metrics::PhaseReport;
use crate::par;

/// The 64 slices of rank space a scan sketch records. Rank `v` lies in
/// bucket `⌊64·offsets[v] / m*⌋` (63 for the vertices past the last
/// out-list; 0 throughout when `m* = 0`), so each bucket starts
/// `|E*|/64` positions of out-list volume after the one before and
/// the map holds for any chunk size. Buckets ascend with rank, so the
/// vertices of `[vlow, vhigh]` lie in buckets `bucket(vlow)..=
/// bucket(vhigh)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SketchBuckets {
    /// `first[b]`: the smallest rank in bucket `b` or above; `first[64]`
    /// is `n`.
    first: [u32; 65],
}

impl SketchBuckets {
    /// The buckets of the oriented CSR `offsets` (`n + 1` entries).
    pub(crate) fn new(offsets: &[u64]) -> Self {
        let n = offsets.len() - 1;
        let m_star = u128::from(offsets[n]);
        let mut first = [n as u32; 65];
        first[0] = 0;
        for (b, f) in first.iter_mut().enumerate().take(64).skip(1) {
            // bucket(v) ≥ b ⟺ offsets[v] ≥ ⌈b·m*/64⌉; at least 1, so an
            // edgeless graph is all bucket 0.
            let start = (b as u128 * m_star).div_ceil(64).max(1);
            *f = offsets[..n].partition_point(|&o| u128::from(o) < start) as u32;
        }
        Self { first }
    }

    /// The bucket of rank `v`.
    pub(crate) fn of(&self, v: u32) -> u32 {
        self.first[1..64].partition_point(|&f| f <= v) as u32
    }

    /// The first rank of bucket `b` or above (`b` ≤ 64; `n` at 64).
    pub(crate) fn first(&self, b: u32) -> u32 {
        self.first[b as usize]
    }

    /// The sketch bits a list holding a vertex of `[vlow, vhigh]` must
    /// meet: buckets `bucket(vlow)..=bucket(vhigh)`.
    pub(crate) fn window_mask(&self, vlow: u32, vhigh: u32) -> u64 {
        (u64::MAX << self.of(vlow)) & (u64::MAX >> (63 - self.of(vhigh)))
    }

    /// The sketch of the out-list `list`, one lookup per entry
    /// (orientation uses a per-rank table instead).
    #[cfg(test)]
    pub(crate) fn sketch(&self, list: &[u32]) -> u64 {
        list.iter().fold(0, |s, &v| s | 1 << self.of(v))
    }

    /// The bucket of every rank, `n` bytes: orientation's lookup table.
    fn per_rank(&self) -> Vec<u8> {
        let mut table = Vec::with_capacity(self.first[64] as usize);
        for b in 0..64 {
            table.resize(self.first[b + 1] as usize, b as u8);
        }
        table
    }
}

/// An oriented graph held in memory (used by baselines and the
/// in-memory MGT variant). Vertices are **ranks**: adjacency, offsets
/// and degrees are all indexed by rank, and every out-neighbour of `v`
/// is numerically greater than `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrientedCsr {
    /// Oriented CSR offsets (`n + 1`), rank-indexed.
    pub offsets: Vec<u64>,
    /// Oriented adjacency in rank space (out-neighbours, sorted; all
    /// strictly greater than their source rank).
    pub adj: Vec<u32>,
    /// The rank ↔ original-id bijection.
    pub map: RankMap,
    /// Original (undirected) degree of the vertex at each rank.
    pub orig_degrees: Vec<u32>,
    /// Maximum oriented out-degree `d*_max`.
    pub d_star_max: u32,
}

impl OrientedCsr {
    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// `|E*| = |E|`.
    pub fn m_star(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Oriented out-degree of rank `v`.
    pub fn d_star(&self, v: u32) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Oriented out-neighbours of rank `v` (ranks, sorted ascending).
    pub fn out(&self, v: u32) -> &[u32] {
        &self.adj[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Post-orientation in-degrees `d(v) - d*(v)` — the load-balancing
    /// weights of Section IV-B1, rank-indexed like everything else.
    pub fn in_degrees(&self) -> Vec<u32> {
        (0..self.num_vertices())
            .map(|v| self.orig_degrees[v as usize] - self.d_star(v))
            .collect()
    }
}

/// Orient an in-memory graph into rank space: a branchless counting
/// transpose. A sequential count pass fixes the layout, then a scatter
/// walks *target* ranks in ascending order, so every out-list lands
/// sorted with no sorting at all. Both passes are branchless: the keep
/// test (`rank above mine`) holds for half the entries with no pattern,
/// so conditional increments replace branches and discarded scatter
/// writes land in a spare slot via cmov. The multicore orientation is
/// the disk path, [`orient_to_disk_with`], which the tests hold this
/// one equal to.
pub fn orient_csr(g: &Graph) -> OrientedCsr {
    let degrees = g.degrees();
    let map = RankMap::by_degree(&degrees);
    let ranks = map.ranks();
    let n = g.num_vertices();
    let orig_degrees: Vec<u32> = (0..n).map(|r| degrees[map.to_id(r) as usize]).collect();

    // Pass 1: oriented out-degree per source rank (each source rank is
    // written exactly once — ranks are a bijection).
    let mut d_star = vec![0u32; n as usize];
    for u in 0..n {
        let ru = ranks[u as usize];
        let mut kept = 0u32;
        for &w in g.neighbors(u) {
            kept += u32::from(ranks[w as usize] > ru);
        }
        d_star[ru as usize] = kept;
    }
    let offsets = offsets_from_degrees(&d_star);
    let m_star = *offsets.last().unwrap() as usize;

    // Pass 2: walk target ranks ascending; each kept arc appends its
    // target to the source's bucket, so buckets fill in ascending
    // order. Discarded writes go to the spare slot at `m_star`.
    let mut cursor = offsets[..n as usize].to_vec();
    let mut adj = vec![0u32; m_star + 1];
    for rv in 0..n {
        let v = map.to_id(rv);
        for &w in g.neighbors(v) {
            let rw = ranks[w as usize] as usize;
            let keep = (rw as u32) < rv;
            let idx = if keep { cursor[rw] as usize } else { m_star };
            // SAFETY: kept writes target `cursor[rw] < m_star` (cursors
            // advance once per kept arc, and pass 1 counted exactly
            // `m_star` of them); discarded writes target the spare slot
            // `m_star`. The buffer holds `m_star + 1` values. (The
            // bounds check is real money here: the loop runs 2|E| times.)
            unsafe { *adj.get_unchecked_mut(idx) = rv };
            cursor[rw] += u64::from(keep);
        }
    }
    adj.truncate(m_star);

    OrientedCsr {
        offsets,
        adj,
        map,
        d_star_max: d_star.iter().copied().max().unwrap_or(0),
        orig_degrees,
    }
}

/// An oriented graph stored on disk in PDTL format (rank space), plus
/// the in-memory metadata every MGT worker needs: `offsets`, `d*_max`,
/// the rank map for the sink boundary, and the per-vertex scan sketches
/// driving scan pruning.
#[derive(Debug, Clone)]
pub struct OrientedGraph {
    /// The oriented `.deg`/`.adj` pair (rank order).
    pub disk: DiskGraph,
    /// Oriented CSR offsets (`n + 1`), rank-indexed — the in-memory
    /// degree index of Section IV-A1 (assumes `|V| < PM`, as the paper
    /// does).
    pub offsets: Vec<u64>,
    /// Maximum oriented out-degree, sizes the `nm`/`nmp` scratch arrays.
    pub d_star_max: u32,
    /// The rank ↔ original-id bijection; the sink boundary translates
    /// ranks back through it so listings emit original ids.
    pub map: RankMap,
    /// Per-rank scan sketches over [`buckets`](Self::buckets) (0 for
    /// empty lists); MGT skips out-lists whose sketch misses a chunk's
    /// window mask.
    pub(crate) sketch: Vec<u64>,
    /// The rank-space slices the sketch bits name, derived from
    /// `offsets`.
    buckets: SketchBuckets,
    /// Original undirected degrees by rank; present when produced by
    /// [`orient_to_disk`], absent when reopened from disk (only the
    /// master needs them, for load balancing).
    pub orig_degrees: Option<Vec<u32>>,
    /// The decoder's seek index when `disk` is stored under
    /// [`Codec::DeltaVarint`], built once here and shared by every
    /// worker and query reading the graph.
    varint: Option<Arc<VarintIndex>>,
}

impl OrientedGraph {
    /// The varint seek index (`offsets` paired with the `.vix` byte
    /// fenceposts); `None` for a raw graph.
    pub fn varint_index(&self) -> Option<&Arc<VarintIndex>> {
        self.varint.as_ref()
    }

    /// The rank-space slices the [`sketch`](Self::sketch) bits name.
    pub(crate) fn buckets(&self) -> &SketchBuckets {
        &self.buckets
    }

    /// `|E*|`.
    pub fn m_star(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Oriented out-degree of rank `v`.
    pub fn d_star(&self, v: u32) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Post-orientation in-degrees by rank; requires `orig_degrees`.
    pub fn in_degrees(&self) -> Option<Vec<u32>> {
        let orig = self.orig_degrees.as_ref()?;
        Some(
            (0..self.num_vertices())
                .map(|v| orig[v as usize] - self.d_star(v))
                .collect(),
        )
    }

    /// Path of the rank-map file for `base`.
    pub fn map_path(base: impl AsRef<Path>) -> PathBuf {
        suffixed(base.as_ref(), ".map")
    }

    /// Path of the scan-sketch file for `base`.
    pub fn skt_path(base: impl AsRef<Path>) -> PathBuf {
        suffixed(base.as_ref(), ".skt")
    }

    /// Reopen an oriented graph previously written to `base` (e.g. a
    /// replica copied to another node). Rebuilds offsets and `d*_max`
    /// from the oriented degree file and reloads the rank map and scan
    /// sketches from `base.map` / `base.skt`. A base without `.skt` —
    /// one oriented before the sketch replaced per-list bounds — is an
    /// error naming the missing file, never a miscount.
    ///
    /// ```
    /// use pdtl_core::mgt::{mgt_count_range, MgtOptions};
    /// use pdtl_core::orient::{orient_to_disk, OrientedGraph};
    /// use pdtl_core::sink::CountSink;
    /// use pdtl_core::EdgeRange;
    /// use pdtl_graph::gen::classic::wheel;
    /// use pdtl_graph::DiskGraph;
    /// use pdtl_io::{IoStats, MemoryBudget};
    ///
    /// let dir = std::env::temp_dir().join(format!("pdtl-doc-open-{}", std::process::id()));
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let stats = IoStats::new();
    /// let input = DiskGraph::write(&wheel(12).unwrap(), dir.join("g"), &stats).unwrap();
    /// let (og, _report) = orient_to_disk(&input, dir.join("oriented"), 1, &stats).unwrap();
    ///
    /// // What a cluster node does with its replica: reopen by base path.
    /// let reopened = OrientedGraph::open(dir.join("oriented"), &stats).unwrap();
    /// assert_eq!(reopened.m_star(), og.m_star());
    /// let range = EdgeRange { start: 0, end: reopened.m_star() };
    /// let report = mgt_count_range(
    ///     &reopened, range, MemoryBudget::edges(32), &mut CountSink, stats.clone(),
    /// )
    /// .unwrap();
    /// assert_eq!(report.triangles, 11); // the 11 rim triangles of W_12
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// ```
    pub fn open(base: impl AsRef<Path>, stats: &Arc<IoStats>) -> Result<Self> {
        let base = base.as_ref();
        let disk = DiskGraph::open(base, stats)?;
        let degrees = disk.load_degrees(stats)?;
        let offsets = offsets_from_degrees(&degrees);
        let d_star_max = degrees.iter().copied().max().unwrap_or(0);
        let map = RankMap::read(Self::map_path(base), stats)?;
        if map.len() as usize != degrees.len() {
            return Err(pdtl_io::IoError::malformed(
                Self::map_path(base),
                format!(
                    "rank map covers {} vertices, degree file has {}",
                    map.len(),
                    degrees.len()
                ),
            )
            .into());
        }
        let sketch = read_sketch(&Self::skt_path(base), degrees.len(), stats)?;
        let varint = match disk.codec() {
            Codec::Raw => None,
            Codec::DeltaVarint => Some(disk.varint_index(offsets.clone(), stats)?),
        };
        Ok(Self {
            disk,
            buckets: SketchBuckets::new(&offsets),
            offsets,
            d_star_max,
            map,
            sketch,
            orig_degrees: None,
            varint,
        })
    }

    /// Replicate the oriented graph to `new_base` (a node's local
    /// disk). Delegates to [`DiskGraph::copy_to`], whose
    /// [`file_set`](DiskGraph::file_set) enumeration ships every file
    /// the base carries — `.deg`, `.adj`, `.map`, `.skt`, the
    /// compressed-format sidecars when present, and the `.mft`
    /// integrity manifest (copied last, so the replica can verify its
    /// own digests after the copy) — so a new extension cannot
    /// silently be left behind. Returns the bytes copied.
    pub fn replicate_to(&self, new_base: impl AsRef<Path>, stats: &Arc<IoStats>) -> Result<u64> {
        let (_replica, total) = self.disk.copy_to(new_base, stats)?;
        Ok(total)
    }
}

/// A `.skt` file is `n` little-endian u64s: `2n` u32 words, low first.
fn read_sketch(path: &Path, n: usize, stats: &Arc<IoStats>) -> Result<Vec<u64>> {
    let mut r = U32Reader::open(path, stats.clone())?;
    let words = r.read_all()?;
    if words.len() != 2 * n {
        return Err(pdtl_io::IoError::malformed(
            path,
            format!(
                "sketch file holds {} words, expected {}",
                words.len(),
                2 * n
            ),
        )
        .into());
    }
    let join = |w: &[u32]| u64::from(w[0]) | u64::from(w[1]) << 32;
    Ok(words.chunks_exact(2).map(join).collect())
}

fn write_sketch(path: &Path, sketch: &[u64], stats: &Arc<IoStats>) -> Result<()> {
    let mut w = U32Writer::create(path, stats.clone())?;
    let mut words: Vec<u32> = Vec::new();
    for chunk in sketch.chunks(8192) {
        words.clear();
        words.extend(chunk.iter().flat_map(|&s| [s as u32, (s >> 32) as u32]));
        w.write_all(&words)?;
    }
    w.finish()?;
    Ok(())
}

/// Words of out-lists a worker's [`ScatterBlock`] gathers before it
/// writes them out. A constant, not an option: RMAT-17 on two workers,
/// configurations interleaved in one process, read 8 Ki words 16 229
/// seeks / 72 ms per orientation, 16 Ki 11 413 / 66 ms, 32 Ki 7 674 /
/// 64 ms, 64 Ki 5 021 / 62 ms with ±5 ms quartiles — flat from here
/// up, and this is the smallest block on the flat part.
const SCATTER_BLOCK_WORDS: usize = 32 * 1024;

/// Bytes of the staging buffer a run is encoded through: one `write`
/// per this much of a run (runs average 1 KiB; few are longer).
const SCATTER_STAGE_BYTES: usize = 16 * 1024;

/// The positioned writer under a [`ScatterBlock`]: words addressed by
/// their word offset in the file, encoded through a staging buffer.
/// A `seek` is issued (and counted) only when the words do not continue
/// where the previous ones ended, so abutting lists cost one seek
/// between them and `IoStats::seeks` counts what the device sees.
struct RunWriter<'a, W> {
    out: W,
    path: &'a Path,
    stats: &'a IoStats,
    /// Word offset the next staged word lands at.
    cursor: u64,
    stage: Vec<u8>,
    staged: usize,
}

impl<W: Write + Seek> RunWriter<'_, W> {
    fn write_at(&mut self, at: u64, mut words: &[u32]) -> Result<()> {
        if at != self.cursor {
            self.drain()?;
            self.out
                .seek(SeekFrom::Start(at * 4))
                .map_err(|e| pdtl_io::IoError::os("seek", self.path, e))?;
            self.stats.record_seek();
            self.cursor = at;
        }
        self.cursor += words.len() as u64;
        while !words.is_empty() {
            if self.staged == self.stage.len() {
                self.drain()?;
            }
            let room = (self.stage.len() - self.staged) / 4;
            let (now, later) = words.split_at(room.min(words.len()));
            let dst = &mut self.stage[self.staged..self.staged + 4 * now.len()];
            for (d, v) in dst.chunks_exact_mut(4).zip(now) {
                d.copy_from_slice(&v.to_le_bytes());
            }
            self.staged += 4 * now.len();
            words = later;
        }
        Ok(())
    }

    fn drain(&mut self) -> Result<()> {
        if self.staged > 0 {
            let start = Instant::now();
            self.out
                .write_all(&self.stage[..self.staged])
                .map_err(|e| pdtl_io::IoError::os("write", self.path, e))?;
            self.stats.record_write(self.staged as u64, start.elapsed());
            self.staged = 0;
        }
        Ok(())
    }
}

/// One worker's write-combining block for pass 2 of
/// [`orient_to_disk_with`]: sorted out-lists gather in a fixed-capacity
/// arena, each with the word offset it belongs at; a full block is
/// sorted by that offset and written in order, so every maximal group
/// of abutting lists becomes one positioned run (see the module doc for
/// why such groups are long). Nothing is written on `Drop`: the worker
/// ends with an explicit [`flush`](Self::flush) whose error it returns.
struct ScatterBlock<'a, W> {
    writer: RunWriter<'a, W>,
    cap: usize,
    arena: Vec<u32>,
    /// `(word offset in the file, start in the arena, length)` per list
    /// — at most one per arena word.
    entries: Vec<(u64, u32, u32)>,
}

impl<'a, W: Write + Seek> ScatterBlock<'a, W> {
    /// A block of `cap` words over `out`, which must be positioned at
    /// its start; `path` names it in errors.
    fn new(out: W, path: &'a Path, stats: &'a IoStats, cap: usize) -> Self {
        Self {
            writer: RunWriter {
                out,
                path,
                stats,
                cursor: 0,
                stage: vec![0; SCATTER_STAGE_BYTES],
                staged: 0,
            },
            cap,
            arena: Vec::with_capacity(cap),
            entries: Vec::new(),
        }
    }

    /// Add the non-empty `list` destined for word offset `at`. A list
    /// longer than `cap` becomes a block of its own (the arena grows to
    /// it: at most `d*_max` words, which the caller's list already is).
    fn push(&mut self, at: u64, list: &[u32]) -> Result<()> {
        if self.arena.len() + list.len() > self.cap {
            self.flush()?;
        }
        self.entries
            .push((at, self.arena.len() as u32, list.len() as u32));
        self.arena.extend_from_slice(list);
        Ok(())
    }

    /// Write out everything gathered so far.
    fn flush(&mut self) -> Result<()> {
        self.entries.sort_unstable_by_key(|e| e.0);
        for &(at, start, len) in &self.entries {
            let list = &self.arena[start as usize..(start + len) as usize];
            self.writer.write_at(at, list)?;
        }
        self.entries.clear();
        self.arena.clear();
        self.writer.drain()
    }
}

/// Orient `input` (an undirected PDTL-format graph on disk) into the
/// rank-space pair `out_base{.deg,.adj}` (plus `.map`/`.skt`) using
/// `threads` cores, storing the adjacency raw ([`Codec::Raw`]).
///
/// Returns the oriented graph and a [`PhaseReport`] with the phase's wall
/// time, CPU/I-O split and counted work (this is the quantity Table II
/// and Figure 2 report).
pub fn orient_to_disk(
    input: &DiskGraph,
    out_base: impl AsRef<Path>,
    threads: usize,
    stats: &Arc<IoStats>,
) -> Result<(OrientedGraph, PhaseReport)> {
    orient_to_disk_with(input, out_base, threads, Codec::Raw, stats)
}

/// [`orient_to_disk`] with an explicit adjacency codec.
///
/// Pass 2's positioned writes need fixed per-vertex offsets,
/// which a variable-length encoding cannot offer — so compression runs
/// as a third, sequential pass: the raw rank-space adjacency is
/// re-read in order, encoded per vertex, and atomically replaces the
/// raw file alongside the `.vix` index and `.hdr` header. The extra
/// `O(scan(|E*|))` is paid once at preprocessing time; every multi-pass
/// MGT scan afterwards reads the compressed bytes.
pub fn orient_to_disk_with(
    input: &DiskGraph,
    out_base: impl AsRef<Path>,
    threads: usize,
    codec: Codec,
    stats: &Arc<IoStats>,
) -> Result<(OrientedGraph, PhaseReport)> {
    orient_blocked(
        input,
        out_base.as_ref(),
        threads,
        codec,
        stats,
        SCATTER_BLOCK_WORDS,
    )
}

/// Refuse an undirected input whose adjacency is not stored raw:
/// orientation reads it as plain vertex ids, and a delta-varint base
/// would hand it encoded words. The codec belongs to the oriented graph
/// — `gen`, `import` and [`from_sorted_packed_edges`] all write raw.
///
/// [`from_sorted_packed_edges`]: pdtl_graph::disk::from_sorted_packed_edges
pub fn require_raw_input(input: &DiskGraph) -> std::result::Result<(), pdtl_io::IoError> {
    match input.codec() {
        Codec::Raw => Ok(()),
        codec => Err(pdtl_io::IoError::malformed(
            input.hdr_path(),
            format!("undirected input stored {codec}; orientation reads a raw adjacency"),
        )),
    }
}

/// [`orient_to_disk_with`] with the scatter block's capacity as an
/// argument, so the tests can put block boundaries anywhere.
fn orient_blocked(
    input: &DiskGraph,
    out_base: &Path,
    threads: usize,
    codec: Codec,
    stats: &Arc<IoStats>,
    block_words: usize,
) -> Result<(OrientedGraph, PhaseReport)> {
    require_raw_input(input)?;
    let threads = threads.max(1);
    let out_base = out_base.to_path_buf();
    let timer = CpuIoTimer::start(stats.clone());
    let before = stats.snapshot();
    begin_write(&out_base, codec)?;

    // Per Section IV-B1 the degree array is read once into memory; the
    // rank permutation is O(|V| log |V|) on it.
    let degrees = input.load_degrees(stats)?;
    let n = degrees.len() as u32;
    let in_offsets = offsets_from_degrees(&degrees);
    let total = *in_offsets.last().unwrap();
    let map = RankMap::by_degree(&degrees);
    let ranks = map.ranks();

    // Contiguous vertex ranges with ~equal adjacency volume per core.
    // Both passes hand each host thread one contiguous run of them, so
    // a request for more cores than the host has costs no extra threads.
    let parts = vertex_partition(&in_offsets, threads);

    // Pass 1: sequential scan, count each vertex's oriented out-degree
    // (neighbours of larger rank).
    let count_part = |&(v_begin, v_end): &(u32, u32)| -> Result<Vec<u32>> {
        let mut reader = input.open_adj(stats)?;
        reader.seek_to(in_offsets[v_begin as usize])?;
        let mut kept = Vec::with_capacity((v_end - v_begin) as usize);
        let mut nbuf: Vec<u32> = Vec::new();
        for u in v_begin..v_end {
            let du = (in_offsets[u as usize + 1] - in_offsets[u as usize]) as usize;
            nbuf.clear();
            reader.read_into(&mut nbuf, du)?;
            let ru = ranks[u as usize];
            kept.push(nbuf.iter().filter(|&&v| ranks[v as usize] > ru).count() as u32);
        }
        Ok(kept)
    };
    let counted = par::map_chunks(parts.len(), par::host_threads(), |run| {
        parts[run].iter().map(count_part).collect::<Vec<_>>()
    });
    let mut d_star_orig = Vec::with_capacity(n as usize);
    for c in counted.into_iter().flatten() {
        d_star_orig.extend(c?);
    }
    debug_assert_eq!(d_star_orig.len(), n as usize);

    // Rank-space layout: degree/offset arrays permuted into rank order.
    let d_star_rank: Vec<u32> = (0..n).map(|r| d_star_orig[map.to_id(r) as usize]).collect();
    // Dead from here on: not held through pass 2.
    drop(d_star_orig);
    let rank_offsets = offsets_from_degrees(&d_star_rank);
    let d_star_max = d_star_rank.iter().copied().max().unwrap_or(0);
    let m_star = *rank_offsets.last().unwrap();

    // Oriented degree file (rank order) + the rank map.
    let mut degw = U32Writer::create(suffixed(&out_base, ".deg"), stats.clone())?;
    degw.write_all(&d_star_rank)?;
    degw.finish()?;
    map.write(OrientedGraph::map_path(&out_base), stats)?;

    // Pass 2: sequential scan again; each filtered, rank-mapped, sorted
    // out-list goes to its rank-space position in the pre-sized
    // adjacency file through the worker's `ScatterBlock` — positioned
    // writes are the price of the permutation, one per run of a block.
    let adj_p = suffixed(&out_base, ".adj");
    {
        let f = File::create(&adj_p).map_err(|e| pdtl_io::IoError::os("create", &adj_p, e))?;
        f.set_len(m_star * 4)
            .map_err(|e| pdtl_io::IoError::os("truncate", &adj_p, e))?;
    }
    let buckets = SketchBuckets::new(&rank_offsets);
    let bucket_of = buckets.per_rank();
    // Each worker returns the sketches of its vertices, in id order.
    let scatter_part = |&(v_begin, v_end): &(u32, u32)| -> Result<Vec<u64>> {
        let mut reader = input.open_adj(stats)?;
        reader.seek_to(in_offsets[v_begin as usize])?;
        let out = File::options()
            .write(true)
            .open(&adj_p)
            .map_err(|e| pdtl_io::IoError::os("open", &adj_p, e))?;
        let mut block = ScatterBlock::new(out, &adj_p, stats, block_words);
        let mut nbuf: Vec<u32> = Vec::new();
        let mut list: Vec<u32> = Vec::new();
        let mut sketches = vec![0u64; (v_end - v_begin) as usize];
        for (u, sketch) in (v_begin..v_end).zip(&mut sketches) {
            let du = (in_offsets[u as usize + 1] - in_offsets[u as usize]) as usize;
            nbuf.clear();
            reader.read_into(&mut nbuf, du)?;
            let ru = ranks[u as usize];
            list.clear();
            list.extend(
                nbuf.iter()
                    .map(|&v| ranks[v as usize])
                    .filter(|&rv| rv > ru),
            );
            if list.is_empty() {
                continue;
            }
            list.sort_unstable();
            *sketch = list
                .iter()
                .fold(0, |s, &rv| s | 1 << bucket_of[rv as usize]);
            block.push(rank_offsets[ru as usize], &list)?;
        }
        block.flush()?;
        Ok(sketches)
    };
    let written = par::map_chunks(parts.len(), par::host_threads(), |run| {
        parts[run].iter().map(scatter_part).collect::<Vec<_>>()
    });
    drop(bucket_of);

    let mut sketch = vec![0u64; n as usize];
    for (&(v_begin, _), w) in parts.iter().zip(written.into_iter().flatten()) {
        for (u, s) in (v_begin..).zip(w?) {
            sketch[ranks[u as usize] as usize] = s;
        }
    }
    // The scattered writes went through per-worker handles; one sync
    // here makes the assembled adjacency durable before its digest is
    // recorded in the manifest below.
    File::options()
        .write(true)
        .open(&adj_p)
        .and_then(|f| f.sync_all())
        .map_err(|e| pdtl_io::IoError::os("sync", &adj_p, e))?;
    write_sketch(&OrientedGraph::skt_path(&out_base), &sketch, stats)?;

    let mut varint = None;
    if codec == Codec::DeltaVarint {
        let tmp_p = suffixed(&out_base, ".adj-compress");
        let fenceposts = {
            let mut r = U32Reader::open(&adj_p, stats.clone())?;
            let mut w = VarintAdjWriter::create(&tmp_p, stats.clone())?;
            let mut run: Vec<u32> = Vec::new();
            for &d in &d_star_rank {
                run.clear();
                r.read_into(&mut run, d as usize)?;
                w.write_run(&run)?;
            }
            w.finish()?
        };
        VarintIndex::store(suffixed(&out_base, ".vix"), &fenceposts, stats.clone())?;
        std::fs::rename(&tmp_p, &adj_p).map_err(|e| pdtl_io::IoError::os("rename", &tmp_p, e))?;
        write_graph_header(&out_base, codec, m_star, stats)?;
        // The fenceposts just written are the index: no `.vix` re-read.
        let index = VarintIndex::new(rank_offsets.clone(), fenceposts)?;
        varint = Some(Arc::new(index));
    }

    // All data files are durable; committing the manifest last makes it
    // the orientation's crash-safe commit record, and the `open` below
    // immediately re-checks the fresh graph against it.
    Manifest::capture_and_store(&out_base)?;
    let disk = DiskGraph::open(&out_base, stats)?;
    let orig_degrees_rank: Vec<u32> = (0..n).map(|r| degrees[map.to_id(r) as usize]).collect();
    let report = PhaseReport {
        breakdown: timer.finish(),
        io: stats.snapshot().since(&before),
        // Each of the 2|E| adjacency entries is examined once per pass.
        cpu_ops: 2 * total + n as u64,
        threads,
    };
    Ok((
        OrientedGraph {
            disk,
            offsets: rank_offsets,
            d_star_max,
            map,
            sketch,
            buckets,
            orig_degrees: Some(orig_degrees_rank),
            varint,
        },
        report,
    ))
}

/// Split vertices into `parts` contiguous ranges with roughly equal
/// adjacency volume. Returns `(v_begin, v_end)` pairs covering `0..n`.
pub fn vertex_partition(offsets: &[u64], parts: usize) -> Vec<(u32, u32)> {
    let n = (offsets.len() - 1) as u32;
    let total = *offsets.last().unwrap();
    let parts = parts.max(1);
    let mut ranges = Vec::with_capacity(parts);
    let mut begin = 0u32;
    for i in 0..parts {
        let target = total * (i as u64 + 1) / parts as u64;
        let mut end = offsets.partition_point(|&o| o <= target) as u32 - 1;
        end = end.clamp(begin, n);
        if i == parts - 1 {
            end = n;
        }
        ranges.push((begin, end));
        begin = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::DegreeOrder;
    use pdtl_graph::gen::classic::{complete, star, wheel};
    use pdtl_graph::gen::rmat::rmat;
    use proptest::prelude::*;

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-orient-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn csr_orientation_preserves_edge_count() {
        for g in [complete(8).unwrap(), wheel(9).unwrap(), rmat(7, 1).unwrap()] {
            let o = orient_csr(&g);
            assert_eq!(o.m_star(), g.num_edges(), "|E*| = |E|");
        }
    }

    #[test]
    fn rank_space_arcs_point_upward() {
        // The rank-space invariant the MGT optimisations rely on: every
        // out-neighbour of v is numerically greater than v.
        let g = rmat(7, 3).unwrap();
        let o = orient_csr(&g);
        for u in 0..o.num_vertices() {
            for &v in o.out(u) {
                assert!(u < v, "rank arcs must ascend: {u} -> {v}");
            }
        }
    }

    #[test]
    fn rank_arcs_match_degree_order_on_original_ids() {
        let g = rmat(7, 3).unwrap();
        let degrees = g.degrees();
        let ord = DegreeOrder::new(&degrees);
        let o = orient_csr(&g);
        for u in 0..o.num_vertices() {
            let iu = o.map.to_id(u);
            for &v in o.out(u) {
                let iv = o.map.to_id(v);
                assert!(ord.precedes(iu, iv), "every arc respects ≺");
                assert!(g.has_edge(iu, iv), "arcs are real edges");
            }
        }
    }

    #[test]
    fn csr_orientation_lists_stay_sorted() {
        let g = rmat(7, 4).unwrap();
        let o = orient_csr(&g);
        for u in 0..o.num_vertices() {
            let out = o.out(u);
            assert!(out.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn rank_degrees_are_nondecreasing() {
        let g = rmat(7, 5).unwrap();
        let o = orient_csr(&g);
        assert!(o.orig_degrees.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn in_degrees_complement_out_degrees() {
        let g = rmat(6, 5).unwrap();
        let o = orient_csr(&g);
        let ins = o.in_degrees();
        for v in 0..o.num_vertices() {
            assert_eq!(
                ins[v as usize] + o.d_star(v),
                o.orig_degrees[v as usize],
                "d = d* + in"
            );
        }
        let total_in: u64 = ins.iter().map(|&x| x as u64).sum();
        assert_eq!(total_in, g.num_edges());
    }

    #[test]
    fn star_orients_towards_hub() {
        // In a star all leaves have degree 1 < hub degree, so every edge
        // points leaf -> hub; in rank space the hub is the last rank.
        let g = star(10).unwrap();
        let o = orient_csr(&g);
        let hub_rank = o.map.to_rank(0);
        assert_eq!(hub_rank, 9, "hub has the highest degree");
        assert_eq!(o.d_star(hub_rank), 0);
        for r in 0..9 {
            assert_eq!(o.d_star(r), 1);
            assert_eq!(o.out(r), &[hub_rank]);
        }
        assert_eq!(o.d_star_max, 1);
    }

    #[test]
    fn disk_orientation_matches_csr() {
        // A hub and an edgeless graph beside the random one: nothing
        // else orients them both ways.
        for (g, tag) in [
            (rmat(8, 6).unwrap(), "rmat"),
            (star(50).unwrap(), "star"),
            (Graph::empty(17), "empty"),
        ] {
            let stats = IoStats::new();
            let dg = DiskGraph::write(&g, tmpbase(&format!("dm-in-{tag}")), &stats).unwrap();
            let expect = orient_csr(&g);
            for threads in [1usize, 3, 8] {
                let base = tmpbase(&format!("dm-out-{tag}{threads}"));
                let (og, report) = orient_to_disk(&dg, base, threads, &stats).unwrap();
                assert_eq!(og.offsets, expect.offsets, "{tag} threads={threads}");
                assert_eq!(og.d_star_max, expect.d_star_max);
                assert_eq!(og.map, expect.map);
                assert_eq!(og.orig_degrees.as_ref(), Some(&expect.orig_degrees));
                let (offsets, adj) = og.disk.load_parts(&stats).unwrap();
                assert_eq!(offsets, expect.offsets);
                assert_eq!(adj, expect.adj, "{tag} threads={threads}");
                assert!(report.cpu_ops > 0);
                assert_eq!(report.threads, threads);
            }
        }
    }

    /// `⌊64·offsets[v] / m*⌋`, capped at 63 — the definition, spelled
    /// without [`SketchBuckets`].
    fn bucket_by_formula(offsets: &[u64], v: u32) -> u32 {
        let m_star = *offsets.last().unwrap();
        if m_star == 0 {
            return 0;
        }
        (64 * offsets[v as usize] / m_star).min(63) as u32
    }

    #[test]
    fn buckets_follow_the_formula_on_every_shape() {
        // A star's leaves are 49 one-entry lists (m* < 64: empty
        // buckets), the edgeless graph has m* = 0 (no division), and
        // RMAT ends in a run of zero-out-degree ranks (bucket 63).
        for (tag, g) in [
            ("rmat", rmat(9, 3).unwrap()),
            ("star", star(50).unwrap()),
            ("k5", complete(5).unwrap()),
            ("empty", Graph::empty(9)),
        ] {
            let o = orient_csr(&g);
            let buckets = SketchBuckets::new(&o.offsets);
            let n = o.num_vertices();
            assert_eq!(buckets.first(64), n, "{tag}");
            assert_eq!(
                buckets.per_rank(),
                (0..n)
                    .map(|v| bucket_by_formula(&o.offsets, v) as u8)
                    .collect::<Vec<_>>(),
                "{tag}"
            );
            for v in 0..n {
                let b = buckets.of(v);
                assert_eq!(b, bucket_by_formula(&o.offsets, v), "{tag}: rank {v}");
                assert!(buckets.first(b) <= v && v < buckets.first(b + 1), "{tag}");
            }
        }
    }

    #[test]
    fn sketches_describe_out_lists() {
        let g = rmat(7, 19).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("skt-in"), &stats).unwrap();
        let (og, _) = orient_to_disk(&dg, tmpbase("skt-out"), 3, &stats).unwrap();
        let expect = orient_csr(&g);
        assert_eq!(og.buckets(), &SketchBuckets::new(&expect.offsets));
        for r in 0..og.num_vertices() {
            let want = (expect.out(r).iter())
                .fold(0u64, |s, &v| s | 1 << bucket_by_formula(&expect.offsets, v));
            let got = og.sketch[r as usize];
            assert_eq!(got, want, "rank {r}");
            assert_eq!(got, og.buckets().sketch(expect.out(r)));
            // Out-neighbours lie above r, so no bit sits below its bucket.
            assert_eq!(got >> og.buckets().of(r) << og.buckets().of(r), got);
        }
    }

    #[test]
    fn a_base_oriented_with_bounds_is_refused_by_name() {
        // The sketch file has the size the per-list bounds file had: a
        // base that carries only `.bnd` must fail at open, naming the
        // `.skt` it lacks, whether or not its manifest survived.
        let g = rmat(6, 27).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("stale-in"), &stats).unwrap();
        for keep_manifest in [true, false] {
            let base = tmpbase(&format!("stale-or-{keep_manifest}"));
            let (og, _) = orient_to_disk(&dg, &base, 2, &stats).unwrap();
            std::fs::rename(OrientedGraph::skt_path(&base), suffixed(&base, ".bnd")).unwrap();
            if !keep_manifest {
                std::fs::remove_file(og.disk.mft_path()).unwrap();
            }
            let err = OrientedGraph::open(&base, &stats).unwrap_err();
            let path = match &err {
                crate::CoreError::Io(pdtl_io::IoError::Os { path, .. }) => path,
                crate::CoreError::Graph(pdtl_graph::GraphError::Truncated { path, .. }) => path,
                other => panic!("manifest {keep_manifest}: untyped failure {other}"),
            };
            assert_eq!(path, &OrientedGraph::skt_path(&base), "{err}");
            assert!(err.to_string().contains(".skt"), "{err}");
        }
    }

    #[test]
    fn disk_orientation_counts_io() {
        let g = rmat(7, 7).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("io-in"), &stats).unwrap();
        stats.reset();
        let (_og, report) = orient_to_disk(&dg, tmpbase("io-out"), 2, &stats).unwrap();
        // Reads the degree file + two full adjacency scans; writes at
        // least the oriented pair plus the map and sketches.
        assert!(report.io.bytes_read >= dg.size_bytes());
        assert!(report.io.bytes_written >= (g.num_edges() + g.num_vertices() as u64) * 4);
    }

    #[test]
    fn reopen_from_disk_recovers_metadata() {
        let g = rmat(6, 8).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("ro-in"), &stats).unwrap();
        let base = tmpbase("ro-out");
        let (og, _) = orient_to_disk(&dg, &base, 2, &stats).unwrap();
        let reopened = OrientedGraph::open(&base, &stats).unwrap();
        assert_eq!(reopened.offsets, og.offsets);
        assert_eq!(reopened.d_star_max, og.d_star_max);
        assert_eq!(reopened.map, og.map);
        assert_eq!(reopened.sketch, og.sketch);
        assert_eq!(reopened.buckets(), og.buckets());
        assert!(reopened.orig_degrees.is_none());
        assert!(reopened.in_degrees().is_none());
    }

    #[test]
    fn replicate_ships_map_and_sketch() {
        let g = rmat(6, 9).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("rep-in"), &stats).unwrap();
        let (og, _) = orient_to_disk(&dg, tmpbase("rep-out"), 2, &stats).unwrap();
        let replica_base = tmpbase("rep-copy");
        let bytes = og.replicate_to(&replica_base, &stats).unwrap();
        let n = g.num_vertices() as u64;
        let mft = std::fs::metadata(og.disk.mft_path()).unwrap().len();
        assert_eq!(bytes, og.disk.size_bytes() + n * 4 + 2 * n * 4 + mft);
        let replica = OrientedGraph::open(&replica_base, &stats).unwrap();
        assert_eq!(replica.offsets, og.offsets);
        assert_eq!(replica.map, og.map);
        assert_eq!(replica.sketch, og.sketch);
    }

    #[test]
    fn compressed_orientation_matches_raw_and_shrinks_adjacency() {
        let g = rmat(8, 13).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("vc-in"), &stats).unwrap();
        let (raw, _) = orient_to_disk_with(&dg, tmpbase("vc-raw"), 2, Codec::Raw, &stats).unwrap();
        let (vc, _) =
            orient_to_disk_with(&dg, tmpbase("vc-var"), 2, Codec::DeltaVarint, &stats).unwrap();
        assert_eq!(vc.offsets, raw.offsets);
        assert_eq!(vc.sketch, raw.sketch);
        assert_eq!(vc.disk.codec(), Codec::DeltaVarint);
        assert_eq!(
            vc.disk.adj_len(),
            raw.disk.adj_len(),
            "decoded lengths agree"
        );

        let (_, adj_raw) = raw.disk.load_parts(&stats).unwrap();
        let (_, adj_vc) = vc.disk.load_parts(&stats).unwrap();
        assert_eq!(adj_vc, adj_raw, "decoding inverts the recompress pass");

        let raw_bytes = std::fs::metadata(raw.disk.adj_path()).unwrap().len();
        let vc_bytes = std::fs::metadata(vc.disk.adj_path()).unwrap().len();
        assert!(
            vc_bytes * 2 < raw_bytes,
            "rank-space runs must compress at least 2x: {vc_bytes} vs {raw_bytes}"
        );

        // Replication ships the sidecars; the replica decodes identically.
        let rep = tmpbase("vc-rep");
        vc.replicate_to(&rep, &stats).unwrap();
        let reopened = OrientedGraph::open(&rep, &stats).unwrap();
        assert_eq!(reopened.disk.codec(), Codec::DeltaVarint);
        assert_eq!(reopened.disk.load_parts(&stats).unwrap().1, adj_raw);
    }

    #[test]
    fn compressed_files_are_byte_identical_to_the_pr11_format() {
        // Golden digests taken at the commit before the run decoder and
        // the bulk writer: the same graph must still produce the same
        // `.adj`, `.vix` and `.hdr` bytes, at any thread count.
        let digest = |p: PathBuf| {
            let bytes = std::fs::read(p).unwrap();
            (bytes.len(), pdtl_io::crc32c(&bytes))
        };
        let g = rmat(9, 5).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("gold-in"), &stats).unwrap();
        for threads in [1, 2, 5] {
            let base = tmpbase(&format!("gold-or{threads}"));
            let (og, _) =
                orient_to_disk_with(&dg, &base, threads, Codec::DeltaVarint, &stats).unwrap();
            assert_eq!(digest(og.disk.adj_path()), (5308, 0xaf15_4751));
            assert_eq!(digest(og.disk.vix_path()), (4104, 0xa828_12c1));
            assert_eq!(digest(og.disk.hdr_path()), (20, 0xd5c8_591c));
        }
        let dv =
            DiskGraph::write_with(&g, tmpbase("gold-inv"), Codec::DeltaVarint, &stats).unwrap();
        assert_eq!(digest(dv.adj_path()), (9804, 0x3631_c7cc));
        assert_eq!(digest(dv.vix_path()), (4104, 0xb4d8_263f));
        assert_eq!(digest(dv.hdr_path()), (20, 0x927a_c8db));
    }

    /// `(len, crc32c)` of `base` + `ext`.
    fn digest(base: &Path, ext: &str) -> (usize, u32) {
        let bytes = std::fs::read(suffixed(base, ext)).unwrap();
        (bytes.len(), pdtl_io::crc32c(&bytes))
    }

    #[test]
    fn raw_files_are_byte_identical_to_the_per_vertex_scatter() {
        // Golden digests taken at the commit before the scatter block,
        // when pass 2 issued one `seek` + `write` per out-list: same
        // graph, same four raw files, at any thread count. The `.skt`
        // digest was taken when the sketch replaced the bounds file.
        let g = rmat(9, 5).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("rawgold-in"), &stats).unwrap();
        for threads in [1, 2, 5] {
            let base = tmpbase(&format!("rawgold-or{threads}"));
            stats.reset();
            let (_, report) = orient_to_disk_with(&dg, &base, threads, Codec::Raw, &stats).unwrap();
            assert_eq!(digest(&base, ".deg"), (2048, 0xb94d_c6ac));
            assert_eq!(digest(&base, ".adj"), (19276, 0xf969_c841));
            assert_eq!(digest(&base, ".map"), (2048, 0x4938_34ea));
            assert_eq!(digest(&base, ".skt"), (4096, 0x138d_a896));
            assert_eq!(report.io.bytes_written, 27468, "the four files, once");
        }
    }

    #[test]
    fn scatter_accounts_every_byte_and_only_the_seeks_it_issues() {
        let g = rmat(12, 11).unwrap();
        let expect = orient_csr(&g);
        let non_empty = (0..expect.num_vertices())
            .filter(|&r| expect.d_star(r) > 0)
            .count() as u64;
        assert_eq!(non_empty, 3336);
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("acct-in"), &stats).unwrap();
        for (codec, bytes_written) in [(Codec::Raw, 259_456), (Codec::DeltaVarint, 347_216)] {
            for threads in [1usize, 2, 3] {
                stats.reset();
                let (og, report) =
                    orient_to_disk_with(&dg, tmpbase("acct-or"), threads, codec, &stats).unwrap();
                // The values the per-vertex scatter reported, which
                // also issued 3336 + a few reader seeks.
                assert_eq!(report.io.bytes_written, bytes_written, "{codec:?}");
                assert!(
                    report.io.seeks * 5 <= non_empty,
                    "{} seeks for {non_empty} out-lists ({codec:?}, threads={threads})",
                    report.io.seeks
                );
                assert_eq!(og.disk.load_parts(&stats).unwrap().1, expect.adj);
            }
        }
    }

    /// A graph with what the scatter has to get right: isolated
    /// vertices (ids 48..64 unless the hub reaches them), a hub whose
    /// leaves form a long run of equal-degree vertices with consecutive
    /// ids — so consecutive ranks, cut by worker boundaries — and a
    /// clique, whose low ranks own out-lists longer than a small block.
    fn arb_scatter_graph() -> impl Strategy<Value = Graph> {
        (
            prop::collection::vec((0u32..48, 0u32..48), 0..200),
            0u32..60,
            0u32..14,
        )
            .prop_map(|(mut edges, fan, clique)| {
                edges.extend((1..=fan).map(|leaf| (0, leaf)));
                for a in 0..clique {
                    edges.extend((a + 1..clique).map(|b| (20 + a, 20 + b)));
                }
                Graph::from_edges(64, &edges).unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn scatter_output_is_independent_of_threads_and_block_size(g in arb_scatter_graph()) {
            let expect = orient_csr(&g);
            let non_empty = (0..expect.num_vertices())
                .filter(|&r| expect.d_star(r) > 0)
                .count() as u64;
            let stats = IoStats::new();
            let dg = DiskGraph::write(&g, tmpbase("prop-in"), &stats).unwrap();
            let base = tmpbase("prop-or");
            let files = |base: &Path| -> Vec<Vec<u8>> {
                [".adj", ".deg", ".map", ".skt"]
                    .iter()
                    .map(|ext| std::fs::read(suffixed(base, ext)).unwrap())
                    .collect()
            };
            let mut reference: Option<Vec<Vec<u8>>> = None;
            for threads in [1usize, 2, 3, 5] {
                // The default holds all of `m*` here, so it is also the
                // "one block, one run" end of the range.
                for block_words in [1usize, 7, 64, SCATTER_BLOCK_WORDS] {
                    stats.reset();
                    let (og, report) =
                        orient_blocked(&dg, &base, threads, Codec::Raw, &stats, block_words)
                            .unwrap();
                    // 2 reader seeks per worker, at most.
                    prop_assert!(report.io.seeks <= non_empty + 2 * threads as u64);
                    prop_assert_eq!(&og.disk.load_parts(&stats).unwrap().1, &expect.adj);
                    let got = files(&base);
                    match &reference {
                        None => reference = Some(got),
                        Some(r) => prop_assert!(r == &got, "threads={threads} block={block_words}"),
                    }
                }
            }
        }
    }

    /// A `Write + Seek` over a `Vec<u8>` whose calls (seeks and writes
    /// counted together, from 0) fail from the `fail_at`-th on.
    struct FailingFile {
        bytes: std::io::Cursor<Vec<u8>>,
        calls: usize,
        fail_at: usize,
    }

    impl FailingFile {
        fn tick(&mut self) -> std::io::Result<()> {
            self.calls += 1;
            if self.calls > self.fail_at {
                return Err(std::io::Error::other("injected"));
            }
            Ok(())
        }
    }

    impl Write for FailingFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.tick()?;
            self.bytes.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Seek for FailingFile {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.tick()?;
            self.bytes.seek(pos)
        }
    }

    #[test]
    fn a_failed_block_write_is_returned_not_dropped() {
        // Four 3-word lists at offsets 9, 3, 0, 6 into a 12-word file,
        // pushed in that order through blocks of 6 words: the second
        // push pair fills a block, so flushes happen inside `push` and
        // in the final `flush`. Every call the block makes on the file
        // is failed in turn; each failure must come back as an error
        // from the `push` or the final `flush`, never be swallowed.
        let lists: [(u64, [u32; 3]); 4] = [
            (9, [10, 11, 12]),
            (3, [4, 5, 6]),
            (0, [1, 2, 3]),
            (6, [7, 8, 9]),
        ];
        let stats = IoStats::new();
        let path = Path::new("<scatter test>");
        let run = |fail_at: usize| -> (Result<()>, Vec<u8>, usize) {
            let file = FailingFile {
                bytes: std::io::Cursor::new(vec![0; 48]),
                calls: 0,
                fail_at,
            };
            let mut block = ScatterBlock::new(file, path, &stats, 6);
            let result = lists
                .iter()
                .try_for_each(|(at, list)| block.push(*at, list))
                .and_then(|()| block.flush());
            let file = block.writer.out;
            (result, file.bytes.into_inner(), file.calls)
        };

        let (ok, bytes, calls) = run(usize::MAX);
        ok.unwrap();
        let expect: Vec<u8> = (1u32..=12).flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(bytes, expect);
        // Block one: seek to 3, write, seek to 9, write. Block two:
        // seek to 0, write, seek to 6, write.
        assert_eq!(calls, 8);
        for fail_at in 0..calls {
            let (result, _, _) = run(fail_at);
            let err = result.expect_err("an injected failure must surface");
            assert!(err.to_string().contains("<scatter test>"), "{err}");
        }
    }

    #[test]
    fn a_list_longer_than_the_block_is_written_on_its_own() {
        let stats = IoStats::new();
        let path = Path::new("<scatter test>");
        let file = std::io::Cursor::new(vec![0u8; 4 * 40]);
        let mut block = ScatterBlock::new(file, path, &stats, 4);
        let long: Vec<u32> = (2..40).collect();
        block.push(1, &[1]).unwrap();
        block.push(2, &long).unwrap();
        block.push(0, &[0]).unwrap();
        block.flush().unwrap();
        let expect: Vec<u8> = (0u32..40).flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(block.writer.out.into_inner(), expect);
        assert_eq!(stats.bytes_written(), 160);
        // To 1 (the long list continues there), back to 0.
        assert_eq!(stats.snapshot().seeks, 2);
    }

    #[test]
    fn reorienting_under_the_other_codec_leaves_no_stale_sidecars() {
        // raw -> varint -> raw at one base. A raw orientation used to
        // keep the `.hdr` / `.vix` of the varint one before it, digest
        // them into its manifest and come back as `DeltaVarint` with no
        // index.
        let g = rmat(8, 14).unwrap();
        let expect = orient_csr(&g);
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("flip-in"), &stats).unwrap();
        let base = tmpbase("flip-or");
        for codec in [Codec::Raw, Codec::DeltaVarint, Codec::Raw] {
            let (og, _) = orient_to_disk_with(&dg, &base, 2, codec, &stats).unwrap();
            assert_eq!(og.disk.codec(), codec);
            assert_eq!(og.varint_index().is_some(), codec == Codec::DeltaVarint);
            let exts: &[&str] = match codec {
                Codec::Raw => &[".deg", ".adj", ".map", ".skt", ".mft"],
                Codec::DeltaVarint => &[".deg", ".adj", ".hdr", ".vix", ".map", ".skt", ".mft"],
            };
            let files: Vec<PathBuf> = exts.iter().map(|ext| suffixed(&base, ext)).collect();
            assert_eq!(og.disk.file_set(), files, "{codec:?}");
            let verified = og.disk.verify_full().unwrap().unwrap();
            assert_eq!(verified.files, exts.len() - 1, "{codec:?}");
            assert_eq!(og.disk.load_parts(&stats).unwrap().1, expect.adj);
            let reopened = OrientedGraph::open(&base, &stats).unwrap();
            assert_eq!(reopened.disk.codec(), codec);
        }
    }

    #[test]
    fn a_failed_reorientation_leaves_no_commit_record() {
        let g = rmat(7, 15).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("uncommit-in"), &stats).unwrap();
        let base = tmpbase("uncommit-or");
        let (og, _) = orient_to_disk_with(&dg, &base, 2, Codec::Raw, &stats).unwrap();
        assert!(og.disk.mft_path().exists());
        // Pass 2 cannot create its output: the error comes back and the
        // previous commit record is already gone.
        std::fs::remove_file(og.disk.adj_path()).unwrap();
        std::fs::create_dir(og.disk.adj_path()).unwrap();
        assert!(orient_to_disk_with(&dg, &base, 2, Codec::Raw, &stats).is_err());
        assert!(!og.disk.mft_path().exists());
        std::fs::remove_dir(og.disk.adj_path()).unwrap();
    }

    #[test]
    fn varint_index_is_built_once_per_graph() {
        let g = rmat(7, 21).unwrap();
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("vix-in"), &stats).unwrap();
        let (raw, _) = orient_to_disk_with(&dg, tmpbase("vix-raw"), 2, Codec::Raw, &stats).unwrap();
        assert!(raw.varint_index().is_none());

        let base = tmpbase("vix-var");
        let (og, _) = orient_to_disk_with(&dg, &base, 2, Codec::DeltaVarint, &stats).unwrap();
        let built = og
            .varint_index()
            .expect("built from the written fenceposts");
        assert_eq!(built.decoded_len(), og.m_star());
        assert!(
            Arc::ptr_eq(built, og.clone().varint_index().unwrap()),
            "clones (one per query under serve) share the index"
        );
        // The one read from `.vix` at open is the one the orientation
        // assembled in memory.
        let reopened = OrientedGraph::open(&base, &stats).unwrap();
        let loaded = reopened.varint_index().expect("loaded at open");
        assert_eq!(loaded.num_vertices(), built.num_vertices());
        assert_eq!(loaded.encoded_bytes(), built.encoded_bytes());
        assert_eq!(
            reopened.disk.load_parts(&stats).unwrap(),
            og.disk.load_parts(&stats).unwrap()
        );
    }

    #[test]
    fn vertex_partition_covers_and_is_contiguous() {
        let g = rmat(7, 9).unwrap();
        let o = orient_csr(&g);
        for parts in [1usize, 2, 5, 16] {
            let ranges = vertex_partition(&o.offsets, parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[parts - 1].1, o.num_vertices());
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
        }
    }

    #[test]
    fn vertex_partition_balances_volume() {
        let g = rmat(9, 10).unwrap();
        let deg = g.degrees();
        let offsets = offsets_from_degrees(&deg);
        let ranges = vertex_partition(&offsets, 4);
        let total = *offsets.last().unwrap() as f64;
        for &(b, e) in &ranges {
            let vol = (offsets[e as usize] - offsets[b as usize]) as f64;
            assert!(
                vol < 0.5 * total,
                "one part holds {vol} of {total}: too imbalanced"
            );
        }
    }

    #[test]
    fn empty_graph_orients() {
        let g = Graph::empty(10);
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, tmpbase("empty-in"), &stats).unwrap();
        let (og, _) = orient_to_disk(&dg, tmpbase("empty-out"), 2, &stats).unwrap();
        assert_eq!(og.m_star(), 0);
        assert_eq!(og.d_star_max, 0);
        assert!(og.sketch.iter().all(|&s| s == 0));
    }
}
