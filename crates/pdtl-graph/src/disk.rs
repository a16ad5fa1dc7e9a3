//! The PDTL binary on-disk graph format.
//!
//! Per the paper (§V-B): *"graphs are in binary, bi-directional format,
//! with degrees of vertices and their out-edges in separate files"* and
//! *"edges are sorted by source and destination"*. Concretely, a graph
//! named `base` is the file pair:
//!
//! * `base.deg` — `n` little-endian `u32` degrees, vertex order;
//! * `base.adj` — the concatenated adjacency lists in vertex order, each
//!   sorted ascending (`sum(deg)` values; `2|E|` for an undirected graph,
//!   `|E*|` for an oriented one).
//!
//! The same pair of files stores both undirected inputs and oriented
//! outputs (orientation just changes which neighbours are present), so the
//! whole pipeline — orientation, replication, per-core MGT — moves these
//! two files around.
//!
//! Since the transport × codec split the adjacency may instead be stored
//! under [`Codec::DeltaVarint`]: `base.adj` then holds the per-vertex
//! delta + varint byte runs (zero-padded to a word boundary so every
//! block transport opens it), flanked by two sidecars —
//!
//! * `base.hdr` — 5 words: magic, format version, codec discriminant,
//!   and the *decoded* adjacency length as a `(lo, hi)` pair;
//! * `base.vix` — the `n + 1` per-vertex byte fenceposts
//!   ([`VarintIndex`]'s sidecar) that make `seek_to`/`skip` work in
//!   decoded index space.
//!
//! A graph without a header is a legacy raw pair; raw writes leave the
//! PR 2 `.deg`/`.adj` bytes identical. [`adj_len`] always reports the
//! decoded length, and [`file_set`] is the single enumeration of which
//! files a base carries (replication, cleanup and tests all go through
//! it).
//!
//! Every write additionally commits a `base.mft` integrity manifest
//! ([`Manifest`]): lengths + CRC32C digests
//! of the data files, written crash-safely after they are durable.
//! `open` runs the quick verification tier against it (lengths +
//! small-file digests); [`verify_full`] digests everything. A base
//! without a manifest (written pre-integrity) still opens — the
//! manifest is advisory-absent.
//!
//! [`adj_len`]: DiskGraph::adj_len
//! [`file_set`]: DiskGraph::file_set
//! [`verify_full`]: DiskGraph::verify_full

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pdtl_io::{
    Codec, IoError, IoStats, U32Reader, U32Source, U32Writer, VarintAdjWriter, VarintIndex,
    BYTES_PER_U32,
};

use crate::csr::Graph;
use crate::error::Result;
use crate::manifest::{Manifest, VerifyReport, MFT_EXT};

/// Magic word opening a `.hdr` sidecar (`"PDTL"` in LE bytes).
const HDR_MAGIC: u32 = u32::from_le_bytes(*b"PDTL");
/// On-disk format version the header declares.
const HDR_VERSION: u32 = 1;
/// Header length in words: magic, version, codec, adj_len lo, adj_len hi.
const HDR_WORDS: usize = 5;

/// Handle to a graph stored in PDTL binary format.
#[derive(Debug, Clone)]
pub struct DiskGraph {
    base: PathBuf,
    n: u32,
    /// Decoded adjacency length in `u32`s (codec-independent).
    adj_len: u64,
    codec: Codec,
    /// On-disk bytes of the core file set (`.deg`/`.adj` + sidecars).
    disk_bytes: u64,
}

impl DiskGraph {
    /// Write `graph` to `base{.deg,.adj}` in raw (PR 2) format.
    pub fn write(graph: &Graph, base: impl AsRef<Path>, stats: &Arc<IoStats>) -> Result<Self> {
        Self::write_with(graph, base, Codec::Raw, stats)
    }

    /// Write `graph` to `base` under `codec`: `.deg` is always raw;
    /// under [`Codec::DeltaVarint`] the adjacency is stored compressed
    /// with the `.vix`/`.hdr` sidecars, under [`Codec::Raw`] no
    /// sidecars are produced and the files are byte-identical to the
    /// legacy format.
    pub fn write_with(
        graph: &Graph,
        base: impl AsRef<Path>,
        codec: Codec,
        stats: &Arc<IoStats>,
    ) -> Result<Self> {
        let base = base.as_ref().to_path_buf();
        begin_write(&base, codec)?;
        let mut degw = U32Writer::create(deg_path(&base), stats.clone())?;
        for u in 0..graph.num_vertices() {
            degw.write(graph.degree(u))?;
        }
        degw.finish()?;
        match codec {
            Codec::Raw => {
                let mut adjw = U32Writer::create(adj_path(&base), stats.clone())?;
                adjw.write_all(graph.adjacency())?;
                adjw.finish()?;
            }
            Codec::DeltaVarint => {
                let mut adjw = VarintAdjWriter::create(adj_path(&base), stats.clone())?;
                for u in 0..graph.num_vertices() {
                    adjw.write_run(graph.neighbors(u))?;
                }
                let fenceposts = adjw.finish()?;
                VarintIndex::store(suffixed(&base, ".vix"), &fenceposts, stats.clone())?;
                write_graph_header(&base, codec, graph.adj_len(), stats)?;
            }
        }
        // Every data file is flushed + synced by its writer; committing
        // the manifest last makes it the write's durable commit record.
        Manifest::capture_and_store(&base)?;
        Self::open(&base, stats)
    }

    /// Open an existing graph at `base`, validating sizes.
    ///
    /// When an integrity manifest is present, its quick verification
    /// tier runs first (every recorded length plus full digests of
    /// small files), turning truncations and sidecar corruption into
    /// typed [`Corrupt`](crate::GraphError::Corrupt) /
    /// [`Truncated`](crate::GraphError::Truncated) errors at open time.
    /// The codec is then taken from the `.hdr` sidecar (read through an
    /// accounted reader, so open-time I/O shows up in [`IoStats`]); a
    /// base without a header is a legacy raw pair.
    pub fn open(base: impl AsRef<Path>, stats: &Arc<IoStats>) -> Result<Self> {
        let base = base.as_ref().to_path_buf();
        if let Some(manifest) = Manifest::load(&base)? {
            manifest.verify_quick(&base)?;
        }
        let deg = deg_path(&base);
        let adj = adj_path(&base);
        let deg_meta = std::fs::metadata(&deg).map_err(|e| IoError::os("stat", &deg, e))?;
        let adj_meta = std::fs::metadata(&adj).map_err(|e| IoError::os("stat", &adj, e))?;
        if deg_meta.len() % BYTES_PER_U32 != 0 {
            return Err(IoError::malformed(&deg, "degree file not u32-aligned").into());
        }
        if adj_meta.len() % BYTES_PER_U32 != 0 {
            return Err(IoError::malformed(&adj, "adjacency file not u32-aligned").into());
        }
        let (codec, adj_len) = match read_graph_header(&base, stats)? {
            Some((codec, adj_len)) => (codec, adj_len),
            None => (Codec::Raw, adj_meta.len() / BYTES_PER_U32),
        };
        let mut disk_bytes = deg_meta.len() + adj_meta.len();
        for ext in [".hdr", ".vix"] {
            if let Ok(m) = std::fs::metadata(suffixed(&base, ext)) {
                disk_bytes += m.len();
            }
        }
        Ok(Self {
            base,
            n: (deg_meta.len() / BYTES_PER_U32) as u32,
            adj_len,
            codec,
            disk_bytes,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.n
    }

    /// Total *decoded* adjacency entries (`2|E|` undirected, `|E*|`
    /// oriented), regardless of how they are encoded on disk.
    pub fn adj_len(&self) -> u64 {
        self.adj_len
    }

    /// How the adjacency file is encoded.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// The base path (without extension).
    pub fn base(&self) -> &Path {
        &self.base
    }

    /// Path of the degree file.
    pub fn deg_path(&self) -> PathBuf {
        deg_path(&self.base)
    }

    /// Path of the adjacency file.
    pub fn adj_path(&self) -> PathBuf {
        adj_path(&self.base)
    }

    /// Path of the format-header sidecar (present iff compressed).
    pub fn hdr_path(&self) -> PathBuf {
        suffixed(&self.base, ".hdr")
    }

    /// Path of the varint byte-offset index sidecar (present iff
    /// compressed).
    pub fn vix_path(&self) -> PathBuf {
        suffixed(&self.base, ".vix")
    }

    /// Path of the integrity manifest sidecar (absent on pre-integrity
    /// graphs).
    pub fn mft_path(&self) -> PathBuf {
        suffixed(&self.base, MFT_EXT)
    }

    /// Every file extension a graph base may carry: the core pair, the
    /// compressed-format sidecars, the orientation sidecars (rank map
    /// and suffix bounds) that `OrientedGraph` adds, and the integrity
    /// manifest — which sorts last so replication copies it after the
    /// data it covers.
    pub const ALL_EXTS: [&'static str; 7] =
        [".deg", ".adj", ".hdr", ".vix", ".map", ".bnd", MFT_EXT];

    /// The files that actually exist for this base, in [`ALL_EXTS`]
    /// order — the single enumeration replication, cleanup and tests
    /// use, so a new sidecar extension cannot silently be left behind.
    ///
    /// [`ALL_EXTS`]: Self::ALL_EXTS
    pub fn file_set(&self) -> Vec<PathBuf> {
        Self::ALL_EXTS
            .iter()
            .map(|ext| suffixed(&self.base, ext))
            .filter(|p| p.exists())
            .collect()
    }

    /// On-disk bytes of the core file set (`.deg`/`.adj` plus the
    /// compressed-format sidecars) — for a raw graph exactly
    /// `(n + adj_len) * 4`, for a compressed one what the device
    /// actually stores.
    pub fn size_bytes(&self) -> u64 {
        self.disk_bytes
    }

    /// Read the whole degree file.
    pub fn load_degrees(&self, stats: &Arc<IoStats>) -> Result<Vec<u32>> {
        let mut r = U32Reader::open(self.deg_path(), stats.clone())?;
        Ok(r.read_all()?)
    }

    /// Open a counted reader positioned at the start of the adjacency
    /// file, in *transport* (word) space: for a compressed graph these
    /// are encoded words, to be wrapped in a
    /// [`VarintSource`](pdtl_io::VarintSource) built from
    /// [`varint_index`](Self::varint_index).
    pub fn open_adj(&self, stats: &Arc<IoStats>) -> Result<U32Reader> {
        Ok(U32Reader::open(self.adj_path(), stats.clone())?)
    }

    /// Load the varint index for a compressed graph, pairing the given
    /// decoded fenceposts (prefix sums of `.deg`, `n + 1` entries) with
    /// the `.vix` byte fenceposts. Errors on a raw graph.
    pub fn varint_index(
        &self,
        decoded_offsets: Vec<u64>,
        stats: &Arc<IoStats>,
    ) -> Result<Arc<VarintIndex>> {
        if self.codec != Codec::DeltaVarint {
            return Err(IoError::malformed(
                self.adj_path(),
                "varint index requested for a raw graph".to_string(),
            )
            .into());
        }
        Ok(Arc::new(VarintIndex::load(
            self.vix_path(),
            decoded_offsets,
            stats.clone(),
        )?))
    }

    /// Load the full graph back into CSR form.
    ///
    /// Note: for an *oriented* graph the result is a directed adjacency
    /// structure and will not pass `Graph::validate`'s symmetry check;
    /// use [`load_parts`](Self::load_parts) in that case.
    pub fn load_csr(&self, stats: &Arc<IoStats>) -> Result<Graph> {
        let (offsets, adj) = self.load_parts(stats)?;
        Graph::from_parts(offsets, adj)
    }

    /// Load offsets (prefix sums of degrees) and raw adjacency.
    pub fn load_parts(&self, stats: &Arc<IoStats>) -> Result<(Vec<u64>, Vec<u32>)> {
        let degrees = self.load_degrees(stats)?;
        let offsets = offsets_from_degrees(&degrees);
        let degree_sum = offsets.last().copied().unwrap_or(0);
        if degree_sum != self.adj_len {
            return Err(IoError::malformed(
                self.adj_path(),
                format!(
                    "degree sum {degree_sum} != adjacency length {}",
                    self.adj_len
                ),
            )
            .into());
        }
        let adj = match self.codec {
            Codec::Raw => self.open_adj(stats)?.read_all()?,
            Codec::DeltaVarint => {
                let index = self.varint_index(offsets.clone(), stats)?;
                let mut src =
                    pdtl_io::VarintSource::new(self.open_adj(stats)?, index, stats.clone())?;
                let mut adj = Vec::with_capacity(self.adj_len as usize);
                src.read_into(&mut adj, self.adj_len as usize)?;
                adj
            }
        };
        Ok((offsets, adj))
    }

    /// Copy the whole [`file_set`](Self::file_set) — core pair plus
    /// every sidecar present — to a new base (replication to a node's
    /// local disk). Returns the new handle and the bytes copied.
    pub fn copy_to(&self, new_base: impl AsRef<Path>, stats: &Arc<IoStats>) -> Result<(Self, u64)> {
        let new_base = new_base.as_ref().to_path_buf();
        if let Some(parent) = new_base.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| IoError::os("mkdir", parent, e))?;
            }
        }
        let mut total = 0u64;
        // ALL_EXTS order puts the manifest last, so a replica that
        // loses the copy mid-way has no manifest rather than a
        // manifest covering files that never arrived.
        for ext in Self::ALL_EXTS {
            let src = suffixed(&self.base, ext);
            if !src.exists() {
                continue;
            }
            let dst = suffixed(&new_base, ext);
            let start = Instant::now();
            let bytes = std::fs::copy(&src, &dst).map_err(|e| IoError::os("copy", &src, e))?;
            let elapsed = start.elapsed();
            stats.record_read(bytes, elapsed / 2);
            stats.record_write(bytes, elapsed / 2);
            total += bytes;
        }
        Ok((
            Self {
                base: new_base,
                ..self.clone()
            },
            total,
        ))
    }

    /// Full-tier integrity verification: digest every file the
    /// manifest covers. `Ok(None)` when the base carries no manifest
    /// (pre-integrity graph — nothing to verify against); a typed
    /// [`Corrupt`](crate::GraphError::Corrupt) /
    /// [`Truncated`](crate::GraphError::Truncated) error on any
    /// mismatch. This is the tier behind `pdtl verify`, the runners'
    /// input checks and post-copy replica verification — unlike the
    /// quick tier in [`open`](Self::open) it catches bit flips deep
    /// inside large adjacency files.
    pub fn verify_full(&self) -> Result<Option<VerifyReport>> {
        match Manifest::load(&self.base)? {
            Some(m) => Ok(Some(m.verify_full(&self.base)?)),
            None => Ok(None),
        }
    }

    /// Delete every file in the [`file_set`](Self::file_set) (cleanup
    /// of replicas and temporaries).
    pub fn remove(&self) -> Result<()> {
        for p in self.file_set() {
            std::fs::remove_file(&p).map_err(|e| IoError::os("remove", &p, e))?;
        }
        Ok(())
    }
}

/// Start a graph write at `base` under `codec`; every writer of a graph
/// base (here and the orientation in `pdtl-core`) calls this before its
/// first data file. Creates the parent directory, then removes what an
/// earlier write at the same base left that this one will not
/// overwrite: the old `.mft` *first*, so a crash mid-rewrite can never
/// leave the previous commit record beside new data, then the
/// `.hdr`/`.vix` sidecars a raw write does not produce — left in place,
/// [`Manifest::capture`] would digest them as members and
/// [`DiskGraph::open`] would believe the stale header.
pub fn begin_write(base: &Path, codec: Codec) -> Result<()> {
    if let Some(parent) = base.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| IoError::os("mkdir", parent, e))?;
        }
    }
    let stale: &[&str] = match codec {
        Codec::Raw => &[MFT_EXT, ".hdr", ".vix"],
        Codec::DeltaVarint => &[MFT_EXT],
    };
    for ext in stale {
        let p = suffixed(base, ext);
        match std::fs::remove_file(&p) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(IoError::os("remove", &p, e).into()),
        }
    }
    Ok(())
}

/// Write the `.hdr` sidecar declaring `codec` and the decoded
/// adjacency length for the graph at `base`. Called by compressed
/// writers (including the orientation recompress pass); raw graphs
/// carry no header.
pub fn write_graph_header(
    base: &Path,
    codec: Codec,
    adj_len: u64,
    stats: &Arc<IoStats>,
) -> Result<()> {
    let mut w = U32Writer::create(suffixed(base, ".hdr"), stats.clone())?;
    w.write_all(&[
        HDR_MAGIC,
        HDR_VERSION,
        u32::from(codec.discriminant()),
        adj_len as u32,
        (adj_len >> 32) as u32,
    ])?;
    w.finish()?;
    Ok(())
}

/// Read the `.hdr` sidecar for `base` through an accounted reader.
/// `None` if the base carries no header (a legacy raw graph).
fn read_graph_header(base: &Path, stats: &Arc<IoStats>) -> Result<Option<(Codec, u64)>> {
    let hdr = suffixed(base, ".hdr");
    if !hdr.exists() {
        return Ok(None);
    }
    let mut r = U32Reader::open(&hdr, stats.clone())?;
    let words = r.read_all()?;
    if words.len() != HDR_WORDS || words[0] != HDR_MAGIC {
        return Err(IoError::malformed(&hdr, "not a PDTL graph header").into());
    }
    if words[1] != HDR_VERSION {
        return Err(
            IoError::malformed(&hdr, format!("unknown format version {}", words[1])).into(),
        );
    }
    let codec = Codec::from_discriminant(words[2] as u8)
        .ok_or_else(|| IoError::malformed(&hdr, format!("unknown codec {}", words[2])))?;
    let adj_len = u64::from(words[3]) | (u64::from(words[4]) << 32);
    Ok(Some((codec, adj_len)))
}

/// Streaming import: build a `DiskGraph` from a file of *sorted* packed
/// directed edges (`(u << 32) | v`, both directions present), as produced
/// by [`pdtl_io::external_sort_u64`]. This is the tail of the
/// edge-list → PDTL-format pipeline and never materialises the graph in
/// memory.
pub fn from_sorted_packed_edges(
    edge_file: &Path,
    n: u32,
    base: impl AsRef<Path>,
    stats: &Arc<IoStats>,
) -> Result<DiskGraph> {
    let base = base.as_ref().to_path_buf();
    begin_write(&base, Codec::Raw)?;
    let records = pdtl_io::extsort::read_u64_records(edge_file, stats)?;
    let mut degw = U32Writer::create(deg_path(&base), stats.clone())?;
    let mut adjw = U32Writer::create(adj_path(&base), stats.clone())?;
    let mut current = 0u32;
    let mut deg = 0u32;
    let mut prev: Option<u64> = None;
    let mut adj_len = 0u64;
    for &rec in &records {
        if prev == Some(rec) {
            continue; // merged duplicate
        }
        prev = Some(rec);
        let (u, v) = ((rec >> 32) as u32, rec as u32);
        if u == v {
            continue;
        }
        if u >= n || v >= n {
            return Err(crate::GraphError::VertexOutOfRange {
                vertex: u.max(v),
                n,
            });
        }
        while current < u {
            degw.write(deg)?;
            deg = 0;
            current += 1;
        }
        adjw.write(v)?;
        deg += 1;
        adj_len += 1;
    }
    while current < n {
        degw.write(deg)?;
        deg = 0;
        current += 1;
    }
    degw.finish()?;
    adjw.finish()?;
    Manifest::capture_and_store(&base)?;
    Ok(DiskGraph {
        base,
        n,
        adj_len,
        codec: Codec::Raw,
        disk_bytes: (n as u64 + adj_len) * BYTES_PER_U32,
    })
}

/// Prefix-sum degrees into CSR offsets (`n + 1` entries).
pub fn offsets_from_degrees(degrees: &[u32]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    offsets.push(0u64);
    let mut acc = 0u64;
    for &d in degrees {
        acc += d as u64;
        offsets.push(acc);
    }
    offsets
}

/// `base` with `ext` (including the dot) appended.
pub fn suffixed(base: &Path, ext: &str) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(ext);
    PathBuf::from(os)
}

fn deg_path(base: &Path) -> PathBuf {
    suffixed(base, ".deg")
}

fn adj_path(base: &Path) -> PathBuf {
    suffixed(base, ".adj")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-disk-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn sample() -> Graph {
        Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn write_open_round_trip() {
        let stats = IoStats::new();
        let g = sample();
        let base = tmpbase("rt");
        let dg = DiskGraph::write(&g, &base, &stats).unwrap();
        assert_eq!(dg.num_vertices(), 5);
        assert_eq!(dg.adj_len(), g.adj_len());

        let dg2 = DiskGraph::open(&base, &stats).unwrap();
        assert_eq!(dg2.num_vertices(), 5);
        assert_eq!(dg2.adj_len(), g.adj_len());
        let g2 = dg2.load_csr(&stats).unwrap();
        assert_eq!(g, g2);
        g2.validate().unwrap();
    }

    #[test]
    fn size_bytes_counts_both_files() {
        let stats = IoStats::new();
        let g = sample();
        let dg = DiskGraph::write(&g, tmpbase("size"), &stats).unwrap();
        assert_eq!(dg.size_bytes(), (5 + g.adj_len()) * 4);
        let on_disk = std::fs::metadata(dg.deg_path()).unwrap().len()
            + std::fs::metadata(dg.adj_path()).unwrap().len();
        assert_eq!(dg.size_bytes(), on_disk);
    }

    #[test]
    fn load_degrees_matches() {
        let stats = IoStats::new();
        let g = sample();
        let dg = DiskGraph::write(&g, tmpbase("deg"), &stats).unwrap();
        assert_eq!(dg.load_degrees(&stats).unwrap(), g.degrees());
    }

    #[test]
    fn copy_to_replicates() {
        let stats = IoStats::new();
        let g = sample();
        let dg = DiskGraph::write(&g, tmpbase("cp-src"), &stats).unwrap();
        let (dup, bytes) = dg.copy_to(tmpbase("cp-dst"), &stats).unwrap();
        let mft_len = std::fs::metadata(dg.mft_path()).unwrap().len();
        assert_eq!(bytes, dg.size_bytes() + mft_len);
        assert_eq!(dup.load_csr(&stats).unwrap(), g);
        // The replica carries its manifest and passes full verification.
        dup.verify_full().unwrap().expect("replica has a manifest");
        dup.remove().unwrap();
        assert!(!dup.deg_path().exists());
        assert!(!dup.mft_path().exists());
    }

    #[test]
    fn open_missing_fails_with_path() {
        let err = DiskGraph::open(tmpbase("nope"), &IoStats::new()).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn detects_degree_adjacency_mismatch() {
        let stats = IoStats::new();
        let g = sample();
        let base = tmpbase("mismatch");
        let dg = DiskGraph::write(&g, &base, &stats).unwrap();
        // Truncate the adjacency file behind the handle's back: the
        // manifest's quick tier rejects it at open time.
        std::fs::write(dg.adj_path(), [0u8; 4]).unwrap();
        let err = DiskGraph::open(&base, &stats).unwrap_err();
        assert!(matches!(err, crate::GraphError::Truncated { .. }), "{err}");
        // Without a manifest (pre-integrity base) the structural
        // degree-sum check still catches it at load time.
        std::fs::remove_file(dg.mft_path()).unwrap();
        let dg = DiskGraph::open(&base, &stats).unwrap();
        assert!(dg.load_parts(&stats).is_err());
    }

    #[test]
    fn offsets_from_degrees_prefix_sums() {
        assert_eq!(offsets_from_degrees(&[]), vec![0]);
        assert_eq!(offsets_from_degrees(&[2, 0, 3]), vec![0, 2, 2, 5]);
    }

    #[test]
    fn import_from_sorted_packed_edges() {
        let stats = IoStats::new();
        let g = sample();
        // produce the packed bidirectional edge stream, sorted
        let mut packed: Vec<u64> = Vec::new();
        for (u, v) in g.edges() {
            packed.push(((u as u64) << 32) | v as u64);
            packed.push(((v as u64) << 32) | u as u64);
        }
        // include a duplicate and a self loop to exercise cleaning
        packed.push(packed[0]);
        packed.push((2u64 << 32) | 2);
        packed.sort_unstable();
        let ef = tmpbase("packed-edges");
        pdtl_io::extsort::write_u64_records(&ef, &packed, &stats).unwrap();
        let dg = from_sorted_packed_edges(&ef, 5, tmpbase("imported"), &stats).unwrap();
        let g2 = dg.load_csr(&stats).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn import_rejects_out_of_range() {
        let stats = IoStats::new();
        let ef = tmpbase("bad-edges");
        pdtl_io::extsort::write_u64_records(&ef, &[(9u64 << 32) | 1], &stats).unwrap();
        assert!(from_sorted_packed_edges(&ef, 5, tmpbase("bad-import"), &stats).is_err());
    }

    #[test]
    fn io_accounting_on_write_and_load() {
        let stats = IoStats::new();
        let g = sample();
        let dg = DiskGraph::write(&g, tmpbase("acct"), &stats).unwrap();
        let written = stats.bytes_written();
        assert_eq!(written, dg.size_bytes());
        dg.load_csr(&stats).unwrap();
        assert_eq!(stats.bytes_read(), dg.size_bytes());
    }

    #[test]
    fn raw_write_emits_no_codec_sidecars() {
        let stats = IoStats::new();
        let g = sample();
        let dg = DiskGraph::write(&g, tmpbase("nosidecar"), &stats).unwrap();
        assert_eq!(dg.codec(), Codec::Raw);
        assert!(!dg.hdr_path().exists());
        assert!(!dg.vix_path().exists());
        // The data pair stays byte-identical to the PR 2 format; the
        // only addition is the advisory integrity manifest.
        assert_eq!(
            dg.file_set(),
            vec![dg.deg_path(), dg.adj_path(), dg.mft_path()]
        );
    }

    #[test]
    fn rewrite_under_the_other_codec_leaves_no_stale_sidecars() {
        // raw -> varint -> raw at one base: each write must come back
        // under its own codec with exactly its own file set, whatever
        // the previous one left.
        let stats = IoStats::new();
        let g = crate::gen::rmat::rmat(8, 3).unwrap();
        let base = tmpbase("flip");
        for codec in [Codec::Raw, Codec::DeltaVarint, Codec::Raw] {
            let dg = DiskGraph::write_with(&g, &base, codec, &stats).unwrap();
            assert_eq!(dg.codec(), codec);
            let mut expect = vec![dg.deg_path(), dg.adj_path()];
            if codec == Codec::DeltaVarint {
                expect.extend([dg.hdr_path(), dg.vix_path()]);
            }
            expect.push(dg.mft_path());
            assert_eq!(dg.file_set(), expect, "{codec:?}");
            assert_eq!(dg.verify_full().unwrap().unwrap().files, expect.len() - 1);
            assert_eq!(dg.load_csr(&stats).unwrap(), g, "{codec:?}");
        }
    }

    #[test]
    fn a_failed_rewrite_leaves_no_commit_record() {
        // The old manifest goes first: a rewrite that dies part-way
        // must not leave the previous commit record beside new data.
        let stats = IoStats::new();
        let base = tmpbase("uncommit");
        let dg = DiskGraph::write(&sample(), &base, &stats).unwrap();
        std::fs::remove_file(dg.adj_path()).unwrap();
        std::fs::create_dir(dg.adj_path()).unwrap();
        assert!(DiskGraph::write(&sample(), &base, &stats).is_err());
        assert!(!dg.mft_path().exists());
        std::fs::remove_dir(dg.adj_path()).unwrap();
    }

    #[test]
    fn compressed_write_open_round_trip() {
        let stats = IoStats::new();
        let g = sample();
        let base = tmpbase("vrt");
        let dg = DiskGraph::write_with(&g, &base, Codec::DeltaVarint, &stats).unwrap();
        assert_eq!(dg.codec(), Codec::DeltaVarint);
        assert_eq!(dg.adj_len(), g.adj_len(), "adj_len is decoded length");
        assert!(dg.hdr_path().exists() && dg.vix_path().exists());
        assert_eq!(
            dg.file_set(),
            vec![
                dg.deg_path(),
                dg.adj_path(),
                dg.hdr_path(),
                dg.vix_path(),
                dg.mft_path()
            ]
        );

        // Reopening recovers the codec and decoded length from the
        // header — through an accounted reader.
        let before = stats.bytes_read();
        let dg2 = DiskGraph::open(&base, &stats).unwrap();
        assert!(stats.bytes_read() > before, "header read is accounted");
        assert_eq!(dg2.codec(), Codec::DeltaVarint);
        assert_eq!(dg2.adj_len(), g.adj_len());
        assert_eq!(dg2.load_csr(&stats).unwrap(), g);
    }

    #[test]
    fn compressed_copy_ships_the_whole_file_set() {
        let stats = IoStats::new();
        let g = sample();
        let dg = DiskGraph::write_with(&g, tmpbase("vcp-src"), Codec::DeltaVarint, &stats).unwrap();
        let (dup, bytes) = dg.copy_to(tmpbase("vcp-dst"), &stats).unwrap();
        let mft_len = std::fs::metadata(dg.mft_path()).unwrap().len();
        assert_eq!(
            bytes,
            dg.size_bytes() + mft_len,
            "all data files plus the manifest copied"
        );
        assert_eq!(dup.codec(), Codec::DeltaVarint);
        assert_eq!(dup.load_csr(&stats).unwrap(), g);
        dup.remove().unwrap();
        assert!(dup.file_set().is_empty(), "remove clears every sidecar");
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let stats = IoStats::new();
        let g = sample();
        let base = tmpbase("badhdr");
        let dg = DiskGraph::write_with(&g, &base, Codec::DeltaVarint, &stats).unwrap();
        std::fs::write(dg.hdr_path(), 0xdeadbeefu32.to_le_bytes()).unwrap();
        // With the manifest present the garbage header is caught by the
        // quick integrity tier at open.
        let err = DiskGraph::open(&base, &stats).unwrap_err();
        assert!(matches!(err, crate::GraphError::Truncated { .. }), "{err}");
        // Without the manifest the structural header parse still
        // rejects it with a typed error.
        std::fs::remove_file(dg.mft_path()).unwrap();
        let err = DiskGraph::open(&base, &stats).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn write_commits_a_manifest_and_full_verify_passes() {
        let stats = IoStats::new();
        let g = sample();
        for codec in Codec::ALL {
            let base = tmpbase(&format!("mft-{}", codec.name()));
            let dg = DiskGraph::write_with(&g, &base, codec, &stats).unwrap();
            assert!(dg.mft_path().exists());
            let report = dg.verify_full().unwrap().expect("manifest present");
            assert_eq!(
                report.files,
                dg.file_set().len() - 1,
                "covers all data files"
            );
        }
    }

    #[test]
    fn pre_integrity_graph_without_manifest_still_opens() {
        let stats = IoStats::new();
        let g = sample();
        let base = tmpbase("legacy");
        let dg = DiskGraph::write(&g, &base, &stats).unwrap();
        std::fs::remove_file(dg.mft_path()).unwrap();
        let dg = DiskGraph::open(&base, &stats).unwrap();
        assert_eq!(dg.load_csr(&stats).unwrap(), g);
        assert!(
            dg.verify_full().unwrap().is_none(),
            "nothing to verify against"
        );
    }

    #[test]
    fn deep_bitflip_passes_open_but_fails_full_verify() {
        let stats = IoStats::new();
        // Big enough that .adj exceeds the quick-digest cutoff.
        let edges: Vec<(u32, u32)> = (0u32..1500).map(|i| (i, (i + 7) % 1500)).collect();
        let g = Graph::from_edges(1500, &edges).unwrap();
        let base = tmpbase("deepflip");
        let dg = DiskGraph::write(&g, &base, &stats).unwrap();
        assert!(
            std::fs::metadata(dg.adj_path()).unwrap().len() > crate::manifest::QUICK_DIGEST_MAX
        );
        let mut bytes = std::fs::read(dg.adj_path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(dg.adj_path(), &bytes).unwrap();
        // Length unchanged, file too big for the quick digest: open
        // succeeds — the full tier is what catches it.
        let dg = DiskGraph::open(&base, &stats).unwrap();
        let err = dg.verify_full().unwrap_err();
        assert!(matches!(err, crate::GraphError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn all_exts_agrees_with_manifest_data_exts() {
        assert_eq!(DiskGraph::ALL_EXTS[..6], crate::manifest::DATA_EXTS);
        assert_eq!(DiskGraph::ALL_EXTS[6], MFT_EXT);
    }
}
