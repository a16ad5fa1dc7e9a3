//! An OPT-like disk-based multicore counter (Kim et al., SIGMOD'14).
//!
//! OPT's signature in the paper's evaluation:
//!
//! * a *slow* preprocessing step ("database creation" — Table II shows it
//!   12×–75× slower than PDTL's orientation) that relabels vertices by
//!   degree and rewrites the graph in multiple passes;
//! * a *fast* multicore calculation phase, competitive with PDTL when
//!   the graph fits in memory, but paying random I/O when it does not —
//!   which is why OPT loses on the largest graphs (Figure 12, Table V).
//!
//! This reimplementation reproduces exactly those properties:
//! [`create_database`] performs the degree-rank relabeling with three
//! full passes over the edge set (scan → external sort → rewrite), and
//! [`count`] runs compact-forward either fully in memory or, when the
//! budget is too small, in cone-vertex batches with per-list random
//! reads from disk.

use std::path::Path;
use std::sync::Arc;

use pdtl_core::intersect::intersect_count;
use pdtl_core::orient::orient_csr;
use pdtl_core::par;
use pdtl_graph::disk::offsets_from_degrees;
use pdtl_graph::{DiskGraph, Graph};
use pdtl_io::{external_sort_u64, IoStats, MemoryBudget, TimeBreakdown, U32Reader, U32Source};

use crate::error::Result;

/// The OPT-like on-disk database: a degree-relabeled oriented graph.
#[derive(Debug, Clone)]
pub struct OptDatabase {
    /// The oriented, relabeled graph on disk.
    pub disk: DiskGraph,
    /// Oriented offsets of the relabeled graph.
    pub offsets: Vec<u64>,
    /// Time spent creating the database.
    pub creation: TimeBreakdown,
    /// Bytes of I/O the creation performed.
    pub creation_bytes: u64,
}

/// Build the OPT database from an undirected PDTL-format graph: relabel
/// vertices by ascending degree (OPT "requires that the input be sorted
/// by vertex degree"), orient, and write — with the multi-pass I/O
/// profile of a real database build.
pub fn create_database(
    input: &DiskGraph,
    out_base: &Path,
    stats: &Arc<IoStats>,
) -> Result<OptDatabase> {
    let timer = pdtl_io::CpuIoTimer::start(stats.clone());
    let before = stats.total_bytes();

    // Pass 1: scan degrees, compute the degree-rank permutation.
    let degrees = input.load_degrees(stats)?;
    let n = degrees.len() as u32;
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by_key(|&v| (degrees[v as usize], v));
    let mut rank = vec![0u32; n as usize];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }

    // Pass 2: rewrite every edge under the new labels into a packed
    // file, then externally sort it (two more passes over the data —
    // the expensive part of database creation).
    let offsets = offsets_from_degrees(&degrees);
    let mut reader = input.open_adj(stats)?;
    let packed_path = out_base.with_extension("packed");
    {
        let mut packed: Vec<u64> = Vec::with_capacity(*offsets.last().unwrap() as usize);
        let mut nbuf = Vec::new();
        for u in 0..n {
            let du = (offsets[u as usize + 1] - offsets[u as usize]) as usize;
            nbuf.clear();
            reader.read_into(&mut nbuf, du)?;
            let ru = rank[u as usize] as u64;
            for &v in &nbuf {
                packed.push((ru << 32) | rank[v as usize] as u64);
            }
        }
        pdtl_io::extsort::write_u64_records(&packed_path, &packed, stats)?;
    }
    let sorted_path = out_base.with_extension("sorted");
    external_sort_u64(&packed_path, &sorted_path, 1 << 20, stats)?;

    // Pass 3: materialise the relabeled graph, then orient it.
    let relabeled_base = out_base.with_extension("relabel");
    let relabeled =
        pdtl_graph::disk::from_sorted_packed_edges(&sorted_path, n, &relabeled_base, stats)?;
    let g = relabeled.load_csr(stats)?;
    let oriented = orient_csr(&g);
    let mut deg_out = Vec::with_capacity(n as usize);
    for v in 0..n {
        deg_out.push(oriented.d_star(v));
    }
    let disk = {
        // write oriented graph as the database
        let og = Graph::from_parts(oriented.offsets.clone(), oriented.adj.clone())?;
        // from_parts only checks lengths; the oriented structure is
        // directed, which DiskGraph stores verbatim.
        DiskGraph::write(&og, out_base, stats)?
    };
    for p in [packed_path, sorted_path] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_file(relabeled.deg_path());
    let _ = std::fs::remove_file(relabeled.adj_path());

    Ok(OptDatabase {
        disk,
        offsets: oriented.offsets,
        creation: timer.finish(),
        creation_bytes: stats.total_bytes() - before,
    })
}

/// Result of an OPT-like counting run.
#[derive(Debug, Clone, Copy)]
pub struct OptReport {
    /// Exact triangle count.
    pub triangles: u64,
    /// Calculation time breakdown.
    pub calc: TimeBreakdown,
    /// Bytes of I/O during calculation.
    pub calc_bytes: u64,
    /// True when the whole database fit in the memory budget.
    pub in_memory: bool,
}

/// Count triangles from the database with `threads` cores under
/// `budget` bytes of memory.
pub fn count(
    db: &OptDatabase,
    threads: usize,
    budget: MemoryBudget,
    stats: &Arc<IoStats>,
) -> Result<OptReport> {
    let timer = pdtl_io::CpuIoTimer::start(stats.clone());
    let before = stats.total_bytes();
    let m_star = *db.offsets.last().unwrap();
    let fits = (m_star as usize) <= budget.edges;

    let triangles = if fits {
        // Whole oriented graph in memory: parallel compact-forward.
        let (offsets, adj) = db.disk.load_parts(stats)?;
        let out = |u: u32| &adj[offsets[u as usize] as usize..offsets[u as usize + 1] as usize];
        let at = |u: usize| -> u64 {
            let out_u = out(u as u32);
            out_u.iter().map(|&v| intersect_count(out_u, out(v))).sum()
        };
        par::map_chunks(offsets.len() - 1, threads, |us| us.map(at).sum::<u64>())
            .into_iter()
            .sum()
    } else {
        // Out-of-core: batches of cone vertices; each pivot list fetched
        // with a positioned read — OPT's random-I/O penalty.
        out_of_core_count(db, budget, stats)?
    };

    Ok(OptReport {
        triangles,
        calc: timer.finish(),
        calc_bytes: stats.total_bytes() - before,
        in_memory: fits,
    })
}

fn out_of_core_count(db: &OptDatabase, budget: MemoryBudget, stats: &Arc<IoStats>) -> Result<u64> {
    let offsets = &db.offsets;
    let n = (offsets.len() - 1) as u32;
    let batch_edges = budget.chunk_edges().max(1) as u64;
    let mut seq = U32Reader::open(db.disk.adj_path(), stats.clone())?;
    let mut rand = U32Reader::open(db.disk.adj_path(), stats.clone())?;
    let mut triangles = 0u64;
    let mut nu: Vec<u32> = Vec::new();
    let mut nv: Vec<u32> = Vec::new();
    let mut u = 0u32;
    while u < n {
        // batch of cone vertices whose lists fit in the budget
        let start_off = offsets[u as usize];
        let mut end = u;
        while end < n && offsets[end as usize + 1] - start_off <= batch_edges {
            end += 1;
        }
        let end = end.max(u + 1);
        for cone in u..end {
            let du = (offsets[cone as usize + 1] - offsets[cone as usize]) as usize;
            nu.clear();
            seq.read_into(&mut nu, du)?;
            for &v in nu.iter() {
                let dv = (offsets[v as usize + 1] - offsets[v as usize]) as usize;
                if dv == 0 {
                    continue;
                }
                nv.clear();
                rand.seek_to(offsets[v as usize])?;
                rand.read_into(&mut nv, dv)?;
                triangles += intersect_count(&nu, &nv);
            }
        }
        u = end;
    }
    Ok(triangles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdtl_graph::gen::classic::complete;
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;
    use std::path::PathBuf;

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-opt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn build_db(tag: &str, g: &Graph) -> (OptDatabase, Arc<IoStats>) {
        let stats = IoStats::new();
        let input = DiskGraph::write(g, tmpbase(&format!("{tag}-in")), &stats).unwrap();
        let db = create_database(&input, &tmpbase(&format!("{tag}-db")), &stats).unwrap();
        (db, stats)
    }

    #[test]
    fn in_memory_count_matches_oracle() {
        let g = rmat(7, 71).unwrap();
        let expected = triangle_count(&g);
        let (db, stats) = build_db("mem", &g);
        let r = count(&db, 2, MemoryBudget::edges(1 << 22), &stats).unwrap();
        assert!(r.in_memory);
        assert_eq!(r.triangles, expected);
    }

    #[test]
    fn out_of_core_count_matches_oracle() {
        let g = rmat(7, 72).unwrap();
        let expected = triangle_count(&g);
        let (db, stats) = build_db("ooc", &g);
        let r = count(&db, 2, MemoryBudget::edges(64), &stats).unwrap();
        assert!(!r.in_memory);
        assert_eq!(r.triangles, expected);
    }

    #[test]
    fn out_of_core_pays_more_io() {
        let g = rmat(7, 73).unwrap();
        let (db, stats) = build_db("ioprofile", &g);
        let in_mem = count(&db, 1, MemoryBudget::edges(1 << 22), &stats).unwrap();
        let out_core = count(&db, 1, MemoryBudget::edges(64), &stats).unwrap();
        assert!(
            out_core.calc_bytes > 2 * in_mem.calc_bytes,
            "random I/O penalty: {} vs {}",
            out_core.calc_bytes,
            in_mem.calc_bytes
        );
    }

    #[test]
    fn database_creation_is_heavier_than_orientation() {
        // OPT's db creation moves several times the bytes of PDTL's
        // one-pass orientation (Table II's shape).
        let g = rmat(7, 74).unwrap();
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, tmpbase("heavy-in"), &stats).unwrap();
        stats.reset();
        let db = create_database(&input, &tmpbase("heavy-db"), &stats).unwrap();

        let ostats = IoStats::new();
        let input2 = DiskGraph::open(tmpbase("heavy-in"), &ostats).unwrap();
        pdtl_core::orient::orient_to_disk(&input2, tmpbase("heavy-orient"), 1, &ostats).unwrap();
        assert!(
            db.creation_bytes > 2 * ostats.total_bytes(),
            "db creation {} should dwarf orientation {}",
            db.creation_bytes,
            ostats.total_bytes()
        );
    }

    #[test]
    fn relabeling_preserves_triangles() {
        let g = complete(8).unwrap();
        let (db, stats) = build_db("relabel", &g);
        let r = count(&db, 1, MemoryBudget::edges(1 << 20), &stats).unwrap();
        assert_eq!(r.triangles, 56); // C(8,3)
    }
}
