//! The single-machine multicore runner.
//!
//! Wires the pipeline together for one machine with `P` logical
//! processors (the paper's Local Multicore configuration): parallel
//! orientation → load balancing → one MGT worker per core over its
//! contiguous range → atomic aggregation. Workers are long-lived
//! `std::thread`s, each owning its file handles, scratch arrays, I/O
//! counters and sink — per-worker state, not data-parallel iteration,
//! which is why [`run_workers`] spawns its own scoped threads rather
//! than mapping over [`par::map_chunks`](crate::par::map_chunks).

use std::path::{Path, PathBuf};
use std::time::Instant;

use pdtl_graph::{DiskGraph, Graph};
use pdtl_io::{IoStats, MemoryBudget};

use crate::balance::EdgeRange;
use crate::balance::{split_ranges, BalanceStrategy};
use crate::error::{CoreError, Result};
use crate::metrics::{RunReport, WorkerReport};
use crate::mgt::{mgt_count_range_opt, MgtOptions};
use crate::orient::{orient_to_disk_with, OrientedGraph};
use crate::sink::{CollectSink, CountSink, TriangleSink};

/// Configuration of a single-machine run.
#[derive(Debug, Clone)]
pub struct LocalConfig {
    /// Logical processors `P`.
    pub cores: usize,
    /// Memory budget per processor (the paper's `M`).
    pub budget: MemoryBudget,
    /// Range-splitting strategy.
    pub balance: BalanceStrategy,
    /// MGT engine knobs (scan pruning, overlapped I/O); defaults to
    /// everything on.
    pub mgt: MgtOptions,
}

impl Default for LocalConfig {
    fn default() -> Self {
        Self {
            cores: 4,
            budget: MemoryBudget::default(),
            balance: BalanceStrategy::InDegree,
            mgt: MgtOptions::default(),
        }
    }
}

/// Single-machine PDTL runner.
#[derive(Debug, Clone)]
pub struct LocalRunner {
    config: LocalConfig,
}

impl LocalRunner {
    /// Build a runner from `config`.
    pub fn new(config: LocalConfig) -> Result<Self> {
        if config.cores == 0 {
            return Err(CoreError::Config("cores must be >= 1".into()));
        }
        Ok(Self { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &LocalConfig {
        &self.config
    }

    /// Count all triangles of the undirected PDTL-format graph at
    /// `input`, using `work_dir` for the oriented copy.
    pub fn run(&self, input: &DiskGraph, work_dir: &Path) -> Result<RunReport> {
        self.run_with_sinks(input, work_dir, || CountSink)
            .map(|(report, _)| report)
    }

    /// Count and also *list* triangles: returns the report plus each
    /// worker's collected triples (cone vertex first).
    #[allow(clippy::type_complexity)]
    pub fn run_listing(
        &self,
        input: &DiskGraph,
        work_dir: &Path,
    ) -> Result<(RunReport, Vec<(u32, u32, u32)>)> {
        let (report, sinks) = self.run_with_sinks(input, work_dir, CollectSink::default)?;
        Ok((report, CollectSink::concat(sinks)))
    }

    /// Generic driver: one sink per worker, built by `make_sink`.
    pub fn run_with_sinks<S, F>(
        &self,
        input: &DiskGraph,
        work_dir: &Path,
        make_sink: F,
    ) -> Result<(RunReport, Vec<S>)>
    where
        S: TriangleSink + Send,
        F: Fn() -> S,
    {
        std::fs::create_dir_all(work_dir)
            .map_err(|e| pdtl_io::IoError::os("mkdir", work_dir, e))?;
        // Full-digest the input against its integrity manifest before
        // spending any compute on it: the quick tier inside
        // `DiskGraph::open` cannot see a bit flip deep in a large
        // `.adj`, and the invariant is that corruption is *detected*,
        // never counted. Pre-integrity inputs (no manifest) skip this.
        input.verify_full()?;
        let wall_start = Instant::now();
        let master_stats = IoStats::new();

        // Phase 1: multicore orientation (Figure 2).
        let oriented_base = work_dir.join("oriented");
        let (og, orientation) = orient_to_disk_with(
            input,
            &oriented_base,
            self.config.cores,
            self.config.mgt.codec,
            &master_stats,
        )?;

        let (mut report, sinks) = self.run_oriented_with_sinks(&og, make_sink)?;
        report.orientation = orientation;
        report.wall = wall_start.elapsed();
        Ok((report, sinks))
    }

    /// Phases 2–3 against an *already-oriented* graph: load balancing
    /// plus one MGT worker per core, skipping the orientation phase.
    ///
    /// This is the resident-process entry point (`pdtl serve` runs it
    /// once per query against a catalog graph oriented at registration):
    /// it holds no scratch state, touches only the oriented files
    /// read-only, and every failure returns as a typed error rather
    /// than tearing the process down. The returned report's
    /// `orientation` phase is zeroed — orientation was paid by whoever
    /// produced `og`.
    ///
    /// When `og` was reopened from disk (no recorded original degrees),
    /// an `InDegree` balance request degrades to `EqualEdges` rather
    /// than failing: the split is an optimization, not a correctness
    /// requirement.
    pub fn run_oriented_with_sinks<S, F>(
        &self,
        og: &OrientedGraph,
        make_sink: F,
    ) -> Result<(RunReport, Vec<S>)>
    where
        S: TriangleSink + Send,
        F: Fn() -> S,
    {
        let wall_start = Instant::now();

        // Phase 2: load balancing (Section IV-B1); the equal-edges
        // split reads no weights.
        let (weights, strategy) = match (self.config.balance, og.in_degrees()) {
            (BalanceStrategy::InDegree, Some(w)) => (w, BalanceStrategy::InDegree),
            _ => (Vec::new(), BalanceStrategy::EqualEdges),
        };
        let (ranges, balancing) = split_ranges(&og.offsets, &weights, self.config.cores, strategy);

        // Phase 3: one MGT worker per core.
        let (budget, mgt) = (self.config.budget, self.config.mgt);
        let jobs: Vec<_> = ranges.iter().map(|&r| (r, budget, mgt)).collect();
        let (workers, sinks) = run_workers(og, &jobs, make_sink)?;
        let triangles = workers.iter().map(|w| w.triangles).sum();

        Ok((
            RunReport {
                triangles,
                orientation: crate::metrics::PhaseReport::default(),
                balancing,
                workers,
                wall: wall_start.elapsed(),
            },
            sinks,
        ))
    }
}

/// The worker fan-out of every runner (local cores, a cluster node's
/// cores): one MGT worker per `(range, budget, options)` job over `og`,
/// each on its own scoped thread with its own [`IoStats`] and its own
/// `make_sink()` sink. Reports (numbered) and sinks come back in job
/// order; the first failed job's error is returned, a panicked
/// worker's as [`CoreError::WorkerPanic`], after every worker has been
/// joined.
pub fn run_workers<S, F>(
    og: &OrientedGraph,
    jobs: &[(EdgeRange, MemoryBudget, MgtOptions)],
    make_sink: F,
) -> Result<(Vec<WorkerReport>, Vec<S>)>
where
    S: TriangleSink + Send,
    F: Fn() -> S,
{
    let results: Vec<Result<(WorkerReport, S)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (jobs.iter().enumerate())
            .map(|(i, &(range, budget, opts))| {
                let mut sink = make_sink();
                scope.spawn(move || {
                    let stats = IoStats::new();
                    let mut report =
                        mgt_count_range_opt(og, range, budget, &mut sink, stats, opts)?;
                    report.worker = i;
                    Ok((report, sink))
                })
            })
            .collect();
        let joined = handles.into_iter().enumerate().map(|(i, h)| {
            h.join()
                .unwrap_or_else(|_| Err(CoreError::WorkerPanic(format!("worker {i}"))))
        });
        joined.collect()
    });
    results.into_iter().collect()
}

/// Convenience: count the triangles of an in-memory [`Graph`] with the
/// full PDTL disk pipeline in a temporary directory.
pub fn count_triangles(g: &Graph) -> Result<RunReport> {
    count_triangles_with(g, LocalConfig::default())
}

/// A scratch directory that removes itself on drop, so every exit path
/// — including the `?` returns between creation and success — cleans up
/// the scratch space. Long-lived processes (the CLI loop, `pdtl serve`)
/// lean on this so a *failed* run never accumulates temp state.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `path` (and parents) and adopt it: the directory is
    /// removed when the guard drops.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        std::fs::create_dir_all(&path).map_err(|e| pdtl_io::IoError::os("mkdir", &path, e))?;
        Ok(Self(path))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// [`count_triangles`] with an explicit configuration.
///
/// The one-call entry point to the full disk pipeline: write the graph
/// in PDTL binary format, orient it into rank space, split the oriented
/// adjacency across `cores` workers, run the MGT engine per range
/// through the configured [I/O backend](pdtl_io::IoBackend), and
/// aggregate the per-worker reports. Scratch files live in a temporary
/// directory that is removed on every exit path.
///
/// ```
/// use pdtl_core::{count_triangles_with, LocalConfig, MgtOptions};
/// use pdtl_graph::gen::classic::complete;
/// use pdtl_io::{IoBackend, MemoryBudget};
///
/// let g = complete(20).unwrap();
/// let report = count_triangles_with(
///     &g,
///     LocalConfig {
///         cores: 2,
///         budget: MemoryBudget::edges(64), // far below |E*|: multi-pass
///         mgt: MgtOptions {
///             backend: IoBackend::Uring, // degrades to prefetch if absent
///             ..MgtOptions::default()
///         },
///         ..LocalConfig::default()
///     },
/// )
/// .unwrap();
/// assert_eq!(report.triangles, 1140); // C(20, 3)
/// assert_eq!(report.workers.len(), 2);
/// ```
pub fn count_triangles_with(g: &Graph, config: LocalConfig) -> Result<RunReport> {
    static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let id = UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir: PathBuf = std::env::temp_dir().join(format!("pdtl-count-{}-{id}", std::process::id()));
    let scratch = ScratchDir::create(&dir)?;
    let stats = IoStats::new();
    let input = DiskGraph::write(g, scratch.path().join("input"), &stats)?;
    let report = LocalRunner::new(config)?.run(&input, scratch.path())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdtl_graph::gen::classic::{complete, wheel};
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("pdtl-runner-tests")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn counts_match_oracle_across_cores() {
        let g = rmat(8, 21).unwrap();
        let expected = triangle_count(&g);
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, tmpdir("cores").join("g"), &stats).unwrap();
        for cores in [1usize, 2, 3, 8] {
            let runner = LocalRunner::new(LocalConfig {
                cores,
                budget: MemoryBudget::edges(2048),
                balance: BalanceStrategy::InDegree,
                ..Default::default()
            })
            .unwrap();
            let report = runner
                .run(&input, &tmpdir(&format!("cores-{cores}")))
                .unwrap();
            assert_eq!(report.triangles, expected, "cores {cores}");
            assert_eq!(report.workers.len(), cores);
        }
    }

    #[test]
    fn both_balance_strategies_agree() {
        let g = rmat(8, 22).unwrap();
        let expected = triangle_count(&g);
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, tmpdir("bal").join("g"), &stats).unwrap();
        for strategy in [BalanceStrategy::EqualEdges, BalanceStrategy::InDegree] {
            let runner = LocalRunner::new(LocalConfig {
                cores: 4,
                budget: MemoryBudget::edges(1024),
                balance: strategy,
                ..Default::default()
            })
            .unwrap();
            let report = runner
                .run(&input, &tmpdir(&format!("bal-{strategy:?}")))
                .unwrap();
            assert_eq!(report.triangles, expected, "{strategy:?}");
        }
    }

    #[test]
    fn listing_collects_all_triangles() {
        let g = wheel(20).unwrap();
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, tmpdir("list").join("g"), &stats).unwrap();
        let runner = LocalRunner::new(LocalConfig {
            cores: 3,
            budget: MemoryBudget::edges(16),
            balance: BalanceStrategy::InDegree,
            ..Default::default()
        })
        .unwrap();
        let (report, triangles) = runner.run_listing(&input, &tmpdir("list-run")).unwrap();
        assert_eq!(report.triangles, 19);
        assert_eq!(triangles.len(), 19);
        let mut canon: Vec<_> = triangles
            .iter()
            .map(|&(a, b, c)| {
                let mut t = [a, b, c];
                t.sort_unstable();
                (t[0], t[1], t[2])
            })
            .collect();
        canon.sort_unstable();
        canon.dedup();
        assert_eq!(canon.len(), 19, "no duplicates across workers");
    }

    #[test]
    fn run_oriented_matches_full_pipeline() {
        // The resident-process entry: orienting once and running
        // `run_oriented_with_sinks` repeatedly yields the same count as
        // the one-shot path, including on a *reopened* graph whose
        // original degrees are gone (InDegree degrades to EqualEdges).
        let g = rmat(8, 24).unwrap();
        let expected = triangle_count(&g);
        let dir = tmpdir("oriented-entry");
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let (og, _) =
            orient_to_disk_with(&input, dir.join("oriented"), 2, Default::default(), &stats)
                .unwrap();
        let runner = LocalRunner::new(LocalConfig {
            cores: 3,
            budget: MemoryBudget::edges(512),
            ..Default::default()
        })
        .unwrap();
        for _ in 0..3 {
            let (report, _) = runner.run_oriented_with_sinks(&og, || CountSink).unwrap();
            assert_eq!(report.triangles, expected);
            assert_eq!(report.workers.len(), 3);
        }
        // Reopen from disk: orig_degrees is None, the split degrades.
        let reopened = crate::orient::OrientedGraph::open(og.disk.base(), &stats).unwrap();
        assert!(reopened.in_degrees().is_none());
        let (report, _) = runner
            .run_oriented_with_sinks(&reopened, || CountSink)
            .unwrap();
        assert_eq!(report.triangles, expected);
    }

    #[test]
    fn varint_run_totals_the_decoded_dimension() {
        // `total_worker_io` used to sum every field but `u32s_decoded`.
        let g = rmat(8, 25).unwrap();
        let dir = tmpdir("decoded-total");
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let runner = LocalRunner::new(LocalConfig {
            cores: 3,
            budget: MemoryBudget::edges(256),
            mgt: MgtOptions {
                codec: pdtl_io::Codec::DeltaVarint,
                ..MgtOptions::default()
            },
            ..Default::default()
        })
        .unwrap();
        let report = runner.run(&input, &dir).unwrap();
        assert_eq!(report.triangles, triangle_count(&g));
        let per_worker: u64 = report.workers.iter().map(|w| w.io.u32s_decoded).sum();
        assert!(report.workers.iter().all(|w| w.io.u32s_decoded > 0));
        assert_eq!(report.total_worker_io().u32s_decoded, per_worker);
        assert!(per_worker >= report.workers.iter().map(|w| w.range.len()).sum::<u64>());
    }

    #[test]
    fn rerun_on_one_work_dir_with_the_codec_flipped() {
        // The oriented base is rewritten in place; what the previous
        // codec left there must not leak into the next run.
        let g = rmat(8, 26).unwrap();
        let dir = tmpdir("codec-flip");
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        use pdtl_io::Codec::{DeltaVarint, Raw};
        for codec in [Raw, DeltaVarint, Raw, DeltaVarint] {
            let runner = LocalRunner::new(LocalConfig {
                cores: 2,
                budget: MemoryBudget::edges(256),
                mgt: MgtOptions {
                    codec,
                    ..MgtOptions::default()
                },
                ..Default::default()
            })
            .unwrap();
            let report = runner.run(&input, &dir).unwrap();
            assert_eq!(report.triangles, triangle_count(&g), "{codec:?}");
            let oriented = DiskGraph::open(dir.join("oriented"), &stats).unwrap();
            assert_eq!(oriented.codec(), codec);
            oriented.verify_full().unwrap();
        }
    }

    #[test]
    fn scratch_dir_removes_itself_on_drop() {
        let dir = std::env::temp_dir().join(format!("pdtl-scratch-test-{}", std::process::id()));
        {
            let s = ScratchDir::create(&dir).unwrap();
            std::fs::write(s.path().join("junk"), b"x").unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "guard must remove the directory");
    }

    #[test]
    fn zero_cores_rejected() {
        let cfg = LocalConfig {
            cores: 0,
            ..Default::default()
        };
        assert!(LocalRunner::new(cfg).is_err());
    }

    #[test]
    fn count_triangles_cleans_scratch_dir_on_error() {
        // Regression: the scratch directory used to leak on every
        // error path (cleanup only ran after a successful run).
        let scratch_dirs = || -> std::collections::HashSet<String> {
            std::fs::read_dir(std::env::temp_dir())
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with(&format!("pdtl-count-{}-", std::process::id())))
                .collect()
        };
        let before = scratch_dirs();
        let g = complete(6).unwrap();
        let err = count_triangles_with(
            &g,
            LocalConfig {
                cores: 0, // rejected by LocalRunner::new, after the dir exists
                ..Default::default()
            },
        );
        assert!(err.is_err());
        // Sibling tests in this binary create and remove their own
        // pdtl-count-* dirs concurrently, so poll set-difference: a
        // transient sibling dir disappears when its run finishes, a
        // dir leaked by our failed run persists forever.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let leaked: Vec<String> = scratch_dirs().difference(&before).cloned().collect();
            if leaked.is_empty() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "failed runs must remove their scratch directory; leaked: {leaked:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }

    #[test]
    fn count_triangles_convenience() {
        let g = complete(12).unwrap();
        let report = count_triangles(&g).unwrap();
        assert_eq!(report.triangles, 220);
        assert!(report.wall > std::time::Duration::ZERO);
    }

    #[test]
    fn report_workers_cover_all_positions() {
        let g = rmat(7, 23).unwrap();
        let report = count_triangles_with(
            &g,
            LocalConfig {
                cores: 5,
                budget: MemoryBudget::edges(256),
                balance: BalanceStrategy::InDegree,
                ..Default::default()
            },
        )
        .unwrap();
        let covered: u64 = report.workers.iter().map(|w| w.range.len()).sum();
        assert_eq!(covered, g.num_edges(), "|E*| positions covered exactly");
    }
}
