//! The single-machine multicore runner.
//!
//! Wires the pipeline together for one machine with `P` logical
//! processors (the paper's Local Multicore configuration): parallel
//! orientation → load balancing → MGT workers over contiguous ranges →
//! aggregation.
//!
//! A multi-core run plans [`RANGES_PER_CORE`] ranges per core, and its
//! `P` cores claim them from one cursor, the highest range first
//! ([`run_workers`]): the hub pivots of the degree order sit in the
//! highest ranges, so the heaviest ranges start first and the light
//! ones fill the tail, and a core that drew light ranges takes more.
//! The planner does not cost what a listing pays per triangle emitted,
//! so a fixed split leaves the core holding the hubs to finish last;
//! claims even the finish whatever the sink costs. A one-core run plans
//! one range. Each core emits every range it claims into its one sink,
//! and a listing is put together in range order afterwards
//! ([`crate::sink`]), so it is the same whichever core ran which range.
//!
//! Where `G*` lives is the runner's one decision, made from numbers it
//! already holds: when `|E*| = adj_len / 2 ≤ P · c·M`, the chunks its
//! cores may hold cover all of `G*`, so streaming it back from disk
//! would only read what orientation just held. Such a run is
//! **resident**: orientation stores `G*` into the one array of an
//! [`OrientedCsr`](crate::orient::OrientedCsr) (`orient_resident`). Any
//! other run writes `G*` under `work_dir/oriented` and streams it, as
//! the paper does. Either way phases 2–3 are one function over the
//! borrowed view of `G*` (`run_view`): the one planner, which reads a
//! resident array as raw words, and the one worker (`mgt_range`), lent
//! chunks and out-lists from an array instead of reading them. Both
//! count and list the same at one budget; [`RunReport::oriented_base`]
//! says which ran. No option chooses, and the cluster and serve paths,
//! which ship or keep `G*` as files, always write it. Cores are
//! long-lived `std::thread`s, each owning its sink and, per range, its
//! file handles, scratch arrays and I/O counters — per-core state, not
//! data-parallel iteration, which is why [`run_workers`] spawns its own
//! scoped threads rather than mapping over
//! [`par::map_chunks`](crate::par::map_chunks). A one-core run uses the
//! calling thread.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pdtl_graph::{DiskGraph, Graph};
use pdtl_io::{IoError, IoStats, MemoryBudget};

use crate::balance::{plan_view, BalanceStrategy, EdgeRange};
use crate::error::{CoreError, Result};
use crate::metrics::{PhaseReport, RunReport, WorkerReport};
use crate::mgt::{mgt_range, MgtOptions};
use crate::orient::{orient_resident, orient_to_disk_with, OrientedGraph, View};
use crate::sink::{range_parts, CollectSink, CoreSink, CountSink, FileSink, TriangleSink};

/// Most worker threads one run may start: [`run_workers`] starts one
/// OS thread per core, so an unbounded count would exhaust the
/// process's threads and abort it. Every runner and the serve daemon
/// refuse a count above it with a typed error.
pub const MAX_CORES: u32 = 64;

/// Ranges a multi-core [`LocalRunner`] plans per core (module doc).
/// More ranges even the cores' finish, and each costs at least one more
/// chunk iteration and its scan, which
/// [`predicted_cost`](crate::predicted_cost) states exactly. Measured on
/// RMAT-15 listed on 2 cores, 2 to 8 a core read the same calculation
/// time within the host's noise, all well below a fixed split's; past 2
/// the extra scans show in the counted work: on `exp`'s RMAT-9 (Fig. 9)
/// the in-degree plan at 3 or 4 a core leaves a larger claimed
/// struggler than equal edges does, at 2 a smaller one.
pub const RANGES_PER_CORE: usize = 2;

/// The ranges a run on `cores` cores plans: one for one core, which has
/// no other core to even out with.
fn planned_ranges(cores: usize) -> usize {
    if cores == 1 {
        1
    } else {
        cores * RANGES_PER_CORE
    }
}

/// Configuration of a single-machine run.
#[derive(Debug, Clone)]
pub struct LocalConfig {
    /// Logical processors `P`, at most [`MAX_CORES`].
    pub cores: usize,
    /// Memory budget per processor (the paper's `M`).
    pub budget: MemoryBudget,
    /// Range-splitting strategy.
    pub balance: BalanceStrategy,
    /// MGT engine knobs (I/O backend, codec, fault injection).
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
        if !(1..=MAX_CORES as usize).contains(&config.cores) {
            return Err(CoreError::Config(format!(
                "cores must be in 1..={MAX_CORES}, got {}",
                config.cores
            )));
        }
        // A zero budget would run as 1-edge chunks: |E*| iterations.
        if config.budget.edges == 0 {
            return Err(CoreError::Config("memory budget must be >= 1 edge".into()));
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

    /// Count and also *list* triangles: returns the report plus the
    /// triples (cone vertex first) in range order.
    #[allow(clippy::type_complexity)]
    pub fn run_listing(
        &self,
        input: &DiskGraph,
        work_dir: &Path,
    ) -> Result<(RunReport, Vec<(u32, u32, u32)>)> {
        let (report, sinks) = self.run_with_sinks(input, work_dir, CollectSink::default)?;
        Ok((report, CollectSink::concat(sinks)))
    }

    /// List every triangle of `input` into the file at `out`, 3 × `u32`
    /// little-endian per triangle, cone vertex first — the one
    /// file-listing entry point (`pdtl list`). Each core streams the
    /// ranges it claims through its own [`FileSink`] on a part file in
    /// `work_dir`, and the ranges' segments are copied from the parts
    /// into `out` in range order, so the bytes are
    /// [`run_listing`](Self::run_listing)'s triples written through one
    /// sink, while a core holds one writer buffer instead of its
    /// triples. The parts are flushed, not synced: they are read back
    /// and deleted here, and `out` is synced once. `out` is created only
    /// once every core has finished. Returns the report and the
    /// triangles written.
    pub fn run_listing_to_file(
        &self,
        input: &DiskGraph,
        work_dir: &Path,
        out: &Path,
    ) -> Result<(RunReport, u64)> {
        std::fs::create_dir_all(work_dir).map_err(|e| IoError::os("mkdir", work_dir, e))?;
        let stats = IoStats::new();
        let parts: Vec<PathBuf> = (0..self.config.cores)
            .map(|i| work_dir.join(format!("part-{i}")))
            .collect();
        let mut unclaimed = (parts.iter())
            .map(|part| FileSink::create(part, stats.clone()))
            .collect::<pdtl_io::Result<Vec<_>>>()?
            .into_iter();
        let (report, sinks) = self.run_with_sinks(input, work_dir, || {
            unclaimed
                .next()
                .expect("the fan-out makes one sink per core")
        })?;
        let segments = range_parts(&sinks, |t| 12 * t);
        let mut written = 0;
        for core in sinks {
            written += core.sink.close()?;
        }
        let mut from = (parts.iter())
            .map(|part| File::open(part).map_err(|e| IoError::os("open", part, e)))
            .collect::<pdtl_io::Result<Vec<_>>>()?;
        let mut file = File::create(out).map_err(|e| IoError::os("create", out, e))?;
        for (core, at, len) in segments {
            let (part, from) = (&parts[core], &mut from[core]);
            from.seek(SeekFrom::Start(at))
                .map_err(|e| IoError::os("seek", part, e))?;
            let copied = std::io::copy(&mut from.take(len), &mut file)
                .map_err(|e| IoError::os("append", out, e))?;
            if copied != len {
                let short = format!("part ends {copied} bytes into a {len}-byte segment");
                return Err(IoError::malformed(part, short).into());
            }
        }
        for part in &parts {
            std::fs::remove_file(part).map_err(|e| IoError::os("remove", part, e))?;
        }
        file.sync_all().map_err(|e| IoError::os("sync", out, e))?;
        Ok((report, written))
    }

    /// Generic driver: one sink per core, built by `make_sink` in core
    /// order, handed back with the ranges the core ran into it.
    ///
    /// Where `G*` lives is decided here, from numbers the runner holds:
    /// when the chunks its workers may hold cover all of it, `|E*| ≤
    /// P·c·M`, the run orients into memory and joins in place (module
    /// doc); otherwise it writes `G*` under `work_dir/oriented` and
    /// streams it. The report's `oriented_base` says which.
    pub fn run_with_sinks<S, F>(
        &self,
        input: &DiskGraph,
        work_dir: &Path,
        make_sink: F,
    ) -> Result<(RunReport, Vec<CoreSink<S>>)>
    where
        S: TriangleSink + Send,
        F: FnMut() -> S,
    {
        self.run_stored(input, work_dir, self.store_for(input), make_sink)
    }

    /// Where a run over `input` keeps `G*`: in memory exactly when
    /// `|E*| = |E|` fits in the chunks of its cores, `cores · c·M`.
    fn store_for(&self, input: &DiskGraph) -> Store {
        let m_star = input.adj_len() / 2;
        let chunk = self.config.budget.chunk_edges() as u64;
        let chunks = chunk.saturating_mul(self.config.cores as u64);
        if m_star <= chunks {
            Store::Resident
        } else {
            Store::Disk
        }
    }

    /// [`run_with_sinks`](Self::run_with_sinks) with `G*` kept in
    /// `store` whatever the budget: the tests' way to run one graph,
    /// plan and budget both ways.
    pub(crate) fn run_stored<S, F>(
        &self,
        input: &DiskGraph,
        work_dir: &Path,
        store: Store,
        make_sink: F,
    ) -> Result<(RunReport, Vec<CoreSink<S>>)>
    where
        S: TriangleSink + Send,
        F: FnMut() -> S,
    {
        std::fs::create_dir_all(work_dir).map_err(|e| IoError::os("mkdir", work_dir, e))?;
        // Full-digest the input against its integrity manifest before
        // spending any compute on it: the quick tier inside
        // `DiskGraph::open` cannot see a bit flip deep in a large
        // `.adj`, and the invariant is that corruption is *detected*,
        // never counted. Pre-integrity inputs (no manifest) skip this.
        input.verify_full()?;
        let wall_start = Instant::now();
        let master_stats = IoStats::new();
        let cores = self.config.cores;

        // Phase 1: multicore orientation (Figure 2), into memory or to
        // disk; phases 2–3 on what it produced.
        let (orientation, (mut report, sinks)) = match store {
            Store::Resident => {
                let (o, (buckets, sketch), orientation) =
                    orient_resident(input, cores, &master_stats)?;
                (
                    orientation,
                    self.run_view(o.view(&buckets, &sketch), make_sink)?,
                )
            }
            Store::Disk => {
                let base = work_dir.join("oriented");
                let codec = self.config.mgt.codec;
                let (og, orientation) =
                    orient_to_disk_with(input, &base, cores, codec, &master_stats)?;
                (orientation, self.run_view(og.view(), make_sink)?)
            }
        };
        report.orientation = orientation;
        report.wall = wall_start.elapsed();
        Ok((report, sinks))
    }

    /// Phases 2–3 against an *already-oriented* graph: load balancing
    /// plus the cores' claimed MGT ranges, skipping the orientation
    /// phase.
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
    /// the planner balances without its probe term rather than failing:
    /// the split is an optimization, not a correctness requirement.
    pub fn run_oriented_with_sinks<S, F>(
        &self,
        og: &OrientedGraph,
        make_sink: F,
    ) -> Result<(RunReport, Vec<CoreSink<S>>)>
    where
        S: TriangleSink + Send,
        F: FnMut() -> S,
    {
        self.run_view(og.view(), make_sink)
    }

    /// Phases 2–3 over `g`, wherever its adjacency lives: the planner
    /// (Section IV-B1) plans the run's ranges, and its cores claim them
    /// and run [`mgt_range`] on each.
    fn run_view<S, F>(&self, g: View<'_>, make_sink: F) -> Result<(RunReport, Vec<CoreSink<S>>)>
    where
        S: TriangleSink + Send,
        F: FnMut() -> S,
    {
        let wall_start = Instant::now();
        let (budget, cores, balance) = (self.config.budget, self.config.cores, self.config.balance);
        let (plan, balancing) = plan_view(g, budget, planned_ranges(cores), balance);
        let jobs: Vec<Job> = (plan.iter())
            .map(|&(range, _)| (range, budget, self.config.mgt))
            .collect();
        let fan = fan_out(&jobs, cores, make_sink, worker(g))?;
        let report = RunReport {
            triangles: fan.ranges.iter().map(|r| r.triangles).sum(),
            orientation: PhaseReport::default(),
            balancing,
            plan,
            ranges: fan.ranges,
            workers: fan.cores,
            wall: wall_start.elapsed(),
            oriented_base: g.base().map(Path::to_path_buf),
        };
        Ok((report, fan.sinks))
    }
}

/// Where a run keeps `G*` (module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Store {
    /// Oriented into memory; the workers join over the array.
    Resident,
    /// Written under `work_dir/oriented` and streamed back.
    Disk,
}

/// One MGT worker's job: its range, budget and engine options.
type Job = (EdgeRange, MemoryBudget, MgtOptions);

/// What a fan-out hands back.
#[derive(Debug)]
pub struct FanOut<S> {
    /// One report per job, in job order; its `worker` is the core that
    /// claimed it.
    pub ranges: Vec<WorkerReport>,
    /// One report per core, in core order: the sum of the jobs it
    /// claimed, its wall from its first claim to its last job's end; a
    /// zero report for a core that claimed none.
    pub cores: Vec<WorkerReport>,
    /// Each core's sink with the jobs it ran into it, in core order.
    pub sinks: Vec<CoreSink<S>>,
}

/// The worker fan-out of a cluster node: the master plans one range per
/// node core, so one core per `(range, budget, options)` job, claiming
/// them as [`LocalRunner`]'s cores do, each range with its own
/// [`IoStats`], each core with one `make_sink()` sink, made in core
/// order. The first failed job's error is returned, a panicked core's
/// as [`CoreError::WorkerPanic`], after every core has finished.
pub fn run_workers<S, F>(
    og: &OrientedGraph,
    jobs: &[(EdgeRange, MemoryBudget, MgtOptions)],
    make_sink: F,
) -> Result<FanOut<S>>
where
    S: TriangleSink + Send,
    F: FnMut() -> S,
{
    fan_out(jobs, jobs.len(), make_sink, worker(og.view()))
}

/// The one MGT worker over `g` as [`fan_out`] runs it: each job's range
/// with its own [`IoStats`].
fn worker<S: TriangleSink>(
    g: View<'_>,
) -> impl Fn(Job, &mut S) -> Result<WorkerReport> + Sync + '_ {
    move |(range, budget, opts), sink| mgt_range(g, range, budget, sink, IoStats::new(), opts)
}

/// Take the next job from `cursor`, which counts down: the highest job
/// first, `None` once every job is taken. `Relaxed` is enough: the
/// cursor publishes no data (the jobs were in place before any core
/// started), and each value is still taken exactly once.
fn claim(cursor: &AtomicUsize) -> Option<usize> {
    let taken = cursor.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
    taken.ok().map(|n| n - 1)
}

/// What the fan-out's greedy claims give each of `cores` cores when the
/// jobs, in job order, take `costs` to run: the highest job first, each
/// to the core that is free first (the lowest one on a tie). `exp`
/// replays a run's per-range `cpu_ops` through it, so its counted
/// speedup does not depend on which core the host's timing let claim
/// which range.
pub fn replay_claims(costs: &[u64], cores: usize) -> Vec<u64> {
    let mut load = vec![0u64; cores.max(1)];
    for &cost in costs.iter().rev() {
        let free = (0..load.len()).min_by_key(|&c| load[c]).unwrap_or(0);
        load[free] += cost;
    }
    load
}

/// Run `worker` once per job on `cores` cores that claim the jobs from
/// one cursor, the highest first (module doc); each core runs every job
/// it claims into its one sink from `make_sink`, made in core order. A
/// core that fails stops the claims: the cores finish the jobs they
/// hold and the first core's error returns. Several cores run on scoped
/// threads of their own; a single core (a one-core query, a one-core
/// cluster node) runs on the calling thread, which a spawn and a join
/// would only wait on.
fn fan_out<S, F, W>(jobs: &[Job], cores: usize, mut make_sink: F, worker: W) -> Result<FanOut<S>>
where
    S: TriangleSink + Send,
    F: FnMut() -> S,
    W: Fn(Job, &mut S) -> Result<WorkerReport> + Sync,
{
    let cursor = AtomicUsize::new(jobs.len());
    let core = |c: usize, mut sink: S| {
        let mut ran = Vec::new();
        let mut first = None;
        while let Some(i) = claim(&cursor) {
            first.get_or_insert_with(Instant::now);
            sink.start_range(i);
            let mut report = worker(jobs[i], &mut sink)?;
            report.worker = c;
            ran.push((i, report));
        }
        let wall = first.map_or(Duration::ZERO, |start| start.elapsed());
        Ok((ran, wall, sink))
    };
    let run = |c: usize, sink: S| {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| core(c, sink)))
            .unwrap_or_else(|_| Err(CoreError::WorkerPanic(format!("worker {c}"))));
        if outcome.is_err() {
            cursor.store(0, Ordering::Relaxed);
        }
        outcome
    };
    let outcomes: Vec<Result<_>> = if cores == 1 {
        vec![run(0, make_sink())]
    } else {
        std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = (0..cores)
                .map(|c| {
                    let sink = make_sink();
                    scope.spawn(move || run(c, sink))
                })
                .collect();
            let joined = (handles.into_iter().enumerate()).map(|(c, h)| {
                h.join()
                    .unwrap_or_else(|_| Err(CoreError::WorkerPanic(format!("worker {c}"))))
            });
            joined.collect()
        })
    };
    let (mut totals, mut sinks) = (Vec::with_capacity(cores), Vec::with_capacity(cores));
    let mut by_job: Vec<Option<WorkerReport>> = vec![None; jobs.len()];
    for (c, outcome) in outcomes.into_iter().enumerate() {
        let (ran, wall, sink) = outcome?;
        let mut total = WorkerReport {
            worker: c,
            ..WorkerReport::default()
        };
        let parts = ran.iter().map(|(i, r)| (*i, r.triangles)).collect();
        for (i, report) in ran {
            total.add(&report);
            by_job[i] = Some(report);
        }
        total.breakdown.wall = wall;
        totals.push(total);
        sinks.push(CoreSink { sink, parts });
    }
    let ranges = (by_job.into_iter())
        .map(|r| r.expect("every job is claimed exactly once"))
        .collect();
    Ok(FanOut {
        ranges,
        cores: totals,
        sinks,
    })
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
        std::fs::create_dir_all(&path).map_err(|e| IoError::os("mkdir", &path, e))?;
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
///             backend: IoBackend::Mmap, // degrades to blocking if absent
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
    use crate::balance::PredictedCost;
    use crate::sink::LimitSink;
    use pdtl_graph::gen::classic::{complete, wheel};
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;
    use pdtl_io::Codec;

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
    fn listings_are_byte_identical_to_the_hull_pruned_engine() {
        // A list the sketch skips emits nothing, so the listing does
        // not move: `(len, crc32c)` of the triples' bytes, taken when
        // the scan skipped by each list's `(min, max)` hull, on ranges
        // that do not depend on the cost model.
        let g = rmat(9, 31).unwrap();
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, tmpdir("listing-bytes").join("g"), &stats).unwrap();
        let bytes = |t: &[(u32, u32, u32)]| -> Vec<u8> {
            t.iter()
                .flat_map(|&(u, v, w)| [u, v, w])
                .flat_map(u32::to_le_bytes)
                .collect()
        };
        let golden = [
            (Codec::Raw, 1 << 20, (358_908, 0x8114_d386)),
            (Codec::Raw, 512, (358_908, 0x3b0b_1f64)),
            (Codec::DeltaVarint, 64, (358_908, 0x0f48_6d67)),
        ];
        for (codec, edges, want) in golden {
            let budget = MemoryBudget::edges(edges);
            let mgt = MgtOptions {
                codec,
                ..MgtOptions::default()
            };
            let runner = LocalRunner::new(LocalConfig {
                cores: 3,
                budget,
                balance: BalanceStrategy::EqualEdges,
                mgt,
            })
            .unwrap();
            let dir = tmpdir(&format!("listing-bytes-{codec:?}-{edges}"));
            let case = format!("{codec:?} {edges}");
            // The 1 Mi-edge budget holds `G*` and ran resident; written
            // and streamed, it lists the same bytes.
            let mut listed = runner.run_listing(&input, &dir).unwrap().1;
            let (report, sinks) = runner
                .run_stored(&input, &dir, Store::Disk, CollectSink::default)
                .unwrap();
            assert_eq!(bytes(&listed), bytes(&CollectSink::concat(sinks)), "{case}");
            // The goldens were taken on three equal ranges, one core
            // each; the runner claims twelve, which list the same
            // triangles in another order.
            let og = OrientedGraph::open(report.oriented_base.unwrap(), &stats).unwrap();
            let m = og.m_star();
            let jobs: Vec<Job> = (0..3)
                .map(|i| {
                    let (start, end) = (m * i / 3, m * (i + 1) / 3);
                    (EdgeRange { start, end }, budget, mgt)
                })
                .collect();
            let mut three =
                CollectSink::concat(run_workers(&og, &jobs, CollectSink::default).unwrap().sinks);
            let equal = bytes(&three);
            assert_eq!((equal.len(), pdtl_io::crc32c(&equal)), want, "{case}");
            listed.sort_unstable();
            three.sort_unstable();
            assert!(listed == three, "{case}");
        }
    }

    #[test]
    fn core_counts_above_the_cap_are_refused() {
        // One thread per core: 40 000 of them would abort the process.
        for cores in [MAX_CORES as usize + 1, 40_000] {
            let err = LocalRunner::new(LocalConfig {
                cores,
                ..Default::default()
            })
            .unwrap_err();
            assert!(matches!(err, CoreError::Config(_)), "{err}");
            assert!(err.to_string().contains("1..=64"), "names the cap: {err}");
        }
        let at_cap = LocalConfig {
            cores: MAX_CORES as usize,
            ..Default::default()
        };
        assert!(LocalRunner::new(at_cap).is_ok());
    }

    #[test]
    fn streamed_listing_is_byte_identical_to_the_collected_one() {
        // `run_listing` then one `FileSink` is what `pdtl list` wrote
        // before it streamed. An RMAT graph beside a long path: the
        // path's edges close no triangle, so a worker on them lists
        // nothing while the others split the RMAT graph's triangles.
        let rmat = rmat(7, 31).unwrap();
        let mut edges: Vec<(u32, u32)> = rmat.edges().collect();
        edges.extend((128..1000).map(|v| (v, v + 1)));
        let g = Graph::from_edges(1001, &edges).unwrap();
        let t = triangle_count(&g);
        let dir = tmpdir("streamed");
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let mut empty_parts = 0;
        for cores in [1, 2, 3, 5] {
            let runner = LocalRunner::new(LocalConfig {
                cores,
                budget: MemoryBudget::edges(64),
                ..Default::default()
            })
            .unwrap();
            let collected = dir.join(format!("collected-{cores}"));
            let (_, triangles) = runner.run_listing(&input, &dir.join("work")).unwrap();
            let mut sink = FileSink::create(&collected, stats.clone()).unwrap();
            for &(u, v, w) in &triangles {
                sink.emit(u, v, w);
            }
            sink.finish().unwrap();

            let streamed = dir.join(format!("streamed-{cores}"));
            let (report, written) = runner
                .run_listing_to_file(&input, &dir.join("work"), &streamed)
                .unwrap();
            assert_eq!((written, report.triangles), (t, t), "{cores} cores");
            let bytes = std::fs::read(&streamed).unwrap();
            assert_eq!(bytes, std::fs::read(&collected).unwrap(), "{cores} cores");
            assert!(!dir.join("work").join("part-0").exists(), "parts removed");
            let listing = report.ranges.iter().filter(|r| r.triangles > 0).count();
            assert!(listing >= 2.min(cores), "parts in order: {cores} cores");
            empty_parts += report.ranges.len() - listing;
        }
        assert!(empty_parts > 0, "no range listed nothing");
    }

    #[test]
    fn run_oriented_matches_full_pipeline() {
        // The resident-process entry: orienting once and running
        // `run_oriented_with_sinks` repeatedly yields the same count as
        // the one-shot path, including on a *reopened* graph whose
        // original degrees are gone (planned without the probe term).
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
        // Reopen from disk: orig_degrees is None, the plan drops probes.
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
        let per_core: u64 = report.workers.iter().map(|w| w.io.u32s_decoded).sum();
        let per_range: u64 = report.ranges.iter().map(|r| r.io.u32s_decoded).sum();
        assert!(report.ranges.iter().all(|r| r.io.u32s_decoded > 0));
        assert_eq!(report.total_worker_io().u32s_decoded, per_core);
        assert_eq!(per_core, per_range);
        assert!(per_range >= report.ranges.iter().map(|r| r.range.len()).sum::<u64>());
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

    /// Per-rank counters lent to the join, as the clustering analytics'
    /// sink lends them.
    struct RankCounts(Vec<u64>);

    impl TriangleSink for RankCounts {
        fn vertex_counts(&mut self) -> Option<&mut [u64]> {
            Some(&mut self.0)
        }

        fn emit(&mut self, _: u32, _: u32, _: u32) {
            unreachable!("a sink lending counters is never handed a triple")
        }
    }

    /// A listing's bytes, as a `FileSink` writes them.
    fn listing_bytes(triples: &[(u32, u32, u32)]) -> Vec<u8> {
        (triples.iter())
            .flat_map(|&(u, v, w)| [u, v, w])
            .flat_map(u32::to_le_bytes)
            .collect()
    }

    /// Everything a run reports that must not depend on where `G*` is
    /// kept, nor on which core claimed which range: the count, the plan,
    /// and each range and its counters.
    #[allow(clippy::type_complexity)]
    fn shape(r: &RunReport) -> (u64, Vec<(EdgeRange, PredictedCost)>, Vec<[u64; 8]>) {
        let ranges = (r.ranges.iter())
            .map(|w| {
                let (start, end) = (w.range.start, w.range.end);
                [
                    start,
                    end,
                    w.triangles,
                    w.iterations,
                    w.cpu_ops,
                    w.scanned,
                    w.scan_lists,
                    w.scan_hits,
                ]
            })
            .collect();
        (r.triangles, r.plan.clone(), ranges)
    }

    fn oriented_files(dir: &Path) -> Vec<String> {
        (std::fs::read_dir(dir).unwrap())
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("oriented"))
            .collect()
    }

    #[test]
    fn resident_and_disk_runs_agree_at_and_around_the_threshold() {
        // The budget that just holds `G*` on `cores` workers, one edge
        // below it and one above: the first goes to disk by itself, the
        // others stay in memory, and at every one of them a run forced
        // the other way plans, counts and lists the same.
        use pdtl_graph::gen::classic::erdos_renyi;
        let graphs = [
            ("rmat7", rmat(7, 41).unwrap()),
            ("rmat8", rmat(8, 42).unwrap()),
            ("rmat9", rmat(9, 43).unwrap()),
            ("gnm90", erdos_renyi(90, 900, 44).unwrap()),
            ("w40", wheel(40).unwrap()),
        ];
        for (tag, g) in graphs {
            let expected = triangle_count(&g);
            let dir = tmpdir(&format!("parity-{tag}"));
            let stats = IoStats::new();
            let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
            let (m, n) = (g.num_edges(), g.num_vertices());
            for cores in 1..=3u64 {
                let at = 2 * m.div_ceil(cores) as usize;
                for (budget, auto) in [
                    (at - 1, Store::Disk),
                    (at, Store::Resident),
                    (at + 1, Store::Resident),
                ] {
                    let case = format!("{tag} cores {cores} budget {budget}");
                    let runner = LocalRunner::new(LocalConfig {
                        cores: cores as usize,
                        budget: MemoryBudget::edges(budget),
                        ..Default::default()
                    })
                    .unwrap();
                    assert_eq!(runner.store_for(&input), auto, "{case}");
                    let (mem_dir, disk_dir) = (dir.join("mem"), dir.join("disk"));
                    let _ = std::fs::remove_dir_all(&mem_dir);
                    let both = |make: &dyn Fn() -> Sink| {
                        let mem = runner.run_stored(&input, &mem_dir, Store::Resident, make);
                        let disk = runner.run_stored(&input, &disk_dir, Store::Disk, make);
                        (mem.unwrap(), disk.unwrap())
                    };
                    for (kind, make) in Sink::ALL {
                        let case = format!("{case} {kind}");
                        let ((mem, mem_sinks), (disk, disk_sinks)) = both(&|| make(n));
                        assert_eq!(mem.triangles, expected, "{case}");
                        assert_eq!(shape(&mem), shape(&disk), "{case}");
                        assert_eq!(Sink::output(mem_sinks), Sink::output(disk_sinks), "{case}");
                        assert_eq!(mem.oriented_base, None, "{case}");
                        assert_eq!(
                            disk.oriented_base,
                            Some(disk_dir.join("oriented")),
                            "{case}"
                        );
                        assert_eq!(mem.orientation.cpu_ops, disk.orientation.cpu_ops, "{case}");
                        assert_eq!(mem.orientation.io.bytes_written, 0, "{case}");
                        for w in &mem.workers {
                            assert_eq!(w.io, pdtl_io::stats::IoSnapshot::default(), "{case}");
                        }
                        assert!(oriented_files(&mem_dir).is_empty(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_read_fault_cuts_resident_and_disk_runs_alike() {
        // One graph, budget and plan, kept in memory and then on disk:
        // a scan cut after `k` values fails both runs with the typed
        // injected error, and no fault counts alike.
        let g = rmat(8, 45).unwrap();
        let dir = tmpdir("read-fault");
        let input = DiskGraph::write(&g, dir.join("g"), &IoStats::new()).unwrap();
        for cores in [1, 2] {
            let runner = |read_fault| {
                LocalRunner::new(LocalConfig {
                    cores,
                    budget: MemoryBudget::edges(64),
                    mgt: MgtOptions {
                        read_fault,
                        ..MgtOptions::default()
                    },
                    ..Default::default()
                })
                .unwrap()
            };
            let both = |read_fault| {
                let runner = runner(read_fault);
                [Store::Resident, Store::Disk].map(|store| {
                    let work = dir.join(format!("work-{cores}-{store:?}"));
                    runner.run_stored(&input, &work, store, || CountSink)
                })
            };
            for k in [0, 1, 500] {
                for run in both(Some(k)) {
                    let case = format!("{cores} cores, fault after {k}");
                    match run.map(|(report, _)| report.triangles) {
                        Err(CoreError::Io(IoError::Malformed { detail, .. })) => {
                            assert!(detail.contains("injected short read"), "{case}: {detail}")
                        }
                        other => panic!("{case}: {other:?}"),
                    }
                }
            }
            let [mem, disk] = both(None).map(|run| run.unwrap().0);
            assert_eq!(mem.triangles, triangle_count(&g), "{cores} cores");
            assert_eq!(shape(&mem), shape(&disk), "{cores} cores");
        }
    }

    /// The four kinds of sink the join serves, one constructor each.
    enum Sink {
        Count(CountSink),
        Collect(CollectSink),
        Counts(RankCounts),
        Limit(LimitSink),
    }

    impl Sink {
        #[allow(clippy::type_complexity)]
        const ALL: [(&'static str, fn(u32) -> Sink); 4] = [
            ("count", |_| Sink::Count(CountSink)),
            ("collect", |_| Sink::Collect(CollectSink::default())),
            ("per-vertex", |n| {
                Sink::Counts(RankCounts(vec![0; n as usize]))
            }),
            ("limit", |_| Sink::Limit(LimitSink::new(7))),
        ];

        /// The cores' output put together: a listing in range order, or
        /// the per-rank counts summed over the cores.
        fn output(cores: Vec<CoreSink<Sink>>) -> Vec<u8> {
            let (mut collect, mut limit, mut counts) = (Vec::new(), Vec::new(), Vec::new());
            for CoreSink { sink, parts } in cores {
                match sink {
                    Sink::Count(_) => {}
                    Sink::Collect(sink) => collect.push(CoreSink { sink, parts }),
                    Sink::Counts(RankCounts(c)) => {
                        counts.resize(c.len(), 0);
                        counts.iter_mut().zip(c).for_each(|(n, c)| *n += c);
                    }
                    Sink::Limit(sink) => limit.push(CoreSink { sink, parts }),
                }
            }
            let mut bytes = listing_bytes(&CollectSink::concat(collect));
            bytes.extend(listing_bytes(&LimitSink::concat(limit)));
            bytes.extend(counts.iter().flat_map(|x| x.to_le_bytes()));
            bytes
        }
    }

    impl TriangleSink for Sink {
        fn vertex_counts(&mut self) -> Option<&mut [u64]> {
            match self {
                Sink::Counts(c) => c.vertex_counts(),
                _ => None,
            }
        }

        fn wants_triples(&self) -> bool {
            match self {
                Sink::Count(c) => c.wants_triples(),
                Sink::Collect(c) => c.wants_triples(),
                Sink::Counts(_) => false,
                Sink::Limit(l) => l.wants_triples(),
            }
        }

        fn start_range(&mut self, range: usize) {
            if let Sink::Limit(l) = self {
                l.start_range(range);
            }
        }

        fn emit(&mut self, u: u32, v: u32, w: u32) {
            match self {
                Sink::Count(c) => c.emit(u, v, w),
                Sink::Collect(c) => c.emit(u, v, w),
                Sink::Counts(c) => c.emit(u, v, w),
                Sink::Limit(l) => l.emit(u, v, w),
            }
        }
    }

    #[test]
    fn a_resident_run_leaves_the_files_of_an_earlier_disk_run_alone() {
        // One work dir: a disk run writes `oriented.*`, a resident run
        // after it neither reads nor rewrites them, and the listing to
        // file of a resident run leaves no part files behind.
        let g = rmat(8, 27).unwrap();
        let dir = tmpdir("resident-after-disk");
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let runner = |edges| {
            LocalRunner::new(LocalConfig {
                cores: 2,
                budget: MemoryBudget::edges(edges),
                ..Default::default()
            })
            .unwrap()
        };
        let work = dir.join("work");
        let disk = runner(256).run(&input, &work).unwrap();
        assert_eq!(disk.oriented_base, Some(work.join("oriented")));
        let adj = std::fs::read(work.join("oriented.adj")).unwrap();
        let (mem, written) = runner(1 << 20)
            .run_listing_to_file(&input, &work, &dir.join("out.bin"))
            .unwrap();
        assert_eq!(mem.oriented_base, None);
        assert_eq!((mem.triangles, written), (disk.triangles, disk.triangles));
        assert_eq!(std::fs::read(work.join("oriented.adj")).unwrap(), adj);
        DiskGraph::open(work.join("oriented"), &stats)
            .unwrap()
            .verify_full()
            .unwrap();
        assert!(!work.join("part-0").exists(), "parts removed");
    }

    /// `n` jobs, job `i` the range `[10·i, 10·i + i)`: `i` triangles.
    fn fake_jobs(n: u64) -> Vec<Job> {
        (0..n)
            .map(|i| {
                let range = EdgeRange {
                    start: 10 * i,
                    end: 10 * i + i,
                };
                (range, MemoryBudget::edges(8), MgtOptions::default())
            })
            .collect()
    }

    /// A worker that emits `(start, k, 0)` for each position `k` of its
    /// range and reports one triangle per position.
    fn fake_worker((range, _, _): Job, sink: &mut CollectSink) -> Result<WorkerReport> {
        (0..range.len()).for_each(|k| sink.emit(range.start as u32, k as u32, 0));
        Ok(WorkerReport {
            range,
            triangles: range.len(),
            iterations: 1,
            cpu_ops: 3 * range.len(),
            ..WorkerReport::default()
        })
    }

    #[test]
    fn the_fan_out_runs_every_range_exactly_once_and_reports_in_order() {
        for cores in 1..=3 {
            for n in [0, 1, 2, 5, 7] {
                let case = format!("{cores} cores, {n} ranges");
                let jobs = fake_jobs(n);
                let runs: Vec<_> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let worker = |job: Job, sink: &mut CollectSink| {
                    runs[(job.0.start / 10) as usize].fetch_add(1, Ordering::Relaxed);
                    fake_worker(job, sink)
                };
                let fan = fan_out(&jobs, cores, CollectSink::default, worker).unwrap();
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "{case}"
                );
                // Ranges in job order, cores and sinks in core order.
                let ranges: Vec<_> = fan.ranges.iter().map(|r| r.range).collect();
                assert_eq!(
                    ranges,
                    jobs.iter().map(|j| j.0).collect::<Vec<_>>(),
                    "{case}"
                );
                assert_eq!(fan.cores.len(), cores, "{case}");
                assert_eq!(fan.sinks.len(), cores, "{case}");
                for (c, (core, sink)) in fan.cores.iter().zip(&fan.sinks).enumerate() {
                    assert_eq!(core.worker, c, "{case}");
                    let ran: Vec<usize> = sink.parts.iter().map(|p| p.0).collect();
                    assert!(
                        ran.windows(2).all(|w| w[0] > w[1]),
                        "{case}: claimed downward"
                    );
                    assert!(ran.iter().all(|&i| fan.ranges[i].worker == c), "{case}");
                    let held: u64 = sink.parts.iter().map(|p| p.1).sum();
                    assert_eq!(core.triangles, held, "{case}");
                    assert_eq!(core.cpu_ops, 3 * held, "{case}");
                    assert_eq!(core.iterations, ran.len() as u64, "{case}");
                    if ran.is_empty() {
                        assert_eq!(core.breakdown.wall, Duration::ZERO, "{case}: idle");
                    }
                }
                let listing = CollectSink::concat(fan.sinks);
                let want: Vec<_> = (jobs.iter())
                    .flat_map(|(r, _, _)| (0..r.len()).map(|k| (r.start as u32, k as u32, 0)))
                    .collect();
                assert!(listing == want, "{case}: range order");
            }
        }
    }

    #[test]
    fn a_core_that_finishes_early_takes_the_rest() {
        // The first range claimed (the highest) holds its core until the
        // last one (range 0) is claimed: the other core, free, takes all
        // the rest.
        let jobs = fake_jobs(6);
        let drained = std::sync::Barrier::new(2);
        let worker = |job: Job, sink: &mut CollectSink| {
            if matches!(job.0.start, 0 | 50) {
                drained.wait();
            }
            fake_worker(job, sink)
        };
        let fan = fan_out(&jobs, 2, CollectSink::default, worker).unwrap();
        let mut claims: Vec<Vec<usize>> = (fan.sinks.iter())
            .map(|s| s.parts.iter().map(|p| p.0).collect())
            .collect();
        claims.sort();
        assert_eq!(claims, [vec![4, 3, 2, 1, 0], vec![5]]);
        let busy = &fan.cores[fan.ranges[4].worker];
        assert_eq!(busy.triangles, 4 + 3 + 2 + 1);
    }

    #[test]
    fn a_panicking_range_surfaces_after_the_other_cores_finish() {
        let jobs = fake_jobs(4);
        let (met, done) = (std::sync::Barrier::new(2), AtomicUsize::new(0));
        let worker = |job: Job, sink: &mut CollectSink| {
            match job.0.start {
                30 => {
                    met.wait();
                    panic!("range 3 fails");
                }
                20 => {
                    met.wait();
                    std::thread::sleep(Duration::from_millis(50));
                    done.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            fake_worker(job, sink)
        };
        let err = fan_out(&jobs, 2, CollectSink::default, worker).unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanic(_)), "{err}");
        assert_eq!(
            done.load(Ordering::Relaxed),
            1,
            "returned before range 2 ended"
        );
        // A failed range stops the claims the same way, on the caller's
        // thread too.
        for cores in [1, 2] {
            let fails = |job: Job, sink: &mut CollectSink| match job.0.start {
                30 => Err(CoreError::Config("range 3 fails".into())),
                _ => fake_worker(job, sink),
            };
            let err = fan_out(&jobs, cores, CollectSink::default, fails).unwrap_err();
            assert_eq!(
                err.to_string(),
                CoreError::Config("range 3 fails".into()).to_string()
            );
        }
    }

    #[test]
    fn claims_replay_greedily_from_the_highest_range() {
        // Claimed 6, 5, 4, ...: core 0 takes 6 (cost 9); core 1 takes
        // 5, 4, 3, 2 and 1 (3 + 3 + 1 + 1 + 2) while core 0 is busy, and
        // core 0, free first, takes 0.
        assert_eq!(replay_claims(&[2, 2, 1, 1, 3, 3, 9], 2), [11, 10]);
        assert_eq!(replay_claims(&[5, 1], 1), [6]);
        assert_eq!(replay_claims(&[4], 3), [4, 0, 0]);
        assert_eq!(replay_claims(&[], 2), [0, 0]);
    }

    #[test]
    fn listings_are_deterministic_in_range_order_whoever_claims_what() {
        // Both stores × a collected, a streamed and a limited listing:
        // two runs at 2 and 3 cores list the same bytes, which are the
        // 1-core listing's triangles, and the file holds the collected
        // triples.
        let g = rmat(9, 51).unwrap();
        let dir = tmpdir("claims-deterministic");
        let input = DiskGraph::write(&g, dir.join("g"), &IoStats::new()).unwrap();
        let sorted = |mut t: Vec<(u32, u32, u32)>| {
            t.sort_unstable();
            t
        };
        for (edges, resident) in [(1 << 20, true), (256, false)] {
            let mut one_core = None;
            for cores in 1..=3 {
                let case = format!("{edges} edges, {cores} cores");
                let runner = LocalRunner::new(LocalConfig {
                    cores,
                    budget: MemoryBudget::edges(edges),
                    ..Default::default()
                })
                .unwrap();
                let work = dir.join(format!("work-{edges}-{cores}"));
                let run = |tag: &str| {
                    let (report, listed) = runner.run_listing(&input, &work).unwrap();
                    assert_eq!(report.oriented_base.is_none(), resident, "{case}");
                    let out = dir.join(format!("out-{edges}-{cores}-{tag}"));
                    let (_, written) = runner.run_listing_to_file(&input, &work, &out).unwrap();
                    assert_eq!(written, report.triangles, "{case}");
                    let file = std::fs::read(&out).unwrap();
                    let (_, sinks) = runner
                        .run_with_sinks(&input, &work, || LimitSink::new(37))
                        .unwrap();
                    (listed, file, LimitSink::concat(sinks))
                };
                let (listed, file, limited) = run("a");
                assert_eq!(
                    run("b"),
                    (listed.clone(), file.clone(), limited.clone()),
                    "{case}"
                );
                assert_eq!(file, listing_bytes(&listed), "{case}");
                assert_eq!(limited, listed[..37], "{case}");
                let canon = sorted(listed);
                assert_eq!(canon.len() as u64, triangle_count(&g), "{case}");
                assert!(
                    one_core.get_or_insert_with(|| canon.clone()) == &canon,
                    "{case}"
                );
            }
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
    fn a_budget_past_any_graph_keeps_g_star_in_memory() {
        // `cores · c·M` saturates instead of wrapping past `u64::MAX`.
        let g = complete(8).unwrap();
        let dir = tmpdir("huge-budget");
        let input = DiskGraph::write(&g, dir.join("g"), &IoStats::new()).unwrap();
        let runner = LocalRunner::new(LocalConfig {
            cores: 2,
            budget: MemoryBudget::edges(usize::MAX),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(runner.store_for(&input), Store::Resident);
        let report = runner.run(&input, &dir.join("w")).unwrap();
        assert_eq!((report.triangles, report.oriented_base), (56, None));
    }

    #[test]
    fn zero_budget_rejected() {
        let cfg = LocalConfig {
            budget: MemoryBudget::edges(0),
            ..Default::default()
        };
        assert!(matches!(LocalRunner::new(cfg), Err(CoreError::Config(_))));
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
        let covered: u64 = report.ranges.iter().map(|r| r.range.len()).sum();
        assert_eq!(covered, g.num_edges(), "|E*| positions covered exactly");
        assert_eq!(report.ranges.len(), 5 * RANGES_PER_CORE);
        assert_eq!(report.workers.len(), 5);
    }
}
