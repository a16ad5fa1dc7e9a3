//! Shared experiment machinery: dataset cache, runner wrappers,
//! formatting.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

use pdtl_cluster::{ClusterConfig, ClusterReport, ClusterRunner, NetModel};
use pdtl_core::balance::BalanceStrategy;
use pdtl_core::mgt::MgtOptions;
use pdtl_core::{LocalConfig, LocalRunner, RunReport};
use pdtl_graph::datasets::Dataset;
use pdtl_graph::{DiskGraph, Graph};
use pdtl_io::{CostModel, IoStats, MemoryBudget};

/// Scale profile of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Tiny graphs, for CI and smoke tests (~seconds total).
    Quick,
    /// The default scaled reproduction (~minutes total).
    Full,
}

impl Profile {
    /// Scale factor applied to the real-graph stand-ins.
    pub fn real_scale(&self) -> f64 {
        match self {
            Profile::Quick => 0.06,
            Profile::Full => 0.35,
        }
    }

    /// RMAT scales standing in for the paper's RMAT-26..29.
    pub fn rmat_scales(&self) -> Vec<u32> {
        match self {
            Profile::Quick => vec![9, 10],
            Profile::Full => vec![11, 12, 13, 14],
        }
    }

    /// The first RMAT scale (stand-in for the paper's RMAT-26).
    pub fn rmat_base(&self) -> u32 {
        self.rmat_scales()[0]
    }

    /// Default per-core memory budget in edges ("1 GB/core" scaled).
    pub fn budget(&self) -> MemoryBudget {
        match self {
            Profile::Quick => MemoryBudget::edges(4 << 10),
            Profile::Full => MemoryBudget::edges(64 << 10),
        }
    }

    /// A deliberately tight budget ("8 GB/node" scaled).
    pub fn low_budget(&self) -> MemoryBudget {
        match self {
            Profile::Quick => MemoryBudget::edges(512),
            Profile::Full => MemoryBudget::edges(4 << 10),
        }
    }

    /// Core counts swept by local experiments (paper: 1..24/32).
    pub fn core_sweep(&self) -> Vec<usize> {
        match self {
            Profile::Quick => vec![1, 2, 4],
            Profile::Full => vec![1, 2, 4, 8, 16],
        }
    }

    /// Node counts swept by distributed experiments (paper: 1..4/8).
    pub fn node_sweep(&self) -> Vec<usize> {
        match self {
            Profile::Quick => vec![1, 2],
            Profile::Full => vec![1, 2, 3, 4],
        }
    }
}

/// Dataset cache + runner wrappers for the experiments.
pub struct Workbench {
    /// Scale profile.
    pub profile: Profile,
    /// Directory holding generated graphs and run scratch space.
    pub data_dir: PathBuf,
    /// Cost model for modeled times.
    pub cost: CostModel,
    /// Network model for modeled copy times.
    pub net: NetModel,
    /// Engine knobs of every local and cluster run (`exp --backend`,
    /// `exp --codec`).
    pub mgt: MgtOptions,
    graphs: HashMap<String, (Graph, DiskGraph)>,
    run_id: u64,
}

impl Workbench {
    /// Create a workbench rooted at `data_dir` (usually
    /// `target/pdtl-data`).
    pub fn new(profile: Profile, data_dir: impl Into<PathBuf>) -> Self {
        let data_dir = data_dir.into();
        std::fs::create_dir_all(&data_dir).expect("create data dir");
        Self {
            profile,
            data_dir,
            cost: CostModel::default(),
            net: NetModel::default(),
            mgt: MgtOptions::default(),
            graphs: HashMap::new(),
            run_id: 0,
        }
    }

    /// A workbench in a fresh temporary directory.
    pub fn temp(profile: Profile) -> Self {
        static UNIQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = UNIQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self::new(
            profile,
            std::env::temp_dir().join(format!("pdtl-bench-{}-{id}", std::process::id())),
        )
    }

    /// The four real-graph stand-ins at the profile's scale.
    pub fn real_datasets(&self) -> Vec<Dataset> {
        Dataset::real_graphs().to_vec()
    }

    /// RMAT datasets at the profile's scales.
    pub fn rmat_datasets(&self) -> Vec<Dataset> {
        self.profile
            .rmat_scales()
            .into_iter()
            .map(Dataset::Rmat)
            .collect()
    }

    /// All datasets most experiments sweep.
    pub fn all_datasets(&self) -> Vec<Dataset> {
        let mut v = self.real_datasets();
        v.extend(self.rmat_datasets());
        v
    }

    /// Build (or fetch from cache) a dataset's in-memory graph and its
    /// on-disk PDTL-format copy.
    pub fn graph(&mut self, ds: Dataset) -> (&Graph, &DiskGraph) {
        let name = ds.name();
        if !self.graphs.contains_key(&name) {
            let scale = match ds {
                Dataset::Rmat(_) => 1.0,
                _ => self.profile.real_scale(),
            };
            let g = ds.build_scaled(scale).expect("dataset generation");
            let stats = IoStats::new();
            let base = self.data_dir.join(&name).join("input");
            let dg = DiskGraph::write(&g, &base, &stats).expect("dataset write");
            self.graphs.insert(name.clone(), (g, dg));
        }
        let (g, dg) = self.graphs.get(&name).unwrap();
        (g, dg)
    }

    fn scratch(&mut self, tag: &str) -> PathBuf {
        self.run_id += 1;
        let dir = self
            .data_dir
            .join("runs")
            .join(format!("{tag}-{}", self.run_id));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// Run the single-machine PDTL pipeline.
    pub fn run_local(
        &mut self,
        ds: Dataset,
        cores: usize,
        budget: MemoryBudget,
        balance: BalanceStrategy,
    ) -> RunReport {
        let input = self.graph(ds).1.clone();
        let dir = self.scratch("local");
        let runner = LocalRunner::new(LocalConfig {
            cores,
            budget,
            balance,
            mgt: self.mgt,
        })
        .expect("local config");
        let report = runner.run(&input, &dir).expect("local run");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }

    /// Run the distributed PDTL pipeline.
    pub fn run_cluster(
        &mut self,
        ds: Dataset,
        nodes: usize,
        cores_per_node: usize,
        budget: MemoryBudget,
    ) -> ClusterReport {
        let input = self.graph(ds).1.clone();
        let dir = self.scratch("cluster");
        let runner = ClusterRunner::new(ClusterConfig {
            nodes,
            cores_per_node,
            budget,
            balance: BalanceStrategy::InDegree,
            listing: false,
            transport: pdtl_cluster::TransportKind::InProc,
            mgt: self.mgt,
            ..Default::default()
        })
        .expect("cluster config");
        let report = runner.run(&input, &dir).expect("cluster run");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }
}

/// Format a duration the way the paper's tables do (`2m44.2s`,
/// `1h17m24.5s`, `32.8s`).
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    fmt_secs(secs)
}

/// Format seconds paper-style.
pub fn fmt_secs(secs: f64) -> String {
    if !secs.is_finite() {
        return "-".into();
    }
    if secs < 0.0005 {
        return format!("{:.1}ms", secs * 1e3);
    }
    if secs < 1.0 {
        return format!("{:.0}ms", secs * 1e3);
    }
    let total = secs;
    let h = (total / 3600.0).floor() as u64;
    let m = ((total - h as f64 * 3600.0) / 60.0).floor() as u64;
    let s = total - h as f64 * 3600.0 - m as f64 * 60.0;
    if h > 0 {
        format!("{h}h{m:02}m{s:04.1}s")
    } else if m > 0 {
        format!("{m}m{s:04.1}s")
    } else {
        format!("{s:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_secs_paper_style() {
        assert_eq!(fmt_secs(32.8), "32.8s");
        assert_eq!(fmt_secs(164.2), "2m44.2s");
        assert_eq!(fmt_secs(4644.5), "1h17m24.5s");
        assert_eq!(fmt_secs(0.25), "250ms");
        assert_eq!(fmt_secs(0.0001), "0.1ms");
        assert_eq!(fmt_secs(f64::NAN), "-");
    }

    #[test]
    fn fmt_duration_wraps() {
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.5s");
    }

    #[test]
    fn workbench_caches_datasets() {
        let mut wb = Workbench::temp(Profile::Quick);
        let n1 = wb.graph(Dataset::Rmat(6)).0.num_vertices();
        let n2 = wb.graph(Dataset::Rmat(6)).0.num_vertices();
        assert_eq!(n1, n2);
        assert_eq!(wb.graphs.len(), 1);
    }

    #[test]
    fn local_and_cluster_agree() {
        let mut wb = Workbench::temp(Profile::Quick);
        let budget = wb.profile.budget();
        let local = wb.run_local(Dataset::Rmat(7), 2, budget, BalanceStrategy::InDegree);
        let cluster = wb.run_cluster(Dataset::Rmat(7), 2, 1, budget);
        assert_eq!(local.triangles, cluster.triangles);
        let oracle = pdtl_graph::verify::triangle_count(wb.graph(Dataset::Rmat(7)).0);
        assert_eq!(local.triangles, oracle);
    }

    #[test]
    fn profile_knobs_are_ordered() {
        assert!(Profile::Quick.real_scale() < Profile::Full.real_scale());
        assert!(Profile::Quick.budget().edges < Profile::Full.budget().edges);
        assert!(Profile::Quick.low_budget().edges < Profile::Quick.budget().edges);
    }
}
