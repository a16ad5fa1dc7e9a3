//! A miniature PowerGraph: vertex-cut GAS framework (Gonzalez et al.,
//! OSDI'12) with the triangle-counting program the paper benchmarks.
//!
//! PowerGraph distributes *edges* across machines (a vertex-cut); a
//! vertex spanned by several machines gets one master replica and
//! mirrors, and computation follows Gather → Apply → Scatter supersteps
//! with mirror↔master synchronisation. Its triangle-count program
//! gathers every vertex's full neighbour set and replicates it to all
//! mirrors — which is why the paper's Table VI shows `F` (out of
//! memory) on Yahoo and RMAT-28/29 even with 244 GB/node, while PDTL
//! finishes in 1 GB/core. This module reproduces:
//!
//! * a real (if small) GAS engine: the [`VertexProgram`] trait, vertex
//!   masters/mirrors, counted mirror↔master network traffic;
//! * random and greedy vertex-cut partitioners with replication-factor
//!   reporting;
//! * per-machine memory accounting with hard OOM — the `F` entries;
//! * the setup-heavy profile (partitioning + neighbour-set replication)
//!   that makes PowerGraph's total time ~2× its calc time (Figure 13).

use pdtl_core::intersect::intersect_count;
use pdtl_core::par;
use pdtl_graph::gen::rng::SplitMix64;
use pdtl_graph::Graph;

use crate::error::{BaselineError, Result};

/// Vertex-cut partitioning heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VertexCut {
    /// Edges assigned uniformly at random.
    Random,
    /// PowerGraph's greedy heuristic: prefer machines already hosting
    /// an endpoint, break ties by load.
    #[default]
    Greedy,
}

/// Configuration of a PowerGraph-like run.
#[derive(Debug, Clone, Copy)]
pub struct PowerGraphConfig {
    /// Number of machines.
    pub machines: usize,
    /// Memory budget per machine, in bytes.
    pub memory_bytes: u64,
    /// Edge partitioning heuristic.
    pub cut: VertexCut,
    /// Seed for the random cut.
    pub seed: u64,
}

/// An edge-partitioned graph with replica metadata.
#[derive(Debug)]
pub struct DistributedGraph {
    n: u32,
    /// Per-machine edge lists (each undirected edge on exactly one
    /// machine).
    pub machine_edges: Vec<Vec<(u32, u32)>>,
    /// Per-vertex list of machines hosting a replica.
    pub replicas: Vec<Vec<u16>>,
}

impl DistributedGraph {
    /// Partition `g` over `machines` machines.
    pub fn partition(g: &Graph, machines: usize, cut: VertexCut, seed: u64) -> Result<Self> {
        if machines == 0 {
            return Err(BaselineError::Config("machines must be >= 1".into()));
        }
        let n = g.num_vertices();
        let mut machine_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); machines];
        let mut hosts: Vec<Vec<u16>> = vec![Vec::new(); n as usize];
        let mut loads = vec![0u64; machines];
        let mut rng = SplitMix64::new(seed);

        for (u, v) in g.edges() {
            let m = match cut {
                VertexCut::Random => rng.next_bounded(machines as u64) as usize,
                VertexCut::Greedy => {
                    greedy_choice(&hosts[u as usize], &hosts[v as usize], &loads, &mut rng)
                }
            };
            machine_edges[m].push((u, v));
            loads[m] += 1;
            for x in [u, v] {
                if !hosts[x as usize].contains(&(m as u16)) {
                    hosts[x as usize].push(m as u16);
                }
            }
        }
        Ok(Self {
            n,
            machine_edges,
            replicas: hosts,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.n
    }

    /// Average replicas per non-isolated vertex — PowerGraph's key
    /// partition-quality metric.
    pub fn replication_factor(&self) -> f64 {
        let (sum, cnt) = self
            .replicas
            .iter()
            .filter(|r| !r.is_empty())
            .fold((0usize, 0usize), |(s, c), r| (s + r.len(), c + 1));
        if cnt == 0 {
            0.0
        } else {
            sum as f64 / cnt as f64
        }
    }
}

fn greedy_choice(hu: &[u16], hv: &[u16], loads: &[u64], rng: &mut SplitMix64) -> usize {
    // Case 1: a machine hosts both endpoints.
    let both: Vec<u16> = hu.iter().copied().filter(|m| hv.contains(m)).collect();
    let candidates: &[u16] = if !both.is_empty() {
        &both
    } else if !hu.is_empty() || !hv.is_empty() {
        // Case 2: machines hosting either endpoint — prefer the
        // endpoint with the shorter (non-empty) replica list.
        match (hu.is_empty(), hv.is_empty()) {
            (true, _) => hv,
            (_, true) => hu,
            _ if hu.len() <= hv.len() => hu,
            _ => hv,
        }
    } else {
        // Case 3: fresh edge — any machine; pick least loaded globally.
        let min = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, l)| l)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let _ = rng;
        return min;
    };
    let best = *candidates
        .iter()
        .min_by_key(|&&m| loads[m as usize])
        .unwrap() as usize;
    // Balance constraint: when every candidate is far above the global
    // minimum load, spill to the least-loaded machine instead (this is
    // what keeps the real greedy heuristic from collapsing the whole
    // graph onto one machine).
    let (global_min, min_load) = loads
        .iter()
        .enumerate()
        .min_by_key(|&(_, l)| l)
        .map(|(i, &l)| (i, l))
        .unwrap_or((best, 0));
    if loads[best] > 2 * (min_load + 1) {
        global_min
    } else {
        best
    }
}

/// A GAS vertex program: gather over edges, merge, apply into vertex
/// data that is then replicated to every mirror.
pub trait VertexProgram: Sync {
    /// Gather accumulator.
    type Acc: Clone + Send;
    /// Final vertex data (replicated to mirrors).
    type Data: Clone + Send + Sync + Default;

    /// Fresh accumulator.
    fn init(&self) -> Self::Acc;
    /// Gather along one incident edge: `other` is the far endpoint.
    fn gather(&self, v: u32, other: u32, acc: &mut Self::Acc);
    /// Merge two partial accumulators (mirror → master sync).
    fn merge(&self, into: &mut Self::Acc, from: Self::Acc);
    /// Apply: accumulator → vertex data.
    fn apply(&self, v: u32, acc: Self::Acc) -> Self::Data;
    /// Serialised size of the data (for memory and network accounting).
    fn data_bytes(&self, data: &Self::Data) -> u64;
}

/// Outcome of one GAS superstep.
#[derive(Debug)]
pub struct GasOutcome<D> {
    /// Per-vertex data after apply (master copies).
    pub data: Vec<D>,
    /// Mirror↔master network bytes (gather sync + apply broadcast).
    pub network_bytes: u64,
    /// Per-machine resident bytes after replication.
    pub machine_bytes: Vec<u64>,
}

/// Run one Gather → Apply → (replicate) superstep, enforcing the
/// per-machine memory budget.
pub fn run_gas<P: VertexProgram>(
    dg: &DistributedGraph,
    prog: &P,
    memory_bytes: u64,
) -> Result<GasOutcome<P::Data>> {
    let n = dg.n as usize;
    // Gather phase: per machine, local partial accumulators.
    let gather = |edges: &Vec<(u32, u32)>| {
        let mut local: std::collections::HashMap<u32, P::Acc> = Default::default();
        for &(u, v) in edges {
            prog.gather(u, v, local.entry(u).or_insert_with(|| prog.init()));
            prog.gather(v, u, local.entry(v).or_insert_with(|| prog.init()));
        }
        local
    };
    let machines = &dg.machine_edges;
    let partials = par::map_chunks(machines.len(), par::host_threads(), |ms| {
        machines[ms].iter().map(gather).collect::<Vec<_>>()
    });

    // Mirror → master merge (network traffic: one partial per mirror).
    let mut network_bytes = 0u64;
    let mut acc: Vec<Option<P::Acc>> = vec![None; n];
    for (machine, local) in partials.into_iter().flatten().enumerate() {
        for (v, partial) in local {
            let master = dg.replicas[v as usize].first().copied().unwrap_or(0) as usize;
            if machine != master {
                // approximate partial size by its applied data size
                network_bytes += 16;
            }
            match &mut acc[v as usize] {
                Some(a) => prog.merge(a, partial),
                slot @ None => *slot = Some(partial),
            }
        }
    }

    // Apply + broadcast to mirrors.
    let data: Vec<P::Data> = acc
        .into_iter()
        .enumerate()
        .map(|(v, a)| match a {
            Some(a) => prog.apply(v as u32, a),
            None => P::Data::default(),
        })
        .collect();
    for (v, d) in data.iter().enumerate() {
        let mirrors = dg.replicas[v].len().saturating_sub(1) as u64;
        network_bytes += mirrors * prog.data_bytes(d);
    }

    // Memory accounting: edges + replicated vertex data per machine.
    let mut machine_bytes = vec![0u64; dg.machine_edges.len()];
    for (m, edges) in dg.machine_edges.iter().enumerate() {
        machine_bytes[m] += edges.len() as u64 * 8;
    }
    for (v, d) in data.iter().enumerate() {
        let bytes = 16 + prog.data_bytes(d);
        for &m in &dg.replicas[v] {
            machine_bytes[m as usize] += bytes;
        }
    }
    if let Some((m, &bytes)) = machine_bytes.iter().enumerate().max_by_key(|&(_, b)| *b) {
        if bytes > memory_bytes {
            let _ = m;
            return Err(BaselineError::OutOfMemory {
                system: "powergraph",
                needed: bytes,
                budget: memory_bytes,
            });
        }
    }

    Ok(GasOutcome {
        data,
        network_bytes,
        machine_bytes,
    })
}

/// The neighbour-set program of PowerGraph's triangle counter: gather
/// collects each vertex's full neighbour id set.
pub struct NeighborSetProgram;

impl VertexProgram for NeighborSetProgram {
    type Acc = Vec<u32>;
    type Data = Vec<u32>;

    fn init(&self) -> Vec<u32> {
        Vec::new()
    }
    fn gather(&self, _v: u32, other: u32, acc: &mut Vec<u32>) {
        acc.push(other);
    }
    fn merge(&self, into: &mut Vec<u32>, from: Vec<u32>) {
        into.extend(from);
    }
    fn apply(&self, _v: u32, mut acc: Vec<u32>) -> Vec<u32> {
        acc.sort_unstable();
        acc.dedup();
        acc
    }
    fn data_bytes(&self, data: &Vec<u32>) -> u64 {
        4 * data.len() as u64
    }
}

/// A trivial degree program — demonstrates the engine is generic.
pub struct DegreeProgram;

impl VertexProgram for DegreeProgram {
    type Acc = u64;
    type Data = u64;

    fn init(&self) -> u64 {
        0
    }
    fn gather(&self, _v: u32, _other: u32, acc: &mut u64) {
        *acc += 1;
    }
    fn merge(&self, into: &mut u64, from: u64) {
        *into += from;
    }
    fn apply(&self, _v: u32, acc: u64) -> u64 {
        acc
    }
    fn data_bytes(&self, _data: &u64) -> u64 {
        8
    }
}

/// Outcome of the full PowerGraph-like triangle count.
#[derive(Debug)]
pub struct PowerGraphReport {
    /// Exact triangle count.
    pub triangles: u64,
    /// Average replicas per vertex.
    pub replication_factor: f64,
    /// Per-machine resident bytes.
    pub machine_bytes: Vec<u64>,
    /// Total mirror↔master network bytes.
    pub network_bytes: u64,
    /// Wall time of the setup phase (partition + gather/apply).
    pub setup: std::time::Duration,
    /// Wall time of the counting phase.
    pub calc: std::time::Duration,
}

/// Run PowerGraph-like triangle counting.
pub fn triangle_count(g: &Graph, config: PowerGraphConfig) -> Result<PowerGraphReport> {
    let setup_start = std::time::Instant::now();
    let dg = DistributedGraph::partition(g, config.machines, config.cut, config.seed)?;
    let outcome = run_gas(&dg, &NeighborSetProgram, config.memory_bytes)?;
    let setup = setup_start.elapsed();

    // Counting superstep: each machine intersects the replicated
    // neighbour sets along its local edges; every triangle appears on
    // exactly 3 edges.
    let calc_start = std::time::Instant::now();
    let data = &outcome.data;
    let machines = &dg.machine_edges;
    let triple: u64 = par::map_chunks(machines.len(), par::host_threads(), |ms| {
        machines[ms]
            .iter()
            .flatten()
            .map(|&(u, v)| intersect_count(&data[u as usize], &data[v as usize]))
            .sum::<u64>()
    })
    .into_iter()
    .sum();
    debug_assert_eq!(triple % 3, 0);
    let calc = calc_start.elapsed();

    Ok(PowerGraphReport {
        triangles: triple / 3,
        replication_factor: dg.replication_factor(),
        machine_bytes: outcome.machine_bytes,
        network_bytes: outcome.network_bytes,
        setup,
        calc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdtl_graph::gen::classic::{complete, grid, wheel};
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify;

    fn cfg(machines: usize, mem: u64) -> PowerGraphConfig {
        PowerGraphConfig {
            machines,
            memory_bytes: mem,
            cut: VertexCut::Greedy,
            seed: 7,
        }
    }

    #[test]
    fn counts_match_oracle() {
        for seed in [91, 92] {
            let g = rmat(7, seed).unwrap();
            let expected = verify::triangle_count(&g);
            for machines in [1usize, 2, 4] {
                let r = triangle_count(&g, cfg(machines, u64::MAX)).unwrap();
                assert_eq!(r.triangles, expected, "machines={machines} seed={seed}");
            }
        }
    }

    #[test]
    fn both_cuts_correct() {
        let g = wheel(30).unwrap();
        for cut in [VertexCut::Random, VertexCut::Greedy] {
            let r = triangle_count(
                &g,
                PowerGraphConfig {
                    machines: 3,
                    memory_bytes: u64::MAX,
                    cut,
                    seed: 9,
                },
            )
            .unwrap();
            assert_eq!(r.triangles, 29, "{cut:?}");
        }
    }

    #[test]
    fn partition_covers_every_edge_once() {
        let g = rmat(7, 93).unwrap();
        let dg = DistributedGraph::partition(&g, 4, VertexCut::Greedy, 1).unwrap();
        let total: usize = dg.machine_edges.iter().map(|e| e.len()).sum();
        assert_eq!(total as u64, g.num_edges());
        let mut seen = std::collections::HashSet::new();
        for edges in &dg.machine_edges {
            for &e in edges {
                assert!(seen.insert(e), "edge {e:?} duplicated");
            }
        }
    }

    #[test]
    fn greedy_cut_replicates_less_than_random() {
        let g = rmat(9, 94).unwrap();
        let greedy = DistributedGraph::partition(&g, 8, VertexCut::Greedy, 1).unwrap();
        let random = DistributedGraph::partition(&g, 8, VertexCut::Random, 1).unwrap();
        assert!(
            greedy.replication_factor() < random.replication_factor(),
            "greedy {} vs random {}",
            greedy.replication_factor(),
            random.replication_factor()
        );
    }

    #[test]
    fn memory_grows_with_replication_and_ooms() {
        // Dense graph + several machines: replicated neighbour sets far
        // exceed the raw graph, and a tight budget fails with OOM — the
        // Table VI `F` behaviour.
        let g = complete(60).unwrap();
        let ok = triangle_count(&g, cfg(4, u64::MAX)).unwrap();
        let graph_bytes = g.adj_len() * 4;
        let total: u64 = ok.machine_bytes.iter().sum();
        assert!(
            total > 2 * graph_bytes,
            "replicated memory {total} vs graph {graph_bytes}"
        );

        let err = triangle_count(&g, cfg(4, graph_bytes / 4)).unwrap_err();
        assert!(matches!(
            err,
            BaselineError::OutOfMemory {
                system: "powergraph",
                ..
            }
        ));
    }

    #[test]
    fn pdtl_budget_is_enough_where_powergraph_ooms() {
        // The paper's headline: PDTL finishes in budgets where
        // PowerGraph fails. Verify on a dense graph with a budget that
        // holds the oriented graph but not the replicated sets.
        let g = complete(60).unwrap();
        let budget_bytes = g.adj_len() * 2; // half the raw graph
        assert!(triangle_count(&g, cfg(4, budget_bytes)).is_err());

        let report = pdtl_core::runner::count_triangles_with(
            &g,
            pdtl_core::LocalConfig {
                cores: 4,
                budget: pdtl_io::MemoryBudget::bytes(budget_bytes / 4),
                balance: Default::default(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.triangles, verify::triangle_count(&g));
    }

    #[test]
    fn gas_engine_is_generic() {
        let g = wheel(12).unwrap();
        let dg = DistributedGraph::partition(&g, 3, VertexCut::Greedy, 2).unwrap();
        let out = run_gas(&dg, &DegreeProgram, u64::MAX).unwrap();
        for v in 0..g.num_vertices() {
            assert_eq!(out.data[v as usize], g.degree(v) as u64, "degree of {v}");
        }
    }

    #[test]
    fn network_traffic_counted() {
        let g = rmat(7, 95).unwrap();
        let r = triangle_count(&g, cfg(4, u64::MAX)).unwrap();
        assert!(r.network_bytes > 0);
        assert!(r.replication_factor >= 1.0);
    }

    #[test]
    fn triangle_free_graph() {
        let g = grid(10, 10).unwrap();
        let r = triangle_count(&g, cfg(3, u64::MAX)).unwrap();
        assert_eq!(r.triangles, 0);
    }

    #[test]
    fn zero_machines_rejected() {
        let g = wheel(5).unwrap();
        assert!(triangle_count(&g, cfg(0, 100)).is_err());
    }
}
