//! Fault-injection tests of the cluster runtime: seeded node kills,
//! transient crashes, stalls, slow nodes, truncated replicas and failed
//! copies must all leave the triangle count exact, with honest failure
//! counters.
//!
//! Every fault here is driven by a deterministic [`FaultPlan`]; no test
//! uses wall-clock sleeps for synchronization — detection happens through
//! the runner's own heartbeat/deadline machinery.

use std::time::Duration;

use pdtl::cluster::{
    ClusterConfig, ClusterReport, ClusterRunner, FaultPlan, RetryPolicy, TransportKind,
};
use pdtl::graph::datasets::Dataset;
use pdtl::graph::verify::triangle_count;
use pdtl::graph::{DiskGraph, Graph};
use pdtl::io::{IoStats, MemoryBudget};

fn graph() -> Graph {
    Dataset::Rmat(8).build().unwrap()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-fault-tests")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A cluster config with fast retries and a short failure deadline so
/// stall detection does not dominate test wall time.
fn cfg(nodes: usize, transport: TransportKind, fault: &str) -> ClusterConfig {
    ClusterConfig {
        nodes,
        cores_per_node: 2,
        budget: MemoryBudget::edges(2048),
        transport,
        retry: RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(2),
            seed: 7,
        },
        heartbeat: Duration::from_millis(10),
        node_deadline: Duration::from_millis(400),
        fault: FaultPlan::parse(fault).unwrap(),
        ..Default::default()
    }
}

fn run(g: &Graph, cfg: ClusterConfig, tag: &str) -> pdtl::cluster::Result<ClusterReport> {
    let dir = tmpdir(tag);
    let stats = IoStats::new();
    let input = DiskGraph::write(g, dir.join("g"), &stats).unwrap();
    let report = ClusterRunner::new(cfg).unwrap().run(&input, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The issue's acceptance case: kill k of N nodes mid-run over both
/// transports, for k = 1 and k = N - 1, and still get the exact count
/// with the failures recorded.
#[test]
fn seeded_kills_stay_exact_over_both_transports() {
    let g = graph();
    let expected = triangle_count(&g);
    for transport in [TransportKind::InProc, TransportKind::Tcp] {
        for (kill, seed) in [(1u32, 101u64), (3, 202)] {
            let plan = format!("seed={seed};kill={kill}");
            let tag = format!("kill-{kill}-{transport:?}");
            let report = run(&g, cfg(4, transport, &plan), &tag).unwrap();
            assert_eq!(report.triangles, expected, "{tag}");
            assert_eq!(report.node_triangle_sum(), expected, "{tag}");
            assert_eq!(report.failed_nodes.len(), kill as usize, "{tag}");
            assert!(report.retries >= 1, "{tag}: respawns must be counted");
            assert!(
                report.reassigned_ranges >= 1,
                "{tag}: a dead node's ranges must move"
            );
        }
    }
}

/// Killing every node exhausts reassignment targets; the master-local
/// fallback still produces the exact count.
#[test]
fn killing_every_node_falls_back_to_master() {
    let g = graph();
    let expected = triangle_count(&g);
    let report = run(
        &g,
        cfg(3, TransportKind::InProc, "seed=9;kill=3"),
        "kill-all",
    )
    .unwrap();
    assert_eq!(report.triangles, expected);
    assert_eq!(report.failed_nodes, vec![0, 1, 2]);
    assert!(report.reassigned_ranges >= 1);
}

/// A transient crash (`x1`) recovers on respawn: retries recorded, no
/// terminal failure, no reassignment.
#[test]
fn transient_panic_recovers_on_respawn() {
    let g = graph();
    let expected = triangle_count(&g);
    let report = run(&g, cfg(3, TransportKind::InProc, "panic@1x1"), "transient").unwrap();
    assert_eq!(report.triangles, expected);
    assert!(report.retries >= 1);
    assert!(report.failed_nodes.is_empty());
    assert_eq!(report.reassigned_ranges, 0);
}

/// A wedged node (no heartbeats, no results) is found by the deadline,
/// not by waiting forever; a transient stall recovers on respawn.
#[test]
fn stall_is_detected_by_heartbeat_deadline() {
    let g = graph();
    let expected = triangle_count(&g);
    let report = run(&g, cfg(3, TransportKind::InProc, "stall@1x1"), "stall").unwrap();
    assert_eq!(report.triangles, expected);
    assert!(
        report.retries >= 1,
        "the stall must be detected and retried"
    );
    assert!(report.failed_nodes.is_empty());
}

/// A slow node whose delay exceeds the deadline is NOT declared dead:
/// its heartbeats keep flowing, distinguishing slow from wedged.
#[test]
fn delayed_node_survives_via_heartbeats() {
    let g = graph();
    let expected = triangle_count(&g);
    let mut c = cfg(3, TransportKind::InProc, "delay@1:600");
    c.node_deadline = Duration::from_millis(300);
    let report = run(&g, c, "delay").unwrap();
    assert_eq!(report.triangles, expected);
    assert_eq!(report.retries, 0, "heartbeats must keep a slow node alive");
    assert!(report.failed_nodes.is_empty());
    assert!(report.network.control > 0, "heartbeats are counted traffic");
}

/// A truncated replica makes every worker on the node error; transient
/// recovers, persistent ends in reassignment. Either way the count is
/// exact.
#[test]
fn short_reads_recover_or_reassign() {
    let g = graph();
    let expected = triangle_count(&g);

    let transient = run(
        &g,
        cfg(3, TransportKind::InProc, "shortread@1x1:4"),
        "shortread-x1",
    )
    .unwrap();
    assert_eq!(transient.triangles, expected);
    assert!(transient.retries >= 1);
    assert!(transient.failed_nodes.is_empty());

    let persistent = run(
        &g,
        cfg(3, TransportKind::InProc, "shortread@1:4"),
        "shortread",
    )
    .unwrap();
    assert_eq!(persistent.triangles, expected);
    assert_eq!(persistent.failed_nodes, vec![1]);
    assert!(persistent.reassigned_ranges >= 1);
}

/// A failed replica copy is retried (transient) or routes the node's
/// ranges elsewhere (persistent); the count stays exact. Copies and
/// dispatches share one retry loop, each stage with its own
/// `max_attempts` (3 here): two failures cost two retries and no node,
/// three cost the node — for a copy exactly as for a dispatch.
#[test]
fn copy_failures_retry_then_reassign() {
    let g = graph();
    let expected = triangle_count(&g);

    let transient = run(
        &g,
        cfg(3, TransportKind::InProc, "copyfail@1x1"),
        "copyfail-x1",
    )
    .unwrap();
    assert_eq!(transient.triangles, expected);
    assert!(transient.retries >= 1);
    assert!(transient.failed_nodes.is_empty());

    let persistent = run(&g, cfg(3, TransportKind::InProc, "copyfail@1"), "copyfail").unwrap();
    assert_eq!(persistent.triangles, expected);
    assert_eq!(persistent.failed_nodes, vec![1]);

    for kind in ["copyfail", "panic"] {
        let plan = format!("{kind}@1x2");
        let within = run(&g, cfg(3, TransportKind::InProc, &plan), &plan).unwrap();
        assert_eq!(within.triangles, expected, "{plan}");
        assert_eq!(within.retries, 2, "{plan}");
        assert!(within.failed_nodes.is_empty(), "{plan}");

        let plan = format!("{kind}@1x3");
        let spent = run(&g, cfg(3, TransportKind::InProc, &plan), &plan).unwrap();
        assert_eq!(spent.triangles, expected, "{plan}");
        assert_eq!(spent.retries, 2, "{plan}");
        assert_eq!(spent.failed_nodes, vec![1], "{plan}");
        assert!(spent.reassigned_ranges >= 1, "{plan}");
    }
}

/// Listing mode with a killed node: the retry/reassignment path must
/// not duplicate or drop triangles from a partially-finished dispatch.
#[test]
fn listing_with_killed_node_has_no_duplicates() {
    let g = Dataset::Rmat(7).build().unwrap();
    let expected = triangle_count(&g);
    let mut c = cfg(3, TransportKind::InProc, "seed=303;kill=1");
    c.listing = true;
    let report = run(&g, c, "listing-kill").unwrap();
    assert_eq!(report.triangles, expected);
    let mut listed = report.listed.clone().unwrap();
    assert_eq!(listed.len() as u64, expected);
    listed.sort_unstable();
    listed.dedup();
    assert_eq!(listed.len() as u64, expected, "no duplicate triangles");
}

/// Seeded kill plans killing one, two and three of four nodes: every
/// run stays exact and reports exactly the `k` victims as failed.
#[test]
fn env_driven_plan_stays_exact() {
    let g = graph();
    let expected = triangle_count(&g);
    for (seed, kill) in [(101u64, 1usize), (202, 2), (303, 3)] {
        let plan = format!("seed={seed};kill={kill}");
        let report = run(&g, cfg(4, TransportKind::InProc, &plan), &plan).unwrap();
        assert_eq!(report.triangles, expected, "{plan}");
        assert_eq!(report.node_triangle_sum(), expected, "{plan}");
        assert_eq!(report.failed_nodes.len(), kill, "{plan}");
    }
}
