//! Storage-integrity tests: injected disk corruption (bit flips,
//! truncations, torn writes) against the checksummed manifests must be
//! *detected* (typed error) or *healed* (replica re-copy / range
//! reassignment) — never silently counted.
//!
//! Every fault is deterministic: single-process corruption goes through
//! [`DiskFaultSpec`]/[`DiskFaultPlan`] (the disk-fault grammar), cluster
//! replica corruption through the `corrupt@<node>` directive of the
//! [`FaultPlan`].

use std::path::Path;
use std::time::Duration;

use proptest::prelude::*;

use pdtl::cluster::{Catalog, ClusterConfig, ClusterRunner, FaultPlan, RetryPolicy, TransportKind};
use pdtl::core::orient::orient_to_disk_with;
use pdtl::core::{LocalConfig, LocalRunner, MgtOptions};
use pdtl::graph::datasets::Dataset;
use pdtl::graph::gen::rmat::rmat;
use pdtl::graph::verify::triangle_count;
use pdtl::graph::{DiskGraph, Graph};
use pdtl::io::diskfault::{DiskFaultKind, DiskFaultPlan, DiskFaultSpec, FaultTarget};
use pdtl::io::{Codec, IoStats, MemoryBudget};

fn graph() -> Graph {
    Dataset::Rmat(7).build().unwrap()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-disk-fault-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The budgets every single-process check runs at, on 2 cores: 2 048
/// edges hold `G*` of the RMAT-7 fixture, so that run orients into
/// memory; 256 do not, so its twin writes and streams the oriented
/// files.
const BUDGETS: [usize; 2] = [2048, 256];

fn local(codec: Codec, budget: usize) -> LocalRunner {
    LocalRunner::new(LocalConfig {
        cores: 2,
        budget: MemoryBudget::edges(budget),
        mgt: MgtOptions {
            codec,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap()
}

/// Open-then-count on a possibly-corrupt base: the detection may fire
/// at open (quick tier) or at run entry (full tier); this helper
/// collapses both into one `Result<u64, String>`.
fn try_count(base: &Path, work: &Path, codec: Codec, budget: usize) -> Result<u64, String> {
    let stats = IoStats::new();
    let dg = DiskGraph::open(base, &stats).map_err(|e| e.to_string())?;
    local(codec, budget)
        .run(&dg, work)
        .map(|r| r.triangles)
        .map_err(|e| e.to_string())
}

fn assert_detected(tag: &str, outcome: Result<u64, String>) {
    let msg = outcome.expect_err(&format!("{tag}: corruption must not yield a count"));
    let lower = msg.to_lowercase();
    assert!(
        lower.contains("corrupt") || lower.contains("truncated"),
        "{tag}: error must be a typed integrity failure, got: {msg}"
    );
}

/// Acceptance case, single-process half: a bit flip, a truncation, or
/// a torn write anywhere in the input file set turns the run into a
/// typed error — under both oriented-output codecs, never a wrong
/// count, never a panic. (Input graphs are always the raw pair by
/// contract; the codec governs the oriented copy.)
#[test]
fn corrupted_input_errors_instead_of_counting() {
    let g = graph();
    for codec in Codec::ALL {
        for (kind, seed) in [
            (DiskFaultKind::BitFlip, 12345u64),
            (DiskFaultKind::Truncate, 999),
            (DiskFaultKind::TornWrite, 31_337),
        ] {
            let tag = format!("{codec:?}-{kind:?}");
            let dir = tmpdir(&tag);
            let stats = IoStats::new();
            DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
            let spec = DiskFaultSpec {
                kind,
                target: FaultTarget::Adj,
                seed,
            };
            let hit = spec.apply(&dir.join("g")).unwrap();
            assert!(hit.is_some(), "{tag}: .adj always exists");
            for budget in BUDGETS {
                let outcome = try_count(&dir.join("g"), &dir.join("w"), codec, budget);
                assert_detected(&format!("{tag} budget {budget}"), outcome);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Corruption of *any* file an oriented graph carries — data, sidecars,
/// or the manifest itself — is caught by open or by the full-digest
/// tier. No target escapes.
#[test]
fn every_oriented_file_is_covered_by_verification() {
    let g = graph();
    for codec in Codec::ALL {
        for target in FaultTarget::ALL {
            let tag = format!("cover-{codec:?}-{}", target.ext().trim_start_matches('.'));
            let dir = tmpdir(&tag);
            let stats = IoStats::new();
            let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
            let (og, _) = orient_to_disk_with(&input, dir.join("o"), 2, codec, &stats).unwrap();
            let base = og.disk.base().to_path_buf();
            let spec = DiskFaultSpec {
                kind: DiskFaultKind::BitFlip,
                target,
                seed: 42,
            };
            if spec.apply(&base).unwrap().is_none() {
                // this codec does not produce the target file (e.g.
                // raw has no .hdr/.vix); nothing to corrupt.
                continue;
            }
            let outcome = match DiskGraph::open(&base, &stats) {
                Err(e) => Err(e.to_string()),
                Ok(dg) => match dg.verify_full() {
                    Err(e) => Err(e.to_string()),
                    Ok(_) => Ok(0),
                },
            };
            assert_detected(&tag, outcome);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Garbage sidecars of the *correct length* defeat the pure length
/// check; the quick tier's small-file digests must still reject them
/// at open time.
#[test]
fn same_length_garbage_sidecars_are_rejected_at_open() {
    let g = graph();
    let stats = IoStats::new();
    for ext in [".hdr", ".vix", ".skt", ".mft"] {
        let tag = format!("garbage{ext}");
        let dir = tmpdir(&tag);
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let (og, _) =
            orient_to_disk_with(&input, dir.join("o"), 2, Codec::DeltaVarint, &stats).unwrap();
        let victim = og
            .disk
            .file_set()
            .into_iter()
            .find(|p| p.to_string_lossy().ends_with(ext))
            .unwrap_or_else(|| panic!("{tag}: oriented delta-varint graph carries {ext}"));
        let len = std::fs::metadata(&victim).unwrap().len() as usize;
        std::fs::write(&victim, vec![0xABu8; len]).unwrap();
        let err = DiskGraph::open(og.disk.base(), &stats)
            .err()
            .unwrap_or_else(|| panic!("{tag}: garbage sidecar must fail open"))
            .to_string()
            .to_lowercase();
        assert!(
            err.contains("corrupt") || err.contains("truncated"),
            "{tag}: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A base without its `.mft` is a write that never committed (a crash
/// before the manifest's rename): counting it is a typed refusal naming
/// the missing file, at either budget and under either codec — never a
/// count over bytes nothing verifies.
#[test]
fn bases_without_a_manifest_are_refused() {
    let g = graph();
    for codec in Codec::ALL {
        let dir = tmpdir(&format!("uncommitted-{codec:?}"));
        let dg = DiskGraph::write(&g, dir.join("g"), &IoStats::new()).unwrap();
        std::fs::remove_file(dg.mft_path()).unwrap();
        let mft = dg.mft_path().to_string_lossy().into_owned();
        for budget in BUDGETS {
            let err = try_count(&dir.join("g"), &dir.join("w"), codec, budget).unwrap_err();
            let tag = format!("{codec:?} budget {budget}");
            assert!(err.contains(&mft), "{tag}: {err}");
            assert!(err.contains("never committed"), "{tag}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An undirected base stored delta-varint is refused with a typed
/// error naming its `.hdr` — by the local runner, by the cluster, and
/// by the serve catalog, which lists it under `rejected` and opens —
/// instead of orientation reading encoded words as vertex ids.
#[test]
fn compressed_undirected_input_is_refused_by_every_entry_point() {
    let dir = tmpdir("varint-input");
    let stats = IoStats::new();
    let graphs = dir.join("graphs");
    std::fs::create_dir_all(&graphs).unwrap();
    let g = rmat(9, 5).unwrap();
    let input = DiskGraph::write_with(&g, graphs.join("g"), Codec::DeltaVarint, &stats).unwrap();
    let hdr = input.hdr_path().display().to_string();

    for budget in BUDGETS {
        let local = local(Codec::Raw, budget).run(&input, &dir.join("local"));
        let local = local.unwrap_err().to_string();
        assert!(
            local.contains(&hdr),
            "local runner at budget {budget}: {local}"
        );
    }
    let cluster = ClusterRunner::new(ClusterConfig::default()).unwrap();
    let cluster = cluster
        .run(&input, &dir.join("cluster"))
        .unwrap_err()
        .to_string();
    assert!(cluster.contains(&hdr), "cluster: {cluster}");
    let catalog = Catalog::open(&graphs, &dir.join("serve"), &[Codec::Raw], 1).unwrap();
    let rejected = catalog.rejected();
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert_eq!(rejected[0].0, "g");
    assert!(rejected[0].1.contains(&hdr), "catalog: {rejected:?}");
    drop(catalog);
    let _ = std::fs::remove_dir_all(&dir);
}

fn cluster_cfg(codec: Codec, transport: TransportKind, fault: &str) -> ClusterConfig {
    ClusterConfig {
        nodes: 3,
        cores_per_node: 2,
        budget: MemoryBudget::edges(2048),
        transport,
        mgt: MgtOptions {
            codec,
            ..Default::default()
        },
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

fn cluster_run(g: &Graph, cfg: ClusterConfig, tag: &str) -> pdtl::cluster::ClusterReport {
    let dir = tmpdir(tag);
    let stats = IoStats::new();
    let input = DiskGraph::write(g, dir.join("g"), &stats).unwrap();
    let report = ClusterRunner::new(cfg).unwrap().run(&input, &dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Acceptance case, cluster half A: a transiently corrupted replica is
/// caught by the post-copy digest check and healed by re-copying under
/// the retry policy — exact count, no failed nodes, over both
/// transports and both codecs.
#[test]
fn transient_replica_corruption_heals_by_recopy() {
    let g = graph();
    let expected = triangle_count(&g);
    for codec in Codec::ALL {
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            let tag = format!("heal-{codec:?}-{transport:?}");
            let report = cluster_run(&g, cluster_cfg(codec, transport, "corrupt@1x1:adj"), &tag);
            assert_eq!(report.triangles, expected, "{tag}");
            assert_eq!(report.node_triangle_sum(), expected, "{tag}");
            assert!(report.retries >= 1, "{tag}: the re-copy must be counted");
            assert!(report.failed_nodes.is_empty(), "{tag}");
        }
    }
}

/// Acceptance case, cluster half B: a replica that is corrupted on
/// *every* copy attempt exhausts the retry budget; the node is declared
/// failed and its ranges move to healthy nodes — the count stays exact.
#[test]
fn persistent_replica_corruption_fails_node_and_reassigns() {
    let g = graph();
    let expected = triangle_count(&g);
    for codec in Codec::ALL {
        for transport in [TransportKind::InProc, TransportKind::Tcp] {
            let tag = format!("reassign-{codec:?}-{transport:?}");
            let report = cluster_run(&g, cluster_cfg(codec, transport, "corrupt@1:adj"), &tag);
            assert_eq!(report.triangles, expected, "{tag}");
            assert_eq!(report.failed_nodes, vec![1], "{tag}");
            assert!(report.reassigned_ranges >= 1, "{tag}");
        }
    }
}

/// Seeded disk-fault plans under both codecs. Phase 1 corrupts a
/// written input: if the plan touched any file the count must fail
/// typed, otherwise it must be exact. Phase 2 corrupts an *oriented*
/// base (which carries the `.map`/`.skt`/sidecar targets) and requires
/// the full-digest tier to object. Every plan damages at least one file
/// across the two phases, so none passes as a clean run.
#[test]
fn env_driven_disk_fault_plan_is_detected_or_absent() {
    let g = graph();
    let expected = triangle_count(&g);
    let stats = IoStats::new();
    let plans = [
        "bitflip@adj:97",
        "truncate@skt:55",
        "torn@deg:23",
        "bitflip@mft:7;truncate@vix:11",
    ];
    for codec in Codec::ALL {
        for text in plans {
            let plan = DiskFaultPlan::parse(text).unwrap();
            let tag = format!("plan-{codec:?}-{}", text.replace([';', ':', '@'], "-"));

            let dir = tmpdir(&format!("{tag}-input"));
            DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
            let on_input = plan.apply(&dir.join("g")).unwrap();
            for budget in BUDGETS {
                let outcome = try_count(&dir.join("g"), &dir.join("w"), codec, budget);
                let tag = format!("{tag} budget {budget}");
                if on_input.is_empty() {
                    assert_eq!(outcome.unwrap(), expected, "{tag}");
                } else {
                    assert_detected(&tag, outcome);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);

            let dir = tmpdir(&format!("{tag}-oriented"));
            let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
            let (og, _) = orient_to_disk_with(&input, dir.join("o"), 2, codec, &stats).unwrap();
            let base = og.disk.base().to_path_buf();
            let on_oriented = plan.apply(&base).unwrap();
            let outcome = match DiskGraph::open(&base, &stats) {
                Err(e) => Err(e.to_string()),
                Ok(dg) => match dg.verify_full() {
                    Err(e) => Err(e.to_string()),
                    Ok(_) => Ok(0),
                },
            };
            if on_oriented.is_empty() {
                assert!(outcome.is_ok(), "{tag}: clean oriented base must verify");
            } else {
                assert_detected(&tag, outcome);
            }
            let _ = std::fs::remove_dir_all(&dir);
            assert!(
                on_input.len() + on_oriented.len() > 0,
                "{tag}: the plan must damage some file"
            );
        }
    }
}

/// Strategy: an arbitrary simple graph, as in `tests/properties.rs`.
fn arb_graph(n: u32, m: usize) -> impl Strategy<Value = Graph> {
    prop::collection::vec((0..n, 0..n), 1..m)
        .prop_map(move |edges| Graph::from_edges(n, &edges).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite 3's property: truncating any file of the set at any
    /// point, under either codec, yields a typed error or the exact
    /// count — never a panic, never a wrong answer.
    #[test]
    fn random_truncation_never_miscounts(
        g in arb_graph(24, 120),
        pick in any::<u64>(),
        cut in any::<u64>(),
        compressed in any::<bool>(),
    ) {
        let expected = triangle_count(&g);
        let codec = if compressed { Codec::DeltaVarint } else { Codec::Raw };
        let dir = tmpdir(&format!("prop-{pick:x}-{cut:x}"));
        let stats = IoStats::new();
        let dg = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let files = dg.file_set();
        let victim = &files[(pick % files.len() as u64) as usize];
        let len = std::fs::metadata(victim).unwrap().len();
        if len > 0 {
            std::fs::OpenOptions::new()
                .write(true)
                .open(victim)
                .unwrap()
                .set_len(cut % len)
                .unwrap();
        }
        // These graphs are far smaller than RMAT-7: their twin runs at 2
        // edges (1-edge chunks) so that it, too, streams `G*` from disk.
        for budget in [BUDGETS[0], 2] {
            match try_count(&dir.join("g"), &dir.join("w"), codec, budget) {
                Ok(t) => prop_assert_eq!(t, expected),
                Err(msg) => {
                    let lower = msg.to_lowercase();
                    prop_assert!(
                        lower.contains("corrupt")
                            || lower.contains("truncated")
                            || lower.contains("header"),
                        "typed failure expected at budget {}, got: {}",
                        budget,
                        msg
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
