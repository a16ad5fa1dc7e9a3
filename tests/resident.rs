//! Resident runs: a `LocalRunner` whose workers' chunks hold all of
//! `G*` (`|E*| ≤ P·c·M`) orients into memory and joins in place. On
//! every graph, core count and kind of sink, at the budget that just
//! holds `G*`, one edge below it and one above, the run must answer
//! exactly (`run`'s `CountSink`, `run_listing`'s `CollectSink`, a
//! `VertexCountSink`, a `LimitSink`), keep `G*` in memory exactly at
//! and above that budget, read
//! nothing while it joins and leave no oriented file behind — and a
//! corrupt input must still fail it with the typed integrity error.
//! (That a resident run and a disk run at one budget plan, count and
//! list the same is checked where both can be forced: the unit tests
//! of `pdtl-core`'s runner.)

use std::path::{Path, PathBuf};

use pdtl::analytics::clustering::{per_vertex_counts, VertexCountSink};
use pdtl::core::{LimitSink, LocalConfig, LocalRunner, RunReport};
use pdtl::graph::gen::classic::{erdos_renyi, wheel};
use pdtl::graph::gen::rmat::rmat;
use pdtl::graph::verify::{triangle_count, triangle_list};
use pdtl::graph::{DiskGraph, Graph, RankMap};
use pdtl::io::stats::IoSnapshot;
use pdtl::io::{IoStats, MemoryBudget};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-resident-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("rmat7", rmat(7, 71).unwrap()),
        ("rmat8", rmat(8, 72).unwrap()),
        ("rmat9", rmat(9, 73).unwrap()),
        ("gnm90", erdos_renyi(90, 900, 74).unwrap()),
        ("w40", wheel(40).unwrap()),
    ]
}

/// The smallest budget whose chunks on `cores` workers hold all `m`
/// edges of `G*`: `cores · ⌊budget / 2⌋ ≥ m`.
fn threshold(m: u64, cores: usize) -> usize {
    2 * m.div_ceil(cores as u64) as usize
}

fn runner(cores: usize, budget: usize) -> LocalRunner {
    LocalRunner::new(LocalConfig {
        cores,
        budget: MemoryBudget::edges(budget),
        ..Default::default()
    })
    .unwrap()
}

fn sorted(triples: &[(u32, u32, u32)]) -> Vec<[u32; 3]> {
    let mut canon: Vec<[u32; 3]> = (triples.iter())
        .map(|&(u, v, w)| {
            let mut t = [u, v, w];
            t.sort_unstable();
            t
        })
        .collect();
    canon.sort_unstable();
    canon
}

fn oriented_files(dir: &Path) -> Vec<String> {
    (std::fs::read_dir(dir).unwrap())
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("oriented"))
        .collect()
}

/// What a run must show for where it kept `G*`: resident runs hold no
/// base, read nothing in their workers, write nothing while orienting
/// and leave no `oriented.*` in `work`; disk runs name the base they
/// wrote under `work`.
fn check_store(case: &str, report: &RunReport, resident: bool, work: &Path) {
    if resident {
        assert_eq!(report.oriented_base, None, "{case}");
        for (i, r) in report.ranges.iter().enumerate() {
            assert_eq!(r.io, IoSnapshot::default(), "{case}: range {i}");
        }
        for w in &report.workers {
            assert_eq!(w.io, IoSnapshot::default(), "{case}: core {}", w.worker);
        }
        assert_eq!(report.orientation.io.bytes_written, 0, "{case}");
        assert_eq!(report.orientation.io.write_ops, 0, "{case}");
        assert_eq!(oriented_files(work), Vec::<String>::new(), "{case}");
    } else {
        assert_eq!(report.oriented_base, Some(work.join("oriented")), "{case}");
        assert!(report.orientation.io.bytes_written > 0, "{case}");
    }
}

#[test]
fn every_sink_answers_exactly_and_only_at_the_threshold_stays_resident() {
    for (tag, g) in graphs() {
        let dir = tmpdir(tag);
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let (t, n) = (triangle_count(&g), g.num_vertices());
        let listing = sorted(&triangle_list(&g));
        let per_vertex = per_vertex_counts(n, &triangle_list(&g));
        let ids = RankMap::by_degree(&g.degrees()).into_ids();
        for cores in 1..=3 {
            let at = threshold(g.num_edges(), cores);
            for (budget, resident) in [(at - 1, false), (at, true), (at + 1, true)] {
                let case = format!("{tag} cores {cores} budget {budget}");
                let runner = runner(cores, budget);
                // A fresh work dir per run, so what a run leaves is its own.
                let work = |sink: &str| dir.join(format!("work-{cores}-{budget}-{sink}"));

                let report = runner.run(&input, &work("count")).unwrap();
                assert_eq!(report.triangles, t, "{case} count");
                check_store(&format!("{case} count"), &report, resident, &work("count"));

                let (report, triples) = runner.run_listing(&input, &work("collect")).unwrap();
                assert_eq!(sorted(&triples), listing, "{case} collect");
                check_store(
                    &format!("{case} collect"),
                    &report,
                    resident,
                    &work("collect"),
                );

                let (report, sinks) = runner
                    .run_with_sinks(&input, &work("vertex"), || VertexCountSink::new(n))
                    .unwrap();
                assert_eq!(
                    VertexCountSink::merge(&ids, sinks.into_iter().map(|c| c.sink)),
                    per_vertex,
                    "{case} vertex"
                );
                check_store(
                    &format!("{case} vertex"),
                    &report,
                    resident,
                    &work("vertex"),
                );

                let (report, sinks) = runner
                    .run_with_sinks(&input, &work("limit"), || LimitSink::new(5))
                    .unwrap();
                let limited = LimitSink::concat(sinks);
                assert!(limited.len() <= 5, "{case} limit");
                assert!(limited.len() as u64 <= t, "{case} limit");
                assert_eq!(limited, triples[..5.min(triples.len())], "{case} limit");
                let canon = sorted(&limited);
                assert!(
                    canon.iter().all(|tri| listing.binary_search(tri).is_ok()),
                    "{case} limit: real triangles"
                );
                assert_eq!(report.triangles, t, "{case} limit");
                check_store(&format!("{case} limit"), &report, resident, &work("limit"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_listing_to_file_runs_resident_and_writes_what_a_disk_run_lists() {
    // `pdtl list`'s default budget holds these graphs: the file a
    // resident run writes holds the triangles of a disk run's, 12 bytes
    // each, and only the listing is left beside the input.
    let g = rmat(9, 75).unwrap();
    let dir = tmpdir("list-file");
    let stats = IoStats::new();
    let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
    let out = dir.join("resident.bin");
    let work = dir.join("work");
    let (report, written) = LocalRunner::new(LocalConfig::default())
        .unwrap()
        .run_listing_to_file(&input, &work, &out)
        .unwrap();
    assert_eq!(report.oriented_base, None);
    assert_eq!(written, triangle_count(&g));
    assert_eq!(std::fs::metadata(&out).unwrap().len(), 12 * written);
    assert!(
        std::fs::read_dir(&work).unwrap().next().is_none(),
        "work dir left empty"
    );
    let (_, on_disk) = runner(2, 256)
        .run_listing(&input, &dir.join("disk"))
        .unwrap();
    let resident = pdtl::core::sink::read_triangle_file(&out, stats.clone()).unwrap();
    assert_eq!(sorted(&resident), sorted(&on_disk));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bit_flipped_deep_in_the_input_fails_a_resident_run_typed() {
    let g = rmat(9, 76).unwrap();
    for cores in 1..=3 {
        let dir = tmpdir(&format!("flip-{cores}"));
        let stats = IoStats::new();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let adj = input.adj_path();
        let mut bytes = std::fs::read(&adj).unwrap();
        let deep = bytes.len() * 3 / 4;
        bytes[deep] ^= 0x04;
        std::fs::write(&adj, &bytes).unwrap();
        // The quick tier at open sees only lengths and small files.
        let input = DiskGraph::open(dir.join("g"), &stats).unwrap();
        let budget = threshold(g.num_edges(), cores);
        let err = runner(cores, budget)
            .run(&input, &dir.join("w"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("checksum mismatch"), "{cores} cores: {err}");
        assert!(
            err.contains(&adj.display().to_string()),
            "{cores} cores: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn counting_is_the_same_call_at_any_budget() {
    // `run` decides by itself: the same runner configuration at a
    // resident budget and below it agree on the count, and only the
    // runs below it write `G*`.
    let g = rmat(8, 77).unwrap();
    let dir = tmpdir("same-call");
    let stats = IoStats::new();
    let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
    let expected = triangle_count(&g);
    let reports: Vec<RunReport> = [64usize, 1 << 20]
        .iter()
        .map(|&budget| {
            runner(2, budget)
                .run(&input, &dir.join(format!("w{budget}")))
                .unwrap()
        })
        .collect();
    assert!(reports.iter().all(|r| r.triangles == expected));
    assert!(reports[0].oriented_base.is_some() && reports[1].oriented_base.is_none());
    assert!(reports[0].total_worker_io().bytes_read > 0);
    assert_eq!(reports[1].total_worker_io(), IoSnapshot::default());
    let _ = std::fs::remove_dir_all(&dir);
}
