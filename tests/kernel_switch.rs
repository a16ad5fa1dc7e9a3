//! The sink picks the join's kernel: a sink lending per-vertex
//! counters (`TriangleSink::vertex_counts`) has each triangle added to
//! its three vertices' counters in rank space, a counting sink
//! (`TriangleSink::wants_triples` false) has the mark bytes summed, a
//! listing sink has its hits compacted and emitted, and a `LimitSink`
//! switches from listing to counting once it is full. The switch may
//! change what reaches the sink and nothing else: every counter a
//! worker reports, its I/O included, must read as a counting run's,
//! the kept triples must be the prefix of the full listing, and the
//! per-vertex counts those of the full listing.

use pdtl::analytics::clustering::{per_vertex_counts, VertexCountSink};
use pdtl::core::metrics::WorkerReport;
use pdtl::core::mgt::mgt_in_memory;
use pdtl::core::orient::{orient_csr, orient_to_disk_with, OrientedGraph};
use pdtl::core::sink::{CollectSink, CountSink, LimitSink, TriangleSink};
use pdtl::core::{LocalConfig, LocalRunner, RunReport};
use pdtl::graph::gen::classic::{erdos_renyi, wheel};
use pdtl::graph::gen::rmat::rmat;
use pdtl::graph::verify::{triangle_count, triangle_list};
use pdtl::graph::{DiskGraph, Graph};
use pdtl::io::stats::IoSnapshot;
use pdtl::io::{Codec, IoStats, MemoryBudget};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("pdtl-kernel-switch")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What a worker counted, its I/O wait (a timing) left out.
fn counters(w: &WorkerReport) -> (u64, u64, u64, u64, u64, u64, IoSnapshot) {
    let io = IoSnapshot {
        io_time: Default::default(),
        ..w.io
    };
    let (t, it, ops) = (w.triangles, w.iterations, w.cpu_ops);
    (t, it, ops, w.scanned, w.scan_lists, w.scan_hits, io)
}

fn run<S: TriangleSink + Send>(
    og: &OrientedGraph,
    cores: usize,
    budget: usize,
    make_sink: impl FnMut() -> S,
) -> (RunReport, Vec<S>) {
    let runner = LocalRunner::new(LocalConfig {
        cores,
        budget: MemoryBudget::edges(budget),
        ..LocalConfig::default()
    })
    .unwrap();
    runner.run_oriented_with_sinks(og, make_sink).unwrap()
}

/// A sink that wants no triples and fails the run if handed one.
struct Refusing;

impl TriangleSink for Refusing {
    fn wants_triples(&self) -> bool {
        false
    }

    fn emit(&mut self, u: u32, v: u32, w: u32) {
        panic!("({u}, {v}, {w}) emitted to a sink that wants none");
    }
}

#[test]
fn a_sink_that_wants_no_triples_is_handed_none() {
    let g = rmat(8, 4).unwrap();
    let stats = IoStats::new();
    let dir = tmpdir("refusing");
    let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
    let (og, _) = orient_to_disk_with(&input, dir.join("o"), 2, Codec::Raw, &stats).unwrap();
    for cores in 1..=3 {
        let (report, _) = run(&og, cores, 64, || Refusing);
        assert_eq!(report.triangles, triangle_count(&g), "{cores} cores");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sink that lends counters, says it wants triples, and fails the
/// run if handed one: the lent counters pick the kernel.
struct Lending(Vec<u64>);

impl TriangleSink for Lending {
    fn vertex_counts(&mut self) -> Option<&mut [u64]> {
        Some(&mut self.0)
    }

    fn emit(&mut self, u: u32, v: u32, w: u32) {
        panic!("({u}, {v}, {w}) emitted to a sink that lends its counters");
    }
}

#[test]
fn a_sink_that_lends_counters_is_handed_no_triple() {
    let g = rmat(8, 4).unwrap();
    let want = per_vertex_counts(g.num_vertices(), &triangle_list(&g));
    let stats = IoStats::new();
    let dir = tmpdir("lending");
    let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
    let (og, _) = orient_to_disk_with(&input, dir.join("o"), 2, Codec::Raw, &stats).unwrap();
    let n = og.num_vertices();
    for cores in 1..=3 {
        let (report, sinks) = run(&og, cores, 64, || Lending(vec![0; n as usize]));
        assert_eq!(report.triangles, triangle_count(&g), "{cores} cores");
        let mut counts = vec![0; n as usize];
        for sink in sinks {
            for (r, c) in sink.0.into_iter().enumerate() {
                counts[og.map.to_id(r as u32) as usize] += c;
            }
        }
        assert_eq!(counts, want, "{cores} cores");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every case of the kernel matrix: four graphs × both codecs × three
/// budgets (one-edge chunks, a few passes, the whole graph at once) ×
/// 1–3 cores, handed `(case, graph, replica, budget, cores)`, with its
/// files under a directory named for `test`. Returns the cases run.
fn each_case(
    test: &str,
    mut check: impl FnMut(&str, &Graph, &OrientedGraph, usize, usize),
) -> usize {
    let graphs: [(&str, Graph); 4] = [
        ("rmat7", rmat(7, 3).unwrap()),
        ("rmat8", rmat(8, 21).unwrap()),
        ("er", erdos_renyi(90, 900, 5).unwrap()),
        ("wheel", wheel(40).unwrap()),
    ];
    let stats = IoStats::new();
    let mut cases = 0;
    for (tag, g) in &graphs {
        let dir = tmpdir(&format!("{test}-{tag}"));
        let input = DiskGraph::write(g, dir.join("g"), &stats).unwrap();
        for codec in Codec::ALL {
            let out = dir.join(codec.name());
            let (og, _) = orient_to_disk_with(&input, &out, 2, codec, &stats).unwrap();
            let m_star = og.m_star() as usize;
            for budget in [1, m_star / 5 + 1, m_star + 1] {
                for cores in 1..=3 {
                    let case = format!("{tag} {codec} budget {budget} cores {cores}");
                    check(&case, g, &og, budget, cores);
                    cases += 1;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    cases
}

#[test]
fn a_full_limit_sink_changes_only_what_is_emitted() {
    let mut runs = 0;
    each_case("limit", |case, _, og, budget, cores| {
        let (counted, _) = run(og, cores, budget, || CountSink);
        let (listed, collected) = run(og, cores, budget, CollectSink::default);
        let listing = CollectSink::concat(collected);
        let t = counted.triangles;
        assert_eq!(listing.len() as u64, t, "{case}");
        let want: Vec<_> = counted.workers.iter().map(counters).collect();
        let got: Vec<_> = listed.workers.iter().map(counters).collect();
        assert_eq!(got, want, "{case}: listing");

        let share = counted.workers[0].triangles as usize;
        let limits = [0, 1, share.saturating_sub(1), share, t as usize + 5];
        for k in limits {
            let (limited, sinks) = run(og, cores, budget, || LimitSink::new(k));
            assert_eq!(limited.plan, counted.plan, "{case} k {k}");
            assert_eq!(limited.triangles, t, "{case} k {k}");
            let got: Vec<_> = limited.workers.iter().map(counters).collect();
            assert_eq!(got, want, "{case} k {k}");
            let kept = LimitSink::concat(sinks);
            assert_eq!(kept, listing[..k.min(listing.len())], "{case} k {k}");
            runs += 1;
        }
    });
    assert_eq!(runs, 4 * 2 * 3 * 3 * 5);
}

#[test]
fn a_per_vertex_sink_changes_only_what_is_counted() {
    let cases = each_case("per-vertex", |case, g, og, budget, cores| {
        let n = og.num_vertices();
        let (counted, _) = run(og, cores, budget, || CountSink);
        let (listed, collected) = run(og, cores, budget, CollectSink::default);
        let (per_vertex, sinks) = run(og, cores, budget, || VertexCountSink::new(n));
        assert_eq!(per_vertex.plan, counted.plan, "{case}");
        assert_eq!(per_vertex.triangles, counted.triangles, "{case}");
        let want: Vec<_> = counted.workers.iter().map(counters).collect();
        let got: Vec<_> = per_vertex.workers.iter().map(counters).collect();
        assert_eq!(got, want, "{case}");
        let listing = CollectSink::concat(collected);
        assert_eq!(listing.len() as u64, listed.triangles, "{case}");
        let counts = VertexCountSink::merge(&og.map, sinks);
        assert_eq!(counts, per_vertex_counts(n, &listing), "{case}");

        // The in-memory engine shares the join: one range, same counts.
        if cores == 1 {
            let o = orient_csr(g);
            let budget = MemoryBudget::edges(budget);
            let mut sink = VertexCountSink::new(n);
            let got = mgt_in_memory(&o, budget, &mut sink);
            assert_eq!(got, mgt_in_memory(&o, budget, &mut CountSink), "{case}");
            assert_eq!(VertexCountSink::merge(&o.map, vec![sink]), counts, "{case}");
        }
    });
    assert_eq!(cases, 4 * 2 * 3 * 3);
}
