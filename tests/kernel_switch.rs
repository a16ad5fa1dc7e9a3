//! The sink picks the join's kernel (`TriangleSink::wants_triples`):
//! a counting sink has the mark bytes summed, a listing sink has its
//! hits compacted and emitted, and a `LimitSink` switches from the
//! second to the first once it is full. The switch may change what is
//! emitted and nothing else: every counter a worker reports, its I/O
//! included, must read as a counting run's, and the kept triples must
//! be the prefix of the full listing.

use pdtl::core::metrics::WorkerReport;
use pdtl::core::orient::{orient_to_disk_with, OrientedGraph};
use pdtl::core::sink::{CollectSink, CountSink, LimitSink, TriangleSink};
use pdtl::core::{LocalConfig, LocalRunner, RunReport};
use pdtl::graph::gen::classic::{erdos_renyi, wheel};
use pdtl::graph::gen::rmat::rmat;
use pdtl::graph::verify::triangle_count;
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

#[test]
fn a_full_limit_sink_changes_only_what_is_emitted() {
    let graphs: [(&str, Graph); 4] = [
        ("rmat7", rmat(7, 3).unwrap()),
        ("rmat8", rmat(8, 21).unwrap()),
        ("er", erdos_renyi(90, 900, 5).unwrap()),
        ("wheel", wheel(40).unwrap()),
    ];
    let stats = IoStats::new();
    let mut runs = 0;
    for (tag, g) in &graphs {
        let dir = tmpdir(tag);
        let input = DiskGraph::write(g, dir.join("g"), &stats).unwrap();
        for codec in Codec::ALL {
            let out = dir.join(codec.name());
            let (og, _) = orient_to_disk_with(&input, &out, 2, codec, &stats).unwrap();
            let m_star = og.m_star() as usize;
            // One-edge chunks, a few passes, and the whole graph at once.
            for budget in [1, m_star / 5 + 1, m_star + 1] {
                for cores in 1..=3 {
                    let case = format!("{tag} {codec} budget {budget} cores {cores}");
                    let (counted, _) = run(&og, cores, budget, || CountSink);
                    let (listed, collected) = run(&og, cores, budget, CollectSink::default);
                    let listing = CollectSink::concat(collected);
                    let t = counted.triangles;
                    assert_eq!(listing.len() as u64, t, "{case}");
                    let want: Vec<_> = counted.workers.iter().map(counters).collect();
                    let got: Vec<_> = listed.workers.iter().map(counters).collect();
                    assert_eq!(got, want, "{case}: listing");

                    let share = counted.workers[0].triangles as usize;
                    let limits = [0, 1, share.saturating_sub(1), share, t as usize + 5];
                    for k in limits {
                        let (limited, sinks) = run(&og, cores, budget, || LimitSink::new(k));
                        assert_eq!(limited.plan, counted.plan, "{case} k {k}");
                        assert_eq!(limited.triangles, t, "{case} k {k}");
                        let got: Vec<_> = limited.workers.iter().map(counters).collect();
                        assert_eq!(got, want, "{case} k {k}");
                        let kept = LimitSink::concat(sinks);
                        assert_eq!(kept, listing[..k.min(listing.len())], "{case} k {k}");
                        runs += 1;
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(runs, 4 * 2 * 3 * 3 * 5);
}
