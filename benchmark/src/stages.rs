//! The three stages of one workload run. The parent runs each in a
//! child of the same binary so numbers do not bleed into each other:
//! generation memory never reaches the run child's `VmHWM`, and the
//! run child opens only the files the setup child wrote.
//!
//! * `setup` — generate + write the input from the seed (three times;
//!   each wall is one `setup_s` sample), then compute the oracle.
//! * `run` — one warm-up (whose `VmHWM` is `peak_rss_mb`), then
//!   untraced operations back to back for the measured window.
//! * `trace` — untraced and traced operations alternating for the same
//!   window, then the isolated layer probes.
//!
//! A stage returns its [`Records`]; `main` prints them for the parent.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pdtl_baselines::inmem::forward;
use pdtl_graph::gen::rmat::rmat;
use pdtl_graph::DiskGraph;
use pdtl_io::IoStats;

use crate::contract::{Kind, Workload};
use crate::env::{bench_dir, peak_rss_mib};
use crate::ops::{err, run_traced, run_untraced, Expected, Paths, Res};
use crate::records::Records;
use crate::trace::Tracer;
use crate::{probes, serve};

/// What the parent tells a stage child.
#[derive(Debug, Clone)]
pub struct StageArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured window in seconds.
    pub seconds: f64,
    /// The run's scratch directory.
    pub scratch: PathBuf,
    /// Smoke profile: tiny graphs, minimum repetitions.
    pub smoke: bool,
}

impl StageArgs {
    fn paths(&self) -> Paths {
        Paths {
            scratch: self.scratch.clone(),
        }
    }

    /// Set-ups per run (each one `setup_s` sample).
    fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Fewest timed operations per run, whatever the window.
    fn min_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            3
        }
    }

    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Generate and write the input `setup_reps` times, then the oracle.
pub fn setup(args: &StageArgs) -> Res<Records> {
    let paths = args.paths();
    let w = args.workload;
    let mut rec = Records::default();
    let mut graph = None;
    for _ in 0..args.setup_reps() {
        let _ = std::fs::remove_dir_all(paths.input_dir());
        std::fs::create_dir_all(paths.input_dir()).map_err(err)?;
        let start = Instant::now();
        let g = rmat(w.scale_for(args.smoke), args.seed).map_err(err)?;
        let generated = start.elapsed();
        DiskGraph::write(&g, paths.input_base(), &IoStats::new()).map_err(err)?;
        let written = start.elapsed();
        if w.kind == Kind::Serve {
            // What a `pdtl serve` user waits for before the first query.
            let (server, opened) = serve::spawn_daemon(&paths)?;
            server.shutdown();
            rec.push("server.catalog_open_s", opened.as_secs_f64());
        }
        rec.push("setup_s", start.elapsed().as_secs_f64());
        rec.push("graph.gen_s", generated.as_secs_f64());
        rec.push("graph.write_s", (written - generated).as_secs_f64());
        graph = Some(g);
    }
    let g = graph.ok_or("no set-up ran")?;

    // The oracle shares no code path with the engine under test: an
    // in-memory forward count over the generated `Graph`.
    let start = Instant::now();
    let triangles = forward(&g);
    rec.push("graph.oracle_s", start.elapsed().as_secs_f64());
    let mut expected = Records::default();
    expected.set("expected.triangles", triangles as f64);
    expected.set(
        "expected.transitivity",
        pdtl_analytics::clustering::transitivity(&g, triangles),
    );
    std::fs::write(paths.expected(), expected.render()).map_err(err)?;
    rec.set("graph.vertices", f64::from(g.num_vertices()));
    rec.set("graph.edges", g.num_edges() as f64);
    rec.set("graph.triangles", triangles as f64);
    Ok(rec)
}

/// Tally of operations attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one operation; a wrong count is a failure like any error.
    fn op(&mut self, what: &str, outcome: Res<u64>, expected: &Expected) -> bool {
        self.attempted += 1;
        let problem = match outcome {
            Ok(found) if found == expected.triangles => return true,
            Ok(found) => format!("found {found} triangles, oracle {}", expected.triangles),
            Err(e) => e,
        };
        eprintln!("bench: {what} failed: {problem}");
        self.failed += 1;
        false
    }

    fn push(&self, rec: &mut Records) {
        rec.set("attempted", self.attempted as f64);
        rec.set("failed", self.failed as f64);
    }
}

fn serve_window(args: &StageArgs) -> Duration {
    if args.smoke {
        Duration::from_secs(1)
    } else {
        args.window()
    }
}

/// Run the closed loop against a fresh daemon; returns the loop's
/// result and the daemon's final counters.
fn serve_loop(
    args: &StageArgs,
    expected: &Expected,
    tally: &mut Tally,
) -> Res<(serve::LoopResult, pdtl_cluster::ServerStats)> {
    let (server, _) = serve::spawn_daemon(&args.paths())?;
    let result = serve::closed_loop(&server.addr(), serve_window(args), args.seed, expected);
    let stats = server.shutdown();
    let result = result?;
    for f in &result.failures {
        eprintln!("bench: query failed: {f}");
    }
    tally.attempted += (result.samples.len() + result.failures.len()) as u64;
    // A query the daemon counts as failed but no client saw is still a
    // failure.
    tally.failed += (result.failures.len() as u64).max(stats.failed);
    Ok((result, stats))
}

/// The untraced run: what the end-to-end metrics are read from.
pub fn run(args: &StageArgs) -> Res<Records> {
    let paths = args.paths();
    let w = args.workload;
    let expected = Expected::load(&paths)?;
    let mut tally = Tally::default();
    let mut rec = Records::default();
    if w.kind == Kind::Serve {
        let (result, _) = serve_loop(args, &expected, &mut tally)?;
        serve::push_end_to_end(&mut rec, &result);
        rec.set("peak_rss_mb", result.warm_peak_rss_mib);
    } else {
        // Warm-up: page cache filled, lazy set-up done. Not a timing
        // sample — but it is exactly one operation in a fresh process,
        // which is what a `pdtl count` user's memory peaks at. Later
        // repetitions only add allocator retention (20 → 70 MiB over
        // 19 repetitions of `count-1pass`), so `VmHWM` is read here.
        let warm = run_untraced(w, &paths, &mut Records::default())?;
        if warm != expected.triangles {
            return Err(format!(
                "warm-up found {warm} triangles, oracle {}",
                expected.triangles
            ));
        }
        rec.set("peak_rss_mb", peak_rss_mib()?);
        let begin = Instant::now();
        let mut done = 0usize;
        while done < args.min_reps() || begin.elapsed() < args.window() {
            let outcome = run_untraced(w, &paths, &mut rec);
            done += usize::from(tally.op(w.name, outcome, &expected));
            if tally.failed > 3 {
                break;
            }
        }
        rec.set("ops_per_s", done as f64 / begin.elapsed().as_secs_f64());
    }
    tally.push(&mut rec);
    Ok(rec)
}

/// The traced run: untraced and traced operations alternate, so both
/// medians see the same minutes of host noise; then the layer probes.
pub fn trace(args: &StageArgs) -> Res<Records> {
    let paths = args.paths();
    let w = args.workload;
    let expected = Expected::load(&paths)?;
    let mut rec = Records::default();
    let mut tally = Tally::default();
    let mut tracer = Tracer::default();
    if w.kind == Kind::Serve {
        let (result, stats) = serve_loop(args, &expected, &mut tally)?;
        serve::push_end_to_end(&mut rec, &result);
        serve::push_layers(&mut rec, &result, &stats);
        rec.set("server.rss_after_load_mb", peak_rss_mib()?);
        serve::record_spans(&mut tracer, &result);
    } else {
        run_untraced(w, &paths, &mut Records::default())?;
        let begin = Instant::now();
        let mut pairs = 0u32;
        while (pairs as usize) < args.min_reps() || begin.elapsed() < args.window() {
            let outcome = run_untraced(w, &paths, &mut rec);
            tally.op(w.name, outcome, &expected);
            let outcome = run_traced(w, &paths, &mut tracer, pairs, &mut rec);
            tally.op("traced run", outcome, &expected);
            pairs += 1;
            if tally.failed > 3 {
                break;
            }
        }
    }
    let trace_file = bench_dir()?.join(format!("trace-{}.json", w.name));
    tracer
        .write_chrome_trace(&trace_file, w.name)
        .map_err(err)?;
    rec.set("trace.spans", tracer.spans().len() as f64);

    probes::intersect_probes(&mut rec);
    probes::message_probes(&mut rec)?;
    probes::transport_probes(&mut rec)?;
    probes::graph_probes(w, &paths, &expected, &mut rec)?;
    tally.push(&mut rec);
    Ok(rec)
}
