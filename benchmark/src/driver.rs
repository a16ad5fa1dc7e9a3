//! The parent: spawns the stage children of one workload run, reduces
//! their records to the contract's metrics, checks them, and prints
//! the result. Also the two whole-set modes: every workload untraced
//! and traced (`bench`), and the same set twice with a comparison
//! against each metric's own bound (`bench --repeat 2`).

use std::path::Path;
use std::process::{Command, Stdio};

use pdtl_core::ScratchDir;

use crate::contract::{
    Better, Kind, Workload, COVERAGE_BAND, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use crate::env::{bench_dir, describe, refuse_unless_clean};
use crate::json::{number, quote};
use crate::ops::{err, Res};
use crate::probes::calibration_ns;
use crate::records::Records;

/// One `bench --workload … --seed … --seconds … --trace …` request.
#[derive(Debug, Clone, Copy)]
pub struct Invocation {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured window in seconds.
    pub seconds: f64,
    /// Report per-layer metrics (traced run) instead of end-to-end.
    pub trace: bool,
    /// Smoke profile.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Contract name.
    pub name: &'static str,
    /// As measured.
    pub value: f64,
    /// Contract unit.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every answer matched the oracle, every count repeated exactly.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// Every end-to-end metric (`trace: false`) or every per-layer
    /// metric (`trace: true`), in contract order.
    pub metrics: Vec<Metric>,
    /// Everything the stages recorded, for the detailed print-out.
    pub records: Records,
}

impl Outcome {
    /// The one-line JSON object the contract prescribes.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Run one stage in a child of this binary and parse its records.
fn spawn_stage(stage: &str, inv: &Invocation, scratch: &Path) -> Res<Records> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut cmd = Command::new(exe);
    cmd.args(["--stage", stage, "--workload", inv.workload.name])
        .args(["--seed", &inv.seed.to_string()])
        .args(["--seconds", &inv.seconds.to_string()])
        .arg("--scratch")
        .arg(scratch)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if inv.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(err)?;
    if !out.status.success() {
        return Err(format!("{stage} stage exited with {}", out.status));
    }
    Ok(Records::parse(&String::from_utf8_lossy(&out.stdout)))
}

/// The per-layer value of `name`: a derived quantity where the layer
/// is read off staged spans, the median of the recorded samples
/// otherwise; 0 where the layer is not on this workload's path.
fn layer_value(name: &str, w: &Workload, r: &Records) -> f64 {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    match name {
        "graph.open_s" => r.median("span.open_s"),
        "graph.verify_s" => r.median("span.verify_s"),
        "graph.verify_mb_per_s" => ratio(r.median("span.verify_mb"), r.median("span.verify_s")),
        "balance.split_s" => r.median("span.balance_s"),
        "runner.glue_s" => r.median("span.glue_s"),
        "sink.collect_s" if w.kind == Kind::List => {
            r.median("span.calc_s") + r.median("span.sink_collect_s")
                - r.median("probe.count_calc_s")
        }
        "sink.file_mtri_per_s" => ratio(
            r.median("graph.triangles") / 1e6,
            r.median("span.sink_file_s"),
        ),
        "trace.untraced_wall_s" => r.median("wall_s"),
        "trace.staged_wall_s" => r.median("staged_wall_s"),
        "trace.coverage" => ratio(r.median("staged_wall_s"), r.median("wall_s")),
        _ => r.median(name),
    }
}

/// Run `inv.workload` once: setup child, then the run or trace child.
pub fn run_workload(inv: &Invocation) -> Res<Outcome> {
    let scratch = ScratchDir::create(bench_dir()?.join(format!(
        "{}-{}",
        std::process::id(),
        inv.workload.name
    )))
    .map_err(err)?;
    let mut records = spawn_stage("setup", inv, scratch.path())?;
    let stage = if inv.trace { "trace" } else { "run" };
    records.extend(&spawn_stage(stage, inv, scratch.path())?);

    let drifting = records.unequal(PER_LAYER.iter().filter(|m| m.count).map(|m| m.name));
    for name in &drifting {
        eprintln!(
            "bench: count metric {name} did not repeat exactly: {:?}",
            records.samples(name)
        );
    }
    let failed = records.median("failed") as u64;
    let metrics = if inv.trace {
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: layer_value(m.name, inv.workload, &records),
                unit: m.unit,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: records.median(m.name),
                unit: m.unit,
            })
            .collect()
    };
    Ok(Outcome {
        correct: failed == 0 && drifting.is_empty(),
        attempted: records.median("attempted") as u64,
        failed,
        metrics,
        records,
    })
}

/// Print every metric of `outcome` by name, with its unit; timings
/// carry min, max and sample count beside the median.
pub fn print_outcome(inv: &Invocation, outcome: &Outcome) {
    println!(
        "# {} seed {} {} ({} attempted, {} failed)",
        inv.workload.name,
        inv.seed,
        if inv.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed
    );
    if inv.workload.kind == Kind::Serve {
        println!(
            "#   closed loop, {} clients, {} s, {} samples",
            crate::contract::CORES,
            inv.seconds,
            outcome.records.median("server.samples")
        );
    }
    for m in &outcome.metrics {
        let samples = outcome.records.samples(m.name);
        let spread = if samples.len() > 1 {
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(0.0, f64::max);
            format!("  (min {min:.6}, max {max:.6}, n {})", samples.len())
        } else {
            String::new()
        };
        println!("{:<40} {:>16.6} {}{spread}", m.name, m.value, m.unit);
    }
}

/// One set: `(untraced, traced)` per workload, in contract order.
type Set = Vec<(Outcome, Outcome)>;

fn run_set(seed: u64, seconds: f64, smoke: bool) -> Res<Set> {
    let mut outcomes = Vec::new();
    for workload in &WORKLOADS {
        let run = |trace| -> Res<Outcome> {
            let inv = Invocation {
                workload,
                seed,
                seconds,
                trace,
                smoke,
            };
            let outcome = run_workload(&inv)?;
            print_outcome(&inv, &outcome);
            Ok(outcome)
        };
        outcomes.push((run(false)?, run(true)?));
    }
    Ok(outcomes)
}

fn coverage_ok(value: f64) -> bool {
    (COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&value)
}

/// Whether `second` is worse than `first` by more than `bound`.
fn worse_beyond(better: Better, first: f64, second: f64, bound: f64) -> (f64, bool) {
    let rel = if first != 0.0 {
        (second - first) / first
    } else {
        0.0
    };
    let worsening = match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    };
    (rel, worsening > bound)
}

/// The result document of one set: env, workloads, every metric per
/// workload, the layer → end-to-end map, and no claim.
fn result_document(seed: u64, set: &Set) -> String {
    let env: Vec<String> = describe(seed, calibration_ns())
        .iter()
        .map(|(k, v)| format!("    {}: {}", quote(k), quote(v)))
        .collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}, \"rmat_scale\": {}}}",
                quote(w.name),
                quote(w.why),
                w.scale
            )
        })
        .collect();
    let per_workload = |pick: fn(&(Outcome, Outcome)) -> &Outcome, name: &str| -> String {
        let cells: Vec<String> = WORKLOADS
            .iter()
            .zip(set)
            .map(|(w, pair)| format!("{}: {}", quote(w.name), number(pick(pair).value(name))))
            .collect();
        format!("{{{}}}", cells.join(", "))
    };
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"meaning\": {}, \"values\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word()),
                m.bound,
                quote(m.meaning),
                per_workload(|p| &p.0, m.name)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            let moves: Vec<String> = m.moves.iter().map(|s| quote(s)).collect();
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"count\": {}, \"moves\": [{}], \"values\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word()),
                m.count,
                moves.join(", "),
                per_workload(|p| &p.1, m.name)
            )
        })
        .collect();
    format!(
        "{{\n  \"claim\": null,\n  \"env\": {{\n{}\n  }},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        env.join(",\n"),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// `bench [--seed N] [--repeat K] [--smoke]`: run the whole set `repeat`
/// times with the same seed. Prints every metric, writes the result
/// document, and — from the second set on — compares each end-to-end
/// metric × workload against its own bound and each count metric for
/// bit-identity. Returns whether everything passed.
pub fn run_all(seed: u64, repeat: usize, smoke: bool) -> Res<bool> {
    refuse_unless_clean()?;
    for (k, v) in describe(seed, calibration_ns()) {
        println!("# env {k}: {v}");
    }
    let seconds = if smoke { 0.0 } else { f64::from(RUN_SECONDS) };
    let mut pass = true;
    let mut sets: Vec<Set> = Vec::new();
    for round in 0..repeat.max(1) {
        println!("# set {} of {}", round + 1, repeat.max(1));
        let set = run_set(seed, seconds, smoke)?;
        for (w, (untraced, traced)) in WORKLOADS.iter().zip(&set) {
            if !(untraced.correct && traced.correct) {
                println!("FAIL {}: incorrect or failed operations", w.name);
                pass = false;
            }
            // On the smoke profile's tiny graphs an operation is a few
            // milliseconds of mostly thread start-up; coverage is only
            // meaningful at full size.
            let coverage = traced.value("trace.coverage");
            if !smoke && !coverage_ok(coverage) {
                println!(
                    "FAIL {}: trace.coverage {coverage:.3} outside {:?}",
                    w.name, COVERAGE_BAND
                );
                pass = false;
            }
        }
        sets.push(set);
    }
    let doc = bench_dir()?.join(format!("results-seed{seed}.json"));
    std::fs::write(&doc, result_document(seed, &sets[0])).map_err(err)?;
    println!("# result document: {}", doc.display());

    let (first, rest) = sets.split_first().expect("at least one set");
    for (round, second) in rest.iter().enumerate() {
        println!("# repeatability: set 1 against set {}", round + 2);
        for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(second)) {
            for m in &END_TO_END {
                let (va, vb) = (a.0.value(m.name), b.0.value(m.name));
                let (rel, bad) = worse_beyond(m.better, va, vb, m.bound);
                // Bounds are sized for full-length runs; the smoke
                // profile's handful of millisecond samples only shows
                // that the comparison itself works.
                let bad = bad && !smoke;
                pass &= !bad;
                println!(
                    "{} {:<12} @ {:<16} {va:>14.6} {vb:>14.6} {:>+8.2}%  (bound {:.0}%)",
                    if bad { "FAIL" } else { "PASS" },
                    m.name,
                    w.name,
                    rel * 100.0,
                    m.bound * 100.0
                );
            }
            for m in PER_LAYER.iter().filter(|m| m.count) {
                let (x, y) = (a.1.value(m.name), b.1.value(m.name));
                if x.to_bits() != y.to_bits() {
                    println!(
                        "FAIL {} @ {}: {x} then {y} (a count must repeat exactly)",
                        m.name, w.name
                    );
                    pass = false;
                }
            }
        }
    }
    Ok(pass)
}
