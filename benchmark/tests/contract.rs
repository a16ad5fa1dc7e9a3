//! The contract cannot rot: `BENCHMARK.json` equals the tables it is
//! rendered from, the tables obey the limits the driver enforces, and a
//! smoke run of the real binary emits every metric the tables name.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard};

use pdtl_benchmark::contract::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use pdtl_benchmark::json::{self, Value};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_rendered_from_the_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("root BENCHMARK.json");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `bench --print-contract > BENCHMARK.json`"
    );
}

#[test]
fn tables_obey_the_driver_limits() {
    let doc = json::parse(&benchmark_json()).expect("valid JSON");
    assert_eq!(
        doc.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!(benchmark_json().len() <= 64 * 1024);
    let command = doc.get("command").unwrap().items();
    assert!((1..=32).contains(&command.len()));
    assert!(command.iter().all(|c| c.as_str().unwrap().len() <= 200));
    let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "{}", w.name);
        assert!(names.insert(w.name), "{} used twice", w.name);
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
    }
    for m in &END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(names.insert(m.name), "{} used twice", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.word()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    for m in PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(names.insert(m.name), "{} used twice", m.name);
        for target in m.moves {
            let (metric, workload) = target.split_once('@').expect("metric@workload");
            assert!(
                END_TO_END.iter().any(|e| e.name == metric),
                "{} moves unknown metric {metric}",
                m.name
            );
            assert!(
                WORKLOADS.iter().any(|w| w.name == workload),
                "{} moves unknown workload {workload}",
                m.name
            );
        }
    }
}

/// Runs of the bench write `trace-<workload>.json` under one directory
/// and want the cores to themselves: one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The bench binary with every `PDTL_*` override removed, so the test
/// passes under the CI legs that set them.
fn bench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench"));
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("PDTL_") {
            cmd.env_remove(k);
        }
    }
    cmd
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn result_line(args: &[&str]) -> Value {
    let text = stdout(&bench().args(args).output().unwrap());
    json::parse(text.lines().last().expect("a result line")).expect("valid result JSON")
}

fn assert_result(result: &Value, names: Vec<&str>, units: Vec<&str>) {
    assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = result.get("metrics").unwrap();
    let mut want: Vec<&str> = names.clone();
    want.sort_unstable();
    assert_eq!(metrics.keys(), want);
    for (name, unit) in names.iter().zip(units) {
        let m = metrics.get(name).unwrap();
        assert_eq!(m.keys(), ["unit", "value"], "{name}");
        assert_eq!(m.get("unit").unwrap().as_str(), Some(unit), "{name}");
        assert!(m.get("value").unwrap().as_f64().unwrap().is_finite());
    }
}

#[test]
fn one_run_reports_exactly_the_contract_metrics() {
    let _serial = serial();
    let args = |trace| {
        [
            "--workload",
            "count-multipass",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--smoke",
            "--trace",
            trace,
        ]
    };
    let untraced = result_line(&args("0"));
    assert_result(
        &untraced,
        END_TO_END.iter().map(|m| m.name).collect(),
        END_TO_END.iter().map(|m| m.unit).collect(),
    );
    // End-to-end metrics are never 0.
    for m in &END_TO_END {
        let v = untraced.get("metrics").unwrap().get(m.name).unwrap();
        assert!(
            v.get("value").unwrap().as_f64().unwrap() > 0.0,
            "{}",
            m.name
        );
    }
    assert_result(
        &result_line(&args("1")),
        PER_LAYER.iter().map(|m| m.name).collect(),
        PER_LAYER.iter().map(|m| m.unit).collect(),
    );
}

#[test]
fn smoke_set_emits_a_complete_result_document() {
    let _serial = serial();
    let text = stdout(
        &bench()
            .args(["--smoke", "--seed", "5", "--repeat", "2"])
            .output()
            .unwrap(),
    );
    let doc_path = text
        .lines()
        .find_map(|l| l.strip_prefix("# result document: "))
        .expect("the run names its result document");
    let doc = json::parse(&std::fs::read_to_string(doc_path).unwrap()).unwrap();
    assert_eq!(doc.get("claim"), Some(&Value::Null));
    for key in [
        "git_commit",
        "nproc",
        "simd_level",
        "default_backend",
        "default_codec",
    ] {
        assert!(doc.get("env").unwrap().get(key).is_some(), "env.{key}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| {
            assert!(!w.get("why").unwrap().as_str().unwrap().is_empty());
            w.get("name").unwrap().as_str().unwrap()
        })
        .collect();
    assert_eq!(
        workloads,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for (section, count) in [
        ("end_to_end", END_TO_END.len()),
        ("per_layer", PER_LAYER.len()),
    ] {
        let rows = doc.get(section).unwrap().items();
        assert_eq!(rows.len(), count);
        for row in rows {
            assert!(is_name(row.get("name").unwrap().as_str().unwrap()));
            assert_eq!(row.get("values").unwrap().keys().len(), WORKLOADS.len());
        }
    }
    // Same seed, two sets: every end-to-end pair is compared, and a
    // count that failed to repeat would have failed the run.
    let compared = text.lines().filter(|l| l.starts_with("PASS ")).count();
    assert_eq!(compared, END_TO_END.len() * WORKLOADS.len());
    assert!(text.lines().any(|l| l.contains("closed loop, 2 clients")));
}

#[test]
fn refuses_to_measure_under_an_override() {
    let out = bench()
        .env("PDTL_CODEC", "delta-varint")
        .args(["--workload", "count-1pass", "--smoke", "--trace", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("PDTL_CODEC"));
}
