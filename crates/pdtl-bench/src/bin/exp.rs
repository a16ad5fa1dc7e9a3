//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! exp all                  # every experiment, Full profile
//! exp table6 fig9          # selected experiments
//! exp all --quick          # tiny graphs (CI / smoke test)
//! exp kernels --json       # kernel micro-benches -> BENCH_kernels.json
//! exp all --backend mmap   # force one I/O backend for every engine run
//! exp all --codec delta-varint  # force one on-disk codec likewise
//! ```

use pdtl_bench::experiments::{run_experiment, ALL_EXPERIMENTS};
use pdtl_bench::kernelbench;
use pdtl_bench::workbench::{Profile, Workbench};
use pdtl_core::mgt::MgtOptions;
use pdtl_io::{Codec, IoBackend};

/// Where `exp kernels --json` writes its snapshot (the repo root when
/// run via `cargo run`).
const BENCH_JSON: &str = "BENCH_kernels.json";

/// Remove `--<flag> <value>` from `args` and parse the value, exiting
/// with a usage error when it is missing or not one of `choices`.
fn take_flag<T>(
    args: &mut Vec<String>,
    flag: &str,
    choices: &str,
    parse: fn(&str) -> Option<T>,
) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(i + 1).and_then(|v| parse(v)) else {
        eprintln!("{flag} needs one of {choices}");
        std::process::exit(2);
    };
    args.drain(i..=i + 1);
    Some(value)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--backend <b>` and `--codec <c>` pin the engine knobs of every
    // experiment run (`Workbench::mgt`). The kernel-bench backend and
    // codec rows still measure every choice explicitly.
    let mut mgt = MgtOptions::default();
    if let Some(backend) = take_flag(
        &mut args,
        "--backend",
        "blocking|prefetch|mmap|uring",
        IoBackend::parse,
    ) {
        mgt.backend = backend;
    }
    if let Some(codec) = take_flag(&mut args, "--codec", "raw|delta-varint", Codec::parse) {
        mgt.codec = codec;
    }
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let json = args.iter().any(|a| a == "--json");
    let ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .cloned()
        .collect();
    if ids.is_empty() {
        eprintln!(
            "usage: exp <all | kernels | id...> [--quick] [--json] [--backend b] [--codec c]"
        );
        eprintln!("experiment ids: {}", ALL_EXPERIMENTS.join(" "));
        std::process::exit(2);
    }

    if ids.iter().any(|i| i == "kernels") {
        // The default backend (as this host resolves it) and codec go
        // into the regeneration log, so a BENCH_kernels.json diff is
        // attributable to the host.
        let defaults = MgtOptions::default();
        println!(
            "[backend: {}] [codec: {}]",
            defaults.backend.resolve(),
            defaults.codec,
        );
        let start = std::time::Instant::now();
        let results = kernelbench::run_kernel_benches();
        print!("{}", kernelbench::to_table(&results));
        if json {
            kernelbench::write_json(BENCH_JSON, &results).expect("write bench json");
            println!("[wrote {BENCH_JSON}]");
        }
        println!("[kernels measured in {:.1?}]", start.elapsed());
        if ids.len() == 1 {
            return;
        }
    }

    let profile = if quick { Profile::Quick } else { Profile::Full };
    let data_dir = std::path::Path::new("target").join("pdtl-data");
    let mut wb = Workbench::new(profile, data_dir);
    wb.mgt = mgt;

    let selected: Vec<&str> = if ids.iter().any(|i| i == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        ids.iter()
            .map(|s| s.as_str())
            .filter(|&s| s != "kernels")
            .collect()
    };

    println!(
        "PDTL experiment harness — profile: {:?} (modeled times use the paper's \
         500 MB/s SSD / 10 GbE cost model)",
        profile
    );
    for id in selected {
        let start = std::time::Instant::now();
        match run_experiment(id, &mut wb) {
            Some(out) => {
                print!("{out}");
                println!("[{id} regenerated in {:.1?}]", start.elapsed());
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }
}
