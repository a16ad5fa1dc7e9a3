//! `bench`: the command `BENCHMARK.json` names. See the crate docs and
//! `README.md` beside this package.

use std::path::PathBuf;
use std::process::ExitCode;

use pdtl_benchmark::contract::{benchmark_json, workload, RUN_SECONDS};
use pdtl_benchmark::driver::{print_outcome, run_all, run_workload, Invocation};
use pdtl_benchmark::env::refuse_unless_clean;
use pdtl_benchmark::stages::{self, StageArgs};

const USAGE: &str = "usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON result on the last line
  bench [--seed <n>] [--repeat <k>] [--smoke]                      every workload, untraced and traced
  bench --print-contract                                           BENCHMARK.json as the tables define it";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    stage: Option<String>,
    scratch: Option<PathBuf>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    smoke: bool,
    print_contract: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        repeat: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--stage" => args.stage = Some(value()?),
            "--scratch" => args.scratch = Some(value()?.into()),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => args.smoke = true,
            "--print-contract" => args.print_contract = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run(args: Args) -> Result<bool, String> {
    if args.print_contract {
        print!("{}", benchmark_json());
        return Ok(true);
    }
    // Seed 11 is this issue's number; any seed gives a valid run.
    let seed = args.seed.unwrap_or(11);
    let Some(name) = args.workload else {
        return run_all(seed, args.repeat, args.smoke);
    };
    let workload = workload(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seconds = args.seconds.unwrap_or(f64::from(RUN_SECONDS));
    if let Some(stage) = args.stage {
        let stage_args = StageArgs {
            workload,
            seed,
            seconds,
            scratch: args.scratch.ok_or("--stage needs --scratch")?,
            smoke: args.smoke,
        };
        let records = match stage.as_str() {
            "setup" => stages::setup(&stage_args),
            "run" => stages::run(&stage_args),
            "trace" => stages::trace(&stage_args),
            other => Err(format!("unknown stage `{other}`")),
        }?;
        print!("{}", records.render());
        return Ok(true);
    }
    refuse_unless_clean()?;
    let inv = Invocation {
        workload,
        seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let outcome = run_workload(&inv)?;
    print_outcome(&inv, &outcome);
    println!("{}", outcome.result_line());
    Ok(true)
}

fn main() -> ExitCode {
    match parse().and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
