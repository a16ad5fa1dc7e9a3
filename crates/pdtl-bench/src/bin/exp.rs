//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! exp all                  # every experiment, Full profile
//! exp table6 fig9          # selected experiments
//! exp all --quick          # tiny graphs (CI / smoke test)
//! exp all --backend mmap   # force one I/O backend for every engine run
//! exp all --codec delta-varint  # force one on-disk codec likewise
//! ```

use pdtl_bench::experiments::{run_experiment, ALL_EXPERIMENTS};
use pdtl_bench::workbench::{Profile, Workbench};
use pdtl_core::mgt::MgtOptions;
use pdtl_io::{Codec, IoBackend};

const USAGE: &str = "usage: exp <all | id...> [--quick] [--backend b] [--codec c]";

/// A parsed command line.
#[derive(Debug)]
struct Args {
    /// Experiment ids (or `all`), in the order given.
    ids: Vec<String>,
    quick: bool,
    /// The engine knobs `--backend` / `--codec` pin for every run.
    mgt: MgtOptions,
}

/// Parse the arguments after the program name. An unknown flag, or a
/// `--backend` / `--codec` without a valid value, is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        ids: Vec::new(),
        quick: false,
        mgt: MgtOptions::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" | "-q" => parsed.quick = true,
            "--backend" => {
                parsed.mgt.backend = it
                    .next()
                    .and_then(|v| IoBackend::parse(v))
                    .ok_or("--backend needs one of blocking|prefetch|mmap")?;
            }
            "--codec" => {
                parsed.mgt.codec = it
                    .next()
                    .and_then(|v| Codec::parse(v))
                    .ok_or("--codec needs one of raw|delta-varint")?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id => parsed.ids.push(id.to_string()),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) if !args.ids.is_empty() => args,
        Ok(_) => {
            eprintln!("{USAGE}");
            eprintln!("experiment ids: {}", ALL_EXPERIMENTS.join(" "));
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let profile = if args.quick {
        Profile::Quick
    } else {
        Profile::Full
    };
    let data_dir = std::path::Path::new("target").join("pdtl-data");
    let mut wb = Workbench::new(profile, data_dir);
    wb.mgt = args.mgt;

    let selected: Vec<&str> = if args.ids.iter().any(|i| i == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.ids.iter().map(|s| s.as_str()).collect()
    };

    println!(
        "PDTL experiment harness — profile: {profile:?} (counters are exact on any \
         host; walls are measured on this host)"
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for line in ["all --quik", "fig2 --json", "--bogus fig2", "all -x"] {
            let err = parse(line).unwrap_err();
            assert!(err.starts_with("unknown flag -"), "{line}: {err}");
        }
        assert!(parse("all --backend").is_err());
        for removed in ["tape", "uring", "io_uring"] {
            let err = parse(&format!("all --backend {removed}")).unwrap_err();
            assert!(err.ends_with("blocking|prefetch|mmap"), "{removed}: {err}");
        }
        assert!(parse("all --codec gzip").is_err());
    }

    #[test]
    fn known_flags_still_parse() {
        for line in ["all --quick", "fig2 -q"] {
            let args = parse(line).unwrap();
            assert!(args.quick, "{line}");
        }
        let args = parse("table6 fig9 --backend mmap --codec delta-varint").unwrap();
        assert_eq!(args.ids, ["table6", "fig9"]);
        assert!(!args.quick);
        assert_eq!(args.mgt.backend, IoBackend::Mmap);
        assert_eq!(args.mgt.codec, Codec::DeltaVarint);
        let defaults = parse("all").unwrap().mgt;
        assert_eq!(defaults.backend, MgtOptions::default().backend);
        assert_eq!(defaults.codec, MgtOptions::default().codec);
    }
}
