//! Offline stand-in for the `criterion` crate.
//!
//! Provides the bench-definition surface the workspace's benches use
//! (`Criterion`, `benchmark_group`, a group's `bench_function` /
//! `bench_with_input`, `BenchmarkId`, `criterion_group!`,
//! `criterion_main!`) with a simple but honest timer: each benchmark is
//! warmed up, then run for a fixed measurement window, and the mean,
//! minimum and maximum per-iteration times are printed.
//!
//! Command-line behaviour: any non-flag argument acts as a substring
//! filter on benchmark names (like criterion); flags such as `--bench`
//! that cargo passes are ignored. `PDTL_BENCH_MS` overrides the
//! per-benchmark measurement window (milliseconds).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A function name plus a parameter, rendered `name/param`.
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{param}", name.into()),
        }
    }

    /// Parameter-only id.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    measurement: Duration,
    report: Option<Sample>,
}

struct Sample {
    iters: u64,
    mean: Duration,
    min: Duration,
    max: Duration,
}

impl Bencher {
    /// Benchmark `f`: warm up, then repeat it for the measurement
    /// window, recording per-iteration wall times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup + calibration: one untimed run, then enough runs to
        // estimate scale.
        black_box(f());
        let probe_start = Instant::now();
        black_box(f());
        let probe = probe_start.elapsed().max(Duration::from_nanos(1));

        let budget = self.measurement;
        let (mut iters, mut total) = (0u64, Duration::ZERO);
        let (mut min, mut max) = (Duration::MAX, Duration::ZERO);
        while total < budget {
            let t = Instant::now();
            black_box(f());
            let dt = t.elapsed();
            iters += 1;
            total += dt;
            min = min.min(dt);
            max = max.max(dt);
            // Very slow benchmarks: cap at 3 measured iterations.
            if probe > budget && iters >= 3 {
                break;
            }
        }
        self.report = Some(Sample {
            iters,
            mean: total / iters.max(1) as u32,
            min,
            max,
        });
    }
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Top-level benchmark driver (one per bench target).
pub struct Criterion {
    filter: Option<String>,
    measurement: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let ms = std::env::var("PDTL_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(200);
        Criterion {
            filter,
            measurement: Duration::from_millis(ms),
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, full_name: String, mut f: F) {
        if let Some(filter) = &self.filter {
            if !full_name.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            measurement: self.measurement,
            report: None,
        };
        f(&mut b);
        match b.report {
            Some(s) => println!(
                "{full_name:<44} time: [{} {} {}]  ({} iters)",
                fmt_dur(s.min),
                fmt_dur(s.mean),
                fmt_dur(s.max),
                s.iters
            ),
            None => println!("{full_name:<44} (no measurement)"),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        self.criterion.run_one(full, f);
        self
    }

    /// Run one benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().id);
        self.criterion.run_one(full, |b| f(b, input));
        self
    }

    /// End the group (report flushing is a no-op in the shim).
    pub fn finish(self) {}
}

/// Define a bench entry point running each target function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` for a bench target (used with `harness = false`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_square(c: &mut Criterion) {
        let mut group = c.benchmark_group("g");
        group.bench_function("square", |b| b.iter(|| black_box(21u64) * 2));
        group.bench_with_input(BenchmarkId::new("param", 3), &3u64, |b, &x| {
            b.iter(|| x * x)
        });
        group.finish();
    }

    criterion_group!(benches, bench_square);

    #[test]
    fn group_runs_without_panicking() {
        std::env::set_var("PDTL_BENCH_MS", "5");
        benches();
    }
}
