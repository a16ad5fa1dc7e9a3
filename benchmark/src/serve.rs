//! The `serve-mix` driver: a closed loop of [`CORES`] clients on
//! persistent connections against one in-process daemon.
//!
//! Closed loop, because each caller of `pdtl query` waits for its reply
//! before sending the next. Every client-side latency is kept (a `Vec`
//! per client) — percentiles are order statistics of real samples, not
//! edges of the daemon's power-of-two histogram. Any query error or
//! answer that differs from the oracle fails the operation.
//!
//! `ktruss` is deliberately not in the mix: 3.7 s on RMAT-12, it would
//! be the only thing measured.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pdtl_cluster::{
    Catalog, QueryOperation, QueryOptions, QueryReply, ServeClient, ServeConfig, Server,
    ServerStats,
};
use pdtl_io::Codec;

use crate::contract::{CORES, SERVE_BUDGET_EDGES, SERVE_LIST_LIMIT};
use crate::env::peak_rss_mib;
use crate::ops::{err, Expected, Paths, Res};
use crate::records::{quantile, Records};
use crate::trace::Tracer;

/// Name of the catalog graph (the input base's file stem).
const GRAPH: &str = "rmat";

/// The query mix each client cycles through, in order.
pub const MIX: [(&str, QueryOperation, Codec); 4] = [
    ("count_raw", QueryOperation::Count, Codec::Raw),
    ("count_varint", QueryOperation::Count, Codec::DeltaVarint),
    (
        "list",
        QueryOperation::List {
            limit: SERVE_LIST_LIMIT,
        },
        Codec::Raw,
    ),
    ("clustering", QueryOperation::Clustering, Codec::Raw),
];

/// One answered query.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which client sent it.
    pub client: u32,
    /// Index into [`MIX`].
    pub op: usize,
    /// When the client sent it.
    pub start: Instant,
    /// Client-side round trip.
    pub latency: Duration,
    /// `QueryReply.wall`: the engine's share, as the daemon reports it.
    pub engine: Duration,
}

/// Open the catalog (verify + pre-orient both codecs) and spawn the
/// daemon; returns the server and how long the catalog took to open.
pub fn spawn_daemon(paths: &Paths) -> Res<(Server, Duration)> {
    let start = Instant::now();
    let catalog = Catalog::open(
        &paths.input_dir(),
        &paths.work("catalog"),
        &[Codec::Raw, Codec::DeltaVarint],
        CORES,
    )
    .map_err(err)?;
    if let Some((name, why)) = catalog.rejected().first() {
        return Err(format!("catalog rejected `{name}`: {why}"));
    }
    let opened = start.elapsed();
    let server = Server::spawn(
        catalog,
        ServeConfig {
            workers: CORES,
            ..ServeConfig::default()
        },
    )
    .map_err(err)?;
    Ok((server, opened))
}

fn check(op: QueryOperation, reply: &QueryReply, expected: &Expected) -> Res<()> {
    if reply.triangles != expected.triangles {
        return Err(format!(
            "{} answered {} triangles, oracle {}",
            op.name(),
            reply.triangles,
            expected.triangles
        ));
    }
    match op {
        QueryOperation::List { limit } => {
            let want = expected.triangles.min(u64::from(limit)) as usize;
            if reply.triples.len() != want {
                return Err(format!(
                    "list returned {} triples, expected {want}",
                    reply.triples.len()
                ));
            }
        }
        QueryOperation::Clustering if (reply.aux_f64() - expected.transitivity).abs() > 1e-12 => {
            return Err(format!(
                "transitivity {} differs from oracle {}",
                reply.aux_f64(),
                expected.transitivity
            ));
        }
        _ => {}
    }
    Ok(())
}

fn query(id: u32, client: &mut ServeClient, op: usize, expected: &Expected) -> Res<Sample> {
    let (_, operation, codec) = MIX[op];
    let options = QueryOptions {
        cores: 1,
        budget_edges: SERVE_BUDGET_EDGES,
        codec,
        ..QueryOptions::default()
    };
    let start = Instant::now();
    let reply = client.query(GRAPH, operation, options).map_err(err)?;
    let latency = start.elapsed();
    check(operation, &reply, expected)?;
    Ok(Sample {
        client: id,
        op,
        start,
        latency,
        engine: reply.wall,
    })
}

/// What the closed loop produced.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Every answered, correct query.
    pub samples: Vec<Sample>,
    /// Queries that errored or answered wrongly.
    pub failures: Vec<String>,
    /// Length of the measured window.
    pub elapsed: Duration,
    /// `VmHWM` of this process (daemon and clients) when the window
    /// opened: after each client's one warm-up cycle of the mix.
    pub warm_peak_rss_mib: f64,
}

/// Longest think time between a reply and the client's next query.
const MAX_THINK: Duration = Duration::from_millis(16);

/// Seeded think times, uniform in `[0, MAX_THINK)`.
///
/// Without them the loop phase-locks: a round trip at HEAD is two
/// 40 ms delayed-ACK timers, so the two clients either always or never
/// have their queries in the engine together, and a whole run reads
/// `calc_s` as 10 ms or as 18 ms depending on which phase it fell
/// into. A think time that random-walks the phase across the cycle
/// makes every run sample both.
struct Think(u64);

impl Think {
    fn next(&mut self) -> Duration {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let r = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32;
        MAX_THINK * (r as u32 % 1024) / 1024
    }
}

/// Drive the daemon at `addr` for `window` with [`CORES`] closed-loop
/// clients. Each warms up with one cycle of the mix, then all start
/// together; client `c` starts `2c` steps into the cycle so the two
/// do not run the same operation in lockstep, and thinks for a seeded
/// random time of at most [`MAX_THINK`] before each query.
pub fn closed_loop(
    addr: &str,
    window: Duration,
    seed: u64,
    expected: &Expected,
) -> Res<LoopResult> {
    let barrier = Arc::new(Barrier::new(CORES + 1));
    let handles: Vec<_> = (0..CORES)
        .map(|c| {
            let addr = addr.to_string();
            let barrier = barrier.clone();
            let expected = *expected;
            std::thread::spawn(move || -> Res<(Vec<Sample>, Vec<String>)> {
                let connected = ServeClient::connect(&addr).map_err(err).and_then(|mut cl| {
                    for op in 0..MIX.len() {
                        query(c as u32, &mut cl, op, &expected)?;
                    }
                    Ok(cl)
                });
                // Reach the barrier on every path, or the others hang.
                barrier.wait();
                let mut client = connected?;
                let begin = Instant::now();
                let (mut samples, mut failures) = (Vec::new(), Vec::new());
                let mut step = 2 * c;
                let mut think = Think(seed.wrapping_mul(2 * c as u64 + 1) | 1 << 63);
                while begin.elapsed() < window {
                    std::thread::sleep(think.next());
                    match query(c as u32, &mut client, step % MIX.len(), &expected) {
                        Ok(s) => samples.push(s),
                        Err(e) => failures.push(e),
                    }
                    step += 1;
                }
                Ok((samples, failures))
            })
        })
        .collect();
    barrier.wait();
    let begin = Instant::now();
    let mut result = LoopResult {
        warm_peak_rss_mib: peak_rss_mib()?,
        ..LoopResult::default()
    };
    for h in handles {
        let (samples, failures) = h.join().map_err(|_| "client thread panicked")??;
        result.samples.extend(samples);
        result.failures.extend(failures);
    }
    result.elapsed = begin.elapsed();
    Ok(result)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `f` over the samples of each operation of the mix, in
/// [`MIX`] order.
fn per_op_median(result: &LoopResult, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    (0..MIX.len())
        .map(|op| {
            let of_op: Vec<f64> = result
                .samples
                .iter()
                .filter(|s| s.op == op)
                .map(&f)
                .collect();
            quantile(&of_op, 0.5)
        })
        .collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The end-to-end metrics of a loop. The four operations cost the
/// engine 5 to 15 ms each, so the median over all queries sits between
/// two modes and flips with the mix's phase; `wall_s` and `calc_s` are
/// instead the median *per operation*, averaged over the mix.
pub fn push_end_to_end(rec: &mut Records, result: &LoopResult) {
    let latency = per_op_median(result, |s| s.latency.as_secs_f64());
    let engine = per_op_median(result, |s| s.engine.as_secs_f64());
    rec.set("wall_s", mean(&latency));
    rec.set("calc_s", mean(&engine));
    rec.set(
        "ops_per_s",
        result.samples.len() as f64 / result.elapsed.as_secs_f64(),
    );
    rec.set("server.samples", result.samples.len() as f64);
}

/// The `server.*` layer metrics of a loop.
pub fn push_layers(rec: &mut Records, result: &LoopResult, stats: &ServerStats) {
    let of_all = |f: fn(&Sample) -> f64| -> Vec<f64> { result.samples.iter().map(f).collect() };
    let latency = of_all(|s| ms(s.latency));
    let overhead = |s: &Sample| ms(s.latency.saturating_sub(s.engine));
    rec.set(
        "server.engine_p50_ms",
        quantile(&of_all(|s| ms(s.engine)), 0.5),
    );
    rec.set("server.overhead_p50_ms", quantile(&of_all(overhead), 0.5));
    rec.set("server.query_p95_ms", quantile(&latency, 0.95));
    rec.set("server.query_p99_ms", quantile(&latency, 0.99));
    let per_op = per_op_median(result, |s| ms(s.latency));
    for ((name, _, _), p50) in MIX.iter().zip(per_op) {
        rec.set(&format!("server.op_p50_ms.{name}"), p50);
    }
    rec.set("server.admission_peak_edges", stats.admitted_peak as f64);
    // The parts as the layers report them, reduced the way `wall_s` is:
    // what `trace.coverage` holds against the whole.
    let parts: Vec<f64> = per_op_median(result, |s| s.engine.as_secs_f64())
        .iter()
        .zip(per_op_median(result, |s| overhead(s) / 1e3))
        .map(|(engine, overhead)| engine + overhead)
        .collect();
    rec.set("staged_wall_s", mean(&parts));
}

/// One span per query, on its client's track, with the engine's
/// reported share as its child.
pub fn record_spans(tracer: &mut Tracer, result: &LoopResult) {
    for (i, s) in result.samples.iter().enumerate() {
        let id = tracer.record(
            &format!("serve.query.{}", MIX[s.op].0),
            i as u32,
            None,
            s.client,
            s.start,
            s.start + s.latency,
        );
        // Wire and admission come before the engine, the reply after;
        // centre the reported interval.
        let offset = s.latency.saturating_sub(s.engine) / 2;
        tracer.record_reported("server.engine", id, offset, s.engine);
    }
}
