//! Isolated layer probes: each times one layer's public functions on
//! the workload's own input, with nothing else running. Together with
//! the staged spans they are the per-layer rows; each names, in
//! [`crate::contract::PER_LAYER`], the end-to-end metric it should move.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdtl_bench::kernelbench::workload::{intersect_inputs, INTERSECT_PAIRS};
use pdtl_cluster::message::{WorkerConfig, WorkerSummary};
use pdtl_cluster::transport::{in_proc_pair, TcpTransport, Transport};
use pdtl_cluster::{Message, NetTraffic, NodeDirectives};
use pdtl_core::intersect::{
    intersect_gallop_visit, intersect_visit, intersect_visit_counted_with, SimdLevel,
};
use pdtl_core::mgt::{mgt_count_range_opt, mgt_in_memory, MgtOptions};
use pdtl_core::orient::{orient_csr, orient_to_disk_with};
use pdtl_core::sink::CountSink;
use pdtl_core::{EdgeRange, LocalRunner};
use pdtl_graph::DiskGraph;
use pdtl_io::codec::encode_run;
use pdtl_io::{
    crc32c, uring_supported, Codec, IoBackend, IoStats, MemoryBudget, MmapSource, PrefetchReader,
    U32Reader, U32Source, U32Writer, UringSource, VarintSource,
};

use crate::contract::{Kind, Workload, CORES, ONEPASS_BUDGET_EDGES};
use crate::ops::{budget, err, local_config, orient_and_split, staged_calc, Expected, Paths, Res};
use crate::records::{median, Records};

/// Window of a cheap, repeatable probe.
const WINDOW: Duration = Duration::from_millis(60);

/// Window of a round-trip probe: a loopback round trip is ~90 ms at
/// HEAD (two small writes per frame meet delayed ACK), so a fixed round
/// count would take minutes.
const RTT_WINDOW: Duration = Duration::from_millis(250);

/// Seconds per call of `f`: one warm-up, then repeat for `window` (at
/// least 3 calls); the median.
fn time_median<O>(window: Duration, mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f());
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || begin.elapsed() < window {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// [`time_median`] of a fallible `f`; the first error wins.
fn try_time_median<O>(window: Duration, mut f: impl FnMut() -> Res<O>) -> Res<f64> {
    let mut failure = None;
    let secs = time_median(window, || match f() {
        Ok(v) => Some(v),
        Err(e) => {
            failure.get_or_insert(e);
            None
        }
    });
    failure.map_or(Ok(secs), Err)
}

/// Nanoseconds per call of a sub-microsecond `f`: batches of 256 calls
/// so the clock read does not dominate.
fn time_ns_batched<O>(mut f: impl FnMut() -> O) -> f64 {
    const BATCH: u32 = 256;
    time_median(WINDOW, || {
        for _ in 0..BATCH {
            std::hint::black_box(f());
        }
    }) * 1e9
        / f64::from(BATCH)
}

/// The host-calibration row: forced-scalar 1000×1000 intersection.
pub fn calibration_ns() -> f64 {
    let (a, b) = intersect_inputs(1000, 1000);
    time_ns_batched(|| intersect_visit_counted_with(SimdLevel::Off, &a, &b, |_| {}).0)
}

/// `pdtl-core::intersect`: shapes from `kernelbench::workload`.
pub fn intersect_probes(rec: &mut Records) {
    rec.set("intersect.calib_scalar_ns", calibration_ns());
    for (a_len, b_len) in INTERSECT_PAIRS {
        let (a, b) = intersect_inputs(a_len, b_len);
        rec.set(
            &format!("intersect.linear_ns.{a_len}x{b_len}"),
            time_ns_batched(|| intersect_visit(&a, &b, |_| {})),
        );
    }
    let (a, b) = intersect_inputs(10, 100_000);
    rec.set(
        "intersect.gallop_ns.10x100000",
        time_ns_batched(|| intersect_gallop_visit(&a, &b, |_| {})),
    );
}

fn triples(n: u32) -> Vec<(u32, u32, u32)> {
    (0..n).map(|i| (i, i + 1, i + 2)).collect()
}

/// `pdtl-cluster::message`: encode → decode with no socket.
pub fn message_probes(rec: &mut Records) -> Res<()> {
    let bulk = Message::Triangles {
        node: 1,
        triples: triples(1 << 16),
    };
    let encoded = bulk.encode();
    let bytes = encoded.len() as f64;
    rec.set(
        "message.triangles_encode_mb_per_s",
        bytes / 1e6 / time_median(WINDOW, || bulk.encode()),
    );
    if Message::decode(encoded.clone()).map_err(err)? != bulk {
        return Err("Triangles frame did not round-trip".into());
    }
    rec.set(
        "message.triangles_decode_mb_per_s",
        bytes / 1e6 / time_median(WINDOW, || Message::decode(encoded.clone())),
    );

    let worker = WorkerConfig {
        start: 0,
        end: 1 << 20,
        budget_edges: 1 << 15,
        scan_pruning: true,
        backend: IoBackend::Prefetch,
        io_latency_us: 0,
        read_fault: None,
        codec: Codec::Raw,
    };
    let config = Message::Config {
        node: 1,
        graph_base: "target/pdtl-bench/work/node1/oriented".into(),
        workers: vec![worker; CORES],
        listing: false,
        directives: NodeDirectives::default(),
    };
    rec.set(
        "message.config_roundtrip_us",
        time_ns_batched(|| Message::decode(config.encode())) / 1e3,
    );
    // The shape of a `List { limit: 1000 }` answer.
    let result = Message::QueryResult {
        id: 7,
        triangles: 1 << 20,
        value_bits: 0,
        aux: 1 << 20,
        wall_nanos: 7_000_000,
        workers: vec![WorkerSummary {
            worker: 0,
            start: 0,
            end: 1 << 20,
            triangles: 1 << 24,
            iterations: 58,
            cpu_ops: 1 << 30,
            bytes_read: 1 << 29,
            bytes_written: 0,
            seeks: 4096,
            io_ops: 8192,
            io_nanos: 1 << 28,
            wall_nanos: 1 << 30,
        }],
        triples: triples(crate::contract::SERVE_LIST_LIMIT),
    };
    rec.set(
        "message.query_result_roundtrip_us",
        time_ns_batched(|| Message::decode(result.encode())) / 1e3,
    );
    Ok(())
}

/// Ping-pong `Progress` frames between `near` and an echoing peer
/// thread for [`RTT_WINDOW`] (5 to 1000 rounds after 4 of warm-up);
/// median microseconds per round trip.
fn ping_pong<T: Transport + 'static>(near: &T, far: T) -> Res<f64> {
    let echo = std::thread::spawn(move || -> Res<()> {
        loop {
            match far.recv().map_err(err)? {
                Message::Shutdown => return Ok(()),
                msg => far.send(&msg).map_err(err)?,
            }
        }
    });
    let round = |seq: u32| -> Res<f64> {
        let t = Instant::now();
        near.send(&Message::Progress { node: 1, seq })
            .map_err(err)?;
        near.recv().map_err(err)?;
        Ok(t.elapsed().as_secs_f64() * 1e6)
    };
    for seq in 0..4 {
        round(seq)?;
    }
    let begin = Instant::now();
    let mut rtts = Vec::new();
    while rtts.len() < 5 || (begin.elapsed() < RTT_WINDOW && rtts.len() < 1000) {
        rtts.push(round(rtts.len() as u32)?);
    }
    near.send(&Message::Shutdown).map_err(err)?;
    echo.join().map_err(|_| "echo thread panicked")??;
    Ok(median(&rtts))
}

fn tcp_pair() -> Res<(TcpTransport, TcpTransport)> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let addr = listener.local_addr().map_err(err)?.to_string();
    let near = TcpTransport::connect(&addr, NetTraffic::new()).map_err(err)?;
    let (stream, _) = listener.accept().map_err(err)?;
    let far = TcpTransport::from_stream(stream, NetTraffic::new()).map_err(err)?;
    Ok((near, far))
}

/// `pdtl-cluster::transport`: loopback round trips and bulk frames.
pub fn transport_probes(rec: &mut Records) -> Res<()> {
    let (near, far) = tcp_pair()?;
    rec.set("transport.tcp_rtt_us", ping_pong(&near, far)?);
    let (near, far) = in_proc_pair(NetTraffic::new());
    rec.set("transport.inproc_rtt_us", ping_pong(&near, far)?);

    // Bulk: 96 KiB `Triangles` frames one way, one ack at the end.
    let (near, far) = tcp_pair()?;
    let frame = Message::Triangles {
        node: 1,
        triples: triples(8192),
    };
    let frames = 256u64;
    let frame_bytes = frame.encode().len() as u64 + 4;
    let sink = std::thread::spawn(move || -> Res<()> {
        for _ in 0..frames {
            far.recv().map_err(err)?;
        }
        far.send(&Message::Shutdown).map_err(err)
    });
    let t = Instant::now();
    for _ in 0..frames {
        near.send(&frame).map_err(err)?;
    }
    near.recv().map_err(err)?;
    let secs = t.elapsed().as_secs_f64();
    sink.join().map_err(|_| "sink thread panicked")??;
    rec.set(
        "transport.tcp_bulk_mb_per_s",
        (frames * frame_bytes) as f64 / 1e6 / secs,
    );
    Ok(())
}

/// Stream `src` once, front to back, in block-sized reads; returns the
/// `u32`s delivered.
fn scan(mut src: impl U32Source) -> Res<u64> {
    const BLOCK: usize = 16 * 1024;
    let mut buf = Vec::with_capacity(BLOCK);
    let mut total = 0u64;
    loop {
        buf.clear();
        let got = src.read_into(&mut buf, BLOCK).map_err(err)?;
        if got == 0 {
            return Ok(total);
        }
        total += got as u64;
        std::hint::black_box(&buf);
    }
}

fn checked_scan(src: impl U32Source, want: u64) -> Res<()> {
    let got = scan(src)?;
    if got == want {
        Ok(())
    } else {
        Err(format!("scan delivered {got} u32s, file holds {want}"))
    }
}

/// The probes that need the workload's graph: orientation per codec,
/// the four transports and the codec on the oriented adjacency, the
/// engine in memory and on disk with one core, and (where the workload
/// lists) the sink.
pub fn graph_probes(
    w: &Workload,
    paths: &Paths,
    expected: &Expected,
    rec: &mut Records,
) -> Res<()> {
    let stats = IoStats::new();
    let dg = DiskGraph::open(paths.input_base(), &stats).map_err(err)?;
    let work = paths.work("probe");
    std::fs::create_dir_all(&work).map_err(err)?;

    // pdtl-core::orient, per codec, CORES threads.
    let mut oriented = Vec::new();
    for (codec, tag) in [(Codec::Raw, "raw"), (Codec::DeltaVarint, "varint")] {
        let base = work.join(format!("oriented-{tag}"));
        let t = Instant::now();
        let (og, _) = orient_to_disk_with(&dg, &base, CORES, codec, &stats).map_err(err)?;
        rec.set(&format!("orient.{tag}_s"), t.elapsed().as_secs_f64());
        oriented.push(og);
    }
    let (og_raw, og_varint) = (&oriented[0], &oriented[1]);
    let m_star = og_raw.m_star();
    let raw_adj = og_raw.disk.adj_path();
    let raw_bytes = std::fs::metadata(&raw_adj).map_err(err)?.len();
    let varint_bytes = std::fs::metadata(og_varint.disk.adj_path())
        .map_err(err)?
        .len();
    let raw_mb = raw_bytes as f64 / 1e6;

    // pdtl-io transport: the raw oriented `.adj` once through each
    // `U32Source`; no decode, no intersect.
    let open = || U32Reader::open(&raw_adj, IoStats::new()).map_err(err);
    let secs = try_time_median(WINDOW, || checked_scan(open()?, m_star))?;
    rec.set("io.scan_mb_per_s.blocking", raw_mb / secs);
    let secs = try_time_median(WINDOW, || {
        checked_scan(PrefetchReader::new(open()?).map_err(err)?, m_star)
    })?;
    rec.set("io.scan_mb_per_s.prefetch", raw_mb / secs);
    let secs = try_time_median(WINDOW, || {
        checked_scan(
            MmapSource::open(&raw_adj, IoStats::new()).map_err(err)?,
            m_star,
        )
    })?;
    rec.set("io.scan_mb_per_s.mmap", raw_mb / secs);
    // Without io_uring the engine's `uring` backend degrades to
    // `prefetch`, so that is what this row then measures;
    // `io.uring_supported` labels it.
    let uring = uring_supported();
    rec.set("io.uring_supported", f64::from(u8::from(uring)));
    let secs = try_time_median(WINDOW, || {
        if uring {
            checked_scan(
                UringSource::open(&raw_adj, IoStats::new()).map_err(err)?,
                m_star,
            )
        } else {
            checked_scan(PrefetchReader::new(open()?).map_err(err)?, m_star)
        }
    })?;
    rec.set("io.scan_mb_per_s.uring", raw_mb / secs);

    let adj = open()?.read_all().map_err(err)?;
    let scratch_file = work.join("write-probe");
    let secs = try_time_median(WINDOW, || {
        let mut writer = U32Writer::create(&scratch_file, IoStats::new()).map_err(err)?;
        writer.write_all(&adj).map_err(err)?;
        writer.finish().map_err(err)
    })?;
    rec.set("io.write_mb_per_s", raw_mb / secs);
    let bytes = std::fs::read(&raw_adj).map_err(err)?;
    rec.set(
        "io.crc32c_mb_per_s",
        raw_mb / time_median(WINDOW, || crc32c(&bytes)),
    );
    drop(bytes);

    // pdtl-io::codec on the real out-lists.
    let index = og_varint
        .disk
        .varint_index(og_varint.offsets.clone(), &stats)
        .map_err(err)?;
    let varint_adj = og_varint.disk.adj_path();
    let secs = try_time_median(WINDOW, || {
        let inner = U32Reader::open(&varint_adj, IoStats::new()).map_err(err)?;
        let src = VarintSource::new(inner, Arc::clone(&index), IoStats::new()).map_err(err)?;
        checked_scan(src, m_star)
    })?;
    rec.set("codec.decode_mu32_per_s", m_star as f64 / 1e6 / secs);
    let mut encoded = Vec::with_capacity(varint_bytes as usize);
    let secs = try_time_median(WINDOW, || {
        encoded.clear();
        for run in og_raw.offsets.windows(2) {
            encode_run(&adj[run[0] as usize..run[1] as usize], &mut encoded).map_err(err)?;
        }
        Ok(encoded.len())
    })?;
    rec.set("codec.encode_mu32_per_s", m_star as f64 / 1e6 / secs);
    rec.set("codec.bytes_ratio", raw_bytes as f64 / varint_bytes as f64);
    drop((adj, encoded));

    // pdtl-core::mgt: the engine with no I/O, then on disk with one
    // core at the workload's own budget and codec. Each is one full
    // count, so once is all the run can afford; each must match the
    // oracle.
    let g = dg.load_csr(&stats).map_err(err)?;
    let csr = orient_csr(&g);
    let t = Instant::now();
    let (found, _) = mgt_in_memory(
        &csr,
        MemoryBudget::edges(ONEPASS_BUDGET_EDGES),
        &mut CountSink,
    );
    rec.set("mgt.inmem_s", t.elapsed().as_secs_f64());
    check("mgt_in_memory", found, expected)?;
    drop(csr);

    let config = local_config(w.kind);
    let og = match config.mgt.codec {
        Codec::Raw => og_raw,
        Codec::DeltaVarint => og_varint,
    };
    let full = EdgeRange {
        start: 0,
        end: og.m_star(),
    };
    let t = Instant::now();
    let report = mgt_count_range_opt(
        og,
        full,
        budget(w.kind),
        &mut CountSink,
        IoStats::new(),
        MgtOptions {
            codec: config.mgt.codec,
            ..MgtOptions::default()
        },
    )
    .map_err(err)?;
    rec.set("mgt.disk_1core_s", t.elapsed().as_secs_f64());
    check("mgt_count_range_opt", report.triangles, expected)?;

    match w.kind {
        Kind::List => {
            // What materialising costs: the staged calc ran with
            // `CollectSink`; the same calc with `CountSink` is the
            // reference the trace stage subtracts.
            let (og, ranges) = orient_and_split(&dg, &work.join("count"), Codec::Raw)?;
            let t = Instant::now();
            let workers = staged_calc(&og, &ranges, budget(w.kind), config.mgt, || CountSink)?;
            rec.set("probe.count_calc_s", t.elapsed().as_secs_f64());
            check(
                "staged count",
                workers.iter().map(|w| w.0.triangles).sum(),
                expected,
            )?;
        }
        Kind::Serve => {
            // pdtl-analytics on the same triples a clustering query
            // materialises, called directly.
            let scratch = work.join("listing");
            let (_, listed) = LocalRunner::new(config)
                .map_err(err)?
                .run_listing(&dg, &scratch)
                .map_err(err)?;
            check("run_listing", listed.len() as u64, expected)?;
            let secs = time_median(WINDOW, || {
                pdtl_analytics::clustering::analyze(&g, &listed).transitivity
            });
            rec.set("analytics.clustering_s", secs);
        }
        _ => {}
    }
    std::fs::remove_dir_all(&work).map_err(err)
}

fn check(what: &str, found: u64, expected: &Expected) -> Res<()> {
    if found == expected.triangles {
        Ok(())
    } else {
        Err(format!(
            "{what} found {found} triangles, oracle {}",
            expected.triangles
        ))
    }
}
