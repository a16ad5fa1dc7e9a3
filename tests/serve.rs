//! Serve-mode integration tests: concurrent queries against a resident
//! catalog daemon must be bit-identical to one-shot runs, admission
//! must respect the memory budget without deadlocking, and the daemon
//! must survive corrupt catalog entries, hostile parameters, hostile
//! frames, stalled queries and mid-query client disconnects.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdtl::analytics::{clustering, ktruss};
use pdtl::cluster::{
    Catalog, ClusterError, Message, QueryOperation, QueryOptions, ServeClient, ServeConfig, Server,
};
use pdtl::graph::gen::rmat::rmat;
use pdtl::graph::verify::{triangle_count, triangle_list};
use pdtl::graph::{DiskGraph, Graph};
use pdtl::io::{Codec, DiskFaultPlan, IoStats, MemoryBudget};

/// A fresh temp dir per test (integration tests in one file share a
/// process, so names must not collide).
fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pdtl-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `graphs` into `dir/catalog` and boot a server over it.
fn boot(tag: &str, graphs: &[(&str, &Graph)], config: ServeConfig) -> (std::path::PathBuf, Server) {
    let dir = test_dir(tag);
    let cat_dir = dir.join("catalog");
    std::fs::create_dir_all(&cat_dir).unwrap();
    let stats = IoStats::new();
    for (name, g) in graphs {
        DiskGraph::write(g, cat_dir.join(name), &stats).unwrap();
    }
    let catalog = Catalog::open(
        &cat_dir,
        &dir.join("work"),
        &[Codec::Raw, Codec::DeltaVarint],
        2,
    )
    .unwrap();
    assert!(catalog.rejected().is_empty(), "{:?}", catalog.rejected());
    let server = Server::spawn(catalog, config).unwrap();
    (dir, server)
}

/// Canonical triangle set: each triple sorted, list sorted.
fn canon(mut triples: Vec<(u32, u32, u32)>) -> Vec<(u32, u32, u32)> {
    for t in &mut triples {
        let mut v = [t.0, t.1, t.2];
        v.sort_unstable();
        *t = (v[0], v[1], v[2]);
    }
    triples.sort_unstable();
    triples
}

#[test]
fn concurrent_clients_match_one_shot_answers() {
    let g1 = rmat(7, 7).unwrap();
    let g2 = rmat(6, 99).unwrap();
    let (dir, server) = boot(
        "parity",
        &[("a", &g1), ("b", &g2)],
        ServeConfig {
            workers: 4,
            ..Default::default()
        },
    );
    let addr = server.addr();

    // One-shot oracles, computed in-process exactly as the satellites'
    // analytics tests do.
    type Oracle = (String, Graph, u64, Vec<(u32, u32, u32)>);
    let oracles: Vec<Oracle> = vec![
        (
            "a".into(),
            g1.clone(),
            triangle_count(&g1),
            triangle_list(&g1),
        ),
        (
            "b".into(),
            g2.clone(),
            triangle_count(&g2),
            triangle_list(&g2),
        ),
    ];

    let handles: Vec<_> = (0..8)
        .map(|client_id: usize| {
            let addr = addr.clone();
            let oracles: Vec<Oracle> = oracles.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).unwrap();
                let (name, g, count, list) = &oracles[client_id % oracles.len()];
                let codec = if client_id.is_multiple_of(2) {
                    Codec::Raw
                } else {
                    Codec::DeltaVarint
                };
                let options = QueryOptions {
                    cores: 1 + (client_id as u32 % 3),
                    budget_edges: 256 << (client_id % 4),
                    codec,
                    ..Default::default()
                };

                let reply = client.query(name, QueryOperation::Count, options).unwrap();
                assert_eq!(reply.triangles, *count, "client {client_id} count");
                assert!(!reply.workers.is_empty());

                let reply = client
                    .query(name, QueryOperation::List { limit: 1 << 20 }, options)
                    .unwrap();
                assert_eq!(reply.triangles, *count);
                assert_eq!(reply.aux, list.len() as u64, "every triangle listed");
                assert_eq!(canon(reply.triples), canon(list.clone()));

                let reply = client
                    .query(name, QueryOperation::Clustering, options)
                    .unwrap();
                let expect = clustering::analyze(g, list);
                assert_eq!(reply.triangles, *count);
                assert_eq!(reply.value_bits, expect.global.to_bits(), "bit-identical");
                assert_eq!(reply.aux, expect.transitivity.to_bits());

                let k = 3 + (client_id as u32 % 2);
                let reply = client
                    .query(name, QueryOperation::KTruss { k }, options)
                    .unwrap();
                let td = ktruss::truss_decomposition(g, list);
                assert_eq!(reply.value_bits, td.truss_edges(k).len() as u64);
                assert_eq!(reply.aux, u64::from(td.max_k()));

                // p = 1 keeps every edge: the estimate is exact, so the
                // approximate path is pinned by the same oracle.
                let reply = client
                    .query(
                        name,
                        QueryOperation::Doulion {
                            p_ppm: 1_000_000,
                            seed: 1,
                            trials: 1,
                        },
                        options,
                    )
                    .unwrap();
                assert_eq!(reply.value_f64(), *count as f64);

                // Seeded determinism: the same request twice gives the
                // same bits, across all concurrent clients.
                let op = QueryOperation::Doulion {
                    p_ppm: 500_000,
                    seed: 42,
                    trials: 4,
                };
                let first = client.query(name, op, options).unwrap();
                let second = client.query(name, op, options).unwrap();
                assert_eq!(first.value_bits, second.value_bits);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = server.shutdown();
    assert_eq!(stats.served, 8 * 7);
    assert_eq!(stats.failed, 0);
    assert!(stats.bytes_read > 0);
    assert!(stats.latency_buckets.iter().sum::<u64>() >= stats.served);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_query_does_not_block_other_clients() {
    let g = rmat(7, 3).unwrap();
    let (dir, server) = boot(
        "stall",
        &[("g", &g)],
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let expected = triangle_count(&g);

    // A deterministic slow query: emulated device latency on every
    // block read, tiny budget so the scan takes many reads.
    let mut slow_client = ServeClient::connect(&server.addr()).unwrap();
    slow_client
        .send_query(
            "g",
            QueryOperation::Count,
            QueryOptions {
                cores: 1,
                budget_edges: 64,
                io_latency_us: 2_000,
                ..Default::default()
            },
        )
        .unwrap();
    let slow_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let slow_handle = {
        let done = slow_done.clone();
        std::thread::spawn(move || {
            let reply = slow_client.recv_reply().unwrap();
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            reply
        })
    };

    // While the slow query grinds, a fast one on another connection
    // must complete promptly.
    let mut fast_client = ServeClient::connect(&server.addr()).unwrap();
    let start = Instant::now();
    let fast = fast_client
        .query("g", QueryOperation::Count, QueryOptions::default())
        .unwrap();
    assert_eq!(fast.triangles, expected);
    assert!(
        !slow_done.load(std::sync::atomic::Ordering::SeqCst),
        "fast query (finished in {:?}) should overtake the stalled one",
        start.elapsed()
    );

    let slow = slow_handle.join().unwrap();
    assert_eq!(slow.triangles, expected, "stalled query still correct");
    let stats = server.shutdown();
    assert_eq!(stats.served, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_blocks_without_deadlock_and_never_oversubscribes() {
    let g = rmat(6, 5).unwrap();
    let (dir, server) = boot(
        "admission",
        &[("g", &g)],
        ServeConfig {
            workers: 4,
            admission: MemoryBudget::edges(100_000),
            ..Default::default()
        },
    );
    let expected = triangle_count(&g);
    let addr = server.addr();

    // Each query costs cores × budget_edges = 2 × 30_000 = 60_000 of a
    // 100_000-edge ledger: only one fits at a time, so four concurrent
    // clients serialise through admission — and all must finish.
    let options = QueryOptions {
        cores: 2,
        budget_edges: 30_000,
        ..Default::default()
    };
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).unwrap();
                client
                    .query("g", QueryOperation::Count, options)
                    .unwrap()
                    .triangles
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), expected);
    }

    let stats = server.stats();
    assert!(
        stats.admitted_peak >= 60_000,
        "at least one admission recorded: {}",
        stats.admitted_peak
    );
    assert!(
        stats.admitted_peak <= stats.budget_total,
        "peak {} must never exceed the ledger's {}",
        stats.admitted_peak,
        stats.budget_total
    );

    // A query that could never fit is a typed rejection, not a hang —
    // also when `cores × budget` wraps a `u64` (4 × 2^62 = 0: admitted
    // free, whole graph resident) or overflows it outright.
    let mut client = ServeClient::connect(&addr).unwrap();
    for budget_edges in [1 << 40, 1 << 62, u64::MAX] {
        let err = client
            .query(
                "g",
                QueryOperation::Count,
                QueryOptions {
                    cores: 4,
                    budget_edges,
                    ..Default::default()
                },
            )
            .unwrap_err();
        match err {
            ClusterError::Query { detail, .. } => {
                assert!(detail.contains("budget too small"), "{detail}")
            }
            other => panic!("expected a typed query rejection, got {other}"),
        }
    }

    // Out-of-range parameters are rejected at the boundary — no panic
    // inside the sparsifier, daemon stays healthy.
    let err = client
        .query(
            "g",
            QueryOperation::Doulion {
                p_ppm: 5_000_000,
                seed: 1,
                trials: 1,
            },
            QueryOptions::default(),
        )
        .unwrap_err();
    assert!(matches!(err, ClusterError::Query { .. }), "{err}");

    // So is an emulated device latency that would park a pool worker
    // for minutes per block.
    let err = client
        .query(
            "g",
            QueryOperation::Count,
            QueryOptions {
                io_latency_us: u32::MAX,
                ..options
            },
        )
        .unwrap_err();
    match err {
        ClusterError::Query { detail, .. } => assert!(detail.contains("io latency"), "{detail}"),
        other => panic!("expected a typed query rejection, got {other}"),
    }

    // Unknown graphs too.
    let err = client
        .query("missing", QueryOperation::Count, QueryOptions::default())
        .unwrap_err();
    match err {
        ClusterError::Query { detail, .. } => assert!(detail.contains("unknown graph"), "{detail}"),
        other => panic!("expected a typed query rejection, got {other}"),
    }

    // After all that abuse the daemon still answers correctly (with a
    // cost that fits the deliberately small ledger).
    let reply = client.query("g", QueryOperation::Count, options).unwrap();
    assert_eq!(reply.triangles, expected);
    let stats = server.shutdown();
    assert_eq!(stats.failed, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_catalog_entry_is_rejected_and_the_rest_served() {
    let dir = test_dir("corrupt");
    let cat_dir = dir.join("catalog");
    std::fs::create_dir_all(&cat_dir).unwrap();
    let stats = IoStats::new();
    let good = rmat(6, 1).unwrap();
    DiskGraph::write(&good, cat_dir.join("good"), &stats).unwrap();
    let bad = rmat(6, 2).unwrap();
    DiskGraph::write(&bad, cat_dir.join("bad"), &stats).unwrap();

    // Corrupt via the shared disk-fault grammar:
    // one flipped bit deep in the adjacency, invisible to the quick
    // open-time tier, fatal to the full digest at registration.
    let plan = DiskFaultPlan::parse("bitflip@adj:97").unwrap();
    let touched = plan.apply(&cat_dir.join("bad")).unwrap();
    assert!(!touched.is_empty());

    let catalog = Catalog::open(&cat_dir, &dir.join("work"), &[Codec::Raw], 2).unwrap();
    assert_eq!(catalog.names(), vec!["good".to_string()]);
    let rejected = catalog.rejected().to_vec();
    assert_eq!(rejected.len(), 1);
    assert_eq!(rejected[0].0, "bad");
    assert!(
        rejected[0].1.contains("corrupt") || rejected[0].1.contains("truncated"),
        "typed integrity error, got: {}",
        rejected[0].1
    );

    let server = Server::spawn(catalog, ServeConfig::default()).unwrap();
    let mut client = ServeClient::connect(&server.addr()).unwrap();
    let reply = client
        .query("good", QueryOperation::Count, QueryOptions::default())
        .unwrap();
    assert_eq!(reply.triangles, triangle_count(&good));
    let err = client
        .query("bad", QueryOperation::Count, QueryOptions::default())
        .unwrap_err();
    assert!(matches!(err, ClusterError::Query { .. }), "{err}");
    // A codec the catalog did not orient is a typed rejection naming
    // what the entry does serve.
    let varint = QueryOptions {
        codec: Codec::DeltaVarint,
        ..Default::default()
    };
    let err = client
        .query("good", QueryOperation::Count, varint)
        .unwrap_err();
    assert!(err.to_string().contains("(serving: raw)"), "{err}");
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected_graphs, 1);
    assert_eq!(stats.graphs.len(), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_query_disconnect_leaves_daemon_healthy() {
    let g = rmat(7, 11).unwrap();
    let (dir, server) = boot(
        "disconnect",
        &[("g", &g)],
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
    );

    // Launch a slow query, then hang up before the answer arrives.
    {
        let mut doomed = ServeClient::connect(&server.addr()).unwrap();
        doomed
            .send_query(
                "g",
                QueryOperation::Count,
                QueryOptions {
                    cores: 1,
                    budget_edges: 64,
                    io_latency_us: 1_000,
                    ..Default::default()
                },
            )
            .unwrap();
        // drop: the socket closes with the query still running
    }

    // The daemon keeps serving other clients, and the orphaned query
    // eventually completes and releases its admission lease.
    let mut client = ServeClient::connect(&server.addr()).unwrap();
    let reply = client
        .query("g", QueryOperation::Count, QueryOptions::default())
        .unwrap();
    assert_eq!(reply.triangles, triangle_count(&g));

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = client.stats().unwrap();
        if s.served == 2 && s.inflight == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "orphaned query never finished: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.failed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_shutdown_drains_inflight_queries() {
    let g = rmat(7, 23).unwrap();
    let (dir, server) = boot(
        "drain",
        &[("g", &g)],
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let expected = triangle_count(&g);

    // A slow query goes in flight...
    let mut inflight = ServeClient::connect(&server.addr()).unwrap();
    inflight
        .send_query(
            "g",
            QueryOperation::Count,
            QueryOptions {
                cores: 1,
                budget_edges: 64,
                io_latency_us: 500,
                ..Default::default()
            },
        )
        .unwrap();

    // ...then another client asks the daemon to exit. `wait` must
    // drain the running query before returning, and the in-flight
    // client still receives its (correct) answer. Wait until the slow
    // query is actually executing, so the shutdown genuinely races a
    // running query rather than an unread socket.
    let mut shutter = ServeClient::connect(&server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = shutter.stats().unwrap();
        if s.inflight >= 1 || s.served >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "query never started: {s:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    shutter.shutdown().unwrap();
    let stats = server.wait();
    assert_eq!(stats.served, 1, "in-flight query drained, not dropped");
    assert_eq!(stats.failed, 0);

    let reply = inflight.recv_reply().unwrap();
    assert_eq!(reply.triangles, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resident set of this process — the daemon runs inside it — in MiB.
fn rss_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    let kib: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kib / 1024
}

/// Block until the daemon closes `stream` (EOF or reset); panics if it
/// is still open after 30 s.
fn assert_dropped(mut stream: TcpStream, who: &str) {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match stream.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e)
            if !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("{who}: connection still open: {other:?}"),
    }
}

#[test]
#[cfg(target_os = "linux")]
fn hostile_frames_cost_a_connection_not_the_daemon() {
    let g = rmat(6, 17).unwrap();
    let (dir, server) = boot("hostile", &[("g", &g)], ServeConfig::default());
    let expected = triangle_count(&g);
    // An idle connection with nothing in flight is never the target.
    let mut idle = ServeClient::connect(&server.addr()).unwrap();

    // A header declaring a 4 GiB frame, with 64 MiB streamed at it: the
    // daemon must hang up on the header, not buffer what follows.
    let before = rss_mib();
    let mut bomb = TcpStream::connect(server.addr()).unwrap();
    bomb.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let junk = vec![0u8; 1 << 20];
    for _ in 0..64 {
        if bomb.write_all(&junk).is_err() {
            break; // the daemon already hung up
        }
    }
    assert_dropped(bomb, "oversized frame");
    let grew = rss_mib().saturating_sub(before);
    assert!(grew < 32, "daemon buffered a hostile frame: +{grew} MiB");

    // Half a frame, then silence: dropped once the daemon's patience
    // for an unfinished frame runs out.
    let frame = Message::StatsRequest.frame().unwrap();
    let mut loris = TcpStream::connect(server.addr()).unwrap();
    loris.write_all(&frame[..frame.len() / 2]).unwrap();
    assert_dropped(loris, "stalled frame");

    // Old and new clients are served as if nothing happened.
    for client in [
        &mut idle,
        &mut ServeClient::connect(&server.addr()).unwrap(),
    ] {
        let reply = client
            .query("g", QueryOperation::Count, QueryOptions::default())
            .unwrap();
        assert_eq!(reply.triangles, expected);
    }
    let stats = server.shutdown();
    assert_eq!((stats.served, stats.failed), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
