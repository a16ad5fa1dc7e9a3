//! Worker-node logic.
//!
//! A node serves a loop of [`Message::Config`] requests: for each one it
//! opens its local replica of the oriented graph, runs one MGT worker
//! thread per configured core, and sends the results (and triangle
//! batches, when listing) back to the master — with periodic
//! [`Message::Progress`] heartbeats while the workers run, so the master
//! can tell a slow node from a wedged one. The loop ends on
//! [`Message::Shutdown`] or when the master's endpoint goes away. Nodes
//! are transport-agnostic: the same function serves an in-process
//! simulated node and a TCP-connected remote process.
//!
//! Config messages may carry an injected [`NodeFault`] from the
//! master's fault plan; the node executes it faithfully (panic, drop,
//! stall, delay) so fault-tolerance tests exercise the real failure
//! paths rather than mocks.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use pdtl_core::balance::EdgeRange;
use pdtl_core::mgt::MgtOptions;
use pdtl_core::orient::OrientedGraph;
use pdtl_core::sink::{CollectSink, CoreSink, CountSink, TriangleSink};
use pdtl_core::WorkerReport;
use pdtl_io::{IoStats, MemoryBudget};

use crate::error::{ClusterError, Result};
use crate::message::{
    Message, NodeDirectives, NodeFault, WorkerConfig, WorkerSummary, TRIANGLE_BATCH,
};
use crate::transport::Transport;

/// A raisable flag worker loops can wait on with a timeout, so the
/// heartbeat thread both paces itself and wakes immediately on stop.
struct StopFlag {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopFlag {
    fn new() -> Self {
        StopFlag {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Wait up to `d`; returns true once the flag is raised.
    fn wait_for(&self, d: Duration) -> bool {
        let guard = self.stopped.lock().unwrap_or_else(|e| e.into_inner());
        let (guard, _) = self
            .cv
            .wait_timeout_while(guard, d, |stopped| !*stopped)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }

    fn raise(&self) {
        *self.stopped.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

/// Serve counting requests arriving on `transport` until the master
/// sends [`Message::Shutdown`] or disconnects.
///
/// Per request: recv `Config` → (optionally send `Triangles`) → send
/// `Results`, or send `NodeError` on failure — with `Progress`
/// heartbeats in between when the config asks for them.
pub fn serve_node<T: Transport>(transport: &T) -> Result<()> {
    loop {
        let msg = match transport.recv() {
            Ok(m) => m,
            // An idle node whose master went away shut down cleanly.
            Err(ClusterError::Disconnected(_)) => return Ok(()),
            Err(e) => return Err(e),
        };
        match msg {
            Message::Shutdown => return Ok(()),
            Message::Config {
                node,
                graph_base,
                workers,
                listing,
                directives,
            } => match directives.fault {
                NodeFault::Panic => {
                    panic!("injected fault: node {node} panic")
                }
                NodeFault::Drop => return Ok(()),
                // Wedged: no reply, no heartbeats; only Shutdown or a
                // dropped endpoint ends the silence.
                NodeFault::Stall => continue,
                NodeFault::None | NodeFault::Delay(_) => {
                    serve_one(transport, node, &graph_base, &workers, listing, directives)?;
                }
            },
            other => {
                return Err(ClusterError::Protocol(format!(
                    "node expected Config or Shutdown, got {other:?}"
                )))
            }
        }
    }
}

/// Run one dispatch: heartbeats + (optional injected delay) + workers,
/// then the reply messages. Heartbeats are fully joined before any
/// reply is sent, so the master never sees `Progress` after `Results`.
fn serve_one<T: Transport>(
    transport: &T,
    node: u32,
    graph_base: &str,
    workers: &[WorkerConfig],
    listing: bool,
    directives: NodeDirectives,
) -> Result<()> {
    let stop = StopFlag::new();
    let outcome = std::thread::scope(|scope| {
        if directives.heartbeat_ms > 0 {
            let interval = Duration::from_millis(directives.heartbeat_ms as u64);
            let (stop, transport) = (&stop, &transport);
            scope.spawn(move || {
                let mut seq = 0u32;
                while !stop.wait_for(interval) {
                    if transport.send(&Message::Progress { node, seq }).is_err() {
                        break; // master gone; workers will notice too
                    }
                    seq = seq.wrapping_add(1);
                }
            });
        }
        if let NodeFault::Delay(ms) = directives.fault {
            // A slow node, not a dead one: heartbeats keep flowing
            // through the sleep.
            stop.wait_for(Duration::from_millis(ms as u64));
        }
        let outcome = if listing {
            run_workers(graph_base, workers, CollectSink::default)
                .map(|(summaries, sinks)| (summaries, CollectSink::concat(sinks)))
        } else {
            run_workers(graph_base, workers, || CountSink).map(|(s, _)| (s, Vec::new()))
        };
        // Raise before the scope joins the heartbeat thread, so the
        // reply below is strictly after the last Progress.
        stop.raise();
        outcome
    });
    match outcome {
        Ok((summaries, triples)) => {
            // Fixed-size batches, so no listing outgrows a frame; the
            // master buffers them and commits on `Results`.
            for batch in triples.chunks(TRIANGLE_BATCH) {
                transport.send(&Message::Triangles {
                    node,
                    triples: batch.to_vec(),
                })?;
            }
            transport.send(&Message::Results {
                node,
                workers: summaries,
            })?;
        }
        Err(e) => {
            transport.send(&Message::NodeError {
                node,
                detail: e.to_string(),
            })?;
        }
    }
    Ok(())
}

/// Run every config's range over the replica at `graph_base` on one
/// core per config, each core with its own `make_sink()` sink, through
/// the engine's shared fan-out ([`pdtl_core::run_workers`]); returns the
/// per-range summaries in config order and each core's sink with the
/// ranges it ran. A config asking for an unpruned scan is refused: the
/// engine has no such scan.
pub fn run_workers<S: TriangleSink + Send>(
    graph_base: &str,
    configs: &[WorkerConfig],
    make_sink: impl Fn() -> S,
) -> Result<(Vec<WorkerSummary>, Vec<CoreSink<S>>)> {
    if configs.iter().any(|cfg| !cfg.scan_pruning) {
        return Err(ClusterError::Config(
            "`scan_pruning: false` cannot run: scan pruning is part of the engine".into(),
        ));
    }
    let og = OrientedGraph::open(graph_base, &IoStats::new())?;
    let jobs: Vec<_> = configs.iter().map(worker_job).collect();
    let fan = pdtl_core::run_workers(&og, &jobs, make_sink)?;
    let summaries = fan.ranges.iter().enumerate();
    Ok((summaries.map(|(i, r)| summarize(i, r)).collect(), fan.sinks))
}

/// What a wire [`WorkerConfig`] asks the engine to run.
fn worker_job(cfg: &WorkerConfig) -> (EdgeRange, MemoryBudget, MgtOptions) {
    let range = EdgeRange {
        start: cfg.start,
        end: cfg.end,
    };
    let opts = MgtOptions {
        backend: cfg.backend,
        io_latency: Duration::from_micros(cfg.io_latency_us as u64),
        read_fault: cfg.read_fault,
        codec: cfg.codec,
    };
    (range, MemoryBudget::edges(cfg.budget_edges as usize), opts)
}

/// Convert the report of the `index`-th range of a fan-out into its
/// wire summary, labelled by that index: which core claimed the range
/// changes from run to run, its place in the plan does not.
pub fn summarize(index: usize, r: &WorkerReport) -> WorkerSummary {
    WorkerSummary {
        worker: index as u32,
        start: r.range.start,
        end: r.range.end,
        triangles: r.triangles,
        iterations: r.iterations,
        cpu_ops: r.cpu_ops,
        bytes_read: r.io.bytes_read,
        bytes_written: r.io.bytes_written,
        seeks: r.io.seeks,
        io_ops: r.io.read_ops + r.io.write_ops,
        io_nanos: r.io.io_time.as_nanos() as u64,
        wall_nanos: r.breakdown.wall.as_nanos() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::NetTraffic;
    use crate::transport::in_proc_pair;
    use pdtl_core::orient::orient_to_disk;
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;
    use pdtl_graph::DiskGraph;
    use std::path::{Path, PathBuf};

    fn tmpbase(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-node-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn oriented_base(tag: &str) -> (String, u64, u64) {
        oriented_base_of(tag, &rmat(7, 41).unwrap())
    }

    /// Orient `g` to disk: (replica base, `|E*|`, triangle count).
    fn oriented_base_of(tag: &str, g: &pdtl_graph::Graph) -> (String, u64, u64) {
        let stats = IoStats::new();
        let dg = DiskGraph::write(g, tmpbase(&format!("{tag}-in")), &stats).unwrap();
        let base = tmpbase(&format!("{tag}-or"));
        let (og, _) = orient_to_disk(&dg, &base, 2, &stats).unwrap();
        (
            base.to_string_lossy().into_owned(),
            og.m_star(),
            triangle_count(g),
        )
    }

    fn worker(start: u64, end: u64) -> WorkerConfig {
        WorkerConfig {
            start,
            end,
            budget_edges: 256,
            scan_pruning: true,
            backend: pdtl_io::IoBackend::default(),
            io_latency_us: 0,
            read_fault: None,
            codec: pdtl_io::Codec::Raw,
        }
    }

    #[test]
    fn unpruned_worker_config_is_refused() {
        let (base, m_star, _) = oriented_base("unpruned");
        let unpruned = WorkerConfig {
            scan_pruning: false,
            ..worker(0, m_star)
        };
        let err = run_workers(&base, &[worker(0, 1), unpruned], || CountSink).unwrap_err();
        assert!(matches!(err, ClusterError::Config(_)), "{err}");
        assert!(err.to_string().contains("scan_pruning"), "{err}");
    }

    #[test]
    fn node_serves_counting_request() {
        let (base, m_star, expected) = oriented_base("count");
        let traffic = NetTraffic::new();
        let (master, remote) = in_proc_pair(traffic.clone());
        let handle = std::thread::spawn(move || serve_node(&remote));

        let half = m_star / 2;
        master
            .send(&Message::Config {
                node: 1,
                graph_base: base,
                workers: vec![worker(0, half), worker(half, m_star)],
                listing: false,
                directives: NodeDirectives::default(),
            })
            .unwrap();
        let reply = master.recv().unwrap();
        master.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();

        let Message::Results { node, workers } = reply else {
            panic!("expected Results, got {reply:?}");
        };
        assert_eq!(node, 1);
        assert_eq!(workers.len(), 2);
        let total: u64 = workers.iter().map(|w| w.triangles).sum();
        assert_eq!(total, expected);
        assert!(workers.iter().all(|w| w.bytes_read > 0));
        assert!(traffic.result_bytes() > 0);
    }

    #[test]
    fn node_serves_listing_request() {
        let (base, m_star, expected) = oriented_base("list");
        let traffic = NetTraffic::new();
        let (master, remote) = in_proc_pair(traffic.clone());
        let handle = std::thread::spawn(move || serve_node(&remote));

        master
            .send(&Message::Config {
                node: 2,
                graph_base: base,
                workers: vec![{
                    let mut w = worker(0, m_star);
                    w.budget_edges = 128;
                    w
                }],
                listing: true,
                directives: NodeDirectives::default(),
            })
            .unwrap();
        let first = master.recv().unwrap();
        let second = master.recv().unwrap();
        master.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();

        let Message::Triangles { triples, .. } = first else {
            panic!("expected Triangles first, got {first:?}");
        };
        let Message::Results { workers, .. } = second else {
            panic!("expected Results second, got {second:?}");
        };
        assert_eq!(triples.len() as u64, expected);
        assert_eq!(workers[0].triangles, expected);
        // the Θ(T) term is real traffic
        assert!(traffic.triangle_bytes() >= expected * 12);
    }

    #[test]
    fn listing_larger_than_one_batch_arrives_complete_and_exactly_once() {
        // K80 has C(80,3) = 82 160 triangles: more than one
        // TRIANGLE_BATCH, so the listing crosses a frame boundary.
        let g = pdtl_graph::gen::classic::complete(80).unwrap();
        let (base, m_star, _) = oriented_base_of("batch", &g);
        let mut expected = pdtl_graph::verify::triangle_list(&g);
        expected.sort_unstable();
        assert!(expected.len() > TRIANGLE_BATCH);
        let config = Message::Config {
            node: 1,
            graph_base: base,
            workers: vec![worker(0, m_star)],
            listing: true,
            directives: NodeDirectives::default(),
        };

        fn gather<T: Transport>(
            master: &T,
            config: &Message,
        ) -> (Vec<usize>, Vec<(u32, u32, u32)>) {
            master.send(config).unwrap();
            let (mut frames, mut listed) = (Vec::new(), Vec::new());
            loop {
                match master.recv().unwrap() {
                    Message::Triangles { triples, .. } => {
                        frames.push(triples.len());
                        listed.extend(triples);
                    }
                    Message::Results { .. } => break,
                    other => panic!("unexpected {other:?}"),
                }
            }
            master.send(&Message::Shutdown).unwrap();
            for t in &mut listed {
                let mut v = [t.0, t.1, t.2];
                v.sort_unstable();
                *t = (v[0], v[1], v[2]);
            }
            listed.sort_unstable();
            (frames, listed)
        }

        let (master, remote) = in_proc_pair(NetTraffic::new());
        let handle = std::thread::spawn(move || serve_node(&remote));
        let in_proc = gather(&master, &config);
        handle.join().unwrap().unwrap();

        let traffic = NetTraffic::new();
        let node = crate::tcp::TcpNode::spawn(1, traffic.clone()).unwrap();
        let master = crate::transport::TcpTransport::connect(&node.addr, traffic.clone()).unwrap();
        let tcp = gather(&master, &config);
        node.join().unwrap();

        for (frames, listed) in [in_proc, tcp] {
            assert_eq!(frames, [TRIANGLE_BATCH, expected.len() - TRIANGLE_BATCH]);
            assert_eq!(listed, expected, "every triangle, none twice");
        }
        // Θ(T): 12 bytes a triple plus 13 a frame (9 header, 4 length).
        assert_eq!(
            traffic.triangle_bytes(),
            12 * expected.len() as u64 + 2 * 13
        );
    }

    #[test]
    fn node_serves_multiple_dispatches_until_shutdown() {
        // The serve loop handles several Configs over one connection —
        // the mechanism range reassignment rides on.
        let (base, m_star, expected) = oriented_base("multi");
        let traffic = NetTraffic::new();
        let (master, remote) = in_proc_pair(traffic);
        let handle = std::thread::spawn(move || serve_node(&remote));

        let mut total = 0u64;
        let half = m_star / 2;
        for (start, end) in [(0, half), (half, m_star)] {
            master
                .send(&Message::Config {
                    node: 1,
                    graph_base: base.clone(),
                    workers: vec![worker(start, end)],
                    listing: false,
                    directives: NodeDirectives::default(),
                })
                .unwrap();
            let Message::Results { workers, .. } = master.recv().unwrap() else {
                panic!("expected Results");
            };
            total += workers.iter().map(|w| w.triangles).sum::<u64>();
        }
        master.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(total, expected);
    }

    #[test]
    fn node_exits_cleanly_when_master_endpoint_drops() {
        let traffic = NetTraffic::new();
        let (master, remote) = in_proc_pair(traffic);
        let handle = std::thread::spawn(move || serve_node(&remote));
        drop(master);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn node_heartbeats_while_working_and_stops_after_results() {
        let (base, m_star, expected) = oriented_base("hb");
        let traffic = NetTraffic::new();
        let (master, remote) = in_proc_pair(traffic.clone());
        let handle = std::thread::spawn(move || serve_node(&remote));

        master
            .send(&Message::Config {
                node: 4,
                graph_base: base,
                workers: vec![worker(0, m_star)],
                listing: false,
                directives: NodeDirectives {
                    heartbeat_ms: 1,
                    // the injected delay guarantees at least one beat
                    // fires before the workers finish
                    fault: NodeFault::Delay(10),
                },
            })
            .unwrap();
        let mut beats = 0u32;
        let total = loop {
            match master.recv().unwrap() {
                Message::Progress { node: 4, .. } => beats += 1,
                Message::Results { workers, .. } => {
                    break workers.iter().map(|w| w.triangles).sum::<u64>()
                }
                other => panic!("unexpected {other:?}"),
            }
        };
        master.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(total, expected);
        assert!(beats >= 1, "delayed node should heartbeat, got {beats}");
        assert!(traffic.control_bytes() > 0);
    }

    #[test]
    fn node_executes_injected_faults() {
        let (base, m_star, _) = oriented_base("flt");
        // Drop: the serve loop returns Ok and the connection closes.
        let (master, remote) = in_proc_pair(NetTraffic::new());
        let handle = std::thread::spawn(move || serve_node(&remote));
        master
            .send(&Message::Config {
                node: 1,
                graph_base: base.clone(),
                workers: vec![worker(0, m_star)],
                listing: false,
                directives: NodeDirectives {
                    heartbeat_ms: 0,
                    fault: NodeFault::Drop,
                },
            })
            .unwrap();
        handle.join().unwrap().unwrap();
        assert!(matches!(master.recv(), Err(ClusterError::Disconnected(_))));

        // Panic: the node thread dies with the injected message.
        let (master, remote) = in_proc_pair(NetTraffic::new());
        let handle = std::thread::spawn(move || serve_node(&remote));
        master
            .send(&Message::Config {
                node: 2,
                graph_base: base.clone(),
                workers: vec![],
                listing: false,
                directives: NodeDirectives {
                    heartbeat_ms: 0,
                    fault: NodeFault::Panic,
                },
            })
            .unwrap();
        let err = ClusterError::node_panic(2, handle.join().unwrap_err());
        assert!(err.to_string().contains("injected fault"), "{err}");

        // Stall: silent until Shutdown.
        let (master, remote) = in_proc_pair(NetTraffic::new());
        let handle = std::thread::spawn(move || serve_node(&remote));
        master
            .send(&Message::Config {
                node: 3,
                graph_base: base,
                workers: vec![worker(0, m_star)],
                listing: false,
                directives: NodeDirectives {
                    heartbeat_ms: 1,
                    fault: NodeFault::Stall,
                },
            })
            .unwrap();
        assert!(matches!(
            master.recv_deadline(std::time::Duration::from_millis(40)),
            Err(ClusterError::Timeout { .. })
        ));
        master.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn node_reports_worker_read_fault_as_node_error() {
        let (base, m_star, _) = oriented_base("sr");
        let (master, remote) = in_proc_pair(NetTraffic::new());
        let handle = std::thread::spawn(move || serve_node(&remote));
        master
            .send(&Message::Config {
                node: 5,
                graph_base: base,
                workers: vec![{
                    let mut w = worker(0, m_star);
                    w.read_fault = Some(8);
                    w
                }],
                listing: false,
                directives: NodeDirectives::default(),
            })
            .unwrap();
        let reply = master.recv().unwrap();
        master.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
        let Message::NodeError { node, detail } = reply else {
            panic!("expected NodeError, got {reply:?}");
        };
        assert_eq!(node, 5);
        assert!(detail.contains("injected short read"), "{detail}");
    }

    #[test]
    fn worker_failures_surface_the_same_through_node_and_local_runner() {
        // One fan-out serves both runners, so a worker that panics and
        // a worker that fails must come back from each as the same
        // typed error, naming the same worker.
        use pdtl_core::{CoreError, LocalConfig, LocalRunner};

        struct PanicSink;
        impl TriangleSink for PanicSink {
            fn emit(&mut self, _: u32, _: u32, _: u32) {
                panic!("sink refuses");
            }
        }

        let (base, m_star, expected) = oriented_base("fanout");
        assert!(expected > 0, "the sink must be reached");
        let og = OrientedGraph::open(&base, &IoStats::new()).unwrap();
        let local = |mgt| {
            LocalRunner::new(LocalConfig {
                cores: 1,
                budget: MemoryBudget::edges(256),
                mgt,
                ..Default::default()
            })
            .unwrap()
        };
        let cfg = worker(0, m_star);

        let via_node = run_workers(&base, &[cfg], || PanicSink).map(drop);
        let via_local = local(worker_job(&cfg).2)
            .run_oriented_with_sinks(&og, || PanicSink)
            .map(drop);
        for err in [via_node.unwrap_err(), via_local.unwrap_err().into()] {
            let ClusterError::Core(CoreError::WorkerPanic(who)) = err else {
                panic!("expected WorkerPanic, got {err}");
            };
            assert_eq!(who, "worker 0");
        }

        let faulty = WorkerConfig {
            read_fault: Some(8),
            ..cfg
        };
        let via_node = run_workers(&base, &[faulty], || CountSink).map(drop);
        let via_local = local(worker_job(&faulty).2)
            .run_oriented_with_sinks(&og, || CountSink)
            .map(drop);
        let (via_node, via_local) = (via_node.unwrap_err(), via_local.unwrap_err());
        assert!(via_node.to_string().contains("injected short read"));
        assert_eq!(
            via_node.to_string(),
            ClusterError::from(via_local).to_string()
        );
    }

    #[test]
    fn node_reports_corrupt_replica_as_node_error() {
        let (base, m_star, _) = oriented_base("corrupt");
        // Silently flip a bit in the replica's sketch sidecar: the
        // quick integrity tier inside `OrientedGraph::open` digests
        // small files, so the node detects it before computing
        // anything and the master gets a typed NodeError (feeding
        // PR 7's range reassignment instead of a wrong count).
        pdtl_io::diskfault::DiskFaultSpec {
            kind: pdtl_io::diskfault::DiskFaultKind::BitFlip,
            target: pdtl_io::diskfault::FaultTarget::Skt,
            seed: 77,
        }
        .apply(Path::new(&base))
        .unwrap()
        .expect("sketch file exists");
        let (master, remote) = in_proc_pair(NetTraffic::new());
        let handle = std::thread::spawn(move || serve_node(&remote));
        master
            .send(&Message::Config {
                node: 2,
                graph_base: base,
                workers: vec![worker(0, m_star)],
                listing: false,
                directives: NodeDirectives::default(),
            })
            .unwrap();
        let reply = master.recv().unwrap();
        master.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
        let Message::NodeError { node, detail } = reply else {
            panic!("expected NodeError, got {reply:?}");
        };
        assert_eq!(node, 2);
        assert!(detail.contains("corrupt"), "{detail}");
    }

    #[test]
    fn node_reports_errors_as_message() {
        let traffic = NetTraffic::new();
        let (master, remote) = in_proc_pair(traffic);
        let handle = std::thread::spawn(move || serve_node(&remote));
        master
            .send(&Message::Config {
                node: 3,
                graph_base: "/nonexistent/graph".into(),
                workers: vec![],
                listing: false,
                directives: NodeDirectives::default(),
            })
            .unwrap();
        let reply = master.recv().unwrap();
        master.send(&Message::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
        assert!(matches!(reply, Message::NodeError { node: 3, .. }));
    }

    #[test]
    fn node_rejects_wrong_first_message() {
        let traffic = NetTraffic::new();
        let (master, remote) = in_proc_pair(traffic);
        let handle = std::thread::spawn(move || serve_node(&remote));
        master
            .send(&Message::Results {
                node: 0,
                workers: vec![],
            })
            .unwrap();
        let res = handle.join().unwrap();
        assert!(matches!(res, Err(ClusterError::Protocol(_))));
    }
}
