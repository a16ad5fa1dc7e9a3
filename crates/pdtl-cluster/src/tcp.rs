//! TCP node service: run a PDTL worker node behind a real socket.
//!
//! The in-process transport is the default simulated cluster; this
//! module lets the same node logic serve over TCP, so a cluster can be
//! assembled from actual processes (or machines) — each node binds a
//! loopback/LAN port, the master connects and speaks the exact same
//! protocol. Used by the runner's `TransportKind::Tcp` mode and
//! available standalone for multi-process deployments.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use crate::error::{ClusterError, Result};
use crate::node::serve_node;
use crate::traffic::NetTraffic;
use crate::transport::TcpTransport;

/// A node served over TCP in a background thread.
pub struct TcpNode {
    /// Address the node is listening on (connect the master here).
    pub addr: String,
    /// Cluster id of the node, carried into panic errors.
    pub id: usize,
    handle: std::thread::JoinHandle<Result<()>>,
}

impl TcpNode {
    /// Bind a fresh loopback port and serve counting requests on the
    /// first accepted connection until the master shuts the node down.
    /// `id` is the cluster node id, used for error attribution.
    pub fn spawn(id: usize, traffic: Arc<NetTraffic>) -> Result<TcpNode> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("bind", "127.0.0.1:0", e)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("addr", "tcp", e)))?
            .to_string();
        let handle = std::thread::spawn(move || serve_one(listener, traffic));
        Ok(TcpNode { addr, id, handle })
    }

    /// Wait for the node to finish serving. A panicking node thread
    /// surfaces as [`ClusterError::NodePanic`] with this node's id and
    /// the panic payload.
    pub fn join(self) -> Result<()> {
        self.handle
            .join()
            .map_err(|payload| ClusterError::node_panic(self.id, payload))?
    }
}

/// Accept one connection on `listener` and serve it until shutdown.
pub fn serve_one(listener: TcpListener, traffic: Arc<NetTraffic>) -> Result<()> {
    let (stream, _) = listener
        .accept()
        .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("accept", "tcp", e)))?;
    serve_stream(stream, traffic)
}

/// Serve requests on an established stream until shutdown.
pub fn serve_stream(stream: TcpStream, traffic: Arc<NetTraffic>) -> Result<()> {
    let transport = TcpTransport::from_stream(stream, traffic)?;
    serve_node(&transport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, NodeDirectives, NodeFault, WorkerConfig};
    use crate::transport::Transport;
    use pdtl_core::orient::orient_to_disk;
    use pdtl_graph::gen::rmat::rmat;
    use pdtl_graph::verify::triangle_count;
    use pdtl_graph::DiskGraph;
    use pdtl_io::IoStats;

    #[test]
    fn tcp_node_counts_over_a_real_socket() {
        let g = rmat(7, 77).unwrap();
        let expected = triangle_count(&g);
        let stats = IoStats::new();
        let dir = std::env::temp_dir().join(format!("pdtl-tcpnode-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
        let (og, _) = orient_to_disk(&input, dir.join("oriented"), 2, &stats).unwrap();

        let traffic = NetTraffic::new();
        let node = TcpNode::spawn(1, traffic.clone()).unwrap();
        let master = TcpTransport::connect(&node.addr, traffic.clone()).unwrap();
        master
            .send(&Message::Config {
                node: 1,
                graph_base: og.disk.base().to_string_lossy().into_owned(),
                workers: vec![WorkerConfig {
                    start: 0,
                    end: og.m_star(),
                    budget_edges: 512,
                    scan_pruning: true,
                    backend: pdtl_io::IoBackend::default(),
                    io_latency_us: 0,
                    read_fault: None,
                    codec: pdtl_io::Codec::Raw,
                }],
                listing: false,
                directives: NodeDirectives::default(),
            })
            .unwrap();
        let reply = master.recv().unwrap();
        master.send(&Message::Shutdown).unwrap();
        node.join().unwrap();
        let Message::Results { workers, .. } = reply else {
            panic!("expected Results, got {reply:?}");
        };
        assert_eq!(workers[0].triangles, expected);
        assert!(traffic.config_bytes() > 0 && traffic.result_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_node_join_carries_id_and_panic_payload() {
        let traffic = NetTraffic::new();
        let node = TcpNode::spawn(7, traffic.clone()).unwrap();
        let master = TcpTransport::connect(&node.addr, traffic).unwrap();
        master
            .send(&Message::Config {
                node: 7,
                graph_base: "/g".into(),
                workers: vec![],
                listing: false,
                directives: NodeDirectives {
                    heartbeat_ms: 0,
                    fault: NodeFault::Panic,
                },
            })
            .unwrap();
        let err = node.join().unwrap_err();
        let ClusterError::NodePanic { node: id, detail } = err else {
            panic!("expected NodePanic, got {err}");
        };
        assert_eq!(id, 7);
        assert!(detail.contains("injected fault"), "{detail}");
    }

    #[test]
    fn tcp_node_reports_error_end_to_end() {
        // The NodeError path over a real socket: a bad replica path
        // comes back as a protocol-level NodeError message, not a hang
        // or a dropped connection.
        let traffic = NetTraffic::new();
        let node = TcpNode::spawn(3, traffic.clone()).unwrap();
        let master = TcpTransport::connect(&node.addr, traffic.clone()).unwrap();
        master
            .send(&Message::Config {
                node: 3,
                graph_base: "/nonexistent/replica".into(),
                workers: vec![],
                listing: false,
                directives: NodeDirectives::default(),
            })
            .unwrap();
        let reply = master.recv().unwrap();
        master.send(&Message::Shutdown).unwrap();
        node.join().unwrap();
        let Message::NodeError { node: id, detail } = reply else {
            panic!("expected NodeError, got {reply:?}");
        };
        assert_eq!(id, 3);
        assert!(!detail.is_empty());
        assert!(
            traffic.result_bytes() > 0,
            "NodeError counts as result traffic"
        );
    }
}
