//! Counted message transports.
//!
//! The runner talks to nodes through the [`Transport`] trait so the same
//! protocol runs over an in-process channel (the default simulated
//! cluster — deterministic and dependency-free) or a real TCP socket
//! (loopback or an actual network). Every sent message is charged to the
//! shared [`NetTraffic`] counters by traffic class.
//!
//! Both transports move the single `[u32 length | payload]` buffer
//! [`Message::frame`] builds: the channel hands it over whole, the
//! socket writes it with one `write_all`. [`MAX_FRAME`] bounds both
//! directions — `frame` refuses a larger payload, the reader a larger
//! declared length before buffering any of it.
//!
//! Receives come in two flavours: blocking [`recv`](Transport::recv)
//! and deadline-bounded [`recv_deadline`](Transport::recv_deadline),
//! which the fault-tolerant runner polls so a dead or wedged node
//! surfaces as [`ClusterError::Timeout`] instead of hanging the master
//! forever. The TCP implementation buffers partial frames across
//! timed-out reads, so a deadline expiring mid-frame never corrupts the
//! stream.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{ClusterError, Result};
use crate::message::{Message, FRAME_HEADER, MAX_FRAME};
use crate::traffic::NetTraffic;

/// A bidirectional, message-oriented endpoint.
pub trait Transport: Send + Sync {
    /// Send one message (counted).
    fn send(&self, msg: &Message) -> Result<()>;
    /// Receive the next message (blocking).
    fn recv(&self) -> Result<Message>;
    /// Receive the next message, waiting at most `timeout`; returns
    /// [`ClusterError::Timeout`] when nothing (complete) arrived in
    /// time. Partial data read before the deadline is retained for the
    /// next call.
    fn recv_deadline(&self, timeout: Duration) -> Result<Message>;
}

/// Lock ignoring poison: every guarded value here (a receiver, a
/// stream, a frame buffer whose cursor moves only after a frame is
/// cut) is valid at every step, so a thread that panicked while
/// holding the lock must not wedge the connection for the others.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn charge(traffic: &NetTraffic, msg: &Message, bytes: u64) {
    match msg {
        // Serve-mode queries are the configuration of a dispatch, and
        // their answers are results — the same Θ-classes as the cluster
        // protocol, so stats stay comparable across both modes.
        Message::Config { .. } | Message::Query { .. } => traffic.add_config(bytes),
        Message::Results { .. }
        | Message::NodeError { .. }
        | Message::QueryResult { .. }
        | Message::QueryError { .. } => traffic.add_result(bytes),
        Message::Triangles { .. } => traffic.add_triangles(bytes),
        Message::Progress { .. }
        | Message::Shutdown
        | Message::StatsRequest
        | Message::StatsResult { .. } => traffic.add_control(bytes),
    }
}

/// In-process transport endpoint: frames move through `std::sync::mpsc`
/// channels (the receiver behind a mutex, as the TCP reader is, so the
/// endpoint is `Sync`).
pub struct InProcTransport {
    tx: Sender<Vec<u8>>,
    rx: Mutex<Receiver<Vec<u8>>>,
    traffic: Arc<NetTraffic>,
}

/// Create a connected pair of in-process endpoints sharing `traffic`.
pub fn in_proc_pair(traffic: Arc<NetTraffic>) -> (InProcTransport, InProcTransport) {
    let (atx, brx) = channel();
    let (btx, arx) = channel();
    (
        InProcTransport {
            tx: atx,
            rx: Mutex::new(arx),
            traffic: traffic.clone(),
        },
        InProcTransport {
            tx: btx,
            rx: Mutex::new(brx),
            traffic,
        },
    )
}

impl Transport for InProcTransport {
    fn send(&self, msg: &Message) -> Result<()> {
        let frame = msg.frame()?;
        // no socket, so the length header is not traffic
        charge(&self.traffic, msg, (frame.len() - FRAME_HEADER) as u64);
        self.tx
            .send(frame)
            .map_err(|_| ClusterError::Disconnected("in-proc peer"))
    }

    fn recv(&self) -> Result<Message> {
        let frame = lock(&self.rx)
            .recv()
            .map_err(|_| ClusterError::Disconnected("in-proc peer"))?;
        Message::decode(&frame[FRAME_HEADER..])
    }

    fn recv_deadline(&self, timeout: Duration) -> Result<Message> {
        let frame = lock(&self.rx).recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => ClusterError::Timeout {
                peer: "in-proc peer",
                after: timeout,
            },
            RecvTimeoutError::Disconnected => ClusterError::Disconnected("in-proc peer"),
        })?;
        Message::decode(&frame[FRAME_HEADER..])
    }
}

/// Reader half of a [`TcpTransport`]: the stream plus an accumulation
/// buffer so a deadline can expire mid-frame without losing the bytes
/// already read. Unconsumed bytes are `buf[start..]`.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// Cut one complete `[u32 len | payload]` frame off the front of
    /// the buffered bytes, if present, and decode it in place — the
    /// workspace's one frame cutter. A declared length past
    /// [`MAX_FRAME`] is rejected on the header alone, before a byte of
    /// the payload is waited for or buffered.
    fn take_frame(&mut self) -> Result<Option<Message>> {
        let pending = &self.buf[self.start..];
        let Some(header) = pending.first_chunk::<FRAME_HEADER>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > MAX_FRAME {
            return Err(ClusterError::Protocol(format!(
                "peer declared a {len}-byte frame, cap is {MAX_FRAME}"
            )));
        }
        let Some(payload) = pending.get(FRAME_HEADER..FRAME_HEADER + len) else {
            return Ok(None);
        };
        let msg = Message::decode(payload);
        self.start += FRAME_HEADER + len;
        msg.map(Some)
    }

    /// Read until a full frame is available, or `wait` (when set) has
    /// passed. `None` blocks indefinitely.
    fn recv_frame(&mut self, wait: Option<Duration>) -> Result<Message> {
        let deadline = wait.map(|w| Instant::now() + w);
        let timed_out = || ClusterError::Timeout {
            peer: "tcp peer",
            after: wait.unwrap_or_default(),
        };
        loop {
            if let Some(msg) = self.take_frame()? {
                return Ok(msg);
            }
            // Every complete frame is consumed: compact once, moving
            // at most the partial frame at the tail.
            self.buf.drain(..self.start);
            self.start = 0;
            // `set_read_timeout(Some(ZERO))` is an error on std
            // sockets, and zero left is the deadline passing anyway.
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(timed_out());
            }
            self.stream.set_read_timeout(left).map_err(|e| {
                ClusterError::Io(pdtl_io::IoError::os("set_read_timeout", "tcp", e))
            })?;
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ClusterError::Disconnected("tcp peer")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(timed_out())
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(ClusterError::Disconnected("tcp peer")),
            }
        }
    }
}

/// TCP transport endpoint with length-prefixed frames.
pub struct TcpTransport {
    reader: Mutex<FrameReader>,
    writer: Mutex<TcpStream>,
    traffic: Arc<NetTraffic>,
}

impl TcpTransport {
    /// Wrap an established stream — accepted or connected, cluster or
    /// serve. Frames are written whole, so Nagle's algorithm could
    /// only delay them: it is switched off.
    pub fn from_stream(stream: TcpStream, traffic: Arc<NetTraffic>) -> Result<Self> {
        let os = |op, e| ClusterError::Io(pdtl_io::IoError::os(op, "tcp", e));
        stream.set_nodelay(true).map_err(|e| os("set_nodelay", e))?;
        let reader = stream.try_clone().map_err(|e| os("clone", e))?;
        Ok(Self {
            reader: Mutex::new(FrameReader {
                stream: reader,
                buf: Vec::new(),
                start: 0,
            }),
            writer: Mutex::new(stream),
            traffic,
        })
    }

    /// Connect to `addr`.
    pub fn connect(addr: &str, traffic: Arc<NetTraffic>) -> Result<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("connect", addr, e)))?;
        Self::from_stream(stream, traffic)
    }

    /// Whether the peer has started a frame it has not finished.
    pub(crate) fn mid_frame(&self) -> bool {
        let r = lock(&self.reader);
        r.buf.len() > r.start
    }
}

impl Transport for TcpTransport {
    fn send(&self, msg: &Message) -> Result<()> {
        let frame = msg.frame()?;
        // frame header + payload both cross the wire
        charge(&self.traffic, msg, frame.len() as u64);
        lock(&self.writer)
            .write_all(&frame)
            .map_err(|e| ClusterError::Io(pdtl_io::IoError::os("send", "tcp", e)))
    }

    fn recv(&self) -> Result<Message> {
        lock(&self.reader).recv_frame(None)
    }

    fn recv_deadline(&self, timeout: Duration) -> Result<Message> {
        lock(&self.reader).recv_frame(Some(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{NodeDirectives, WorkerConfig};

    fn config_msg() -> Message {
        Message::Config {
            node: 1,
            graph_base: "/tmp/g".into(),
            workers: vec![WorkerConfig {
                start: 0,
                end: 10,
                budget_edges: 5,
                scan_pruning: true,
                backend: pdtl_io::IoBackend::default(),
                io_latency_us: 0,
                read_fault: None,
                codec: pdtl_io::Codec::Raw,
            }],
            listing: false,
            directives: NodeDirectives::default(),
        }
    }

    #[test]
    fn in_proc_round_trip_and_accounting() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic.clone());
        let msg = config_msg();
        a.send(&msg).unwrap();
        assert_eq!(b.recv().unwrap(), msg);
        assert_eq!(traffic.config_bytes(), msg.wire_size());

        let reply = Message::Results {
            node: 1,
            workers: vec![],
        };
        b.send(&reply).unwrap();
        assert_eq!(a.recv().unwrap(), reply);
        assert_eq!(traffic.result_bytes(), reply.wire_size());
    }

    #[test]
    fn in_proc_disconnect_reported() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic);
        drop(b);
        assert!(matches!(
            a.send(&config_msg()),
            Err(ClusterError::Disconnected(_))
        ));
        assert!(matches!(a.recv(), Err(ClusterError::Disconnected(_))));
        assert!(matches!(
            a.recv_deadline(Duration::from_secs(5)),
            Err(ClusterError::Disconnected(_))
        ));
    }

    #[test]
    fn in_proc_deadline_distinguishes_timeout_from_disconnect() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic);
        assert!(matches!(
            a.recv_deadline(Duration::from_millis(5)),
            Err(ClusterError::Timeout { .. })
        ));
        b.send(&Message::Shutdown).unwrap();
        assert_eq!(
            a.recv_deadline(Duration::from_secs(5)).unwrap(),
            Message::Shutdown
        );
    }

    #[test]
    fn control_traffic_classified() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic.clone());
        let hb = Message::Progress { node: 1, seq: 0 };
        a.send(&hb).unwrap();
        a.send(&Message::Shutdown).unwrap();
        b.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(
            traffic.control_bytes(),
            hb.wire_size() + Message::Shutdown.wire_size()
        );
        assert_eq!(traffic.config_bytes(), 0);
        assert_eq!(traffic.result_bytes(), 0);
    }

    #[test]
    fn triangle_traffic_classified() {
        let traffic = NetTraffic::new();
        let (a, b) = in_proc_pair(traffic.clone());
        let msg = Message::Triangles {
            node: 0,
            triples: vec![(1, 2, 3); 10],
        };
        a.send(&msg).unwrap();
        b.recv().unwrap();
        assert_eq!(traffic.triangle_bytes(), msg.wire_size());
        assert_eq!(traffic.config_bytes(), 0);
    }

    /// A connected loopback pair charging `traffic`: (connecting end,
    /// accepted end).
    fn tcp_pair(traffic: &Arc<NetTraffic>) -> (TcpTransport, TcpTransport) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let near = TcpTransport::connect(&addr, traffic.clone()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let far = TcpTransport::from_stream(stream, traffic.clone()).unwrap();
        (near, far)
    }

    #[test]
    fn tcp_round_trip_over_loopback() {
        let traffic = NetTraffic::new();
        let (client, far) = tcp_pair(&traffic);
        let server = std::thread::spawn(move || {
            let msg = far.recv().unwrap();
            far.send(&msg).unwrap(); // echo
        });
        let msg = config_msg();
        client.send(&msg).unwrap();
        assert_eq!(client.recv().unwrap(), msg);
        server.join().unwrap();
        // both directions counted, with 4-byte frame headers
        assert_eq!(traffic.config_bytes(), 2 * (msg.wire_size() + 4));
    }

    #[test]
    fn tcp_deadline_times_out_then_delivers() {
        let (client, far) = tcp_pair(&NetTraffic::new());
        let (release_tx, release_rx) = channel::<()>();
        let server = std::thread::spawn(move || {
            release_rx.recv().unwrap(); // hold the reply until told
            far.send(&Message::Progress { node: 2, seq: 1 }).unwrap();
        });
        // nothing sent yet: deadline expires as a Timeout
        assert!(matches!(
            client.recv_deadline(Duration::from_millis(10)),
            Err(ClusterError::Timeout { .. })
        ));
        release_tx.send(()).unwrap();
        // the same reader then delivers the full frame
        assert_eq!(
            client.recv_deadline(Duration::from_secs(30)).unwrap(),
            Message::Progress { node: 2, seq: 1 }
        );
        server.join().unwrap();
    }

    #[test]
    fn tcp_partial_frame_survives_a_deadline() {
        // A frame split across the deadline: the first half arrives,
        // the deadline fires, then the second half completes the frame
        // on the next call — framing must not desynchronize.
        let traffic = NetTraffic::new();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (release_tx, release_rx) = channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let msg = Message::NodeError {
                node: 5,
                detail: "split across reads".into(),
            };
            let framed = msg.frame().unwrap();
            let mid = framed.len() / 2;
            stream.write_all(&framed[..mid]).unwrap();
            stream.flush().unwrap();
            release_rx.recv().unwrap();
            stream.write_all(&framed[mid..]).unwrap();
        });
        let client = TcpTransport::connect(&addr, traffic).unwrap();
        // long enough to surely buffer the first half, short enough to
        // expire before the second half is released
        let first = client.recv_deadline(Duration::from_millis(50));
        assert!(
            matches!(first, Err(ClusterError::Timeout { .. })),
            "{first:?}"
        );
        release_tx.send(()).unwrap();
        assert_eq!(
            client.recv_deadline(Duration::from_secs(30)).unwrap(),
            Message::NodeError {
                node: 5,
                detail: "split across reads".into(),
            }
        );
        server.join().unwrap();
    }

    #[test]
    fn tcp_disconnect_reported_on_deadline_recv() {
        let (client, far) = tcp_pair(&NetTraffic::new());
        drop(far); // immediate close
        assert!(matches!(
            client.recv_deadline(Duration::from_secs(30)),
            Err(ClusterError::Disconnected(_))
        ));
    }

    #[test]
    fn tcp_small_frames_do_not_wait_for_a_timer() {
        // One write per frame on a TCP_NODELAY socket: a round trip is
        // microseconds. Header and payload as two writes under Nagle +
        // delayed ACK cost ~88 ms each, ~9 s for this loop.
        let (near, far) = tcp_pair(&NetTraffic::new());
        let echo = std::thread::spawn(move || loop {
            match far.recv().unwrap() {
                Message::Shutdown => return,
                msg => far.send(&msg).unwrap(),
            }
        });
        let begin = Instant::now();
        for seq in 0..100 {
            let ping = Message::Progress { node: 1, seq };
            near.send(&ping).unwrap();
            assert_eq!(near.recv().unwrap(), ping);
        }
        let took = begin.elapsed();
        near.send(&Message::Shutdown).unwrap();
        echo.join().unwrap();
        assert!(took < Duration::from_secs(2), "100 round trips: {took:?}");
    }

    #[test]
    fn oversized_frames_are_refused_in_both_directions() {
        // Outbound: a payload past MAX_FRAME is a typed error on both
        // transports, never a truncated length on the wire.
        let huge = Message::NodeError {
            node: 0,
            detail: "x".repeat(MAX_FRAME),
        };
        let (near, mut far) = tcp_pair(&NetTraffic::new());
        assert!(matches!(near.send(&huge), Err(ClusterError::Protocol(_))));
        let (a, _b) = in_proc_pair(NetTraffic::new());
        assert!(matches!(a.send(&huge), Err(ClusterError::Protocol(_))));
        drop(huge);

        // Inbound: the declared length alone is enough to reject; the
        // reader does not wait for (or buffer) the payload.
        let raw = lock(&near.writer);
        (&*raw)
            .write_all(&(MAX_FRAME as u32 + 1).to_le_bytes())
            .unwrap();
        let err = far.recv_deadline(Duration::from_secs(30)).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol(_)), "{err}");
        assert!(far.reader.get_mut().unwrap().buf.len() <= FRAME_HEADER);
    }
}
