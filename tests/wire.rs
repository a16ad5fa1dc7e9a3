//! Properties of the wire decoder, the one place untrusted bytes enter
//! the cluster runtime and the serve daemon:
//!
//! * arbitrary bytes never panic it and never make it allocate past a
//!   small multiple of the input;
//! * every single-byte mutation and every truncation of a valid
//!   encoding is a typed error or a message that re-encodes to exactly
//!   the mutated bytes (the encoding is canonical — no slack bytes);
//! * generated messages of every variant round-trip.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use pdtl::cluster::message::{WorkerConfig, WorkerSummary};
use pdtl::cluster::{
    CatalogGraphInfo, ClusterError, Message, NodeDirectives, NodeFault, QueryOperation,
    QueryOptions, ServerStats,
};
use pdtl::io::{Codec, IoBackend};

thread_local! {
    /// Bytes requested from the allocator by this thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting what each thread asks of it (tests in
/// this binary run on parallel threads, so a global count would mix
/// them).
struct Counting;

// SAFETY: every method forwards to `System` unchanged; the thread-local
// is a `const`-initialised `Cell` without a destructor, so touching it
// neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|a| a.set(a.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Decode `bytes`, returning the outcome and the bytes allocated on the
/// way.
fn decode_counting(bytes: &[u8]) -> (Result<Message, ClusterError>, usize) {
    let before = ALLOCATED.with(Cell::get);
    let outcome = Message::decode(bytes);
    (outcome, ALLOCATED.with(Cell::get) - before)
}

/// The strictness contract on one input: a typed protocol error, or a
/// message whose canonical encoding is the input itself.
fn assert_strict(bytes: &[u8], what: &str) {
    match Message::decode(bytes) {
        Ok(msg) => assert_eq!(msg.encode(), bytes, "{what}: decoded {msg:?}"),
        Err(ClusterError::Protocol(_)) => {}
        Err(other) => panic!("{what}: untyped failure {other}"),
    }
}

/// splitmix64: a seed in, a stream of field values out.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn u32(&mut self) -> u32 {
        self.next() as u32
    }
    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
    fn string(&mut self) -> String {
        let pool = ["", "g", "rmat-12", "/data/node3/oriented", "ünï-cødé ✓"];
        pool[self.below(pool.len())].to_string()
    }
    fn vec<T>(&mut self, max: usize, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.below(max + 1)).map(|_| item(self)).collect()
    }
}

const FAULTS: [NodeFault; 6] = [
    NodeFault::None,
    NodeFault::Panic,
    NodeFault::Drop,
    NodeFault::Stall,
    NodeFault::Delay(0),
    NodeFault::Delay(u32::MAX),
];

fn worker(r: &mut Rng) -> WorkerConfig {
    WorkerConfig {
        start: r.next(),
        end: r.next(),
        budget_edges: r.next(),
        scan_pruning: r.bool(),
        backend: IoBackend::ALL[r.below(4)],
        io_latency_us: r.u32(),
        read_fault: r.bool().then(|| r.next()),
        codec: Codec::ALL[r.below(2)],
    }
}

fn summary(r: &mut Rng) -> WorkerSummary {
    WorkerSummary {
        worker: r.u32(),
        start: r.next(),
        end: r.next(),
        triangles: r.next(),
        iterations: r.next(),
        cpu_ops: r.next(),
        bytes_read: r.next(),
        bytes_written: r.next(),
        seeks: r.next(),
        io_ops: r.next(),
        io_nanos: r.next(),
        wall_nanos: r.next(),
    }
}

fn triple(r: &mut Rng) -> (u32, u32, u32) {
    (r.u32(), r.u32(), r.u32())
}

/// Number of `Message` variants [`message`] can build.
const VARIANTS: usize = 11;

/// A generated message of the `variant`-th kind.
fn message(variant: usize, r: &mut Rng) -> Message {
    match variant {
        0 => Message::Config {
            node: r.u32(),
            graph_base: r.string(),
            workers: r.vec(3, worker),
            listing: r.bool(),
            directives: NodeDirectives {
                heartbeat_ms: r.u32(),
                fault: FAULTS[r.below(FAULTS.len())],
            },
        },
        1 => Message::Results {
            node: r.u32(),
            workers: r.vec(2, summary),
        },
        2 => Message::Triangles {
            node: r.u32(),
            triples: r.vec(9, triple),
        },
        3 => Message::NodeError {
            node: r.u32(),
            detail: r.string(),
        },
        4 => Message::Progress {
            node: r.u32(),
            seq: r.u32(),
        },
        5 => Message::Shutdown,
        6 => Message::Query {
            id: r.u32(),
            graph: r.string(),
            op: match r.below(5) {
                0 => QueryOperation::Count,
                1 => QueryOperation::List { limit: r.u32() },
                2 => QueryOperation::Clustering,
                3 => QueryOperation::KTruss { k: r.u32() },
                _ => QueryOperation::Doulion {
                    p_ppm: r.u32(),
                    seed: r.next(),
                    trials: r.u32(),
                },
            },
            options: QueryOptions {
                cores: r.u32(),
                budget_edges: r.next(),
                scan_pruning: r.bool(),
                backend: IoBackend::ALL[r.below(4)],
                codec: Codec::ALL[r.below(2)],
                io_latency_us: r.u32(),
            },
        },
        7 => Message::QueryResult {
            id: r.u32(),
            triangles: r.next(),
            value_bits: r.next(),
            aux: r.next(),
            wall_nanos: r.next(),
            workers: r.vec(2, summary),
            triples: r.vec(5, triple),
        },
        8 => Message::QueryError {
            id: r.u32(),
            detail: r.string(),
        },
        9 => Message::StatsRequest,
        _ => Message::StatsResult {
            stats: ServerStats {
                served: r.next(),
                failed: r.next(),
                inflight: r.u32(),
                rejected_graphs: r.u32(),
                bytes_read: r.next(),
                u32s_decoded: r.next(),
                admitted_peak: r.next(),
                budget_total: r.next(),
                latency_buckets: r.vec(4, Rng::next),
                graphs: r.vec(2, |r| CatalogGraphInfo {
                    name: r.string(),
                    vertices: r.u32(),
                    m_star: r.next(),
                }),
            },
        },
    }
}

#[test]
fn every_mutation_and_truncation_is_rejected_or_canonical() {
    for variant in 0..VARIANTS {
        let valid = message(variant, &mut Rng(variant as u64 + 1)).encode();
        assert_strict(&valid, "the valid encoding itself");
        for cut in 0..valid.len() {
            let err = Message::decode(&valid[..cut]).expect_err("a truncation cannot decode");
            assert!(matches!(err, ClusterError::Protocol(_)), "{err}");
        }
        let mut bytes = valid.clone();
        for at in 0..valid.len() {
            for byte in 0..=u8::MAX {
                bytes[at] = byte;
                assert_strict(&bytes, &format!("variant {variant}, byte {at} = {byte}"));
            }
            bytes[at] = valid[at];
        }
    }
}

#[test]
fn generated_messages_round_trip() {
    // Labels of the engine choices the round-tripped configs carried.
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..128 {
        for variant in 0..VARIANTS {
            let msg = message(variant, &mut Rng(seed));
            let encoded = msg.encode();
            assert_eq!(msg.wire_size(), encoded.len() as u64);
            let frame = msg.frame().unwrap();
            assert_eq!(frame[..4], (encoded.len() as u32).to_le_bytes());
            assert_eq!(frame[4..], encoded[..]);
            assert_eq!(Message::decode(encoded).unwrap(), msg);
            if let Message::Config {
                workers,
                directives,
                ..
            } = msg
            {
                seen.insert(format!("{:?}", directives.fault));
                for w in workers {
                    seen.insert(format!("{:?}", w.backend));
                    seen.insert(format!("{:?}", w.codec));
                    seen.insert(format!("read fault {}", w.read_fault.is_some()));
                }
            }
        }
    }
    // Four backends, both codecs, read fault set and unset, every node
    // fault (`Delay` at both ends of its range).
    assert_eq!(seen.len(), 4 + 2 + 2 + FAULTS.len(), "{seen:?}");
}

#[test]
fn a_declared_count_never_drives_an_allocation() {
    // Every prefix of every variant, cut off right after a count of
    // `u32::MAX`: wherever the grammar expects a count, the message is
    // rejected before 4 Gi elements are reserved for it.
    for variant in 0..VARIANTS {
        let valid = message(variant, &mut Rng(variant as u64 + 1)).encode();
        for at in 5..valid.len() {
            let mut bytes = valid[..at].to_vec();
            bytes.extend_from_slice(&[0xFF; 4]);
            let (_, allocated) = decode_counting(&bytes);
            assert!(
                allocated <= 4 * bytes.len() + 1024,
                "variant {variant}, count at {at}: allocated {allocated} bytes"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_or_balloon(
        tag in 0u8..13,
        tail in prop::collection::vec(any::<u8>(), 0..300),
        bombs in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
    ) {
        // A plausible tag so the field decoders are reached, random
        // bytes behind it, and a few maximal counts dropped in.
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&tail);
        for bomb in bombs {
            let at = bomb.index(bytes.len());
            let end = (at + 4).min(bytes.len());
            bytes[at..end].fill(0xFF);
        }
        let (outcome, allocated) = decode_counting(&bytes);
        prop_assert!(
            allocated <= 4 * bytes.len() + 1024,
            "{} input bytes, {} allocated", bytes.len(), allocated
        );
        match outcome {
            Ok(msg) => prop_assert_eq!(msg.encode(), bytes),
            Err(ClusterError::Protocol(_)) => {}
            Err(other) => prop_assert!(false, "untyped failure {}", other),
        }
    }
}
