//! Cross-backend accounting contract of the [`U32Source`] seam.
//!
//! The four backends — blocking [`U32Reader`], read-ahead
//! [`PrefetchReader`], zero-copy [`MmapSource`], asynchronous
//! [`UringSource`] — must yield byte-identical `u32` streams, identical
//! final positions, and identical `bytes_read`/`seeks`/`read_ops` for *any* access
//! pattern (reads, short and long skips, seeks — all clamped at end of
//! file), at any block size, on any file length including empty. The
//! property test drives randomized patterns; the explicit tests pin the
//! EOF-clamp and empty-file edges the buffered path fixed in PR 3.
//!
//! The codec × transport cross-product extends the same contract one
//! layer up: a [`VarintSource`] over any transport must yield the same
//! logical stream and decoded position as the raw reference, and the
//! *compressed* accounting (bytes_read / seeks / u32s_decoded) must be
//! identical whichever transport carries the bytes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pdtl_io::{
    mmap_supported, uring_supported, IoStats, MmapSource, PrefetchReader, U32Reader, U32Source,
    U32Writer, UringSource, VarintAdjWriter, VarintIndex, VarintSource,
};

/// The non-reference backends available on this platform (`blocking`
/// is always the reference trace).
fn other_backends() -> Vec<&'static str> {
    let mut v = vec!["prefetch"];
    if mmap_supported() {
        v.push("mmap");
    }
    if uring_supported() {
        v.push("uring");
    }
    v
}

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn write_fixture(vals: &[u32]) -> PathBuf {
    let dir = std::env::temp_dir().join("pdtl-source-parity");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!(
        "f-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut w = U32Writer::create(&p, IoStats::new()).unwrap();
    w.write_all(vals).unwrap();
    w.finish().unwrap();
    p
}

/// One step of an access pattern: `kind % 3` selects read / skip /
/// seek, `amount` the count or target (often past EOF, exercising the
/// clamps).
fn drive(src: &mut impl U32Source, ops: &[(u8, u64)]) -> (Vec<u32>, u64) {
    let mut out = Vec::new();
    for &(kind, amount) in ops {
        match kind % 3 {
            0 => {
                src.read_into(&mut out, amount as usize % 5000).unwrap();
            }
            1 => src.skip(amount).unwrap(),
            _ => src.seek_to(amount).unwrap(),
        }
    }
    (out, src.position())
}

/// What a pattern produced through one source, and what it cost.
#[derive(Debug, PartialEq)]
struct Trace {
    stream: Vec<u32>,
    position: u64,
    bytes_read: u64,
    seeks: u64,
    read_ops: u64,
    u32s_decoded: u64,
}

impl Trace {
    /// The first field in which `self` differs from `want`.
    fn differs_in(&self, want: &Trace) -> Option<&'static str> {
        [
            (self.stream != want.stream, "stream"),
            (self.position != want.position, "position"),
            (self.bytes_read != want.bytes_read, "bytes_read"),
            (self.seeks != want.seeks, "seeks"),
            (self.read_ops != want.read_ops, "read_ops"),
            (self.u32s_decoded != want.u32s_decoded, "u32s_decoded"),
        ]
        .into_iter()
        .find_map(|(differs, field)| differs.then_some(field))
    }
}

/// Open `path` through the named transport; with an index, under a
/// [`VarintSource`] decoding it.
fn open_source(
    which: &str,
    path: &PathBuf,
    index: Option<&Arc<VarintIndex>>,
    block: usize,
    stats: &Arc<IoStats>,
) -> Box<dyn U32Source> {
    fn layer<T: U32Source + 'static>(
        transport: T,
        index: Option<&Arc<VarintIndex>>,
        stats: &Arc<IoStats>,
    ) -> Box<dyn U32Source> {
        match index {
            Some(index) => {
                Box::new(VarintSource::new(transport, index.clone(), stats.clone()).unwrap())
            }
            None => Box::new(transport),
        }
    }
    let blocking = || U32Reader::with_buffer(path, stats.clone(), block).unwrap();
    match which {
        "blocking" => layer(blocking(), index, stats),
        "prefetch" => layer(PrefetchReader::new(blocking()).unwrap(), index, stats),
        "mmap" => layer(
            MmapSource::with_block(path, stats.clone(), block).unwrap(),
            index,
            stats,
        ),
        "uring" => layer(
            UringSource::with_block(path, stats.clone(), block).unwrap(),
            index,
            stats,
        ),
        other => panic!("unknown backend {other}"),
    }
}

/// Drive `ops` through the named transport — with an index, through a
/// [`VarintSource`] over it, so positions are decoded ones.
fn trace(
    which: &str,
    path: &PathBuf,
    index: Option<&Arc<VarintIndex>>,
    block: usize,
    ops: &[(u8, u64)],
) -> Trace {
    let stats = IoStats::new();
    let (stream, position) = drive(&mut open_source(which, path, index, block, &stats), ops);
    Trace {
        stream,
        position,
        bytes_read: stats.bytes_read(),
        seeks: stats.seeks(),
        read_ops: stats.read_ops(),
        u32s_decoded: stats.u32s_decoded(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backends_yield_identical_streams_and_accounting(
        len in 0usize..30_000,
        block in 1usize..1500,
        ops in prop::collection::vec((0u8..6, 0u64..40_000), 0..32),
    ) {
        let vals: Vec<u32> = (0..len as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let path = write_fixture(&vals);

        let reference = trace("blocking", &path, None, block, &ops);
        for which in other_backends() {
            let got = trace(which, &path, None, block, &ops);
            prop_assert_eq!((which, got.differs_in(&reference)), (which, None));
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn eof_clamp_edges_agree_across_backends() {
    // The PR 3 regression shape: seek past EOF, then read; skip
    // u64::MAX; read at exactly EOF. Every backend must clamp the same
    // way and count the same I/O.
    let vals: Vec<u32> = (0..1000).collect();
    let path = write_fixture(&vals);
    let ops: Vec<(u8, u64)> = vec![
        (2, 1_000_000), // seek far past EOF: clamps to len
        (0, 10),        // read at EOF: nothing
        (2, 990),       // seek near the end
        (0, 100),       // read the 10-value tail
        (1, u64::MAX),  // skip clamps
        (2, 0),         // rewind
        (1, 999),       // skip to the last value
        (0, 5),         // read it
    ];
    let reference = trace("blocking", &path, None, 64, &ops);
    assert_eq!(
        reference.stream.last(),
        Some(&999),
        "sanity: the pattern ends on the last value"
    );
    for which in other_backends() {
        let got = trace(which, &path, None, 64, &ops);
        assert_eq!(got.differs_in(&reference), None, "{which}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_file_edges_agree_across_backends() {
    let path = write_fixture(&[]);
    let ops: Vec<(u8, u64)> = vec![(0, 10), (2, 5), (1, u64::MAX), (0, 1)];
    let reference = trace("blocking", &path, None, 16, &ops);
    assert!(reference.stream.is_empty());
    assert_eq!(reference.position, 0, "position clamps to the empty length");
    for which in other_backends() {
        let got = trace(which, &path, None, 16, &ops);
        assert_eq!(got.differs_in(&reference), None, "{which}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Build a varint fixture from per-vertex strictly-increasing runs:
/// writes the compressed file, returns its path, the seek index, and
/// the flattened logical stream (what a raw file would contain).
fn write_varint_fixture(runs: &[Vec<u32>]) -> (PathBuf, Arc<VarintIndex>, Vec<u32>) {
    let dir = std::env::temp_dir().join("pdtl-source-parity");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!(
        "v-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut w = VarintAdjWriter::create(&p, IoStats::new()).unwrap();
    let mut decoded = vec![0u64];
    let mut logical = Vec::new();
    for run in runs {
        w.write_run(run).unwrap();
        logical.extend_from_slice(run);
        decoded.push(logical.len() as u64);
    }
    let bytes = w.finish().unwrap();
    let index = Arc::new(VarintIndex::new(decoded, bytes).unwrap());
    (p, index, logical)
}

/// Shrink a flat value pool into per-vertex strictly-increasing runs:
/// each (gap, len) pair cuts one run whose deltas come from the pool.
fn runs_from_pool(pool: &[(u8, u8)]) -> Vec<Vec<u32>> {
    let mut runs = Vec::new();
    for chunk in pool.chunks(3) {
        let mut run = Vec::new();
        let mut v = 0u32;
        for &(gap, reps) in chunk {
            for r in 0..(reps % 4) {
                v += 1 + u32::from(gap) * (u32::from(r) + 1);
                run.push(v);
            }
        }
        runs.push(run); // empty runs (all reps % 4 == 0) are legal
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn codec_transport_cross_product_agrees(
        pool in prop::collection::vec((0u8..255, 0u8..255), 0..120),
        block in 1usize..900,
        ops in prop::collection::vec((0u8..6, 0u64..4_000), 0..24),
    ) {
        let runs = runs_from_pool(&pool);
        let (vpath, index, logical) = write_varint_fixture(&runs);
        let rpath = write_fixture(&logical);

        // Raw blocking reader is the logical-stream reference.
        let want = trace("blocking", &rpath, None, block, &ops);

        let reference = trace("blocking", &vpath, Some(&index), block, &ops);
        prop_assert_eq!(&reference.stream, &want.stream);
        prop_assert_eq!(reference.position, want.position);
        for which in other_backends() {
            let got = trace(which, &vpath, Some(&index), block, &ops);
            prop_assert_eq!((which, got.differs_in(&reference)), (which, None));
        }
        let _ = std::fs::remove_file(&vpath);
        let _ = std::fs::remove_file(&rpath);
    }
}

#[test]
fn varint_runs_straddling_the_decode_buffer_agree_across_transports() {
    // The cross-product property's fixtures fit one 16 KiB decoder
    // fetch. This one does not: ~250 KB encoded, runs of up to 12 000
    // values (longer than the decode buffer), gaps of every varint
    // width, zero-degree vertices in between — so compact-and-refill
    // and index jumps happen above every transport, at transport blocks
    // smaller than, equal to and larger than the decoder's fetch.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut draw = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % below
    };
    let runs: Vec<Vec<u32>> = (0..400usize)
        .map(|i| {
            let len = [0, 3, 0, 40, 700, 1, 12_000, 0][i % 8] * (1 + i % 2);
            let max_gap = [90u64, 250, 30_000, 150_000][i % 4];
            let mut v = draw(max_gap);
            let mut run = Vec::new();
            while run.len() < len && v <= u64::from(u32::MAX) {
                run.push(v as u32);
                v += 1 + draw(max_gap);
            }
            run
        })
        .collect();
    let (vpath, index, logical) = write_varint_fixture(&runs);
    assert!(index.encoded_bytes() > 200_000);
    let len = logical.len() as u64;

    // A pruned scan (read one run in three, skip the rest boundary to
    // boundary), odd-sized reads across run boundaries, and seeks into
    // the middle of the long runs with skips out of them.
    let mut ops: Vec<(u8, u64)> = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        ops.push((u8::from(i % 3 != 0), run.len() as u64));
    }
    ops.push((2, 0));
    ops.extend((0..200).map(|_| (0, 4_999)));
    for i in 0..60u64 {
        ops.push((2, (i * 7_919) % (len + 10)));
        ops.push((1, 1 + i * 37));
        ops.push((0, 1 + (i * 611) % 3_000));
    }
    // `drive` caps reads at 5000 values, so the pruned-scan reads of
    // the longest runs are short: the stream is checked against the
    // raw blocking trace rather than reconstructed here.
    let rpath = write_fixture(&logical);
    for block in [64, 4 * 1024, 16 * 1024] {
        let want = trace("blocking", &rpath, None, block, &ops);
        let reference = trace("blocking", &vpath, Some(&index), block, &ops);
        assert_eq!(reference.stream, want.stream, "block {block}: stream");
        assert_eq!(reference.position, want.position, "block {block}");
        assert_eq!(
            reference.u32s_decoded,
            want.stream.len() as u64,
            "block {block}"
        );
        for which in other_backends() {
            let got = trace(which, &vpath, Some(&index), block, &ops);
            assert_eq!(got.differs_in(&reference), None, "{which}/{block}");
        }
    }
    let _ = std::fs::remove_file(&vpath);
    let _ = std::fs::remove_file(&rpath);
}

#[test]
fn varint_eof_and_empty_edges_agree_across_transports() {
    // The EOF-clamp pattern from the raw edge test, replayed in decoded
    // index space, plus the all-empty-runs graph (zero encoded bytes).
    let mut runs: Vec<Vec<u32>> = (0..50u32)
        .map(|s| (0..20).map(|i| s + i * (s % 7 + 1) + 1).collect())
        .collect();
    runs.insert(7, Vec::new());
    let (vpath, index, logical) = write_varint_fixture(&runs);
    let ops: Vec<(u8, u64)> = vec![
        (2, 1_000_000),
        (0, 10),
        (2, logical.len() as u64 - 10),
        (0, 100),
        (1, u64::MAX),
        (2, 0),
        (1, logical.len() as u64 - 1),
        (0, 5),
    ];
    let reference = trace("blocking", &vpath, Some(&index), 64, &ops);
    assert_eq!(
        reference.stream.last(),
        logical.last(),
        "sanity: the pattern ends on the last decoded value"
    );
    assert_eq!(
        reference.position,
        logical.len() as u64,
        "position clamps at decoded EOF"
    );
    for which in other_backends() {
        let got = trace(which, &vpath, Some(&index), 64, &ops);
        assert_eq!(got.differs_in(&reference), None, "{which}");
    }
    let _ = std::fs::remove_file(&vpath);

    let (epath, eindex, elogical) = write_varint_fixture(&[Vec::new(), Vec::new()]);
    assert!(elogical.is_empty());
    let eops: Vec<(u8, u64)> = vec![(0, 10), (2, 5), (1, u64::MAX), (0, 1)];
    let eref = trace("blocking", &epath, Some(&eindex), 16, &eops);
    assert!(eref.stream.is_empty());
    assert_eq!(eref.position, 0);
    for which in other_backends() {
        let got = trace(which, &epath, Some(&eindex), 16, &eops);
        assert_eq!(got, eref, "{which}");
    }
    let _ = std::fs::remove_file(&epath);
}

/// One step of a chunk walk: the calls the MGT chunk loader makes, and
/// the ones a caller that strays from its announcement would.
#[derive(Debug, Clone, Copy)]
enum Step {
    Hint(u64, usize),
    Range(u64, usize),
    Next(usize),
    Skip(u64),
}

/// Walk `steps`, checking every delivered run against the in-memory
/// `logical` stream and every failed load for the typed error; returns
/// `(position, bytes_read, seeks, read_ops)` after each step.
fn walk(
    which: &str,
    path: &PathBuf,
    index: Option<&Arc<VarintIndex>>,
    block: usize,
    logical: &[u32],
    steps: &[Step],
) -> Vec<(u64, u64, u64, u64)> {
    let stats = IoStats::new();
    let mut src = open_source(which, path, index, block, &stats);
    let mut scratch = Vec::new();
    let clamp = |at: u64, n: usize| {
        let from = at.min(logical.len() as u64) as usize;
        &logical[from..(from + n).min(logical.len())]
    };
    let mut after = Vec::new();
    for (i, &step) in steps.iter().enumerate() {
        let at = src.position();
        match step {
            Step::Hint(pos, len) => src.hint_range(pos, len),
            Step::Range(pos, len) if pos + len as u64 <= logical.len() as u64 => {
                let run = src.range_run(pos, len, &mut scratch).unwrap();
                assert_eq!(run, clamp(pos, len), "{which} step {i} {step:?}");
            }
            Step::Range(pos, len) => {
                let err = src
                    .range_run(pos, len, &mut scratch)
                    .unwrap_err()
                    .to_string();
                assert!(err.contains("past end of file"), "{which}: {err}");
            }
            Step::Next(n) => {
                let run = src.next_run(n, &mut scratch).unwrap();
                assert_eq!(run, clamp(at, n), "{which} step {i} {step:?}");
            }
            Step::Skip(n) => src.skip(n).unwrap(),
        }
        after.push((
            src.position(),
            stats.bytes_read(),
            stats.seeks(),
            stats.read_ops(),
        ));
    }
    after
}

#[test]
fn hinted_chunk_walks_agree_across_transports_and_codecs() {
    // 60 runs of 1..=34 strictly increasing values: 946 logical
    // values, walked at a 64-value block.
    let runs: Vec<Vec<u32>> = (0..60u32)
        .map(|r| (0..r % 34 + 1).map(|i| 3 * r + i * (r % 5 + 1)).collect())
        .collect();
    let (vpath, index, logical) = write_varint_fixture(&runs);
    let rpath = write_fixture(&logical);
    let len = logical.len() as u64;
    assert_eq!(len, 946);
    const BLOCK: usize = 64;

    let mut walks: Vec<Vec<Step>> = Vec::new();
    // The engine's pattern: contiguous chunks from `start`, each
    // announced before the one ahead of it is loaded, the last clamped
    // at end of file — of 1 value, sub-block, exactly one block, and
    // several blocks.
    for (start, chunk) in [(926, 1usize), (37, 10), (0, BLOCK), (5, BLOCK), (3, 200)] {
        let mut steps = Vec::new();
        let mut pos = start;
        while pos < len {
            let this = chunk.min((len - pos) as usize);
            let next = pos + this as u64;
            if next < len {
                steps.push(Step::Hint(next, chunk.min((len - next) as usize)));
            }
            steps.push(Step::Range(pos, this));
            pos = next;
        }
        walks.push(steps);
    }
    // A caller that loads somewhere else than it announced, twice.
    walks.push(vec![
        Step::Hint(500, 100),
        Step::Range(0, BLOCK),
        Step::Range(300, 70),
        Step::Hint(370, 70),
        Step::Range(100, 5),
        Step::Range(370, 70),
    ]);
    // Sequential reads and skips right after a hinted load: inside the
    // window, across it (the hint's read-ahead is elsewhere), landing
    // exactly on the hinted position, and a long skip.
    walks.push(vec![
        Step::Hint(500, 100),
        Step::Range(0, 50),
        Step::Next(10),
        Step::Next(30),
        Step::Skip(5),
        Step::Next(100),
        Step::Hint(128, 64),
        Step::Range(0, 128),
        Step::Next(70),
        Step::Hint(900, 10),
        Step::Range(200, 3),
        Step::Skip(20),
        Step::Skip(400),
        Step::Next(10),
    ]);
    // Hints at, across and past end of file.
    walks.push(vec![
        Step::Hint(len + 50, 10),
        Step::Range(10, 5),
        Step::Range(len + 50, 10),
        Step::Hint(len - 3, 10),
        Step::Range(0, 1),
        Step::Range(len - 3, 3),
        Step::Hint(len, 0),
        Step::Range(7, 7),
        Step::Range(len, 0),
        Step::Next(4),
    ]);

    for (codec, path, index) in [("raw", &rpath, None), ("varint", &vpath, Some(&index))] {
        for steps in &walks {
            let reference = walk("blocking", path, index, BLOCK, &logical, steps);
            for which in other_backends() {
                let got = walk(which, path, index, BLOCK, &logical, steps);
                assert_eq!(got, reference, "{codec}/{which}: {steps:?}");
            }
        }
    }
    let _ = std::fs::remove_file(&vpath);
    let _ = std::fs::remove_file(&rpath);
}
