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

/// Run the pattern through one backend, returning
/// `(stream, position, bytes_read, seeks, read_ops)`.
type Trace = (Vec<u32>, u64, u64, u64, u64);

fn trace_backend(which: &str, path: &PathBuf, block: usize, ops: &[(u8, u64)]) -> Trace {
    let stats = IoStats::new();
    let (out, pos) = match which {
        "blocking" => {
            let mut r = U32Reader::with_buffer(path, stats.clone(), block).unwrap();
            drive(&mut r, ops)
        }
        "prefetch" => {
            let mut r =
                PrefetchReader::new(U32Reader::with_buffer(path, stats.clone(), block).unwrap())
                    .unwrap();
            drive(&mut r, ops)
        }
        "mmap" => {
            let mut m = MmapSource::with_block(path, stats.clone(), block).unwrap();
            drive(&mut m, ops)
        }
        "uring" => {
            let mut u = UringSource::with_block(path, stats.clone(), block).unwrap();
            drive(&mut u, ops)
        }
        other => panic!("unknown backend {other}"),
    };
    (
        out,
        pos,
        stats.bytes_read(),
        stats.seeks(),
        stats.read_ops(),
    )
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

        let (b_out, b_pos, b_bytes, b_seeks, b_ops) =
            trace_backend("blocking", &path, block, &ops);
        for which in other_backends() {
            let (out, pos, bytes, seeks, read_ops) = trace_backend(which, &path, block, &ops);
            prop_assert_eq!(&out, &b_out);
            prop_assert_eq!(pos, b_pos);
            prop_assert_eq!(bytes, b_bytes);
            prop_assert_eq!(seeks, b_seeks);
            prop_assert_eq!(read_ops, b_ops);
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
    let reference = trace_backend("blocking", &path, 64, &ops);
    assert_eq!(
        &reference.0[reference.0.len() - 1..],
        &[999],
        "sanity: the pattern ends on the last value"
    );
    for which in other_backends() {
        let got = trace_backend(which, &path, 64, &ops);
        assert_eq!(got.0, reference.0, "{which}: stream");
        assert_eq!(got.1, reference.1, "{which}: position");
        assert_eq!(got.2, reference.2, "{which}: bytes_read");
        assert_eq!(got.3, reference.3, "{which}: seeks");
        assert_eq!(got.4, reference.4, "{which}: read_ops");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_file_edges_agree_across_backends() {
    let path = write_fixture(&[]);
    let ops: Vec<(u8, u64)> = vec![(0, 10), (2, 5), (1, u64::MAX), (0, 1)];
    let reference = trace_backend("blocking", &path, 16, &ops);
    assert!(reference.0.is_empty());
    assert_eq!(reference.1, 0, "position clamps to the empty length");
    for which in other_backends() {
        let got = trace_backend(which, &path, 16, &ops);
        assert_eq!(got.0, reference.0, "{which}: stream");
        assert_eq!(got.1, reference.1, "{which}: position");
        assert_eq!(got.2, reference.2, "{which}: bytes_read");
        assert_eq!(got.3, reference.3, "{which}: seeks");
        assert_eq!(got.4, reference.4, "{which}: read_ops");
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

/// Drive `ops` through a [`VarintSource`] over the named transport,
/// returning `(stream, position, bytes_read, seeks, u32s_decoded,
/// read_ops)`.
fn trace_varint(
    which: &str,
    path: &PathBuf,
    index: &Arc<VarintIndex>,
    block: usize,
    ops: &[(u8, u64)],
) -> (Vec<u32>, u64, u64, u64, u64, u64) {
    let stats = IoStats::new();
    let (out, pos) = match which {
        "blocking" => {
            let inner = U32Reader::with_buffer(path, stats.clone(), block).unwrap();
            let mut s = VarintSource::new(inner, index.clone(), stats.clone()).unwrap();
            drive(&mut s, ops)
        }
        "prefetch" => {
            let inner =
                PrefetchReader::new(U32Reader::with_buffer(path, stats.clone(), block).unwrap())
                    .unwrap();
            let mut s = VarintSource::new(inner, index.clone(), stats.clone()).unwrap();
            drive(&mut s, ops)
        }
        "mmap" => {
            let inner = MmapSource::with_block(path, stats.clone(), block).unwrap();
            let mut s = VarintSource::new(inner, index.clone(), stats.clone()).unwrap();
            drive(&mut s, ops)
        }
        "uring" => {
            let inner = UringSource::with_block(path, stats.clone(), block).unwrap();
            let mut s = VarintSource::new(inner, index.clone(), stats.clone()).unwrap();
            drive(&mut s, ops)
        }
        other => panic!("unknown backend {other}"),
    };
    (
        out,
        pos,
        stats.bytes_read(),
        stats.seeks(),
        stats.u32s_decoded(),
        stats.read_ops(),
    )
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
        let (want_out, want_pos, ..) = trace_backend("blocking", &rpath, block, &ops);

        let (b_out, b_pos, b_bytes, b_seeks, b_dec, b_ops) =
            trace_varint("blocking", &vpath, &index, block, &ops);
        prop_assert_eq!(&b_out, &want_out);
        prop_assert_eq!(b_pos, want_pos);
        for which in other_backends() {
            let (out, pos, bytes, seeks, dec, read_ops) =
                trace_varint(which, &vpath, &index, block, &ops);
            prop_assert_eq!(&out, &b_out);
            prop_assert_eq!(pos, b_pos);
            prop_assert_eq!(bytes, b_bytes);
            prop_assert_eq!(seeks, b_seeks);
            prop_assert_eq!(dec, b_dec);
            prop_assert_eq!(read_ops, b_ops);
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
        let (want_out, want_pos, ..) = trace_backend("blocking", &rpath, block, &ops);
        let reference = trace_varint("blocking", &vpath, &index, block, &ops);
        assert_eq!(reference.0, want_out, "block {block}: stream");
        assert_eq!(reference.1, want_pos, "block {block}: position");
        assert_eq!(reference.4, want_out.len() as u64, "block {block}: decoded");
        for which in other_backends() {
            let got = trace_varint(which, &vpath, &index, block, &ops);
            assert_eq!(got.0, reference.0, "{which}/{block}: stream");
            assert_eq!(got.1, reference.1, "{which}/{block}: position");
            assert_eq!(got.2, reference.2, "{which}/{block}: bytes_read");
            assert_eq!(got.3, reference.3, "{which}/{block}: seeks");
            assert_eq!(got.4, reference.4, "{which}/{block}: u32s_decoded");
            assert_eq!(got.5, reference.5, "{which}/{block}: read_ops");
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
    let reference = trace_varint("blocking", &vpath, &index, 64, &ops);
    assert_eq!(
        reference.0.last(),
        logical.last(),
        "sanity: the pattern ends on the last decoded value"
    );
    assert_eq!(
        reference.1,
        logical.len() as u64,
        "position clamps at decoded EOF"
    );
    for which in other_backends() {
        let got = trace_varint(which, &vpath, &index, 64, &ops);
        assert_eq!(got.0, reference.0, "{which}: stream");
        assert_eq!(got.1, reference.1, "{which}: position");
        assert_eq!(got.2, reference.2, "{which}: bytes_read");
        assert_eq!(got.3, reference.3, "{which}: seeks");
        assert_eq!(got.4, reference.4, "{which}: u32s_decoded");
        assert_eq!(got.5, reference.5, "{which}: read_ops");
    }
    let _ = std::fs::remove_file(&vpath);

    let (epath, eindex, elogical) = write_varint_fixture(&[Vec::new(), Vec::new()]);
    assert!(elogical.is_empty());
    let eops: Vec<(u8, u64)> = vec![(0, 10), (2, 5), (1, u64::MAX), (0, 1)];
    let eref = trace_varint("blocking", &epath, &eindex, 16, &eops);
    assert!(eref.0.is_empty());
    assert_eq!(eref.1, 0);
    for which in other_backends() {
        let got = trace_varint(which, &epath, &eindex, 16, &eops);
        assert_eq!(got, eref, "{which}");
    }
    let _ = std::fs::remove_file(&epath);
}
