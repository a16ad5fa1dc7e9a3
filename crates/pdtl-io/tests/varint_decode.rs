//! The run-at-a-time [`VarintSource`] against a per-value reference.
//!
//! [`RefSource`] below decodes one value at a time with the retained
//! [`decode_varint_u32`], fetching one byte at a time from the
//! transport's words and refilling only when the next byte is past its
//! buffer — the smallest possible reading of the positioning contract
//! (`skip` decodes only from inside a run to further inside it; every
//! other move goes by the index). The real source must be
//! indistinguishable from it through the [`U32Source`] seam: same
//! values, same positions, and the same transport operations
//! (`bytes_read`, `seeks`), for any interleaving of reads, skips and
//! seeks, at any transport block size — including runs that straddle
//! the decode buffer and runs longer than it.
//!
//! The second property feeds the source bytes that are *not* a valid
//! encoding, under a valid index: it must never panic, and whatever it
//! delivers instead of a typed error is strictly increasing per run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pdtl_io::codec::{decode_varint_u32, encode_run};
use pdtl_io::{IoError, IoStats, U32Reader, U32Source, VarintIndex, VarintSource};

/// `VarintSource`'s refill granularity (its private `FETCH_WORDS`).
const FETCH_WORDS: usize = 4 * 1024;

/// The per-value reference decoder.
struct RefSource<T> {
    inner: T,
    decoded: Vec<u64>,
    bytes: Vec<u64>,
    pos: u64,
    vertex: usize,
    prev: u32,
    word_buf: Vec<u32>,
    buf_byte_start: u64,
    abs_byte: u64,
}

type Res<T> = Result<T, IoError>;

impl<T: U32Source> RefSource<T> {
    fn new(inner: T, decoded: Vec<u64>, bytes: Vec<u64>) -> Self {
        Self {
            inner,
            decoded,
            bytes,
            pos: 0,
            vertex: 0,
            prev: 0,
            word_buf: Vec::new(),
            buf_byte_start: 0,
            abs_byte: 0,
        }
    }

    fn len(&self) -> u64 {
        *self.decoded.last().unwrap()
    }

    fn buffered_end(&self) -> u64 {
        self.buf_byte_start + 4 * self.word_buf.len() as u64
    }

    fn next_byte(&mut self) -> Res<u8> {
        if self.abs_byte >= self.buffered_end() {
            self.word_buf.clear();
            self.buf_byte_start = self.inner.position() * 4;
            let got = self.inner.read_into(&mut self.word_buf, FETCH_WORDS)?;
            assert!(got > 0 && self.abs_byte < self.buffered_end(), "truncated");
        }
        let off = (self.abs_byte - self.buf_byte_start) as usize;
        self.abs_byte += 1;
        Ok((self.word_buf[off / 4] >> (8 * (off % 4))) as u8)
    }

    fn decode_next(&mut self) -> Res<u32> {
        while self.decoded[self.vertex + 1] <= self.pos {
            self.vertex += 1;
        }
        let at_run_start = self.pos == self.decoded[self.vertex];
        let mut varint = Vec::new();
        loop {
            varint.push(self.next_byte()?);
            if varint.last().unwrap() & 0x80 == 0 {
                break;
            }
        }
        let g = decode_varint_u32(&varint, &mut 0).expect("valid fixture");
        let v = if at_run_start { g } else { self.prev + g + 1 };
        self.prev = v;
        self.pos += 1;
        Ok(v)
    }

    fn byte_skip_to(&mut self, to_byte: u64) -> Res<()> {
        if to_byte >= self.buf_byte_start && to_byte <= self.buffered_end() {
            self.abs_byte = to_byte;
            return Ok(());
        }
        let (word_tgt, cur) = (to_byte / 4, self.inner.position());
        if word_tgt >= cur {
            self.inner.skip(word_tgt - cur)?;
        } else {
            self.inner.seek_to(word_tgt)?;
        }
        self.word_buf.clear();
        self.buf_byte_start = word_tgt * 4;
        self.abs_byte = to_byte;
        Ok(())
    }

    fn land_at(&mut self, idx: u64, seek: bool) -> Res<()> {
        let vertex = if idx == self.len() {
            self.decoded.len() - 1
        } else {
            self.decoded.partition_point(|&d| d <= idx) - 1
        };
        let byte = self.bytes[vertex];
        if seek {
            self.inner.seek_to(byte / 4)?;
            self.word_buf.clear();
            self.buf_byte_start = byte / 4 * 4;
            self.abs_byte = byte;
        } else {
            self.byte_skip_to(byte)?;
        }
        self.vertex = vertex;
        self.pos = self.decoded[vertex];
        while self.pos < idx {
            self.decode_next()?;
        }
        Ok(())
    }
}

impl<T: U32Source> U32Source for RefSource<T> {
    fn len_u32(&self) -> u64 {
        self.len()
    }

    fn position(&self) -> u64 {
        self.pos
    }

    fn seek_to(&mut self, index: u64) -> Res<()> {
        self.land_at(index.min(self.len()), true)
    }

    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Res<usize> {
        let mut got = 0;
        while got < n && self.pos < self.len() {
            out.push(self.decode_next()?);
            got += 1;
        }
        Ok(got)
    }

    fn skip(&mut self, n: u64) -> Res<()> {
        let target = self.pos + n.min(self.len() - self.pos);
        if target == self.pos {
            return Ok(());
        }
        while self.decoded[self.vertex + 1] <= self.pos {
            self.vertex += 1;
        }
        if self.pos > self.decoded[self.vertex] && target < self.decoded[self.vertex + 1] {
            while self.pos < target {
                self.decode_next()?;
            }
            return Ok(());
        }
        self.land_at(target, false)
    }
}

static UNIQ: AtomicU64 = AtomicU64::new(0);

struct Fixture {
    path: PathBuf,
    decoded: Vec<u64>,
    bytes: Vec<u64>,
    logical: Vec<u32>,
    encoded: Vec<u8>,
}

impl Fixture {
    fn index(&self) -> Arc<VarintIndex> {
        Arc::new(VarintIndex::new(self.decoded.clone(), self.bytes.clone()).unwrap())
    }

    /// (Re)write the `.adj` bytes, zero-padded to a word.
    fn store(&self, encoded: &[u8]) {
        let mut padded = encoded.to_vec();
        padded.resize(encoded.len().div_ceil(4) * 4, 0);
        std::fs::write(&self.path, padded).unwrap();
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One run per `(length class, length, gap class)`: empty runs
/// (zero-degree vertices), runs of a few values and of thousands (more
/// encoded bytes than the decode buffer holds), with gaps drawn from
/// one of the five varint widths.
fn fixture(shape: &[(u8, u32, u8)]) -> Fixture {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % below
    };
    let (mut decoded, mut bytes) = (vec![0u64], vec![0u64]);
    let (mut logical, mut encoded) = (Vec::new(), Vec::new());
    for &(len_class, len, gap_class) in shape {
        let len = match len_class {
            0 | 1 => 0,
            2..=4 => len % 8,
            _ => len,
        };
        let max_gap = [100u64, 300, 20_000, 3_000_000, 400_000_000][gap_class as usize % 5];
        let mut run = Vec::new();
        let mut v = draw(max_gap);
        while run.len() < len as usize && v <= u64::from(u32::MAX) {
            run.push(v as u32);
            v += 1 + draw(max_gap);
        }
        encode_run(&run, &mut encoded).unwrap();
        logical.extend_from_slice(&run);
        decoded.push(logical.len() as u64);
        bytes.push(encoded.len() as u64);
    }
    let dir = std::env::temp_dir().join("pdtl-varint-decode");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "v-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    let f = Fixture {
        path,
        decoded,
        bytes,
        logical,
        encoded,
    };
    f.store(&f.encoded);
    f
}

/// Apply one access-pattern step; returns what it appended to `out`.
/// `kind` picks among reads, short skips (inside a run), skips to the
/// next run boundary (the pruned scan), long skips and seeks — amounts
/// often reach past end-of-file, exercising the clamps.
fn step(src: &mut impl U32Source, decoded: &[u64], kind: u8, amount: u64, out: &mut Vec<u32>) {
    let len = *decoded.last().unwrap();
    match kind % 6 {
        0 | 1 => {
            src.read_into(out, amount as usize % 6000).unwrap();
        }
        2 => src.skip(amount % 40).unwrap(),
        3 => {
            let pos = src.position();
            let next = decoded[decoded
                .partition_point(|&d| d <= pos)
                .min(decoded.len() - 1)];
            src.skip(next.saturating_sub(pos)).unwrap();
        }
        4 => src.skip(amount).unwrap(),
        _ => src.seek_to(amount % (len + 50)).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn run_decoder_is_indistinguishable_from_the_per_value_reference(
        shape in prop::collection::vec((0u8..8, 0u32..9000, 0u8..5), 1..40),
        block in 1usize..6000,
        ops in prop::collection::vec((0u8..6, 0u64..30_000), 0..40),
    ) {
        let f = fixture(&shape);
        let index = f.index();
        let new_stats = IoStats::new();
        let inner = U32Reader::with_buffer(&f.path, new_stats.clone(), block).unwrap();
        let mut new = VarintSource::new(inner, index, new_stats.clone()).unwrap();
        let ref_stats = IoStats::new();
        let inner = U32Reader::with_buffer(&f.path, ref_stats.clone(), block).unwrap();
        let mut reference = RefSource::new(inner, f.decoded.clone(), f.bytes.clone());
        prop_assert_eq!(new.len_u32(), reference.len_u32());

        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut delivered = 0u64;
        for &(kind, amount) in &ops {
            let at = new.position() as usize;
            got.clear();
            want.clear();
            step(&mut new, &f.decoded, kind, amount, &mut got);
            step(&mut reference, &f.decoded, kind, amount, &mut want);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&got[..], &f.logical[at..at + got.len()]);
            prop_assert_eq!(new.position(), reference.position());
            prop_assert_eq!(new_stats.bytes_read(), ref_stats.bytes_read());
            prop_assert_eq!(new_stats.seeks(), ref_stats.seeks());
            prop_assert_eq!(new_stats.read_ops(), ref_stats.read_ops());
            delivered += got.len() as u64;
        }
        prop_assert_eq!(new_stats.u32s_decoded(), delivered);
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_never_yield_a_disordered_run(
        shape in prop::collection::vec((0u8..8, 0u32..3000, 0u8..5), 1..24),
        damage in prop::collection::vec((0u64..1 << 40, any::<u8>(), 0u8..4), 1..12),
        block in 1usize..6000,
        ops in prop::collection::vec((0u8..6, 0u64..12_000), 0..24),
    ) {
        let f = fixture(&shape);
        if f.encoded.is_empty() {
            return Ok(());
        }
        // Flip bits, overwrite bytes, or smear a stretch with one byte
        // (0x80.. smears make unterminated varints, 0xff.. overflows).
        let mut bytes = f.encoded.clone();
        for &(at, byte, how) in &damage {
            let at = (at % bytes.len() as u64) as usize;
            match how {
                0 => bytes[at] ^= byte | 1,
                1 => bytes[at] = byte,
                _ => {
                    let end = (at + 1 + byte as usize / 8).min(bytes.len());
                    bytes[at..end].fill(byte | 0x80);
                }
            }
        }
        f.store(&bytes);
        let open = || {
            let stats = IoStats::new();
            let inner = U32Reader::with_buffer(&f.path, stats.clone(), block).unwrap();
            VarintSource::new(inner, f.index(), stats).unwrap()
        };

        // Front to back, a run at a time: a typed error or increasing
        // values, for every run.
        let mut src = open();
        let mut run = Vec::new();
        for fence in f.decoded.windows(2) {
            run.clear();
            match src.read_into(&mut run, (fence[1] - fence[0]) as usize) {
                Ok(got) => {
                    prop_assert_eq!(got as u64, fence[1] - fence[0]);
                    prop_assert!(run.windows(2).all(|w| w[0] < w[1]), "disordered run {:?}", run);
                }
                Err(e) => {
                    prop_assert!(matches!(e, IoError::Malformed { .. }), "{}", e);
                    prop_assert!(run.is_empty(), "a failed read delivers nothing");
                    break;
                }
            }
        }

        // Any access pattern: errors are typed, positions stay in range.
        let mut src = open();
        let len = src.len_u32();
        let mut out = Vec::new();
        for &(kind, amount) in &ops {
            let result = match kind % 3 {
                0 => src.read_into(&mut out, amount as usize % 4000).map(|_| ()),
                1 => src.skip(amount),
                _ => src.seek_to(amount % (len + 50)),
            };
            match result {
                Ok(()) => prop_assert!(src.position() <= len),
                Err(e) => {
                    prop_assert!(matches!(e, IoError::Malformed { .. }), "{}", e);
                    break;
                }
            }
        }
    }
}

#[test]
fn a_run_longer_than_the_decode_buffer_streams_through_it() {
    // 200k values, ~330 KB encoded: twenty refills inside one run, read
    // whole, in pieces, and landed into the middle of.
    let f = fixture(&[(0, 0, 0), (7, 200_000, 1), (2, 5, 0), (7, 20_000, 2)]);
    assert!(f.bytes[2] > 16 * FETCH_WORDS as u64);
    let stats = IoStats::new();
    let open = || {
        let inner = U32Reader::open(&f.path, stats.clone()).unwrap();
        VarintSource::new(inner, f.index(), stats.clone()).unwrap()
    };
    let mut out = Vec::new();
    let mut src = open();
    assert_eq!(
        src.read_into(&mut out, usize::MAX).unwrap(),
        f.logical.len()
    );
    assert_eq!(out, f.logical);
    assert_eq!(src.values_decoded(), f.logical.len() as u64);

    let mut src = open();
    out.clear();
    while src.read_into(&mut out, 777).unwrap() > 0 {}
    assert_eq!(out, f.logical);

    let mut src = open();
    src.seek_to(150_000).unwrap();
    src.skip(40_000).unwrap();
    out.clear();
    src.read_into(&mut out, 20_000).unwrap();
    assert_eq!(out, f.logical[190_000..210_000]);
}
