//! The codec layer of the transport × codec split: how byte runs become
//! `u32` runs, independent of how the bytes are fetched.
//!
//! PDTL's four I/O backends ([`IoBackend`](crate::IoBackend)) are pure
//! *block transports*: they move little-endian words from disk with
//! identical accounting and know nothing about what the words mean. This
//! module adds the layer above them — a [`Codec`] selected per file:
//!
//! * [`Raw`](Codec::Raw) — the identity. Words on disk *are* the logical
//!   `u32`s, engines read transports directly, nothing changes.
//! * [`DeltaVarint`](Codec::DeltaVarint) — each vertex's out-list (a
//!   strictly increasing run, guaranteed by rank-space relabeling) is
//!   stored as `varint(first)` then `varint(gap - 1)` per successor,
//!   LEB128-style (7 payload bits per byte, high bit = continuation).
//!   [`VarintSource`] wraps *any* transport and decodes the byte stream
//!   carried in its words back into logical `u32`s, using a
//!   [`VarintIndex`] (per-vertex decoded + byte offsets) so `seek_to`
//!   and `skip` still work in decoded index space.
//!
//! The compressed `.adj` byte stream is zero-padded to a 4-byte multiple
//! so every transport's "length is a multiple of 4" open check passes,
//! and [`VarintSource`] issues the *same* word-level operation sequence
//! regardless of which transport it wraps — so the property-tested
//! accounting parity across backends extends to the codec × transport
//! cross-product for free. `IoStats::bytes_read`/`seeks` keep counting
//! device transfers (now compressed), while the decoded logical volume
//! lands in the new [`IoStats::record_decoded`] dimension.

use std::path::Path;
use std::sync::Arc;

use crate::error::{IoError, Result};
use crate::stats::IoStats;
use crate::stream::{U32Reader, U32Source, U32Writer};

/// How the logical `u32`s of a graph file are encoded into the bytes a
/// block transport moves. The default, [`Raw`](Codec::Raw), is fixed; a
/// caller picks delta-varint by setting the field it configures
/// (`MgtOptions::codec`, the CLI's `--codec`).
///
/// Names round-trip through [`parse`](Self::parse), and the wire
/// discriminant through [`from_discriminant`](Self::from_discriminant):
///
/// ```
/// use pdtl_io::Codec;
///
/// for c in Codec::ALL {
///     assert_eq!(Codec::parse(c.name()), Some(c));
///     assert_eq!(Codec::from_discriminant(c.discriminant()), Some(c));
/// }
/// assert_eq!(Codec::parse("DELTA-VARINT"), Some(Codec::DeltaVarint));
/// assert_eq!(Codec::default(), Codec::Raw);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// Identity: one little-endian word per logical `u32` (the PR 2
    /// on-disk format, and the format of every `.deg` file regardless
    /// of the adjacency codec).
    #[default]
    Raw,
    /// Per-vertex delta + LEB128 varint runs with a byte-offset index
    /// sidecar; decoded by [`VarintSource`] above any transport.
    DeltaVarint,
}

impl Codec {
    /// Every codec, in wire-discriminant order (the order of the
    /// record-tail encoding in the cluster's `WorkerConfig`).
    pub const ALL: [Codec; 2] = [Codec::Raw, Codec::DeltaVarint];

    /// Stable lowercase name (bench row / CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::DeltaVarint => "delta-varint",
        }
    }

    /// Parse a codec name, case-insensitively. `delta_varint` and the
    /// short `varint` spelling both name [`DeltaVarint`](Codec::DeltaVarint).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "raw" => Some(Codec::Raw),
            "delta-varint" | "delta_varint" | "varint" => Some(Codec::DeltaVarint),
            _ => None,
        }
    }

    /// Stable single-byte discriminant used by the on-disk format
    /// header and the cluster's wire records.
    pub fn discriminant(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::DeltaVarint => 1,
        }
    }

    /// Inverse of [`discriminant`](Self::discriminant); `None` for
    /// values no known codec uses (both decoders reject those).
    pub fn from_discriminant(d: u8) -> Option<Self> {
        match d {
            0 => Some(Codec::Raw),
            1 => Some(Codec::DeltaVarint),
            _ => None,
        }
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Append the LEB128 varint encoding of `v` (1–5 bytes) to `out`.
pub fn encode_varint_u32(mut v: u32, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decode one LEB128 varint from `bytes` starting at `*pos`, advancing
/// `*pos` past it. `None` on truncation or a value overflowing `u32`.
///
/// The per-value reference: [`VarintSource`] decodes a run at a time
/// through [`decode_run`], which the tests hold to this function.
pub fn decode_varint_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut acc: u32 = 0;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift == 28 && b > 0x0f {
            return None; // fifth byte may only carry the top 4 bits
        }
        acc |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(acc);
        }
        shift += 7;
        if shift > 28 {
            return None;
        }
    }
}

/// Append the delta + varint encoding of one strictly increasing run
/// (one vertex's out-list): `varint(run[0])`, then `varint(gap - 1)`
/// per successor. Errors if the run is not strictly increasing (the
/// invariant rank-space orientation guarantees).
pub fn encode_run(run: &[u32], out: &mut Vec<u8>) -> Result<()> {
    let Some(&first) = run.first() else {
        return Ok(());
    };
    encode_varint_u32(first, out);
    let mut prev = first;
    for &v in &run[1..] {
        if v <= prev {
            return Err(IoError::malformed(
                "<adjacency run>",
                format!("run not strictly increasing: {v} after {prev}"),
            ));
        }
        encode_varint_u32(v - prev - 1, out);
        prev = v;
    }
    Ok(())
}

/// The per-vertex index a [`VarintSource`] navigates by: for each of
/// the `n + 1` fenceposts, the decoded `u32` offset (prefix sums of the
/// `.deg` degrees) and the byte offset of the vertex's encoded run
/// within the compressed `.adj` (persisted in the `.vix` sidecar).
///
/// Both arrays are monotone with equal length; the last entries are the
/// total decoded length and total encoded byte length. Shared via `Arc`
/// by every source over the same file.
#[derive(Debug)]
pub struct VarintIndex {
    decoded: Vec<u64>,
    bytes: Vec<u64>,
}

impl VarintIndex {
    /// Build an index from fencepost arrays (validated: equal non-zero
    /// length, both monotone non-decreasing, starting at 0).
    pub fn new(decoded: Vec<u64>, bytes: Vec<u64>) -> Result<Self> {
        let check = |name: &str, v: &[u64]| -> Result<()> {
            if v.first() != Some(&0) || v.windows(2).any(|w| w[0] > w[1]) {
                return Err(IoError::malformed(
                    "<varint index>",
                    format!("{name} offsets must be monotone and start at 0"),
                ));
            }
            Ok(())
        };
        if decoded.len() != bytes.len() || decoded.is_empty() {
            return Err(IoError::malformed(
                "<varint index>",
                format!(
                    "offset arrays disagree: {} decoded vs {} byte fenceposts",
                    decoded.len(),
                    bytes.len()
                ),
            ));
        }
        check("decoded", &decoded)?;
        check("byte", &bytes)?;
        Ok(Self { decoded, bytes })
    }

    /// Number of vertices indexed.
    pub fn num_vertices(&self) -> usize {
        self.decoded.len() - 1
    }

    /// Total decoded length in `u32`s (what `len_u32` reports above the
    /// codec).
    pub fn decoded_len(&self) -> u64 {
        *self.decoded.last().unwrap()
    }

    /// Total encoded byte length, before word padding.
    pub fn encoded_bytes(&self) -> u64 {
        *self.bytes.last().unwrap()
    }

    /// Load the byte-offset sidecar at `vix_path` (pairs of `(lo, hi)`
    /// words per fencepost) and pair it with `decoded` fenceposts.
    pub fn load(
        vix_path: impl AsRef<Path>,
        decoded: Vec<u64>,
        stats: Arc<IoStats>,
    ) -> Result<Self> {
        let vix_path = vix_path.as_ref();
        let mut r = U32Reader::open(vix_path, stats)?;
        let words = r.read_all()?;
        if words.len() != 2 * decoded.len() {
            return Err(IoError::malformed(
                vix_path,
                format!(
                    "index has {} words, expected {} for {} fenceposts",
                    words.len(),
                    2 * decoded.len(),
                    decoded.len()
                ),
            ));
        }
        let bytes = words
            .chunks_exact(2)
            .map(|c| u64::from(c[0]) | (u64::from(c[1]) << 32))
            .collect();
        Self::new(decoded, bytes)
    }

    /// Persist byte fenceposts as the `.vix` sidecar format
    /// [`load`](Self::load) reads.
    pub fn store(
        vix_path: impl AsRef<Path>,
        byte_offsets: &[u64],
        stats: Arc<IoStats>,
    ) -> Result<()> {
        let mut w = U32Writer::create(vix_path, stats)?;
        for &b in byte_offsets {
            w.write(b as u32)?;
            w.write((b >> 32) as u32)?;
        }
        w.finish()?;
        Ok(())
    }
}

/// Writer producing the compressed `.adj` representation: encoded runs
/// appended back to back, the whole stream zero-padded to a 4-byte
/// multiple and written through an accounted [`U32Writer`] (so
/// `bytes_written` counts the compressed volume the device sees).
/// Collects the per-vertex byte fenceposts for the `.vix` sidecar.
#[derive(Debug)]
pub struct VarintAdjWriter {
    writer: U32Writer,
    /// Encoded bytes not yet handed to `writer`.
    pending: Vec<u8>,
    /// The whole words of `pending`, staged for one `write_all`.
    words: Vec<u32>,
    byte_offsets: Vec<u64>,
    total_bytes: u64,
}

/// Encoded bytes a [`VarintAdjWriter`] gathers before handing their
/// whole words to the stream writer in one call.
const PENDING_FLUSH_BYTES: usize = 64 * 1024;

impl VarintAdjWriter {
    /// Create (truncate) the compressed adjacency file at `path`.
    pub fn create(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Ok(Self {
            writer: U32Writer::create(path, stats)?,
            pending: Vec::new(),
            words: Vec::new(),
            byte_offsets: Vec::new(),
            total_bytes: 0,
        })
    }

    /// Encode and append one vertex's out-list (strictly increasing;
    /// empty runs occupy zero bytes). Call exactly once per vertex, in
    /// vertex order.
    pub fn write_run(&mut self, run: &[u32]) -> Result<()> {
        let before = self.pending.len();
        if let Err(e) = encode_run(run, &mut self.pending) {
            self.pending.truncate(before);
            return Err(e);
        }
        self.byte_offsets.push(self.total_bytes);
        self.total_bytes += (self.pending.len() - before) as u64;
        if self.pending.len() >= PENDING_FLUSH_BYTES {
            self.write_whole_words()?;
        }
        Ok(())
    }

    /// Hand the whole words of `pending` to the stream writer, keeping
    /// the sub-word tail.
    fn write_whole_words(&mut self) -> Result<()> {
        let whole = self.pending.len() / 4 * 4;
        self.words.clear();
        self.words.extend(
            self.pending[..whole]
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])),
        );
        self.pending.drain(..whole);
        self.writer.write_all(&self.words)
    }

    /// Pad to a word boundary, flush, and return the `n + 1` byte
    /// fenceposts (the last is the unpadded encoded byte length).
    pub fn finish(mut self) -> Result<Vec<u64>> {
        self.byte_offsets.push(self.total_bytes);
        self.pending.resize(self.pending.len().div_ceil(4) * 4, 0);
        self.write_whole_words()?;
        self.writer.finish()?;
        Ok(self.byte_offsets)
    }
}

/// Why bytes are not a valid delta + varint run. (A fieldless enum, not
/// the message itself: the hot loop's `Result` then stays in registers,
/// worth 2% of decode throughput.)
#[derive(Debug, Clone, Copy)]
enum DecodeFault {
    /// A varint's fifth byte carries more than the top four bits of a
    /// `u32` (which covers "longer than five bytes" too: a fifth byte
    /// with its continuation bit set is above `0x0f`).
    VarintOverflow,
    /// A first value or a gap lands past `u32::MAX`.
    ValueOverflow,
}

impl From<DecodeFault> for String {
    fn from(fault: DecodeFault) -> String {
        match fault {
            DecodeFault::VarintOverflow => "varint overflows u32 or runs past 5 bytes",
            DecodeFault::ValueOverflow => "run value overflows u32 (corrupt gap)",
        }
        .into()
    }
}

fn malformed_stream(detail: impl Into<String>) -> IoError {
    IoError::malformed("<varint stream>", detail)
}

/// The run decoder's hot loop: decode successive values of one run from
/// `bytes` into `out` until `out` is full or `bytes` ends, returning
/// `(values decoded, bytes consumed)`. A varint cut off by the end of
/// `bytes` is left unconsumed — the caller decides whether more bytes
/// exist (refill) or the run is truncated.
///
/// `next` carries the run state across calls: 0 at a run start (the
/// first varint *is* the value), `previous value + 1` after it (a
/// varint is `gap - 1`), so both cases are the one add `next + varint`.
/// It is a `u64` so a corrupt gap shows up as a value above `u32::MAX`
/// instead of wrapping into a non-increasing run.
///
/// One- and two-byte varints — all of a rank-space out-list but its
/// occasional long gap — decode without a data-dependent branch; three
/// to five bytes take the checked loop.
#[inline]
fn decode_values(
    bytes: &[u8],
    next: &mut u64,
    out: &mut [u32],
) -> std::result::Result<(usize, usize), DecodeFault> {
    let mut at = 0usize;
    let mut nx = *next;
    let mut done = 0usize;
    'values: while done < out.len() {
        let varint = if at + 2 <= bytes.len() {
            let (b0, b1) = (u32::from(bytes[at]), u32::from(bytes[at + 1]));
            if b0 & b1 & 0x80 == 0 {
                let two = b0 >> 7;
                at += 1 + two as usize;
                (b0 & 0x7f) | ((b1 * two) << 7)
            } else {
                let mut acc = (b0 & 0x7f) | ((b1 & 0x7f) << 7);
                let mut shift = 14;
                let mut end = at + 2;
                loop {
                    let Some(&b) = bytes.get(end) else {
                        break 'values;
                    };
                    end += 1;
                    if shift == 28 && b > 0x0f {
                        return Err(DecodeFault::VarintOverflow);
                    }
                    acc |= u32::from(b & 0x7f) << shift;
                    if b < 0x80 {
                        break;
                    }
                    shift += 7;
                }
                at = end;
                acc
            }
        } else if at < bytes.len() && bytes[at] < 0x80 {
            at += 1;
            u32::from(bytes[at - 1])
        } else {
            break;
        };
        let v = nx + u64::from(varint);
        if v > u64::from(u32::MAX) {
            return Err(DecodeFault::ValueOverflow);
        }
        out[done] = v as u32;
        done += 1;
        nx = v + 1;
    }
    *next = nx;
    Ok((done, at))
}

/// Decode the first `n` values of one encoded run (the inverse of
/// [`encode_run`]) from the front of `bytes`, appending them to `out`;
/// returns the bytes consumed. This is the decoder [`VarintSource`]
/// runs, a run at a time.
///
/// Errors — leaving `out` as it was — when `bytes` ends before `n`
/// values, a varint overflows `u32` or runs past five bytes, or a gap
/// carries a value past `u32::MAX`; whatever it returns is strictly
/// increasing.
pub fn decode_run(bytes: &[u8], n: usize, out: &mut Vec<u32>) -> Result<usize> {
    let at = out.len();
    out.resize(at + n, 0);
    let used = match decode_values(bytes, &mut 0, &mut out[at..]) {
        Ok((values, used)) if values == n => Ok(used),
        Ok((values, _)) => Err(format!("encoded run truncated: {values} of {n} values")),
        Err(fault) => Err(fault.into()),
    };
    used.map_err(|detail| {
        out.truncate(at);
        malformed_stream(detail)
    })
}

/// How many transport words a [`VarintSource`] fetches per refill of
/// its decode buffer. Deliberately no larger than the transports' own
/// block buffer, so the word-op sequence the codec issues is identical
/// above every backend.
const FETCH_WORDS: usize = 4 * 1024;

/// A [`U32Source`] decoding a delta + varint byte stream carried in the
/// little-endian words of any block transport.
///
/// All positions (`position`, `seek_to`, `skip`, `len_u32`) are in
/// *decoded* index space, so engines written against raw sources work
/// unchanged. Device accounting stays with the wrapped transport
/// (compressed bytes, real seeks); the decoded logical volume is
/// charged to [`IoStats::record_decoded`].
///
/// The encoded stream is held as a byte buffer refilled 16 KiB at a
/// time, and values are decoded a run at a time by the [`decode_run`]
/// loop; only a run straddling the buffer end pays a compact-and-refill,
/// and a refill happens exactly when a byte past the buffer is needed —
/// so the transport sees one operation sequence whichever way the
/// values are asked for. Every run is checked against its `.vix` entry:
/// it must yield its `.deg` count of values from exactly its indexed
/// bytes.
///
/// Positioning follows the seam contract: positions clamp at (decoded)
/// end-of-file; `seek_to` costs one transport seek (to the word holding
/// the target vertex's first byte) plus decode-discard of the run's
/// head; forward `skip`s move the transport with its own `skip`, so the
/// short-skip coalescing that keeps bound-pruned scans sequential is
/// inherited from the transport layer. A skip decodes only when it
/// starts or lands *inside* a run — from one run boundary to another
/// (the pruned scan) it moves the byte cursor by the index alone.
#[derive(Debug)]
pub struct VarintSource<T> {
    inner: T,
    index: Arc<VarintIndex>,
    stats: Arc<IoStats>,
    /// Decoded position (next value index).
    pos: u64,
    /// Run containing `pos` once [`settle`](Self::settle)d; `n` at
    /// end-of-file.
    vertex: usize,
    /// Run state of [`decode_values`]: 0 at a run start, else the last
    /// decoded value + 1.
    next: u64,
    /// Encoded bytes `[buf_start, buf_start + buf.len())`; the
    /// transport sits at their (word-aligned) end.
    buf: Vec<u8>,
    /// Staging for one transport fetch.
    words: Vec<u32>,
    /// Absolute byte offset of `buf[0]`.
    buf_start: u64,
    /// Absolute byte offset of the next byte to decode. Past the
    /// buffer only by a jump's sub-word remainder, while `buf` is
    /// empty.
    abs: u64,
    /// Values put through the decoder, delivered or discarded.
    values_decoded: u64,
}

impl<T: U32Source> VarintSource<T> {
    /// Wrap a freshly opened transport (positioned at word 0) over the
    /// compressed file described by `index`.
    pub fn new(inner: T, index: Arc<VarintIndex>, stats: Arc<IoStats>) -> Result<Self> {
        let words = inner.len_u32();
        let needed = index.encoded_bytes().div_ceil(4);
        if words < needed {
            return Err(malformed_stream(format!(
                "file holds {words} words, index expects at least {needed}"
            )));
        }
        Ok(Self {
            inner,
            index,
            stats,
            pos: 0,
            vertex: 0,
            next: 0,
            buf: Vec::new(),
            words: Vec::new(),
            buf_start: 0,
            abs: 0,
            values_decoded: 0,
        })
    }

    /// How many values the decoder has produced so far, counting those
    /// a `skip` or `seek_to` decoded only to discard — the work
    /// [`IoStats::record_decoded`] (delivered values) does not show.
    pub fn values_decoded(&self) -> u64 {
        self.values_decoded
    }

    fn buffered_end(&self) -> u64 {
        self.buf_start + self.buf.len() as u64
    }

    /// Advance `vertex` to the run containing `pos` (past finished and
    /// zero-degree runs; `n` at end-of-file).
    fn settle(&mut self) {
        let decoded = &self.index.decoded;
        while self.vertex + 1 < decoded.len() && decoded[self.vertex + 1] <= self.pos {
            self.vertex += 1;
            self.next = 0;
        }
    }

    /// Vertex whose run contains decoded index `idx` (`idx < len`):
    /// first fencepost strictly above `idx`, minus one, so zero-degree
    /// vertices (which share fenceposts) are skipped past. Gallops
    /// forward from the current vertex, which is where scans and chunk
    /// loads move; only a backward seek searches the prefix.
    fn vertex_of(&self, idx: u64) -> usize {
        let decoded = &self.index.decoded;
        let from = self.vertex;
        if decoded[from] > idx {
            return decoded[..from].partition_point(|&d| d <= idx) - 1;
        }
        let mut lo = from;
        let mut step = 1;
        while lo + step < decoded.len() && decoded[lo + step] <= idx {
            lo += step;
            step *= 2;
        }
        let hi = (lo + step).min(decoded.len());
        lo + decoded[lo..hi].partition_point(|&d| d <= idx) - 1
    }

    /// Drop the consumed bytes and append one more transport fetch.
    fn refill(&mut self) -> Result<()> {
        let consumed = ((self.abs - self.buf_start) as usize).min(self.buf.len());
        self.buf.drain(..consumed);
        self.buf_start += consumed as u64;
        self.words.clear();
        if self.inner.read_into(&mut self.words, FETCH_WORDS)? == 0 {
            return Err(malformed_stream(format!(
                "encoded stream truncated at byte {}",
                self.abs
            )));
        }
        let at = self.buf.len();
        self.buf.resize(at + 4 * self.words.len(), 0);
        for (b, w) in self.buf[at..].chunks_exact_mut(4).zip(&self.words) {
            b.copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }

    /// Decode the next `out.len()` values of the current run — the
    /// caller guarantees the run holds them — refilling whenever the
    /// run's bytes reach past the buffer.
    fn decode_in_run(&mut self, out: &mut [u32]) -> Result<()> {
        let run_end = self.index.bytes[self.vertex + 1];
        let mut done = 0usize;
        loop {
            let avail_end = run_end.min(self.buffered_end());
            if self.abs < avail_end {
                let lo = (self.abs - self.buf_start) as usize;
                let hi = (avail_end - self.buf_start) as usize;
                let (values, used) =
                    decode_values(&self.buf[lo..hi], &mut self.next, &mut out[done..])
                        .map_err(malformed_stream)?;
                done += values;
                self.abs += used as u64;
                self.pos += values as u64;
                self.values_decoded += values as u64;
            }
            if done == out.len() {
                break;
            }
            if self.buffered_end() >= run_end {
                return Err(self.index_mismatch("fewer values than its degree"));
            }
            self.refill()?;
        }
        if self.pos == self.index.decoded[self.vertex + 1] && self.abs != run_end {
            return Err(self.index_mismatch("bytes past its last value"));
        }
        Ok(())
    }

    fn index_mismatch(&self, holds: &str) -> IoError {
        malformed_stream(format!(
            "run of vertex {}: index entry [{}, {}) holds {holds} (decoder at byte {})",
            self.vertex,
            self.index.bytes[self.vertex],
            self.index.bytes[self.vertex + 1],
            self.abs
        ))
    }

    /// Decode and drop the next `n` values of the current run.
    fn discard_in_run(&mut self, mut n: u64) -> Result<()> {
        let mut sink = [0u32; 64];
        while n > 0 {
            let k = n.min(sink.len() as u64) as usize;
            self.decode_in_run(&mut sink[..k])?;
            n -= k as u64;
        }
        Ok(())
    }

    /// Move the byte cursor forward to `to_byte` without recording a
    /// seek where the transport's own skip coalescing avoids one.
    fn byte_skip_to(&mut self, to_byte: u64) -> Result<()> {
        if to_byte >= self.buf_start && to_byte <= self.buffered_end() {
            self.abs = to_byte;
            return Ok(());
        }
        let word_tgt = to_byte / 4;
        let cur = self.inner.position();
        if word_tgt >= cur {
            self.inner.skip(word_tgt - cur)?;
        } else {
            self.inner.seek_to(word_tgt)?;
        }
        self.jumped_to(to_byte);
        Ok(())
    }

    /// The transport now sits at the word holding `to_byte`: forget the
    /// buffer and point the cursor there.
    fn jumped_to(&mut self, to_byte: u64) {
        self.buf.clear();
        self.buf_start = to_byte / 4 * 4;
        self.abs = to_byte;
    }

    /// Reposition to decoded index `idx`: land the byte stream on the
    /// containing vertex's run start (`reposition` moves the transport
    /// there), then decode-discard the run's head up to `idx`.
    fn land_at(
        &mut self,
        idx: u64,
        reposition: impl FnOnce(&mut Self, u64) -> Result<()>,
    ) -> Result<()> {
        let vertex = if idx == self.index.decoded_len() {
            self.index.num_vertices()
        } else {
            self.vertex_of(idx)
        };
        reposition(self, self.index.bytes[vertex])?;
        self.vertex = vertex;
        self.pos = self.index.decoded[vertex];
        self.next = 0;
        self.discard_in_run(idx - self.pos)
    }
}

impl<T: U32Source> U32Source for VarintSource<T> {
    fn len_u32(&self) -> u64 {
        self.index.decoded_len()
    }

    fn position(&self) -> u64 {
        self.pos
    }

    fn path(&self) -> &std::path::Path {
        self.inner.path()
    }

    fn seek_to(&mut self, index: u64) -> Result<()> {
        let index = index.min(self.index.decoded_len());
        self.land_at(index, |s, byte| {
            s.inner.seek_to(byte / 4)?;
            s.jumped_to(byte);
            Ok(())
        })
    }

    fn read_into(&mut self, out: &mut Vec<u32>, n: usize) -> Result<usize> {
        let left = self.index.decoded_len() - self.pos;
        let want = left.min(n as u64) as usize;
        let at = out.len();
        out.resize(at + want, 0);
        let mut filled = at;
        while filled < out.len() {
            self.settle();
            let in_run = self.index.decoded[self.vertex + 1] - self.pos;
            let k = in_run.min((out.len() - filled) as u64) as usize;
            if let Err(e) = self.decode_in_run(&mut out[filled..filled + k]) {
                out.truncate(at);
                return Err(e);
            }
            filled += k;
        }
        if want > 0 {
            self.stats.record_decoded(want as u64);
        }
        Ok(want)
    }

    fn skip(&mut self, n: u64) -> Result<()> {
        let target = self.pos + n.min(self.index.decoded_len() - self.pos);
        if target == self.pos {
            return Ok(());
        }
        self.settle();
        let (run_start, run_end) = (
            self.index.decoded[self.vertex],
            self.index.decoded[self.vertex + 1],
        );
        // Exactly one whole run (the pruned scan): the next run starts
        // at the byte this one ends on — zero-degree runs between them
        // hold no bytes — so no fencepost search is needed.
        if self.pos == run_start && target == run_end {
            self.byte_skip_to(self.index.bytes[self.vertex + 1])?;
            self.vertex += 1;
            self.pos = target;
            self.next = 0;
            return Ok(());
        }
        // Only from inside a run to further inside it must the values
        // in between be decoded (the next one is a gap from them).
        if self.pos > run_start && target < run_end {
            return self.discard_in_run(target - self.pos);
        }
        // Anything else starts from a run's first byte, which the index
        // knows: move the transport with its own skip so short moves
        // inherit read-through coalescing.
        self.land_at(target, |s, byte| s.byte_skip_to(byte))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-codec-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// Deterministic strictly-increasing runs with varied gaps.
    fn make_runs(n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let deg = (next() % 7) as usize; // includes zero-degree
                let mut v = next() as u32 % 1000;
                let mut run = Vec::with_capacity(deg);
                for _ in 0..deg {
                    run.push(v);
                    v = v.saturating_add(1 + (next() as u32 % 200));
                }
                run
            })
            .collect()
    }

    /// Write runs through the compressed writer, return (index, path).
    fn write_fixture(name: &str, runs: &[Vec<u32>]) -> (Arc<VarintIndex>, PathBuf) {
        let p = tmp(name);
        let stats = IoStats::new();
        let mut w = VarintAdjWriter::create(&p, stats.clone()).unwrap();
        for run in runs {
            w.write_run(run).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut decoded = vec![0u64];
        for run in runs {
            decoded.push(decoded.last().unwrap() + run.len() as u64);
        }
        (Arc::new(VarintIndex::new(decoded, bytes).unwrap()), p)
    }

    fn open_source(
        index: &Arc<VarintIndex>,
        path: &Path,
        stats: &Arc<IoStats>,
    ) -> VarintSource<U32Reader> {
        let r = U32Reader::open(path, stats.clone()).unwrap();
        VarintSource::new(r, index.clone(), stats.clone()).unwrap()
    }

    #[test]
    fn codec_names_and_discriminants_round_trip() {
        assert_eq!(Codec::ALL.len(), 2);
        for c in Codec::ALL {
            assert_eq!(Codec::parse(c.name()), Some(c));
            assert_eq!(Codec::parse(&c.name().to_uppercase()), Some(c));
            assert_eq!(Codec::from_discriminant(c.discriminant()), Some(c));
            assert_eq!(c.to_string(), c.name());
        }
        assert_eq!(Codec::parse("varint"), Some(Codec::DeltaVarint));
        assert_eq!(Codec::parse("delta_varint"), Some(Codec::DeltaVarint));
        assert_eq!(Codec::parse("gibberish"), None);
        assert_eq!(Codec::from_discriminant(7), None);
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u32,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            encode_varint_u32(v, &mut buf);
            assert!(buf.len() <= 5);
            let mut pos = 0;
            assert_eq!(decode_varint_u32(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        // Truncated and overlong streams are rejected.
        let mut pos = 0;
        assert_eq!(decode_varint_u32(&[0x80], &mut pos), None);
        let mut pos = 0;
        assert_eq!(
            decode_varint_u32(&[0xff, 0xff, 0xff, 0xff, 0x7f], &mut pos),
            None,
            "would overflow u32"
        );
    }

    #[test]
    fn run_decoder_agrees_with_the_per_value_reference() {
        // Gaps straddling every varint length, in one run.
        let mut run = Vec::new();
        let mut v = 0u32;
        for gap in [
            1u32,
            2,
            127,
            128,
            129,
            16_383,
            16_384,
            16_385,
            1 << 21,
            1 << 28,
        ] {
            for _ in 0..3 {
                v += gap;
                run.push(v);
            }
        }
        run.push(u32::MAX);
        let mut bytes = Vec::new();
        encode_run(&run, &mut bytes).unwrap();

        let mut want = Vec::new();
        let (mut pos, mut prev) = (0usize, None);
        while pos < bytes.len() {
            let g = decode_varint_u32(&bytes, &mut pos).unwrap();
            let v = prev.map_or(g, |p: u32| p + g + 1);
            want.push(v);
            prev = Some(v);
        }
        assert_eq!(want, run);

        let mut got = vec![7, 7];
        assert_eq!(
            decode_run(&bytes, run.len(), &mut got).unwrap(),
            bytes.len()
        );
        assert_eq!(got[..2], [7, 7], "appends");
        assert_eq!(got[2..], run[..]);
        // A prefix of the run consumes a prefix of the bytes.
        let mut head = Vec::new();
        let used = decode_run(&bytes, 4, &mut head).unwrap();
        assert_eq!(head, run[..4]);
        assert!(used < bytes.len());
        assert_eq!(decode_run(&[], 0, &mut head).unwrap(), 0);
    }

    #[test]
    fn run_decoder_rejects_malformed_bytes_with_typed_errors() {
        let err = |bytes: &[u8], n: usize| {
            let mut out = vec![1, 2, 3];
            let e = decode_run(bytes, n, &mut out).unwrap_err();
            assert_eq!(out, [1, 2, 3], "a failed decode leaves `out` alone");
            assert!(matches!(e, IoError::Malformed { .. }), "{e}");
            e.to_string()
        };
        // Truncation: out of bytes, mid-varint, mid-long-varint.
        assert!(err(&[5], 2).contains("truncated"));
        assert!(err(&[5, 0x80], 2).contains("truncated"));
        assert!(err(&[0x80, 0x80, 0x80], 1).contains("truncated"));
        // Fifth byte above 0x0f: too many value bits, or a sixth byte.
        assert!(err(&[0xff, 0xff, 0xff, 0xff, 0x7f], 1).contains("overflows"));
        assert!(err(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], 1).contains("5 bytes"));
        // A gap carrying the value past u32::MAX: the old decoder's
        // unchecked `prev + g + 1`.
        let mut bytes = Vec::new();
        encode_varint_u32(u32::MAX - 1, &mut bytes);
        encode_varint_u32(1, &mut bytes);
        assert!(err(&bytes, 2).contains("overflows u32"));
        let mut bytes = Vec::new();
        encode_varint_u32(u32::MAX, &mut bytes);
        encode_varint_u32(0, &mut bytes);
        assert!(err(&bytes, 2).contains("overflows u32"));
        // ... while the largest legal run still decodes.
        let mut bytes = Vec::new();
        encode_run(&[u32::MAX - 1, u32::MAX], &mut bytes).unwrap();
        let mut out = Vec::new();
        decode_run(&bytes, 2, &mut out).unwrap();
        assert_eq!(out, [u32::MAX - 1, u32::MAX]);
    }

    #[test]
    fn encode_run_rejects_non_increasing() {
        let mut out = Vec::new();
        assert!(encode_run(&[5, 5], &mut out).is_err());
        assert!(encode_run(&[5, 3], &mut out).is_err());
        assert!(encode_run(&[], &mut out).is_ok());
        assert!(encode_run(&[5, 6, 100], &mut out).is_ok());
    }

    #[test]
    fn dense_runs_compress_near_one_byte_per_value() {
        // Gap-1 deltas of a dense rank-space out-list are tiny: the
        // encoded size should approach 1 byte per value vs 4 raw.
        let run: Vec<u32> = (0..10_000u32).map(|i| i * 2).collect();
        let mut out = Vec::new();
        encode_run(&run, &mut out).unwrap();
        assert!(
            out.len() < run.len() + 8,
            "{} bytes for {} values",
            out.len(),
            run.len()
        );
    }

    #[test]
    fn sequential_decode_matches_logical_stream() {
        let runs = make_runs(300, 42);
        let (index, p) = write_fixture("seq", &runs);
        let flat: Vec<u32> = runs.iter().flatten().copied().collect();
        assert_eq!(index.decoded_len(), flat.len() as u64);

        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        assert_eq!(src.len_u32(), flat.len() as u64);
        let mut out = Vec::new();
        assert_eq!(
            src.read_into(&mut out, flat.len() + 10).unwrap(),
            flat.len()
        );
        assert_eq!(out, flat);
        assert_eq!(src.position(), flat.len() as u64);
        assert_eq!(stats.u32s_decoded(), flat.len() as u64);
        assert!(
            stats.bytes_read() < 4 * flat.len() as u64,
            "compressed file must be smaller than raw"
        );
    }

    #[test]
    fn seek_lands_mid_run_and_mid_word() {
        let runs = make_runs(200, 7);
        let (index, p) = write_fixture("seek", &runs);
        let flat: Vec<u32> = runs.iter().flatten().copied().collect();
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        // Probe a spread of positions, including mid-run ones whose
        // byte offsets are certainly not word-aligned.
        for idx in [0usize, 1, 3, 17, flat.len() / 2, flat.len() - 1] {
            src.seek_to(idx as u64).unwrap();
            assert_eq!(src.position(), idx as u64);
            let mut out = Vec::new();
            src.read_into(&mut out, 3).unwrap();
            let want: Vec<u32> = flat[idx..(idx + 3).min(flat.len())].to_vec();
            assert_eq!(out, want, "at index {idx}");
        }
    }

    #[test]
    fn seek_and_skip_clamp_at_decoded_eof() {
        let runs = make_runs(50, 3);
        let (index, p) = write_fixture("clamp", &runs);
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        src.seek_to(u64::MAX).unwrap();
        assert_eq!(src.position(), index.decoded_len());
        let mut out = Vec::new();
        assert_eq!(src.read_into(&mut out, 5).unwrap(), 0);

        let mut src = open_source(&index, &p, &stats);
        src.skip(u64::MAX).unwrap();
        assert_eq!(src.position(), index.decoded_len());
        assert_eq!(src.read_into(&mut out, 5).unwrap(), 0);
    }

    #[test]
    fn empty_file_decodes_to_nothing() {
        let (index, p) = write_fixture("empty", &[Vec::new(), Vec::new()]);
        assert_eq!(index.decoded_len(), 0);
        assert_eq!(index.encoded_bytes(), 0);
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        assert_eq!(src.len_u32(), 0);
        let mut out = Vec::new();
        assert_eq!(src.read_into(&mut out, 10).unwrap(), 0);
        src.seek_to(3).unwrap();
        src.skip(2).unwrap();
        assert_eq!(src.position(), 0);
    }

    #[test]
    fn interleaved_skip_read_matches_reference() {
        let runs = make_runs(400, 99);
        let (index, p) = write_fixture("interleave", &runs);
        let flat: Vec<u32> = runs.iter().flatten().copied().collect();
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        let mut at = 0usize;
        let mut step = 1usize;
        while at < flat.len() {
            src.skip(step as u64).unwrap();
            at = (at + step).min(flat.len());
            assert_eq!(src.position(), at as u64);
            let mut out = Vec::new();
            let got = src.read_into(&mut out, 2).unwrap();
            assert_eq!(out, flat[at..at + got]);
            at += got;
            step = step % 37 + 3;
        }
    }

    #[test]
    fn short_skips_do_not_seek() {
        // The bound-pruned scan pattern: skip a few values, read a few,
        // repeatedly. The transport's read-through coalescing must be
        // inherited — zero OS seeks.
        let runs = make_runs(500, 11);
        let (index, p) = write_fixture("noseek", &runs);
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        let mut out = Vec::new();
        while src.position() + 8 < src.len_u32() {
            src.skip(6).unwrap();
            out.clear();
            src.read_into(&mut out, 2).unwrap();
        }
        assert_eq!(stats.seeks(), 0, "short skips must stay sequential");
    }

    #[test]
    fn trait_read_exact_range_works_in_decoded_space() {
        let runs = make_runs(100, 5);
        let (index, p) = write_fixture("range", &runs);
        let flat: Vec<u32> = runs.iter().flatten().copied().collect();
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        let mut out = Vec::new();
        let (pos, len) = (flat.len() as u64 / 3, flat.len() / 2);
        src.read_exact_range(pos, len, &mut out).unwrap();
        assert_eq!(out, flat[pos as usize..pos as usize + len]);
        let err = src
            .read_exact_range(flat.len() as u64 - 1, 2, &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("past end"));
    }

    #[test]
    fn index_sidecar_round_trips() {
        let runs = make_runs(64, 21);
        let (index, _p) = write_fixture("vix", &runs);
        let vix = tmp("vix-sidecar");
        let stats = IoStats::new();
        VarintIndex::store(&vix, &index.bytes, stats.clone()).unwrap();
        assert!(stats.bytes_written() > 0, "sidecar writes are accounted");
        let loaded = VarintIndex::load(&vix, index.decoded.clone(), stats.clone()).unwrap();
        assert_eq!(loaded.bytes, index.bytes);
        assert!(stats.bytes_read() > 0, "sidecar reads are accounted");

        let short = index.decoded[..index.decoded.len() - 1].to_vec();
        assert!(VarintIndex::load(&vix, short, stats).is_err());
    }

    #[test]
    fn writer_output_is_byte_identical_to_the_per_word_writer() {
        // The writer this one replaced: encode into a scratch buffer,
        // drain whole words off the front one `write` at a time.
        fn old_writer(path: &Path, runs: &[Vec<u32>]) -> Vec<u64> {
            let mut w = U32Writer::create(path, IoStats::new()).unwrap();
            let (mut pending, mut offsets, mut total) = (Vec::new(), Vec::new(), 0u64);
            for run in runs {
                offsets.push(total);
                let before = pending.len();
                encode_run(run, &mut pending).unwrap();
                total += (pending.len() - before) as u64;
                let whole = pending.len() / 4 * 4;
                for c in pending[..whole].chunks_exact(4) {
                    w.write(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .unwrap();
                }
                pending.drain(..whole);
            }
            offsets.push(total);
            while !pending.len().is_multiple_of(4) {
                pending.push(0);
            }
            for c in pending.chunks_exact(4) {
                w.write(u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .unwrap();
            }
            w.finish().unwrap();
            offsets
        }
        // Enough bytes to cross the writer's hand-off threshold and the
        // stream buffer several times, ending off a word boundary.
        let mut runs = make_runs(60_000, 77);
        runs.push((0..50_000u32).map(|i| i * 3).collect());
        runs.push(vec![u32::MAX]);
        let old_path = tmp("golden-old");
        let old_offsets = old_writer(&old_path, &runs);
        assert!(*old_offsets.last().unwrap() > 4 * PENDING_FLUSH_BYTES as u64);

        let new_path = tmp("golden-new");
        let stats = IoStats::new();
        let mut w = VarintAdjWriter::create(&new_path, stats.clone()).unwrap();
        for run in &runs {
            w.write_run(run).unwrap();
        }
        assert_eq!(w.finish().unwrap(), old_offsets);
        let bytes = std::fs::read(&new_path).unwrap();
        assert!(bytes == std::fs::read(&old_path).unwrap(), "file bytes");
        assert_eq!(stats.bytes_written(), bytes.len() as u64);
        assert_eq!(
            stats.write_ops(),
            (bytes.len() as u64).div_ceil(64 * 1024),
            "still one op per full stream buffer"
        );
    }

    #[test]
    fn writer_survives_a_rejected_run() {
        let p = tmp("rejected-run");
        let mut w = VarintAdjWriter::create(&p, IoStats::new()).unwrap();
        w.write_run(&[1, 2]).unwrap();
        assert!(w.write_run(&[9, 8, 7]).is_err());
        w.write_run(&[3]).unwrap();
        assert_eq!(w.finish().unwrap(), [0, 2, 3]);
        assert_eq!(std::fs::read(&p).unwrap(), [1, 0, 3, 0]);
    }

    #[test]
    fn pruned_scan_decodes_nothing() {
        // The bound-pruned scan: whole runs skipped back to back from
        // run boundary to run boundary, zero-degree vertices included.
        // The byte cursor moves by the index; no value is decoded.
        let runs = make_runs(2_000, 31);
        let (index, p) = write_fixture("pruned", &runs);
        let stats = IoStats::new();
        let mut src = open_source(&index, &p, &stats);
        for run in &runs {
            src.skip(run.len() as u64).unwrap();
        }
        assert_eq!(src.position(), index.decoded_len());
        assert_eq!(src.values_decoded(), 0);
        assert_eq!(stats.u32s_decoded(), 0);
        assert_eq!(stats.seeks(), 0);

        // Skip all but every tenth run, which is read: exactly the read
        // runs' values go through the decoder.
        let mut src = open_source(&index, &p, &stats);
        let (mut out, mut want) = (Vec::new(), Vec::new());
        for (i, run) in runs.iter().enumerate() {
            if i % 10 == 0 {
                src.read_into(&mut out, run.len()).unwrap();
                want.extend_from_slice(run);
            } else {
                src.skip(run.len() as u64).unwrap();
            }
        }
        assert_eq!(out, want);
        assert_eq!(src.values_decoded(), want.len() as u64);

        // Landing inside a run decodes its head and nothing else, from
        // a boundary (skip or seek) as from inside the run.
        let long = runs.iter().position(|r| r.len() >= 5).unwrap();
        let start: u64 = runs[..long].iter().map(|r| r.len() as u64).sum();
        let mut src = open_source(&index, &p, &stats);
        src.skip(start + 2).unwrap();
        assert_eq!(src.values_decoded(), 2);
        src.skip(2).unwrap();
        assert_eq!(src.values_decoded(), 4);
        out.clear();
        src.read_into(&mut out, 1).unwrap();
        assert_eq!(out, [runs[long][4]]);
        src.seek_to(start + 3).unwrap();
        assert_eq!(src.values_decoded(), 5 + 3);
    }

    #[test]
    fn whole_run_skips_move_by_the_index_alone() {
        // The pruned scan: from each run start, either read the run or
        // skip exactly it. Zero-degree runs sit between them (the scan
        // passes them by without a call), and the stream spans several
        // refills of the decode buffer.
        let runs = make_runs(12_000, 47);
        assert!(runs.iter().any(|r| r.is_empty()));
        let (index, p) = write_fixture("whole-runs", &runs);
        // A refill fetches at most `FETCH_WORDS` words.
        assert!(index.encoded_bytes() > 3 * 4 * FETCH_WORDS as u64);
        for keep in [2usize, 3, 7] {
            let stats = IoStats::new();
            let mut src = open_source(&index, &p, &stats);
            let (mut out, mut want) = (Vec::new(), Vec::new());
            for (i, run) in runs.iter().enumerate() {
                if run.is_empty() {
                    continue;
                }
                if i % keep == 0 {
                    src.read_into(&mut out, run.len()).unwrap();
                    want.extend_from_slice(run);
                } else {
                    let before = src.values_decoded();
                    src.skip(run.len() as u64).unwrap();
                    assert_eq!(src.values_decoded(), before, "run {i}: skip decoded");
                }
                assert_eq!(src.position(), index.decoded[i + 1], "run {i}");
            }
            assert_eq!(out, want, "every {keep}th run read");
            assert_eq!(src.values_decoded(), want.len() as u64);
            assert_eq!(src.position(), index.decoded_len());
            // At end-of-file a skip is a no-op and a seek still lands.
            src.skip(1).unwrap();
            assert_eq!(src.position(), index.decoded_len());
            let mid = runs.iter().position(|r| r.len() >= 3).unwrap();
            src.seek_to(index.decoded[mid] + 1).unwrap();
            out.clear();
            src.read_into(&mut out, 2).unwrap();
            assert_eq!(out, runs[mid][1..3]);
        }
    }

    /// Hand-assembled stream: `runs` are raw encoded bytes per vertex,
    /// `degrees` what the index claims each holds.
    fn raw_fixture(name: &str, runs: &[&[u8]], degrees: &[u64]) -> VarintSource<U32Reader> {
        let p = tmp(name);
        let (mut bytes, mut decoded, mut offsets) = (Vec::new(), vec![0u64], vec![0u64]);
        for (run, d) in runs.iter().zip(degrees) {
            bytes.extend_from_slice(run);
            decoded.push(decoded.last().unwrap() + d);
            offsets.push(bytes.len() as u64);
        }
        bytes.resize(bytes.len().div_ceil(4) * 4, 0);
        std::fs::write(&p, &bytes).unwrap();
        let index = Arc::new(VarintIndex::new(decoded, offsets).unwrap());
        open_source(&index, &p, &IoStats::new())
    }

    #[test]
    fn corrupt_streams_fail_typed_through_the_source() {
        let msg = |mut src: VarintSource<U32Reader>, n: usize| {
            let mut out = vec![9];
            let e = src.read_into(&mut out, n).unwrap_err();
            assert_eq!(out, [9], "a failed read delivers nothing");
            assert!(matches!(e, IoError::Malformed { .. }), "{e}");
            e.to_string()
        };
        // A gap that would wrap `prev + g + 1`.
        let mut wrap = Vec::new();
        encode_varint_u32(u32::MAX - 3, &mut wrap);
        encode_varint_u32(100, &mut wrap);
        let src = raw_fixture("corrupt-wrap", &[&[1, 2], &wrap], &[2, 2]);
        assert!(msg(src, 4).contains("overflows u32"));
        // A run with fewer values than its degree, and one with more.
        let src = raw_fixture("corrupt-short", &[&[1, 2], &[5]], &[3, 1]);
        assert!(msg(src, 4).contains("holds fewer values than its degree"));
        let src = raw_fixture("corrupt-long", &[&[1, 2, 3], &[5]], &[2, 1]);
        assert!(msg(src, 3).contains("holds bytes past its last value"));
        // An unterminated varint at the end of its run.
        let src = raw_fixture("corrupt-cut", &[&[1, 0x80], &[5]], &[2, 1]);
        assert!(msg(src, 3).contains("holds fewer values than its degree"));
        // The same faults reached by a landing skip / seek.
        let mut src = raw_fixture("corrupt-skip", &[&[1, 0xff, 0xff, 0xff, 0xff, 0x7f]], &[3]);
        assert!(src.skip(2).is_err());
        let mut src = raw_fixture("corrupt-seek", &[&[1], &[0x80, 0x80]], &[1, 2]);
        assert!(src.seek_to(2).is_err());
    }

    #[test]
    fn index_validation_rejects_bad_shapes() {
        assert!(VarintIndex::new(vec![], vec![]).is_err());
        assert!(VarintIndex::new(vec![0, 1], vec![0]).is_err());
        assert!(
            VarintIndex::new(vec![1, 2], vec![1, 2]).is_err(),
            "must start at 0"
        );
        assert!(
            VarintIndex::new(vec![0, 2, 1], vec![0, 1, 2]).is_err(),
            "monotone"
        );
        assert!(VarintIndex::new(vec![0], vec![0]).is_ok(), "empty graph");
    }
}
