//! Zero-copy memory-mapped streaming: serve page-cache-resident graphs
//! without `read(2)` copies.
//!
//! On a warm page cache every buffered read pays a syscall plus two
//! copies (kernel → user buffer → decoded `Vec`). [`MmapSource`] maps
//! the file once and *lends* it to the stream cursor, which then serves
//! `u32` runs as slices directly out of the mapping — scans and chunk
//! loads become pointer arithmetic. The MGT engines select it via
//! `IoBackend::Mmap`.
//!
//! **Accounting.** `MmapSource` is the same [`BlockStream`] cursor as
//! every other transport, so its block window advances over the mapping
//! and charges [`IoStats`] exactly where a buffered reader refills or
//! repositions; the fetcher behind it has no bytes to move and only
//! pays the emulated device latency
//! ([`set_read_latency`](BlockStream::set_read_latency)), one sleep per
//! block like the blocking reader, so the `io_latency` ablations remain
//! comparable across all three backends.
//!
//! The mapping syscalls (`mmap` / `munmap` / `madvise`) are bound
//! through a tiny `extern "C"` module (the same offline-shim pattern as
//! `shims/`), gated to 64-bit little-endian Linux. Elsewhere
//! [`MmapSource::open`] reports `Unsupported` and
//! `IoBackend::Mmap.resolve()` degrades to the buffered reader, so no
//! caller needs platform knowledge. On open the whole mapping is
//! advised `MADV_SEQUENTIAL` (scan-heavy access), and
//! [`hint_range`](crate::U32Source::hint_range) lets the chunk loader
//! hint the next resident window with `MADV_WILLNEED`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{IoError, Result};
use crate::stats::IoStats;
use crate::stream::{BlockFetch, BlockStream, DEFAULT_BUF_U32S};

/// Whether this platform supports the mmap backend (64-bit
/// little-endian Linux; the mapping is reinterpreted as `&[u32]`, so
/// the file's little-endian encoding must match the host's).
pub const fn mmap_supported() -> bool {
    cfg!(all(
        target_os = "linux",
        target_endian = "little",
        target_pointer_width = "64"
    ))
}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
mod sys {
    //! Minimal `extern "C"` bindings for the three mapping syscalls.
    //! `std` already links libc, so no new dependency is introduced.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MADV_WILLNEED: c_int = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }
}

/// RAII owner of one read-only mapping of a whole `u32` file (empty
/// files map nothing). Only constructible where [`mmap_supported`].
#[derive(Debug)]
#[allow(dead_code)] // never constructed on the other platforms
pub(crate) struct Map {
    ptr: *const u8,
    /// Mapped bytes: a multiple of 4, checked at open.
    len: usize,
}

// SAFETY: the mapping is read-only (PROT_READ, MAP_PRIVATE) for its
// whole lifetime, so sharing the pointer across threads is sound.
unsafe impl Send for Map {}
unsafe impl Sync for Map {}

impl Map {
    /// The mapped file as bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` bytes (or dangling with
        // `len == 0`), lives as long as `self`, and is never written.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The mapped file as the `u32`s it encodes.
    pub(crate) fn u32s(&self) -> &[u32] {
        // SAFETY: as for `bytes`; the mapping is page-aligned (so
        // 4-aligned), `len` is a multiple of 4, and a `Map` exists only
        // on little-endian hosts, where the encoding is the host's.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u32, self.len / 4) }
    }
}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
impl Map {
    fn new(file: &std::fs::File, len: usize) -> std::io::Result<Self> {
        if len == 0 {
            return Ok(Self {
                // Dangling, but aligned for the `u32` view too.
                ptr: std::ptr::NonNull::<u32>::dangling().as_ptr() as *const u8,
                len: 0,
            });
        }
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Self {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// Advise the kernel about `[offset, offset + len)` (page-aligned
    /// down; advisory only, failures ignored).
    fn advise(&self, offset: usize, len: usize, advice: std::os::raw::c_int) {
        if self.len == 0 || len == 0 || offset >= self.len {
            return;
        }
        let page = 4096usize;
        let lo = offset & !(page - 1);
        let hi = (offset + len).min(self.len);
        unsafe {
            let _ = sys::madvise(self.ptr.add(lo) as *mut _, hi - lo, advice);
        }
    }
}

#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
impl Drop for Map {
    fn drop(&mut self) {
        if self.len > 0 {
            unsafe {
                let _ = sys::munmap(self.ptr as *mut _, self.len);
            }
        }
    }
}

/// The mapping as a fetcher. Its cursor serves values out of the lent
/// mapping itself, so a block "fetch" has no bytes to move: it only
/// pays the emulated device wait, once per block like a blocking read.
#[derive(Debug)]
pub struct MmapFetch(#[allow(dead_code)] Arc<Map>); // read only by `hint`

impl BlockFetch for MmapFetch {
    fn fetch(
        &mut self,
        _at: u64,
        want: usize,
        latency: Duration,
        _buf: &mut Vec<u8>,
    ) -> std::io::Result<(usize, Duration)> {
        let start = Instant::now();
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        Ok((want, start.elapsed()))
    }

    /// `MADV_WILLNEED` on the announced window.
    #[cfg(all(
        target_os = "linux",
        target_endian = "little",
        target_pointer_width = "64"
    ))]
    fn hint(&mut self, pos: u64, len: usize) {
        self.0.advise(pos as usize * 4, len * 4, sys::MADV_WILLNEED);
    }
}

/// The zero-copy transport: [`BlockStream`] over a mapping it lends
/// runs from ([`next_run`](crate::U32Source::next_run) and
/// [`range_run`](crate::U32Source::range_run) return windows of the
/// mapped file and never touch their scratch buffer). See the module
/// docs.
pub type MmapSource = BlockStream<MmapFetch>;

impl MmapSource {
    /// Map `path` with the default block size.
    pub fn open(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        Self::with_block(path, stats, DEFAULT_BUF_U32S)
    }

    /// Map `path` with an accounting block of `block_u32s` values
    /// (minimum 1).
    #[cfg(all(
        target_os = "linux",
        target_endian = "little",
        target_pointer_width = "64"
    ))]
    pub fn with_block(
        path: impl AsRef<Path>,
        stats: Arc<IoStats>,
        block_u32s: usize,
    ) -> Result<Self> {
        let path = path.as_ref();
        let (file, len_u32) = crate::stream::open_u32_file(path)?;
        let map =
            Map::new(&file, len_u32 as usize * 4).map_err(|e| IoError::os("mmap", path, e))?;
        // The engines scan graph files front to back, repeatedly.
        map.advise(0, map.len, sys::MADV_SEQUENTIAL);
        let map = Arc::new(map);
        let fetch = MmapFetch(Arc::clone(&map));
        Ok(Self::over(
            fetch,
            path,
            stats,
            len_u32,
            block_u32s,
            Some(map),
        ))
    }

    /// Unsupported on this platform; always errors.
    #[cfg(not(all(
        target_os = "linux",
        target_endian = "little",
        target_pointer_width = "64"
    )))]
    pub fn with_block(
        path: impl AsRef<Path>,
        _stats: Arc<IoStats>,
        _block_u32s: usize,
    ) -> Result<Self> {
        Err(IoError::os(
            "mmap",
            path.as_ref(),
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the mmap backend requires 64-bit little-endian Linux",
            ),
        ))
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    target_endian = "little",
    target_pointer_width = "64"
))]
mod tests {
    use super::*;
    use crate::stream::{U32Reader, U32Source, U32Writer};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdtl-mmap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn write_vals(name: &str, vals: &[u32]) -> PathBuf {
        let p = tmp(name);
        let mut w = U32Writer::create(&p, IoStats::new()).unwrap();
        w.write_all(vals).unwrap();
        w.finish().unwrap();
        p
    }

    #[test]
    fn supported_on_this_container() {
        assert!(mmap_supported());
    }

    #[test]
    fn sequential_read_matches_file() {
        let vals: Vec<u32> = (0..50_000).map(|i| i ^ 0xDEAD).collect();
        let p = write_vals("seq", &vals);
        let stats = IoStats::new();
        let mut m = MmapSource::with_block(&p, stats.clone(), 512).unwrap();
        assert_eq!(m.len_u32(), vals.len() as u64);
        let mut out = Vec::new();
        assert_eq!(
            U32Source::read_into(&mut m, &mut out, vals.len() + 7).unwrap(),
            vals.len()
        );
        assert_eq!(out, vals);
        assert_eq!(stats.bytes_read(), vals.len() as u64 * 4);
    }

    #[test]
    fn read_run_is_zero_copy_and_counts_blocks() {
        let vals: Vec<u32> = (0..10_000).collect();
        let p = write_vals("run", &vals);
        let stats = IoStats::new();
        let mut m = MmapSource::with_block(&p, stats.clone(), 1000).unwrap();
        let mut scratch = Vec::new();
        let run = m.next_run(2500, &mut scratch).unwrap();
        assert_eq!(run, &vals[..2500]);
        // 2500 values over 1000-u32 blocks: three refills charged.
        assert_eq!(stats.bytes_read(), 3 * 1000 * 4);
        assert_eq!(stats.read_ops(), 3);
        let run = m.next_run(400, &mut scratch).unwrap();
        assert_eq!(run, &vals[2500..2900]);
        assert_eq!(stats.bytes_read(), 3 * 1000 * 4, "still inside block 3");
        assert!(scratch.is_empty(), "a lent run never touches the scratch");
    }

    #[test]
    fn range_run_mirrors_read_exact_range_accounting() {
        let vals: Vec<u32> = (0..20_000).collect();
        let p = write_vals("range", &vals);

        let bstats = IoStats::new();
        let mut r = U32Reader::with_buffer(&p, bstats.clone(), 512).unwrap();
        let mut buf = Vec::new();
        r.read_exact_range(3_000, 700, &mut buf).unwrap();

        let mstats = IoStats::new();
        let mut m = MmapSource::with_block(&p, mstats.clone(), 512).unwrap();
        let mut scratch = Vec::new();
        let run = m.range_run(3_000, 700, &mut scratch).unwrap();
        assert_eq!(run, &buf[..]);
        assert_eq!(mstats.bytes_read(), bstats.bytes_read());
        assert_eq!(mstats.seeks(), bstats.seeks());
        assert_eq!(mstats.read_ops(), bstats.read_ops());

        // Out-of-range loads fail identically.
        let be = r.read_exact_range(19_900, 200, &mut buf).unwrap_err();
        let me = m.range_run(19_900, 200, &mut scratch).unwrap_err();
        assert!(be.to_string().contains("past end of file"));
        assert!(me.to_string().contains("past end of file"));
        assert!(me.to_string().contains("range-"), "names the file: {me}");
    }

    #[test]
    fn empty_file_reads_nothing() {
        let p = write_vals("empty", &[]);
        let stats = IoStats::new();
        let mut m = MmapSource::open(&p, stats.clone()).unwrap();
        assert_eq!(m.len_u32(), 0);
        let mut out = Vec::new();
        assert_eq!(U32Source::read_into(&mut m, &mut out, 10).unwrap(), 0);
        U32Source::seek_to(&mut m, 5).unwrap();
        assert_eq!(U32Source::position(&m), 0, "clamped to empty length");
        U32Source::skip(&mut m, u64::MAX).unwrap();
        assert!(m.next_run(3, &mut out).unwrap().is_empty());
        assert!(m.range_run(99, 0, &mut out).unwrap().is_empty());
    }

    #[test]
    fn rejects_non_u32_sized_file() {
        let p = tmp("badsize");
        std::fs::write(&p, [0u8; 7]).unwrap();
        let err = MmapSource::open(&p, IoStats::new()).unwrap_err();
        assert!(err.to_string().contains("multiple of 4"));
    }

    #[test]
    fn read_latency_is_charged_per_block() {
        let vals: Vec<u32> = (0..3_000).collect();
        let p = write_vals("latency", &vals);
        let stats = IoStats::new();
        let mut m = MmapSource::with_block(&p, stats.clone(), 1000).unwrap();
        m.set_read_latency(Duration::from_millis(2));
        let t = Instant::now();
        let run = m.next_run(3_000, &mut Vec::new()).unwrap().len();
        assert_eq!(run, 3_000);
        assert!(t.elapsed() >= Duration::from_millis(6), "3 refills slept");
        assert!(stats.io_time() >= Duration::from_millis(6));
    }

    #[test]
    fn will_need_is_advisory_and_unaccounted() {
        let vals: Vec<u32> = (0..5_000).collect();
        let p = write_vals("advise", &vals);
        let stats = IoStats::new();
        let mut m = MmapSource::open(&p, stats.clone()).unwrap();
        let mut scratch = Vec::new();
        // Each hint reaches the kernel when the load before it is done.
        for (pos, len) in [(1_000, 2_000), (4_999, 500), (10_000, 10)] {
            m.hint_range(pos, len); // the 2nd clamps at the end, the 3rd is past it
            m.range_run(0, 10, &mut scratch).unwrap();
        }
        assert_eq!(stats.bytes_read(), 3 * 5_000 * 4, "only the loads");
        assert_eq!(stats.read_ops(), 3);
    }
}
