//! The I/O backend selector shared by every stream consumer, and the
//! one place a backend is turned into an open stream.
//!
//! PDTL's engines read graph files through one cursor,
//! [`BlockStream`], which fixes the I/O plan and does all the
//! accounting (`bytes_read` / `read_ops` / `seeks`, counted per block
//! *touched*). A backend only chooses the fetcher that delivers the
//! blocks — one accounting, four fetchers:
//!
//! * [`Blocking`](IoBackend::Blocking) — [`U32Reader`], one synchronous
//!   read per block. The reference the ablations compare against.
//! * [`Prefetch`](IoBackend::Prefetch) — [`PrefetchReader`], a
//!   background thread per stream keeps blocks (and the hinted next
//!   chunk) read ahead so device waits hide behind compute. Wins when
//!   reads actually block (cold cache, emulated latency), costs a
//!   hand-off + synchronisation when they don't.
//! * [`Mmap`](IoBackend::Mmap) — [`MmapSource`], the file mapped into
//!   the address space and lent zero-copy. Wins on page-cache-resident
//!   graphs where every `read(2)` copy is pure overhead; falls back to
//!   `Blocking` on platforms without the mapping syscalls.
//! * [`Uring`](IoBackend::Uring) — [`UringSource`], block reads driven
//!   through `io_uring` submission/completion queues with depth > 1 and
//!   *no* extra threads: the kernel overlaps device waits with compute.
//!   Falls back to `Prefetch` (the thread-based overlapper) on kernels
//!   without `io_uring`.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::error::Result;
use crate::stream::{BlockFetch, BlockStream};
use crate::{IoStats, MmapSource, PrefetchReader, U32Reader, UringSource};

/// Which fetcher an engine's [`BlockStream`]s read their graph files
/// through.
///
/// Names round-trip through [`parse`](Self::parse) (which also accepts
/// the `io_uring` spelling), and [`resolve`](Self::resolve) degrades a
/// backend the running platform cannot serve to one it can:
///
/// ```
/// use pdtl_io::IoBackend;
///
/// // Every backend's canonical name parses back to itself…
/// for b in IoBackend::ALL {
///     assert_eq!(IoBackend::parse(b.name()), Some(b));
/// }
/// // …case-insensitively, and with the io_uring alias.
/// assert_eq!(IoBackend::parse("MMAP"), Some(IoBackend::Mmap));
/// assert_eq!(IoBackend::parse("io_uring"), Some(IoBackend::Uring));
///
/// // `resolve` never yields a backend this platform cannot run:
/// // io_uring degrades to the thread-based prefetcher where missing.
/// let r = IoBackend::Uring.resolve();
/// assert!(r == IoBackend::Uring || r == IoBackend::Prefetch);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IoBackend {
    /// Synchronous buffered reads ([`U32Reader`]).
    Blocking,
    /// Background read-ahead ([`PrefetchReader`]), for scans and
    /// hinted chunk loads alike.
    #[default]
    Prefetch,
    /// Zero-copy memory mapping ([`MmapSource`]);
    /// resolves to `Blocking` where mapping is unsupported.
    Mmap,
    /// Asynchronous `io_uring` reads ([`UringSource`])
    /// with queue depth > 1 and no prefetch threads; resolves to
    /// `Prefetch` where `io_uring` is unavailable.
    Uring,
}

/// Environment variable overriding the default backend
/// (`blocking` | `prefetch` | `mmap` | `uring`, case-insensitive).
/// Consumed by `MgtOptions::default`, which is how the CI test matrix
/// runs the whole suite under each backend without touching any call
/// site.
pub const BACKEND_ENV: &str = "PDTL_IO_BACKEND";

impl IoBackend {
    /// Every backend, in wire-discriminant order: a backend's index
    /// here is its byte in the cluster's wire records.
    pub const ALL: [IoBackend; 4] = [
        IoBackend::Blocking,
        IoBackend::Prefetch,
        IoBackend::Mmap,
        IoBackend::Uring,
    ];

    /// Stable lowercase name (bench row / CLI / env spelling).
    pub fn name(self) -> &'static str {
        match self {
            IoBackend::Blocking => "blocking",
            IoBackend::Prefetch => "prefetch",
            IoBackend::Mmap => "mmap",
            IoBackend::Uring => "uring",
        }
    }

    /// Parse a backend name, case-insensitively. `uring` and the
    /// kernel-interface spelling `io_uring` both name
    /// [`Uring`](IoBackend::Uring).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "blocking" => Some(IoBackend::Blocking),
            "prefetch" => Some(IoBackend::Prefetch),
            "mmap" => Some(IoBackend::Mmap),
            "uring" | "io_uring" => Some(IoBackend::Uring),
            _ => None,
        }
    }

    /// The backend selected by [`BACKEND_ENV`], if set and valid.
    pub fn from_env() -> Option<Self> {
        std::env::var(BACKEND_ENV)
            .ok()
            .and_then(|v| Self::parse(&v))
    }

    /// The default backend, honouring the environment override:
    /// [`Prefetch`](IoBackend::Prefetch) unless [`BACKEND_ENV`] names
    /// another one.
    pub fn default_from_env() -> Self {
        Self::from_env().unwrap_or(IoBackend::Prefetch)
    }

    /// Resolve to a backend the current platform can actually run:
    /// [`Mmap`](IoBackend::Mmap) degrades to
    /// [`Blocking`](IoBackend::Blocking) where the mapping syscalls are
    /// unavailable, [`Uring`](IoBackend::Uring) degrades to
    /// [`Prefetch`](IoBackend::Prefetch) — the thread-based overlapper,
    /// its closest behavioural twin — where the kernel lacks (or has
    /// disabled) `io_uring`; the first two are always supported.
    pub fn resolve(self) -> Self {
        match self {
            IoBackend::Mmap if !crate::mmap::mmap_supported() => IoBackend::Blocking,
            IoBackend::Uring if !crate::uring::uring_supported() => IoBackend::Prefetch,
            other => other,
        }
    }

    /// Open `path` as a raw block stream through this backend, every
    /// block fetch paying the emulated device `latency` (zero measures
    /// the real hardware). The one place a backend becomes a transport:
    /// [`resolve`](Self::resolve)d first, and returned with the backend
    /// that actually serves the stream, because the ring can still fail
    /// at run time after `resolve()` vets the platform (RLIMIT_MEMLOCK
    /// on 5.6–5.11 kernels, fd exhaustion, seccomp applied post-probe).
    /// Degradation is the `Uring` backend's contract, so it then falls
    /// back to the thread-based overlapper rather than failing the
    /// caller; genuine file errors resurface identically there.
    pub fn open(
        self,
        path: &Path,
        stats: &Arc<IoStats>,
        latency: Duration,
    ) -> Result<(IoBackend, BlockStream<Box<dyn BlockFetch>>)> {
        let blocking = || -> Result<U32Reader> {
            let mut reader = U32Reader::open(path, stats.clone())?;
            // Set before a producer thread inherits it and reads ahead.
            reader.set_read_latency(latency);
            Ok(reader)
        };
        let overlapped = || Ok(PrefetchReader::new(blocking()?)?.boxed());
        let mut served = self.resolve();
        let mut stream = match served {
            IoBackend::Blocking => blocking()?.boxed(),
            IoBackend::Mmap => MmapSource::open(path, stats.clone())?.boxed(),
            IoBackend::Prefetch => overlapped()?,
            IoBackend::Uring => match UringSource::open(path, stats.clone()) {
                Ok(ring) => ring.boxed(),
                Err(_) => {
                    served = IoBackend::Prefetch;
                    overlapped()?
                }
            },
        };
        stream.set_read_latency(latency);
        Ok((served, stream))
    }
}

impl std::fmt::Display for IoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_for_all_four_backends() {
        assert_eq!(IoBackend::ALL.len(), 4);
        for b in IoBackend::ALL {
            assert_eq!(IoBackend::parse(b.name()), Some(b));
            assert_eq!(IoBackend::parse(&b.name().to_uppercase()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(IoBackend::parse("gibberish"), None);
    }

    #[test]
    fn uring_accepts_both_spellings() {
        assert_eq!(IoBackend::parse("uring"), Some(IoBackend::Uring));
        assert_eq!(IoBackend::parse("io_uring"), Some(IoBackend::Uring));
        assert_eq!(IoBackend::parse("IO_URING"), Some(IoBackend::Uring));
        assert_eq!(IoBackend::Uring.name(), "uring", "canonical name");
    }

    #[test]
    fn default_is_prefetch() {
        assert_eq!(IoBackend::default(), IoBackend::Prefetch);
    }

    #[test]
    fn resolve_never_yields_unsupported_backends() {
        let r = IoBackend::Mmap.resolve();
        assert!(r == IoBackend::Mmap || r == IoBackend::Blocking);
        if crate::mmap::mmap_supported() {
            assert_eq!(r, IoBackend::Mmap);
        }
        let r = IoBackend::Uring.resolve();
        assert!(r == IoBackend::Uring || r == IoBackend::Prefetch);
        if crate::uring::uring_supported() {
            assert_eq!(r, IoBackend::Uring);
        }
        assert_eq!(IoBackend::Blocking.resolve(), IoBackend::Blocking);
        assert_eq!(IoBackend::Prefetch.resolve(), IoBackend::Prefetch);
    }

    #[test]
    fn open_serves_every_backend_with_what_resolve_promises() {
        use crate::{U32Source, U32Writer};
        let dir = std::env::temp_dir().join("pdtl-backend-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("open-{}", std::process::id()));
        let vals: Vec<u32> = (0..40_000).collect();
        let mut w = U32Writer::create(&path, IoStats::new()).unwrap();
        w.write_all(&vals).unwrap();
        w.finish().unwrap();

        for backend in IoBackend::ALL {
            let stats = IoStats::new();
            let (served, mut stream) = backend.open(&path, &stats, Duration::ZERO).unwrap();
            // The ring may also give up at run time, to its fallback.
            assert!(
                served == backend.resolve() || served == IoBackend::Prefetch,
                "{backend} served by {served}"
            );
            assert_eq!(stream.path(), path);
            assert_eq!(stream.read_all().unwrap(), vals, "{backend}");
            assert_eq!(stats.bytes_read(), 160_000, "{backend}");
        }
        let missing = dir.join("no-such-file");
        for backend in IoBackend::ALL {
            let err = backend.open(&missing, &IoStats::new(), Duration::ZERO);
            assert!(err.unwrap_err().to_string().contains("no-such-file"));
        }
        let _ = std::fs::remove_file(&path);
    }
}
