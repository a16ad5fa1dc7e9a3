//! The I/O backend selector shared by every stream consumer, and the
//! one place a backend is turned into an open stream.
//!
//! PDTL's engines read graph files through one cursor,
//! [`BlockStream`], which fixes the I/O plan and does all the
//! accounting (`bytes_read` / `read_ops` / `seeks`, counted per block
//! *touched*). A backend only chooses the fetcher that delivers the
//! blocks — one accounting, two fetchers behind three names:
//!
//! * [`Blocking`](IoBackend::Blocking) — [`U32Reader`], one synchronous
//!   read per block. The reference the ablations compare against.
//! * [`Prefetch`](IoBackend::Prefetch) — the default, read exactly as
//!   `Blocking` reads ([`PrefetchReader`](crate::PrefetchReader) is
//!   [`U32Reader`]). The name stays because it is the default and
//!   wire byte 1.
//! * [`Mmap`](IoBackend::Mmap) — [`MmapSource`], the file mapped into
//!   the address space and lent zero-copy. Wins on page-cache-resident
//!   graphs where every `read(2)` copy is pure overhead; falls back to
//!   `Blocking` on platforms without the mapping syscalls.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::error::Result;
use crate::stream::{BlockFetch, BlockStream};
use crate::{IoStats, MmapSource, U32Reader};

/// Which fetcher an engine's [`BlockStream`]s read their graph files
/// through. The default, [`Prefetch`](IoBackend::Prefetch), is fixed;
/// a caller picks another by setting the field it configures
/// (`MgtOptions::backend`, the CLI's `--backend`).
///
/// Names round-trip through [`parse`](Self::parse), and
/// [`resolve`](Self::resolve) degrades a backend the running platform
/// cannot serve to one it can:
///
/// ```
/// use pdtl_io::IoBackend;
///
/// // Every backend's canonical name parses back to itself…
/// for b in IoBackend::ALL {
///     assert_eq!(IoBackend::parse(b.name()), Some(b));
/// }
/// // …case-insensitively.
/// assert_eq!(IoBackend::parse("MMAP"), Some(IoBackend::Mmap));
///
/// // `resolve` never yields a backend this platform cannot run:
/// // mmap degrades to blocking reads where mapping is missing.
/// let r = IoBackend::Mmap.resolve();
/// assert!(r == IoBackend::Mmap || r == IoBackend::Blocking);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IoBackend {
    /// Synchronous buffered reads ([`U32Reader`]).
    Blocking,
    /// The default: synchronous reads exactly as `Blocking`
    /// ([`PrefetchReader`](crate::PrefetchReader) is [`U32Reader`]).
    #[default]
    Prefetch,
    /// Zero-copy memory mapping ([`MmapSource`]);
    /// resolves to `Blocking` where mapping is unsupported.
    Mmap,
}

impl IoBackend {
    /// Every backend, in wire-discriminant order: a backend's index
    /// here is its byte in the cluster's wire records.
    pub const ALL: [IoBackend; 3] = [IoBackend::Blocking, IoBackend::Prefetch, IoBackend::Mmap];

    /// Stable lowercase name (bench row / CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            IoBackend::Blocking => "blocking",
            IoBackend::Prefetch => "prefetch",
            IoBackend::Mmap => "mmap",
        }
    }

    /// Parse a backend name, case-insensitively.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "blocking" => Some(IoBackend::Blocking),
            "prefetch" => Some(IoBackend::Prefetch),
            "mmap" => Some(IoBackend::Mmap),
            _ => None,
        }
    }

    /// Resolve to a backend the current platform can actually run:
    /// [`Mmap`](IoBackend::Mmap) degrades to
    /// [`Blocking`](IoBackend::Blocking) where the mapping syscalls are
    /// unavailable; the other two are always supported.
    pub fn resolve(self) -> Self {
        match self {
            IoBackend::Mmap if !crate::mmap::mmap_supported() => IoBackend::Blocking,
            other => other,
        }
    }

    /// Open `path` as a raw block stream through this backend, every
    /// block fetch paying the emulated device `latency` (zero measures
    /// the real hardware). The one place a backend becomes a transport,
    /// [`resolve`](Self::resolve)d first.
    pub fn open(
        self,
        path: &Path,
        stats: &Arc<IoStats>,
        latency: Duration,
    ) -> Result<BlockStream<Box<dyn BlockFetch>>> {
        let mut stream = match self.resolve() {
            IoBackend::Blocking | IoBackend::Prefetch => {
                U32Reader::open(path, stats.clone())?.boxed()
            }
            IoBackend::Mmap => MmapSource::open(path, stats.clone())?.boxed(),
        };
        stream.set_read_latency(latency);
        Ok(stream)
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
    fn names_round_trip_for_all_three_backends() {
        assert_eq!(IoBackend::ALL.len(), 3);
        for b in IoBackend::ALL {
            assert_eq!(IoBackend::parse(b.name()), Some(b));
            assert_eq!(IoBackend::parse(&b.name().to_uppercase()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(IoBackend::parse("gibberish"), None);
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
            let mut stream = backend.open(&path, &stats, Duration::ZERO).unwrap();
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
