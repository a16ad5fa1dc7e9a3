//! Error type for the graph substrate.

use std::fmt;
use std::path::PathBuf;

/// Result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Errors raised by graph construction, disk (de)serialisation and
/// validation.
#[derive(Debug)]
pub enum GraphError {
    /// An underlying I/O substrate failure.
    Io(pdtl_io::IoError),
    /// An edge referenced a vertex id >= n.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The graph's vertex count.
        n: u32,
    },
    /// A structural invariant of the PDTL format was violated.
    Invalid(String),
    /// A buffer the graph needs cannot be allocated: its size overflows
    /// the address space, or the allocator refused it.
    TooLarge {
        /// What the buffer holds.
        what: &'static str,
        /// How many entries it needed.
        entries: u64,
    },
    /// A file's bytes do not match the digest recorded in the graph's
    /// integrity manifest (or the manifest failed its own self-check).
    Corrupt {
        /// The corrupted file.
        path: PathBuf,
        /// What the integrity check found.
        detail: String,
    },
    /// A file is shorter than the length recorded in the graph's
    /// integrity manifest — a lost tail or interrupted write.
    Truncated {
        /// The truncated file.
        path: PathBuf,
        /// Length (bytes) the manifest recorded.
        expected: u64,
        /// Length (bytes) found on disk.
        actual: u64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "io: {e}"),
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range (n = {n})")
            }
            GraphError::Invalid(msg) => write!(f, "invalid graph: {msg}"),
            GraphError::TooLarge { what, entries } => {
                write!(
                    f,
                    "cannot allocate {entries} {what}: too large for this host"
                )
            }
            GraphError::Corrupt { path, detail } => {
                write!(f, "corrupt file {}: {detail}", path.display())
            }
            GraphError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "truncated file {}: manifest records {expected} bytes, found {actual}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pdtl_io::IoError> for GraphError {
    fn from(e: pdtl_io::IoError) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_variants() {
        let e = GraphError::VertexOutOfRange { vertex: 9, n: 5 };
        assert!(e.to_string().contains('9'));
        let e = GraphError::Invalid("not sorted".into());
        assert!(e.to_string().contains("not sorted"));
        let e = GraphError::TooLarge {
            what: "edge samples",
            entries: 1 << 34,
        };
        assert!(e.to_string().contains("17179869184 edge samples"));
        let e: GraphError = pdtl_io::IoError::malformed("/x", "bad").into();
        assert!(e.to_string().contains("bad"));
        let e = GraphError::Corrupt {
            path: "/g.adj".into(),
            detail: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("/g.adj") && e.to_string().contains("checksum"));
        let e = GraphError::Truncated {
            path: "/g.vix".into(),
            expected: 100,
            actual: 60,
        };
        assert!(e.to_string().contains("100") && e.to_string().contains("60"));
    }
}
