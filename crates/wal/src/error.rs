//! Error type for the write-ahead log.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors raised by the write-ahead log.
#[derive(Debug)]
pub enum WalError {
    /// An underlying I/O operation failed.
    Io {
        /// Description of the failing operation.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The log file could not be opened.
    OpenFailed {
        /// Path of the log file.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A log entry failed its checksum or framing validation. Entries after
    /// a corrupt one are never returned.
    Corrupt {
        /// Byte offset of the corrupt entry.
        offset: u64,
        /// Human readable description.
        reason: String,
    },
    /// An append offered a payload longer than
    /// [`crate::record::MAX_PAYLOAD`]. Nothing was written: the decoder
    /// refuses such an entry as corrupt, so open would truncate the log
    /// there and drop every later entry with it.
    PayloadTooLarge {
        /// Length of the refused payload.
        len: usize,
    },
}

impl WalError {
    /// Convenience constructor for [`WalError::Io`].
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        WalError::Io {
            context: context.into(),
            source,
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { context, source } => {
                write!(f, "WAL I/O error while {context}: {source}")
            }
            WalError::OpenFailed { path, source } => {
                write!(f, "failed to open WAL {}: {source}", path.display())
            }
            WalError::Corrupt { offset, reason } => {
                write!(f, "corrupt WAL entry at offset {offset}: {reason}")
            }
            WalError::PayloadTooLarge { len } => write!(
                f,
                "WAL payload of {len} bytes exceeds the {}-byte limit",
                crate::record::MAX_PAYLOAD
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } | WalError::OpenFailed { source, .. } => Some(source),
            WalError::Corrupt { .. } | WalError::PayloadTooLarge { .. } => None,
        }
    }
}

/// Result alias used throughout the WAL crate.
pub type Result<T> = std::result::Result<T, WalError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = WalError::io("appending", io::Error::other("disk full"));
        assert!(e.to_string().contains("appending"));
        let e = WalError::Corrupt {
            offset: 16,
            reason: "bad checksum".into(),
        };
        assert!(e.to_string().contains("offset 16"));
        let e = WalError::OpenFailed {
            path: PathBuf::from("/nope/wal.log"),
            source: io::Error::new(io::ErrorKind::NotFound, "missing"),
        };
        assert!(e.to_string().contains("/nope/wal.log"));
    }

    #[test]
    fn io_source_preserved() {
        let e = WalError::io("x", io::Error::other("inner"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
