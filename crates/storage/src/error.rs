//! Error type shared by every storage-layer module.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Result alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Everything that can go wrong inside the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// A WAL frame or run file failed its CRC or framing check.
    ///
    /// Carries the byte offset at which corruption was detected.
    Corrupt {
        /// Byte offset at which corruption was detected.
        offset: u64,
        /// What failed (CRC, framing, magic…).
        reason: String,
    },
    /// One of storage's own formats (a WAL frame, a journal entry, a run
    /// block) could not be decoded into the expected shape.
    Decode(String),
    /// A stored typed row failed to encode or decode through
    /// [`crate::rows`].
    Codec(Box<CodecError>),
    /// The engine directory is already locked by another live instance.
    Locked(String),
    /// A table name contained the reserved separator byte.
    InvalidTableName(String),
    /// A transaction was used after commit/abort.
    TransactionClosed,
    /// A file in an on-disk format this build does not read: a
    /// `snap-*.sst` single-snapshot file, a v1 (`PRUN`) run, a run
    /// holding range tombstones, or a WAL frame that passes its CRC but
    /// does not decode. Open fails and the file stays where it is, byte
    /// for byte.
    Unsupported {
        /// The file in that format.
        path: PathBuf,
        /// Which format, and where in the file.
        reason: String,
    },
    /// An earlier WAL write, flush or sync failed, so the engine refuses
    /// every commit, bulk ingest and checkpoint until it is reopened.
    /// Reads and compaction keep working.
    Poisoned,
}

/// A row that would not encode or decode, with the table and key a
/// curator needs to find it.
#[derive(Debug)]
pub struct CodecError {
    /// Table the row lives in.
    pub table: String,
    /// Row key (lossy UTF-8).
    pub key: String,
    /// The codec's own failure.
    pub source: Box<dyn std::error::Error + Send + Sync>,
}

impl StorageError {
    /// A [`StorageError::Codec`] for the row `key` of `table`.
    pub fn codec(
        table: &str,
        key: impl Into<String>,
        source: impl Into<Box<dyn std::error::Error + Send + Sync>>,
    ) -> StorageError {
        StorageError::Codec(Box::new(CodecError {
            table: table.to_string(),
            key: key.into(),
            source: source.into(),
        }))
    }

    /// Shorthand for a [`StorageError::Corrupt`] at `offset`.
    pub fn corrupt(offset: u64, reason: impl Into<String>) -> StorageError {
        StorageError::Corrupt {
            offset,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt { offset, reason } => {
                write!(f, "corruption at offset {offset}: {reason}")
            }
            StorageError::Decode(msg) => write!(f, "decode error: {msg}"),
            StorageError::Codec(c) => {
                write!(f, "codec failure at {}/{}: {}", c.table, c.key, c.source)
            }
            StorageError::Locked(path) => write!(f, "engine directory locked: {path}"),
            StorageError::InvalidTableName(name) => {
                write!(f, "invalid table name (reserved byte): {name:?}")
            }
            StorageError::TransactionClosed => write!(f, "transaction already closed"),
            StorageError::Unsupported { path, reason } => {
                write!(f, "unsupported format in {}: {reason}", path.display())
            }
            StorageError::Poisoned => {
                write!(
                    f,
                    "writes refused after a failed WAL write; reopen the engine"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Codec(c) => Some(c.source.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants_are_informative() {
        let io = StorageError::from(io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        let c = StorageError::Corrupt {
            offset: 17,
            reason: "bad crc".into(),
        };
        assert!(c.to_string().contains("17"));
        assert!(c.to_string().contains("bad crc"));
        assert!(StorageError::TransactionClosed
            .to_string()
            .contains("closed"));
        let u = StorageError::Unsupported {
            path: PathBuf::from("dir/snap-1.sst"),
            reason: "single-snapshot file".into(),
        };
        assert!(u.to_string().contains("dir/snap-1.sst"));
        assert!(u.to_string().contains("single-snapshot file"));
    }

    #[test]
    fn codec_names_table_and_key_and_keeps_its_source() {
        let err = StorageError::codec("records", "BAD-1", io::Error::other("expected `,`"));
        assert_eq!(
            err.to_string(),
            "codec failure at records/BAD-1: expected `,`"
        );
        let source = std::error::Error::source(&err).expect("codec source");
        assert_eq!(source.to_string(), "expected `,`");
        assert_eq!(std::mem::size_of::<StorageError>(), 48);
    }

    #[test]
    fn io_source_is_preserved() {
        let err = StorageError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
