//! Error type for the graph database core.

use std::fmt;

use graphsi_storage::{NodeId, RelationshipId, StorageError};
use graphsi_txn::TxnError;
use graphsi_wal::WalError;

/// Errors surfaced by the public graph database API.
#[derive(Debug)]
pub enum DbError {
    /// An error bubbled up from the record storage engine.
    Storage(StorageError),
    /// An error bubbled up from the write-ahead log.
    Wal(WalError),
    /// An error bubbled up from the transaction substrate (conflicts,
    /// deadlocks, lock timeouts).
    Txn(TxnError),
    /// The transaction has already been committed or rolled back.
    TransactionClosed,
    /// A write operation was attempted on a read-only transaction (one
    /// begun with [`crate::TxnOptions::read_only`]).
    ReadOnlyTransaction,
    /// The node does not exist in the transaction's snapshot.
    NodeNotFound(NodeId),
    /// The relationship does not exist in the transaction's snapshot.
    RelationshipNotFound(RelationshipId),
    /// A node cannot be deleted while it still has relationships visible to
    /// the deleting transaction.
    NodeHasRelationships(NodeId),
    /// A property key, label or relationship type name is reserved for
    /// internal use.
    ReservedName(String),
    /// A WAL commit record could not be decoded during recovery.
    CorruptCommitRecord(String),
    /// A commit record cannot be encoded because a field exceeds the
    /// format's limits (e.g. more than 255 labels on one entity). Detected
    /// at encode time, *before* anything reaches the log, so the
    /// transaction aborts cleanly instead of writing a
    /// corrupt-but-checksummed record.
    CommitRecordOverflow(String),
    /// A query pipeline was composed incorrectly (e.g. a source set after
    /// stages were added).
    InvalidQuery(String),
    /// An internal invariant was violated. Reaching this variant is a bug
    /// in graphsi, not a caller mistake; it exists so invariant breaches
    /// surface as typed errors instead of panics in library code.
    Internal(String),
    /// The directory holds a store written before commit timestamps moved
    /// into the node and relationship records. It is refused at open,
    /// before the write-ahead log is touched; there is no migration.
    UnsupportedStoreFormat {
        /// The refused database directory.
        dir: std::path::PathBuf,
    },
}

impl DbError {
    /// Returns `true` if the error represents a concurrency conflict
    /// (write-write conflict, deadlock, lock timeout) and the transaction
    /// can simply be retried by the application.
    pub fn is_conflict(&self) -> bool {
        matches!(self, DbError::Txn(e) if e.is_retryable())
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Storage(e) => write!(f, "storage error: {e}"),
            DbError::Wal(e) => write!(f, "write-ahead log error: {e}"),
            DbError::Txn(e) => write!(f, "transaction error: {e}"),
            DbError::TransactionClosed => write!(f, "transaction is already closed"),
            DbError::ReadOnlyTransaction => {
                write!(f, "write attempted on a read-only transaction")
            }
            DbError::NodeNotFound(id) => write!(f, "node {id} not found in this snapshot"),
            DbError::RelationshipNotFound(id) => {
                write!(f, "relationship {id} not found in this snapshot")
            }
            DbError::NodeHasRelationships(id) => {
                write!(f, "node {id} still has relationships and cannot be deleted")
            }
            DbError::ReservedName(name) => write!(f, "{name:?} is reserved for internal use"),
            DbError::CorruptCommitRecord(reason) => {
                write!(f, "corrupt WAL commit record: {reason}")
            }
            DbError::CommitRecordOverflow(reason) => {
                write!(f, "commit record exceeds encoding limits: {reason}")
            }
            DbError::InvalidQuery(reason) => write!(f, "invalid query: {reason}"),
            DbError::Internal(reason) => write!(f, "internal invariant violated: {reason}"),
            DbError::UnsupportedStoreFormat { dir } => write!(
                f,
                "{} holds a store in the old format (commit timestamps kept as a property); \
                 this version reads only stores with the timestamp in the record",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Storage(e) => Some(e),
            DbError::Wal(e) => Some(e),
            DbError::Txn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for DbError {
    fn from(e: StorageError) -> Self {
        DbError::Storage(e)
    }
}

impl From<WalError> for DbError {
    fn from(e: WalError) -> Self {
        DbError::Wal(e)
    }
}

impl From<TxnError> for DbError {
    fn from(e: TxnError) -> Self {
        DbError::Txn(e)
    }
}

/// Result alias used throughout the core crate.
pub type Result<T> = std::result::Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;
    use graphsi_txn::locks::LockKey;

    #[test]
    fn conflict_classification() {
        let conflict = DbError::Txn(TxnError::WriteWriteConflict {
            key: LockKey::node(1),
            other: None,
        });
        assert!(conflict.is_conflict());
        assert!(!DbError::TransactionClosed.is_conflict());
        assert!(!DbError::NodeNotFound(NodeId::new(1)).is_conflict());
    }

    #[test]
    fn display_variants() {
        assert!(DbError::NodeNotFound(NodeId::new(3))
            .to_string()
            .contains("node 3"));
        assert!(DbError::RelationshipNotFound(RelationshipId::new(4))
            .to_string()
            .contains("relationship 4"));
        assert!(DbError::NodeHasRelationships(NodeId::new(5))
            .to_string()
            .contains("cannot be deleted"));
        assert!(DbError::ReservedName("__x".into())
            .to_string()
            .contains("reserved"));
        assert!(DbError::TransactionClosed.to_string().contains("closed"));
    }

    #[test]
    fn from_conversions() {
        let e: DbError = TxnError::NotActive {
            txn: graphsi_txn::TxnId(1),
        }
        .into();
        assert!(matches!(e, DbError::Txn(_)));
        let e: DbError = StorageError::RecordNotInUse {
            store: "node",
            id: 1,
        }
        .into();
        assert!(matches!(e, DbError::Storage(_)));
    }
}
