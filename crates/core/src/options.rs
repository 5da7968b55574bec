//! The transaction builder: isolation level, read-only fast path and
//! per-transaction conflict-strategy overrides.

use std::sync::Arc;

use graphsi_txn::ConflictStrategy;

use crate::config::IsolationLevel;
use crate::db::GraphDbInner;
use crate::transaction::Transaction;

/// Configures and begins one [`Transaction`]; created by
/// [`crate::GraphDb::txn`].
///
/// ```
/// use graphsi_core::{ConflictStrategy, DbConfig, GraphDb, IsolationLevel};
///
/// let dir = graphsi_core::test_support::TempDir::new("doc-options");
/// let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
///
/// // A read-only snapshot: never touches the lock manager.
/// let reader = db.txn().read_only().begin();
///
/// // A snapshot-isolation writer with an explicit conflict strategy.
/// let writer = db
///     .txn()
///     .isolation(IsolationLevel::SnapshotIsolation)
///     .conflict_strategy(ConflictStrategy::FirstCommitterWins)
///     .begin();
/// # drop((reader, writer));
/// ```
#[must_use = "finish the builder with `.begin()`"]
pub struct TxnOptions {
    db: Arc<GraphDbInner>,
    isolation: IsolationLevel,
    read_only: bool,
    conflict_strategy: Option<ConflictStrategy>,
    scan_chunk_size: Option<usize>,
}

impl TxnOptions {
    pub(crate) fn new(db: Arc<GraphDbInner>) -> Self {
        let isolation = db.config.isolation;
        TxnOptions {
            db,
            isolation,
            read_only: false,
            conflict_strategy: None,
            scan_chunk_size: None,
        }
    }

    /// Sets the isolation level (defaults to the database's configured
    /// level).
    pub fn isolation(mut self, isolation: IsolationLevel) -> Self {
        self.isolation = isolation;
        self
    }

    /// Marks the transaction read-only. Read-only transactions read from a
    /// fixed snapshot, skip write-set allocation, never touch the lock
    /// manager (the paper's no-read-locks fast path applies even when the
    /// database default is read committed), and reject write operations
    /// with [`crate::DbError::ReadOnlyTransaction`].
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// Overrides the write-write conflict strategy for this transaction
    /// only (defaults to the database's configured strategy).
    pub fn conflict_strategy(mut self, strategy: ConflictStrategy) -> Self {
        self.conflict_strategy = Some(strategy);
        self
    }

    /// Overrides the streaming-cursor chunk size for this transaction only
    /// (defaults to [`crate::DbConfig::scan_chunk_size`]; clamped to at
    /// least 1). Every scan and expansion the transaction runs buffers at
    /// most this many candidate IDs per refill.
    pub fn scan_chunk_size(mut self, chunk: usize) -> Self {
        self.scan_chunk_size = Some(chunk.max(1));
        self
    }

    /// Begins the transaction. The returned [`Transaction`] owns a
    /// reference to the database and is `Send + 'static`.
    pub fn begin(self) -> Transaction {
        let (id, start_ts) = self.db.register_transaction();
        let strategy = self
            .conflict_strategy
            .unwrap_or(self.db.config.conflict_strategy);
        let chunk = self
            .scan_chunk_size
            .unwrap_or(self.db.config.scan_chunk_size)
            .max(1);
        Transaction::new(
            self.db,
            id,
            start_ts,
            self.isolation,
            strategy,
            self.read_only,
            chunk,
        )
    }
}

impl std::fmt::Debug for TxnOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnOptions")
            .field("isolation", &self.isolation)
            .field("read_only", &self.read_only)
            .field("conflict_strategy", &self.conflict_strategy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use crate::db::GraphDb;
    use crate::error::DbError;
    use graphsi_storage::test_util::TempDir;

    #[test]
    fn builder_defaults_follow_the_config() {
        let dir = TempDir::new("options_defaults");
        let db = GraphDb::open(dir.path(), DbConfig::read_committed()).unwrap();
        let tx = db.txn().begin();
        assert_eq!(tx.isolation(), IsolationLevel::ReadCommitted);
        assert!(!tx.is_read_only());
        drop(tx);

        let tx = db
            .txn()
            .isolation(IsolationLevel::SnapshotIsolation)
            .begin();
        assert_eq!(tx.isolation(), IsolationLevel::SnapshotIsolation);
        drop(tx);
    }

    #[test]
    fn read_only_transactions_reject_writes() {
        let dir = TempDir::new("options_read_only");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut tx = db.txn().read_only().begin();
        assert!(tx.is_read_only());
        let err = tx.create_node(&["X"], &[]).unwrap_err();
        assert!(matches!(err, DbError::ReadOnlyTransaction));
        // The transaction stays usable for reads after a rejected write.
        assert_eq!(tx.all_nodes().unwrap().count(), 0);
        tx.commit().unwrap();
    }

    #[test]
    fn per_transaction_conflict_strategy_overrides_config() {
        let dir = TempDir::new("options_strategy");
        let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
        let mut setup = db.begin();
        let node = setup.create_node(&["S"], &[]).unwrap();
        setup.commit().unwrap();

        // First-committer-wins defers conflict detection to commit time:
        // both writers may buffer their writes, the second to commit loses.
        let mut t1 = db
            .txn()
            .conflict_strategy(graphsi_txn::ConflictStrategy::FirstCommitterWins)
            .begin();
        let mut t2 = db
            .txn()
            .conflict_strategy(graphsi_txn::ConflictStrategy::FirstCommitterWins)
            .begin();
        t1.set_node_property(node, "v", crate::PropertyValue::Int(1))
            .unwrap();
        t2.set_node_property(node, "v", crate::PropertyValue::Int(2))
            .unwrap();
        t1.commit().unwrap();
        let err = t2.commit().unwrap_err();
        assert!(err.is_conflict(), "second committer must lose: {err}");
    }
}
