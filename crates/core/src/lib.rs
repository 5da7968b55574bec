//! # graphsi-core
//!
//! An embedded, Neo4j-style graph database with **snapshot isolation**,
//! reproducing *"Snapshot Isolation for Neo4j"* (Patiño-Martínez et al.,
//! EDBT 2016) from scratch in Rust.
//!
//! ## Architecture (paper §2 + §4)
//!
//! ```text
//!        GraphDb ── Arc-backed handle: transactions, commit pipeline,
//!        /   |   \             recovery, GC driver
//!   indexes  |    MVCC object cache (graphsi-mvcc): version chains,
//! (graphsi-  |    tombstones, threaded GC list
//!   index)   |
//!            transaction substrate (graphsi-txn): timestamps, locks,
//!            conflict strategies, active-transaction table
//!            |
//!        record stores (graphsi-storage) ── WAL (graphsi-wal)
//! ```
//!
//! * **Snapshot isolation** (default): reads are served from the versioned
//!   object cache at the transaction's start timestamp without any read
//!   locks; long write locks detect write-write conflicts with a
//!   first-updater-wins strategy; only the newest committed version is
//!   written to the persistent store.
//! * **Read committed** (the baseline stock Neo4j provides): short read
//!   locks, long write locks, reads always observe the latest committed
//!   state — exhibiting the unrepeatable-read and phantom anomalies the
//!   paper sets out to remove.
//!
//! [`GraphDb`] is a cheaply-cloneable handle and [`Transaction`] is
//! `Send + 'static`, so worker pools can run one transaction per thread.
//! Hot reads ([`Transaction::relationships`],
//! [`Transaction::nodes_with_label`], ...) are lazy, snapshot-consistent
//! iterators fed by chunked, GC-safe cursors — candidate IDs are paged at
//! most one chunk ([`DbConfig::scan_chunk_size`]) at a time — and
//! [`Transaction::query`] composes them into streaming pipelines
//! (label/property match → filter → multi-hop expand → distinct → limit).
//! Scans stream in no particular order; collect and sort for a stable one.
//!
//! ## Quick start
//!
//! ```
//! use graphsi_core::{DbConfig, GraphDb, PropertyValue};
//!
//! let dir = graphsi_core::test_support::TempDir::new("doc-quickstart");
//! let db = GraphDb::open(dir.path(), DbConfig::default()).unwrap();
//!
//! // Write transaction.
//! let mut tx = db.begin();
//! let alice = tx
//!     .create_node(&["Person"], &[("name", PropertyValue::from("Alice"))])
//!     .unwrap();
//! let bob = tx
//!     .create_node(&["Person"], &[("name", PropertyValue::from("Bob"))])
//!     .unwrap();
//! tx.create_relationship(alice, bob, "KNOWS", &[]).unwrap();
//! tx.commit().unwrap();
//!
//! // Read-only transaction: a stable snapshot, zero lock-manager calls.
//! let tx = db.txn().read_only().begin();
//! assert_eq!(tx.nodes_with_label("Person").unwrap().count(), 2);
//! assert_eq!(tx.degree(alice, graphsi_core::Direction::Both).unwrap(), 1);
//! drop(tx);
//!
//! // Closure conveniences: retry write-write conflicts automatically.
//! db.write_with_retry(|tx| tx.set_node_property(alice, "age", PropertyValue::Int(34)))
//!     .unwrap();
//! let age = db.read(|tx| tx.node_property(alice, "age")).unwrap();
//! assert_eq!(age, Some(PropertyValue::Int(34)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod commit;
pub(crate) mod commit_pipeline;
pub mod config;
pub mod db;
pub mod entity;
pub mod error;
pub mod iter;
pub mod lock_rank;
pub mod metrics;
pub mod options;
pub(crate) mod plan;
pub mod query;
pub mod transaction;
pub mod traversal;
pub mod verify;
pub mod write_set;

pub use commit::{CommitOp, CommitRecord};
pub use config::{DbConfig, IsolationLevel};
pub use db::{GcSummary, GraphDb, RESERVED_PREFIX};
pub use entity::{Direction, Node, NodeData, Relationship, RelationshipData};
pub use error::{DbError, Result};
pub use iter::{NeighborIter, NodeIdIter, RelIdIter, RelIter};
pub use metrics::{DbMetrics, DbMetricsSnapshot};
pub use options::TxnOptions;
pub use query::{QueryBuilder, QueryStream, Row, RowStream};
pub use transaction::Transaction;
pub use verify::{VerifyClass, VerifyFinding, VerifyReport};

// Re-export the identifiers and value types users need from the substrate
// crates so that applications can depend on `graphsi-core` alone.
pub use graphsi_mvcc::GcStrategy;
pub use graphsi_storage::{
    LabelToken, NodeId, PageFault, PropertyKeyToken, PropertyValue, RelTypeToken, RelationshipId,
    StoreTarget,
};
pub use graphsi_txn::{ConflictStrategy, LockStatsSnapshot, Timestamp, TxnId};
pub use graphsi_wal::SyncPolicy;

/// Helpers shared by tests, examples and benchmarks (temporary
/// directories, hang watchdogs).
pub mod test_support {
    pub use graphsi_storage::test_util::TempDir;

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// A hang watchdog for multi-threaded tests: unless dropped (or
    /// [`Watchdog::disarm`]ed) within the deadline, a deadline thread
    /// prints a named diagnostic — including the lock-order witness's
    /// acquisition-order edges when the `lock-order` feature is on — and
    /// aborts the process. A wedged test thereby fails with the lock
    /// state that wedged it instead of sitting in a CI timeout.
    pub struct Watchdog {
        armed: Arc<AtomicBool>,
    }

    impl Watchdog {
        /// Arms a watchdog named `name` with the given deadline. The
        /// returned guard disarms it on drop, so a passing (or cleanly
        /// panicking) test never trips it.
        pub fn arm(name: &'static str, deadline: Duration) -> Watchdog {
            let armed = Arc::new(AtomicBool::new(true));
            let flag = Arc::clone(&armed);
            std::thread::spawn(move || {
                std::thread::sleep(deadline);
                if !flag.load(Ordering::SeqCst) {
                    return;
                }
                eprintln!("watchdog '{name}': test still running after {deadline:?}, aborting");
                #[cfg(feature = "lock-order")]
                {
                    eprintln!("watchdog '{name}': lock-order witness edges observed so far:");
                    for ((from, to), (from_site, to_site)) in parking_lot::order::edges() {
                        eprintln!(
                            "  [{rank_from}] {name_from} at {from_site} -> [{rank_to}] {name_to} at {to_site}",
                            rank_from = from.0,
                            name_from = from.1,
                            rank_to = to.0,
                            name_to = to.1,
                        );
                    }
                }
                std::process::abort();
            });
            Watchdog { armed }
        }

        /// Explicitly disarms the watchdog (equivalent to dropping it).
        pub fn disarm(self) {}
    }

    impl Drop for Watchdog {
        fn drop(&mut self) {
            self.armed.store(false, Ordering::SeqCst);
        }
    }
}
