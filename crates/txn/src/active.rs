//! The active-transaction table.
//!
//! Garbage collection needs to know the start timestamp of the **oldest
//! active transaction**: versions older than the newest version that this
//! transaction could still read "will never be read by any active
//! transaction" (the paper, §3) and can be reclaimed. The table also powers
//! first-updater-wins conflict detection, which only applies to
//! *concurrent* (still active or overlapping) transactions.

use std::collections::BTreeMap;
use std::collections::HashMap;

use parking_lot::RwLock;

use crate::error::{Result, TxnError};
use crate::ids::{Timestamp, TxnId};

#[derive(Default)]
struct ActiveInner {
    /// start timestamp per active transaction.
    by_txn: HashMap<TxnId, Timestamp>,
    /// Number of active transactions per start timestamp (multiple
    /// transactions may share a start timestamp).
    by_start: BTreeMap<Timestamp, usize>,
}

/// Tracks which transactions are currently active and their start
/// timestamps.
pub struct ActiveTransactionTable {
    inner: RwLock<ActiveInner>,
}

impl Default for ActiveTransactionTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ActiveTransactionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ActiveTransactionTable {
            // Lock-order rank: see the README's lock-rank map.
            inner: RwLock::with_rank(ActiveInner::default(), 230, "txn.active"),
        }
    }

    /// Registers a transaction as active with the given start timestamp.
    pub fn register(&self, txn: TxnId, start_ts: Timestamp) {
        self.register_with(txn, || start_ts);
    }

    /// Registers a transaction whose start timestamp `start_ts` reads
    /// *under the table lock*, and returns it. A watermark computed from
    /// this table then either counts the new transaction or was computed
    /// before its timestamp was read — so, with a monotone clock, GC never
    /// reclaims a version the new snapshot needs. Reading the clock first
    /// and registering afterwards leaves a window in which it can.
    pub fn register_with(&self, txn: TxnId, start_ts: impl FnOnce() -> Timestamp) -> Timestamp {
        let mut inner = self.inner.write();
        let start_ts = start_ts();
        if inner.by_txn.insert(txn, start_ts).is_none() {
            *inner.by_start.entry(start_ts).or_insert(0) += 1;
        }
        start_ts
    }

    /// Removes a transaction from the table (on commit or rollback).
    pub fn deregister(&self, txn: TxnId) -> Result<()> {
        let mut inner = self.inner.write();
        let start_ts = inner
            .by_txn
            .remove(&txn)
            .ok_or(TxnError::NotActive { txn })?;
        if let Some(count) = inner.by_start.get_mut(&start_ts) {
            *count -= 1;
            if *count == 0 {
                inner.by_start.remove(&start_ts);
            }
        }
        Ok(())
    }

    /// Returns `true` if the transaction is currently registered.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.inner.read().by_txn.contains_key(&txn)
    }

    /// The start timestamp of `txn`, if it is active.
    pub fn start_timestamp(&self, txn: TxnId) -> Option<Timestamp> {
        self.inner.read().by_txn.get(&txn).copied()
    }

    /// The start timestamp of the oldest active transaction, if any.
    pub fn oldest_active_start(&self) -> Option<Timestamp> {
        self.inner.read().by_start.keys().next().copied()
    }

    /// The garbage-collection watermark: versions with a commit timestamp
    /// strictly below this can only be read if they are the newest
    /// committed version of their entity. With no active transaction the
    /// watermark is `current_ts` (everything up to the latest commit is
    /// safe to consider).
    pub fn gc_watermark(&self, current_ts: Timestamp) -> Timestamp {
        self.oldest_active_start().unwrap_or(current_ts)
    }

    /// Number of active transactions.
    pub fn len(&self) -> usize {
        self.inner.read().by_txn.len()
    }

    /// Returns `true` if no transaction is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all active transaction IDs (unordered).
    pub fn active_ids(&self) -> Vec<TxnId> {
        self.inner.read().by_txn.keys().copied().collect()
    }
}

impl std::fmt::Debug for ActiveTransactionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTransactionTable")
            .field("active", &self.len())
            .field("oldest_start", &self.oldest_active_start())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_deregister() {
        let table = ActiveTransactionTable::new();
        assert!(table.is_empty());
        table.register(TxnId(1), Timestamp(10));
        table.register(TxnId(2), Timestamp(5));
        assert_eq!(table.len(), 2);
        assert!(table.is_active(TxnId(1)));
        assert_eq!(table.start_timestamp(TxnId(2)), Some(Timestamp(5)));
        table.deregister(TxnId(2)).unwrap();
        assert!(!table.is_active(TxnId(2)));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn deregister_unknown_txn_errors() {
        let table = ActiveTransactionTable::new();
        assert_eq!(
            table.deregister(TxnId(9)),
            Err(TxnError::NotActive { txn: TxnId(9) })
        );
    }

    #[test]
    fn oldest_active_tracks_minimum() {
        let table = ActiveTransactionTable::new();
        assert_eq!(table.oldest_active_start(), None);
        table.register(TxnId(1), Timestamp(10));
        table.register(TxnId(2), Timestamp(5));
        table.register(TxnId(3), Timestamp(20));
        assert_eq!(table.oldest_active_start(), Some(Timestamp(5)));
        table.deregister(TxnId(2)).unwrap();
        assert_eq!(table.oldest_active_start(), Some(Timestamp(10)));
        table.deregister(TxnId(1)).unwrap();
        table.deregister(TxnId(3)).unwrap();
        assert_eq!(table.oldest_active_start(), None);
    }

    #[test]
    fn shared_start_timestamps_are_counted() {
        let table = ActiveTransactionTable::new();
        table.register(TxnId(1), Timestamp(7));
        table.register(TxnId(2), Timestamp(7));
        table.deregister(TxnId(1)).unwrap();
        // The other transaction still pins timestamp 7.
        assert_eq!(table.oldest_active_start(), Some(Timestamp(7)));
        table.deregister(TxnId(2)).unwrap();
        assert_eq!(table.oldest_active_start(), None);
    }

    #[test]
    fn double_register_is_idempotent() {
        let table = ActiveTransactionTable::new();
        table.register(TxnId(1), Timestamp(3));
        table.register(TxnId(1), Timestamp(3));
        assert_eq!(table.len(), 1);
        table.deregister(TxnId(1)).unwrap();
        assert!(table.is_empty());
        assert_eq!(table.oldest_active_start(), None);
    }

    #[test]
    fn gc_watermark_with_and_without_active_txns() {
        let table = ActiveTransactionTable::new();
        assert_eq!(table.gc_watermark(Timestamp(42)), Timestamp(42));
        table.register(TxnId(1), Timestamp(10));
        assert_eq!(table.gc_watermark(Timestamp(42)), Timestamp(10));
    }

    #[test]
    fn active_ids_lists_everything() {
        let table = ActiveTransactionTable::new();
        table.register(TxnId(1), Timestamp(1));
        table.register(TxnId(2), Timestamp(2));
        let mut ids = table.active_ids();
        ids.sort();
        assert_eq!(ids, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn watermark_waits_for_a_registration_reading_its_timestamp() {
        use std::sync::{mpsc, Arc};
        use std::time::Duration;
        let table = Arc::new(ActiveTransactionTable::new());
        let (inside_tx, inside_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let registering = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                table.register_with(TxnId(1), || {
                    inside_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    Timestamp(5)
                })
            })
        };
        inside_rx.recv().unwrap();
        // A GC computing its watermark now must not run ahead with the
        // clock (100) and reclaim what the registering snapshot (5) needs.
        let gc = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || table.gc_watermark(Timestamp(100)))
        };
        std::thread::sleep(Duration::from_millis(20));
        go_tx.send(()).unwrap();
        assert_eq!(registering.join().unwrap(), Timestamp(5));
        assert_eq!(gc.join().unwrap(), Timestamp(5));
    }

    #[test]
    fn paper_example_watermark() {
        // "if the oldest transaction has start timestamp 100 and a data item
        // has versions with commit timestamps 40, 56 and 90, the first two
        // will never be read by any active transaction."
        let table = ActiveTransactionTable::new();
        table.register(TxnId(1), Timestamp(100));
        let watermark = table.gc_watermark(Timestamp(120));
        let versions = [Timestamp(40), Timestamp(56), Timestamp(90)];
        // The newest version visible at the watermark must be kept (90);
        // everything older is reclaimable.
        let newest_visible = versions
            .iter()
            .filter(|v| v.visible_to(watermark))
            .max()
            .copied()
            .unwrap();
        assert_eq!(newest_visible, Timestamp(90));
        let reclaimable: Vec<_> = versions.iter().filter(|&&v| v < newest_visible).collect();
        assert_eq!(reclaimable.len(), 2);
    }
}
