//! The lock manager.
//!
//! Neo4j's read-committed implementation uses "a traditional locking
//! mechanism with short read locks and long write locks" (the paper, §4).
//! The snapshot-isolation implementation *removes the short read locks*
//! (reads go to the versioned object cache instead) and *keeps the long
//! write locks*, repurposing them to detect write-write conflicts with a
//! first-updater-wins strategy.
//!
//! The manager therefore supports both acquisition styles:
//!
//! * **blocking** acquisition with deadlock detection and timeouts — used by
//!   the read-committed baseline for both short read locks and long write
//!   locks;
//! * **non-blocking** (`try_exclusive`) acquisition — used by snapshot
//!   isolation: if another active transaction already holds the write lock,
//!   the caller loses the first-updater race and aborts immediately.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::deadlock::WaitForGraph;
use crate::error::{Result, TxnError};
use crate::ids::TxnId;

/// The kind of entity a lock protects.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum LockKind {
    /// A node.
    Node,
    /// A relationship.
    Relationship,
    /// An index/schema entry (label or property token).
    Schema,
}

/// Identifies one lockable entity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LockKey {
    /// The entity kind.
    pub kind: LockKind,
    /// The entity ID within its kind.
    pub id: u64,
}

impl LockKey {
    /// Lock key for a node.
    pub const fn node(id: u64) -> Self {
        LockKey {
            kind: LockKind::Node,
            id,
        }
    }

    /// Lock key for a relationship.
    pub const fn relationship(id: u64) -> Self {
        LockKey {
            kind: LockKind::Relationship,
            id,
        }
    }

    /// Lock key for a schema/index entry.
    pub const fn schema(id: u64) -> Self {
        LockKey {
            kind: LockKind::Schema,
            id,
        }
    }
}

impl fmt::Display for LockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LockKind::Node => write!(f, "node({})", self.id),
            LockKind::Relationship => write!(f, "rel({})", self.id),
            LockKind::Schema => write!(f, "schema({})", self.id),
        }
    }
}

/// The two lock modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared (read) lock — multiple holders allowed.
    Shared,
    /// Exclusive (write) lock — single holder.
    Exclusive,
}

#[derive(Default, Debug)]
struct LockState {
    shared: HashSet<TxnId>,
    exclusive: Option<TxnId>,
}

impl LockState {
    fn is_free(&self) -> bool {
        self.shared.is_empty() && self.exclusive.is_none()
    }

    fn can_grant_shared(&self, txn: TxnId) -> bool {
        match self.exclusive {
            None => true,
            Some(holder) => holder == txn,
        }
    }

    fn can_grant_exclusive(&self, txn: TxnId) -> bool {
        let exclusive_ok = match self.exclusive {
            None => true,
            Some(holder) => holder == txn,
        };
        exclusive_ok && self.shared.iter().all(|&t| t == txn)
    }

    fn blockers(&self, txn: TxnId) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self.shared.iter().copied().filter(|&t| t != txn).collect();
        if let Some(holder) = self.exclusive {
            if holder != txn && !out.contains(&holder) {
                out.push(holder);
            }
        }
        out
    }
}

/// Counters describing lock-manager behaviour (reader/writer blocking
/// under RC vs SI).
#[derive(Debug, Default)]
pub struct LockStats {
    shared_acquired: AtomicU64,
    exclusive_acquired: AtomicU64,
    immediate_conflicts: AtomicU64,
    waits: AtomicU64,
    deadlocks: AtomicU64,
    timeouts: AtomicU64,
}

/// A point-in-time snapshot of [`LockStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    /// Shared locks granted.
    pub shared_acquired: u64,
    /// Exclusive locks granted.
    pub exclusive_acquired: u64,
    /// Non-blocking acquisitions that failed (first-updater-wins losses).
    pub immediate_conflicts: u64,
    /// Times a transaction had to block waiting for a lock.
    pub waits: u64,
    /// Deadlocks detected.
    pub deadlocks: u64,
    /// Lock waits that timed out.
    pub timeouts: u64,
}

/// The lock manager.
pub struct LockManager {
    table: Mutex<HashMap<LockKey, LockState>>,
    held: Mutex<HashMap<TxnId, HashSet<LockKey>>>,
    waits: Mutex<WaitForGraph>,
    cond: Condvar,
    default_timeout: Duration,
    stats: LockStats,
}

impl LockManager {
    /// Creates a lock manager with the given blocking-acquisition timeout.
    pub fn new(default_timeout: Duration) -> Self {
        LockManager {
            // Lock-order ranks: see the README's lock-rank map. `acquire`
            // consults the wait-for graph while holding the table, so the
            // graph ranks directly above it.
            table: Mutex::with_rank(HashMap::new(), 210, "txn.lock_table"),
            held: Mutex::with_rank(HashMap::new(), 220, "txn.held_locks"),
            waits: Mutex::with_rank(WaitForGraph::new(), 215, "txn.wait_graph"),
            cond: Condvar::new(),
            default_timeout,
            stats: LockStats::default(),
        }
    }

    /// Creates a lock manager with a one-second timeout.
    pub fn with_default_timeout() -> Self {
        Self::new(Duration::from_secs(1))
    }

    /// Non-blocking exclusive acquisition: the snapshot-isolation write
    /// lock. Fails immediately with
    /// [`TxnError::WriteWriteConflict`] if another transaction holds any
    /// lock on `key` — the caller lost the first-updater race.
    pub fn try_exclusive(&self, key: LockKey, txn: TxnId) -> Result<()> {
        let mut table = self.table.lock();
        let state = table.entry(key).or_default();
        if state.can_grant_exclusive(txn) {
            state.exclusive = Some(txn);
            drop(table);
            self.remember(key, txn);
            self.stats
                .exclusive_acquired
                .fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            let other = state.blockers(txn).first().copied();
            self.stats
                .immediate_conflicts
                .fetch_add(1, Ordering::Relaxed);
            Err(TxnError::WriteWriteConflict { key, other })
        }
    }

    /// Blocking acquisition with deadlock detection (used by the
    /// read-committed baseline).
    pub fn acquire(&self, key: LockKey, mode: LockMode, txn: TxnId) -> Result<()> {
        self.acquire_with_timeout(key, mode, txn, self.default_timeout)
    }

    /// Blocking acquisition with an explicit timeout.
    pub fn acquire_with_timeout(
        &self,
        key: LockKey,
        mode: LockMode,
        txn: TxnId,
        timeout: Duration,
    ) -> Result<()> {
        let deadline = Instant::now() + timeout;
        let mut table = self.table.lock();
        let mut waited = false;
        loop {
            let state = table.entry(key).or_default();
            let grantable = match mode {
                LockMode::Shared => state.can_grant_shared(txn),
                LockMode::Exclusive => state.can_grant_exclusive(txn),
            };
            if grantable {
                match mode {
                    LockMode::Shared => {
                        state.shared.insert(txn);
                        self.stats.shared_acquired.fetch_add(1, Ordering::Relaxed);
                    }
                    LockMode::Exclusive => {
                        state.exclusive = Some(txn);
                        self.stats
                            .exclusive_acquired
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                drop(table);
                if waited {
                    self.waits.lock().clear_waiting(txn);
                }
                self.remember(key, txn);
                return Ok(());
            }

            // Record the wait-for edges and check for a deadlock before
            // blocking.
            let blockers = state.blockers(txn);
            {
                let mut graph = self.waits.lock();
                graph.set_waiting(txn, blockers.iter().copied());
                if let Some(cycle) = graph.find_cycle_from(txn) {
                    graph.clear_waiting(txn);
                    self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                    return Err(TxnError::Deadlock { key, cycle });
                }
            }
            if !waited {
                self.stats.waits.fetch_add(1, Ordering::Relaxed);
                waited = true;
            }

            let now = Instant::now();
            if now >= deadline {
                self.waits.lock().clear_waiting(txn);
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(TxnError::LockTimeout {
                    key,
                    holder: blockers.first().copied(),
                });
            }
            let wait_result = self.cond.wait_until(&mut table, deadline);
            if wait_result.timed_out() {
                // Loop once more: the lock may have become free exactly at
                // the deadline; the next iteration will either grant or
                // report the timeout.
            }
        }
    }

    /// Releases whatever lock `txn` holds on `key`.
    pub fn release(&self, key: LockKey, txn: TxnId) -> Result<()> {
        let mut table = self.table.lock();
        let Some(state) = table.get_mut(&key) else {
            return Err(TxnError::LockNotHeld { key, txn });
        };
        let held_shared = state.shared.remove(&txn);
        let held_exclusive = state.exclusive == Some(txn);
        if held_exclusive {
            state.exclusive = None;
        }
        if !held_shared && !held_exclusive {
            return Err(TxnError::LockNotHeld { key, txn });
        }
        if state.is_free() {
            table.remove(&key);
        }
        drop(table);
        let mut held = self.held.lock();
        if let Some(keys) = held.get_mut(&txn) {
            keys.remove(&key);
            if keys.is_empty() {
                held.remove(&txn);
            }
        }
        drop(held);
        self.cond.notify_all();
        Ok(())
    }

    /// Releases every lock held by `txn` (commit or rollback) and removes
    /// it from the wait-for graph. Returns the released keys.
    pub fn release_all(&self, txn: TxnId) -> Vec<LockKey> {
        let keys: Vec<LockKey> = {
            let mut held = self.held.lock();
            held.remove(&txn)
                .map(|s| s.into_iter().collect())
                .unwrap_or_default()
        };
        {
            let mut table = self.table.lock();
            for key in &keys {
                if let Some(state) = table.get_mut(key) {
                    state.shared.remove(&txn);
                    if state.exclusive == Some(txn) {
                        state.exclusive = None;
                    }
                    if state.is_free() {
                        table.remove(key);
                    }
                }
            }
        }
        self.waits.lock().remove_transaction(txn);
        self.cond.notify_all();
        keys
    }

    /// Returns the current holders of `key`: (shared holders, exclusive
    /// holder).
    pub fn holders(&self, key: LockKey) -> (Vec<TxnId>, Option<TxnId>) {
        let table = self.table.lock();
        match table.get(&key) {
            Some(state) => {
                let mut shared: Vec<TxnId> = state.shared.iter().copied().collect();
                shared.sort();
                (shared, state.exclusive)
            }
            None => (Vec::new(), None),
        }
    }

    /// Returns `true` if `txn` holds an exclusive lock on `key`.
    pub fn holds_exclusive(&self, key: LockKey, txn: TxnId) -> bool {
        self.table
            .lock()
            .get(&key)
            .is_some_and(|s| s.exclusive == Some(txn))
    }

    /// Keys currently locked by `txn`.
    pub fn locks_of(&self, txn: TxnId) -> Vec<LockKey> {
        let mut keys: Vec<LockKey> = self
            .held
            .lock()
            .get(&txn)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        keys.sort();
        keys
    }

    /// Number of distinct keys currently locked.
    pub fn locked_key_count(&self) -> usize {
        self.table.lock().len()
    }

    /// Snapshot of the lock-manager counters.
    pub fn stats(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            shared_acquired: self.stats.shared_acquired.load(Ordering::Relaxed),
            exclusive_acquired: self.stats.exclusive_acquired.load(Ordering::Relaxed),
            immediate_conflicts: self.stats.immediate_conflicts.load(Ordering::Relaxed),
            waits: self.stats.waits.load(Ordering::Relaxed),
            deadlocks: self.stats.deadlocks.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
        }
    }

    fn remember(&self, key: LockKey, txn: TxnId) {
        self.held.lock().entry(txn).or_default().insert(key);
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::with_default_timeout()
    }
}

impl fmt::Debug for LockManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockManager")
            .field("locked_keys", &self.locked_key_count())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const T1: TxnId = TxnId(1);
    const T2: TxnId = TxnId(2);
    const T3: TxnId = TxnId(3);

    #[test]
    fn try_exclusive_grants_and_conflicts() {
        let locks = LockManager::with_default_timeout();
        let key = LockKey::node(1);
        locks.try_exclusive(key, T1).unwrap();
        // Re-entrant for the same transaction.
        locks.try_exclusive(key, T1).unwrap();
        // Another transaction loses the first-updater race immediately.
        let err = locks.try_exclusive(key, T2).unwrap_err();
        assert_eq!(
            err,
            TxnError::WriteWriteConflict {
                key,
                other: Some(T1)
            }
        );
        assert!(locks.holds_exclusive(key, T1));
        assert!(!locks.holds_exclusive(key, T2));
    }

    #[test]
    fn shared_locks_coexist_but_block_exclusive() {
        let locks = LockManager::new(Duration::from_millis(20));
        let key = LockKey::node(5);
        locks.acquire(key, LockMode::Shared, T1).unwrap();
        locks.acquire(key, LockMode::Shared, T2).unwrap();
        let (shared, exclusive) = locks.holders(key);
        assert_eq!(shared, vec![T1, T2]);
        assert_eq!(exclusive, None);
        // Exclusive by a third party times out.
        let err = locks.acquire(key, LockMode::Exclusive, T3).unwrap_err();
        assert!(matches!(err, TxnError::LockTimeout { .. }));
        assert_eq!(locks.stats().timeouts, 1);
    }

    #[test]
    fn shared_to_exclusive_upgrade_when_sole_holder() {
        let locks = LockManager::with_default_timeout();
        let key = LockKey::node(9);
        locks.acquire(key, LockMode::Shared, T1).unwrap();
        locks.acquire(key, LockMode::Exclusive, T1).unwrap();
        assert!(locks.holds_exclusive(key, T1));
    }

    #[test]
    fn exclusive_blocks_shared_until_release() {
        let locks = Arc::new(LockManager::new(Duration::from_secs(2)));
        let key = LockKey::relationship(1);
        locks.try_exclusive(key, T1).unwrap();
        let locks2 = Arc::clone(&locks);
        let handle = std::thread::spawn(move || locks2.acquire(key, LockMode::Shared, T2));
        std::thread::sleep(Duration::from_millis(50));
        locks.release(key, T1).unwrap();
        handle.join().unwrap().unwrap();
        let (shared, exclusive) = locks.holders(key);
        assert_eq!(shared, vec![T2]);
        assert_eq!(exclusive, None);
    }

    #[test]
    fn release_requires_holding() {
        let locks = LockManager::with_default_timeout();
        let key = LockKey::node(3);
        assert!(matches!(
            locks.release(key, T1),
            Err(TxnError::LockNotHeld { .. })
        ));
        locks.try_exclusive(key, T1).unwrap();
        assert!(matches!(
            locks.release(key, T2),
            Err(TxnError::LockNotHeld { .. })
        ));
        locks.release(key, T1).unwrap();
    }

    #[test]
    fn release_all_frees_everything() {
        let locks = LockManager::with_default_timeout();
        locks.try_exclusive(LockKey::node(1), T1).unwrap();
        locks.try_exclusive(LockKey::node(2), T1).unwrap();
        locks
            .acquire(LockKey::node(3), LockMode::Shared, T1)
            .unwrap();
        assert_eq!(locks.locks_of(T1).len(), 3);
        let released = locks.release_all(T1);
        assert_eq!(released.len(), 3);
        assert_eq!(locks.locked_key_count(), 0);
        assert!(locks.locks_of(T1).is_empty());
        // Now another transaction can take them immediately.
        locks.try_exclusive(LockKey::node(1), T2).unwrap();
    }

    #[test]
    fn deadlock_is_detected() {
        let locks = Arc::new(LockManager::new(Duration::from_secs(5)));
        let a = LockKey::node(1);
        let b = LockKey::node(2);
        locks.try_exclusive(a, T1).unwrap();
        locks.try_exclusive(b, T2).unwrap();

        let locks2 = Arc::clone(&locks);
        // T2 blocks waiting for `a` (held by T1).
        let handle = std::thread::spawn(move || locks2.acquire(a, LockMode::Exclusive, T2));
        std::thread::sleep(Duration::from_millis(100));
        // T1 now requests `b` (held by T2) — cycle.
        let err = locks.acquire(b, LockMode::Exclusive, T1).unwrap_err();
        assert!(matches!(err, TxnError::Deadlock { .. }));
        assert!(locks.stats().deadlocks >= 1);
        // Resolve by aborting T1: release its locks so T2 proceeds.
        locks.release_all(T1);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stats_count_grants_and_conflicts() {
        let locks = LockManager::with_default_timeout();
        let key = LockKey::node(1);
        locks.acquire(key, LockMode::Shared, T1).unwrap();
        locks.try_exclusive(LockKey::node(2), T1).unwrap();
        let _ = locks.try_exclusive(LockKey::node(2), T2);
        let stats = locks.stats();
        assert_eq!(stats.shared_acquired, 1);
        assert_eq!(stats.exclusive_acquired, 1);
        assert_eq!(stats.immediate_conflicts, 1);
    }

    #[test]
    fn concurrent_writers_on_distinct_keys_do_not_interfere() {
        let locks = Arc::new(LockManager::with_default_timeout());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let locks = Arc::clone(&locks);
            handles.push(std::thread::spawn(move || {
                let txn = TxnId(i);
                for k in 0..100u64 {
                    let key = LockKey::node(i * 1000 + k);
                    locks.try_exclusive(key, txn).unwrap();
                }
                locks.release_all(txn).len()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
        assert_eq!(locks.locked_key_count(), 0);
    }

    #[test]
    fn lock_key_display() {
        assert_eq!(LockKey::node(1).to_string(), "node(1)");
        assert_eq!(LockKey::relationship(2).to_string(), "rel(2)");
        assert_eq!(LockKey::schema(3).to_string(), "schema(3)");
    }
}
