//! The global garbage-collection list.
//!
//! "In order to make the version garbage collection efficient, they
//! \[versions\] are threaded with a double linked list sorted by timestamp to
//! enable to perform the garbage collection just traversing those versions
//! that must be garbage collected." (the paper, §4)
//!
//! The list is implemented as a slab-backed doubly linked list: nodes are
//! stored in a `Vec`, links are indices, and freed slots are recycled.
//! Commit timestamps are issued monotonically, so pushing at the tail keeps
//! the list sorted oldest-to-newest; the garbage collector walks from the
//! head and stops at the first version that is still too young to reclaim —
//! it never touches live versions, which is exactly the efficiency argument
//! the paper makes against vacuum-style full scans.

use graphsi_txn::Timestamp;

use crate::version::GcHandle;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    commit_ts: Timestamp,
    prev: Option<usize>,
    next: Option<usize>,
    /// Slot is occupied (not on the free list).
    occupied: bool,
}

/// A doubly linked list of (entity key, commit timestamp) entries sorted by
/// commit timestamp.
#[derive(Debug)]
pub struct GcList<K> {
    slab: Vec<Node<K>>,
    free: Vec<usize>,
    head: Option<usize>,
    tail: Option<usize>,
    len: usize,
}

impl<K: Copy> GcList<K> {
    /// Creates an empty list.
    pub fn new() -> Self {
        GcList {
            slab: Vec::new(),
            free: Vec::new(),
            head: None,
            tail: None,
            len: 0,
        }
    }

    /// Number of entries currently threaded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an entry for a version committed at `commit_ts`.
    ///
    /// `commit_ts` should be `>=` the current tail's timestamp (commit
    /// timestamps are monotone); if not, the entry is inserted at the
    /// correct position to preserve sorting.
    pub fn push(&mut self, key: K, commit_ts: Timestamp) -> GcHandle {
        let idx = self.alloc(Node {
            key,
            commit_ts,
            prev: None,
            next: None,
            occupied: true,
        });
        match self.tail {
            None => {
                self.head = Some(idx);
                self.tail = Some(idx);
            }
            Some(tail_idx) if self.slab[tail_idx].commit_ts <= commit_ts => {
                self.slab[idx].prev = Some(tail_idx);
                self.slab[tail_idx].next = Some(idx);
                self.tail = Some(idx);
            }
            Some(_) => {
                // Defensive slow path: walk backwards to the insertion
                // point.
                let mut cursor = self.tail;
                while let Some(c) = cursor {
                    if self.slab[c].commit_ts <= commit_ts {
                        break;
                    }
                    cursor = self.slab[c].prev;
                }
                match cursor {
                    Some(prev_idx) => {
                        let next_idx = self.slab[prev_idx].next;
                        self.slab[idx].prev = Some(prev_idx);
                        self.slab[idx].next = next_idx;
                        self.slab[prev_idx].next = Some(idx);
                        match next_idx {
                            Some(n) => self.slab[n].prev = Some(idx),
                            None => self.tail = Some(idx),
                        }
                    }
                    None => {
                        // New head.
                        let old_head = self.head;
                        self.slab[idx].next = old_head;
                        if let Some(h) = old_head {
                            self.slab[h].prev = Some(idx);
                        }
                        self.head = Some(idx);
                        if self.tail.is_none() {
                            self.tail = Some(idx);
                        }
                    }
                }
            }
        }
        self.len += 1;
        GcHandle(idx)
    }

    /// Unlinks the entry behind `handle`. Unlinking an already-removed
    /// handle is a no-op (GC and chain pruning may race benignly).
    pub fn remove(&mut self, handle: GcHandle) {
        let idx = handle.0;
        if idx >= self.slab.len() || !self.slab[idx].occupied {
            return;
        }
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            Some(p) => self.slab[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.slab[n].prev = prev,
            None => self.tail = prev,
        }
        self.slab[idx].occupied = false;
        self.slab[idx].prev = None;
        self.slab[idx].next = None;
        self.free.push(idx);
        self.len -= 1;
    }

    /// Walks the list from the oldest entry, returning every `(handle, key,
    /// commit_ts)` with `commit_ts < before`. This is the only part of the
    /// version population a threaded GC run ever looks at.
    pub fn entries_older_than(&self, before: Timestamp) -> Vec<(GcHandle, K, Timestamp)> {
        let mut out = Vec::new();
        let mut cursor = self.head;
        while let Some(idx) = cursor {
            let node = &self.slab[idx];
            if node.commit_ts >= before {
                break;
            }
            out.push((GcHandle(idx), node.key, node.commit_ts));
            cursor = node.next;
        }
        out
    }

    /// The oldest entry's commit timestamp, if any.
    pub fn oldest_commit_ts(&self) -> Option<Timestamp> {
        self.head.map(|idx| self.slab[idx].commit_ts)
    }

    /// The newest entry's commit timestamp, if any.
    pub fn newest_commit_ts(&self) -> Option<Timestamp> {
        self.tail.map(|idx| self.slab[idx].commit_ts)
    }

    /// Checks the internal doubly-linked structure; used by property tests.
    pub fn check_invariants(&self) -> bool {
        // Forward walk must visit exactly `len` occupied nodes in
        // non-decreasing timestamp order, and prev pointers must mirror the
        // walk.
        let mut count = 0usize;
        let mut cursor = self.head;
        let mut prev: Option<usize> = None;
        let mut last_ts = Timestamp(0);
        while let Some(idx) = cursor {
            let node = &self.slab[idx];
            if !node.occupied || node.prev != prev || node.commit_ts < last_ts {
                return false;
            }
            last_ts = node.commit_ts;
            prev = Some(idx);
            cursor = node.next;
            count += 1;
            if count > self.slab.len() {
                return false; // cycle
            }
        }
        count == self.len && self.tail == prev
    }

    fn alloc(&mut self, node: Node<K>) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = node;
                idx
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        }
    }
}

impl<K: Copy> Default for GcList<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_walk_in_timestamp_order() {
        let mut list = GcList::new();
        list.push(1u64, Timestamp(10));
        list.push(2u64, Timestamp(20));
        list.push(3u64, Timestamp(30));
        assert_eq!(list.len(), 3);
        assert_eq!(list.oldest_commit_ts(), Some(Timestamp(10)));
        assert_eq!(list.newest_commit_ts(), Some(Timestamp(30)));
        let old: Vec<u64> = list
            .entries_older_than(Timestamp(25))
            .into_iter()
            .map(|(_, k, _)| k)
            .collect();
        assert_eq!(old, vec![1, 2]);
        assert!(list.check_invariants());
    }

    #[test]
    fn walk_stops_at_watermark_without_touching_young_entries() {
        let mut list = GcList::new();
        for i in 0..100u64 {
            list.push(i, Timestamp(i));
        }
        let touched = list.entries_older_than(Timestamp(10));
        assert_eq!(touched.len(), 10);
    }

    #[test]
    fn remove_middle_head_and_tail() {
        let mut list = GcList::new();
        let h1 = list.push(1u64, Timestamp(1));
        let h2 = list.push(2u64, Timestamp(2));
        let h3 = list.push(3u64, Timestamp(3));
        list.remove(h2);
        assert!(list.check_invariants());
        list.remove(h1);
        assert!(list.check_invariants());
        list.remove(h3);
        assert!(list.check_invariants());
        assert!(list.is_empty());
        assert_eq!(list.oldest_commit_ts(), None);
    }

    #[test]
    fn double_remove_is_a_noop() {
        let mut list = GcList::new();
        let h = list.push(1u64, Timestamp(1));
        list.remove(h);
        list.remove(h);
        assert!(list.is_empty());
        assert!(list.check_invariants());
    }

    #[test]
    fn slots_are_recycled() {
        let mut list = GcList::new();
        let h1 = list.push(1u64, Timestamp(1));
        list.remove(h1);
        let h2 = list.push(2u64, Timestamp(2));
        // The freed slot is reused.
        assert_eq!(h1.raw(), h2.raw());
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn out_of_order_push_keeps_sorting() {
        let mut list = GcList::new();
        list.push(1u64, Timestamp(10));
        list.push(2u64, Timestamp(5));
        list.push(3u64, Timestamp(7));
        assert!(list.check_invariants());
        let keys: Vec<u64> = list
            .entries_older_than(Timestamp(100))
            .into_iter()
            .map(|(_, k, _)| k)
            .collect();
        assert_eq!(keys, vec![2, 3, 1]);
    }

    proptest! {
        #[test]
        fn prop_invariants_hold_under_random_ops(ops in proptest::collection::vec((0u8..2, 0u64..50), 1..200)) {
            let mut list = GcList::new();
            let mut handles: Vec<GcHandle> = Vec::new();
            let mut ts = 0u64;
            for (op, x) in ops {
                match op {
                    0 => {
                        ts += 1;
                        handles.push(list.push(x, Timestamp(ts)));
                    }
                    _ => {
                        if !handles.is_empty() {
                            let idx = (x as usize) % handles.len();
                            list.remove(handles[idx]);
                        }
                    }
                }
                prop_assert!(list.check_invariants());
            }
        }
    }
}
