//! The versioned label index: label token → nodes carrying that label.
//!
//! Neo4j keeps "two indexes for nodes, one for labels and another one for
//! properties" (the paper, §2); this is the former, with the
//! multi-versioning of §4 applied so that a reader only sees label
//! memberships that belong to its snapshot.

use std::ops::Bound;

use graphsi_storage::{LabelToken, NodeId};
use graphsi_txn::Timestamp;

use crate::posting::{IndexStats, RangePostingCursor, VersionedPostingIndex};

/// Snapshot-visible index from label tokens to node IDs.
#[derive(Debug, Default)]
pub struct LabelIndex {
    inner: VersionedPostingIndex<LabelToken, NodeId>,
}

impl LabelIndex {
    /// Creates an empty label index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `node` gained `label` at commit timestamp `commit_ts`.
    pub fn add(&self, label: LabelToken, node: NodeId, commit_ts: Timestamp) {
        self.inner.add(label, node, commit_ts);
    }

    /// Records that `node` lost `label` (label removal or node deletion) at
    /// commit timestamp `commit_ts`.
    pub fn remove(&self, label: LabelToken, node: NodeId, commit_ts: Timestamp) {
        self.inner.remove(&label, node, commit_ts);
    }

    /// Nodes carrying `label` in the snapshot defined by `start_ts`.
    pub fn nodes_with_label(&self, label: LabelToken, start_ts: Timestamp) -> Vec<NodeId> {
        self.inner.lookup(&label, start_ts)
    }

    /// Opens a chunked, GC-safe cursor over the nodes carrying `label` in
    /// the snapshot defined by `start_ts`: the one-key range over `label`
    /// (see [`RangePostingCursor`]).
    pub fn cursor(
        &self,
        label: LabelToken,
        start_ts: Timestamp,
        chunk_size: usize,
    ) -> RangePostingCursor<'_, LabelToken, NodeId> {
        self.inner.range_cursor(
            Bound::Included(label),
            Bound::Included(label),
            start_ts,
            chunk_size,
        )
    }

    /// Returns `true` if `node` carries `label` in the given snapshot.
    pub fn has_label(&self, label: LabelToken, node: NodeId, start_ts: Timestamp) -> bool {
        self.inner.contains(&label, node, start_ts)
    }

    /// Live postings stored under `label` — the query planner's
    /// cardinality estimate for a label scan (dead churn excluded).
    pub fn postings_estimate(&self, label: LabelToken) -> u64 {
        self.inner.postings_estimate(&label)
    }

    /// All label tokens ever indexed (labels are never deleted; the paper,
    /// §4).
    pub fn labels(&self) -> Vec<LabelToken> {
        self.inner.keys()
    }

    /// Reclaims postings that no active or future reader can see.
    pub fn gc(&self, watermark: Timestamp) -> u64 {
        self.inner.gc(watermark)
    }

    /// Index statistics.
    pub fn stats(&self) -> IndexStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERSON: LabelToken = LabelToken(1);
    const COMPANY: LabelToken = LabelToken(2);

    #[test]
    fn label_membership_follows_snapshots() {
        let index = LabelIndex::new();
        index.add(PERSON, NodeId::new(1), Timestamp(10));
        index.add(PERSON, NodeId::new(2), Timestamp(20));
        index.add(COMPANY, NodeId::new(3), Timestamp(15));

        assert_eq!(
            index.nodes_with_label(PERSON, Timestamp(12)),
            vec![NodeId::new(1)]
        );
        let mut later = index.nodes_with_label(PERSON, Timestamp(25));
        later.sort();
        assert_eq!(later, vec![NodeId::new(1), NodeId::new(2)]);
        assert!(index.has_label(COMPANY, NodeId::new(3), Timestamp(15)));
        assert!(!index.has_label(COMPANY, NodeId::new(3), Timestamp(14)));
    }

    #[test]
    fn label_removal_is_snapshot_visible() {
        let index = LabelIndex::new();
        index.add(PERSON, NodeId::new(1), Timestamp(10));
        index.remove(PERSON, NodeId::new(1), Timestamp(30));
        assert!(index.has_label(PERSON, NodeId::new(1), Timestamp(29)));
        assert!(!index.has_label(PERSON, NodeId::new(1), Timestamp(30)));
    }

    #[test]
    fn labels_are_never_dropped_only_postings() {
        let index = LabelIndex::new();
        index.add(PERSON, NodeId::new(1), Timestamp(10));
        index.remove(PERSON, NodeId::new(1), Timestamp(20));
        assert_eq!(index.labels(), vec![PERSON]);
        // After GC the now-empty key disappears from the posting structure,
        // which is our stand-in for Neo4j's "kept but unused" tokens — the
        // token itself still exists in the token store.
        let reclaimed = index.gc(Timestamp(25));
        assert_eq!(reclaimed, 1);
        assert!(index.nodes_with_label(PERSON, Timestamp(30)).is_empty());
    }

    #[test]
    fn stats_count_postings() {
        let index = LabelIndex::new();
        for i in 0..5 {
            index.add(PERSON, NodeId::new(i), Timestamp(i + 1));
        }
        index.remove(PERSON, NodeId::new(0), Timestamp(10));
        let stats = index.stats();
        assert_eq!(stats.keys, 1);
        assert_eq!(stats.postings, 5);
        assert_eq!(stats.dead_postings, 1);
    }
}
