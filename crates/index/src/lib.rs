//! # graphsi-index
//!
//! The versioned index layer described in §4 of *"Snapshot Isolation for
//! Neo4j"* (EDBT 2016): a label index (label → nodes), a node property
//! index and a relationship property index, all with snapshot-visible,
//! commit-timestamp-tagged posting lists.
//!
//! Index entries are never destructively removed on label/property removal
//! or entity deletion; they are tombstoned with the removing transaction's
//! commit timestamp and physically reclaimed later by garbage collection
//! once no active transaction can observe them — exactly mirroring the
//! treatment of node and relationship versions in `graphsi-mvcc`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod label_index;
pub mod posting;
pub mod property_index;

pub use label_index::LabelIndex;
pub use posting::{
    bound_as_ref, IndexStats, PostingEntry, RangePostingCursor, VersionedPostingIndex,
};
pub use property_index::{
    composite_range_bounds, NodePropertyIndex, PropertyIndex, PropertyIndexKey,
    RelationshipPropertyIndex,
};

/// The full set of indexes maintained by a graph database instance: the two
/// node indexes (labels, properties) and the relationship property index
/// that the paper lists in §2.
#[derive(Debug, Default)]
pub struct GraphIndexes {
    /// Label → nodes.
    pub labels: LabelIndex,
    /// (property key, value) → nodes.
    pub node_properties: NodePropertyIndex,
    /// (property key, value) → relationships.
    pub relationship_properties: RelationshipPropertyIndex,
}

impl GraphIndexes {
    /// Creates an empty index set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs garbage collection over all three indexes, returning the total
    /// number of postings reclaimed.
    pub fn gc(&self, watermark: graphsi_txn::Timestamp) -> u64 {
        self.labels.gc(watermark)
            + self.node_properties.gc(watermark)
            + self.relationship_properties.gc(watermark)
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;
    use graphsi_storage::{LabelToken, NodeId, PropertyKeyToken, PropertyValue};
    use graphsi_txn::Timestamp;

    #[test]
    fn graph_indexes_gc_spans_all_indexes() {
        let indexes = GraphIndexes::new();
        let node = NodeId::new(1);
        indexes.labels.add(LabelToken(0), node, Timestamp(1));
        indexes.labels.remove(LabelToken(0), node, Timestamp(2));
        indexes.node_properties.add(
            PropertyKeyToken(0),
            &PropertyValue::Int(1),
            node,
            Timestamp(1),
        );
        indexes.node_properties.remove(
            PropertyKeyToken(0),
            &PropertyValue::Int(1),
            node,
            Timestamp(2),
        );
        assert_eq!(indexes.gc(Timestamp(10)), 2);
    }
}
