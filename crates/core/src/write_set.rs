//! The private write set of a transaction.
//!
//! "Versions of uncommitted data items should be kept private and not
//! accessible to other transactions, but they should \[be\] read by the
//! transaction that wrote them to guarantee that a transaction reads its
//! own writes." (the paper, §3)
//!
//! Every entity a transaction modifies gets an entry holding its
//! *pre-image* (the version visible in the transaction's snapshot, if the
//! entity existed) and its *post-image* (the pending new state, or `None`
//! for a deletion). Reads consult the write set first, giving
//! read-your-own-writes; at commit the entries drive version installation,
//! store updates and index maintenance.

use std::collections::HashMap;
use std::sync::Arc;

use graphsi_storage::{NodeId, RelationshipId};
use graphsi_txn::Timestamp;

use crate::entity::{NodeData, RelationshipData};

/// How a write-set entry came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// The entity is created by this transaction.
    Created,
    /// The entity existed and is modified by this transaction.
    Updated,
    /// The entity existed and is deleted by this transaction.
    Deleted,
    /// The entity was created *and* deleted inside this transaction; it
    /// never becomes visible to anyone else.
    CreatedThenDeleted,
}

/// A pending change to one entity.
#[derive(Clone, Debug)]
pub struct PendingWrite<T> {
    /// The snapshot state the transaction based its change on (`None` if
    /// the entity is created by this transaction).
    pub before: Option<Arc<T>>,
    /// Commit timestamp of the pre-image, used to seed the cache's base
    /// version at commit time.
    pub before_ts: Option<Timestamp>,
    /// The pending new state (`None` once the entity is deleted).
    pub after: Option<T>,
}

impl<T> PendingWrite<T> {
    /// Classifies the entry.
    pub fn kind(&self) -> WriteKind {
        match (&self.before, &self.after) {
            (None, Some(_)) => WriteKind::Created,
            (Some(_), Some(_)) => WriteKind::Updated,
            (Some(_), None) => WriteKind::Deleted,
            (None, None) => WriteKind::CreatedThenDeleted,
        }
    }

    /// Returns `true` if this entry leaves no externally visible change
    /// (created then deleted within the same transaction).
    pub fn is_noop(&self) -> bool {
        self.kind() == WriteKind::CreatedThenDeleted
    }

    /// The pre-image with its commit timestamp — the base version the
    /// cache is seeded with at commit — if the entity existed before.
    pub fn base(&self) -> Option<(Timestamp, Arc<T>)> {
        Some((self.before_ts?, Arc::clone(self.before.as_ref()?)))
    }
}

/// The complete write set of one transaction.
#[derive(Debug, Default)]
pub struct WriteSet {
    /// Pending node changes keyed by node ID.
    pub nodes: HashMap<NodeId, PendingWrite<NodeData>>,
    /// Pending relationship changes keyed by relationship ID.
    pub relationships: HashMap<RelationshipId, PendingWrite<RelationshipData>>,
}

impl WriteSet {
    /// Creates an empty write set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the transaction has buffered no writes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.relationships.is_empty()
    }

    /// Number of pending entity changes.
    pub fn len(&self) -> usize {
        self.nodes.len() + self.relationships.len()
    }

    /// Records the creation of a node.
    pub fn create_node(&mut self, id: NodeId, data: NodeData) {
        self.nodes.insert(
            id,
            PendingWrite {
                before: None,
                before_ts: None,
                after: Some(data),
            },
        );
    }

    /// Records an update of a node. The pre-image is captured only on the
    /// first write to the entity within this transaction.
    pub fn update_node(
        &mut self,
        id: NodeId,
        before: Option<(Arc<NodeData>, Timestamp)>,
        after: NodeData,
    ) {
        match self.nodes.get_mut(&id) {
            Some(entry) => entry.after = Some(after),
            None => {
                let (before, before_ts) = match before {
                    Some((data, ts)) => (Some(data), Some(ts)),
                    None => (None, None),
                };
                self.nodes.insert(
                    id,
                    PendingWrite {
                        before,
                        before_ts,
                        after: Some(after),
                    },
                );
            }
        }
    }

    /// Records the deletion of a node.
    pub fn delete_node(&mut self, id: NodeId, before: Option<(Arc<NodeData>, Timestamp)>) {
        match self.nodes.get_mut(&id) {
            Some(entry) => entry.after = None,
            None => {
                let (before, before_ts) = match before {
                    Some((data, ts)) => (Some(data), Some(ts)),
                    None => (None, None),
                };
                self.nodes.insert(
                    id,
                    PendingWrite {
                        before,
                        before_ts,
                        after: None,
                    },
                );
            }
        }
    }

    /// Records the creation of a relationship.
    pub fn create_relationship(&mut self, id: RelationshipId, data: RelationshipData) {
        self.relationships.insert(
            id,
            PendingWrite {
                before: None,
                before_ts: None,
                after: Some(data),
            },
        );
    }

    /// Records an update of a relationship.
    pub fn update_relationship(
        &mut self,
        id: RelationshipId,
        before: Option<(Arc<RelationshipData>, Timestamp)>,
        after: RelationshipData,
    ) {
        match self.relationships.get_mut(&id) {
            Some(entry) => entry.after = Some(after),
            None => {
                let (before, before_ts) = match before {
                    Some((data, ts)) => (Some(data), Some(ts)),
                    None => (None, None),
                };
                self.relationships.insert(
                    id,
                    PendingWrite {
                        before,
                        before_ts,
                        after: Some(after),
                    },
                );
            }
        }
    }

    /// Records the deletion of a relationship.
    pub fn delete_relationship(
        &mut self,
        id: RelationshipId,
        before: Option<(Arc<RelationshipData>, Timestamp)>,
    ) {
        match self.relationships.get_mut(&id) {
            Some(entry) => entry.after = None,
            None => {
                let (before, before_ts) = match before {
                    Some((data, ts)) => (Some(data), Some(ts)),
                    None => (None, None),
                };
                self.relationships.insert(
                    id,
                    PendingWrite {
                        before,
                        before_ts,
                        after: None,
                    },
                );
            }
        }
    }

    /// Pending state of a node, if this transaction touched it.
    /// `Some(None)` means the node is deleted in this transaction.
    #[allow(clippy::option_option)]
    pub fn node_state(&self, id: NodeId) -> Option<Option<&NodeData>> {
        self.nodes.get(&id).map(|w| w.after.as_ref())
    }

    /// Pending state of a relationship, if this transaction touched it.
    #[allow(clippy::option_option)]
    pub fn relationship_state(&self, id: RelationshipId) -> Option<Option<&RelationshipData>> {
        self.relationships.get(&id).map(|w| w.after.as_ref())
    }

    /// Relationships created or still alive in this write set that touch
    /// `node` (used for read-your-own-writes expansion).
    pub fn pending_relationships_of(
        &self,
        node: NodeId,
    ) -> Vec<(RelationshipId, &RelationshipData)> {
        self.relationships
            .iter()
            .filter_map(|(&id, w)| w.after.as_ref().map(|data| (id, data)))
            .filter(|(_, data)| data.touches(node))
            .collect()
    }

    /// Relationship IDs deleted by this transaction.
    pub fn deleted_relationships(&self) -> Vec<RelationshipId> {
        self.relationships
            .iter()
            .filter(|(_, w)| w.after.is_none())
            .map(|(&id, _)| id)
            .collect()
    }

    /// Node IDs deleted by this transaction.
    pub fn deleted_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, w)| w.after.is_none())
            .map(|(&id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsi_storage::RelTypeToken;
    use std::collections::BTreeMap;

    fn node_data() -> NodeData {
        NodeData::default()
    }

    fn rel_data(src: u64, dst: u64) -> RelationshipData {
        RelationshipData::new(
            NodeId::new(src),
            NodeId::new(dst),
            RelTypeToken(0),
            BTreeMap::new(),
        )
    }

    #[test]
    fn kinds_are_classified() {
        let mut ws = WriteSet::new();
        assert!(ws.is_empty());
        ws.create_node(NodeId::new(1), node_data());
        assert_eq!(ws.nodes[&NodeId::new(1)].kind(), WriteKind::Created);

        ws.update_node(
            NodeId::new(2),
            Some((Arc::new(node_data()), Timestamp(3))),
            node_data(),
        );
        assert_eq!(ws.nodes[&NodeId::new(2)].kind(), WriteKind::Updated);

        ws.delete_node(NodeId::new(2), None);
        assert_eq!(ws.nodes[&NodeId::new(2)].kind(), WriteKind::Deleted);

        ws.delete_node(NodeId::new(1), None);
        assert_eq!(
            ws.nodes[&NodeId::new(1)].kind(),
            WriteKind::CreatedThenDeleted
        );
        assert!(ws.nodes[&NodeId::new(1)].is_noop());
        assert_eq!(ws.len(), 2);
    }

    #[test]
    fn first_write_captures_pre_image_once() {
        let mut ws = WriteSet::new();
        let before = Arc::new(NodeData::new(vec![], BTreeMap::new()));
        ws.update_node(
            NodeId::new(1),
            Some((Arc::clone(&before), Timestamp(7))),
            node_data(),
        );
        // A later update must not overwrite the captured pre-image.
        ws.update_node(NodeId::new(1), None, node_data());
        let entry = &ws.nodes[&NodeId::new(1)];
        assert!(entry.before.is_some());
        assert_eq!(entry.before_ts, Some(Timestamp(7)));
    }

    #[test]
    fn read_your_own_writes_state() {
        let mut ws = WriteSet::new();
        assert!(ws.node_state(NodeId::new(1)).is_none());
        ws.create_node(NodeId::new(1), node_data());
        assert!(matches!(ws.node_state(NodeId::new(1)), Some(Some(_))));
        ws.delete_node(NodeId::new(1), None);
        assert!(matches!(ws.node_state(NodeId::new(1)), Some(None)));
    }

    #[test]
    fn pending_relationships_filtered_by_node() {
        let mut ws = WriteSet::new();
        ws.create_relationship(RelationshipId::new(1), rel_data(1, 2));
        ws.create_relationship(RelationshipId::new(2), rel_data(2, 3));
        ws.create_relationship(RelationshipId::new(3), rel_data(4, 5));
        ws.delete_relationship(RelationshipId::new(2), None);
        let of_2 = ws.pending_relationships_of(NodeId::new(2));
        assert_eq!(of_2.len(), 1);
        assert_eq!(of_2[0].0, RelationshipId::new(1));
        assert_eq!(ws.deleted_relationships(), vec![RelationshipId::new(2)]);
    }

    #[test]
    fn deleted_nodes_listing() {
        let mut ws = WriteSet::new();
        ws.delete_node(NodeId::new(9), Some((Arc::new(node_data()), Timestamp(1))));
        assert_eq!(ws.deleted_nodes(), vec![NodeId::new(9)]);
    }
}
