//! Entity state as kept in the versioned object cache, and the public
//! node/relationship views handed to API users.
//!
//! The cache stores token-based, immutable snapshots ([`NodeData`],
//! [`RelationshipData`]) wrapped in `Arc` so that many transactions can
//! share one version. The public [`Node`] / [`Relationship`] views resolve
//! tokens back to names for ergonomic use in applications and examples.

use std::collections::BTreeMap;

use graphsi_storage::{
    LabelToken, NodeId, PropertyKeyToken, PropertyValue, RelTypeToken, RelationshipId,
};

/// The cached state of one node version.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct NodeData {
    /// Label tokens attached to the node.
    pub labels: Vec<LabelToken>,
    /// Properties of the node, keyed by property key token.
    pub properties: BTreeMap<PropertyKeyToken, PropertyValue>,
}

impl NodeData {
    /// Creates node data from labels and properties.
    pub fn new(
        labels: Vec<LabelToken>,
        properties: BTreeMap<PropertyKeyToken, PropertyValue>,
    ) -> Self {
        NodeData { labels, properties }
    }

    /// Returns `true` if the node carries `label`.
    pub fn has_label(&self, label: LabelToken) -> bool {
        self.labels.contains(&label)
    }

    /// Returns the value of `key`, if present.
    pub fn property(&self, key: PropertyKeyToken) -> Option<&PropertyValue> {
        self.properties.get(&key)
    }
}

/// The cached state of one relationship version.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationshipData {
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
    /// Relationship type token.
    pub rel_type: RelTypeToken,
    /// Properties of the relationship, keyed by property key token.
    pub properties: BTreeMap<PropertyKeyToken, PropertyValue>,
}

impl RelationshipData {
    /// Creates relationship data.
    pub fn new(
        source: NodeId,
        target: NodeId,
        rel_type: RelTypeToken,
        properties: BTreeMap<PropertyKeyToken, PropertyValue>,
    ) -> Self {
        RelationshipData {
            source,
            target,
            rel_type,
            properties,
        }
    }

    /// Returns the node on the other end relative to `node`.
    pub fn other_node(&self, node: NodeId) -> NodeId {
        if self.source == node {
            self.target
        } else {
            self.source
        }
    }

    /// Returns `true` if `node` is one of the endpoints.
    pub fn touches(&self, node: NodeId) -> bool {
        self.source == node || self.target == node
    }

    /// Returns the value of `key`, if present.
    pub fn property(&self, key: PropertyKeyToken) -> Option<&PropertyValue> {
        self.properties.get(&key)
    }
}

/// Direction of relationship expansion relative to a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Direction {
    /// Relationships whose source is the node.
    Outgoing,
    /// Relationships whose target is the node.
    Incoming,
    /// Relationships touching the node in either direction.
    #[default]
    Both,
}

impl Direction {
    /// Does a relationship from `source` to `target` match this direction
    /// when expanding from `node`?
    pub fn matches(self, node: NodeId, source: NodeId, target: NodeId) -> bool {
        match self {
            Direction::Outgoing => source == node,
            Direction::Incoming => target == node,
            Direction::Both => source == node || target == node,
        }
    }
}

/// A node as returned by the public API: token names resolved to strings.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// The node's ID.
    pub id: NodeId,
    /// Label names attached to the node.
    pub labels: Vec<String>,
    /// Properties keyed by name.
    pub properties: BTreeMap<String, PropertyValue>,
}

impl Node {
    /// Returns the value of the property `name`, if present.
    pub fn property(&self, name: &str) -> Option<&PropertyValue> {
        self.properties.get(name)
    }

    /// Returns `true` if the node carries the label `name`.
    pub fn has_label(&self, name: &str) -> bool {
        self.labels.iter().any(|l| l == name)
    }
}

/// A relationship as returned by the public API.
#[derive(Clone, Debug, PartialEq)]
pub struct Relationship {
    /// The relationship's ID.
    pub id: RelationshipId,
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
    /// Relationship type name.
    pub rel_type: String,
    /// Properties keyed by name.
    pub properties: BTreeMap<String, PropertyValue>,
}

impl Relationship {
    /// Returns the value of the property `name`, if present.
    pub fn property(&self, name: &str) -> Option<&PropertyValue> {
        self.properties.get(name)
    }

    /// Returns the node on the other end relative to `node`.
    pub fn other_node(&self, node: NodeId) -> NodeId {
        if self.source == node {
            self.target
        } else {
            self.source
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_data_accessors() {
        let mut props = BTreeMap::new();
        props.insert(PropertyKeyToken(1), PropertyValue::Int(5));
        let data = NodeData::new(vec![LabelToken(2)], props);
        assert!(data.has_label(LabelToken(2)));
        assert!(!data.has_label(LabelToken(3)));
        assert_eq!(
            data.property(PropertyKeyToken(1)),
            Some(&PropertyValue::Int(5))
        );
        assert_eq!(data.property(PropertyKeyToken(9)), None);
    }

    #[test]
    fn relationship_data_endpoints() {
        let data = RelationshipData::new(
            NodeId::new(1),
            NodeId::new(2),
            RelTypeToken(0),
            BTreeMap::new(),
        );
        assert_eq!(data.other_node(NodeId::new(1)), NodeId::new(2));
        assert_eq!(data.other_node(NodeId::new(2)), NodeId::new(1));
        assert!(data.touches(NodeId::new(1)));
        assert!(!data.touches(NodeId::new(3)));
    }

    #[test]
    fn direction_matching() {
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        assert!(Direction::Outgoing.matches(a, a, b));
        assert!(!Direction::Outgoing.matches(b, a, b));
        assert!(Direction::Incoming.matches(b, a, b));
        assert!(Direction::Both.matches(a, a, b));
        assert!(Direction::Both.matches(b, a, b));
        assert!(!Direction::Both.matches(NodeId::new(9), a, b));
    }

    #[test]
    fn public_views() {
        let node = Node {
            id: NodeId::new(1),
            labels: vec!["Person".into()],
            properties: BTreeMap::from([("age".to_owned(), PropertyValue::Int(30))]),
        };
        assert!(node.has_label("Person"));
        assert!(!node.has_label("Robot"));
        assert_eq!(node.property("age"), Some(&PropertyValue::Int(30)));

        let rel = Relationship {
            id: RelationshipId::new(1),
            source: NodeId::new(1),
            target: NodeId::new(2),
            rel_type: "KNOWS".into(),
            properties: BTreeMap::new(),
        };
        assert_eq!(rel.other_node(NodeId::new(2)), NodeId::new(1));
        assert_eq!(rel.property("since"), None);
    }
}
