//! On-disk record formats.
//!
//! Mirroring Neo4j's native store layout, every entity kind lives in its own
//! store file made of **fixed-size records** whose file offset is derived
//! from the entity ID:
//!
//! * a node record points at the node's first relationship and first
//!   property and carries its (inline) label tokens and the commit
//!   timestamp of the version it holds,
//! * a relationship record stores the source and target node IDs, the
//!   per-node relationship chain pointers, the relationship type, the
//!   first property and the commit timestamp,
//! * a property record stores one key/value pair and a pointer to the next
//!   property of the same owner; over-long string values overflow into the
//!   dynamic store,
//! * a dynamic record is one block of an overflow chain.
//!
//! Because the commit timestamp sits in the fixed-size record, a reader
//! decides visibility from the record alone and touches the property store
//! only when it needs property values.
//!
//! Records are packed from the start of each page's usable area, as many
//! whole records as fit (see [`crate::pages::records_per_page`]), so a
//! record never straddles a page boundary or the page trailer.

use crate::codec::{get_u16, get_u32, get_u64, set_u16, set_u32, set_u64};
use crate::error::{Result, StorageError};
use crate::ids::{
    DynamicRecordId, LabelToken, NodeId, PropertyKeyToken, PropertyRecordId, RelTypeToken,
    RelationshipId, NO_ID,
};

/// Size of a node record in bytes.
pub const NODE_RECORD_SIZE: usize = 64;
/// Size of a relationship record in bytes.
pub const RELATIONSHIP_RECORD_SIZE: usize = 72;
/// Size of a property record in bytes.
pub const PROPERTY_RECORD_SIZE: usize = 128;
/// Size of a dynamic (string overflow) record in bytes.
pub const DYNAMIC_RECORD_SIZE: usize = 128;
/// Maximum number of label tokens stored inline in a node record.
pub const MAX_INLINE_LABELS: usize = 8;
/// Maximum number of bytes of a string stored inline in a property record.
pub const PROPERTY_INLINE_STRING_MAX: usize = 110;
/// Payload bytes carried by one dynamic record.
pub const DYNAMIC_DATA_SIZE: usize = DYNAMIC_RECORD_SIZE - 11;

const IN_USE_FLAG: u8 = 0b0000_0001;

/// A node record (64 bytes):
///
/// ```text
/// 0      flags       u8   (bit 0: in use)
/// 1..9   first_rel   u64
/// 9..17  first_prop  u64
/// 17     label_count u8
/// 18..50 labels      8 × u32
/// 50..58 commit_ts   u64
/// 58..64 unused
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeRecord {
    /// Whether the record slot is in use.
    pub in_use: bool,
    /// First relationship in this node's relationship chain.
    pub first_rel: RelationshipId,
    /// First property in this node's property chain.
    pub first_prop: PropertyRecordId,
    /// Label tokens attached to the node (at most [`MAX_INLINE_LABELS`]).
    pub labels: Vec<LabelToken>,
    /// Commit timestamp of the version this record holds (the paper's
    /// commit-timestamp field, kept in the record so visibility is decided
    /// without reading the property store). Zero for bootstrap data.
    pub commit_ts: u64,
}

impl Default for NodeRecord {
    fn default() -> Self {
        NodeRecord {
            in_use: false,
            first_rel: RelationshipId::NONE,
            first_prop: PropertyRecordId::NONE,
            labels: Vec::new(),
            commit_ts: 0,
        }
    }
}

impl NodeRecord {
    /// Creates an in-use node record with no relationships, properties or
    /// labels.
    pub fn new_in_use() -> Self {
        NodeRecord {
            in_use: true,
            ..Default::default()
        }
    }

    /// Serialises the record into a fixed-size buffer.
    ///
    /// Returns an error if more than [`MAX_INLINE_LABELS`] labels are
    /// attached.
    pub fn encode(&self) -> Result<[u8; NODE_RECORD_SIZE]> {
        if self.labels.len() > MAX_INLINE_LABELS {
            return Err(StorageError::ValueTooLarge {
                size: self.labels.len(),
                max: MAX_INLINE_LABELS,
            });
        }
        let mut buf = [0u8; NODE_RECORD_SIZE];
        buf[0] = if self.in_use { IN_USE_FLAG } else { 0 };
        set_u64(&mut buf, 1, self.first_rel.raw());
        set_u64(&mut buf, 9, self.first_prop.raw());
        buf[17] = self.labels.len() as u8;
        for (i, label) in self.labels.iter().enumerate() {
            set_u32(&mut buf, 18 + i * 4, label.0);
        }
        set_u64(&mut buf, 50, self.commit_ts);
        Ok(buf)
    }

    /// Deserialises a record from a fixed-size buffer.
    pub fn decode(id: u64, buf: &[u8]) -> Result<Self> {
        if buf.len() < NODE_RECORD_SIZE {
            return Err(StorageError::corrupt("node", id, "short record buffer"));
        }
        let in_use = buf[0] & IN_USE_FLAG != 0;
        let label_count = buf[17] as usize;
        if label_count > MAX_INLINE_LABELS {
            return Err(StorageError::corrupt(
                "node",
                id,
                format!("label count {label_count} exceeds maximum"),
            ));
        }
        let mut labels = Vec::with_capacity(label_count);
        for i in 0..label_count {
            labels.push(LabelToken(get_u32(buf, 18 + i * 4)));
        }
        Ok(NodeRecord {
            in_use,
            first_rel: RelationshipId::new(get_u64(buf, 1)),
            first_prop: PropertyRecordId::new(get_u64(buf, 9)),
            labels,
            commit_ts: get_u64(buf, 50),
        })
    }
}

/// A relationship record (72 bytes):
///
/// ```text
/// 0      flags        u8   (bit 0: in use)
/// 1..5   rel_type     u32
/// 5..13  source       u64
/// 13..21 target       u64
/// 21..29 source_prev  u64
/// 29..37 source_next  u64
/// 37..45 target_prev  u64
/// 45..53 target_next  u64
/// 53..61 first_prop   u64
/// 61..69 commit_ts    u64
/// 69..72 unused
/// ```
///
/// Relationships form two doubly linked chains, one threaded through the
/// source node's relationships and one through the target node's, exactly
/// as in Neo4j's store format. Walking a node's relationships therefore
/// never touches relationships of unrelated nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationshipRecord {
    /// Whether the record slot is in use.
    pub in_use: bool,
    /// Relationship type token.
    pub rel_type: RelTypeToken,
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
    /// Previous relationship in the source node's chain.
    pub source_prev: RelationshipId,
    /// Next relationship in the source node's chain.
    pub source_next: RelationshipId,
    /// Previous relationship in the target node's chain.
    pub target_prev: RelationshipId,
    /// Next relationship in the target node's chain.
    pub target_next: RelationshipId,
    /// First property in this relationship's property chain.
    pub first_prop: PropertyRecordId,
    /// Commit timestamp of the version this record holds (see
    /// [`NodeRecord::commit_ts`]).
    pub commit_ts: u64,
}

impl Default for RelationshipRecord {
    fn default() -> Self {
        RelationshipRecord {
            in_use: false,
            rel_type: RelTypeToken(0),
            source: NodeId::NONE,
            target: NodeId::NONE,
            source_prev: RelationshipId::NONE,
            source_next: RelationshipId::NONE,
            target_prev: RelationshipId::NONE,
            target_next: RelationshipId::NONE,
            first_prop: PropertyRecordId::NONE,
            commit_ts: 0,
        }
    }
}

impl RelationshipRecord {
    /// Creates an in-use relationship record connecting `source` to
    /// `target` with the given type and empty chains.
    pub fn new_in_use(source: NodeId, target: NodeId, rel_type: RelTypeToken) -> Self {
        RelationshipRecord {
            in_use: true,
            rel_type,
            source,
            target,
            ..Default::default()
        }
    }

    /// Serialises the record into a fixed-size buffer.
    pub fn encode(&self) -> [u8; RELATIONSHIP_RECORD_SIZE] {
        let mut buf = [0u8; RELATIONSHIP_RECORD_SIZE];
        buf[0] = if self.in_use { IN_USE_FLAG } else { 0 };
        set_u32(&mut buf, 1, self.rel_type.0);
        set_u64(&mut buf, 5, self.source.raw());
        set_u64(&mut buf, 13, self.target.raw());
        set_u64(&mut buf, 21, self.source_prev.raw());
        set_u64(&mut buf, 29, self.source_next.raw());
        set_u64(&mut buf, 37, self.target_prev.raw());
        set_u64(&mut buf, 45, self.target_next.raw());
        set_u64(&mut buf, 53, self.first_prop.raw());
        set_u64(&mut buf, 61, self.commit_ts);
        buf
    }

    /// Deserialises a record from a fixed-size buffer.
    pub fn decode(id: u64, buf: &[u8]) -> Result<Self> {
        if buf.len() < RELATIONSHIP_RECORD_SIZE {
            return Err(StorageError::corrupt(
                "relationship",
                id,
                "short record buffer",
            ));
        }
        Ok(RelationshipRecord {
            in_use: buf[0] & IN_USE_FLAG != 0,
            rel_type: RelTypeToken(get_u32(buf, 1)),
            source: NodeId::new(get_u64(buf, 5)),
            target: NodeId::new(get_u64(buf, 13)),
            source_prev: RelationshipId::new(get_u64(buf, 21)),
            source_next: RelationshipId::new(get_u64(buf, 29)),
            target_prev: RelationshipId::new(get_u64(buf, 37)),
            target_next: RelationshipId::new(get_u64(buf, 45)),
            first_prop: PropertyRecordId::new(get_u64(buf, 53)),
            commit_ts: get_u64(buf, 61),
        })
    }

    /// Returns the "other" end of the relationship relative to `node`.
    ///
    /// For self-loops both ends are the same node and that node is returned.
    pub fn other_node(&self, node: NodeId) -> NodeId {
        if self.source == node {
            self.target
        } else {
            self.source
        }
    }

    /// Returns the chain pointers (`prev`, `next`) for the given node's
    /// relationship chain.
    pub fn chain_for(&self, node: NodeId) -> (RelationshipId, RelationshipId) {
        if self.source == node {
            (self.source_prev, self.source_next)
        } else {
            (self.target_prev, self.target_next)
        }
    }

    /// Sets the chain pointers for the given node's relationship chain.
    pub fn set_chain_for(&mut self, node: NodeId, prev: RelationshipId, next: RelationshipId) {
        if self.source == node {
            self.source_prev = prev;
            self.source_next = next;
        }
        if self.target == node {
            self.target_prev = prev;
            self.target_next = next;
        }
    }
}

/// The value payload stored in a property record.
///
/// String values that fit inline are stored directly in the record; longer
/// strings are split across dynamic records and referenced by their first
/// dynamic record ID.
#[derive(Clone, Debug, PartialEq)]
pub enum StoredValue {
    /// Explicit null (the property exists, its value is null).
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 float.
    Float(f64),
    /// String short enough to be stored inline.
    InlineString(String),
    /// String stored in the dynamic store.
    DynamicString {
        /// First dynamic record of the overflow chain.
        first: DynamicRecordId,
        /// Total string length in bytes.
        len: u32,
    },
}

impl StoredValue {
    fn type_tag(&self) -> u8 {
        match self {
            StoredValue::Null => 0,
            StoredValue::Bool(_) => 1,
            StoredValue::Int(_) => 2,
            StoredValue::Float(_) => 3,
            StoredValue::InlineString(_) => 4,
            StoredValue::DynamicString { .. } => 5,
        }
    }
}

/// A property record: one key/value pair plus the next-property pointer.
#[derive(Clone, Debug, PartialEq)]
pub struct PropertyRecord {
    /// Whether the record slot is in use.
    pub in_use: bool,
    /// Property key token.
    pub key: PropertyKeyToken,
    /// Next property record of the same owner.
    pub next: PropertyRecordId,
    /// The stored value.
    pub value: StoredValue,
}

impl Default for PropertyRecord {
    fn default() -> Self {
        PropertyRecord {
            in_use: false,
            key: PropertyKeyToken(0),
            next: PropertyRecordId::NONE,
            value: StoredValue::Null,
        }
    }
}

impl PropertyRecord {
    /// Creates an in-use property record holding `value` under `key`.
    pub fn new_in_use(key: PropertyKeyToken, value: StoredValue) -> Self {
        PropertyRecord {
            in_use: true,
            key,
            next: PropertyRecordId::NONE,
            value,
        }
    }

    /// Serialises the record into a fixed-size buffer.
    pub fn encode(&self) -> Result<[u8; PROPERTY_RECORD_SIZE]> {
        let mut buf = [0u8; PROPERTY_RECORD_SIZE];
        buf[0] = if self.in_use { IN_USE_FLAG } else { 0 };
        set_u32(&mut buf, 1, self.key.0);
        set_u64(&mut buf, 5, self.next.raw());
        buf[13] = self.value.type_tag();
        match &self.value {
            StoredValue::Null => {}
            StoredValue::Bool(b) => buf[14] = u8::from(*b),
            StoredValue::Int(i) => set_u64(&mut buf, 14, *i as u64),
            StoredValue::Float(x) => set_u64(&mut buf, 14, x.to_bits()),
            StoredValue::InlineString(s) => {
                let bytes = s.as_bytes();
                if bytes.len() > PROPERTY_INLINE_STRING_MAX {
                    return Err(StorageError::ValueTooLarge {
                        size: bytes.len(),
                        max: PROPERTY_INLINE_STRING_MAX,
                    });
                }
                set_u16(&mut buf, 14, bytes.len() as u16);
                buf[16..16 + bytes.len()].copy_from_slice(bytes);
            }
            StoredValue::DynamicString { first, len } => {
                set_u64(&mut buf, 14, first.raw());
                set_u32(&mut buf, 22, *len);
            }
        }
        Ok(buf)
    }

    /// Deserialises a record from a fixed-size buffer.
    pub fn decode(id: u64, buf: &[u8]) -> Result<Self> {
        if buf.len() < PROPERTY_RECORD_SIZE {
            return Err(StorageError::corrupt("property", id, "short record buffer"));
        }
        let in_use = buf[0] & IN_USE_FLAG != 0;
        let key = PropertyKeyToken(get_u32(buf, 1));
        let next = PropertyRecordId::new(get_u64(buf, 5));
        let value = match buf[13] {
            0 => StoredValue::Null,
            1 => StoredValue::Bool(buf[14] != 0),
            2 => StoredValue::Int(get_u64(buf, 14) as i64),
            3 => StoredValue::Float(f64::from_bits(get_u64(buf, 14))),
            4 => {
                let len = get_u16(buf, 14) as usize;
                if len > PROPERTY_INLINE_STRING_MAX {
                    return Err(StorageError::corrupt(
                        "property",
                        id,
                        format!("inline string length {len} exceeds maximum"),
                    ));
                }
                let bytes = &buf[16..16 + len];
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| StorageError::corrupt("property", id, "invalid UTF-8"))?;
                StoredValue::InlineString(s.to_owned())
            }
            5 => StoredValue::DynamicString {
                first: DynamicRecordId::new(get_u64(buf, 14)),
                len: get_u32(buf, 22),
            },
            other => {
                return Err(StorageError::corrupt(
                    "property",
                    id,
                    format!("unknown value type tag {other}"),
                ))
            }
        };
        Ok(PropertyRecord {
            in_use,
            key,
            next,
            value,
        })
    }
}

/// One block of an overflow (dynamic) chain used for long string values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynamicRecord {
    /// Whether the record slot is in use.
    pub in_use: bool,
    /// Next block in the chain.
    pub next: DynamicRecordId,
    /// Payload bytes held by this block.
    pub data: Vec<u8>,
}

impl Default for DynamicRecord {
    fn default() -> Self {
        DynamicRecord {
            in_use: false,
            next: DynamicRecordId::NONE,
            data: Vec::new(),
        }
    }
}

impl DynamicRecord {
    /// Creates an in-use dynamic record holding `data`.
    pub fn new_in_use(data: Vec<u8>) -> Self {
        DynamicRecord {
            in_use: true,
            next: DynamicRecordId::NONE,
            data,
        }
    }

    /// Serialises the record into a fixed-size buffer.
    pub fn encode(&self) -> Result<[u8; DYNAMIC_RECORD_SIZE]> {
        if self.data.len() > DYNAMIC_DATA_SIZE {
            return Err(StorageError::ValueTooLarge {
                size: self.data.len(),
                max: DYNAMIC_DATA_SIZE,
            });
        }
        let mut buf = [0u8; DYNAMIC_RECORD_SIZE];
        buf[0] = if self.in_use { IN_USE_FLAG } else { 0 };
        set_u64(&mut buf, 1, self.next.raw());
        set_u16(&mut buf, 9, self.data.len() as u16);
        buf[11..11 + self.data.len()].copy_from_slice(&self.data);
        Ok(buf)
    }

    /// Deserialises a record from a fixed-size buffer.
    pub fn decode(id: u64, buf: &[u8]) -> Result<Self> {
        if buf.len() < DYNAMIC_RECORD_SIZE {
            return Err(StorageError::corrupt("dynamic", id, "short record buffer"));
        }
        let len = get_u16(buf, 9) as usize;
        if len > DYNAMIC_DATA_SIZE {
            return Err(StorageError::corrupt(
                "dynamic",
                id,
                format!("data length {len} exceeds block size"),
            ));
        }
        Ok(DynamicRecord {
            in_use: buf[0] & IN_USE_FLAG != 0,
            next: DynamicRecordId::new(get_u64(buf, 1)),
            data: buf[11..11 + len].to_vec(),
        })
    }
}

/// Sanity check: every record size must fit at least one record into the
/// usable (pre-trailer) area of a page, and records are packed from the
/// page start so none can straddle into the integrity trailer as long as
/// `usable_size / record_size` records are placed per page (see
/// [`crate::pages::records_per_page`]).
pub const fn record_sizes_fit_usable_page(usable_size: usize) -> bool {
    usable_size / NODE_RECORD_SIZE >= 1
        && usable_size / RELATIONSHIP_RECORD_SIZE >= 1
        && usable_size / PROPERTY_RECORD_SIZE >= 1
        && usable_size / DYNAMIC_RECORD_SIZE >= 1
}

/// Helper re-exported for chain manipulation: the raw `NO_ID` sentinel.
pub const CHAIN_END: u64 = NO_ID;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn node_record_roundtrip() {
        let mut rec = NodeRecord::new_in_use();
        rec.first_rel = RelationshipId::new(17);
        rec.first_prop = PropertyRecordId::new(99);
        rec.labels = vec![LabelToken(1), LabelToken(7), LabelToken(42)];
        rec.commit_ts = 0xDEAD_BEEF_0042;
        let buf = rec.encode().unwrap();
        let back = NodeRecord::decode(0, &buf).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn node_record_default_is_not_in_use() {
        let rec = NodeRecord::default();
        let buf = rec.encode().unwrap();
        let back = NodeRecord::decode(0, &buf).unwrap();
        assert!(!back.in_use);
        assert!(back.first_rel.is_none());
        assert!(back.labels.is_empty());
    }

    #[test]
    fn node_record_too_many_labels_rejected() {
        let mut rec = NodeRecord::new_in_use();
        rec.labels = (0..9).map(LabelToken).collect();
        assert!(rec.encode().is_err());
    }

    #[test]
    fn node_record_corrupt_label_count() {
        let mut buf = NodeRecord::new_in_use().encode().unwrap();
        buf[17] = 200;
        assert!(NodeRecord::decode(3, &buf).is_err());
    }

    #[test]
    fn relationship_record_roundtrip() {
        let mut rec =
            RelationshipRecord::new_in_use(NodeId::new(1), NodeId::new(2), RelTypeToken(5));
        rec.source_next = RelationshipId::new(10);
        rec.target_prev = RelationshipId::new(20);
        rec.first_prop = PropertyRecordId::new(30);
        rec.commit_ts = u64::MAX - 1;
        let buf = rec.encode();
        let back = RelationshipRecord::decode(0, &buf).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn relationship_other_node_and_chain() {
        let mut rec =
            RelationshipRecord::new_in_use(NodeId::new(1), NodeId::new(2), RelTypeToken(0));
        assert_eq!(rec.other_node(NodeId::new(1)), NodeId::new(2));
        assert_eq!(rec.other_node(NodeId::new(2)), NodeId::new(1));
        rec.set_chain_for(
            NodeId::new(1),
            RelationshipId::new(7),
            RelationshipId::new(8),
        );
        assert_eq!(
            rec.chain_for(NodeId::new(1)),
            (RelationshipId::new(7), RelationshipId::new(8))
        );
        assert_eq!(
            rec.chain_for(NodeId::new(2)),
            (RelationshipId::NONE, RelationshipId::NONE)
        );
    }

    #[test]
    fn self_loop_chain_updates_both_ends() {
        let mut rec =
            RelationshipRecord::new_in_use(NodeId::new(3), NodeId::new(3), RelTypeToken(0));
        rec.set_chain_for(
            NodeId::new(3),
            RelationshipId::new(1),
            RelationshipId::new(2),
        );
        assert_eq!(rec.source_prev, RelationshipId::new(1));
        assert_eq!(rec.target_prev, RelationshipId::new(1));
        assert_eq!(rec.other_node(NodeId::new(3)), NodeId::new(3));
    }

    #[test]
    fn property_record_roundtrips_all_types() {
        let values = vec![
            StoredValue::Null,
            StoredValue::Bool(true),
            StoredValue::Bool(false),
            StoredValue::Int(-12345),
            StoredValue::Int(i64::MAX),
            StoredValue::Float(3.5),
            StoredValue::Float(f64::NEG_INFINITY),
            StoredValue::InlineString("hello".to_owned()),
            StoredValue::InlineString(String::new()),
            StoredValue::DynamicString {
                first: DynamicRecordId::new(12),
                len: 4096,
            },
        ];
        for value in values {
            let mut rec = PropertyRecord::new_in_use(PropertyKeyToken(3), value.clone());
            rec.next = PropertyRecordId::new(55);
            let buf = rec.encode().unwrap();
            let back = PropertyRecord::decode(0, &buf).unwrap();
            assert_eq!(rec, back, "value {value:?}");
        }
    }

    #[test]
    fn property_record_rejects_over_long_inline_string() {
        let s = "x".repeat(PROPERTY_INLINE_STRING_MAX + 1);
        let rec = PropertyRecord::new_in_use(PropertyKeyToken(0), StoredValue::InlineString(s));
        assert!(rec.encode().is_err());
    }

    #[test]
    fn property_record_rejects_unknown_tag() {
        let rec = PropertyRecord::new_in_use(PropertyKeyToken(0), StoredValue::Null);
        let mut buf = rec.encode().unwrap();
        buf[13] = 99;
        assert!(PropertyRecord::decode(0, &buf).is_err());
    }

    #[test]
    fn dynamic_record_roundtrip() {
        let mut rec = DynamicRecord::new_in_use(vec![1, 2, 3, 4, 5]);
        rec.next = DynamicRecordId::new(77);
        let buf = rec.encode().unwrap();
        let back = DynamicRecord::decode(0, &buf).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn dynamic_record_rejects_oversized_payload() {
        let rec = DynamicRecord::new_in_use(vec![0u8; DYNAMIC_DATA_SIZE + 1]);
        assert!(rec.encode().is_err());
    }

    #[test]
    fn record_sizes_fit_the_usable_page() {
        assert!(record_sizes_fit_usable_page(crate::pages::PAGE_USABLE_SIZE));
        // The per-page packing derived from the usable area never reaches
        // into the 16-byte integrity trailer.
        for size in [
            NODE_RECORD_SIZE,
            RELATIONSHIP_RECORD_SIZE,
            PROPERTY_RECORD_SIZE,
            DYNAMIC_RECORD_SIZE,
        ] {
            let per_page = crate::pages::records_per_page(size) as usize;
            assert!(per_page >= 1);
            assert!(per_page * size <= crate::pages::PAGE_USABLE_SIZE);
        }
    }

    #[test]
    fn relationship_records_pack_113_per_page_clear_of_the_trailer() {
        let per_page = crate::pages::records_per_page(RELATIONSHIP_RECORD_SIZE);
        assert_eq!(per_page, 113);
        for id in 0..per_page * 3 {
            let loc = crate::pages::locate_record(id, RELATIONSHIP_RECORD_SIZE);
            assert_eq!(loc.page_no, id / per_page);
            assert!(
                loc.offset_in_page + RELATIONSHIP_RECORD_SIZE <= crate::pages::PAGE_USABLE_SIZE,
                "record {id} straddles the trailer"
            );
        }
    }

    #[test]
    fn commit_ts_sits_in_the_record_tail() {
        let mut node = NodeRecord::new_in_use();
        node.labels = (0..MAX_INLINE_LABELS as u32).map(LabelToken).collect();
        node.commit_ts = 0x0102_0304_0506_0708;
        let buf = node.encode().unwrap();
        assert_eq!(&buf[50..58], &node.commit_ts.to_le_bytes());
        assert!(buf[58..].iter().all(|&b| b == 0));

        let mut rel =
            RelationshipRecord::new_in_use(NodeId::new(1), NodeId::new(2), RelTypeToken(3));
        rel.commit_ts = 0x1112_1314_1516_1718;
        let buf = rel.encode();
        assert_eq!(&buf[61..69], &rel.commit_ts.to_le_bytes());
        assert!(buf[69..].iter().all(|&b| b == 0));
    }

    proptest! {
        #[test]
        fn prop_node_record_roundtrip(
            first_rel in proptest::option::of(0u64..1_000_000),
            first_prop in proptest::option::of(0u64..1_000_000),
            labels in proptest::collection::vec(0u32..10_000, 0..=MAX_INLINE_LABELS),
            commit_ts in proptest::num::u64::ANY,
        ) {
            let rec = NodeRecord {
                in_use: true,
                first_rel: first_rel.map(RelationshipId::new).unwrap_or(RelationshipId::NONE),
                first_prop: first_prop.map(PropertyRecordId::new).unwrap_or(PropertyRecordId::NONE),
                labels: labels.into_iter().map(LabelToken).collect(),
                commit_ts,
            };
            let buf = rec.encode().unwrap();
            prop_assert_eq!(NodeRecord::decode(0, &buf).unwrap(), rec);
        }

        #[test]
        fn prop_relationship_record_roundtrip(
            src in 0u64..1_000_000,
            dst in 0u64..1_000_000,
            rel_type in 0u32..1_000,
            sp in 0u64..1_000_000,
            sn in 0u64..1_000_000,
            tp in 0u64..1_000_000,
            tn in 0u64..1_000_000,
            first_prop in proptest::option::of(0u64..1_000_000),
            commit_ts in proptest::num::u64::ANY,
        ) {
            let rec = RelationshipRecord {
                in_use: true,
                rel_type: RelTypeToken(rel_type),
                source: NodeId::new(src),
                target: NodeId::new(dst),
                source_prev: RelationshipId::new(sp),
                source_next: RelationshipId::new(sn),
                target_prev: RelationshipId::new(tp),
                target_next: RelationshipId::new(tn),
                first_prop: first_prop.map(PropertyRecordId::new).unwrap_or(PropertyRecordId::NONE),
                commit_ts,
            };
            let buf = rec.encode();
            prop_assert_eq!(RelationshipRecord::decode(0, &buf).unwrap(), rec);
        }

        #[test]
        fn prop_property_int_roundtrip(key in 0u32..100_000, v in proptest::num::i64::ANY) {
            let rec = PropertyRecord::new_in_use(PropertyKeyToken(key), StoredValue::Int(v));
            let buf = rec.encode().unwrap();
            prop_assert_eq!(PropertyRecord::decode(0, &buf).unwrap(), rec);
        }

        #[test]
        fn prop_property_string_roundtrip(s in "[a-zA-Z0-9 ]{0,100}") {
            let rec = PropertyRecord::new_in_use(
                PropertyKeyToken(1),
                StoredValue::InlineString(s),
            );
            let buf = rec.encode().unwrap();
            prop_assert_eq!(PropertyRecord::decode(0, &buf).unwrap(), rec);
        }

        #[test]
        fn prop_dynamic_roundtrip(data in proptest::collection::vec(proptest::num::u8::ANY, 0..=DYNAMIC_DATA_SIZE)) {
            let rec = DynamicRecord::new_in_use(data);
            let buf = rec.encode().unwrap();
            prop_assert_eq!(DynamicRecord::decode(0, &buf).unwrap(), rec);
        }
    }
}
