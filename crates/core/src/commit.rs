//! Commit records: the WAL payload describing one committed transaction,
//! and their application to the persistent store (both at commit time and
//! during recovery replay).
//!
//! The encoding is a small hand-rolled binary format (no external
//! serialisation dependency): a commit timestamp followed by a list of
//! operations, each carrying the token-level state the store needs.

use graphsi_storage::{
    GraphStore, LabelToken, NodeId, PropertyKeyToken, PropertyValue, RelTypeToken, RelationshipId,
};
use graphsi_txn::Timestamp;
use graphsi_wal::record::PAYLOAD_KIND_COMMIT;

use crate::error::{DbError, Result};

/// One operation of a committed transaction, in store-application order.
#[derive(Clone, Debug, PartialEq)]
pub enum CommitOp {
    /// Install a newly created node.
    CreateNode {
        /// Node ID.
        id: NodeId,
        /// Labels of the new node.
        labels: Vec<LabelToken>,
        /// Properties of the new node.
        properties: Vec<(PropertyKeyToken, PropertyValue)>,
    },
    /// Overwrite an existing node with its newest committed state.
    UpdateNode {
        /// Node ID.
        id: NodeId,
        /// New labels.
        labels: Vec<LabelToken>,
        /// New properties.
        properties: Vec<(PropertyKeyToken, PropertyValue)>,
    },
    /// Physically remove a node from the store.
    DeleteNode {
        /// Node ID.
        id: NodeId,
    },
    /// Install a newly created relationship.
    CreateRelationship {
        /// Relationship ID.
        id: RelationshipId,
        /// Source node.
        source: NodeId,
        /// Target node.
        target: NodeId,
        /// Relationship type.
        rel_type: RelTypeToken,
        /// Properties of the new relationship.
        properties: Vec<(PropertyKeyToken, PropertyValue)>,
    },
    /// Overwrite an existing relationship's properties.
    UpdateRelationship {
        /// Relationship ID.
        id: RelationshipId,
        /// New properties.
        properties: Vec<(PropertyKeyToken, PropertyValue)>,
    },
    /// Physically remove a relationship from the store.
    DeleteRelationship {
        /// Relationship ID.
        id: RelationshipId,
    },
}

/// The WAL payload of one committed transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitRecord {
    /// Commit timestamp assigned by the timestamp oracle.
    pub commit_ts: Timestamp,
    /// Operations in application order (creates before deletes of
    /// dependent entities; relationship deletions before node deletions).
    pub ops: Vec<CommitOp>,
}

impl CommitRecord {
    /// Serialises the record to bytes for the WAL. Fails with
    /// [`DbError::CommitRecordOverflow`] if any field exceeds the format's
    /// limits (e.g. more than 255 labels on one entity) — the limits are
    /// validated here rather than silently truncated, so a malformed record
    /// can never reach the log.
    pub fn encode(&self) -> Result<Vec<u8>> {
        Ok(frame_record(self.commit_ts, &encode_ops(&self.ops)?))
    }

    /// Deserialises a record previously produced by [`CommitRecord::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut cursor = Cursor { bytes, pos: 0 };
        let kind = cursor.u8()?;
        if kind != PAYLOAD_KIND_COMMIT {
            return Err(DbError::CorruptCommitRecord(format!(
                "payload kind {kind:#04x} is not a commit record"
            )));
        }
        let commit_ts = Timestamp(cursor.u64()?);
        let count = cursor.u32()? as usize;
        let mut ops = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            ops.push(decode_op(&mut cursor)?);
        }
        Ok(CommitRecord { commit_ts, ops })
    }
}

/// Maximum number of labels one entity can carry in a commit record (the
/// label count is encoded as a single byte).
pub const MAX_LABELS_PER_ENTITY: usize = u8::MAX as usize;

/// Maximum number of properties one entity can carry in a commit record
/// (the property count is encoded as a `u16`).
pub const MAX_PROPS_PER_ENTITY: usize = u16::MAX as usize;

/// Serialises a list of operations *without* the record header. The commit
/// pipeline encodes the (potentially large) op list outside its sequencing
/// critical section and frames it with the commit timestamp only once the
/// timestamp is assigned — see [`frame_record`].
pub fn encode_ops(ops: &[CommitOp]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        encode_op(op, &mut out)?;
    }
    Ok(out)
}

/// Prepends the payload-kind tag and the commit-timestamp header to an op
/// body produced by [`encode_ops`], yielding the final WAL payload. The
/// kind byte lets recovery tell commit records from the pipeline's abort
/// records ([`graphsi_wal::AbortRecord`]) before decoding either.
pub fn frame_record(commit_ts: Timestamp, ops_body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + ops_body.len());
    out.push(PAYLOAD_KIND_COMMIT);
    out.extend_from_slice(&commit_ts.raw().to_le_bytes());
    out.extend_from_slice(ops_body);
    out
}

/// Overwrites the commit-timestamp header of an already-framed payload.
/// The commit pipeline frames the payload with a placeholder *outside*
/// its sequencing lock and patches the real timestamp in place once it is
/// drawn, so the critical section never copies the record.
pub fn patch_commit_ts(payload: &mut [u8], commit_ts: Timestamp) {
    payload[1..9].copy_from_slice(&commit_ts.raw().to_le_bytes());
}

fn encode_op(op: &CommitOp, out: &mut Vec<u8>) -> Result<()> {
    match op {
        CommitOp::CreateNode {
            id,
            labels,
            properties,
        } => {
            out.push(1);
            out.extend_from_slice(&id.raw().to_le_bytes());
            encode_labels(labels, out)?;
            encode_props(properties, out)?;
        }
        CommitOp::UpdateNode {
            id,
            labels,
            properties,
        } => {
            out.push(2);
            out.extend_from_slice(&id.raw().to_le_bytes());
            encode_labels(labels, out)?;
            encode_props(properties, out)?;
        }
        CommitOp::DeleteNode { id } => {
            out.push(3);
            out.extend_from_slice(&id.raw().to_le_bytes());
        }
        CommitOp::CreateRelationship {
            id,
            source,
            target,
            rel_type,
            properties,
        } => {
            out.push(4);
            out.extend_from_slice(&id.raw().to_le_bytes());
            out.extend_from_slice(&source.raw().to_le_bytes());
            out.extend_from_slice(&target.raw().to_le_bytes());
            out.extend_from_slice(&rel_type.0.to_le_bytes());
            encode_props(properties, out)?;
        }
        CommitOp::UpdateRelationship { id, properties } => {
            out.push(5);
            out.extend_from_slice(&id.raw().to_le_bytes());
            encode_props(properties, out)?;
        }
        CommitOp::DeleteRelationship { id } => {
            out.push(6);
            out.extend_from_slice(&id.raw().to_le_bytes());
        }
    }
    Ok(())
}

fn encode_labels(labels: &[LabelToken], out: &mut Vec<u8>) -> Result<()> {
    if labels.len() > MAX_LABELS_PER_ENTITY {
        return Err(DbError::CommitRecordOverflow(format!(
            "{} labels on one entity (maximum {MAX_LABELS_PER_ENTITY})",
            labels.len()
        )));
    }
    out.push(labels.len() as u8);
    for l in labels {
        out.extend_from_slice(&l.0.to_le_bytes());
    }
    Ok(())
}

fn encode_props(props: &[(PropertyKeyToken, PropertyValue)], out: &mut Vec<u8>) -> Result<()> {
    if props.len() > MAX_PROPS_PER_ENTITY {
        return Err(DbError::CommitRecordOverflow(format!(
            "{} properties on one entity (maximum {MAX_PROPS_PER_ENTITY})",
            props.len()
        )));
    }
    out.extend_from_slice(&(props.len() as u16).to_le_bytes());
    for (key, value) in props {
        out.extend_from_slice(&key.0.to_le_bytes());
        match value {
            PropertyValue::Bool(b) => {
                out.push(0);
                out.push(u8::from(*b));
            }
            PropertyValue::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            PropertyValue::Float(x) => {
                out.push(2);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            PropertyValue::String(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    Ok(())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn bad_width(want: usize) -> DbError {
    DbError::CorruptCommitRecord(format!("integer field is not {want} bytes wide"))
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(DbError::CorruptCommitRecord(format!(
                "truncated record at offset {}",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let bytes = self.take(2)?.try_into().map_err(|_| bad_width(2))?;
        Ok(u16::from_le_bytes(bytes))
    }

    fn u32(&mut self) -> Result<u32> {
        let bytes = self.take(4)?.try_into().map_err(|_| bad_width(4))?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64> {
        let bytes = self.take(8)?.try_into().map_err(|_| bad_width(8))?;
        Ok(u64::from_le_bytes(bytes))
    }
}

fn decode_op(cursor: &mut Cursor<'_>) -> Result<CommitOp> {
    let tag = cursor.u8()?;
    Ok(match tag {
        1 | 2 => {
            let id = NodeId::new(cursor.u64()?);
            let labels = decode_labels(cursor)?;
            let properties = decode_props(cursor)?;
            if tag == 1 {
                CommitOp::CreateNode {
                    id,
                    labels,
                    properties,
                }
            } else {
                CommitOp::UpdateNode {
                    id,
                    labels,
                    properties,
                }
            }
        }
        3 => CommitOp::DeleteNode {
            id: NodeId::new(cursor.u64()?),
        },
        4 => CommitOp::CreateRelationship {
            id: RelationshipId::new(cursor.u64()?),
            source: NodeId::new(cursor.u64()?),
            target: NodeId::new(cursor.u64()?),
            rel_type: RelTypeToken(cursor.u32()?),
            properties: decode_props(cursor)?,
        },
        5 => CommitOp::UpdateRelationship {
            id: RelationshipId::new(cursor.u64()?),
            properties: decode_props(cursor)?,
        },
        6 => CommitOp::DeleteRelationship {
            id: RelationshipId::new(cursor.u64()?),
        },
        other => {
            return Err(DbError::CorruptCommitRecord(format!(
                "unknown op tag {other}"
            )))
        }
    })
}

fn decode_labels(cursor: &mut Cursor<'_>) -> Result<Vec<LabelToken>> {
    let count = cursor.u8()? as usize;
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        labels.push(LabelToken(cursor.u32()?));
    }
    Ok(labels)
}

fn decode_props(cursor: &mut Cursor<'_>) -> Result<Vec<(PropertyKeyToken, PropertyValue)>> {
    let count = cursor.u16()? as usize;
    let mut props = Vec::with_capacity(count);
    for _ in 0..count {
        let key = PropertyKeyToken(cursor.u32()?);
        let vtag = cursor.u8()?;
        let value = match vtag {
            0 => PropertyValue::Bool(cursor.u8()? != 0),
            1 => PropertyValue::Int(cursor.u64()? as i64),
            2 => PropertyValue::Float(f64::from_bits(cursor.u64()?)),
            3 => {
                let len = cursor.u32()? as usize;
                let bytes = cursor.take(len)?;
                PropertyValue::String(
                    std::str::from_utf8(bytes)
                        .map_err(|_| {
                            DbError::CorruptCommitRecord("invalid UTF-8 in property".into())
                        })?
                        .to_owned(),
                )
            }
            other => {
                return Err(DbError::CorruptCommitRecord(format!(
                    "unknown value tag {other}"
                )))
            }
        };
        props.push((key, value));
    }
    Ok(props)
}

// ---------------------------------------------------------------------
// Store-apply shard footprints
// ---------------------------------------------------------------------

/// The shard a node's page *and* its relationship chain map to. One shard
/// space covers both: a chain splice rewrites the node record (head
/// pointer) as well as neighbouring relationship records, so node writes
/// and chain writes on the same node must collide on the same lock.
pub fn node_shard(id: NodeId, shard_count: usize) -> usize {
    // Fibonacci multiplicative hashing; distinct odd multipliers keep the
    // node and relationship key spaces from aliasing systematically.
    (id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % shard_count.max(1)
}

/// The shard a relationship's own page maps to.
pub fn rel_shard(id: RelationshipId, shard_count: usize) -> usize {
    (id.raw().wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 17) as usize % shard_count.max(1)
}

/// Extracts the store-apply shard footprint of a commit record's ops: the
/// sorted, deduplicated set of shard indexes covering every store record
/// the flush-through may read-modify-write. Two commits whose footprints
/// are disjoint can apply concurrently; overlapping ones queue on the
/// shared shards.
///
/// Per op this is:
///
/// * node create/update/delete — the node's shard (its record + property
///   chain);
/// * relationship create/update/delete — the relationship's own shard
///   *plus both endpoint nodes' shards*. The chain splices in
///   `GraphStore` are multi-record sequences: creating a relationship
///   rewrites the endpoint node records and the old chain-head
///   relationship records, deleting one rewrites the chain neighbours.
///
/// The safety argument has two halves. Node records and the spliced
/// relationship's own record are serialised by the shards themselves:
/// every writer of node `n`'s record holds `n`'s shard, and a
/// relationship op holds both endpoint shards, so it excludes every
/// splice that could rewrite its record. Chain-*neighbour* records are
/// the subtle half: a neighbour touched through `n`'s chain also sits on
/// its other endpoint `m`'s chain, and a concurrent splice over `m`
/// (holding only `m`'s shard) may rewrite the same record. Those
/// rewrites touch disjoint per-endpoint pointer pairs and are performed
/// as atomic single-call read-modify-writes under the record's page lock
/// (`RecordStore::update_in_use`), so they commute instead of losing an
/// update.
///
/// `rel_endpoints` resolves the endpoints of relationships whose ops do
/// not carry them (update/delete, which encode only the ID); the commit
/// path answers from the write set's before-images. If an endpoint cannot
/// be resolved the footprint degrades to *every* shard — correct, merely
/// serial.
pub fn record_footprint(
    ops: &[CommitOp],
    shard_count: usize,
    mut rel_endpoints: impl FnMut(RelationshipId) -> Option<(NodeId, NodeId)>,
) -> Vec<usize> {
    let shard_count = shard_count.max(1);
    let mut shards = std::collections::BTreeSet::new();
    for op in ops {
        match op {
            CommitOp::CreateNode { id, .. }
            | CommitOp::UpdateNode { id, .. }
            | CommitOp::DeleteNode { id } => {
                shards.insert(node_shard(*id, shard_count));
            }
            CommitOp::CreateRelationship {
                id, source, target, ..
            } => {
                shards.insert(rel_shard(*id, shard_count));
                shards.insert(node_shard(*source, shard_count));
                shards.insert(node_shard(*target, shard_count));
            }
            CommitOp::UpdateRelationship { id, .. } | CommitOp::DeleteRelationship { id } => {
                shards.insert(rel_shard(*id, shard_count));
                match rel_endpoints(*id) {
                    Some((source, target)) => {
                        shards.insert(node_shard(source, shard_count));
                        shards.insert(node_shard(target, shard_count));
                    }
                    None => return (0..shard_count).collect(),
                }
            }
        }
        if shards.len() == shard_count {
            break;
        }
    }
    shards.into_iter().collect()
}

/// Applies a commit record to the persistent store, installing the newest
/// committed version of every touched entity. The commit timestamp goes
/// into each entity's record — the paper's "additional property ... for
/// keeping the commit timestamp" (§4), kept in the fixed-size record so
/// readers decide visibility without walking the property chain — and a
/// reopened database seeds cache base versions from it.
///
/// With `idempotent` set (recovery replay) the function tolerates
/// operations whose effect is already present in the store.
pub fn apply_to_store(store: &GraphStore, record: &CommitRecord, idempotent: bool) -> Result<()> {
    let ts = record.commit_ts.raw();
    for op in &record.ops {
        match op {
            CommitOp::CreateNode {
                id,
                labels,
                properties,
            }
            | CommitOp::UpdateNode {
                id,
                labels,
                properties,
            } => {
                if store.node_exists(*id)? {
                    store.update_node_at(*id, labels, properties, ts)?;
                } else {
                    if matches!(op, CommitOp::UpdateNode { .. }) && !idempotent {
                        return Err(DbError::NodeNotFound(*id));
                    }
                    store.create_node_at(*id, labels, properties, ts)?;
                    store.bump_high_ids(id.raw() + 1, 0);
                }
            }
            CommitOp::DeleteNode { id } => {
                if store.node_exists(*id)? {
                    store.delete_node(*id)?;
                } else if !idempotent {
                    return Err(DbError::NodeNotFound(*id));
                }
            }
            CommitOp::CreateRelationship {
                id,
                source,
                target,
                rel_type,
                properties,
            } => {
                if store.relationship_exists(*id)? {
                    // Already applied (recovery after a partial flush).
                    store.update_relationship_at(*id, properties, ts)?;
                } else {
                    store
                        .create_relationship_at(*id, *source, *target, *rel_type, properties, ts)?;
                    store.bump_high_ids(0, id.raw() + 1);
                }
            }
            CommitOp::UpdateRelationship { id, properties } => {
                if store.relationship_exists(*id)? {
                    store.update_relationship_at(*id, properties, ts)?;
                } else if !idempotent {
                    return Err(DbError::RelationshipNotFound(*id));
                }
            }
            CommitOp::DeleteRelationship { id } => {
                if store.relationship_exists(*id)? {
                    store.delete_relationship(*id)?;
                } else if !idempotent {
                    return Err(DbError::RelationshipNotFound(*id));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsi_storage::test_util::TempDir;
    use graphsi_storage::GraphStoreConfig;

    fn sample_record() -> CommitRecord {
        CommitRecord {
            commit_ts: Timestamp(42),
            ops: vec![
                CommitOp::CreateNode {
                    id: NodeId::new(0),
                    labels: vec![LabelToken(1), LabelToken(2)],
                    properties: vec![
                        (PropertyKeyToken(0), PropertyValue::Int(7)),
                        (PropertyKeyToken(1), PropertyValue::String("ada".into())),
                    ],
                },
                CommitOp::CreateNode {
                    id: NodeId::new(1),
                    labels: vec![],
                    properties: vec![(PropertyKeyToken(2), PropertyValue::Bool(true))],
                },
                CommitOp::CreateRelationship {
                    id: RelationshipId::new(0),
                    source: NodeId::new(0),
                    target: NodeId::new(1),
                    rel_type: RelTypeToken(3),
                    properties: vec![(PropertyKeyToken(3), PropertyValue::Float(0.5))],
                },
                CommitOp::UpdateNode {
                    id: NodeId::new(1),
                    labels: vec![LabelToken(9)],
                    properties: vec![],
                },
                CommitOp::DeleteRelationship {
                    id: RelationshipId::new(0),
                },
                CommitOp::DeleteNode { id: NodeId::new(1) },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let record = sample_record();
        let bytes = record.encode().unwrap();
        let decoded = CommitRecord::decode(&bytes).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn frame_record_matches_whole_record_encoding() {
        let record = sample_record();
        let body = encode_ops(&record.ops).unwrap();
        assert_eq!(
            frame_record(record.commit_ts, &body),
            record.encode().unwrap()
        );
    }

    #[test]
    fn truncated_record_is_rejected() {
        let bytes = sample_record().encode().unwrap();
        for cut in [0, 5, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(CommitRecord::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut bytes = sample_record().encode().unwrap();
        bytes[13] = 200; // first op tag (after kind byte, ts, op count)
        assert!(CommitRecord::decode(&bytes).is_err());
    }

    #[test]
    fn abort_payload_is_not_a_commit_record() {
        let abort = graphsi_wal::AbortRecord { commit_ts: 9 }.encode();
        assert!(CommitRecord::decode(&abort).is_err());
    }

    #[test]
    fn too_many_labels_is_an_encode_error_not_truncation() {
        // Regression: `labels.len() as u8` used to wrap past 255, producing
        // a corrupt-but-checksummed record (the decoder would read a tiny
        // label count and misparse everything after it).
        let at_limit = CommitRecord {
            commit_ts: Timestamp(1),
            ops: vec![CommitOp::CreateNode {
                id: NodeId::new(0),
                labels: (0..255).map(LabelToken).collect(),
                properties: vec![],
            }],
        };
        let bytes = at_limit.encode().unwrap();
        assert_eq!(CommitRecord::decode(&bytes).unwrap(), at_limit);

        let over_limit = CommitRecord {
            commit_ts: Timestamp(1),
            ops: vec![CommitOp::CreateNode {
                id: NodeId::new(0),
                labels: (0..256).map(LabelToken).collect(),
                properties: vec![],
            }],
        };
        let err = over_limit.encode().unwrap_err();
        assert!(
            matches!(err, DbError::CommitRecordOverflow(_)),
            "got {err:?}"
        );
        assert!(err.to_string().contains("256 labels"));
    }

    #[test]
    fn too_many_properties_is_an_encode_error() {
        let over_limit = CommitRecord {
            commit_ts: Timestamp(1),
            ops: vec![CommitOp::UpdateRelationship {
                id: RelationshipId::new(0),
                properties: (0..=u16::MAX as u32)
                    .map(|i| (PropertyKeyToken(i), PropertyValue::Bool(true)))
                    .collect(),
            }],
        };
        assert!(matches!(
            over_limit.encode(),
            Err(DbError::CommitRecordOverflow(_))
        ));
    }

    #[test]
    fn footprint_covers_rel_endpoints_and_is_sorted() {
        const SHARDS: usize = 64;
        let ops = vec![CommitOp::CreateRelationship {
            id: RelationshipId::new(3),
            source: NodeId::new(10),
            target: NodeId::new(20),
            rel_type: RelTypeToken(0),
            properties: vec![],
        }];
        let footprint = record_footprint(&ops, SHARDS, |_| None);
        let mut expected = vec![
            rel_shard(RelationshipId::new(3), SHARDS),
            node_shard(NodeId::new(10), SHARDS),
            node_shard(NodeId::new(20), SHARDS),
        ];
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(footprint, expected);
        assert!(footprint.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn footprint_resolves_update_and_delete_endpoints() {
        const SHARDS: usize = 64;
        let ops = vec![
            CommitOp::UpdateRelationship {
                id: RelationshipId::new(5),
                properties: vec![],
            },
            CommitOp::DeleteRelationship {
                id: RelationshipId::new(6),
            },
        ];
        let footprint = record_footprint(&ops, SHARDS, |id| {
            Some((NodeId::new(id.raw() * 10), NodeId::new(id.raw() * 10 + 1)))
        });
        for shard in [
            rel_shard(RelationshipId::new(5), SHARDS),
            node_shard(NodeId::new(50), SHARDS),
            node_shard(NodeId::new(51), SHARDS),
            rel_shard(RelationshipId::new(6), SHARDS),
            node_shard(NodeId::new(60), SHARDS),
            node_shard(NodeId::new(61), SHARDS),
        ] {
            assert!(footprint.contains(&shard));
        }
    }

    #[test]
    fn unresolvable_endpoints_degrade_to_every_shard() {
        let ops = vec![CommitOp::DeleteRelationship {
            id: RelationshipId::new(1),
        }];
        let footprint = record_footprint(&ops, 8, |_| None);
        assert_eq!(footprint, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn disjoint_node_commits_usually_have_disjoint_footprints() {
        // Not a guarantee (hashing can collide) — but with 2 nodes over
        // 1024 shards a collision would point at a broken shard function.
        let a = record_footprint(
            &[CommitOp::UpdateNode {
                id: NodeId::new(1),
                labels: vec![],
                properties: vec![],
            }],
            1024,
            |_| None,
        );
        let b = record_footprint(
            &[CommitOp::UpdateNode {
                id: NodeId::new(2),
                labels: vec![],
                properties: vec![],
            }],
            1024,
            |_| None,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn apply_and_reapply_idempotently() {
        let dir = TempDir::new("commit_apply");
        let store = GraphStore::open(dir.path(), GraphStoreConfig::default()).unwrap();
        let record = CommitRecord {
            commit_ts: Timestamp(5),
            ops: vec![
                CommitOp::CreateNode {
                    id: NodeId::new(0),
                    labels: vec![LabelToken(0)],
                    properties: vec![(PropertyKeyToken(0), PropertyValue::Int(1))],
                },
                CommitOp::CreateNode {
                    id: NodeId::new(1),
                    labels: vec![],
                    properties: vec![],
                },
                CommitOp::CreateRelationship {
                    id: RelationshipId::new(0),
                    source: NodeId::new(0),
                    target: NodeId::new(1),
                    rel_type: RelTypeToken(0),
                    properties: vec![],
                },
            ],
        };
        apply_to_store(&store, &record, false).unwrap();
        // Replaying the same record (recovery) must not duplicate anything.
        apply_to_store(&store, &record, true).unwrap();
        assert_eq!(store.scan_node_ids().unwrap().len(), 2);
        assert_eq!(store.scan_relationship_ids().unwrap().len(), 1);
        assert_eq!(store.node_degree(NodeId::new(0)).unwrap(), 1);

        let stored = store.read_node(NodeId::new(0)).unwrap().unwrap();
        assert_eq!(stored.commit_ts, 5);
        assert_eq!(
            stored.properties,
            vec![(PropertyKeyToken(0), PropertyValue::Int(1))]
        );
        let rel = store.read_relationship(RelationshipId::new(0)).unwrap();
        assert_eq!(rel.unwrap().commit_ts, 5);
    }

    #[test]
    fn strict_apply_rejects_missing_entities() {
        let dir = TempDir::new("commit_strict");
        let store = GraphStore::open(dir.path(), GraphStoreConfig::default()).unwrap();
        let record = CommitRecord {
            commit_ts: Timestamp(1),
            ops: vec![CommitOp::DeleteNode { id: NodeId::new(7) }],
        };
        assert!(apply_to_store(&store, &record, false).is_err());
        assert!(apply_to_store(&store, &record, true).is_ok());
    }

    #[test]
    fn plain_store_writes_carry_the_bootstrap_timestamp() {
        let dir = TempDir::new("commit_bootstrap_ts");
        let store = GraphStore::open(dir.path(), GraphStoreConfig::default()).unwrap();
        let id = NodeId::new(0);
        store.bump_high_ids(1, 0);
        store
            .create_node(id, &[], &[(PropertyKeyToken(0), PropertyValue::Int(1))])
            .unwrap();
        let stored = store.read_node(id).unwrap().unwrap();
        assert_eq!(Timestamp(stored.commit_ts), Timestamp::BOOTSTRAP);
        assert_eq!(stored.properties.len(), 1);
    }
}
