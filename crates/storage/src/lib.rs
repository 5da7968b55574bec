//! # graphsi-storage
//!
//! The persistent storage substrate of the graphsi workspace: a from-scratch
//! reimplementation of the Neo4j-style native graph store described in
//! section 2 of *"Snapshot Isolation for Neo4j"* (EDBT 2016).
//!
//! The layout mirrors the paper's description of Neo4j:
//!
//! * **Record stores** ([`store_file::RecordStore`]) hold fixed-size records
//!   whose file position is derived from the entity ID.
//! * **Nodes** ([`record::NodeRecord`]) point at their first relationship and
//!   first property and carry inline label tokens.
//! * **Relationships** ([`record::RelationshipRecord`]) store source and
//!   target node IDs and are threaded into per-node doubly linked chains.
//! * **Properties** ([`record::PropertyRecord`]) are chained per owner, with
//!   long strings overflowing into a dynamic store.
//! * A **page cache** ([`page_cache::PageCache`]) sits between the record
//!   stores and their files.
//! * **Token stores** ([`token_store::TokenStores`]) intern label names,
//!   property keys and relationship type names.
//! * **One byte codec** ([`codec`]) encodes every format above, and the
//!   WAL's and the wire's, with one CRC-32.
//!
//! The top-level entry point is [`graph_store::GraphStore`], which exposes
//! the logical operations the transactional layers above need. Crucially —
//! and exactly as the paper prescribes — the persistent store holds **only
//! the most recent committed version** of each entity; older versions live
//! in the MVCC object cache (`graphsi-mvcc`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod error;
pub mod graph_store;
pub mod id_allocator;
pub mod ids;
pub mod page_cache;
pub mod pages;
pub mod property_store;
pub mod record;
pub mod store_file;
pub mod test_util;
pub mod token_store;
pub mod value;

pub use error::{Result, StorageError};
pub use graph_store::{
    GraphStore, GraphStoreConfig, GraphStoreStats, NodeScanCursor, RelChainCursor, RelScanCursor,
    StorePageReport, StoreTarget, StoredNode, StoredRelationship,
};
pub use ids::{
    DynamicRecordId, EntityId, LabelToken, NodeId, PropertyKeyToken, PropertyRecordId,
    RelTypeToken, RelationshipId, NO_ID,
};
pub use page_cache::{PageFault, RecoveryOutcome};
pub use value::{PropertyValue, ValueKey};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_reexports_are_usable() {
        let v = PropertyValue::from(1i64);
        assert_eq!(v.as_int(), Some(1));
        assert!(NodeId::NONE.is_none());
        assert_eq!(NO_ID, u64::MAX);
    }
}
