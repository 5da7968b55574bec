//! Generic fixed-size record store: a paged file plus an ID allocator.
//!
//! Every concrete store (nodes, relationships, properties, dynamic blocks)
//! is a [`RecordStore`] instantiated with the record type, exactly matching
//! the "position in the file is determined by the identifier" layout the
//! paper describes for Neo4j.

use std::path::Path;

use crate::error::{Result, StorageError};
use crate::id_allocator::IdAllocator;
use crate::page_cache::{PageCache, PageCacheStats};
use crate::pages::locate_record;
use crate::record::{
    DynamicRecord, NodeRecord, PropertyRecord, RelationshipRecord, DYNAMIC_RECORD_SIZE,
    NODE_RECORD_SIZE, PROPERTY_RECORD_SIZE, RELATIONSHIP_RECORD_SIZE,
};

/// A record type that can live in a [`RecordStore`].
pub trait Record: Sized + Clone {
    /// Fixed byte size of one record.
    const SIZE: usize;
    /// Human readable store name used in error messages.
    const STORE_NAME: &'static str;

    /// Serialises the record into `buf`, which is exactly [`Self::SIZE`]
    /// bytes long.
    fn encode_into(&self, buf: &mut [u8]) -> Result<()>;

    /// Deserialises a record from `buf`.
    fn decode_from(id: u64, buf: &[u8]) -> Result<Self>;

    /// Whether the record slot is in use.
    fn in_use(&self) -> bool;
}

impl Record for NodeRecord {
    const SIZE: usize = NODE_RECORD_SIZE;
    const STORE_NAME: &'static str = "node";

    fn encode_into(&self, buf: &mut [u8]) -> Result<()> {
        buf.copy_from_slice(&self.encode()?);
        Ok(())
    }

    fn decode_from(id: u64, buf: &[u8]) -> Result<Self> {
        NodeRecord::decode(id, buf)
    }

    fn in_use(&self) -> bool {
        self.in_use
    }
}

impl Record for RelationshipRecord {
    const SIZE: usize = RELATIONSHIP_RECORD_SIZE;
    const STORE_NAME: &'static str = "relationship";

    fn encode_into(&self, buf: &mut [u8]) -> Result<()> {
        buf.copy_from_slice(&self.encode());
        Ok(())
    }

    fn decode_from(id: u64, buf: &[u8]) -> Result<Self> {
        RelationshipRecord::decode(id, buf)
    }

    fn in_use(&self) -> bool {
        self.in_use
    }
}

impl Record for PropertyRecord {
    const SIZE: usize = PROPERTY_RECORD_SIZE;
    const STORE_NAME: &'static str = "property";

    fn encode_into(&self, buf: &mut [u8]) -> Result<()> {
        buf.copy_from_slice(&self.encode()?);
        Ok(())
    }

    fn decode_from(id: u64, buf: &[u8]) -> Result<Self> {
        PropertyRecord::decode(id, buf)
    }

    fn in_use(&self) -> bool {
        self.in_use
    }
}

impl Record for DynamicRecord {
    const SIZE: usize = DYNAMIC_RECORD_SIZE;
    const STORE_NAME: &'static str = "dynamic";

    fn encode_into(&self, buf: &mut [u8]) -> Result<()> {
        buf.copy_from_slice(&self.encode()?);
        Ok(())
    }

    fn decode_from(id: u64, buf: &[u8]) -> Result<Self> {
        DynamicRecord::decode(id, buf)
    }

    fn in_use(&self) -> bool {
        self.in_use
    }
}

/// A store of fixed-size records of type `R` backed by one paged file and
/// one ID allocator.
pub struct RecordStore<R: Record> {
    cache: PageCache,
    ids: IdAllocator,
    _marker: std::marker::PhantomData<R>,
}

impl<R: Record> RecordStore<R> {
    /// Opens (creating if necessary) the store file `<dir>/<file_name>` and
    /// its `.id` sidecar, keeping up to `cache_pages` pages in memory.
    /// Page checksums are verified on fault-in.
    pub fn open(dir: impl AsRef<Path>, file_name: &str, cache_pages: usize) -> Result<Self> {
        let dir = dir.as_ref();
        let cache = PageCache::open(dir.join(file_name), cache_pages)?;
        let ids = IdAllocator::open(dir.join(format!("{file_name}.id")))?;
        Ok(RecordStore {
            cache,
            ids,
            _marker: std::marker::PhantomData,
        })
    }

    /// The page cache backing this store, for integrity plumbing (trailer
    /// stamps, recovery suspect mode, fault injection, verifier walks).
    pub fn page_cache(&self) -> &PageCache {
        &self.cache
    }

    /// Allocates a fresh record ID (reusing freed slots when possible).
    pub fn allocate_id(&self) -> u64 {
        self.ids.allocate()
    }

    /// Releases a record ID back to the free-list. The caller should also
    /// overwrite the slot with a not-in-use record.
    pub fn release_id(&self, id: u64) {
        self.ids.release(id);
    }

    /// Ensures the high-water mark covers `next`, used during recovery.
    pub fn bump_high_id(&self, next: u64) {
        self.ids.bump_high_id(next);
    }

    /// One past the largest record ID ever allocated.
    pub fn high_id(&self) -> u64 {
        self.ids.high_id()
    }

    /// Loads record `id` regardless of its in-use flag. Slots that were
    /// never written decode as "not in use".
    pub fn load(&self, id: u64) -> Result<R> {
        let loc = locate_record(id, R::SIZE);
        self.cache.with_page(loc.page_no, |page| {
            R::decode_from(id, &page[loc.offset_in_page..loc.offset_in_page + R::SIZE])
        })?
    }

    /// Loads record `id`, failing if the slot is not in use.
    pub fn load_in_use(&self, id: u64) -> Result<R> {
        let record = self.load(id)?;
        if record.in_use() {
            Ok(record)
        } else {
            Err(StorageError::RecordNotInUse {
                store: R::STORE_NAME,
                id,
            })
        }
    }

    /// Writes record `id`.
    pub fn write(&self, id: u64, record: &R) -> Result<()> {
        let loc = locate_record(id, R::SIZE);
        self.cache.with_page_mut(loc.page_no, |page| {
            record.encode_into(&mut page[loc.offset_in_page..loc.offset_in_page + R::SIZE])
        })?
    }

    /// Atomically read-modify-writes the in-use record `id` under its page
    /// lock: decode, apply `f`, re-encode, all inside one
    /// [`PageCache::with_page_mut`] call.
    ///
    /// This exists for mutations of *shared* records by writers that are
    /// not otherwise serialised against each other: a relationship record
    /// sits on both endpoint nodes' chains, and two chain splices — one
    /// per endpoint, each holding only its own endpoint's store-apply
    /// shard — may rewrite the same record's (disjoint, per-endpoint)
    /// chain pointers concurrently. A separate `load` + `write` pair
    /// would let one splice overwrite the other's update wholesale; the
    /// single-call form makes the two commute.
    ///
    /// [`PageCache::with_page_mut`]: crate::page_cache::PageCache::with_page_mut
    pub fn update_in_use(&self, id: u64, f: impl FnOnce(&mut R)) -> Result<()> {
        let loc = locate_record(id, R::SIZE);
        self.cache.with_page_mut(loc.page_no, |page| {
            let bytes = &mut page[loc.offset_in_page..loc.offset_in_page + R::SIZE];
            let mut record = R::decode_from(id, bytes)?;
            if !record.in_use() {
                return Err(StorageError::RecordNotInUse {
                    store: R::STORE_NAME,
                    id,
                });
            }
            f(&mut record);
            record.encode_into(bytes)
        })?
    }

    /// Flushes dirty pages and persists the ID allocator.
    pub fn flush(&self) -> Result<()> {
        self.cache.flush()?;
        self.ids.persist()
    }

    /// Fuzzy-checkpoint flush: writes back the currently-dirty pages at
    /// most `chunk` at a time without blocking concurrent record writes
    /// (see [`PageCache::flush_incremental`]), then persists the ID
    /// allocator. Returns the number of pages written back.
    pub fn flush_incremental(&self, chunk: usize) -> Result<u64> {
        let flushed = self.cache.flush_incremental(chunk)?;
        self.ids.persist()?;
        Ok(flushed)
    }

    /// Returns the page-cache counters for this store.
    pub fn cache_stats(&self) -> PageCacheStats {
        self.cache.stats()
    }

    /// Number of IDs currently waiting for reuse.
    pub fn free_ids(&self) -> usize {
        self.ids.free_count()
    }

    /// Iterates over all in-use records in ID order.
    pub fn scan(&self) -> StoreScan<'_, R> {
        StoreScan {
            store: self,
            next: 0,
            high: self.high_id(),
        }
    }
}

impl<R: Record> std::fmt::Debug for RecordStore<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordStore")
            .field("store", &R::STORE_NAME)
            .field("high_id", &self.high_id())
            .finish()
    }
}

/// Iterator over the in-use records of a store.
pub struct StoreScan<'a, R: Record> {
    store: &'a RecordStore<R>,
    next: u64,
    high: u64,
}

impl<R: Record> Iterator for StoreScan<'_, R> {
    type Item = Result<(u64, R)>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.high {
            let id = self.next;
            self.next += 1;
            match self.store.load(id) {
                Ok(record) if record.in_use() => return Some(Ok((id, record))),
                Ok(_) => continue,
                Err(e) => return Some(Err(e)),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LabelToken, NodeId, PropertyRecordId, RelTypeToken, RelationshipId};
    use crate::test_util::TempDir;

    fn node(labels: &[u32]) -> NodeRecord {
        let mut rec = NodeRecord::new_in_use();
        rec.labels = labels.iter().copied().map(LabelToken).collect();
        rec
    }

    #[test]
    fn write_and_read_back() {
        let dir = TempDir::new("record_store");
        let store: RecordStore<NodeRecord> = RecordStore::open(dir.path(), "nodes.db", 8).unwrap();
        let id = store.allocate_id();
        let rec = node(&[1, 2]);
        store.write(id, &rec).unwrap();
        assert_eq!(store.load(id).unwrap(), rec);
        assert_eq!(store.load_in_use(id).unwrap(), rec);
    }

    #[test]
    fn unwritten_slot_is_not_in_use() {
        let dir = TempDir::new("record_store_unused");
        let store: RecordStore<NodeRecord> = RecordStore::open(dir.path(), "nodes.db", 8).unwrap();
        let rec = store.load(5).unwrap();
        assert!(!rec.in_use);
        assert!(store.load_in_use(5).is_err());
    }

    #[test]
    fn persists_across_reopen() {
        let dir = TempDir::new("record_store_reopen");
        let id;
        {
            let store: RecordStore<RelationshipRecord> =
                RecordStore::open(dir.path(), "rels.db", 8).unwrap();
            id = store.allocate_id();
            let rec =
                RelationshipRecord::new_in_use(NodeId::new(3), NodeId::new(9), RelTypeToken(2));
            store.write(id, &rec).unwrap();
            store.flush().unwrap();
        }
        let store: RecordStore<RelationshipRecord> =
            RecordStore::open(dir.path(), "rels.db", 8).unwrap();
        let rec = store.load_in_use(id).unwrap();
        assert_eq!(rec.source, NodeId::new(3));
        assert_eq!(rec.target, NodeId::new(9));
        assert_eq!(store.high_id(), id + 1);
    }

    #[test]
    fn scan_skips_unused_slots() {
        let dir = TempDir::new("record_store_scan");
        let store: RecordStore<NodeRecord> = RecordStore::open(dir.path(), "nodes.db", 8).unwrap();
        let mut written = Vec::new();
        for i in 0..20u64 {
            let id = store.allocate_id();
            if i % 3 == 0 {
                store.write(id, &node(&[i as u32])).unwrap();
                written.push(id);
            }
        }
        let scanned: Vec<u64> = store.scan().map(|r| r.unwrap().0).collect();
        assert_eq!(scanned, written);
    }

    #[test]
    fn release_and_reuse_slot() {
        let dir = TempDir::new("record_store_release");
        let store: RecordStore<NodeRecord> = RecordStore::open(dir.path(), "nodes.db", 8).unwrap();
        let id = store.allocate_id();
        store.write(id, &node(&[])).unwrap();
        // Delete: mark not in use and release the ID.
        store.write(id, &NodeRecord::default()).unwrap();
        store.release_id(id);
        assert_eq!(store.free_ids(), 1);
        assert_eq!(store.allocate_id(), id);
    }

    #[test]
    fn many_records_span_pages() {
        let dir = TempDir::new("record_store_pages");
        let store: RecordStore<PropertyRecord> =
            RecordStore::open(dir.path(), "props.db", 4).unwrap();
        let per_page = crate::pages::records_per_page(PROPERTY_RECORD_SIZE) as usize;
        let total = per_page * 5 + 3;
        for i in 0..total as u64 {
            let id = store.allocate_id();
            assert_eq!(id, i);
            let rec = PropertyRecord::new_in_use(
                crate::ids::PropertyKeyToken(i as u32),
                crate::record::StoredValue::Int(i as i64),
            );
            store.write(id, &rec).unwrap();
        }
        store.flush().unwrap();
        for i in 0..total as u64 {
            let rec = store.load_in_use(i).unwrap();
            assert_eq!(rec.key.0, i as u32);
        }
        assert_eq!(store.scan().count(), total);
    }

    #[test]
    fn update_in_use_mutates_atomically_and_rejects_free_slots() {
        let dir = TempDir::new("record_store_update");
        let store: RecordStore<RelationshipRecord> =
            RecordStore::open(dir.path(), "rels.db", 8).unwrap();
        let id = store.allocate_id();
        let rec = RelationshipRecord::new_in_use(NodeId::new(1), NodeId::new(2), RelTypeToken(0));
        store.write(id, &rec).unwrap();
        store
            .update_in_use(id, |r| {
                r.first_prop = PropertyRecordId::new(77);
            })
            .unwrap();
        assert_eq!(
            store.load_in_use(id).unwrap().first_prop,
            PropertyRecordId::new(77)
        );
        let free = store.allocate_id();
        assert!(store.update_in_use(free, |_| {}).is_err());
    }

    #[test]
    fn concurrent_disjoint_field_updates_commute() {
        // The chain-splice hazard in miniature: two threads each rewrite
        // *their* endpoint's pointer pair of the same relationship record.
        // With load+write pairs one side's update could be lost wholesale;
        // the atomic read-modify-write makes them commute.
        use std::sync::Arc;
        let dir = TempDir::new("record_store_commute");
        let store: Arc<RecordStore<RelationshipRecord>> =
            Arc::new(RecordStore::open(dir.path(), "rels.db", 8).unwrap());
        let id = store.allocate_id();
        let (n1, n2) = (NodeId::new(1), NodeId::new(2));
        store
            .write(id, &RelationshipRecord::new_in_use(n1, n2, RelTypeToken(0)))
            .unwrap();
        let mut handles = Vec::new();
        for (node, tag) in [(n1, 100u64), (n2, 200u64)] {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    store
                        .update_in_use(id, |r| {
                            r.set_chain_for(
                                node,
                                RelationshipId::new(tag + i),
                                RelationshipId::new(tag + i + 1),
                            );
                        })
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let rec = store.load_in_use(id).unwrap();
        assert_eq!(
            rec.chain_for(n1),
            (RelationshipId::new(599), RelationshipId::new(600)),
            "source-side pointers lost to the target-side writer"
        );
        assert_eq!(
            rec.chain_for(n2),
            (RelationshipId::new(699), RelationshipId::new(700)),
            "target-side pointers lost to the source-side writer"
        );
    }

    #[test]
    fn first_prop_pointer_roundtrip() {
        let dir = TempDir::new("record_store_ptr");
        let store: RecordStore<NodeRecord> = RecordStore::open(dir.path(), "nodes.db", 8).unwrap();
        let id = store.allocate_id();
        let mut rec = NodeRecord::new_in_use();
        rec.first_rel = RelationshipId::new(1234);
        rec.first_prop = PropertyRecordId::new(5678);
        store.write(id, &rec).unwrap();
        let back = store.load(id).unwrap();
        assert_eq!(back.first_rel, RelationshipId::new(1234));
        assert_eq!(back.first_prop, PropertyRecordId::new(5678));
    }
}
