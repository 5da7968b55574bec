//! The property store: chained key/value records with a dynamic-store
//! overflow for long strings.
//!
//! Properties of nodes and relationships are stored "in a different file"
//! (the paper, §2) as a singly linked chain of fixed-size records anchored
//! at the owner's `first_prop` pointer. Values that do not fit inline spill
//! into the dynamic store as a chain of [`DynamicRecord`] blocks.

use std::path::Path;

use crate::error::{Result, StorageError};
use crate::ids::{DynamicRecordId, PropertyKeyToken, PropertyRecordId};
use crate::record::{
    DynamicRecord, PropertyRecord, StoredValue, DYNAMIC_DATA_SIZE, PROPERTY_INLINE_STRING_MAX,
};
use crate::store_file::RecordStore;
use crate::value::PropertyValue;

/// Upper bound on property-chain length used as a cycle guard when walking
/// chains of a (possibly corrupt) store.
const MAX_CHAIN_LENGTH: usize = 1_000_000;

/// The property store plus its dynamic (overflow) store.
pub struct PropertyStore {
    records: RecordStore<PropertyRecord>,
    dynamics: RecordStore<DynamicRecord>,
}

impl PropertyStore {
    /// Opens (creating if necessary) the property and dynamic store files
    /// inside `dir`, verifying page checksums on fault-in.
    pub fn open(dir: impl AsRef<Path>, cache_pages: usize) -> Result<Self> {
        Self::open_with(dir, cache_pages, true)
    }

    /// [`PropertyStore::open`] with an explicit choice of fault-in
    /// checksum verification.
    pub fn open_with(
        dir: impl AsRef<Path>,
        cache_pages: usize,
        verify_on_read: bool,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        Ok(PropertyStore {
            records: RecordStore::open_with(dir, "properties.db", cache_pages, verify_on_read)?,
            dynamics: RecordStore::open_with(dir, "strings.db", cache_pages, verify_on_read)?,
        })
    }

    /// The record store holding property records, for integrity plumbing.
    pub fn record_store(&self) -> &RecordStore<PropertyRecord> {
        &self.records
    }

    /// The dynamic (string overflow) store, for integrity plumbing.
    pub fn dynamic_store(&self) -> &RecordStore<DynamicRecord> {
        &self.dynamics
    }

    /// Writes a whole property chain and returns the ID of its first
    /// record, or [`PropertyRecordId::NONE`] for an empty property set.
    pub fn write_chain(
        &self,
        properties: &[(PropertyKeyToken, PropertyValue)],
    ) -> Result<PropertyRecordId> {
        if properties.is_empty() {
            return Ok(PropertyRecordId::NONE);
        }
        let ids: Vec<u64> = properties
            .iter()
            .map(|_| self.records.allocate_id())
            .collect();
        for (i, (key, value)) in properties.iter().enumerate() {
            let stored = self.store_value(value)?;
            let mut record = PropertyRecord::new_in_use(*key, stored);
            record.next = if i + 1 < ids.len() {
                PropertyRecordId::new(ids[i + 1])
            } else {
                PropertyRecordId::NONE
            };
            self.records.write(ids[i], &record)?;
        }
        Ok(PropertyRecordId::new(ids[0]))
    }

    /// Reads a whole property chain starting at `first`.
    pub fn read_chain(
        &self,
        first: PropertyRecordId,
    ) -> Result<Vec<(PropertyKeyToken, PropertyValue)>> {
        let mut out = Vec::new();
        let mut current = first;
        let mut steps = 0usize;
        while current.is_some() {
            if steps > MAX_CHAIN_LENGTH {
                return Err(StorageError::corrupt(
                    "property",
                    first.raw(),
                    "property chain exceeds maximum length (cycle?)",
                ));
            }
            steps += 1;
            let record = self.records.load_in_use(current.raw())?;
            let value = self.load_value(current.raw(), &record.value)?;
            out.push((record.key, value));
            current = record.next;
        }
        Ok(out)
    }

    /// Decodes a single property out of the chain starting at `first`,
    /// stopping at the first record whose key matches `key` — the fast
    /// path for decode-based predicate filters, which would otherwise
    /// materialise the whole property list (including dynamic-store string
    /// fetches for values the filter never looks at) per candidate.
    pub fn decode_property(
        &self,
        first: PropertyRecordId,
        key: PropertyKeyToken,
    ) -> Result<Option<PropertyValue>> {
        let mut found = [None];
        self.decode_selected(first, &[key], &mut found)?;
        let [value] = found;
        Ok(value)
    }

    /// Decodes only the properties whose keys appear in `keys`, writing
    /// each match into the corresponding slot of `out` (`out.len()` must
    /// equal `keys.len()`; slots are reset to `None` first). Walks the
    /// chain at most once and returns early once every requested key has
    /// been found; values of non-requested keys are never materialised.
    pub fn decode_selected(
        &self,
        first: PropertyRecordId,
        keys: &[PropertyKeyToken],
        out: &mut [Option<PropertyValue>],
    ) -> Result<()> {
        debug_assert_eq!(keys.len(), out.len());
        out.fill(None);
        let mut remaining = keys.len();
        let mut current = first;
        let mut steps = 0usize;
        while current.is_some() && remaining > 0 {
            if steps > MAX_CHAIN_LENGTH {
                return Err(StorageError::corrupt(
                    "property",
                    first.raw(),
                    "property chain exceeds maximum length (cycle?)",
                ));
            }
            steps += 1;
            let record = self.records.load_in_use(current.raw())?;
            let slot = keys
                .iter()
                .enumerate()
                .position(|(i, k)| *k == record.key && out[i].is_none());
            if let Some(i) = slot {
                out[i] = Some(self.load_value(current.raw(), &record.value)?);
                remaining -= 1;
            }
            current = record.next;
        }
        Ok(())
    }

    /// Frees every record of the chain starting at `first` (including any
    /// dynamic overflow blocks).
    pub fn free_chain(&self, first: PropertyRecordId) -> Result<()> {
        let mut current = first;
        let mut steps = 0usize;
        while current.is_some() {
            if steps > MAX_CHAIN_LENGTH {
                return Err(StorageError::corrupt(
                    "property",
                    first.raw(),
                    "property chain exceeds maximum length (cycle?)",
                ));
            }
            steps += 1;
            let record = self.records.load_in_use(current.raw())?;
            if let StoredValue::DynamicString {
                first: dyn_first, ..
            } = record.value
            {
                self.free_dynamic_chain(dyn_first)?;
            }
            self.records
                .write(current.raw(), &PropertyRecord::default())?;
            self.records.release_id(current.raw());
            current = record.next;
        }
        Ok(())
    }

    /// Number of in-use property records (walks the store; intended for
    /// tests and the storage experiments, not hot paths).
    pub fn count_in_use(&self) -> usize {
        self.records.scan().count()
    }

    /// Number of in-use dynamic records.
    pub fn count_dynamic_in_use(&self) -> usize {
        self.dynamics.scan().count()
    }

    /// Total record writes issued against the property and dynamic stores.
    pub fn record_writes(&self) -> u64 {
        self.records.cache_stats().record_writes + self.dynamics.cache_stats().record_writes
    }

    /// Flushes both underlying stores.
    pub fn flush(&self) -> Result<()> {
        self.records.flush()?;
        self.dynamics.flush()
    }

    /// Fuzzy-checkpoint flush of both underlying stores (see
    /// [`crate::store_file::StoreFile::flush_incremental`]). Returns the
    /// total pages written back.
    pub fn flush_incremental(&self, chunk: usize) -> Result<u64> {
        Ok(self.records.flush_incremental(chunk)? + self.dynamics.flush_incremental(chunk)?)
    }

    fn store_value(&self, value: &PropertyValue) -> Result<StoredValue> {
        Ok(match value {
            PropertyValue::Bool(b) => StoredValue::Bool(*b),
            PropertyValue::Int(i) => StoredValue::Int(*i),
            PropertyValue::Float(x) => StoredValue::Float(*x),
            PropertyValue::String(s) if s.len() <= PROPERTY_INLINE_STRING_MAX => {
                StoredValue::InlineString(s.clone())
            }
            PropertyValue::String(s) => {
                let first = self.write_dynamic_chain(s.as_bytes())?;
                StoredValue::DynamicString {
                    first,
                    len: s.len() as u32,
                }
            }
        })
    }

    fn load_value(&self, id: u64, stored: &StoredValue) -> Result<PropertyValue> {
        Ok(match stored {
            StoredValue::Null => {
                return Err(StorageError::corrupt(
                    "property",
                    id,
                    "unexpected null payload in stored property",
                ))
            }
            StoredValue::Bool(b) => PropertyValue::Bool(*b),
            StoredValue::Int(i) => PropertyValue::Int(*i),
            StoredValue::Float(x) => PropertyValue::Float(*x),
            StoredValue::InlineString(s) => PropertyValue::String(s.clone()),
            StoredValue::DynamicString { first, len } => {
                let bytes = self.read_dynamic_chain(*first, *len as usize)?;
                let s = String::from_utf8(bytes).map_err(|_| {
                    StorageError::corrupt("dynamic", first.raw(), "invalid UTF-8 in string chain")
                })?;
                PropertyValue::String(s)
            }
        })
    }

    fn write_dynamic_chain(&self, bytes: &[u8]) -> Result<DynamicRecordId> {
        let chunks: Vec<&[u8]> = bytes.chunks(DYNAMIC_DATA_SIZE).collect();
        debug_assert!(!chunks.is_empty(), "long strings are never empty");
        let ids: Vec<u64> = chunks.iter().map(|_| self.dynamics.allocate_id()).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            let mut record = DynamicRecord::new_in_use(chunk.to_vec());
            record.next = if i + 1 < ids.len() {
                DynamicRecordId::new(ids[i + 1])
            } else {
                DynamicRecordId::NONE
            };
            self.dynamics.write(ids[i], &record)?;
        }
        Ok(DynamicRecordId::new(ids[0]))
    }

    fn read_dynamic_chain(&self, first: DynamicRecordId, expected_len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(expected_len);
        let mut current = first;
        let mut steps = 0usize;
        while current.is_some() {
            if steps > MAX_CHAIN_LENGTH {
                return Err(StorageError::corrupt(
                    "dynamic",
                    first.raw(),
                    "dynamic chain exceeds maximum length (cycle?)",
                ));
            }
            steps += 1;
            let record = self.dynamics.load_in_use(current.raw())?;
            out.extend_from_slice(&record.data);
            current = record.next;
        }
        if out.len() != expected_len {
            return Err(StorageError::corrupt(
                "dynamic",
                first.raw(),
                format!("expected {expected_len} bytes, found {}", out.len()),
            ));
        }
        Ok(out)
    }

    fn free_dynamic_chain(&self, first: DynamicRecordId) -> Result<()> {
        let mut current = first;
        let mut steps = 0usize;
        while current.is_some() {
            if steps > MAX_CHAIN_LENGTH {
                return Err(StorageError::corrupt(
                    "dynamic",
                    first.raw(),
                    "dynamic chain exceeds maximum length (cycle?)",
                ));
            }
            steps += 1;
            let record = self.dynamics.load_in_use(current.raw())?;
            self.dynamics
                .write(current.raw(), &DynamicRecord::default())?;
            self.dynamics.release_id(current.raw());
            current = record.next;
        }
        Ok(())
    }
}

impl std::fmt::Debug for PropertyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PropertyStore")
            .field("properties", &self.records.high_id())
            .field("dynamic_blocks", &self.dynamics.high_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;

    fn key(k: u32) -> PropertyKeyToken {
        PropertyKeyToken(k)
    }

    #[test]
    fn empty_chain_is_none() {
        let dir = TempDir::new("props_empty");
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        let first = store.write_chain(&[]).unwrap();
        assert!(first.is_none());
        assert!(store.read_chain(first).unwrap().is_empty());
    }

    #[test]
    fn chain_roundtrip_all_types() {
        let dir = TempDir::new("props_roundtrip");
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        let props = vec![
            (key(0), PropertyValue::Bool(true)),
            (key(1), PropertyValue::Int(-7)),
            (key(2), PropertyValue::Float(1.5)),
            (key(3), PropertyValue::String("short".to_owned())),
        ];
        let first = store.write_chain(&props).unwrap();
        assert!(first.is_some());
        assert_eq!(store.read_chain(first).unwrap(), props);
    }

    #[test]
    fn long_string_spills_to_dynamic_store() {
        let dir = TempDir::new("props_long");
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        let long = "x".repeat(DYNAMIC_DATA_SIZE * 3 + 17);
        let props = vec![(key(9), PropertyValue::String(long.clone()))];
        let first = store.write_chain(&props).unwrap();
        assert!(store.count_dynamic_in_use() >= 4);
        let back = store.read_chain(first).unwrap();
        assert_eq!(back[0].1, PropertyValue::String(long));
    }

    #[test]
    fn unicode_long_string_roundtrip() {
        let dir = TempDir::new("props_unicode");
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        let long = "héllø→🌍 ".repeat(100);
        let first = store
            .write_chain(&[(key(0), PropertyValue::String(long.clone()))])
            .unwrap();
        let back = store.read_chain(first).unwrap();
        assert_eq!(back[0].1.as_str(), Some(long.as_str()));
    }

    #[test]
    fn free_chain_releases_everything() {
        let dir = TempDir::new("props_free");
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        let long = "y".repeat(DYNAMIC_DATA_SIZE * 2 + 5);
        let props = vec![
            (key(0), PropertyValue::Int(1)),
            (key(1), PropertyValue::String(long)),
            (key(2), PropertyValue::Bool(false)),
        ];
        let first = store.write_chain(&props).unwrap();
        assert_eq!(store.count_in_use(), 3);
        assert_eq!(store.count_dynamic_in_use(), 3);
        store.free_chain(first).unwrap();
        assert_eq!(store.count_in_use(), 0);
        assert_eq!(store.count_dynamic_in_use(), 0);
        // Freed slots are reused by the next chain.
        let again = store
            .write_chain(&[(key(5), PropertyValue::Int(2))])
            .unwrap();
        assert!(again.raw() < 3);
    }

    #[test]
    fn chains_persist_across_reopen() {
        let dir = TempDir::new("props_reopen");
        let props = vec![
            (key(0), PropertyValue::Int(42)),
            (key(1), PropertyValue::String("durable".to_owned())),
        ];
        let first;
        {
            let store = PropertyStore::open(dir.path(), 8).unwrap();
            first = store.write_chain(&props).unwrap();
            store.flush().unwrap();
        }
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        assert_eq!(store.read_chain(first).unwrap(), props);
    }

    #[test]
    fn boundary_string_length_stays_inline() {
        let dir = TempDir::new("props_boundary");
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        let s = "a".repeat(PROPERTY_INLINE_STRING_MAX);
        let first = store
            .write_chain(&[(key(0), PropertyValue::String(s.clone()))])
            .unwrap();
        assert_eq!(store.count_dynamic_in_use(), 0);
        assert_eq!(
            store.read_chain(first).unwrap()[0].1.as_str(),
            Some(s.as_str())
        );

        let s2 = "a".repeat(PROPERTY_INLINE_STRING_MAX + 1);
        store
            .write_chain(&[(key(1), PropertyValue::String(s2))])
            .unwrap();
        assert!(store.count_dynamic_in_use() > 0);
    }

    #[test]
    fn decode_property_stops_at_first_match() {
        let dir = TempDir::new("props_decode_one");
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        let long = "z".repeat(DYNAMIC_DATA_SIZE * 2 + 3);
        let props = vec![
            (key(0), PropertyValue::Int(7)),
            (key(1), PropertyValue::String(long.clone())),
            (key(2), PropertyValue::Bool(true)),
        ];
        let first = store.write_chain(&props).unwrap();
        assert_eq!(
            store.decode_property(first, key(0)).unwrap(),
            Some(PropertyValue::Int(7))
        );
        assert_eq!(
            store.decode_property(first, key(2)).unwrap(),
            Some(PropertyValue::Bool(true))
        );
        assert_eq!(store.decode_property(first, key(9)).unwrap(), None);
        assert_eq!(
            store
                .decode_property(PropertyRecordId::NONE, key(0))
                .unwrap(),
            None
        );
        // The long string is still decodable when explicitly requested.
        assert_eq!(
            store.decode_property(first, key(1)).unwrap(),
            Some(PropertyValue::String(long))
        );
    }

    #[test]
    fn decode_selected_fills_requested_slots_only() {
        let dir = TempDir::new("props_decode_sel");
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        let props = vec![
            (key(0), PropertyValue::Int(1)),
            (key(1), PropertyValue::Int(2)),
            (key(2), PropertyValue::Int(3)),
        ];
        let first = store.write_chain(&props).unwrap();
        let mut out = [Some(PropertyValue::Bool(false)), None, None];
        store
            .decode_selected(first, &[key(2), key(7), key(0)], &mut out)
            .unwrap();
        assert_eq!(
            out,
            [
                Some(PropertyValue::Int(3)),
                None,
                Some(PropertyValue::Int(1))
            ]
        );
    }

    #[test]
    fn many_chains_coexist() {
        let dir = TempDir::new("props_many");
        let store = PropertyStore::open(dir.path(), 8).unwrap();
        let mut firsts = Vec::new();
        for i in 0..100i64 {
            let props = vec![
                (key(0), PropertyValue::Int(i)),
                (key(1), PropertyValue::Int(i * 2)),
            ];
            firsts.push((store.write_chain(&props).unwrap(), props));
        }
        for (first, props) in firsts {
            assert_eq!(store.read_chain(first).unwrap(), props);
        }
    }
}
