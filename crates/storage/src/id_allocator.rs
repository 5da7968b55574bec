//! Record-ID allocation with free-list reuse.
//!
//! Like Neo4j's `IdGenerator`, every store keeps a high-water mark and a
//! free-list of previously released IDs; new allocations prefer reusing a
//! freed slot so store files do not grow unboundedly under churn. The
//! allocator state is persisted in a sidecar `.id` file on flush.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::codec::{put_u64, CodecError, Reader};
use crate::error::{Result, StorageError};

/// Allocates record IDs for one store.
pub struct IdAllocator {
    path: PathBuf,
    next: AtomicU64,
    free: Mutex<Vec<u64>>,
}

impl IdAllocator {
    /// Opens the allocator persisted at `path` (a `.id` sidecar file),
    /// starting fresh if the file does not exist.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let (next, free) = match fs::read(&path) {
            Ok(bytes) => Self::decode(&bytes, &path)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (0, Vec::new()),
            Err(e) => return Err(StorageError::io("reading id file", e)),
        };
        Ok(IdAllocator {
            path,
            next: AtomicU64::new(next),
            // Lock-order rank: see the README's lock-rank map.
            free: Mutex::with_rank(free, 2730, "storage.id_free_list"),
        })
    }

    /// Creates an in-memory allocator that is never persisted. Used by
    /// tests and by stores opened in ephemeral mode.
    pub fn ephemeral() -> Self {
        IdAllocator {
            path: PathBuf::new(),
            next: AtomicU64::new(0),
            free: Mutex::with_rank(Vec::new(), 2730, "storage.id_free_list"),
        }
    }

    /// Allocates an ID, preferring the free-list.
    pub fn allocate(&self) -> u64 {
        if let Some(id) = self.free.lock().pop() {
            return id;
        }
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns an ID to the free-list for later reuse.
    pub fn release(&self, id: u64) {
        self.free.lock().push(id);
    }

    /// The current high-water mark: one past the largest ID ever handed
    /// out.
    pub fn high_id(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Number of IDs currently sitting in the free-list.
    pub fn free_count(&self) -> usize {
        self.free.lock().len()
    }

    /// Ensures the high-water mark is at least `next`, used during
    /// recovery when the WAL references IDs newer than the persisted
    /// allocator state.
    pub fn bump_high_id(&self, next: u64) {
        self.next.fetch_max(next, Ordering::Relaxed);
    }

    /// Persists the allocator state to its sidecar file. A no-op for
    /// ephemeral allocators.
    pub fn persist(&self) -> Result<()> {
        if self.path.as_os_str().is_empty() {
            return Ok(());
        }
        let free = self.free.lock();
        let mut bytes = Vec::with_capacity(16 + free.len() * 8);
        put_u64(&mut bytes, self.next.load(Ordering::Relaxed));
        put_u64(&mut bytes, free.len() as u64);
        for &id in free.iter() {
            put_u64(&mut bytes, id);
        }
        fs::write(&self.path, bytes).map_err(|e| StorageError::io("writing id file", e))
    }

    /// Decodes an `.id` sidecar: little-endian `u64` words holding
    /// `next`, the free-list length, then the free-list.
    fn decode(bytes: &[u8], path: &Path) -> Result<(u64, Vec<u64>)> {
        fn words(r: &mut Reader<'_>) -> std::result::Result<(u64, Vec<u64>), CodecError> {
            let next = r.u64()?;
            let count = r.count(Reader::u64, 8)?;
            let free = (0..count)
                .map(|_| r.u64())
                .collect::<std::result::Result<_, _>>()?;
            Ok((next, free))
        }
        words(&mut Reader::new(bytes)).map_err(|e| StorageError::InvalidStoreDirectory {
            path: path.to_path_buf(),
            reason: format!("corrupt id file: {e}"),
        })
    }
}

impl std::fmt::Debug for IdAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IdAllocator")
            .field("high_id", &self.high_id())
            .field("free", &self.free_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;
    use std::collections::HashSet;

    #[test]
    fn allocates_sequentially_from_zero() {
        let alloc = IdAllocator::ephemeral();
        assert_eq!(alloc.allocate(), 0);
        assert_eq!(alloc.allocate(), 1);
        assert_eq!(alloc.allocate(), 2);
        assert_eq!(alloc.high_id(), 3);
    }

    #[test]
    fn released_ids_are_reused() {
        let alloc = IdAllocator::ephemeral();
        let a = alloc.allocate();
        let _b = alloc.allocate();
        alloc.release(a);
        assert_eq!(alloc.free_count(), 1);
        assert_eq!(alloc.allocate(), a);
        assert_eq!(alloc.free_count(), 0);
    }

    #[test]
    fn persist_and_reopen() {
        let dir = TempDir::new("id_alloc");
        let path = dir.path().join("nodes.id");
        {
            let alloc = IdAllocator::open(&path).unwrap();
            for _ in 0..10 {
                alloc.allocate();
            }
            alloc.release(3);
            alloc.release(7);
            alloc.persist().unwrap();
        }
        let alloc = IdAllocator::open(&path).unwrap();
        assert_eq!(alloc.high_id(), 10);
        assert_eq!(alloc.free_count(), 2);
        let reused: HashSet<u64> = (0..2).map(|_| alloc.allocate()).collect();
        assert_eq!(reused, HashSet::from([3, 7]));
    }

    #[test]
    fn bump_high_id_never_decreases() {
        let alloc = IdAllocator::ephemeral();
        alloc.bump_high_id(100);
        assert_eq!(alloc.high_id(), 100);
        alloc.bump_high_id(50);
        assert_eq!(alloc.high_id(), 100);
        assert_eq!(alloc.allocate(), 100);
    }

    #[test]
    fn corrupt_id_file_is_rejected() {
        let dir = TempDir::new("id_alloc_corrupt");
        let path = dir.path().join("bad.id");
        std::fs::write(&path, [1, 2, 3]).unwrap();
        assert!(IdAllocator::open(&path).is_err());
    }

    #[test]
    fn huge_free_list_count_is_rejected_without_overflow() {
        let dir = TempDir::new("id_alloc_huge_count");
        let path = dir.path().join("huge.id");
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            IdAllocator::open(&path),
            Err(StorageError::InvalidStoreDirectory { .. })
        ));
    }

    #[test]
    fn concurrent_allocations_are_unique() {
        use std::sync::Arc;
        let alloc = Arc::new(IdAllocator::ephemeral());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let alloc = Arc::clone(&alloc);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| alloc.allocate()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(all.len(), 4000);
    }
}
