//! A small page cache sitting between the record stores and their files.
//!
//! Each store file gets its own [`PageCache`]. Pages are loaded on demand,
//! kept pinned in memory up to a configurable capacity and evicted with an
//! LRU policy, writing dirty pages back to the file on eviction and on
//! [`PageCache::flush`].
//!
//! ## Integrity
//!
//! Every write-back seals the page's integrity trailer (CRC + stamp, see
//! [`crate::pages`]), so the on-disk image always carries a checksum. On
//! fault-in the trailer is verified (when `verify_on_read` is on, the
//! default) and a mismatch surfaces as a typed
//! [`StorageError::PageChecksum`] instead of decoding garbage. During
//! recovery the cache can be switched into a permissive mode
//! ([`PageCache::begin_recovery`]) that *collects* checksum-failed pages
//! as suspects instead of failing: WAL replay then rewrites the records
//! it covers, and [`PageCache::end_recovery`] reports which suspects were
//! rebuilt (dirtied by replay — a torn write healed) and which remain
//! unexplained (fatal corruption).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::{Result, StorageError};
use crate::pages::{Page, PageVerdict, PAGE_SIZE};

/// Counters describing page-cache behaviour, useful for the benchmark's
/// storage metrics and for tuning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Page requests satisfied from memory.
    pub hits: u64,
    /// Page requests that had to read the file.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back to the file.
    pub pages_flushed: u64,
    /// Individual record writes that dirtied a page.
    pub record_writes: u64,
    /// Pages whose trailer failed verification on fault-in (fatal reads
    /// and recovery-mode suspects both count).
    pub checksum_failures: u64,
    /// Recovery-mode suspect pages rebuilt by WAL replay.
    pub torn_pages_recovered: u64,
}

/// A write-back fault the cache can be armed to inject, for crash-matrix
/// tests (the storage analogue of `Wal::fail_syncs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageFault {
    /// Only the first half of the page image reaches the file; the rest
    /// keeps whatever the disk held before (a torn sector write).
    TornHalf,
    /// The write is silently dropped: the file keeps the previous page
    /// image, whose trailer is internally consistent but stale.
    Stale,
    /// The full image is written with one bit flipped mid-body.
    BitFlip,
}

/// Result of one bounded [`PageCache::verify_pages`] sweep.
#[derive(Clone, Debug, Default)]
pub struct VerifySweep {
    /// Pages examined in this sweep (resident pages count as checked —
    /// the in-memory copy is authoritative and reseals at flush).
    pub checked: u64,
    /// Corrupt on-disk pages as `(page, computed_crc, stored_crc)`.
    pub corrupt: Vec<(u64, u32, u32)>,
    /// Where the next sweep should start, or `None` when the file is
    /// exhausted.
    pub next: Option<u64>,
}

/// What [`PageCache::end_recovery`] found: suspects rebuilt by replay and
/// suspects nothing rewrote.
#[derive(Clone, Debug, Default)]
pub struct RecoveryOutcome {
    /// Checksum-failed pages that WAL replay dirtied — torn writes fully
    /// covered by the log, rebuilt in memory and re-sealed at next flush.
    pub recovered: Vec<u64>,
    /// Checksum-failed pages replay never touched, with the CRC pair
    /// `(computed, stored)` observed at fault-in. Unexplainable by a torn
    /// write: fatal corruption.
    pub unresolved: Vec<(u64, u32, u32)>,
}

struct Frame {
    page: Page,
    dirty: bool,
    last_used: u64,
}

struct CacheInner {
    file: File,
    frames: HashMap<u64, Frame>,
    tick: u64,
    stats: PageCacheStats,
    /// Number of pages the backing file is known to contain.
    file_pages: u64,
    /// When `Some`, fault-ins that fail verification are recorded here
    /// (page → CRC pair) instead of erroring — recovery mode.
    suspects: Option<HashMap<u64, (u32, u32)>>,
    /// Suspect pages rewritten while recovery mode was active.
    recovered: Vec<u64>,
    /// One-shot write-back fault to inject, if armed.
    fault: Option<PageFault>,
}

/// An LRU page cache over a single store file.
pub struct PageCache {
    path: PathBuf,
    capacity: usize,
    verify_on_read: bool,
    /// Stamp written into page trailers at write-back (checkpoint epoch;
    /// purely diagnostic).
    stamp: AtomicU64,
    inner: Mutex<CacheInner>,
}

impl PageCache {
    /// Opens (creating if necessary) the file at `path` with room for
    /// `capacity` cached pages and checksum verification on fault-in. A
    /// capacity of zero is rounded up to one.
    pub fn open(path: impl AsRef<Path>, capacity: usize) -> Result<Self> {
        Self::open_with(path, capacity, true)
    }

    /// [`PageCache::open`] with an explicit `verify_on_read` choice.
    /// Short-read tails with non-zero bytes are still rejected even when
    /// verification is off — those are unambiguous torn writes.
    pub fn open_with(
        path: impl AsRef<Path>,
        capacity: usize,
        verify_on_read: bool,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|source| StorageError::OpenFailed {
                path: path.clone(),
                source,
            })?;
        let len = file
            .metadata()
            .map_err(|e| StorageError::io("reading file metadata", e))?
            .len();
        let file_pages = len.div_ceil(PAGE_SIZE as u64);
        Ok(PageCache {
            path,
            capacity: capacity.max(1),
            verify_on_read,
            stamp: AtomicU64::new(0),
            // Lock-order rank: see the README's lock-rank map (a leaf —
            // never held across another acquisition).
            inner: Mutex::with_rank(
                CacheInner {
                    file,
                    frames: HashMap::new(),
                    tick: 0,
                    stats: PageCacheStats::default(),
                    file_pages,
                    suspects: None,
                    recovered: Vec::new(),
                    fault: None,
                },
                2710,
                "storage.page_cache",
            ),
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file name of the backing file, for error reporting.
    fn file_name(&self) -> String {
        self.path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| self.path.display().to_string())
    }

    /// Sets the stamp sealed into page trailers at write-back. The core
    /// points this at the checkpoint epoch so a corrupted page can be
    /// dated; it never participates in verification.
    pub fn set_stamp(&self, stamp: u64) {
        self.stamp.store(stamp, Ordering::Relaxed);
    }

    /// Arms a one-shot write-back fault: the next page written back
    /// suffers `fault` while the cache pretends the write succeeded —
    /// exactly what a crash between DMA and completion does. Testing hook
    /// for the store crash-point matrix.
    pub fn inject_write_fault(&self, fault: PageFault) {
        self.inner.lock().fault = Some(fault);
    }

    /// Enters recovery mode: fault-ins that fail verification are
    /// recorded as suspects and served as-read instead of erroring, so
    /// WAL replay can rebuild the records it covers.
    pub fn begin_recovery(&self) {
        let mut inner = self.inner.lock();
        if inner.suspects.is_none() {
            inner.suspects = Some(HashMap::new());
        }
        inner.recovered.clear();
    }

    /// Leaves recovery mode, reporting which suspects replay rebuilt and
    /// which remain unexplained (see [`RecoveryOutcome`]).
    pub fn end_recovery(&self) -> RecoveryOutcome {
        let mut inner = self.inner.lock();
        let suspects = inner.suspects.take().unwrap_or_default();
        let mut unresolved: Vec<(u64, u32, u32)> =
            suspects.into_iter().map(|(p, (e, f))| (p, e, f)).collect();
        unresolved.sort_unstable();
        let recovered = std::mem::take(&mut inner.recovered);
        inner.stats.torn_pages_recovered += recovered.len() as u64;
        RecoveryOutcome {
            recovered,
            unresolved,
        }
    }

    /// Number of pages the backing file currently holds (including pages
    /// only present in the cache and not yet flushed).
    pub fn known_pages(&self) -> u64 {
        let inner = self.inner.lock();
        let cached_max = inner.frames.keys().max().map_or(0, |p| p + 1);
        inner.file_pages.max(cached_max)
    }

    /// Runs `f` over a read-only view of page `page_no`.
    pub fn with_page<R>(&self, page_no: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let mut inner = self.inner.lock();
        self.ensure_loaded(&mut inner, page_no)?;
        inner.tick += 1;
        let tick = inner.tick;
        let frame = inner.frames.get_mut(&page_no).expect("page just loaded");
        frame.last_used = tick;
        Ok(f(frame.page.bytes()))
    }

    /// Runs `f` over a mutable view of page `page_no`, marking it dirty.
    pub fn with_page_mut<R>(&self, page_no: u64, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut inner = self.inner.lock();
        self.ensure_loaded(&mut inner, page_no)?;
        inner.tick += 1;
        inner.stats.record_writes += 1;
        // A suspect page being rewritten during recovery is a torn write
        // the WAL covers: replay is rebuilding it.
        if let Some(suspects) = inner.suspects.as_mut() {
            if suspects.remove(&page_no).is_some() {
                inner.recovered.push(page_no);
            }
        }
        let tick = inner.tick;
        let frame = inner.frames.get_mut(&page_no).expect("page just loaded");
        frame.last_used = tick;
        frame.dirty = true;
        Ok(f(frame.page.bytes_mut()))
    }

    /// Writes every dirty page back to the file and syncs it.
    pub fn flush(&self) -> Result<()> {
        let stamp = self.stamp.load(Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let dirty: Vec<u64> = inner
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(&p, _)| p)
            .collect();
        for page_no in dirty {
            Self::write_back(&mut inner, page_no, stamp)?;
        }
        inner
            .file
            .sync_data()
            .map_err(|e| StorageError::io("syncing store file", e))?;
        Ok(())
    }

    /// Fuzzy-checkpoint flush: writes back the pages that are dirty *when
    /// the call starts*, at most `chunk` pages per lock acquisition, then
    /// syncs the file. Returns the number of pages written back.
    ///
    /// Unlike [`PageCache::flush`], the lock is released between chunks so
    /// concurrent record writes keep landing while the flush makes
    /// progress — the checkpoint cursor. Pages dirtied *after* the initial
    /// snapshot are deliberately left dirty: they belong to commits the
    /// checkpoint does not cover (their WAL records sit after the
    /// checkpoint-begin mark and will be replayed), and skipping them is
    /// what makes the loop terminate under sustained write load.
    pub fn flush_incremental(&self, chunk: usize) -> Result<u64> {
        let chunk = chunk.max(1);
        let stamp = self.stamp.load(Ordering::Relaxed);
        let dirty: Vec<u64> = {
            let inner = self.inner.lock();
            inner
                .frames
                .iter()
                .filter(|(_, f)| f.dirty)
                .map(|(&p, _)| p)
                .collect()
        };
        let mut flushed = 0u64;
        for batch in dirty.chunks(chunk) {
            let mut inner = self.inner.lock();
            for &page_no in batch {
                // A page may have been evicted (already written back)
                // since the snapshot; only still-resident dirty pages need
                // work.
                if inner.frames.get(&page_no).is_some_and(|f| f.dirty) {
                    Self::write_back(&mut inner, page_no, stamp)?;
                    flushed += 1;
                }
            }
        }
        // Sync on a duplicated descriptor so the cache lock is *not* held
        // across the fsync — concurrent record writes keep landing while
        // the kernel drains the writeback.
        let file = {
            let inner = self.inner.lock();
            inner
                .file
                .try_clone()
                .map_err(|e| StorageError::io("cloning store file for sync", e))?
        };
        file.sync_data()
            .map_err(|e| StorageError::io("syncing store file", e))?;
        Ok(flushed)
    }

    /// Verifies the trailer checksums of up to `max` pages starting at
    /// `start`, holding the cache lock for the whole sweep so a
    /// concurrent write-back cannot be observed half-written (the caller
    /// bounds `max` to keep each lock hold short — the
    /// `flush_incremental` pattern). Pages resident in the cache are
    /// trusted as-is: the in-memory copy is authoritative and is
    /// re-sealed at flush, so only their on-disk shadow could mismatch —
    /// by design, never a finding. Does not populate the cache.
    pub fn verify_pages(&self, start: u64, max: usize) -> Result<VerifySweep> {
        let max = max.max(1) as u64;
        let mut inner = self.inner.lock();
        let total = {
            let cached_max = inner.frames.keys().max().map_or(0, |p| p + 1);
            inner.file_pages.max(cached_max)
        };
        let end = total.min(start.saturating_add(max));
        let mut sweep = VerifySweep::default();
        let mut buf = vec![0u8; PAGE_SIZE];
        for page_no in start..end {
            sweep.checked += 1;
            if inner.frames.contains_key(&page_no) {
                continue;
            }
            if page_no >= inner.file_pages {
                continue;
            }
            buf.fill(0);
            inner
                .file
                .seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))
                .map_err(|e| StorageError::io("seeking store file", e))?;
            let mut read = 0usize;
            while read < PAGE_SIZE {
                match inner.file.read(&mut buf[read..]) {
                    Ok(0) => break,
                    Ok(n) => read += n,
                    Err(e) => return Err(StorageError::io("reading store page", e)),
                }
            }
            if let PageVerdict::Corrupt { expected, found } = Page::from_bytes(&buf).verify() {
                sweep.corrupt.push((page_no, expected, found));
            }
        }
        sweep.next = (end < total).then_some(end);
        Ok(sweep)
    }

    /// Returns a snapshot of the cache counters.
    pub fn stats(&self) -> PageCacheStats {
        self.inner.lock().stats
    }

    /// Number of pages currently resident in the cache.
    pub fn resident_pages(&self) -> usize {
        self.inner.lock().frames.len()
    }

    fn ensure_loaded(&self, inner: &mut CacheInner, page_no: u64) -> Result<()> {
        if inner.frames.contains_key(&page_no) {
            inner.stats.hits += 1;
            return Ok(());
        }
        inner.stats.misses += 1;
        // Evict if at capacity.
        while inner.frames.len() >= self.capacity {
            let victim = inner
                .frames
                .iter()
                .min_by_key(|(_, f)| f.last_used)
                .map(|(&p, _)| p)
                .expect("non-empty cache");
            if inner.frames[&victim].dirty {
                let stamp = self.stamp.load(Ordering::Relaxed);
                Self::write_back(inner, victim, stamp)?;
            }
            inner.frames.remove(&victim);
            inner.stats.evictions += 1;
        }
        // Load the page (or a zero page if it lies beyond EOF).
        let page = if page_no < inner.file_pages {
            let mut buf = vec![0u8; PAGE_SIZE];
            inner
                .file
                .seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))
                .map_err(|e| StorageError::io("seeking store file", e))?;
            let mut read = 0usize;
            while read < PAGE_SIZE {
                match inner.file.read(&mut buf[read..]) {
                    Ok(0) => break,
                    Ok(n) => read += n,
                    Err(e) => return Err(StorageError::io("reading store page", e)),
                }
            }
            let page = Page::from_bytes(&buf);
            // A short tail is legitimate only while it is all zeros (a
            // crash between file extension and the page write); any other
            // short or full page must verify. Short non-zero tails are
            // checked even when verification is off — they are
            // unambiguous torn writes, not a knob-dependent judgement.
            let short_read = read < PAGE_SIZE;
            if self.verify_on_read || short_read {
                match page.verify() {
                    PageVerdict::AllZero | PageVerdict::Valid { .. } => {}
                    PageVerdict::Corrupt { expected, found } => {
                        inner.stats.checksum_failures += 1;
                        if let Some(suspects) = inner.suspects.as_mut() {
                            suspects.entry(page_no).or_insert((expected, found));
                        } else {
                            return Err(StorageError::PageChecksum {
                                file: self.file_name(),
                                page: page_no,
                                expected,
                                found,
                            });
                        }
                    }
                }
            }
            page
        } else {
            Page::zeroed()
        };
        inner.tick += 1;
        let tick = inner.tick;
        inner.frames.insert(
            page_no,
            Frame {
                page,
                dirty: false,
                last_used: tick,
            },
        );
        Ok(())
    }

    fn write_back(inner: &mut CacheInner, page_no: u64, stamp: u64) -> Result<()> {
        let fault = inner.fault.take();
        // Destructured borrows: the frame stays borrowed across the file
        // write without re-fetching it from the map.
        let CacheInner {
            frames,
            file,
            stats,
            file_pages,
            ..
        } = inner;
        let frame = frames.get_mut(&page_no).expect("frame present");
        frame.page.seal(stamp);
        let image: Vec<u8>;
        let bytes: &[u8] = match fault {
            None => frame.page.bytes(),
            Some(PageFault::TornHalf) => &frame.page.bytes()[..PAGE_SIZE / 2],
            Some(PageFault::Stale) => &[],
            Some(PageFault::BitFlip) => {
                let mut flipped = frame.page.bytes().to_vec();
                flipped[PAGE_SIZE / 4] ^= 0x20;
                image = flipped;
                &image
            }
        };
        if !bytes.is_empty() {
            file.seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))
                .map_err(|e| StorageError::io("seeking store file", e))?;
            file.write_all(bytes)
                .map_err(|e| StorageError::io("writing store page", e))?;
        }
        frame.dirty = false;
        stats.pages_flushed += 1;
        if page_no + 1 > *file_pages {
            *file_pages = page_no + 1;
        }
        Ok(())
    }
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("path", &self.path)
            .field("capacity", &self.capacity)
            .field("resident", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::PAGE_USABLE_SIZE;
    use crate::test_util::TempDir;

    #[test]
    fn read_beyond_eof_is_zero_page() {
        let dir = TempDir::new("page_cache_eof");
        let cache = PageCache::open(dir.path().join("store"), 4).unwrap();
        let all_zero = cache.with_page(10, |b| b.iter().all(|&x| x == 0)).unwrap();
        assert!(all_zero);
    }

    #[test]
    fn write_then_read_back_same_instance() {
        let dir = TempDir::new("page_cache_rw");
        let cache = PageCache::open(dir.path().join("store"), 4).unwrap();
        cache.with_page_mut(2, |b| b[100] = 42).unwrap();
        let v = cache.with_page(2, |b| b[100]).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn flush_persists_across_reopen() {
        let dir = TempDir::new("page_cache_persist");
        let path = dir.path().join("store");
        let last = PAGE_USABLE_SIZE - 1;
        {
            let cache = PageCache::open(&path, 4).unwrap();
            cache.with_page_mut(0, |b| b[0] = 7).unwrap();
            cache.with_page_mut(3, |b| b[last] = 9).unwrap();
            cache.flush().unwrap();
        }
        let cache = PageCache::open(&path, 4).unwrap();
        assert_eq!(cache.with_page(0, |b| b[0]).unwrap(), 7);
        assert_eq!(cache.with_page(3, |b| b[last]).unwrap(), 9);
    }

    #[test]
    fn incremental_flush_covers_initially_dirty_pages() {
        let dir = TempDir::new("page_cache_incremental");
        let path = dir.path().join("store");
        {
            let cache = PageCache::open(&path, 8).unwrap();
            for p in 0..5u64 {
                cache.with_page_mut(p, |b| b[0] = p as u8 + 1).unwrap();
            }
            // Chunk smaller than the dirty set: several lock round-trips.
            assert_eq!(cache.flush_incremental(2).unwrap(), 5);
            // Everything is clean now; a second pass flushes nothing.
            assert_eq!(cache.flush_incremental(2).unwrap(), 0);
        }
        let cache = PageCache::open(&path, 8).unwrap();
        for p in 0..5u64 {
            assert_eq!(cache.with_page(p, |b| b[0]).unwrap(), p as u8 + 1);
        }
    }

    #[test]
    fn eviction_writes_dirty_pages() {
        let dir = TempDir::new("page_cache_evict");
        let path = dir.path().join("store");
        let cache = PageCache::open(&path, 2).unwrap();
        cache.with_page_mut(0, |b| b[1] = 1).unwrap();
        cache.with_page_mut(1, |b| b[1] = 2).unwrap();
        // This forces eviction of page 0 (least recently used).
        cache.with_page_mut(2, |b| b[1] = 3).unwrap();
        assert_eq!(cache.resident_pages(), 2);
        // Page 0 must have been written back and is still readable.
        assert_eq!(cache.with_page(0, |b| b[1]).unwrap(), 1);
        let stats = cache.stats();
        assert!(stats.evictions >= 1);
        assert!(stats.pages_flushed >= 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let dir = TempDir::new("page_cache_stats");
        let cache = PageCache::open(dir.path().join("store"), 4).unwrap();
        cache.with_page(0, |_| ()).unwrap();
        cache.with_page(0, |_| ()).unwrap();
        cache.with_page(1, |_| ()).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn known_pages_accounts_for_cached_growth() {
        let dir = TempDir::new("page_cache_known");
        let cache = PageCache::open(dir.path().join("store"), 4).unwrap();
        assert_eq!(cache.known_pages(), 0);
        cache.with_page_mut(5, |b| b[0] = 1).unwrap();
        assert_eq!(cache.known_pages(), 6);
        cache.flush().unwrap();
        assert_eq!(cache.known_pages(), 6);
    }

    #[test]
    fn capacity_zero_is_usable() {
        let dir = TempDir::new("page_cache_zero_cap");
        let cache = PageCache::open(dir.path().join("store"), 0).unwrap();
        cache.with_page_mut(0, |b| b[0] = 5).unwrap();
        assert_eq!(cache.with_page(0, |b| b[0]).unwrap(), 5);
    }

    /// Corrupts one byte of `page_no` directly in the file.
    fn flip_byte_on_disk(path: &Path, page_no: u64, offset: usize) {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let at = page_no * PAGE_SIZE as u64 + offset as u64;
        file.seek(SeekFrom::Start(at)).unwrap();
        let mut b = [0u8; 1];
        file.read_exact(&mut b).unwrap();
        b[0] ^= 0xFF;
        file.seek(SeekFrom::Start(at)).unwrap();
        file.write_all(&b).unwrap();
    }

    #[test]
    fn bit_flip_on_disk_surfaces_typed_checksum_error() {
        let dir = TempDir::new("page_cache_bitflip");
        let path = dir.path().join("store");
        {
            let cache = PageCache::open(&path, 4).unwrap();
            cache.with_page_mut(1, |b| b[10] = 99).unwrap();
            cache.flush().unwrap();
        }
        flip_byte_on_disk(&path, 1, 10);
        let cache = PageCache::open(&path, 4).unwrap();
        let err = cache.with_page(1, |_| ()).unwrap_err();
        match err {
            StorageError::PageChecksum {
                file,
                page,
                expected,
                found,
            } => {
                assert_eq!(file, "store");
                assert_eq!(page, 1);
                assert_ne!(expected, found);
            }
            other => panic!("expected PageChecksum, got {other}"),
        }
        assert_eq!(cache.stats().checksum_failures, 1);
        // An unaffected page still reads fine.
        assert!(cache.with_page(0, |b| b.iter().all(|&x| x == 0)).unwrap());
    }

    #[test]
    fn verification_can_be_disabled() {
        let dir = TempDir::new("page_cache_noverify");
        let path = dir.path().join("store");
        {
            let cache = PageCache::open(&path, 4).unwrap();
            cache.with_page_mut(0, |b| b[10] = 99).unwrap();
            cache.flush().unwrap();
        }
        flip_byte_on_disk(&path, 0, 10);
        let cache = PageCache::open_with(&path, 4, false).unwrap();
        // The flipped byte reads back without complaint: the knob is off.
        assert_eq!(cache.with_page(0, |b| b[10]).unwrap(), 99 ^ 0xFF);
    }

    /// The short-read audit: a torn tail with non-zero bytes is rejected
    /// even with verification off, while an all-zero tail (legitimate
    /// fresh extension) passes.
    #[test]
    fn short_nonzero_tail_is_corruption_even_unverified() {
        let dir = TempDir::new("page_cache_short");
        let path = dir.path().join("store");
        {
            let cache = PageCache::open(&path, 4).unwrap();
            cache.with_page_mut(0, |b| b[0] = 1).unwrap();
            cache.flush().unwrap();
        }
        // Truncate mid-page: a torn tail carrying real bytes.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(100).unwrap();
        drop(file);
        let cache = PageCache::open_with(&path, 4, false).unwrap();
        assert!(matches!(
            cache.with_page(0, |_| ()).unwrap_err(),
            StorageError::PageChecksum { page: 0, .. }
        ));

        // An all-zero short tail is a fresh extension, not corruption.
        let path2 = dir.path().join("store2");
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path2)
            .unwrap();
        file.set_len(100).unwrap();
        drop(file);
        let cache = PageCache::open_with(&path2, 4, false).unwrap();
        assert!(cache.with_page(0, |b| b.iter().all(|&x| x == 0)).unwrap());
    }

    #[test]
    fn recovery_mode_collects_suspects_and_reports_rebuilt_pages() {
        let dir = TempDir::new("page_cache_recovery");
        let path = dir.path().join("store");
        {
            let cache = PageCache::open(&path, 4).unwrap();
            cache.with_page_mut(0, |b| b[0] = 1).unwrap();
            cache.with_page_mut(1, |b| b[0] = 2).unwrap();
            cache.flush().unwrap();
        }
        flip_byte_on_disk(&path, 0, 5);
        flip_byte_on_disk(&path, 1, 5);
        let cache = PageCache::open(&path, 4).unwrap();
        cache.begin_recovery();
        // Fault both pages in: no error, both become suspects.
        cache.with_page(0, |_| ()).unwrap();
        cache.with_page(1, |_| ()).unwrap();
        // "Replay" rewrites page 0 only.
        cache.with_page_mut(0, |b| b[0] = 7).unwrap();
        let outcome = cache.end_recovery();
        assert_eq!(outcome.recovered, vec![0]);
        assert_eq!(outcome.unresolved.len(), 1);
        assert_eq!(outcome.unresolved[0].0, 1);
        assert_eq!(cache.stats().torn_pages_recovered, 1);
        // After recovery mode ends, the unresolved page is fatal again
        // once it drops out of the cache; the rebuilt one flushes clean.
        cache.flush().unwrap();
        drop(cache);
        let cache = PageCache::open(&path, 4).unwrap();
        assert_eq!(cache.with_page(0, |b| b[0]).unwrap(), 7);
        assert!(matches!(
            cache.with_page(1, |_| ()).unwrap_err(),
            StorageError::PageChecksum { page: 1, .. }
        ));
    }

    #[test]
    fn injected_torn_half_write_is_caught_on_reopen() {
        let dir = TempDir::new("page_cache_fault_torn");
        let path = dir.path().join("store");
        {
            let cache = PageCache::open(&path, 4).unwrap();
            cache
                .with_page_mut(0, |b| {
                    for x in b[..PAGE_USABLE_SIZE].iter_mut() {
                        *x = 0xAB;
                    }
                })
                .unwrap();
            cache.inject_write_fault(PageFault::TornHalf);
            cache.flush().unwrap();
        }
        let cache = PageCache::open(&path, 4).unwrap();
        assert!(matches!(
            cache.with_page(0, |_| ()).unwrap_err(),
            StorageError::PageChecksum { page: 0, .. }
        ));
    }

    #[test]
    fn injected_bit_flip_is_caught_on_reopen() {
        let dir = TempDir::new("page_cache_fault_flip");
        let path = dir.path().join("store");
        {
            let cache = PageCache::open(&path, 4).unwrap();
            cache.with_page_mut(0, |b| b[0] = 1).unwrap();
            cache.inject_write_fault(PageFault::BitFlip);
            cache.flush().unwrap();
        }
        let cache = PageCache::open(&path, 4).unwrap();
        assert!(matches!(
            cache.with_page(0, |_| ()).unwrap_err(),
            StorageError::PageChecksum { page: 0, .. }
        ));
    }

    #[test]
    fn injected_stale_write_keeps_the_old_valid_image() {
        let dir = TempDir::new("page_cache_fault_stale");
        let path = dir.path().join("store");
        {
            let cache = PageCache::open(&path, 4).unwrap();
            cache.with_page_mut(0, |b| b[0] = 1).unwrap();
            cache.flush().unwrap();
            cache.with_page_mut(0, |b| b[0] = 2).unwrap();
            cache.inject_write_fault(PageFault::Stale);
            cache.flush().unwrap();
        }
        // The stale image carries a *valid* old checksum: undetectable at
        // the page layer by design (WAL replay or the verifier owns it).
        let cache = PageCache::open(&path, 4).unwrap();
        assert_eq!(cache.with_page(0, |b| b[0]).unwrap(), 1);
    }

    #[test]
    fn stamp_is_sealed_into_flushed_pages() {
        let dir = TempDir::new("page_cache_stamp");
        let path = dir.path().join("store");
        {
            let cache = PageCache::open(&path, 4).unwrap();
            cache.set_stamp(77);
            cache.with_page_mut(0, |b| b[0] = 1).unwrap();
            cache.flush().unwrap();
        }
        let cache = PageCache::open(&path, 4).unwrap();
        let verdict = cache
            .with_page(0, |b| Page::from_bytes(b).verify())
            .unwrap();
        assert_eq!(verdict, PageVerdict::Valid { stamp: 77 });
    }
}
