//! The segmented write-ahead log: append, group sync, rotation, stitched
//! scan and watermark-driven retention.
//!
//! The log is a **directory** of numbered segment files (`wal.000001`,
//! `wal.000002`, …) sharing one monotone LSN space. Every segment starts
//! with a [`SegmentHeaderRecord`] — a normal CRC-framed entry consuming
//! one LSN — naming its sequence number, base LSN and the checkpoint
//! epoch current at creation. The log stores opaque payloads above that
//! — the commit-record encoding lives in `graphsi-core` — framed and
//! checksummed per entry.
//!
//! A transaction is durable once its entry has been appended **and** the
//! covering file has been synced; the commit pipeline batches syncs
//! (group commit) by calling [`SegmentedWal::append`] for every
//! concurrent committer and a single [`SegmentedWal::sync_appended`]
//! afterwards. The group-commit leader also drives **rotation**
//! ([`SegmentedWal::rotate_if_needed`]): once the active segment passes
//! its size threshold a new segment is created and its header made
//! durable off the append lock, so no commit ever blocks on a rotation
//! fsync. Old segments are reclaimed by the checkpointer through the
//! retention watermark ([`SegmentedWal::release_upto`]): a segment whose
//! entries are all checkpointed and durable is unlinked.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::{Result, WalError};
use crate::record::{payload_kind, LogEntry, PayloadKind, SegmentHeaderRecord};

/// When the log file is synced to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Sync after every append (safest, slowest).
    #[default]
    Always,
    /// Sync only when [`SegmentedWal::sync`] is called explicitly (group
    /// commit) or at checkpoints. A crash may lose the most recent
    /// commits but never corrupts the log.
    OnDemand,
}

/// Result of scanning the log from disk.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// The valid entries, in append order, stitched across segments
    /// (segment headers included — consumers classify by payload kind).
    pub entries: Vec<LogEntry>,
    /// `true` if the scan stopped early because of a torn or corrupt tail.
    pub truncated_tail: bool,
    /// Number of bytes of valid log data (across all scanned segments).
    pub valid_bytes: u64,
    /// Number of segment files the scan stitched together.
    pub segments: usize,
}

/// Returns the file name of segment `seq`.
fn segment_file_name(seq: u64) -> String {
    format!("wal.{seq:06}")
}

/// Parses a segment sequence number out of a `wal.NNNNNN` file name.
fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?;
    if digits.len() < 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Makes a directory entry change (segment created or unlinked) durable.
fn sync_dir(dir: &Path) -> Result<()> {
    let f = File::open(dir).map_err(|e| WalError::io("opening WAL directory for sync", e))?;
    f.sync_all()
        .map_err(|e| WalError::io("syncing WAL directory", e))
}

/// The segment currently receiving appends.
struct ActiveSegment {
    seq: u64,
    path: PathBuf,
    file: File,
    first_lsn: u64,
    /// Valid appended bytes (the append offset).
    bytes: u64,
    unsynced: bool,
}

/// A segment sealed by rotation: append-complete, delete-eligible once
/// the retention watermark passes its last LSN.
struct SealedSegment {
    seq: u64,
    path: PathBuf,
    /// Kept open while the segment still has unsynced data (a group sync
    /// that spans a rotation must fsync it); closed once durable.
    file: Option<File>,
    first_lsn: u64,
    last_lsn: u64,
    bytes: u64,
    unsynced: bool,
}

struct WalInner {
    active: ActiveSegment,
    /// Sealed segments, oldest first (contiguous sequence numbers).
    sealed: Vec<SealedSegment>,
    next_lsn: u64,
    /// Highest LSN known to have reached stable storage.
    synced_lsn: u64,
}

/// One scanned segment file, before stitching.
struct SegmentScan {
    entries: Vec<LogEntry>,
    valid_bytes: u64,
    /// `false` if the file ended in a torn or corrupt tail.
    clean: bool,
}

/// The segmented write-ahead log.
pub struct SegmentedWal {
    dir: PathBuf,
    sync_policy: SyncPolicy,
    /// Rotation threshold: once the active segment reaches this many
    /// bytes, [`SegmentedWal::rotate_if_needed`] seals it.
    segment_bytes: u64,
    inner: Mutex<WalInner>,
    /// Crash-testing hook: number of upcoming sync operations that fail
    /// with an injected I/O error instead of reaching the kernel. See
    /// [`SegmentedWal::fail_syncs`].
    injected_sync_failures: AtomicU32,
    /// Current checkpoint epoch, stamped into new segment headers.
    epoch: AtomicU64,
    /// Segment files created over this handle's lifetime (including the
    /// one open created or adopted).
    segments_created: AtomicU64,
    /// Segment files deleted by [`SegmentedWal::release_upto`].
    segments_deleted: AtomicU64,
}

impl SegmentedWal {
    /// Opens (creating if necessary) the segmented log in directory `dir`.
    ///
    /// Existing segments are stitched in sequence order. The scan stops
    /// at the first torn or corrupt point; everything behind it was never
    /// durable (the durable watermark cannot pass an unsynced region), so
    /// the torn segment is truncated there and any later segments are
    /// removed — in the common crash this is simply a torn tail in the
    /// last segment, or a rotated segment whose header never reached the
    /// disk. New appends then start from a clean boundary.
    pub fn open(
        dir: impl AsRef<Path>,
        sync_policy: SyncPolicy,
        segment_bytes: u64,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| WalError::io("creating WAL directory", e))?;
        let mut seqs = Self::list_segments(&dir)?;
        seqs.sort_unstable();
        if let Some(gap) = seqs.windows(2).find(|w| w[1] != w[0] + 1) {
            return Err(WalError::Corrupt {
                offset: 0,
                reason: format!("segment sequence gap: {} is followed by {}", gap[0], gap[1]),
            });
        }

        // Stitch: stop at the first anomaly, truncate there, drop later
        // segments.
        let mut kept: Vec<(u64, PathBuf, u64, u64, u64)> = Vec::new(); // seq, path, first, last, bytes
        let mut max_epoch = 0u64;
        let mut next_lsn = 1u64;
        let mut removed_later = false;
        for (i, &seq) in seqs.iter().enumerate() {
            let path = dir.join(segment_file_name(seq));
            if removed_later {
                std::fs::remove_file(&path)
                    .map_err(|e| WalError::io("removing dead WAL segment", e))?;
                continue;
            }
            let scan = Self::scan_one(&path)?;
            let header_ok = match scan.entries.first() {
                Some(first) => match SegmentHeaderRecord::decode(&first.payload, 0) {
                    Ok(h) => {
                        if h.segment_seq != seq || h.base_lsn != first.lsn {
                            return Err(WalError::Corrupt {
                                offset: 0,
                                reason: format!(
                                    "segment {seq} header names segment {} base {}",
                                    h.segment_seq, h.base_lsn
                                ),
                            });
                        }
                        if i > 0 && !kept.is_empty() && first.lsn != next_lsn {
                            return Err(WalError::Corrupt {
                                offset: 0,
                                reason: format!(
                                    "segment {seq} starts at LSN {} but {} was expected",
                                    first.lsn, next_lsn
                                ),
                            });
                        }
                        max_epoch = max_epoch.max(h.epoch);
                        true
                    }
                    // A CRC-valid first entry that is not a header: the
                    // rotation never completed (torn header region).
                    Err(_) => false,
                },
                None => false,
            };
            if !header_ok {
                // Headerless segment: the crash hit between segment
                // creation and the header reaching disk. Nothing in it
                // was durable; drop the file and everything after it.
                std::fs::remove_file(&path)
                    .map_err(|e| WalError::io("removing headerless WAL segment", e))?;
                removed_later = true;
                continue;
            }
            if let Some(last) = scan.entries.last() {
                next_lsn = last.lsn + 1;
            }
            let first_lsn = scan.entries[0].lsn;
            let last_lsn = scan.entries[scan.entries.len() - 1].lsn;
            if !scan.clean {
                // Torn tail: truncate and drop any later segments (their
                // entries were appended after the tear, hence never
                // durable either).
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|source| WalError::OpenFailed {
                        path: path.clone(),
                        source,
                    })?;
                f.set_len(scan.valid_bytes)
                    .map_err(|e| WalError::io("truncating torn WAL tail", e))?;
                removed_later = true;
            }
            kept.push((seq, path, first_lsn, last_lsn, scan.valid_bytes));
        }
        if removed_later {
            sync_dir(&dir)?;
        }

        let created = AtomicU64::new(0);
        let (active, sealed) = match kept.pop() {
            Some((seq, path, first_lsn, _last, bytes)) => {
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .map_err(|source| WalError::OpenFailed {
                        path: path.clone(),
                        source,
                    })?;
                let sealed = kept
                    .into_iter()
                    .map(|(seq, path, first_lsn, last_lsn, bytes)| SealedSegment {
                        seq,
                        path,
                        file: None,
                        first_lsn,
                        last_lsn,
                        bytes,
                        unsynced: false,
                    })
                    .collect();
                (
                    ActiveSegment {
                        seq,
                        path,
                        file,
                        first_lsn,
                        bytes,
                        unsynced: false,
                    },
                    sealed,
                )
            }
            None => {
                // Fresh log: create segment 1 whose header takes LSN 1.
                let (active, lsn) = Self::create_segment(&dir, 1, next_lsn.max(1), 0)?;
                created.fetch_add(1, Ordering::Relaxed);
                next_lsn = lsn + 1;
                (active, Vec::new())
            }
        };

        Ok(SegmentedWal {
            dir,
            sync_policy,
            segment_bytes: segment_bytes.max(1),
            // Lock-order rank: see the README's lock-rank map. Ranked
            // above the commit pipeline's batcher — the group leader
            // appends its range-abort record while holding the batcher.
            inner: Mutex::with_rank(
                WalInner {
                    active,
                    sealed,
                    next_lsn,
                    synced_lsn: next_lsn - 1,
                },
                2650,
                "wal.inner",
            ),
            injected_sync_failures: AtomicU32::new(0),
            epoch: AtomicU64::new(max_epoch),
            segments_created: created,
            segments_deleted: AtomicU64::new(0),
        })
    }

    /// Lists the segment sequence numbers present in `dir`.
    fn list_segments(dir: &Path) -> Result<Vec<u64>> {
        let mut seqs = Vec::new();
        let entries =
            std::fs::read_dir(dir).map_err(|e| WalError::io("listing WAL directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| WalError::io("listing WAL directory", e))?;
            if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_file_name) {
                seqs.push(seq);
            }
        }
        Ok(seqs)
    }

    /// Creates segment file `seq` with a durable header whose LSN is
    /// `lsn`, returning the active-segment state and the header LSN.
    fn create_segment(dir: &Path, seq: u64, lsn: u64, epoch: u64) -> Result<(ActiveSegment, u64)> {
        let path = dir.join(segment_file_name(seq));
        let header = SegmentHeaderRecord {
            segment_seq: seq,
            base_lsn: lsn,
            epoch,
        };
        let frame = crate::record::encode_frame(lsn, &header.encode());
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|source| WalError::OpenFailed {
                path: path.clone(),
                source,
            })?;
        file.write_all(&frame)
            .map_err(|e| WalError::io("writing WAL segment header", e))?;
        file.sync_data()
            .map_err(|e| WalError::io("syncing WAL segment header", e))?;
        sync_dir(dir)?;
        Ok((
            ActiveSegment {
                seq,
                path,
                file,
                first_lsn: lsn,
                bytes: frame.len() as u64,
                unsynced: false,
            },
            lsn,
        ))
    }

    /// Makes the next `n` sync operations ([`SegmentedWal::sync`] and
    /// [`SegmentedWal::sync_appended`]) fail with an injected I/O error
    /// without touching the files. A crash-testing hook: a real `fsync`
    /// failure cannot be provoked deterministically, yet the commit
    /// pipeline's failed-sync paths (aborting the batch, writing abort
    /// records) need coverage. Appends are unaffected, exactly like a
    /// kernel-level sync failure: the data is in the log, it just was not
    /// made durable.
    pub fn fail_syncs(&self, n: u32) {
        self.injected_sync_failures.store(n, Ordering::SeqCst);
    }

    /// Consumes one injected failure if armed.
    fn take_injected_failure(&self) -> Option<WalError> {
        let counter = &self.injected_sync_failures;
        let mut current = counter.load(Ordering::SeqCst);
        while current > 0 {
            match counter.compare_exchange(current, current - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    return Some(WalError::io(
                        "syncing WAL",
                        std::io::Error::other("injected sync failure"),
                    ))
                }
                Err(observed) => current = observed,
            }
        }
        None
    }

    /// Directory the segment files live in.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The sync policy this log was opened with.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync_policy
    }

    /// The rotation threshold the log was opened with.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Appends a payload to the active segment, returning its LSN. Syncs
    /// immediately under [`SyncPolicy::Always`]. Never rotates — rotation
    /// is driven separately ([`SegmentedWal::rotate_if_needed`]) so the
    /// append path stays short.
    ///
    /// A payload over [`crate::record::MAX_PAYLOAD`] is refused with
    /// [`WalError::PayloadTooLarge`] before anything is written.
    pub fn append(&self, payload: &[u8]) -> Result<u64> {
        if payload.len() > crate::record::MAX_PAYLOAD {
            return Err(WalError::PayloadTooLarge { len: payload.len() });
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let lsn = inner.next_lsn;
        let bytes = crate::record::encode_frame(lsn, payload);
        let active = &mut inner.active;
        active
            .file
            .seek(SeekFrom::Start(active.bytes))
            .map_err(|e| WalError::io("seeking WAL", e))?;
        active
            .file
            .write_all(&bytes)
            .map_err(|e| WalError::io("appending WAL entry", e))?;
        inner.next_lsn += 1;
        active.bytes += bytes.len() as u64;
        active.unsynced = true;
        if self.sync_policy == SyncPolicy::Always {
            active
                .file
                .sync_data()
                .map_err(|e| WalError::io("syncing WAL", e))?;
            active.unsynced = false;
            if inner.sealed.iter().all(|s| !s.unsynced) {
                inner.synced_lsn = lsn;
            }
        }
        Ok(lsn)
    }

    /// Appends a payload and forces it to stable storage regardless of the
    /// sync policy.
    pub fn append_and_sync(&self, payload: &[u8]) -> Result<u64> {
        let lsn = self.append(payload)?;
        self.sync()?;
        Ok(lsn)
    }

    /// Forces all appended entries to stable storage (every segment with
    /// unsynced data), holding the append lock throughout.
    pub fn sync(&self) -> Result<()> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let dirty = inner.active.unsynced || inner.sealed.iter().any(|s| s.unsynced);
        if !dirty {
            return Ok(());
        }
        if let Some(err) = self.take_injected_failure() {
            return Err(err);
        }
        for sealed in inner.sealed.iter_mut().filter(|s| s.unsynced) {
            if let Some(file) = &sealed.file {
                file.sync_data()
                    .map_err(|e| WalError::io("syncing sealed WAL segment", e))?;
            }
            sealed.unsynced = false;
            sealed.file = None;
        }
        if inner.active.unsynced {
            inner
                .active
                .file
                .sync_data()
                .map_err(|e| WalError::io("syncing WAL", e))?;
            inner.active.unsynced = false;
        }
        inner.synced_lsn = inner.next_lsn - 1;
        Ok(())
    }

    /// Makes every entry appended so far durable **without blocking
    /// concurrent appends**, and returns the highest LSN guaranteed stable.
    ///
    /// This is the group-commit leader's sync: the target LSN and the set
    /// of files holding unsynced data are snapshotted under the append
    /// lock, but the `fsync`s themselves run on cloned handles to the
    /// same file descriptions, so followers of the *next* batch keep
    /// appending while this batch is flushed. A batch that spans a
    /// rotation syncs both the sealed tail and the new active segment.
    /// Entries appended after the target snapshot may or may not be
    /// covered; they stay marked unsynced and the next sync picks them up.
    pub fn sync_appended(&self) -> Result<u64> {
        let (target, files) = {
            let inner = self.inner.lock();
            if inner.synced_lsn >= inner.next_lsn - 1 {
                return Ok(inner.synced_lsn);
            }
            let mut files = Vec::new();
            for sealed in inner.sealed.iter().filter(|s| s.unsynced) {
                if let Some(file) = &sealed.file {
                    files.push(
                        file.try_clone()
                            .map_err(|e| WalError::io("cloning WAL handle for group sync", e))?,
                    );
                }
            }
            if inner.active.unsynced {
                files.push(
                    inner
                        .active
                        .file
                        .try_clone()
                        .map_err(|e| WalError::io("cloning WAL handle for group sync", e))?,
                );
            }
            (inner.next_lsn - 1, files)
        };
        if let Some(err) = self.take_injected_failure() {
            return Err(err);
        }
        for file in &files {
            file.sync_data()
                .map_err(|e| WalError::io("group-syncing WAL", e))?;
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if target > inner.synced_lsn {
            inner.synced_lsn = target;
        }
        for sealed in inner.sealed.iter_mut() {
            if sealed.unsynced && sealed.last_lsn <= inner.synced_lsn {
                sealed.unsynced = false;
                sealed.file = None;
            }
        }
        inner.active.unsynced = inner.next_lsn - 1 > inner.synced_lsn;
        Ok(target)
    }

    /// Seals the active segment and switches appends to a new one if the
    /// active segment has reached the size threshold. Returns whether a
    /// rotation happened.
    ///
    /// The append lock is held only for the cheap part (creating the file
    /// and writing the ~50-byte header frame); the fsyncs making the new
    /// segment durable — one on the header, one on the directory entry —
    /// run after the lock is released, so concurrent committers keep
    /// appending to the *new* segment while the switch is made durable.
    /// That is the whole cost of a segment switch: one extra data fsync
    /// (plus the directory entry) paid by whoever drove the rotation,
    /// never by a committer. The group-commit leader calls this after
    /// each successful batch sync.
    ///
    /// Crash safety: if the process dies before the header reaches disk,
    /// recovery finds a headerless last segment and deletes it — every
    /// entry appended to the new segment was non-durable by definition
    /// (the durable watermark cannot pass the unsynced header).
    pub fn rotate_if_needed(&self) -> Result<bool> {
        self.rotate(|inner| inner.active.bytes >= self.segment_bytes)
    }

    /// Seals the active segment whatever its size, so that a checkpoint
    /// whose begin mark follows can release it — unless the segment holds
    /// nothing past its header and LSN `after` (the previous checkpoint's
    /// end mark), in which case sealing would only create a file. Returns
    /// whether a seal happened. Same path and crash safety as
    /// [`SegmentedWal::rotate_if_needed`].
    pub fn seal_active(&self, after: u64) -> Result<bool> {
        self.rotate(|inner| inner.next_lsn - 1 > inner.active.first_lsn.max(after))
    }

    /// Switches appends to a new segment when `due` holds, checked under
    /// the lock that performs the switch.
    fn rotate(&self, due: impl Fn(&WalInner) -> bool) -> Result<bool> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if !due(inner) {
            return Ok(false);
        }
        let seq = inner.active.seq + 1;
        let path = self.dir.join(segment_file_name(seq));
        let lsn = inner.next_lsn;
        let header = SegmentHeaderRecord {
            segment_seq: seq,
            base_lsn: lsn,
            epoch: self.epoch.load(Ordering::SeqCst),
        };
        let frame = crate::record::encode_frame(lsn, &header.encode());
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|source| WalError::OpenFailed {
                path: path.clone(),
                source,
            })?;
        file.write_all(&frame)
            .map_err(|e| WalError::io("writing WAL segment header", e))?;
        let sync_handle = file
            .try_clone()
            .map_err(|e| WalError::io("cloning WAL segment handle", e))?;
        inner.next_lsn += 1;
        let old = std::mem::replace(
            &mut inner.active,
            ActiveSegment {
                seq,
                path,
                file,
                first_lsn: lsn,
                bytes: frame.len() as u64,
                unsynced: true,
            },
        );
        inner.sealed.push(SealedSegment {
            seq: old.seq,
            path: old.path,
            file: old.unsynced.then_some(old.file),
            first_lsn: old.first_lsn,
            last_lsn: lsn - 1,
            bytes: old.bytes,
            unsynced: old.unsynced,
        });
        drop(guard);
        // The rotation fsyncs, off the append lock: header, then the
        // directory entry. The header stays marked unsynced until a group
        // sync covers its LSN — these fsyncs are about making the *file*
        // exist durably so recovery never sees a later segment without
        // this one.
        sync_handle
            .sync_data()
            .map_err(|e| WalError::io("syncing WAL segment header", e))?;
        sync_dir(&self.dir)?;
        self.segments_created.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Deletes every sealed segment whose entries are all durable and at
    /// or below `lsn` — the retention watermark, advanced by the
    /// checkpointer once a checkpoint has flushed everything up to that
    /// point. Returns the number of segments deleted. The active segment
    /// is never deleted.
    pub fn release_upto(&self, lsn: u64) -> Result<u64> {
        let victims: Vec<PathBuf> = {
            let mut inner = self.inner.lock();
            debug_assert!(
                inner.sealed.windows(2).all(|w| w[0].seq < w[1].seq),
                "sealed segments must stay ordered by sequence number"
            );
            // Delete an oldest-first *prefix* only: stopping at the first
            // surviving segment keeps the retained sequence gap-free (a
            // gap reads as corruption on reopen).
            let keep_from = inner
                .sealed
                .iter()
                .position(|sealed| sealed.last_lsn > lsn || sealed.unsynced)
                .unwrap_or(inner.sealed.len());
            inner.sealed.drain(..keep_from).map(|s| s.path).collect()
        };
        if victims.is_empty() {
            return Ok(0);
        }
        for path in &victims {
            std::fs::remove_file(path)
                .map_err(|e| WalError::io("unlinking released WAL segment", e))?;
        }
        sync_dir(&self.dir)?;
        self.segments_deleted
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        Ok(victims.len() as u64)
    }

    /// First LSN still retained in the log (the oldest segment's header).
    pub fn first_retained_lsn(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .sealed
            .first()
            .map(|s| s.first_lsn)
            .unwrap_or(inner.active.first_lsn)
    }

    /// Highest LSN known durable on stable storage.
    pub fn durable_lsn(&self) -> u64 {
        self.inner.lock().synced_lsn
    }

    /// Highest LSN appended so far (durable or not).
    pub fn last_appended_lsn(&self) -> u64 {
        self.inner.lock().next_lsn - 1
    }

    /// Scans the retained log from disk and returns every valid entry,
    /// stitched across segments in order.
    pub fn scan(&self) -> Result<WalScan> {
        let paths: Vec<PathBuf> = {
            let inner = self.inner.lock();
            inner
                .sealed
                .iter()
                .map(|s| s.path.clone())
                .chain(std::iter::once(inner.active.path.clone()))
                .collect()
        };
        let mut scan = WalScan::default();
        for (i, path) in paths.iter().enumerate() {
            let one = Self::scan_one(path)?;
            scan.valid_bytes += one.valid_bytes;
            scan.entries.extend(one.entries);
            scan.segments += 1;
            if !one.clean {
                scan.truncated_tail = true;
                if i + 1 < paths.len() {
                    // A tear before the last segment: everything after it
                    // was appended after the tear and never became
                    // durable. Stop stitching.
                    break;
                }
            }
        }
        Ok(scan)
    }

    /// Number of segment files currently retained (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.inner.lock().sealed.len() + 1
    }

    /// Total bytes of retained log data across all segments — the value
    /// bounded by checkpointing: once a checkpoint releases old segments
    /// this drops back to the active suffix.
    pub fn retained_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner.sealed.iter().map(|s| s.bytes).sum::<u64>() + inner.active.bytes
    }

    /// Alias of [`SegmentedWal::retained_bytes`] (the pre-segmentation
    /// single-file size measure).
    pub fn size_bytes(&self) -> u64 {
        self.retained_bytes()
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// Segment files created over this handle's lifetime.
    pub fn segments_created(&self) -> u64 {
        self.segments_created.load(Ordering::Relaxed)
    }

    /// Segment files deleted by the retention watermark.
    pub fn segments_deleted(&self) -> u64 {
        self.segments_deleted.load(Ordering::Relaxed)
    }

    /// The current checkpoint epoch (stamped into new segment headers).
    pub fn checkpoint_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advances the checkpoint epoch and returns the new value.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Raises the checkpoint epoch to at least `epoch` (recovery feeds
    /// the highest completed epoch it saw in the log back in).
    pub fn raise_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::SeqCst);
    }

    /// Scans one segment file. Torn or corrupt tails are not errors: the
    /// scan reports what was valid and `clean: false`.
    fn scan_one(path: &Path) -> Result<SegmentScan> {
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(SegmentScan {
                    entries: Vec::new(),
                    valid_bytes: 0,
                    clean: true,
                })
            }
            Err(e) => {
                return Err(WalError::OpenFailed {
                    path: path.to_path_buf(),
                    source: e,
                })
            }
        };
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| WalError::io("reading WAL segment", e))?;
        let mut entries = Vec::new();
        let mut offset = 0usize;
        let mut clean = true;
        while offset < buf.len() {
            match LogEntry::decode(&buf[offset..], offset as u64) {
                Ok(Some((entry, consumed))) => {
                    entries.push(entry);
                    offset += consumed;
                }
                Ok(None) | Err(_) => {
                    // Torn or corrupt tail — recover everything before it.
                    clean = false;
                    break;
                }
            }
        }
        Ok(SegmentScan {
            entries,
            valid_bytes: offset as u64,
            clean,
        })
    }
}

impl std::fmt::Debug for SegmentedWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedWal")
            .field("dir", &self.dir)
            .field("next_lsn", &self.next_lsn())
            .field("segments", &self.segment_count())
            .field("retained_bytes", &self.retained_bytes())
            .finish()
    }
}

/// Classifies whether a scanned entry carries database state (commit /
/// abort records) or log bookkeeping (segment headers, checkpoint
/// markers). Convenience for consumers stitching recovery state. Strict:
/// an entry counts as bookkeeping only if it fully decodes as one of the
/// bookkeeping records, not merely by its first byte.
pub fn is_bookkeeping(entry: &LogEntry) -> bool {
    use crate::record::{CheckpointBeginRecord, CheckpointEndRecord};
    match payload_kind(&entry.payload, 0) {
        Ok(PayloadKind::SegmentHeader) => SegmentHeaderRecord::decode(&entry.payload, 0).is_ok(),
        Ok(PayloadKind::CheckpointBegin) => {
            CheckpointBeginRecord::decode(&entry.payload, 0).is_ok()
        }
        Ok(PayloadKind::CheckpointEnd) => CheckpointEndRecord::decode(&entry.payload, 0).is_ok(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsi_storage::test_util::TempDir;

    const SEG: u64 = 64; // tiny rotation threshold for tests
    const BIG: u64 = 64 * 1024 * 1024;

    fn wal_dir(dir: &TempDir) -> PathBuf {
        dir.path().join("wal")
    }

    fn open(dir: &TempDir, policy: SyncPolicy, segment_bytes: u64) -> SegmentedWal {
        SegmentedWal::open(wal_dir(dir), policy, segment_bytes).unwrap()
    }

    /// Entries that are not segment headers / checkpoint markers.
    fn data_entries(scan: &WalScan) -> Vec<&LogEntry> {
        scan.entries.iter().filter(|e| !is_bookkeeping(e)).collect()
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = TempDir::new("wal_roundtrip");
        let wal = open(&dir, SyncPolicy::Always, BIG);
        let first = wal.append(b"first").unwrap();
        assert_eq!(first, 2, "LSN 1 is the segment header");
        assert_eq!(wal.append(b"second").unwrap(), 3);
        let scan = wal.scan().unwrap();
        let data = data_entries(&scan);
        assert_eq!(data.len(), 2);
        assert_eq!(data[0].payload, b"first");
        assert_eq!(data[1].lsn, 3);
        assert!(!scan.truncated_tail);
        assert_eq!(scan.segments, 1);
    }

    /// The decoder refuses a payload over `MAX_PAYLOAD` as corrupt, and
    /// open truncates the log at the first corrupt entry. An append of
    /// such a payload must therefore fail and write nothing, or reopening
    /// would silently drop it and every entry after it.
    #[test]
    fn oversize_append_is_refused_and_later_entries_survive_reopen() {
        let dir = TempDir::new("wal_oversize");
        {
            let wal = open(&dir, SyncPolicy::OnDemand, BIG);
            wal.append(b"before").unwrap();
            let big = vec![7u8; crate::record::MAX_PAYLOAD + 1];
            assert!(matches!(
                wal.append(&big),
                Err(WalError::PayloadTooLarge { len }) if len == big.len()
            ));
            wal.append(b"after").unwrap();
            wal.sync().unwrap();
        }
        let wal = open(&dir, SyncPolicy::OnDemand, BIG);
        let scan = wal.scan().unwrap();
        let payloads: Vec<&[u8]> = data_entries(&scan)
            .iter()
            .map(|e| e.payload.as_slice())
            .collect();
        assert_eq!(payloads, [&b"before"[..], &b"after"[..]]);
        assert!(!scan.truncated_tail);
    }

    #[test]
    fn segment_header_is_first_entry() {
        let dir = TempDir::new("wal_header");
        let wal = open(&dir, SyncPolicy::Always, BIG);
        let scan = wal.scan().unwrap();
        assert_eq!(scan.entries.len(), 1);
        let header = SegmentHeaderRecord::decode(&scan.entries[0].payload, 0).unwrap();
        assert_eq!(header.segment_seq, 1);
        assert_eq!(header.base_lsn, 1);
        assert_eq!(header.epoch, 0);
    }

    #[test]
    fn reopen_continues_lsn_sequence() {
        let dir = TempDir::new("wal_reopen");
        let (a, b) = {
            let wal = open(&dir, SyncPolicy::Always, BIG);
            (wal.append(b"a").unwrap(), wal.append(b"b").unwrap())
        };
        let wal = open(&dir, SyncPolicy::Always, BIG);
        assert_eq!(wal.next_lsn(), b + 1);
        assert_eq!(wal.append(b"c").unwrap(), b + 1);
        let scan = wal.scan().unwrap();
        assert_eq!(data_entries(&scan).len(), 3);
        assert_eq!(data_entries(&scan)[0].lsn, a);
    }

    #[test]
    fn rotation_seals_and_stitches() {
        let dir = TempDir::new("wal_rotate");
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        let mut lsns = Vec::new();
        for i in 0..20u8 {
            lsns.push(wal.append(&[i; 16]).unwrap());
            wal.sync_appended().unwrap();
            wal.rotate_if_needed().unwrap();
        }
        assert!(wal.segment_count() > 1, "tiny threshold must rotate");
        assert!(wal.segments_created() > 1);
        let scan = wal.scan().unwrap();
        assert_eq!(scan.segments, wal.segment_count());
        let data = data_entries(&scan);
        assert_eq!(data.len(), 20);
        // One monotone LSN space across segments, headers interleaved.
        let scanned: Vec<u64> = data.iter().map(|e| e.lsn).collect();
        assert_eq!(scanned, lsns);
        let all_lsns: Vec<u64> = scan.entries.iter().map(|e| e.lsn).collect();
        let mut sorted = all_lsns.clone();
        sorted.sort_unstable();
        assert_eq!(all_lsns, sorted, "stitched scan is in LSN order");

        // Reopen stitches the same entries.
        drop(wal);
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        let rescan = wal.scan().unwrap();
        assert_eq!(
            data_entries(&rescan)
                .iter()
                .map(|e| e.lsn)
                .collect::<Vec<_>>(),
            lsns
        );
    }

    #[test]
    fn release_upto_deletes_checkpointed_segments() {
        let dir = TempDir::new("wal_release");
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        for i in 0..20u8 {
            wal.append(&[i; 16]).unwrap();
            wal.sync_appended().unwrap();
            wal.rotate_if_needed().unwrap();
        }
        let segments = wal.segment_count();
        assert!(segments > 2);
        let retained_before = wal.retained_bytes();
        let watermark = wal.last_appended_lsn();
        let deleted = wal.release_upto(watermark).unwrap();
        assert_eq!(deleted as usize, segments - 1, "active is never deleted");
        assert_eq!(wal.segments_deleted(), deleted);
        assert_eq!(wal.segment_count(), 1);
        assert!(wal.retained_bytes() < retained_before);
        // The files are really gone.
        let remaining = SegmentedWal::list_segments(&wal_dir(&dir)).unwrap();
        assert_eq!(remaining.len(), 1);
        // LSNs keep increasing and the log still appends fine.
        let lsn = wal.append(b"after release").unwrap();
        assert_eq!(lsn, watermark + 1);
        // Reopen after release: the sequence no longer starts at 1.
        drop(wal);
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        assert_eq!(wal.next_lsn(), lsn + 1);
    }

    #[test]
    fn release_never_deletes_unsynced_or_uncovered_segments() {
        let dir = TempDir::new("wal_release_guard");
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        for i in 0..8u8 {
            wal.append(&[i; 16]).unwrap();
            wal.sync_appended().unwrap();
            wal.rotate_if_needed().unwrap();
        }
        // Unsynced tail in the freshly-rotated sealed segment.
        wal.append(b"unsynced tail").unwrap();
        let segments = wal.segment_count();
        // A watermark below the first retained LSN deletes nothing.
        assert_eq!(wal.release_upto(0).unwrap(), 0);
        assert_eq!(wal.segment_count(), segments);
    }

    #[test]
    fn seal_active_skips_a_segment_with_nothing_new() {
        let dir = TempDir::new("wal_seal_active");
        let wal = open(&dir, SyncPolicy::OnDemand, BIG);
        assert!(!wal.seal_active(0).unwrap(), "header only");
        let lsn = wal.append(b"covered").unwrap();
        assert!(wal.seal_active(0).unwrap());
        assert_eq!(wal.segment_count(), 2);
        assert!(
            !wal.seal_active(0).unwrap(),
            "the new segment is header only"
        );
        let mark = wal.append(b"checkpoint mark").unwrap();
        assert!(!wal.seal_active(mark).unwrap(), "nothing after the mark");
        wal.sync_appended().unwrap();
        assert_eq!(wal.release_upto(lsn).unwrap(), 1);
        assert_eq!(wal.segment_count(), 1);
        assert_eq!(data_entries(&wal.scan().unwrap()).len(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = TempDir::new("wal_torn");
        {
            let wal = open(&dir, SyncPolicy::Always, BIG);
            wal.append(b"complete entry").unwrap();
        }
        // Simulate a crash mid-append: append garbage that looks like a
        // partial entry to the (only) segment file.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(wal_dir(&dir).join(segment_file_name(1)))
                .unwrap();
            f.write_all(&crate::record::ENTRY_MAGIC.to_le_bytes())
                .unwrap();
            f.write_all(&[200u8, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let wal = open(&dir, SyncPolicy::Always, BIG);
        let scan = wal.scan().unwrap();
        assert_eq!(data_entries(&scan).len(), 1);
        assert!(!scan.truncated_tail, "tail was truncated at open time");
        wal.append(b"after recovery").unwrap();
        assert_eq!(data_entries(&wal.scan().unwrap()).len(), 2);
    }

    #[test]
    fn headerless_last_segment_is_deleted_on_open() {
        let dir = TempDir::new("wal_headerless");
        {
            let wal = open(&dir, SyncPolicy::OnDemand, SEG);
            for i in 0..8u8 {
                wal.append(&[i; 16]).unwrap();
                wal.sync_appended().unwrap();
                wal.rotate_if_needed().unwrap();
            }
        }
        // Simulate a crash after segment creation but before the header
        // reached the disk: an empty next segment file.
        let seqs = SegmentedWal::list_segments(&wal_dir(&dir)).unwrap();
        let next = seqs.iter().max().unwrap() + 1;
        std::fs::write(wal_dir(&dir).join(segment_file_name(next)), b"").unwrap();
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        let remaining = SegmentedWal::list_segments(&wal_dir(&dir)).unwrap();
        assert!(!remaining.contains(&next), "headerless segment deleted");
        // Appends continue in the adopted last segment.
        wal.append(b"continues").unwrap();
        assert!(!wal.scan().unwrap().truncated_tail);
    }

    #[test]
    fn torn_header_last_segment_is_deleted_on_open() {
        let dir = TempDir::new("wal_torn_header");
        {
            let wal = open(&dir, SyncPolicy::OnDemand, SEG);
            for i in 0..8u8 {
                wal.append(&[i; 16]).unwrap();
                wal.sync_appended().unwrap();
                wal.rotate_if_needed().unwrap();
            }
        }
        let seqs = SegmentedWal::list_segments(&wal_dir(&dir)).unwrap();
        let next = seqs.iter().max().unwrap() + 1;
        // A partial header frame (first half only).
        let header = SegmentHeaderRecord {
            segment_seq: next,
            base_lsn: 999,
            epoch: 0,
        };
        let frame = crate::record::encode_frame(999, &header.encode());
        std::fs::write(
            wal_dir(&dir).join(segment_file_name(next)),
            &frame[..frame.len() / 2],
        )
        .unwrap();
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        let remaining = SegmentedWal::list_segments(&wal_dir(&dir)).unwrap();
        assert!(!remaining.contains(&next));
        wal.append(b"continues").unwrap();
    }

    #[test]
    fn segment_sequence_gap_is_corruption() {
        let dir = TempDir::new("wal_gap");
        {
            let wal = open(&dir, SyncPolicy::OnDemand, SEG);
            for i in 0..12u8 {
                wal.append(&[i; 16]).unwrap();
                wal.sync_appended().unwrap();
                wal.rotate_if_needed().unwrap();
            }
            assert!(wal.segment_count() >= 3);
        }
        // Remove a *middle* segment (never a legal retention state —
        // release deletes oldest-first).
        let seqs = SegmentedWal::list_segments(&wal_dir(&dir)).unwrap();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        let middle = sorted[sorted.len() / 2];
        std::fs::remove_file(wal_dir(&dir).join(segment_file_name(middle))).unwrap();
        assert!(matches!(
            SegmentedWal::open(wal_dir(&dir), SyncPolicy::OnDemand, SEG),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn on_demand_sync_batches() {
        let dir = TempDir::new("wal_group");
        let wal = open(&dir, SyncPolicy::OnDemand, BIG);
        for i in 0..10u8 {
            wal.append(&[i]).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(data_entries(&wal.scan().unwrap()).len(), 10);
    }

    #[test]
    fn empty_log_scans_headers_only() {
        let dir = TempDir::new("wal_empty");
        let wal = open(&dir, SyncPolicy::Always, BIG);
        let scan = wal.scan().unwrap();
        assert!(data_entries(&scan).is_empty());
        assert_eq!(scan.entries.len(), 1, "just the segment header");
        assert_eq!(wal.next_lsn(), 2);
    }

    #[test]
    fn sync_appended_reports_durable_watermark() {
        let dir = TempDir::new("wal_sync_appended");
        let wal = open(&dir, SyncPolicy::OnDemand, BIG);
        assert_eq!(wal.durable_lsn(), 1, "header is durable at open");
        assert_eq!(wal.last_appended_lsn(), 1);
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        assert_eq!(wal.last_appended_lsn(), 3);
        assert_eq!(wal.durable_lsn(), 1, "nothing synced yet");
        assert_eq!(wal.sync_appended().unwrap(), 3);
        assert_eq!(wal.durable_lsn(), 3);
        // Idempotent when nothing new was appended.
        assert_eq!(wal.sync_appended().unwrap(), 3);
        wal.append(b"c").unwrap();
        assert_eq!(wal.durable_lsn(), 3);
        assert_eq!(wal.sync_appended().unwrap(), 4);
    }

    #[test]
    fn sync_spans_rotation() {
        let dir = TempDir::new("wal_sync_spans");
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        // Fill past the threshold without syncing, rotate, append more:
        // one sync must cover the sealed tail and the new active segment.
        for i in 0..4u8 {
            wal.append(&[i; 24]).unwrap();
        }
        assert!(wal.rotate_if_needed().unwrap());
        wal.append(b"in the new segment").unwrap();
        let target = wal.last_appended_lsn();
        assert_eq!(wal.sync_appended().unwrap(), target);
        assert_eq!(wal.durable_lsn(), target);
        // Reopen: everything survives in order.
        drop(wal);
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        assert_eq!(wal.next_lsn(), target + 1);
    }

    #[test]
    fn always_policy_keeps_durable_watermark_current() {
        let dir = TempDir::new("wal_always_watermark");
        let wal = open(&dir, SyncPolicy::Always, BIG);
        assert_eq!(wal.sync_policy(), SyncPolicy::Always);
        let a = wal.append(b"a").unwrap();
        assert_eq!(wal.durable_lsn(), a);
        let b = wal.append(b"b").unwrap();
        assert_eq!(wal.durable_lsn(), b);
    }

    #[test]
    fn injected_sync_failures_fail_then_clear() {
        let dir = TempDir::new("wal_inject");
        let wal = open(&dir, SyncPolicy::OnDemand, BIG);
        let a = wal.append(b"a").unwrap();
        wal.fail_syncs(1);
        assert!(wal.sync_appended().is_err());
        assert!(wal.durable_lsn() < a, "a failed sync advances nothing");
        // The injection is consumed: the next sync succeeds and the data
        // (still in the log) becomes durable.
        assert_eq!(wal.sync_appended().unwrap(), a);
        assert_eq!(wal.durable_lsn(), a);
        wal.append(b"b").unwrap();
        wal.fail_syncs(1);
        assert!(wal.sync().is_err());
        wal.sync().unwrap();
        assert_eq!(data_entries(&wal.scan().unwrap()).len(), 2);
    }

    #[test]
    fn epoch_is_persisted_in_rotated_headers() {
        let dir = TempDir::new("wal_epoch");
        {
            let wal = open(&dir, SyncPolicy::OnDemand, SEG);
            assert_eq!(wal.checkpoint_epoch(), 0);
            assert_eq!(wal.advance_epoch(), 1);
            assert_eq!(wal.advance_epoch(), 2);
            for i in 0..4u8 {
                wal.append(&[i; 24]).unwrap();
            }
            wal.sync_appended().unwrap();
            assert!(wal.rotate_if_needed().unwrap());
        }
        // Reopen recovers the epoch from the newest segment header.
        let wal = open(&dir, SyncPolicy::OnDemand, SEG);
        assert_eq!(wal.checkpoint_epoch(), 2);
        wal.raise_epoch(5);
        assert_eq!(wal.checkpoint_epoch(), 5);
        wal.raise_epoch(3);
        assert_eq!(wal.checkpoint_epoch(), 5, "raise is a max");
    }

    #[test]
    fn appends_proceed_while_group_sync_runs() {
        use std::sync::Arc;
        let dir = TempDir::new("wal_overlap");
        let wal = Arc::new(SegmentedWal::open(wal_dir(&dir), SyncPolicy::OnDemand, BIG).unwrap());
        wal.append(b"seed").unwrap();
        let syncer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    wal.sync_appended().unwrap();
                }
            })
        };
        for i in 0..200u8 {
            wal.append(&[i]).unwrap();
        }
        syncer.join().unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn(), 202);
        assert_eq!(data_entries(&wal.scan().unwrap()).len(), 201);
    }

    #[test]
    fn concurrent_appends_and_rotations_get_unique_lsns() {
        use std::sync::Arc;
        let dir = TempDir::new("wal_concurrent");
        let wal = Arc::new(SegmentedWal::open(wal_dir(&dir), SyncPolicy::OnDemand, 256).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let wal = Arc::clone(&wal);
            handles.push(std::thread::spawn(move || {
                (0..100u8)
                    .map(|i| {
                        let lsn = wal.append(&[t, i]).unwrap();
                        if i % 8 == 0 {
                            wal.sync_appended().unwrap();
                            wal.rotate_if_needed().unwrap();
                        }
                        lsn
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
        wal.sync().unwrap();
        assert!(wal.segment_count() > 1, "rotations happened");
        let scan = wal.scan().unwrap();
        assert_eq!(data_entries(&scan).len(), 400);
        let lsns: Vec<u64> = scan.entries.iter().map(|e| e.lsn).collect();
        let mut sorted = lsns.clone();
        sorted.sort_unstable();
        assert_eq!(lsns, sorted, "stitched scan stays in LSN order");
    }
}
