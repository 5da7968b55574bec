//! # graphsi-wal
//!
//! A write-ahead log for the graphsi storage engine. The persistent store
//! (`graphsi-storage`) only ever holds the newest committed version of each
//! entity and its page cache writes back lazily, so the WAL is what makes
//! commits durable: the commit pipeline in `graphsi-core` appends an
//! encoded commit record, syncs (optionally batched / group commit), and
//! only then applies the changes to the record stores. On start-up the
//! core replays the log to bring the stores back to the last durable
//! state; a clean shutdown checkpoints (flushes all stores) and truncates
//! the log.
//!
//! The WAL itself is payload-agnostic above the bookkeeping records it
//! owns (segment headers, checkpoint markers): entries are opaque byte
//! strings with an LSN and a CRC-32 checksum. The log is **segmented** —
//! a directory of numbered files rotated at a size threshold and reclaimed
//! through a retention watermark once a checkpoint covers them — so
//! recovery replays only the retained suffix and the on-disk footprint
//! stays bounded. Torn tails left by crashes are detected and truncated
//! on open.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod log;
pub mod record;

pub use error::{Result, WalError};
pub use log::{is_bookkeeping, SegmentedWal, SyncPolicy, WalScan};
pub use record::{
    payload_kind, AbortRangeRecord, AbortRecord, CheckpointBeginRecord, CheckpointEndRecord,
    LogEntry, PayloadKind, SegmentHeaderRecord,
};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_api_smoke() {
        let dir = graphsi_storage::test_util::TempDir::new("wal_lib");
        let wal = SegmentedWal::open(dir.path().join("wal"), SyncPolicy::Always, 1 << 20).unwrap();
        let lsn = wal.append_and_sync(b"commit:1").unwrap();
        assert_eq!(lsn, 2, "LSN 1 is the first segment's header");
        let scan = wal.scan().unwrap();
        let data: Vec<_> = scan.entries.iter().filter(|e| !is_bookkeeping(e)).collect();
        assert_eq!(data, vec![&LogEntry::new(2, b"commit:1".to_vec())]);
    }
}
