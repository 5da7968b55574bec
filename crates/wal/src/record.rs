//! Log entry framing.
//!
//! Each entry is framed as:
//!
//! ```text
//! +---------+---------+---------+---------+------------------+
//! | magic   | len     | lsn     | crc32   | payload (len)    |
//! | u32 LE  | u32 LE  | u64 LE  | u32 LE  | bytes            |
//! +---------+---------+---------+---------+------------------+
//! ```
//!
//! The checksum covers the LSN and the payload, so both truncated (torn)
//! tails and bit flips are detected on read.

use graphsi_storage::codec::{
    get_u32, get_u64, put_u32, put_u64, put_u8, CodecError, Crc32, Reader,
};

use crate::error::{Result, WalError};

/// Magic marker beginning every log entry ("WALE").
pub const ENTRY_MAGIC: u32 = 0x5741_4C45;

/// First byte of a typed payload carrying a commit record (the record body
/// itself is encoded by the layer above).
pub const PAYLOAD_KIND_COMMIT: u8 = 0x01;
/// First byte of a typed payload carrying an [`AbortRecord`].
pub const PAYLOAD_KIND_ABORT: u8 = 0x02;
/// First byte of a typed payload carrying an [`AbortRangeRecord`].
pub const PAYLOAD_KIND_ABORT_RANGE: u8 = 0x03;
/// First byte of a typed payload carrying a [`SegmentHeaderRecord`].
pub const PAYLOAD_KIND_SEGMENT_HEADER: u8 = 0x04;
/// First byte of a typed payload carrying a [`CheckpointBeginRecord`].
pub const PAYLOAD_KIND_CHECKPOINT_BEGIN: u8 = 0x05;
/// First byte of a typed payload carrying a [`CheckpointEndRecord`].
pub const PAYLOAD_KIND_CHECKPOINT_END: u8 = 0x06;

/// The kind of a typed log payload, read from its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadKind {
    /// A commit record: replay applies it (unless an [`AbortRecord`] or
    /// [`AbortRangeRecord`] invalidates it).
    Commit,
    /// An abort record: replay must skip the commit record carrying the
    /// same commit timestamp.
    Abort,
    /// A range abort record: replay must skip every commit record whose
    /// LSN falls in the range.
    AbortRange,
    /// A segment header: the first record of every WAL segment file,
    /// carrying no database state (replay skips it).
    SegmentHeader,
    /// The start marker of a fuzzy checkpoint: everything committed at or
    /// below its `begin_ts` will be in the stores once the matching
    /// [`CheckpointEndRecord`] appears.
    CheckpointBegin,
    /// The completion marker of a fuzzy checkpoint: replay may start after
    /// the matching [`CheckpointBeginRecord`].
    CheckpointEnd,
}

/// Classifies a typed payload by its kind byte. The log itself stores
/// opaque payloads; this tagging convention is shared between the commit
/// pipeline (which writes all kinds) and recovery (which must tell them
/// apart before decoding).
pub fn payload_kind(payload: &[u8], offset: u64) -> Result<PayloadKind> {
    match payload.first() {
        Some(&PAYLOAD_KIND_COMMIT) => Ok(PayloadKind::Commit),
        Some(&PAYLOAD_KIND_ABORT) => Ok(PayloadKind::Abort),
        Some(&PAYLOAD_KIND_ABORT_RANGE) => Ok(PayloadKind::AbortRange),
        Some(&PAYLOAD_KIND_SEGMENT_HEADER) => Ok(PayloadKind::SegmentHeader),
        Some(&PAYLOAD_KIND_CHECKPOINT_BEGIN) => Ok(PayloadKind::CheckpointBegin),
        Some(&PAYLOAD_KIND_CHECKPOINT_END) => Ok(PayloadKind::CheckpointEnd),
        Some(&other) => Err(WalError::Corrupt {
            offset,
            reason: format!("unknown payload kind {other:#04x}"),
        }),
        None => Err(WalError::Corrupt {
            offset,
            reason: "empty payload".to_owned(),
        }),
    }
}

/// An abort (invalidation) record.
///
/// When a committer is failed *after* its commit record reached the log —
/// its group sync failed, or its store apply failed once the record was
/// already durable — the caller observes an abort, yet the commit record
/// stays behind. A later successful sync can then make that record durable
/// and crash recovery would resurrect a transaction the application saw
/// fail. The pipeline therefore appends (and syncs) an `AbortRecord`
/// naming the dead commit timestamp; replay collects these first and skips
/// every invalidated commit record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbortRecord {
    /// Commit timestamp of the invalidated commit record (raw value — the
    /// log layer does not depend on the timestamp newtype).
    pub commit_ts: u64,
}

/// Encoded size of an [`AbortRecord`] payload: kind byte + timestamp.
pub const ABORT_RECORD_SIZE: usize = 1 + 8;

/// Decodes a typed payload: the `kind` byte, the fields `body` reads,
/// and nothing after them. A refusal is [`WalError::Corrupt`] at `offset`
/// plus the position of the failing field.
fn decode_typed<T>(
    payload: &[u8],
    offset: u64,
    kind: u8,
    body: impl FnOnce(&mut Reader<'_>) -> std::result::Result<T, CodecError>,
) -> Result<T> {
    let mut r = Reader::new(payload);
    let decoded = match r.u8() {
        Ok(k) if k == kind => body(&mut r).and_then(|record| r.finish().map(|()| record)),
        Ok(_) => Err(r.error_at(0, "wrong payload kind")),
        Err(e) => Err(e),
    };
    decoded.map_err(|e| WalError::Corrupt {
        offset: offset + e.offset as u64,
        reason: format!("malformed payload of kind {kind:#04x}: {e}"),
    })
}

impl AbortRecord {
    /// Serialises the record as a typed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ABORT_RECORD_SIZE);
        put_u8(&mut out, PAYLOAD_KIND_ABORT);
        put_u64(&mut out, self.commit_ts);
        out
    }

    /// Deserialises a payload previously produced by
    /// [`AbortRecord::encode`].
    pub fn decode(payload: &[u8], offset: u64) -> Result<Self> {
        decode_typed(payload, offset, PAYLOAD_KIND_ABORT, |r| {
            Ok(AbortRecord {
                commit_ts: r.u64()?,
            })
        })
    }
}

/// A range abort (invalidation) record: every commit record with
/// `from_lsn <= lsn <= to_lsn` belongs to a committer whose group sync
/// failed and whose caller observed the abort.
///
/// The failing group-commit leader appends one of these for the whole
/// failed batch *before releasing the batcher* — so no later leader can
/// issue a sync that durably persists the failed commit records without
/// also persisting their invalidation. Records in the range were never
/// durable when the sync failed (the durable watermark had not reached
/// them), and every committer owning one is failed by the batcher, so the
/// range invalidates no acknowledged commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbortRangeRecord {
    /// First invalidated LSN (inclusive).
    pub from_lsn: u64,
    /// Last invalidated LSN (inclusive).
    pub to_lsn: u64,
}

/// Encoded size of an [`AbortRangeRecord`] payload.
pub const ABORT_RANGE_RECORD_SIZE: usize = 1 + 8 + 8;

impl AbortRangeRecord {
    /// Serialises the record as a typed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ABORT_RANGE_RECORD_SIZE);
        put_u8(&mut out, PAYLOAD_KIND_ABORT_RANGE);
        put_u64(&mut out, self.from_lsn);
        put_u64(&mut out, self.to_lsn);
        out
    }

    /// Deserialises a payload previously produced by
    /// [`AbortRangeRecord::encode`].
    pub fn decode(payload: &[u8], offset: u64) -> Result<Self> {
        decode_typed(payload, offset, PAYLOAD_KIND_ABORT_RANGE, |r| {
            Ok(AbortRangeRecord {
                from_lsn: r.u64()?,
                to_lsn: r.u64()?,
            })
        })
    }

    /// Returns `true` if `lsn` is invalidated by this record.
    pub fn covers(&self, lsn: u64) -> bool {
        self.from_lsn <= lsn && lsn <= self.to_lsn
    }
}

/// Magic marker inside every [`SegmentHeaderRecord`] payload ("GSEG").
pub const SEGMENT_HEADER_MAGIC: u32 = 0x4753_4547;

/// The first record of every WAL segment file.
///
/// A segment header is a normal CRC-framed log entry (so the existing
/// checksum scheme covers it) that consumes one LSN of the global space.
/// It names the segment so a stitched scan can verify it is reading the
/// file it thinks it is: `segment_seq` must match the file name,
/// `base_lsn` must equal the header entry's own LSN, and `epoch` records
/// the checkpoint epoch current when the segment was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentHeaderRecord {
    /// The segment's sequence number (matches the `wal.%06d` file name).
    pub segment_seq: u64,
    /// The segment's first LSN — the LSN of the header entry itself.
    pub base_lsn: u64,
    /// Checkpoint epoch current when the segment was created.
    pub epoch: u64,
}

/// Encoded size of a [`SegmentHeaderRecord`] payload.
pub const SEGMENT_HEADER_RECORD_SIZE: usize = 1 + 4 + 8 + 8 + 8;

impl SegmentHeaderRecord {
    /// Serialises the record as a typed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEGMENT_HEADER_RECORD_SIZE);
        put_u8(&mut out, PAYLOAD_KIND_SEGMENT_HEADER);
        put_u32(&mut out, SEGMENT_HEADER_MAGIC);
        put_u64(&mut out, self.segment_seq);
        put_u64(&mut out, self.base_lsn);
        put_u64(&mut out, self.epoch);
        out
    }

    /// Deserialises a payload previously produced by
    /// [`SegmentHeaderRecord::encode`].
    pub fn decode(payload: &[u8], offset: u64) -> Result<Self> {
        decode_typed(payload, offset, PAYLOAD_KIND_SEGMENT_HEADER, |r| {
            if r.u32()? != SEGMENT_HEADER_MAGIC {
                return Err(r.error_at(1, "bad segment header magic"));
            }
            Ok(SegmentHeaderRecord {
                segment_seq: r.u64()?,
                base_lsn: r.u64()?,
                epoch: r.u64()?,
            })
        })
    }
}

/// The start marker of a fuzzy (non-quiescing) checkpoint.
///
/// The checkpointer appends this, then flushes dirty store state *while
/// commits keep flowing*. On its own the record promises nothing — only
/// the matching [`CheckpointEndRecord`] (same `epoch`) certifies that
/// every commit with timestamp `<= begin_ts` is in the stores, letting
/// recovery start its replay after this record's LSN. An unpaired begin
/// (crash mid-checkpoint) is ignored by recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointBeginRecord {
    /// The checkpoint epoch (monotone per database).
    pub epoch: u64,
    /// Newest commit timestamp the checkpoint promises to flush.
    pub begin_ts: u64,
}

/// Encoded size of a [`CheckpointBeginRecord`] payload.
pub const CHECKPOINT_BEGIN_RECORD_SIZE: usize = 1 + 8 + 8;

impl CheckpointBeginRecord {
    /// Serialises the record as a typed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CHECKPOINT_BEGIN_RECORD_SIZE);
        put_u8(&mut out, PAYLOAD_KIND_CHECKPOINT_BEGIN);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.begin_ts);
        out
    }

    /// Deserialises a payload previously produced by
    /// [`CheckpointBeginRecord::encode`].
    pub fn decode(payload: &[u8], offset: u64) -> Result<Self> {
        decode_typed(payload, offset, PAYLOAD_KIND_CHECKPOINT_BEGIN, |r| {
            Ok(CheckpointBeginRecord {
                epoch: r.u64()?,
                begin_ts: r.u64()?,
            })
        })
    }
}

/// The completion marker of a fuzzy checkpoint: pairs with the
/// [`CheckpointBeginRecord`] carrying the same `epoch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointEndRecord {
    /// The checkpoint epoch this record completes.
    pub epoch: u64,
    /// Newest commit timestamp guaranteed flushed to the stores.
    pub stable_ts: u64,
}

/// Encoded size of a [`CheckpointEndRecord`] payload.
pub const CHECKPOINT_END_RECORD_SIZE: usize = 1 + 8 + 8;

impl CheckpointEndRecord {
    /// Serialises the record as a typed payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CHECKPOINT_END_RECORD_SIZE);
        put_u8(&mut out, PAYLOAD_KIND_CHECKPOINT_END);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.stable_ts);
        out
    }

    /// Deserialises a payload previously produced by
    /// [`CheckpointEndRecord::encode`].
    pub fn decode(payload: &[u8], offset: u64) -> Result<Self> {
        decode_typed(payload, offset, PAYLOAD_KIND_CHECKPOINT_END, |r| {
            Ok(CheckpointEndRecord {
                epoch: r.u64()?,
                stable_ts: r.u64()?,
            })
        })
    }
}

/// Size of the fixed entry header in bytes.
pub const HEADER_SIZE: usize = 4 + 4 + 8 + 4;
/// Maximum payload size accepted (guards against reading garbage lengths
/// from a corrupt log).
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// One entry of the write-ahead log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Log sequence number (monotonically increasing, starting at 1).
    pub lsn: u64,
    /// Opaque payload supplied by the layer above (the commit-record
    /// encoding lives in `graphsi-core`).
    pub payload: Vec<u8>,
}

/// The entry checksum: CRC-32 over the LSN's bytes, then the payload.
fn entry_crc(lsn_bytes: &[u8], payload: &[u8]) -> u32 {
    Crc32::default().update(lsn_bytes).update(payload).finish()
}

/// Serialises one framed entry from a borrowed payload — the append path
/// uses this directly so it never clones the payload into a [`LogEntry`]
/// first.
pub fn encode_frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_SIZE + payload.len());
    put_u32(&mut out, ENTRY_MAGIC);
    put_u32(&mut out, payload.len() as u32);
    put_u64(&mut out, lsn);
    let crc = entry_crc(&out[8..16], payload);
    put_u32(&mut out, crc);
    out.extend_from_slice(payload);
    out
}

impl LogEntry {
    /// Creates an entry.
    pub fn new(lsn: u64, payload: Vec<u8>) -> Self {
        LogEntry { lsn, payload }
    }

    /// Serialises the entry (header + payload) into a byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.lsn, &self.payload)
    }

    /// Attempts to decode one entry from the beginning of `buf`.
    ///
    /// Returns `Ok(None)` if `buf` holds a prefix of an entry (a torn tail
    /// after a crash — not an error), `Ok(Some((entry, consumed)))` on
    /// success and `Err` on framing or checksum violations.
    pub fn decode(buf: &[u8], offset: u64) -> Result<Option<(LogEntry, usize)>> {
        if buf.len() < HEADER_SIZE {
            return Ok(None);
        }
        let magic = get_u32(buf, 0);
        if magic != ENTRY_MAGIC {
            return Err(WalError::Corrupt {
                offset,
                reason: format!("bad magic {magic:#010x}"),
            });
        }
        let len = get_u32(buf, 4) as usize;
        if len > MAX_PAYLOAD {
            return Err(WalError::Corrupt {
                offset,
                reason: format!("payload length {len} exceeds maximum"),
            });
        }
        if buf.len() < HEADER_SIZE + len {
            return Ok(None);
        }
        let payload = &buf[HEADER_SIZE..HEADER_SIZE + len];
        if get_u32(buf, 16) != entry_crc(&buf[8..16], payload) {
            return Err(WalError::Corrupt {
                offset,
                reason: "checksum mismatch".to_owned(),
            });
        }
        Ok(Some((
            LogEntry {
                lsn: get_u64(buf, 8),
                payload: payload.to_vec(),
            },
            HEADER_SIZE + len,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_decode_roundtrip() {
        let entry = LogEntry::new(7, vec![1, 2, 3, 4, 5]);
        let bytes = entry.encode();
        let (decoded, consumed) = LogEntry::decode(&bytes, 0).unwrap().unwrap();
        assert_eq!(decoded, entry);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let entry = LogEntry::new(1, Vec::new());
        let bytes = entry.encode();
        let (decoded, _) = LogEntry::decode(&bytes, 0).unwrap().unwrap();
        assert_eq!(decoded.payload, Vec::<u8>::new());
    }

    #[test]
    fn torn_tail_is_not_an_error() {
        let entry = LogEntry::new(3, vec![9; 100]);
        let bytes = entry.encode();
        // Cut anywhere inside the entry.
        for cut in [0, 3, HEADER_SIZE - 1, HEADER_SIZE + 10, bytes.len() - 1] {
            assert!(
                LogEntry::decode(&bytes[..cut], 0).unwrap().is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_is_corruption() {
        let mut bytes = LogEntry::new(1, vec![1]).encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            LogEntry::decode(&bytes, 42),
            Err(WalError::Corrupt { offset: 42, .. })
        ));
    }

    #[test]
    fn flipped_payload_bit_is_corruption() {
        let mut bytes = LogEntry::new(1, vec![0xAA; 16]).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            LogEntry::decode(&bytes, 0),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn insane_length_is_corruption() {
        let mut bytes = LogEntry::new(1, vec![1, 2, 3]).encode();
        bytes[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            LogEntry::decode(&bytes, 0),
            Err(WalError::Corrupt { .. })
        ));
    }

    #[test]
    fn abort_record_roundtrip() {
        let record = AbortRecord { commit_ts: 7781 };
        let bytes = record.encode();
        assert_eq!(bytes.len(), ABORT_RECORD_SIZE);
        assert_eq!(payload_kind(&bytes, 0).unwrap(), PayloadKind::Abort);
        assert_eq!(AbortRecord::decode(&bytes, 0).unwrap(), record);
    }

    #[test]
    fn payload_kind_rejects_garbage() {
        assert!(payload_kind(&[], 3).is_err());
        assert!(payload_kind(&[0xFF], 3).is_err());
        assert_eq!(
            payload_kind(&[PAYLOAD_KIND_COMMIT, 1, 2], 0).unwrap(),
            PayloadKind::Commit
        );
    }

    #[test]
    fn abort_range_record_roundtrip_and_coverage() {
        let record = AbortRangeRecord {
            from_lsn: 5,
            to_lsn: 9,
        };
        let bytes = record.encode();
        assert_eq!(bytes.len(), ABORT_RANGE_RECORD_SIZE);
        assert_eq!(payload_kind(&bytes, 0).unwrap(), PayloadKind::AbortRange);
        assert_eq!(AbortRangeRecord::decode(&bytes, 0).unwrap(), record);
        assert!(!record.covers(4));
        assert!(record.covers(5));
        assert!(record.covers(9));
        assert!(!record.covers(10));
        assert!(AbortRangeRecord::decode(&bytes[..10], 0).is_err());
    }

    #[test]
    fn segment_header_record_roundtrip() {
        let record = SegmentHeaderRecord {
            segment_seq: 12,
            base_lsn: 4811,
            epoch: 3,
        };
        let bytes = record.encode();
        assert_eq!(bytes.len(), SEGMENT_HEADER_RECORD_SIZE);
        assert_eq!(payload_kind(&bytes, 0).unwrap(), PayloadKind::SegmentHeader);
        assert_eq!(SegmentHeaderRecord::decode(&bytes, 0).unwrap(), record);
        // Truncation, wrong kind and a flipped magic are all typed errors.
        assert!(SegmentHeaderRecord::decode(&bytes[..bytes.len() - 1], 0).is_err());
        let mut wrong_kind = bytes.clone();
        wrong_kind[0] = PAYLOAD_KIND_COMMIT;
        assert!(SegmentHeaderRecord::decode(&wrong_kind, 0).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[1] ^= 0xFF;
        assert!(SegmentHeaderRecord::decode(&bad_magic, 0).is_err());
    }

    #[test]
    fn checkpoint_records_roundtrip() {
        let begin = CheckpointBeginRecord {
            epoch: 7,
            begin_ts: 991,
        };
        let bytes = begin.encode();
        assert_eq!(bytes.len(), CHECKPOINT_BEGIN_RECORD_SIZE);
        assert_eq!(
            payload_kind(&bytes, 0).unwrap(),
            PayloadKind::CheckpointBegin
        );
        assert_eq!(CheckpointBeginRecord::decode(&bytes, 0).unwrap(), begin);
        assert!(CheckpointBeginRecord::decode(&bytes[..5], 0).is_err());

        let end = CheckpointEndRecord {
            epoch: 7,
            stable_ts: 1003,
        };
        let bytes = end.encode();
        assert_eq!(bytes.len(), CHECKPOINT_END_RECORD_SIZE);
        assert_eq!(payload_kind(&bytes, 0).unwrap(), PayloadKind::CheckpointEnd);
        assert_eq!(CheckpointEndRecord::decode(&bytes, 0).unwrap(), end);
        // Kinds are not interchangeable.
        assert!(CheckpointBeginRecord::decode(&bytes, 0).is_err());
    }

    #[test]
    fn truncated_abort_record_is_rejected() {
        let bytes = AbortRecord { commit_ts: 1 }.encode();
        assert!(AbortRecord::decode(&bytes[..bytes.len() - 1], 0).is_err());
        let mut wrong_kind = bytes.clone();
        wrong_kind[0] = PAYLOAD_KIND_COMMIT;
        assert!(AbortRecord::decode(&wrong_kind, 0).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(lsn in 0u64..u64::MAX, payload in proptest::collection::vec(proptest::num::u8::ANY, 0..2048)) {
            let entry = LogEntry::new(lsn, payload);
            let bytes = entry.encode();
            let (decoded, consumed) = LogEntry::decode(&bytes, 0).unwrap().unwrap();
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(decoded, entry);
        }
    }
}
