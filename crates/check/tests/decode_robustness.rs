//! Structured-mutation robustness harness over the byte formats: the WAL
//! entry framing and typed payloads (`graphsi_wal::record`), the commit
//! records recovery replays (`graphsi_core::CommitRecord`), the server
//! protocol (`graphsi_server::protocol`) and store-page trailers.
//!
//! Every mutant of a well-formed input must produce a typed error or a
//! clean parse — never a panic, never an unbounded allocation. The
//! decoders return `Result`, so "typed error" is enforced by the type
//! system; what these tests add is driving the mutation space (torn
//! tails, bit flips, length-field lies, framing slips) through every
//! decode entry point at volume. `GRAPHSI_FUZZ_ITERS` scales the volume
//! (default 4000 per target; CI smoke keeps the default).

use std::io::Cursor;

use graphsi_check::fuzz::{fuzz_iterations, Mutator};
use graphsi_core::{CommitOp, CommitRecord, IsolationLevel, PropertyValue, Timestamp};
use graphsi_server::protocol::FrameReader;
use graphsi_server::{Request, Response, WireNode, WireRow};
use graphsi_storage::codec::crc32;
use graphsi_storage::pages::{Page, PageVerdict, PAGE_SIZE, PAGE_TRAILER_SIZE};
use graphsi_storage::{LabelToken, NodeId, PropertyKeyToken, RelTypeToken, RelationshipId};
use graphsi_wal::record::encode_frame;
use graphsi_wal::{
    payload_kind, AbortRangeRecord, AbortRecord, CheckpointBeginRecord, CheckpointEndRecord,
    LogEntry, SegmentHeaderRecord,
};

// -----------------------------------------------------------------
// Seeds: well-formed encodings to mutate
// -----------------------------------------------------------------

fn request_seeds() -> Vec<Vec<u8>> {
    let props = vec![
        ("name".to_owned(), PropertyValue::String("ada".to_owned())),
        ("age".to_owned(), PropertyValue::Int(36)),
        ("score".to_owned(), PropertyValue::Float(0.5)),
        ("active".to_owned(), PropertyValue::Bool(true)),
    ];
    [
        Request::Ping,
        Request::Health,
        Request::Metrics,
        Request::Verify,
        Request::Begin {
            read_only: true,
            isolation: IsolationLevel::SnapshotIsolation,
        },
        Request::Commit,
        Request::Rollback,
        Request::CreateNode {
            labels: vec!["Person".to_owned(), "Employee".to_owned()],
            properties: props.clone(),
        },
        Request::GetNode { id: 42 },
        Request::SetNodeProperty {
            id: 7,
            key: "name".to_owned(),
            value: PropertyValue::String("grace".to_owned()),
        },
        Request::RemoveNodeProperty {
            id: 7,
            key: "name".to_owned(),
        },
        Request::DeleteNode { id: 9 },
        Request::CreateRelationship {
            source: 1,
            target: 2,
            rel_type: "KNOWS".to_owned(),
            properties: props.clone(),
        },
        Request::DeleteRelationship { id: 3 },
        Request::NodeProperty {
            id: 5,
            key: "age".to_owned(),
        },
        Request::LabelQuery {
            label: "Person".to_owned(),
            limit: 100,
            projection: vec!["name".to_owned(), "age".to_owned()],
        },
        Request::RangeQuery {
            key: "age".to_owned(),
            lo: Some(PropertyValue::Int(18)),
            hi: None,
            limit: 0,
            projection: vec!["name".to_owned()],
            order: 0,
        },
        Request::RangeQuery {
            key: "score".to_owned(),
            lo: None,
            hi: Some(PropertyValue::Int(500)),
            limit: 10,
            projection: vec![],
            order: 2,
        },
        Request::Sleep { ms: 10 },
    ]
    .iter()
    .map(Request::encode)
    .collect()
}

fn response_seeds() -> Vec<Vec<u8>> {
    let node = WireNode {
        id: 11,
        labels: vec!["Person".to_owned()],
        properties: vec![("name".to_owned(), PropertyValue::String("ada".to_owned()))],
    };
    let row = WireRow {
        node: 11,
        rel: Some(4),
        properties: vec![("age".to_owned(), PropertyValue::Int(36))],
    };
    [
        Response::Ok,
        Response::Pong,
        Response::Committed { commit_ts: 99 },
        Response::NodeId { id: 11 },
        Response::RelationshipId { id: 4 },
        Response::Node {
            node: Some(node.clone()),
        },
        Response::Node { node: None },
        Response::Value {
            value: Some(PropertyValue::Float(1.25)),
        },
        Response::Rows {
            rows: vec![row.clone(), row],
        },
        Response::Text {
            text: "server_requests_total 3\n".to_owned(),
        },
        Response::Error {
            code: graphsi_server::ErrorCode::Conflict,
            message: "write-write conflict".to_owned(),
        },
        Response::Overloaded {
            message: "worker pool queue full".to_owned(),
        },
    ]
    .iter()
    .map(Response::encode)
    .collect()
}

fn wal_seeds() -> Vec<Vec<u8>> {
    vec![
        encode_frame(1, b"hello wal"),
        encode_frame(2, &[]),
        encode_frame(u64::MAX, &vec![0xAB; 512]),
        // A stream of several entries back to back.
        {
            let mut s = Vec::new();
            for lsn in 1..=5u64 {
                s.extend_from_slice(&encode_frame(lsn, &lsn.to_le_bytes()));
            }
            s
        },
    ]
}

fn wal_payload_seeds() -> Vec<Vec<u8>> {
    vec![
        AbortRecord { commit_ts: 77 }.encode(),
        AbortRangeRecord {
            from_lsn: 10,
            to_lsn: 20,
        }
        .encode(),
        SegmentHeaderRecord {
            segment_seq: 3,
            base_lsn: 4097,
            epoch: 2,
        }
        .encode(),
        CheckpointBeginRecord {
            epoch: 5,
            begin_ts: 1_000,
        }
        .encode(),
        CheckpointEndRecord {
            epoch: 5,
            stable_ts: 1_000,
        }
        .encode(),
    ]
    .into_iter()
    .chain(commit_record_seeds())
    .collect()
}

/// Real commit records: every op kind, every value kind, and one entity
/// at the 255-label limit.
fn commit_record_seeds() -> Vec<Vec<u8>> {
    let props = |base: u32| {
        vec![
            (PropertyKeyToken(base), PropertyValue::Bool(true)),
            (PropertyKeyToken(base + 1), PropertyValue::Int(-36)),
            (PropertyKeyToken(base + 2), PropertyValue::Float(0.5)),
            (
                PropertyKeyToken(base + 3),
                PropertyValue::String("grace".to_owned()),
            ),
        ]
    };
    let records = [
        CommitRecord {
            commit_ts: Timestamp(7),
            ops: vec![
                CommitOp::CreateNode {
                    id: NodeId::new(1),
                    labels: vec![LabelToken(1), LabelToken(2)],
                    properties: props(0),
                },
                CommitOp::UpdateNode {
                    id: NodeId::new(2),
                    labels: vec![],
                    properties: props(4),
                },
                CommitOp::CreateRelationship {
                    id: RelationshipId::new(3),
                    source: NodeId::new(1),
                    target: NodeId::new(2),
                    rel_type: RelTypeToken(5),
                    properties: props(8),
                },
                CommitOp::UpdateRelationship {
                    id: RelationshipId::new(3),
                    properties: props(12),
                },
                CommitOp::DeleteRelationship {
                    id: RelationshipId::new(4),
                },
                CommitOp::DeleteNode { id: NodeId::new(5) },
            ],
        },
        CommitRecord {
            commit_ts: Timestamp(u64::MAX),
            ops: vec![CommitOp::UpdateNode {
                id: NodeId::new(9),
                labels: (0..255).map(LabelToken).collect(),
                properties: props(0),
            }],
        },
        CommitRecord {
            commit_ts: Timestamp(1),
            ops: vec![],
        },
    ];
    records
        .iter()
        .map(|r| r.encode().expect("seed within limits"))
        .collect()
}

// -----------------------------------------------------------------
// Unmutated seeds must round-trip (harness sanity)
// -----------------------------------------------------------------

#[test]
fn seeds_are_well_formed() {
    for bytes in request_seeds() {
        Request::decode(&bytes).expect("request seed must decode");
    }
    for bytes in response_seeds() {
        Response::decode(&bytes).expect("response seed must decode");
    }
    for bytes in wal_seeds() {
        let (entry, consumed) = LogEntry::decode(&bytes, 0)
            .expect("wal seed must decode")
            .expect("wal seed must be complete");
        assert!(consumed <= bytes.len());
        assert!(!entry.payload.is_empty() || consumed == bytes.len() || bytes.len() > consumed);
    }
    for bytes in wal_payload_seeds() {
        payload_kind(&bytes, 0).expect("payload seed must have a kind");
    }
    for bytes in commit_record_seeds() {
        let record = CommitRecord::decode(&bytes).expect("commit seed must decode");
        assert_eq!(record.encode().expect("re-encodes"), bytes);
    }
}

// -----------------------------------------------------------------
// Mutated seeds must never panic
// -----------------------------------------------------------------

/// Drains a mutated WAL buffer the way recovery does: decode entries
/// from the front until a torn tail (`Ok(None)`), a typed corruption
/// error, or the buffer is exhausted.
fn drain_wal(buf: &[u8]) {
    let mut pos = 0usize;
    while pos < buf.len() {
        match LogEntry::decode(&buf[pos..], pos as u64) {
            Ok(Some((_, consumed))) => {
                assert!(consumed > 0, "decode must make progress");
                pos += consumed;
            }
            Ok(None) => break,
            Err(_) => break,
        }
    }
}

#[test]
fn wal_entry_decode_survives_mutation() {
    let seeds = wal_seeds();
    let mut mutator = Mutator::new(0x57414C45);
    for i in 0..fuzz_iterations() {
        let seed = &seeds[(i as usize) % seeds.len()];
        let mutant = mutator.mutate(seed);
        drain_wal(&mutant);
    }
}

#[test]
fn wal_typed_payload_decode_survives_mutation() {
    let seeds = wal_payload_seeds();
    let mut mutator = Mutator::new(0x41424F52);
    for i in 0..fuzz_iterations() {
        let seed = &seeds[(i as usize) % seeds.len()];
        let mutant = mutator.mutate(seed);
        let _ = payload_kind(&mutant, 7);
        let _ = AbortRecord::decode(&mutant, 7);
        let _ = AbortRangeRecord::decode(&mutant, 7);
        let _ = SegmentHeaderRecord::decode(&mutant, 7);
        let _ = CheckpointBeginRecord::decode(&mutant, 7);
        let _ = CheckpointEndRecord::decode(&mutant, 7);
    }
}

/// Recovery decodes every replayed commit record. A mutant must decode
/// to a typed error or to a record that accounts for every byte: its
/// encoding is as long as the mutant (a bool byte other than 0 or 1 reads
/// as `true` and re-encodes as 1) and decodes back to itself.
#[test]
fn commit_record_decode_survives_mutation() {
    let seeds = commit_record_seeds();
    let mut mutator = Mutator::new(0x434F_4D54);
    for i in 0..fuzz_iterations() {
        let seed = &seeds[(i as usize) % seeds.len()];
        let mutant = mutator.mutate(seed);
        if let Ok(record) = CommitRecord::decode(&mutant) {
            let bytes = record.encode().expect("a decoded record is within limits");
            assert_eq!(bytes.len(), mutant.len(), "decode must consume every byte");
            let again = CommitRecord::decode(&bytes).expect("re-encoding decodes");
            assert_eq!(again.encode().expect("within limits"), bytes);
        }
    }
}

/// Feeds a mutated byte stream through the frame reader the way a
/// connection thread does, then decodes every extracted payload as both
/// a request and a response. Errors are fine; panics are not.
fn drain_frames(stream: &[u8]) {
    let mut reader = FrameReader::new();
    let mut cursor = Cursor::new(stream);
    for _ in 0..64 {
        match reader.poll_frame(&mut cursor) {
            Ok(Some(payload)) => {
                let _ = Request::decode(&payload);
                let _ = Response::decode(&payload);
            }
            // A `Cursor` never times out, so `None` cannot happen; EOF
            // and framing violations both surface as typed errors.
            Ok(None) | Err(_) => break,
        }
    }
}

#[test]
fn frame_reader_and_payload_decode_survive_mutation() {
    use graphsi_server::protocol::write_frame;
    let mut seeds = Vec::new();
    for payload in request_seeds().into_iter().chain(response_seeds()) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("framing a vec cannot fail");
        seeds.push(framed);
    }
    // A multi-frame stream, so truncation can land between frames.
    let mut stream = Vec::new();
    for s in seeds.iter().take(4) {
        stream.extend_from_slice(s);
    }
    seeds.push(stream);

    let mut mutator = Mutator::new(0x47535031);
    for i in 0..fuzz_iterations() {
        let seed = &seeds[(i as usize) % seeds.len()];
        let mutant = mutator.mutate(seed);
        drain_frames(&mutant);
    }
}

#[test]
fn bare_payload_decode_survives_mutation() {
    let seeds: Vec<Vec<u8>> = request_seeds()
        .into_iter()
        .chain(response_seeds())
        .collect();
    let mut mutator = Mutator::new(0xDEC0DE);
    for i in 0..fuzz_iterations() {
        let seed = &seeds[(i as usize) % seeds.len()];
        let mutant = mutator.mutate(seed);
        let _ = Request::decode(&mutant);
        let _ = Response::decode(&mutant);
    }
}

// -----------------------------------------------------------------
// Store-page trailers
// -----------------------------------------------------------------

/// Sealed store pages whose trailers the mutants will chew on: a fresh
/// page, a sealed empty page, and sealed pages with record-ish content.
fn sealed_page_seeds() -> Vec<Vec<u8>> {
    let mut seeds = vec![Page::zeroed().bytes().to_vec()];
    for (stamp, fill) in [(0u64, 0x00u8), (1, 0xAB), (u64::MAX, 0x5A)] {
        let mut page = Page::zeroed();
        for (i, b) in page.bytes_mut()[..PAGE_SIZE - PAGE_TRAILER_SIZE]
            .iter_mut()
            .enumerate()
        {
            *b = fill.wrapping_add(i as u8);
        }
        page.seal(stamp);
        seeds.push(page.bytes().to_vec());
    }
    seeds
}

#[test]
fn page_trailer_seeds_verify_clean() {
    let seeds = sealed_page_seeds();
    assert_eq!(Page::from_bytes(&seeds[0]).verify(), PageVerdict::AllZero);
    for bytes in &seeds[1..] {
        assert!(matches!(
            Page::from_bytes(bytes).verify(),
            PageVerdict::Valid { .. }
        ));
    }
}

/// Trailer decode and verification must classify every mutant of a
/// sealed page — short images, bit flips, trailer lies — as one of the
/// three verdicts without panicking, and a verdict of `Valid`/`AllZero`
/// must be *idempotent*: re-verifying the same bytes yields the same
/// verdict (no interior mutation, no hash-state dependence).
#[test]
fn page_trailer_decode_survives_mutation() {
    let seeds = sealed_page_seeds();
    let mut mutator = Mutator::new(0x50414745);
    for i in 0..fuzz_iterations() {
        let seed = &seeds[(i as usize) % seeds.len()];
        let mutant = mutator.mutate(seed);
        let page = Page::from_bytes(&mutant);
        let first = page.verify();
        assert_eq!(page.verify(), first, "verdicts must be deterministic");
        if let PageVerdict::Corrupt { expected, .. } = first {
            // The reported CRC must be the one actually computed over
            // the page image (everything before the CRC field), so
            // operators can trust the error text.
            assert_eq!(expected, crc32(&page.bytes()[..PAGE_SIZE - 4]));
        }
    }
}
