//! Golden bytes: the exact encodings of every persisted and wire format.
//!
//! Round-trip tests pass even after a symmetric format change (encoder
//! and decoder drifting together), which would silently orphan every
//! existing log, store file and peer. These tests pin the bytes
//! themselves: a commit record with every op and value kind, the five
//! typed WAL payloads and one framed log entry, one request and one
//! response frame, a sealed page trailer, a token file and an `.id`
//! sidecar. Each golden line is hex, one field per space-separated group;
//! a failing assertion prints the bytes the code now produces.

use graphsi_core::{CommitOp, CommitRecord, PropertyValue, Timestamp};
use graphsi_server::protocol::write_frame;
use graphsi_server::{Request, Response, WireNode};
use graphsi_storage::id_allocator::IdAllocator;
use graphsi_storage::pages::{Page, PAGE_TRAILER_SIZE};
use graphsi_storage::test_util::TempDir;
use graphsi_storage::token_store::TokenRegistry;
use graphsi_storage::{LabelToken, NodeId, PropertyKeyToken, RelTypeToken, RelationshipId};
use graphsi_wal::{
    AbortRangeRecord, AbortRecord, CheckpointBeginRecord, CheckpointEndRecord, LogEntry,
    SegmentHeaderRecord,
};

#[track_caller]
fn assert_golden(bytes: &[u8], golden: &[&str]) {
    let actual: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(actual, golden.concat().replace(' ', ""));
}

/// One property of each value kind; the string is non-ASCII so its
/// UTF-8 bytes are pinned too.
fn every_value() -> [PropertyValue; 4] {
    [
        PropertyValue::Bool(true),
        PropertyValue::Int(-2),
        PropertyValue::Float(1.5),
        PropertyValue::String("héllo".to_owned()),
    ]
}

fn named_values() -> Vec<(String, PropertyValue)> {
    ["b", "i", "f", "s"]
        .into_iter()
        .map(str::to_owned)
        .zip(every_value())
        .collect()
}

/// The wire bytes of [`named_values`]: count, then name and value each.
const NAMED_VALUES: [&str; 5] = [
    "04000000",
    "01000000 62 00 01",
    "01000000 69 01 feffffffffffffff",
    "01000000 66 02 000000000000f83f",
    "01000000 73 03 06000000 68c3a96c6c6f",
];

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).expect("framing into a Vec cannot fail");
    out
}

#[test]
fn commit_record_bytes_are_pinned() {
    let [b, i, f, s] = every_value();
    let record = CommitRecord {
        commit_ts: Timestamp(0x0102),
        ops: vec![
            CommitOp::CreateNode {
                id: NodeId::new(1),
                labels: vec![LabelToken(2), LabelToken(3)],
                properties: vec![(PropertyKeyToken(4), b), (PropertyKeyToken(5), i)],
            },
            CommitOp::UpdateNode {
                id: NodeId::new(6),
                labels: vec![],
                properties: vec![(PropertyKeyToken(7), f)],
            },
            CommitOp::DeleteNode { id: NodeId::new(8) },
            CommitOp::CreateRelationship {
                id: RelationshipId::new(9),
                source: NodeId::new(1),
                target: NodeId::new(6),
                rel_type: RelTypeToken(10),
                properties: vec![(PropertyKeyToken(11), s)],
            },
            CommitOp::UpdateRelationship {
                id: RelationshipId::new(9),
                properties: vec![(PropertyKeyToken(12), PropertyValue::Int(i64::MIN))],
            },
            CommitOp::DeleteRelationship {
                id: RelationshipId::new(13),
            },
        ],
    };
    let bytes = record.encode().expect("within limits");
    assert_golden(
        &bytes,
        &[
            // kind, commit_ts, op count
            "01 0201000000000000 06000000",
            // create node 1: labels [2, 3], {4: true, 5: -2}
            "01 0100000000000000 02 02000000 03000000",
            "0200 04000000 00 01 05000000 01 feffffffffffffff",
            // update node 6: no labels, {7: 1.5}
            "02 0600000000000000 00 0100 07000000 02 000000000000f83f",
            // delete node 8
            "03 0800000000000000",
            // create rel 9: 1 -> 6, type 10, {11: "héllo"}
            "04 0900000000000000 0100000000000000 0600000000000000 0a000000",
            "0100 0b000000 03 06000000 68c3a96c6c6f",
            // update rel 9: {12: i64::MIN}
            "05 0900000000000000 0100 0c000000 01 0000000000000080",
            // delete rel 13
            "06 0d00000000000000",
        ],
    );
    assert_eq!(CommitRecord::decode(&bytes).expect("decodes"), record);
}

#[test]
fn typed_wal_payload_bytes_are_pinned() {
    let abort = AbortRecord { commit_ts: 0x1122 };
    assert_golden(&abort.encode(), &["02 2211000000000000"]);
    let range = AbortRangeRecord {
        from_lsn: 5,
        to_lsn: 9,
    };
    assert_golden(&range.encode(), &["03 0500000000000000 0900000000000000"]);
    let header = SegmentHeaderRecord {
        segment_seq: 3,
        base_lsn: 4097,
        epoch: 2,
    };
    assert_golden(
        &header.encode(),
        &["04 47455347 0300000000000000 0110000000000000 0200000000000000"],
    );
    let begin = CheckpointBeginRecord {
        epoch: 7,
        begin_ts: 991,
    };
    assert_golden(&begin.encode(), &["05 0700000000000000 df03000000000000"]);
    let end = CheckpointEndRecord {
        epoch: 7,
        stable_ts: 1003,
    };
    assert_golden(&end.encode(), &["06 0700000000000000 eb03000000000000"]);
}

#[test]
fn framed_log_entry_bytes_are_pinned() {
    // magic "WALE", payload length, LSN, CRC-32 over LSN ‖ payload, payload.
    assert_golden(
        &LogEntry::new(42, b"golden".to_vec()).encode(),
        &["454c4157 06000000 2a00000000000000 00fcd54c 676f6c64656e"],
    );
}

#[test]
fn request_frame_bytes_are_pinned() {
    let request = Request::CreateNode {
        labels: vec!["P".to_owned()],
        properties: named_values(),
    };
    // magic "GSP1", payload length; CREATE_NODE, labels ["P"], properties.
    let head = ["31505347 41000000", "20 01000000 01000000 50"];
    assert_golden(
        &framed(&request.encode()),
        &[&head[..], &NAMED_VALUES].concat(),
    );
}

#[test]
fn response_frame_bytes_are_pinned() {
    let response = Response::Node {
        node: Some(WireNode {
            id: 11,
            labels: vec!["P".to_owned()],
            properties: named_values(),
        }),
    };
    // magic, payload length; NODE, present, id 11, labels ["P"], properties.
    let head = [
        "31505347 4a000000",
        "06 01 0b00000000000000 01000000 01000000 50",
    ];
    assert_golden(
        &framed(&response.encode()),
        &[&head[..], &NAMED_VALUES].concat(),
    );
}

#[test]
fn sealed_page_trailer_bytes_are_pinned() {
    let mut page = Page::zeroed();
    for (i, b) in page.bytes_mut()[..256].iter_mut().enumerate() {
        *b = i as u8;
    }
    page.seal(0x0A0B_0C0D);
    let trailer = &page.bytes()[page.bytes().len() - PAGE_TRAILER_SIZE..];
    // magic "GSPG", stamp, CRC-32 over everything before the CRC.
    assert_golden(trailer, &["47505347 0d0c0b0a00000000 53a0256f"]);
}

#[test]
fn token_file_and_id_sidecar_bytes_are_pinned() {
    let dir = TempDir::new("golden_store_files");
    let tokens = dir.path().join("labels.tokens");
    let registry = TokenRegistry::open(&tokens, "label").expect("open token file");
    registry.get_or_create("Person").expect("intern");
    registry.get_or_create("Émile").expect("intern");
    registry.persist().expect("persist tokens");
    // name count, then each name length-prefixed.
    assert_golden(
        &std::fs::read(&tokens).expect("read token file"),
        &[
            "0200000000000000",
            "06000000 506572736f6e",
            "06000000 c3896d696c65",
        ],
    );

    let ids = dir.path().join("nodes.db.id");
    let allocator = IdAllocator::open(&ids).expect("open id file");
    for _ in 0..3 {
        allocator.allocate();
    }
    allocator.release(1);
    allocator.persist().expect("persist ids");
    // next id, free-list length, free-list.
    assert_golden(
        &std::fs::read(&ids).expect("read id file"),
        &["0300000000000000 0100000000000000 0100000000000000"],
    );
}
