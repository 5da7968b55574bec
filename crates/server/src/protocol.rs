//! The wire protocol: length-prefixed frames carrying manually encoded
//! request/response payloads.
//!
//! Every frame is:
//!
//! ```text
//! +---------+---------+------------------+
//! | magic   | len     | payload (len)    |
//! | u32 LE  | u32 LE  | bytes            |
//! +---------+---------+------------------+
//! ```
//!
//! and every payload starts with a one-byte opcode, in the same manual
//! little-endian style `wal::record` frames log entries with (the
//! environment is offline — no serde). TCP already checksums the stream,
//! so unlike the WAL frame there is no CRC; the magic word still rejects
//! desynchronised or non-protocol peers early.
//!
//! The protocol is strictly request→response: a client sends one frame
//! and reads exactly one frame back, so neither side ever needs request
//! IDs or reordering. `PING`, `HEALTH`, `METRICS` and `VERIFY` are answered inline
//! by the connection thread (probes must respond even when the worker
//! pools are saturated); everything else is executed by a pooled worker
//! and may be rejected with [`Response::Overloaded`] when the admission
//! queue is full.

use std::io::{Read, Write};

use graphsi_core::{IsolationLevel, PropertyValue};

/// Magic marker beginning every frame ("GSP1").
pub const FRAME_MAGIC: u32 = 0x4753_5031;

/// Size of the fixed frame header in bytes.
pub const FRAME_HEADER_SIZE: usize = 8;

/// Maximum payload size accepted (guards against garbage lengths from a
/// desynchronised peer).
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024 * 1024;

/// Errors of the wire layer.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (including clean disconnects, which
    /// surface as `UnexpectedEof`).
    Io(std::io::Error),
    /// A frame or payload violated the format.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtoError::Malformed(reason) => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Malformed(_) => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Result alias of the wire layer.
pub type ProtoResult<T> = std::result::Result<T, ProtoError>;

/// Writes one frame (header + payload) to `w` and flushes it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> ProtoResult<()> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    let mut buf = Vec::with_capacity(FRAME_HEADER_SIZE + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Incremental frame decoder: accumulates bytes across reads, so it works
/// both on blocking sockets (the client) and on sockets with a read
/// timeout (the server's connection threads, which poll for shutdown
/// between timeouts).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tries to extract one complete frame payload, reading more bytes
    /// from `r` as needed.
    ///
    /// Returns `Ok(Some(payload))` when a frame is complete,
    /// `Ok(None)` when the read timed out before a frame completed (the
    /// caller polls again), and `Err` on disconnect (`UnexpectedEof`),
    /// I/O failure or framing violation.
    pub fn poll_frame(&mut self, r: &mut impl Read) -> ProtoResult<Option<Vec<u8>>> {
        loop {
            if let Some(payload) = self.take_complete_frame()? {
                return Ok(Some(payload));
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(ProtoError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    )))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }

    /// Blocking form of [`FrameReader::poll_frame`]: loops until a frame
    /// completes or the connection fails. Only sensible on sockets with
    /// no read timeout (the client side).
    pub fn read_frame(&mut self, r: &mut impl Read) -> ProtoResult<Vec<u8>> {
        loop {
            if let Some(payload) = self.poll_frame(r)? {
                return Ok(payload);
            }
        }
    }

    fn take_complete_frame(&mut self) -> ProtoResult<Option<Vec<u8>>> {
        if self.buf.len() < FRAME_HEADER_SIZE {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(
            self.buf[0..4]
                .try_into()
                .map_err(|_| bad_field_width("frame magic"))?,
        );
        if magic != FRAME_MAGIC {
            return Err(ProtoError::Malformed(format!("bad magic {magic:#010x}")));
        }
        let len = u32::from_le_bytes(
            self.buf[4..8]
                .try_into()
                .map_err(|_| bad_field_width("frame length"))?,
        ) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(ProtoError::Malformed(format!(
                "payload length {len} exceeds maximum"
            )));
        }
        if self.buf.len() < FRAME_HEADER_SIZE + len {
            return Ok(None);
        }
        let payload = self.buf[FRAME_HEADER_SIZE..FRAME_HEADER_SIZE + len].to_vec();
        self.buf.drain(..FRAME_HEADER_SIZE + len);
        Ok(Some(payload))
    }
}

// ---------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &PropertyValue) {
    match v {
        PropertyValue::Bool(b) => {
            put_u8(out, 0);
            put_u8(out, u8::from(*b));
        }
        PropertyValue::Int(i) => {
            put_u8(out, 1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        PropertyValue::Float(f) => {
            put_u8(out, 2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        PropertyValue::String(s) => {
            put_u8(out, 3);
            put_str(out, s);
        }
    }
}

fn put_opt_value(out: &mut Vec<u8>, v: &Option<PropertyValue>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put_value(out, v);
        }
    }
}

fn put_strings(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

fn put_props(out: &mut Vec<u8>, props: &[(String, PropertyValue)]) {
    put_u32(out, props.len() as u32);
    for (k, v) in props {
        put_str(out, k);
        put_value(out, v);
    }
}

/// Bounds-checked payload cursor used by every decoder.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn bad_field_width(what: &str) -> ProtoError {
    ProtoError::Malformed(format!("{what} field has the wrong byte width"))
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> ProtoResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Malformed(format!(
                "payload truncated at offset {} (wanted {n} more bytes)",
                self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> ProtoResult<u8> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> ProtoResult<u32> {
        let bytes = self
            .bytes(4)?
            .try_into()
            .map_err(|_| bad_field_width("u32"))?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> ProtoResult<u64> {
        let bytes = self
            .bytes(8)?
            .try_into()
            .map_err(|_| bad_field_width("u64"))?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn i64(&mut self) -> ProtoResult<i64> {
        let bytes = self
            .bytes(8)?
            .try_into()
            .map_err(|_| bad_field_width("i64"))?;
        Ok(i64::from_le_bytes(bytes))
    }

    fn string(&mut self) -> ProtoResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed("invalid utf-8 in string".into()))
    }

    fn value(&mut self) -> ProtoResult<PropertyValue> {
        match self.u8()? {
            0 => Ok(PropertyValue::Bool(self.u8()? != 0)),
            1 => Ok(PropertyValue::Int(self.i64()?)),
            2 => Ok(PropertyValue::Float(f64::from_bits(self.u64()?))),
            3 => Ok(PropertyValue::String(self.string()?)),
            tag => Err(ProtoError::Malformed(format!("unknown value tag {tag}"))),
        }
    }

    fn opt_value(&mut self) -> ProtoResult<Option<PropertyValue>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.value()?)),
            tag => Err(ProtoError::Malformed(format!("bad option tag {tag}"))),
        }
    }

    fn strings(&mut self) -> ProtoResult<Vec<String>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(self.string()?);
        }
        Ok(out)
    }

    fn props(&mut self) -> ProtoResult<Vec<(String, PropertyValue)>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let key = self.string()?;
            let value = self.value()?;
            out.push((key, value));
        }
        Ok(out)
    }

    fn finish(&self) -> ProtoResult<()> {
        if self.pos != self.buf.len() {
            return Err(ProtoError::Malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

mod req_op {
    pub const PING: u8 = 0x01;
    pub const HEALTH: u8 = 0x02;
    pub const METRICS: u8 = 0x03;
    pub const VERIFY: u8 = 0x04;
    pub const BEGIN: u8 = 0x10;
    pub const COMMIT: u8 = 0x11;
    pub const ROLLBACK: u8 = 0x12;
    pub const CREATE_NODE: u8 = 0x20;
    pub const GET_NODE: u8 = 0x21;
    pub const SET_NODE_PROPERTY: u8 = 0x22;
    pub const REMOVE_NODE_PROPERTY: u8 = 0x23;
    pub const DELETE_NODE: u8 = 0x24;
    pub const CREATE_RELATIONSHIP: u8 = 0x25;
    pub const DELETE_RELATIONSHIP: u8 = 0x26;
    pub const NODE_PROPERTY: u8 = 0x27;
    pub const LABEL_QUERY: u8 = 0x30;
    pub const RANGE_QUERY: u8 = 0x31;
    pub const SLEEP: u8 = 0x40;
}

/// One client request. See the module docs for the framing; the session
/// state machine in `crate::session` defines the semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe, answered inline (never queued, never shed).
    Ping,
    /// Health probe: readiness plus a few load gauges, answered inline.
    Health,
    /// Plaintext metrics dump (`name value` lines: the server's own
    /// `server_*` counters followed by the database counters in
    /// `DbMetricsSnapshot::to_text` format), answered inline.
    Metrics,
    /// Runs the online integrity verifier and returns its plaintext
    /// report (`VerifyReport::to_text` format). Answered inline like the
    /// other admin probes — the verifier takes its own read snapshot, so
    /// it never touches the session's transaction state.
    Verify,
    /// Opens an explicit transaction on this session.
    Begin {
        /// Read-only snapshot transaction: routed to the read pool, never
        /// touches the lock manager.
        read_only: bool,
        /// Isolation level for the transaction.
        isolation: IsolationLevel,
    },
    /// Commits the session's open transaction.
    Commit,
    /// Rolls the session's open transaction back.
    Rollback,
    /// Creates a node (autocommits when no transaction is open).
    CreateNode {
        /// Label names.
        labels: Vec<String>,
        /// Initial properties.
        properties: Vec<(String, PropertyValue)>,
    },
    /// Reads a node with all labels and properties.
    GetNode {
        /// Node ID.
        id: u64,
    },
    /// Sets one node property (autocommits when no transaction is open).
    SetNodeProperty {
        /// Node ID.
        id: u64,
        /// Property name.
        key: String,
        /// New value.
        value: PropertyValue,
    },
    /// Removes one node property.
    RemoveNodeProperty {
        /// Node ID.
        id: u64,
        /// Property name.
        key: String,
    },
    /// Deletes a node.
    DeleteNode {
        /// Node ID.
        id: u64,
    },
    /// Creates a relationship.
    CreateRelationship {
        /// Source node ID.
        source: u64,
        /// Target node ID.
        target: u64,
        /// Relationship type name.
        rel_type: String,
        /// Initial properties.
        properties: Vec<(String, PropertyValue)>,
    },
    /// Deletes a relationship.
    DeleteRelationship {
        /// Relationship ID.
        id: u64,
    },
    /// Reads one property of a node.
    NodeProperty {
        /// Node ID.
        id: u64,
        /// Property name.
        key: String,
    },
    /// Streams the nodes carrying a label (index-backed), optionally
    /// projecting properties per row.
    LabelQuery {
        /// Label name.
        label: String,
        /// Maximum rows returned (0 = unlimited).
        limit: u32,
        /// Property names to project per row (empty = none).
        projection: Vec<String>,
    },
    /// Streams the nodes whose property lies in an inclusive range,
    /// riding the planner's range-postings pushdown. At least one bound
    /// must be present.
    RangeQuery {
        /// Property name.
        key: String,
        /// Inclusive lower bound.
        lo: Option<PropertyValue>,
        /// Inclusive upper bound.
        hi: Option<PropertyValue>,
        /// Maximum rows returned (0 = unlimited).
        limit: u32,
        /// Property names to project per row (empty = none).
        projection: Vec<String>,
        /// Row ordering over `key`: `0` = unordered, `1` = ascending,
        /// `2` = descending. With a nonzero `limit`, an ordered query is a
        /// top-k the planner serves straight off the index walk.
        order: u8,
    },
    /// Testing/debug aid: occupies a pooled worker for `ms` milliseconds
    /// (the admission-control analogue of the core's
    /// `inject_wal_sync_failures` hook — it lets tests saturate the
    /// worker pool deterministically).
    Sleep {
        /// How long the worker sleeps.
        ms: u32,
    },
}

impl Request {
    /// Serialises the request payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => put_u8(&mut out, req_op::PING),
            Request::Health => put_u8(&mut out, req_op::HEALTH),
            Request::Metrics => put_u8(&mut out, req_op::METRICS),
            Request::Verify => put_u8(&mut out, req_op::VERIFY),
            Request::Begin {
                read_only,
                isolation,
            } => {
                put_u8(&mut out, req_op::BEGIN);
                put_u8(&mut out, u8::from(*read_only));
                put_u8(
                    &mut out,
                    match isolation {
                        IsolationLevel::SnapshotIsolation => 0,
                        IsolationLevel::ReadCommitted => 1,
                    },
                );
            }
            Request::Commit => put_u8(&mut out, req_op::COMMIT),
            Request::Rollback => put_u8(&mut out, req_op::ROLLBACK),
            Request::CreateNode { labels, properties } => {
                put_u8(&mut out, req_op::CREATE_NODE);
                put_strings(&mut out, labels);
                put_props(&mut out, properties);
            }
            Request::GetNode { id } => {
                put_u8(&mut out, req_op::GET_NODE);
                put_u64(&mut out, *id);
            }
            Request::SetNodeProperty { id, key, value } => {
                put_u8(&mut out, req_op::SET_NODE_PROPERTY);
                put_u64(&mut out, *id);
                put_str(&mut out, key);
                put_value(&mut out, value);
            }
            Request::RemoveNodeProperty { id, key } => {
                put_u8(&mut out, req_op::REMOVE_NODE_PROPERTY);
                put_u64(&mut out, *id);
                put_str(&mut out, key);
            }
            Request::DeleteNode { id } => {
                put_u8(&mut out, req_op::DELETE_NODE);
                put_u64(&mut out, *id);
            }
            Request::CreateRelationship {
                source,
                target,
                rel_type,
                properties,
            } => {
                put_u8(&mut out, req_op::CREATE_RELATIONSHIP);
                put_u64(&mut out, *source);
                put_u64(&mut out, *target);
                put_str(&mut out, rel_type);
                put_props(&mut out, properties);
            }
            Request::DeleteRelationship { id } => {
                put_u8(&mut out, req_op::DELETE_RELATIONSHIP);
                put_u64(&mut out, *id);
            }
            Request::NodeProperty { id, key } => {
                put_u8(&mut out, req_op::NODE_PROPERTY);
                put_u64(&mut out, *id);
                put_str(&mut out, key);
            }
            Request::LabelQuery {
                label,
                limit,
                projection,
            } => {
                put_u8(&mut out, req_op::LABEL_QUERY);
                put_str(&mut out, label);
                put_u32(&mut out, *limit);
                put_strings(&mut out, projection);
            }
            Request::RangeQuery {
                key,
                lo,
                hi,
                limit,
                projection,
                order,
            } => {
                put_u8(&mut out, req_op::RANGE_QUERY);
                put_str(&mut out, key);
                put_opt_value(&mut out, lo);
                put_opt_value(&mut out, hi);
                put_u32(&mut out, *limit);
                put_strings(&mut out, projection);
                put_u8(&mut out, *order);
            }
            Request::Sleep { ms } => {
                put_u8(&mut out, req_op::SLEEP);
                put_u32(&mut out, *ms);
            }
        }
        out
    }

    /// Deserialises a request payload.
    pub fn decode(payload: &[u8]) -> ProtoResult<Self> {
        let mut c = Cursor::new(payload);
        let request = match c.u8()? {
            req_op::PING => Request::Ping,
            req_op::HEALTH => Request::Health,
            req_op::METRICS => Request::Metrics,
            req_op::VERIFY => Request::Verify,
            req_op::BEGIN => Request::Begin {
                read_only: c.u8()? != 0,
                isolation: match c.u8()? {
                    0 => IsolationLevel::SnapshotIsolation,
                    1 => IsolationLevel::ReadCommitted,
                    other => {
                        return Err(ProtoError::Malformed(format!(
                            "unknown isolation level {other}"
                        )))
                    }
                },
            },
            req_op::COMMIT => Request::Commit,
            req_op::ROLLBACK => Request::Rollback,
            req_op::CREATE_NODE => Request::CreateNode {
                labels: c.strings()?,
                properties: c.props()?,
            },
            req_op::GET_NODE => Request::GetNode { id: c.u64()? },
            req_op::SET_NODE_PROPERTY => Request::SetNodeProperty {
                id: c.u64()?,
                key: c.string()?,
                value: c.value()?,
            },
            req_op::REMOVE_NODE_PROPERTY => Request::RemoveNodeProperty {
                id: c.u64()?,
                key: c.string()?,
            },
            req_op::DELETE_NODE => Request::DeleteNode { id: c.u64()? },
            req_op::CREATE_RELATIONSHIP => Request::CreateRelationship {
                source: c.u64()?,
                target: c.u64()?,
                rel_type: c.string()?,
                properties: c.props()?,
            },
            req_op::DELETE_RELATIONSHIP => Request::DeleteRelationship { id: c.u64()? },
            req_op::NODE_PROPERTY => Request::NodeProperty {
                id: c.u64()?,
                key: c.string()?,
            },
            req_op::LABEL_QUERY => Request::LabelQuery {
                label: c.string()?,
                limit: c.u32()?,
                projection: c.strings()?,
            },
            req_op::RANGE_QUERY => Request::RangeQuery {
                key: c.string()?,
                lo: c.opt_value()?,
                hi: c.opt_value()?,
                limit: c.u32()?,
                projection: c.strings()?,
                order: match c.u8()? {
                    o @ 0..=2 => o,
                    other => {
                        return Err(ProtoError::Malformed(format!(
                            "unknown range-query order {other}"
                        )))
                    }
                },
            },
            req_op::SLEEP => Request::Sleep { ms: c.u32()? },
            op => {
                return Err(ProtoError::Malformed(format!(
                    "unknown request op {op:#04x}"
                )))
            }
        };
        c.finish()?;
        Ok(request)
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

mod resp_op {
    pub const OK: u8 = 0x01;
    pub const PONG: u8 = 0x02;
    pub const COMMITTED: u8 = 0x03;
    pub const NODE_ID: u8 = 0x04;
    pub const RELATIONSHIP_ID: u8 = 0x05;
    pub const NODE: u8 = 0x06;
    pub const VALUE: u8 = 0x07;
    pub const ROWS: u8 = 0x08;
    pub const TEXT: u8 = 0x09;
    pub const ERROR: u8 = 0x0A;
    pub const OVERLOADED: u8 = 0x0B;
}

/// Typed error classes a session can fail a request with, stable across
/// the wire (message texts are informational only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed or semantically invalid request.
    Protocol = 1,
    /// Retryable concurrency conflict (write-write conflict, deadlock,
    /// lock timeout) — begin again and retry.
    Conflict = 2,
    /// Entity not found in the session's snapshot.
    NotFound = 3,
    /// The request is invalid in the session's current transaction state
    /// (e.g. `COMMIT` without `BEGIN`, nested `BEGIN`).
    InvalidState = 4,
    /// The session's transaction sat idle past the server's idle timeout
    /// and was aborted; its locks are released. Begin a new transaction.
    IdleTimeout = 5,
    /// A write was attempted through a read-only transaction.
    ReadOnly = 6,
    /// Any other server-side failure.
    Internal = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> ProtoResult<Self> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Conflict,
            3 => ErrorCode::NotFound,
            4 => ErrorCode::InvalidState,
            5 => ErrorCode::IdleTimeout,
            6 => ErrorCode::ReadOnly,
            7 => ErrorCode::Internal,
            other => return Err(ProtoError::Malformed(format!("unknown error code {other}"))),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Protocol => "PROTOCOL",
            ErrorCode::Conflict => "CONFLICT",
            ErrorCode::NotFound => "NOT_FOUND",
            ErrorCode::InvalidState => "INVALID_STATE",
            ErrorCode::IdleTimeout => "IDLE_TIMEOUT",
            ErrorCode::ReadOnly => "READ_ONLY",
            ErrorCode::Internal => "INTERNAL",
        };
        f.write_str(name)
    }
}

/// A node materialised for the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct WireNode {
    /// Node ID.
    pub id: u64,
    /// Label names.
    pub labels: Vec<String>,
    /// Properties as `(name, value)` pairs, sorted by name.
    pub properties: Vec<(String, PropertyValue)>,
}

/// One query result row: the node, the relationship the last expansion
/// traversed (absent for source rows) and the projected properties.
#[derive(Clone, Debug, PartialEq)]
pub struct WireRow {
    /// Result node ID.
    pub node: u64,
    /// Traversed relationship ID, if the query expanded.
    pub rel: Option<u64>,
    /// Projected `(name, value)` pairs, in projection order.
    pub properties: Vec<(String, PropertyValue)>,
}

impl WireRow {
    /// The projected value of `name`, if present.
    pub fn property(&self, name: &str) -> Option<&PropertyValue> {
        self.properties
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v))
    }
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Success with no payload.
    Ok,
    /// Answer to [`Request::Ping`].
    Pong,
    /// A commit succeeded at this timestamp.
    Committed {
        /// The commit timestamp (raw).
        commit_ts: u64,
    },
    /// A node was created.
    NodeId {
        /// The new node's ID.
        id: u64,
    },
    /// A relationship was created.
    RelationshipId {
        /// The new relationship's ID.
        id: u64,
    },
    /// Answer to [`Request::GetNode`]; `None` when the node is invisible
    /// to the session's snapshot.
    Node {
        /// The node, if visible.
        node: Option<WireNode>,
    },
    /// Answer to [`Request::NodeProperty`].
    Value {
        /// The value, if the property is present.
        value: Option<PropertyValue>,
    },
    /// Answer to the query requests.
    Rows {
        /// Result rows, in stream order.
        rows: Vec<WireRow>,
    },
    /// Plaintext answer (`HEALTH`, `METRICS`, `VERIFY`).
    Text {
        /// The text.
        text: String,
    },
    /// The request failed.
    Error {
        /// Stable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The request was **rejected before execution** because an admission
    /// limit was hit (worker-pool queue full, or session limit reached at
    /// connect time). Nothing was executed; the client may back off and
    /// retry.
    Overloaded {
        /// Which limit rejected the request.
        message: String,
    },
}

impl Response {
    /// Serialises the response payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok => put_u8(&mut out, resp_op::OK),
            Response::Pong => put_u8(&mut out, resp_op::PONG),
            Response::Committed { commit_ts } => {
                put_u8(&mut out, resp_op::COMMITTED);
                put_u64(&mut out, *commit_ts);
            }
            Response::NodeId { id } => {
                put_u8(&mut out, resp_op::NODE_ID);
                put_u64(&mut out, *id);
            }
            Response::RelationshipId { id } => {
                put_u8(&mut out, resp_op::RELATIONSHIP_ID);
                put_u64(&mut out, *id);
            }
            Response::Node { node } => {
                put_u8(&mut out, resp_op::NODE);
                match node {
                    None => put_u8(&mut out, 0),
                    Some(n) => {
                        put_u8(&mut out, 1);
                        put_u64(&mut out, n.id);
                        put_strings(&mut out, &n.labels);
                        put_props(&mut out, &n.properties);
                    }
                }
            }
            Response::Value { value } => {
                put_u8(&mut out, resp_op::VALUE);
                put_opt_value(&mut out, value);
            }
            Response::Rows { rows } => {
                put_u8(&mut out, resp_op::ROWS);
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_u64(&mut out, row.node);
                    match row.rel {
                        None => put_u8(&mut out, 0),
                        Some(rel) => {
                            put_u8(&mut out, 1);
                            put_u64(&mut out, rel);
                        }
                    }
                    put_props(&mut out, &row.properties);
                }
            }
            Response::Text { text } => {
                put_u8(&mut out, resp_op::TEXT);
                put_str(&mut out, text);
            }
            Response::Error { code, message } => {
                put_u8(&mut out, resp_op::ERROR);
                put_u8(&mut out, *code as u8);
                put_str(&mut out, message);
            }
            Response::Overloaded { message } => {
                put_u8(&mut out, resp_op::OVERLOADED);
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Deserialises a response payload.
    pub fn decode(payload: &[u8]) -> ProtoResult<Self> {
        let mut c = Cursor::new(payload);
        let response = match c.u8()? {
            resp_op::OK => Response::Ok,
            resp_op::PONG => Response::Pong,
            resp_op::COMMITTED => Response::Committed {
                commit_ts: c.u64()?,
            },
            resp_op::NODE_ID => Response::NodeId { id: c.u64()? },
            resp_op::RELATIONSHIP_ID => Response::RelationshipId { id: c.u64()? },
            resp_op::NODE => Response::Node {
                node: match c.u8()? {
                    0 => None,
                    1 => Some(WireNode {
                        id: c.u64()?,
                        labels: c.strings()?,
                        properties: c.props()?,
                    }),
                    tag => return Err(ProtoError::Malformed(format!("bad option tag {tag}"))),
                },
            },
            resp_op::VALUE => Response::Value {
                value: c.opt_value()?,
            },
            resp_op::ROWS => {
                let n = c.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let node = c.u64()?;
                    let rel = match c.u8()? {
                        0 => None,
                        1 => Some(c.u64()?),
                        tag => return Err(ProtoError::Malformed(format!("bad option tag {tag}"))),
                    };
                    let properties = c.props()?;
                    rows.push(WireRow {
                        node,
                        rel,
                        properties,
                    });
                }
                Response::Rows { rows }
            }
            resp_op::TEXT => Response::Text { text: c.string()? },
            resp_op::ERROR => Response::Error {
                code: ErrorCode::from_u8(c.u8()?)?,
                message: c.string()?,
            },
            resp_op::OVERLOADED => Response::Overloaded {
                message: c.string()?,
            },
            op => {
                return Err(ProtoError::Malformed(format!(
                    "unknown response op {op:#04x}"
                )))
            }
        };
        c.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn every_request_round_trips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Health);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::Verify);
        roundtrip_request(Request::Begin {
            read_only: true,
            isolation: IsolationLevel::ReadCommitted,
        });
        roundtrip_request(Request::Begin {
            read_only: false,
            isolation: IsolationLevel::SnapshotIsolation,
        });
        roundtrip_request(Request::Commit);
        roundtrip_request(Request::Rollback);
        roundtrip_request(Request::CreateNode {
            labels: vec!["Person".into(), "Admin".into()],
            properties: vec![
                ("name".into(), PropertyValue::String("ada".into())),
                ("age".into(), PropertyValue::Int(36)),
                ("score".into(), PropertyValue::Float(0.5)),
                ("active".into(), PropertyValue::Bool(true)),
            ],
        });
        roundtrip_request(Request::GetNode { id: 7 });
        roundtrip_request(Request::SetNodeProperty {
            id: 7,
            key: "age".into(),
            value: PropertyValue::Int(37),
        });
        roundtrip_request(Request::RemoveNodeProperty {
            id: 7,
            key: "age".into(),
        });
        roundtrip_request(Request::DeleteNode { id: 7 });
        roundtrip_request(Request::CreateRelationship {
            source: 1,
            target: 2,
            rel_type: "KNOWS".into(),
            properties: vec![("since".into(), PropertyValue::Int(2016))],
        });
        roundtrip_request(Request::DeleteRelationship { id: 3 });
        roundtrip_request(Request::NodeProperty {
            id: 7,
            key: "age".into(),
        });
        roundtrip_request(Request::LabelQuery {
            label: "Person".into(),
            limit: 10,
            projection: vec!["age".into()],
        });
        roundtrip_request(Request::RangeQuery {
            key: "age".into(),
            lo: Some(PropertyValue::Int(18)),
            hi: None,
            limit: 0,
            projection: vec![],
            order: 0,
        });
        roundtrip_request(Request::RangeQuery {
            key: "score".into(),
            lo: None,
            hi: Some(PropertyValue::Int(100)),
            limit: 10,
            projection: vec!["score".into()],
            order: 2,
        });
        roundtrip_request(Request::Sleep { ms: 25 });
    }

    #[test]
    fn every_response_round_trips() {
        roundtrip_response(Response::Ok);
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Committed { commit_ts: 42 });
        roundtrip_response(Response::NodeId { id: 9 });
        roundtrip_response(Response::RelationshipId { id: 4 });
        roundtrip_response(Response::Node { node: None });
        roundtrip_response(Response::Node {
            node: Some(WireNode {
                id: 9,
                labels: vec!["Person".into()],
                properties: vec![("age".into(), PropertyValue::Int(36))],
            }),
        });
        roundtrip_response(Response::Value { value: None });
        roundtrip_response(Response::Value {
            value: Some(PropertyValue::String("x".into())),
        });
        roundtrip_response(Response::Rows {
            rows: vec![
                WireRow {
                    node: 1,
                    rel: None,
                    properties: vec![],
                },
                WireRow {
                    node: 2,
                    rel: Some(77),
                    properties: vec![("age".into(), PropertyValue::Int(30))],
                },
            ],
        });
        roundtrip_response(Response::Text {
            text: "commits 7\n".into(),
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::Conflict,
            message: "write-write conflict".into(),
        });
        roundtrip_response(Response::Overloaded {
            message: "admission queue full".into(),
        });
    }

    #[test]
    fn float_values_round_trip_bit_exactly() {
        for f in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            let req = Request::SetNodeProperty {
                id: 1,
                key: "f".into(),
                value: PropertyValue::Float(f),
            };
            let decoded = Request::decode(&req.encode()).unwrap();
            match decoded {
                Request::SetNodeProperty {
                    value: PropertyValue::Float(g),
                    ..
                } => assert_eq!(f.to_bits(), g.to_bits()),
                other => panic!("unexpected decode: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xEE]).is_err());
        // Truncated body.
        let bytes = Request::GetNode { id: 7 }.encode();
        assert!(Request::decode(&bytes[..bytes.len() - 1]).is_err());
        // Trailing garbage.
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        // Unknown value tag.
        let mut bytes = Request::SetNodeProperty {
            id: 1,
            key: "k".into(),
            value: PropertyValue::Bool(true),
        }
        .encode();
        let tag_pos = bytes.len() - 2;
        bytes[tag_pos] = 9;
        assert!(Request::decode(&bytes).is_err());
        assert!(Response::decode(&[0xEE]).is_err());
    }

    #[test]
    fn frames_round_trip_through_the_reader() {
        let payload_a = Request::Ping.encode();
        let payload_b = Request::GetNode { id: 3 }.encode();
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload_a).unwrap();
        write_frame(&mut stream, &payload_b).unwrap();

        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(reader.read_frame(&mut cursor).unwrap(), payload_a);
        assert_eq!(reader.read_frame(&mut cursor).unwrap(), payload_b);
        // The stream is exhausted: the next read observes EOF.
        assert!(matches!(
            reader.read_frame(&mut cursor),
            Err(ProtoError::Io(_))
        ));
    }

    /// A reader fed one byte at a time (worst-case fragmentation) still
    /// reassembles frames losslessly.
    #[test]
    fn fragmented_frames_reassemble() {
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let payload = Request::CreateNode {
            labels: vec!["A".into()],
            properties: vec![("k".into(), PropertyValue::Int(1))],
        }
        .encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut reader = FrameReader::new();
        let mut src = OneByte(&framed, 0);
        assert_eq!(reader.read_frame(&mut src).unwrap(), payload);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &Request::Ping.encode()).unwrap();
        framed[0] ^= 0xFF;
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(framed);
        assert!(matches!(
            reader.read_frame(&mut cursor),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn insane_frame_length_is_rejected() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &Request::Ping.encode()).unwrap();
        framed[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(framed);
        assert!(matches!(
            reader.read_frame(&mut cursor),
            Err(ProtoError::Malformed(_))
        ));
    }
}
