//! A minimal blocking client for the graphsi wire protocol.
//!
//! One [`Client`] is one session: requests are sent strictly one at a
//! time and each waits for its response. Typed failure surfaces
//! distinguish transport problems ([`ClientError::Io`]), server-side
//! request failures ([`ClientError::Server`]) and admission-control
//! rejections ([`ClientError::Overloaded`]) — callers handle overload by
//! backing off and retrying, not by treating it as an error in the data.

use std::net::TcpStream;
use std::time::Duration;

use graphsi_core::{IsolationLevel, PropertyValue};

use crate::protocol::{
    write_frame, ErrorCode, FrameReader, ProtoError, Request, Response, WireNode, WireRow,
};

/// Errors a [`Client`] call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (or the peer hung up).
    Io(std::io::Error),
    /// The peer violated the protocol (bad frame, wrong response type).
    Protocol(String),
    /// The server shed the request (or connection) under load; back off
    /// and retry.
    Overloaded(String),
    /// The server executed the request and failed it.
    Server {
        /// Stable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(reason) => write!(f, "protocol violation: {reason}"),
            ClientError::Overloaded(message) => write!(f, "server overloaded: {message}"),
            ClientError::Server { code, message } => write!(f, "{code}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            ProtoError::Malformed(reason) => ClientError::Protocol(reason),
            // Refused before a byte was sent, with the error the server
            // answers an over-limit response with; the session stays
            // usable.
            e @ ProtoError::FrameTooLarge { .. } => ClientError::Server {
                code: ErrorCode::Internal,
                message: e.to_string(),
            },
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// True when the failure is an admission-control rejection.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Overloaded(_))
    }

    /// True when the failure is a retryable concurrency conflict.
    pub fn is_conflict(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Conflict,
                ..
            }
        )
    }
}

/// Result alias of the client.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// A blocking connection to a graphsi server (one session).
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7687"`).
    pub fn connect(addr: &str) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Connects with a connect timeout (the read path stays blocking).
    pub fn connect_timeout(addr: &std::net::SocketAddr, timeout: Duration) -> ClientResult<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, request: &Request) -> ClientResult<Response> {
        write_frame(&mut self.stream, &request.encode())?;
        let payload = self.reader.read_frame(&mut self.stream)?;
        let response = Response::decode(&payload)?;
        match response {
            Response::Overloaded { message } => Err(ClientError::Overloaded(message)),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    fn expect_ok(&mut self, request: &Request) -> ClientResult<()> {
        match self.request(request)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Readiness probe with a few load gauges.
    pub fn health(&mut self) -> ClientResult<String> {
        match self.request(&Request::Health)? {
            Response::Text { text } => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Plaintext metrics dump (database counters + `server_*` counters).
    pub fn metrics_text(&mut self) -> ClientResult<String> {
        match self.request(&Request::Metrics)? {
            Response::Text { text } => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs the server-side integrity verifier and returns its plaintext
    /// report (`VerifyReport::to_text` format).
    pub fn verify_text(&mut self) -> ClientResult<String> {
        match self.request(&Request::Verify)? {
            Response::Text { text } => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Opens an explicit transaction on this session.
    pub fn begin(&mut self, read_only: bool, isolation: IsolationLevel) -> ClientResult<()> {
        self.expect_ok(&Request::Begin {
            read_only,
            isolation,
        })
    }

    /// Commits the open transaction, returning the commit timestamp.
    pub fn commit(&mut self) -> ClientResult<u64> {
        match self.request(&Request::Commit)? {
            Response::Committed { commit_ts } => Ok(commit_ts),
            other => Err(unexpected(&other)),
        }
    }

    /// Rolls the open transaction back.
    pub fn rollback(&mut self) -> ClientResult<()> {
        self.expect_ok(&Request::Rollback)
    }

    /// Creates a node, returning its ID.
    pub fn create_node(
        &mut self,
        labels: &[&str],
        properties: &[(&str, PropertyValue)],
    ) -> ClientResult<u64> {
        let request = Request::CreateNode {
            labels: labels.iter().map(|s| s.to_string()).collect(),
            properties: properties
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        match self.request(&request)? {
            Response::NodeId { id } => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads a node (with all labels and properties), if visible.
    pub fn get_node(&mut self, id: u64) -> ClientResult<Option<WireNode>> {
        match self.request(&Request::GetNode { id })? {
            Response::Node { node } => Ok(node),
            other => Err(unexpected(&other)),
        }
    }

    /// Sets one node property.
    pub fn set_node_property(
        &mut self,
        id: u64,
        key: &str,
        value: PropertyValue,
    ) -> ClientResult<()> {
        self.expect_ok(&Request::SetNodeProperty {
            id,
            key: key.into(),
            value,
        })
    }

    /// Removes one node property.
    pub fn remove_node_property(&mut self, id: u64, key: &str) -> ClientResult<()> {
        self.expect_ok(&Request::RemoveNodeProperty {
            id,
            key: key.into(),
        })
    }

    /// Deletes a node.
    pub fn delete_node(&mut self, id: u64) -> ClientResult<()> {
        self.expect_ok(&Request::DeleteNode { id })
    }

    /// Creates a relationship, returning its ID.
    pub fn create_relationship(
        &mut self,
        source: u64,
        target: u64,
        rel_type: &str,
        properties: &[(&str, PropertyValue)],
    ) -> ClientResult<u64> {
        let request = Request::CreateRelationship {
            source,
            target,
            rel_type: rel_type.into(),
            properties: properties
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        match self.request(&request)? {
            Response::RelationshipId { id } => Ok(id),
            other => Err(unexpected(&other)),
        }
    }

    /// Deletes a relationship.
    pub fn delete_relationship(&mut self, id: u64) -> ClientResult<()> {
        self.expect_ok(&Request::DeleteRelationship { id })
    }

    /// Reads one property of a node.
    pub fn node_property(&mut self, id: u64, key: &str) -> ClientResult<Option<PropertyValue>> {
        match self.request(&Request::NodeProperty {
            id,
            key: key.into(),
        })? {
            Response::Value { value } => Ok(value),
            other => Err(unexpected(&other)),
        }
    }

    /// Streams nodes carrying `label` (0 = no limit), projecting the
    /// given property names per row.
    pub fn label_query(
        &mut self,
        label: &str,
        limit: u32,
        projection: &[&str],
    ) -> ClientResult<Vec<WireRow>> {
        let request = Request::LabelQuery {
            label: label.into(),
            limit,
            projection: projection.iter().map(|s| s.to_string()).collect(),
        };
        match self.request(&request)? {
            Response::Rows { rows } => Ok(rows),
            other => Err(unexpected(&other)),
        }
    }

    /// Streams nodes whose `key` property lies in the inclusive range
    /// (at least one bound required), projecting properties per row, in
    /// no particular order. See [`Client::range_query_ordered`] for
    /// ordered and top-k forms.
    pub fn range_query(
        &mut self,
        key: &str,
        lo: Option<PropertyValue>,
        hi: Option<PropertyValue>,
        limit: u32,
        projection: &[&str],
    ) -> ClientResult<Vec<WireRow>> {
        self.range_query_ordered(key, lo, hi, limit, projection, 0)
    }

    /// Ordered form of [`Client::range_query`]. `order`: `0` = unordered,
    /// `1` = ascending by `key`, `2` = descending. An ordered query with a
    /// nonzero `limit` is a top-k the server's planner serves straight off
    /// the index walk.
    pub fn range_query_ordered(
        &mut self,
        key: &str,
        lo: Option<PropertyValue>,
        hi: Option<PropertyValue>,
        limit: u32,
        projection: &[&str],
        order: u8,
    ) -> ClientResult<Vec<WireRow>> {
        let request = Request::RangeQuery {
            key: key.into(),
            lo,
            hi,
            limit,
            projection: projection.iter().map(|s| s.to_string()).collect(),
            order,
        };
        match self.request(&request)? {
            Response::Rows { rows } => Ok(rows),
            other => Err(unexpected(&other)),
        }
    }

    /// Testing aid: occupies a pooled worker for `ms` milliseconds.
    pub fn sleep(&mut self, ms: u32) -> ClientResult<()> {
        self.expect_ok(&Request::Sleep { ms })
    }
}

fn unexpected(response: &Response) -> ClientError {
    ClientError::Protocol(format!("unexpected response type: {response:?}"))
}
