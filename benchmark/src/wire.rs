//! The wire transaction types: the same closed loop, but every call goes
//! through a blocking `graphsi_server::Client` connection to an in-process
//! server, one request in flight per connection.

use graphsi_core::{IsolationLevel, NodeId, PropertyValue};
use graphsi_server::{Client, ClientError, Request, Response};

use crate::driver::{Executor, Fail, Ledger};
use crate::embedded::int;
use crate::gen::{Kind, Op, FEED_ROWS};
use crate::trace::{self, Tracer};

impl From<ClientError> for Fail {
    fn from(e: ClientError) -> Fail {
        if e.is_conflict() || e.is_overloaded() {
            Fail::Aborted
        } else {
            // Any other error frame, or a broken connection, is unexpected.
            Fail::Unexpected(e.to_string())
        }
    }
}

/// Frames one connection sent and received, for the codec probe to
/// replay the same mix.
#[derive(Default)]
pub struct Frames {
    pub requests: Vec<Request>,
    pub responses: Vec<Response>,
}

/// How many distinct frames a connection keeps for the probe.
const FRAME_SAMPLE: usize = 4096;

pub struct Wire<'a> {
    client: Client,
    nodes: &'a [NodeId],
    ledger: Ledger,
    /// `Some` on the traced run: the first [`FRAME_SAMPLE`] frames.
    pub frames: Option<Frames>,
}

impl<'a> Wire<'a> {
    pub fn new(client: Client, nodes: &'a [NodeId], record_frames: bool) -> Wire<'a> {
        Wire {
            client,
            nodes,
            ledger: Ledger::new(nodes.len()),
            frames: record_frames.then(Frames::default),
        }
    }

    /// One request/response round trip inside a span.
    fn call(&mut self, tr: &mut Tracer, span: u8, request: Request) -> Result<Response, Fail> {
        let id = tr.start(span);
        let response = self.client.request(&request);
        tr.end(id);
        let response = response?;
        if let Some(frames) = &mut self.frames {
            if frames.requests.len() < FRAME_SAMPLE {
                frames.requests.push(request);
                frames.responses.push(response.clone());
            }
        }
        Ok(response)
    }

    fn read_score(&mut self, tr: &mut Tracer, node: NodeId) -> Result<i64, Fail> {
        let request = Request::NodeProperty {
            id: node.raw(),
            key: "score".into(),
        };
        match self.call(tr, trace::RPC_READ, request)? {
            Response::Value { value } => int(value),
            other => Err(unexpected(&other)),
        }
    }

    fn get_node(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let id = self.nodes[op.a as usize].raw();
        match self.call(tr, trace::RPC_READ, Request::GetNode { id })? {
            Response::Node { node: Some(node) } if node.id == id => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// The wire form of `feed`: an ordered range query with a limit.
    fn top_k(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let request = Request::RangeQuery {
            key: "score".into(),
            lo: Some(PropertyValue::Int(op.score_lo)),
            hi: None,
            limit: FEED_ROWS as u32,
            projection: vec!["score".into()],
            order: 2,
        };
        let rows = match self.call(tr, trace::RPC_READ, request)? {
            Response::Rows { rows } => rows,
            other => return Err(unexpected(&other)),
        };
        let scores: Vec<i64> = rows
            .iter()
            .map(|r| int(r.property("score").cloned()))
            .collect::<Result<_, _>>()?;
        if scores.len() > FEED_ROWS
            || scores.windows(2).any(|w| w[0] < w[1])
            || scores.iter().any(|s| *s < op.score_lo)
        {
            self.ledger
                .fail(format!("top_k(lo={}) returned {scores:?}", op.score_lo));
        }
        Ok(())
    }

    /// BEGIN, two reads, two writes, COMMIT — six round trips.
    fn transfer(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let (a, b) = (self.nodes[op.a as usize], self.nodes[op.b as usize]);
        let begin = Request::Begin {
            read_only: false,
            isolation: IsolationLevel::SnapshotIsolation,
        };
        expect_ok(self.call(tr, trace::RPC_BEGIN, begin)?)?;
        let statements = (|| {
            let from = self.read_score(tr, a)?;
            let to = self.read_score(tr, b)?;
            let moved = op.amount.min(from.max(0));
            for (node, value) in [(a, from - moved), (b, to + moved)] {
                let set = Request::SetNodeProperty {
                    id: node.raw(),
                    key: "score".into(),
                    value: PropertyValue::Int(value),
                };
                expect_ok(self.call(tr, trace::RPC_WRITE, set)?)?;
            }
            Ok(moved)
        })();
        let moved = match statements {
            Ok(moved) => moved,
            Err(fail) => {
                // A failed statement leaves the aborted transaction parked
                // on the session; clear it (a failed COMMIT clears itself).
                expect_ok(self.call(tr, trace::RPC_ROLLBACK, Request::Rollback)?)?;
                return Err(fail);
            }
        };
        match self.call(tr, trace::RPC_COMMIT, Request::Commit)? {
            Response::Committed { .. } => {
                self.ledger.delta[op.a as usize] -= moved;
                self.ledger.delta[op.b as usize] += moved;
                Ok(())
            }
            other => Err(unexpected(&other)),
        }
    }
}

fn expect_ok(response: Response) -> Result<(), Fail> {
    match response {
        Response::Ok => Ok(()),
        other => Err(unexpected(&other)),
    }
}

fn unexpected(response: &Response) -> Fail {
    Fail::Unexpected(format!("unexpected response {response:?}"))
}

impl Executor for Wire<'_> {
    fn exec(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let root = tr.root(op.kind as u8);
        let result = match op.kind {
            Kind::PointRead => self.read_score(tr, self.nodes[op.a as usize]).map(|_| ()),
            Kind::GetNode => self.get_node(op, tr),
            Kind::TopK => self.top_k(op, tr),
            Kind::Transfer => self.transfer(op, tr),
            _ => Err(Fail::Unexpected(
                "embedded-only transaction in the wire mix".into(),
            )),
        };
        tr.end(root);
        result
    }

    fn ledger(&mut self) -> &mut Ledger {
        &mut self.ledger
    }
}
