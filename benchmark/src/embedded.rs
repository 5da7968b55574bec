//! The embedded transaction types: each is a sequence of calls into
//! `graphsi-core`, every call wrapped in a span, every result checked.

use std::collections::HashSet;

use graphsi_core::{
    DbError, Direction, GraphDb, IsolationLevel, NodeId, PropertyValue, Transaction,
};

use crate::driver::{Executor, Fail, Ledger};
use crate::gen::{Kind, Op, CITIES, FEED_ROWS, INITIAL_SCORE};
use crate::trace::{self, Tracer};

impl From<DbError> for Fail {
    fn from(e: DbError) -> Fail {
        if e.is_conflict() {
            Fail::Aborted
        } else {
            Fail::Unexpected(e.to_string())
        }
    }
}

pub fn int(value: Option<PropertyValue>) -> Result<i64, Fail> {
    value
        .and_then(|v| v.as_int())
        .ok_or_else(|| Fail::Unexpected("missing integer property".into()))
}

pub struct Embedded<'a> {
    db: GraphDb,
    /// uid → node id.
    nodes: &'a [NodeId],
    /// Run the transactions at read committed (the baseline phase): reads
    /// take short shared locks, and the snapshot checks do not apply.
    pub read_committed: bool,
    ledger: Ledger,
}

impl<'a> Embedded<'a> {
    pub fn new(db: GraphDb, nodes: &'a [NodeId]) -> Embedded<'a> {
        Embedded {
            db,
            nodes,
            read_committed: false,
            ledger: Ledger::new(nodes.len()),
        }
    }

    fn begin(&self, tr: &mut Tracer, write: bool) -> Transaction {
        let span = tr.start(trace::BEGIN);
        let tx = match (self.read_committed, write) {
            (true, _) => self
                .db
                .txn()
                .isolation(IsolationLevel::ReadCommitted)
                .begin(),
            (false, true) => self.db.begin(),
            (false, false) => self.db.txn().read_only().begin(),
        };
        tr.end(span);
        tx
    }

    fn commit(tr: &mut Tracer, tx: Transaction) -> Result<(), Fail> {
        let span = tr.start(trace::COMMIT);
        let result = tx.commit();
        tr.end(span);
        result.map(|_| ()).map_err(Fail::from)
    }

    /// Friends of friends: two KNOWS hops, minus the start and the first hop.
    fn fof(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let start = self.nodes[op.a as usize];
        let tx = self.begin(tr, false);

        let span = tr.start(trace::PLAN);
        let hop1 = tx
            .query()
            .start_nodes([start])
            .expand(Direction::Both, Some("KNOWS"))
            .distinct()
            .stream()?;
        tr.end(span);
        let span = tr.start(trace::DRAIN);
        let first: HashSet<NodeId> = hop1.collect::<Result<_, _>>()?;
        tr.end_rows(span, first.len() as u32);

        let span = tr.start(trace::PLAN);
        let hop2 = tx
            .query()
            .start_nodes([start])
            .expand(Direction::Both, Some("KNOWS"))
            .expand(Direction::Both, Some("KNOWS"))
            .distinct()
            .stream()?;
        tr.end(span);
        let span = tr.start(trace::DRAIN);
        let mut rows = 0u32;
        let mut result = Vec::new();
        for id in hop2 {
            let id = id?;
            rows += 1;
            if id != start && !first.contains(&id) {
                result.push(id);
            }
        }
        tr.end_rows(span, rows);

        let distinct: HashSet<&NodeId> = result.iter().collect();
        if distinct.len() != result.len()
            || result.iter().any(|id| *id == start || first.contains(id))
        {
            self.ledger.fail(format!(
                "fof({}) repeats a row or keeps the start or a first-hop node",
                op.a
            ));
        }
        Self::commit(tr, tx)
    }

    /// Four point reads of `score` and one walk of the relationships.
    fn profile(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let p = self.nodes[op.a as usize];
        let tx = self.begin(tr, false);
        for _ in 0..4 {
            let span = tr.start(trace::READ_NODE_PROPERTY);
            let score = tx.node_property(p, "score");
            tr.end(span);
            int(score?)?;
        }
        let span = tr.start(trace::READ_RELATIONSHIPS);
        let mut rows = 0u32;
        for rel in tx.relationships(p, Direction::Both)? {
            rel?;
            rows += 1;
        }
        tr.end_rows(span, rows);
        Self::commit(tr, tx)
    }

    /// The 20 highest scores at or above `score_lo`, off the ordered index.
    fn feed(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let tx = self.begin(tr, false);
        let span = tr.start(trace::PLAN);
        let stream = tx
            .query()
            .filter_property_range("score", PropertyValue::Int(op.score_lo)..)
            .top_k_desc("score", FEED_ROWS)
            .project(["score"])
            .stream_rows()?;
        tr.end(span);
        let span = tr.start(trace::DRAIN);
        let mut scores = Vec::with_capacity(FEED_ROWS);
        for row in stream {
            scores.push(int(row?.property("score").cloned())?);
        }
        tr.end_rows(span, scores.len() as u32);
        if !self.read_committed
            && (scores.len() > FEED_ROWS
                || scores.windows(2).any(|w| w[0] < w[1])
                || scores.iter().any(|s| *s < op.score_lo))
        {
            self.ledger.fail(format!(
                "feed(lo={}) returned {scores:?}: more than {FEED_ROWS} rows, out of order, or below lo",
                op.score_lo
            ));
        }
        Self::commit(tr, tx)
    }

    /// Persons in a score range and a city range, counted: two sorted
    /// posting lists intersected.
    fn search(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let tx = self.begin(tr, false);
        let span = tr.start(trace::PLAN);
        let stream = tx
            .query()
            .filter_property_range(
                "score",
                PropertyValue::Int(op.score_lo)..=PropertyValue::Int(op.score_lo + 20),
            )
            .filter_property_range(
                "city",
                PropertyValue::Int(op.city_lo)..=PropertyValue::Int(op.city_lo + 7),
            )
            .stream()?;
        tr.end(span);
        let span = tr.start(trace::DRAIN);
        let mut rows = 0u32;
        for id in stream {
            id?;
            rows += 1;
        }
        tr.end_rows(span, rows);
        // Eight of the 64 cities hold an eighth of the persons at most.
        if rows as usize > self.nodes.len() * 8 / CITIES as usize + 8 {
            self.ledger.fail(format!(
                "search matched {rows} persons, more than 8 cities hold"
            ));
        }
        Self::commit(tr, tx)
    }

    /// Label scan of `Person` summing `score`; transfers conserve the sum.
    fn audit(&mut self, tr: &mut Tracer) -> Result<(), Fail> {
        let tx = self.begin(tr, false);
        let span = tr.start(trace::PLAN);
        let stream = tx
            .query()
            .nodes_with_label("Person")
            .project(["score"])
            .stream_rows()?;
        tr.end(span);
        let span = tr.start(trace::DRAIN);
        let (mut rows, mut sum) = (0u32, 0i64);
        for row in stream {
            sum += int(row?.property("score").cloned())?;
            rows += 1;
        }
        tr.end_rows(span, rows);
        let expected = self.nodes.len() as i64 * INITIAL_SCORE;
        if !self.read_committed && (sum != expected || rows as usize != self.nodes.len()) {
            self.ledger.fail(format!(
                "audit saw {rows} persons summing to {sum}, not {expected}"
            ));
        }
        Self::commit(tr, tx)
    }

    /// Moves up to `amount` of `score` from `a` to `b`.
    fn transfer(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let (a, b) = (self.nodes[op.a as usize], self.nodes[op.b as usize]);
        let mut tx = self.begin(tr, true);
        let span = tr.start(trace::READ_NODE_PROPERTY);
        let from = tx.node_property(a, "score");
        tr.end(span);
        let span = tr.start(trace::READ_NODE_PROPERTY);
        let to = tx.node_property(b, "score");
        tr.end(span);
        let (from, to) = (int(from?)?, int(to?)?);
        let moved = op.amount.min(from.max(0));
        let span = tr.start(trace::WRITE_SET_NODE_PROPERTY);
        let set = tx.set_node_property(a, "score", PropertyValue::Int(from - moved));
        tr.end(span);
        set?;
        let span = tr.start(trace::WRITE_SET_NODE_PROPERTY);
        let set = tx.set_node_property(b, "score", PropertyValue::Int(to + moved));
        tr.end(span);
        set?;
        Self::commit(tr, tx)?;
        self.ledger.delta[op.a as usize] -= moved;
        self.ledger.delta[op.b as usize] += moved;
        Ok(())
    }

    fn befriend(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let mut tx = self.begin(tr, true);
        let span = tr.start(trace::WRITE_CREATE_RELATIONSHIP);
        let rel = tx.create_relationship(
            self.nodes[op.a as usize],
            self.nodes[op.b as usize],
            "KNOWS",
            &[("since", PropertyValue::Int(op.since))],
        );
        tr.end(span);
        let rel = rel?;
        Self::commit(tr, tx)?;
        self.ledger.fifo.push_back((rel, op.a, op.b));
        Ok(())
    }

    /// Deletes the oldest relationship this client created.
    fn unfriend(&mut self, tr: &mut Tracer) -> Result<(), Fail> {
        let (rel, _, _) = *self.ledger.fifo.front().expect("unfriend needs a friend");
        let mut tx = self.begin(tr, true);
        let span = tr.start(trace::WRITE_DELETE_RELATIONSHIP);
        let deleted = tx.delete_relationship(rel);
        tr.end(span);
        deleted?;
        Self::commit(tr, tx)?;
        self.ledger.fifo.pop_front();
        self.ledger.last_deleted = Some(rel);
        Ok(())
    }
}

impl Executor for Embedded<'_> {
    fn exec(&mut self, op: &Op, tr: &mut Tracer) -> Result<(), Fail> {
        let root = tr.root(op.kind as u8);
        let result = match op.kind {
            Kind::Fof => self.fof(op, tr),
            Kind::Profile => self.profile(op, tr),
            Kind::Feed => self.feed(op, tr),
            Kind::Search => self.search(op, tr),
            Kind::Audit => self.audit(tr),
            Kind::Transfer => self.transfer(op, tr),
            Kind::Befriend => self.befriend(op, tr),
            Kind::Unfriend => self.unfriend(tr),
            Kind::PointRead | Kind::GetNode | Kind::TopK => Err(Fail::Unexpected(
                "wire-only transaction in an embedded mix".into(),
            )),
        };
        tr.end(root);
        result
    }

    fn ledger(&mut self) -> &mut Ledger {
        &mut self.ledger
    }
}
