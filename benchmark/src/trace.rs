//! Spans recorded from outside the engine: one around every call the
//! driver makes into `graphsi-core` or `graphsi_server::Client`. Each
//! thread owns a preallocated buffer; nothing is written until the run
//! ends. With tracing off every call here is one predictable branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Declares the span names: `NAMES[i]` is the string, and each constant
/// is its index (a span stores the index, not the string).
macro_rules! span_names {
    ($($id:ident = $name:literal,)*) => {
        pub const NAMES: &[&str] = &[$($name),*];
        #[allow(non_camel_case_types, clippy::upper_case_acronyms, dead_code)]
        #[repr(u8)]
        enum Index { $($id),* }
        // Root names are reached through `Kind as u8`, not by constant.
        $(#[allow(dead_code)] pub const $id: u8 = Index::$id as u8;)*
    };
}

span_names! {
    // Roots: one per transaction, in `gen::Kind` order so that a kind's
    // discriminant is its root span's name, then maintenance.
    FOF = "fof",
    PROFILE = "profile",
    FEED = "feed",
    SEARCH = "search",
    AUDIT = "audit",
    TRANSFER = "transfer",
    BEFRIEND = "befriend",
    UNFRIEND = "unfriend",
    NODE_PROPERTY = "node_property",
    GET_NODE = "get_node",
    TOP_K = "top_k",
    GC = "gc",
    CHECKPOINT = "checkpoint",
    // Embedded engine calls.
    BEGIN = "begin",
    PLAN = "plan",
    DRAIN = "drain",
    READ_NODE_PROPERTY = "read.node_property",
    READ_RELATIONSHIPS = "read.relationships",
    WRITE_SET_NODE_PROPERTY = "write.set_node_property",
    WRITE_CREATE_RELATIONSHIP = "write.create_relationship",
    WRITE_DELETE_RELATIONSHIP = "write.delete_relationship",
    COMMIT = "commit",
    // Client calls.
    RPC_BEGIN = "rpc.begin",
    RPC_READ = "rpc.read",
    RPC_WRITE = "rpc.write",
    RPC_COMMIT = "rpc.commit",
    RPC_ROLLBACK = "rpc.rollback",
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: u8,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
    /// Transaction this span belongs to (thread-local counter).
    pub txn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rows a `drain` / `read.relationships` span produced.
    pub rows: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `SpanId::OFF` when tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const OFF: SpanId = SpanId(u32::MAX);
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    txn: u32,
    /// Spans not recorded because the buffer was full.
    dropped: u64,
}

impl Tracer {
    /// `capacity` spans are reserved up front (untouched pages cost
    /// nothing); once full, further spans are counted and dropped.
    pub fn new(enabled: bool, epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::with_capacity(8),
            txn: 0,
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span and starts a new transaction id.
    pub fn root(&mut self, name: u8) -> SpanId {
        self.txn = self.txn.wrapping_add(1);
        self.start(name)
    }

    pub fn start(&mut self, name: u8) -> SpanId {
        if !self.enabled {
            return SpanId::OFF;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId::OFF;
        }
        let id = self.spans.len() as u32;
        let now = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            txn: self.txn,
            start_ns: now,
            end_ns: now,
            rows: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_rows(id, 0);
    }

    /// Ends `id` — and any span still open inside it, which is how a call
    /// that returned early through `?` gets closed.
    pub fn end_rows(&mut self, id: SpanId, rows: u32) {
        if id == SpanId::OFF {
            return;
        }
        let now = self.now();
        while let Some(open) = self.open.pop() {
            self.spans[open as usize].end_ns = now;
            if open == id.0 {
                self.spans[open as usize].rows = rows;
                break;
            }
        }
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans and how many more were dropped.
    pub fn finish(self) -> (Vec<Span>, u64) {
        (self.spans, self.dropped)
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover (children of one parent never overlap — a thread does
/// one thing at a time). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total self time per span name over spans starting in
/// `[from_ns, to_ns)`, largest first.
pub fn self_time_by_name(
    threads: &[&[Span]],
    from_ns: u64,
    to_ns: u64,
) -> Vec<(&'static str, u64)> {
    let mut totals: BTreeMap<u8, u64> = BTreeMap::new();
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if (from_ns..to_ns).contains(&s.start_ns) {
                *totals.entry(s.name).or_default() += own;
            }
        }
    }
    let mut out: Vec<_> = totals
        .into_iter()
        .map(|(name, ns)| (NAMES[name as usize], ns))
        .collect();
    out.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, threads: &[&[Span]]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            write!(
                out,
                "{{\"thread\":{thread},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"txn\":{}",
                NAMES[s.name as usize], s.start_ns, s.end_ns, s.txn
            )?;
            if s.parent != NO_PARENT {
                write!(out, ",\"parent\":{}", s.parent)?;
            }
            if s.rows != 0 {
                write!(out, ",\"rows\":{}", s.rows)?;
            }
            out.write_all(b"}\n")?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u8, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            txn: 1,
            start_ns,
            end_ns,
            rows: 0,
        }
    }

    #[test]
    fn a_kind_is_its_root_span_name() {
        for kind in crate::gen::Kind::ALL {
            assert_eq!(NAMES[kind as usize], kind.name());
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(FOF, NO_PARENT, 0, 100),
            span(BEGIN, 0, 5, 15),
            span(DRAIN, 0, 20, 80),
            span(READ_NODE_PROPERTY, 2, 30, 50), // grandchild: off `fof`
            span(COMMIT, 0, 85, 95),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 40, 20, 10]);
        let by_name = self_time_by_name(&[&spans], 0, 1000);
        assert_eq!(by_name[0], ("drain", 40));
        assert_eq!(by_name.iter().map(|(_, ns)| ns).sum::<u64>(), 100);
        // Only spans starting inside the interval count.
        assert_eq!(self_time_by_name(&[&spans], 84, 1000), vec![("commit", 10)]);
    }

    #[test]
    fn tracer_nests_closes_abandoned_children_and_drops_when_full() {
        let mut t = Tracer::new(true, Instant::now(), 4);
        let root = t.root(TRANSFER);
        let _begin = t.start(BEGIN);
        let _inner = t.start(COMMIT);
        t.end(root); // closes the two children left open by an early return
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.txn == 1));
        assert!(t.open.is_empty());

        let second = t.root(FOF);
        t.end_rows(second, 9);
        assert_eq!(t.spans()[3].rows, 9);
        assert_eq!(t.spans()[3].txn, 2);
        assert_eq!(t.root(FOF), SpanId::OFF, "buffer full");
        assert_eq!(t.dropped, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1 << 20);
        let id = t.root(FOF);
        t.end(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped, 0);
    }
}
