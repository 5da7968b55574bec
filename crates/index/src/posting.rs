//! Versioned posting lists — the building block of every index.
//!
//! The paper (§4): index entries (labels, property values) "are never
//! deleted in Neo4j even if no node/relationship is using them. We version
//! them to know whether they should be considered or not. [...] The
//! nodes/relationships are tagged with the commit timestamp of the
//! transaction that associated the label/property to the
//! node/relationship", so a reader can discard postings that do not belong
//! to its snapshot.
//!
//! [`VersionedPostingIndex`] is generic over the index key `K` (a label
//! token, a `(property key, value)` pair, ...) and the entity ID `E`
//! (node or relationship), and implements exactly that scheme:
//!
//! * every key remembers the commit timestamp at which it was first
//!   created, so a reader older than the key skips the whole entry;
//! * every posting carries an `added_ts` and an optional `removed_ts`;
//!   membership is visible iff `added_ts <= start_ts < removed_ts`;
//! * physically removing postings (and keys) is the job of the garbage
//!   collector, driven by the oldest-active-transaction watermark.
//!
//! Keys live in an **ordered** map (`BTreeMap`), so beyond point lookups
//! the index exposes a sorted key dimension: [`VersionedPostingIndex::range_cursor`]
//! pages the snapshot-visible members of every key inside a bound pair —
//! the substrate for pushing comparison predicates (`age >= 30`,
//! `ts BETWEEN a AND b`) into the index instead of decode-filtering every
//! candidate. [`RangePostingCursor`] is the index's only cursor: a label
//! or an equality walks the one-key range `Included(k)..=Included(k)`.

use std::collections::BTreeMap;
use std::ops::Bound;

use parking_lot::RwLock;

use graphsi_txn::Timestamp;

/// One versioned membership entry of an index posting list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PostingEntry<E> {
    /// The entity (node or relationship) the posting refers to.
    pub entity: E,
    /// Commit timestamp of the transaction that added the membership.
    pub added_ts: Timestamp,
    /// Commit timestamp of the transaction that removed it, if any.
    pub removed_ts: Option<Timestamp>,
}

impl<E: Copy> PostingEntry<E> {
    /// Creates a live posting added at `added_ts`.
    pub fn new(entity: E, added_ts: Timestamp) -> Self {
        PostingEntry {
            entity,
            added_ts,
            removed_ts: None,
        }
    }

    /// Is this membership visible to a reader with the given start
    /// timestamp?
    pub fn visible_to(&self, start_ts: Timestamp) -> bool {
        if !self.added_ts.visible_to(start_ts) {
            return false;
        }
        match self.removed_ts {
            None => true,
            Some(removed) => !removed.visible_to(start_ts),
        }
    }

    /// Is this posting dead for every present and future reader given the
    /// GC watermark (oldest active start timestamp)?
    pub fn reclaimable(&self, watermark: Timestamp) -> bool {
        matches!(self.removed_ts, Some(removed) if removed.visible_to(watermark))
    }
}

struct KeyEntry<E> {
    /// Commit timestamp at which the key itself first appeared.
    created_ts: Timestamp,
    postings: Vec<PostingEntry<E>>,
    /// Number of postings with no removal timestamp — the live fraction,
    /// maintained incrementally on add/tombstone so planner cardinality
    /// estimates track churn instead of counting dead postings.
    live: u64,
}

/// Statistics of one versioned index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of distinct keys.
    pub keys: u64,
    /// Total postings (live + dead).
    pub postings: u64,
    /// Postings whose removal is already visible to every active reader.
    pub dead_postings: u64,
    /// Postings with no removal timestamp (the live fraction).
    pub live_postings: u64,
}

/// A snapshot-visible index from keys to posting lists of entities, with
/// an ordered key dimension for range scans.
pub struct VersionedPostingIndex<K, E> {
    entries: RwLock<BTreeMap<K, KeyEntry<E>>>,
}

impl<K, E> VersionedPostingIndex<K, E>
where
    K: Ord + Clone,
    E: Copy + Eq,
{
    /// Creates an empty index.
    pub fn new() -> Self {
        VersionedPostingIndex {
            // Lock-order rank: see the README's lock-rank map.
            entries: RwLock::with_rank(BTreeMap::new(), 2560, "index.postings"),
        }
    }

    /// Records that `entity` gained membership under `key` at commit
    /// timestamp `commit_ts`.
    pub fn add(&self, key: K, entity: E, commit_ts: Timestamp) {
        let mut entries = self.entries.write();
        let entry = entries.entry(key).or_insert_with(|| KeyEntry {
            created_ts: commit_ts,
            postings: Vec::new(),
            live: 0,
        });
        if commit_ts < entry.created_ts {
            entry.created_ts = commit_ts;
        }
        // Re-adding after a removal creates a fresh posting; the old one
        // stays for older snapshots until GC reclaims it.
        entry.postings.push(PostingEntry::new(entity, commit_ts));
        entry.live += 1;
    }

    /// Records that `entity` lost membership under `key` at commit
    /// timestamp `commit_ts`. The posting is kept (tombstoned) so older
    /// snapshots still see it.
    pub fn remove(&self, key: &K, entity: E, commit_ts: Timestamp) {
        let mut entries = self.entries.write();
        if let Some(entry) = entries.get_mut(key) {
            // Tombstone the newest still-live posting for this entity.
            if let Some(p) = entry
                .postings
                .iter_mut()
                .rev()
                .find(|p| p.entity == entity && p.removed_ts.is_none())
            {
                p.removed_ts = Some(commit_ts);
                entry.live = entry.live.saturating_sub(1);
            }
        }
    }

    /// Returns every entity whose membership under `key` is visible to a
    /// reader with start timestamp `start_ts`.
    ///
    /// Following the paper, if the key itself was created after the
    /// reader's snapshot the whole entry is discarded without looking at
    /// its postings.
    pub fn lookup(&self, key: &K, start_ts: Timestamp) -> Vec<E> {
        let mut out = Vec::new();
        self.lookup_with(key, start_ts, |e| out.push(e));
        out
    }

    /// Borrowing variant of [`VersionedPostingIndex::lookup`]: calls `f`
    /// for every visible member instead of allocating a `Vec`. The posting
    /// list's read lock is held for the duration of the walk, so `f` should
    /// be cheap.
    pub fn lookup_with(&self, key: &K, start_ts: Timestamp, mut f: impl FnMut(E)) {
        let entries = self.entries.read();
        let Some(entry) = entries.get(key) else {
            return;
        };
        if !entry.created_ts.visible_to(start_ts) {
            return;
        }
        for p in &entry.postings {
            if p.visible_to(start_ts) {
                f(p.entity);
            }
        }
    }

    /// Opens a chunked, GC-safe cursor over the visible members of every
    /// key inside `(lo, hi)`, walking keys in sort order (the index's
    /// sorted key dimension). No lock is held between refills, at most
    /// `chunk_size` entities are buffered, and the cursor is lossless
    /// across GC compaction and concurrent appends — see
    /// [`RangePostingCursor`]. A point lookup is the one-key range
    /// `Included(k)..=Included(k)`.
    pub fn range_cursor(
        &self,
        lo: Bound<K>,
        hi: Bound<K>,
        start_ts: Timestamp,
        chunk_size: usize,
    ) -> RangePostingCursor<'_, K, E> {
        RangePostingCursor {
            index: self,
            lo,
            hi,
            start_ts,
            chunk: chunk_size.max(1),
            marker: None,
            pos_hint: 0,
            descending: false,
            done: false,
        }
    }

    /// Like [`VersionedPostingIndex::range_cursor`], but walks the keys in
    /// **descending** sort order — the substrate for index-streamed
    /// `ORDER BY ... DESC` / descending top-k. Same resumption contract;
    /// on refill the marker key becomes the inclusive *upper* bound of the
    /// walk instead of the lower one, so GC compaction and concurrent
    /// appends remain lossless and phantom-free in either direction.
    pub fn range_cursor_desc(
        &self,
        lo: Bound<K>,
        hi: Bound<K>,
        start_ts: Timestamp,
        chunk_size: usize,
    ) -> RangePostingCursor<'_, K, E> {
        RangePostingCursor {
            index: self,
            lo,
            hi,
            start_ts,
            chunk: chunk_size.max(1),
            marker: None,
            pos_hint: 0,
            descending: true,
            done: false,
        }
    }

    /// Live postings (no removal timestamp) stored under `key` — a cheap
    /// cardinality estimate for the query planner. The counter is
    /// maintained incrementally on add/tombstone, so heavy removal churn
    /// between GC passes no longer inflates the estimate and steers plan
    /// choice wrong.
    pub fn postings_estimate(&self, key: &K) -> u64 {
        self.entries.read().get(key).map_or(0, |e| e.live)
    }

    /// Live postings (no removal timestamp) stored under every key inside
    /// `(lo, hi)`, saturating at `cap` — the planner's range-cardinality
    /// estimate. Walks only the keys in range and stops as soon as the
    /// running total reaches `cap`, so comparing a huge range against a
    /// small competing estimate costs O(keys up to cap), not O(keys in
    /// range).
    pub fn range_postings_estimate(&self, lo: Bound<&K>, hi: Bound<&K>, cap: u64) -> u64 {
        if !bounds_are_ordered(&lo, &hi) {
            return 0;
        }
        let entries = self.entries.read();
        let mut total = 0u64;
        for (_, e) in entries.range((lo, hi)) {
            total = total.saturating_add(e.live);
            if total >= cap {
                return cap;
            }
        }
        total
    }

    /// Returns `true` if `entity` is a visible member of `key` for the
    /// given snapshot. Walks the key's posting list in place and stops at
    /// the first visible match.
    pub fn contains(&self, key: &K, entity: E, start_ts: Timestamp) -> bool {
        let entries = self.entries.read();
        entries.get(key).is_some_and(|entry| {
            entry.created_ts.visible_to(start_ts)
                && entry
                    .postings
                    .iter()
                    .any(|p| p.entity == entity && p.visible_to(start_ts))
        })
    }

    /// Every key currently present (regardless of snapshot visibility).
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::new();
        self.for_each_key(|k| out.push(k.clone()));
        out
    }

    /// Borrowing variant of [`VersionedPostingIndex::keys`]: calls `f` for
    /// every key without allocating. The index's read lock is held for the
    /// duration of the walk.
    pub fn for_each_key(&self, mut f: impl FnMut(&K)) {
        for key in self.entries.read().keys() {
            f(key);
        }
    }

    /// Physically removes postings that are dead for every active reader
    /// (removed at or before the watermark), and drops keys whose posting
    /// lists become empty. Returns the number of postings reclaimed.
    pub fn gc(&self, watermark: Timestamp) -> u64 {
        let mut entries = self.entries.write();
        let mut reclaimed = 0u64;
        entries.retain(|_, entry| {
            let before = entry.postings.len();
            // Reclaimable postings always carry a removal timestamp, so the
            // live counter is untouched by compaction.
            entry.postings.retain(|p| !p.reclaimable(watermark));
            reclaimed += (before - entry.postings.len()) as u64;
            debug_assert_eq!(
                entry.live as usize,
                entry
                    .postings
                    .iter()
                    .filter(|p| p.removed_ts.is_none())
                    .count(),
                "live-fraction counter out of sync with posting list"
            );
            !entry.postings.is_empty()
        });
        reclaimed
    }

    /// Index statistics.
    pub fn stats(&self) -> IndexStats {
        let entries = self.entries.read();
        let mut stats = IndexStats {
            keys: entries.len() as u64,
            ..Default::default()
        };
        // A conservative watermark of "now" is not known here; dead
        // postings are counted as "has a removal timestamp".
        for entry in entries.values() {
            stats.postings += entry.postings.len() as u64;
            stats.live_postings += entry.live;
            stats.dead_postings += entry
                .postings
                .iter()
                .filter(|p| p.removed_ts.is_some())
                .count() as u64;
        }
        stats
    }
}

/// `true` when `(lo, hi)` describes a range `BTreeMap::range` accepts (it
/// panics on inverted bounds and on an equal, doubly-excluded pair — both
/// of which are simply empty ranges for a cursor).
fn bounds_are_ordered<K: Ord>(lo: &Bound<&K>, hi: &Bound<&K>) -> bool {
    match (lo, hi) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => true,
        (Bound::Included(a), Bound::Included(b)) => a <= b,
        (Bound::Included(a), Bound::Excluded(b)) | (Bound::Excluded(a), Bound::Included(b)) => {
            a <= b
        }
        (Bound::Excluded(a), Bound::Excluded(b)) => a < b,
    }
}

/// Borrowing view of an owned bound — what the range APIs of this crate
/// take, so callers can keep ownership of their bound pair.
pub fn bound_as_ref<K>(bound: &Bound<K>) -> Bound<&K> {
    match bound {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// A resumable, chunked cursor over every posting list whose key falls in
/// a bound pair, created by [`VersionedPostingIndex::range_cursor`]. This
/// is the index's *range postings* read path: a comparison predicate
/// compiles to one of these instead of a decode-based filter over every
/// candidate entity.
///
/// It is also the index's only cursor: a label or an equality predicate
/// walks the one-key range `Included(k)..=Included(k)`.
///
/// Between [`RangePostingCursor::next_chunk`] calls the cursor holds **no
/// lock** and remembers only a resume marker — the key of the posting list
/// it was parked in plus the `(added_ts, entity)` pair of the last posting
/// it handed out (`(added_ts, entity)` is unique within one key: a commit
/// adds at most one posting per key and entity, and commit timestamps are
/// distinct). Each refill re-enters the ordered key map at the marker key
/// (or the next surviving key, if GC dropped it — legal only when every
/// posting under it was dead for every active snapshot) and resumes just
/// past the marker posting in that key's list:
///
/// * keys created after the snapshot, and postings added after it, are
///   filtered by visibility, so concurrent commits cannot leak phantoms;
/// * postings/keys removed by GC were invisible to every active snapshot,
///   so nothing this cursor still owes its reader can disappear;
/// * within one snapshot an entity holds at most one visible value per
///   property key, so a key-range walk yields each entity at most once;
/// * the marker posting is visible to the snapshot and therefore not
///   reclaimable while the owning transaction is active.
pub struct RangePostingCursor<'a, K, E> {
    index: &'a VersionedPostingIndex<K, E>,
    lo: Bound<K>,
    hi: Bound<K>,
    start_ts: Timestamp,
    chunk: usize,
    /// Resume marker: the key the cursor is parked in and the
    /// `(added_ts, entity)` of the last posting handed out of it.
    marker: Option<(K, Timestamp, E)>,
    /// Position at which the marker posting was last seen in its list
    /// (O(1) resume in the common no-compaction case).
    pos_hint: usize,
    /// Walk keys in descending sort order. Within one key postings are
    /// still walked in list (commit) order — intra-key order carries no
    /// value ordering, every posting under a key shares the same value.
    descending: bool,
    done: bool,
}

impl<K, E> RangePostingCursor<'_, K, E>
where
    K: Ord + Clone,
    E: Copy + Eq,
{
    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Clamps the next refills to at most `max` entities (floored at 1) —
    /// the limit-pushdown hook: a consumer that only owes its caller `max`
    /// more rows has no reason to page a full chunk.
    pub fn clamp_chunk(&mut self, max: usize) {
        self.chunk = self.chunk.min(max.max(1));
    }

    /// Refills `buf` (cleared first) with up to `chunk_size` visible
    /// entities, resuming after the last posting handed out. Returns
    /// `false` once every key in the range is exhausted and `buf` stayed
    /// empty.
    pub fn next_chunk(&mut self, buf: &mut Vec<E>) -> bool {
        buf.clear();
        if self.done {
            return false;
        }
        let index = self.index;
        let entries = index.entries.read();
        // Resume at the marker key (inclusive: its list may hold more
        // postings past the marker), or at the range start on first use.
        // Ascending walks clamp the lower bound to the marker; descending
        // walks clamp the upper bound instead.
        let (lower, upper): (Bound<&K>, Bound<&K>) = match &self.marker {
            None => (bound_as_ref(&self.lo), bound_as_ref(&self.hi)),
            Some((key, _, _)) if self.descending => (bound_as_ref(&self.lo), Bound::Included(key)),
            Some((key, _, _)) => (Bound::Included(key), bound_as_ref(&self.hi)),
        };
        if !bounds_are_ordered(&lower, &upper) {
            self.done = true;
            return false;
        }
        let range = entries.range((lower, upper));
        let full = if self.descending {
            self.fill(range.rev(), buf)
        } else {
            self.fill(range, buf)
        };
        self.done = !full;
        !buf.is_empty()
    }

    /// Walks `keys` from the resume marker, appending visible postings to
    /// `buf` until it holds a chunk; `true` if it filled (more may follow).
    /// The marker is recorded once, for the last posting taken: a key
    /// exhausted mid-walk leaves it naming an earlier key, and the next
    /// refill re-enters there and skips what it already delivered.
    fn fill<'m>(
        &mut self,
        keys: impl Iterator<Item = (&'m K, &'m KeyEntry<E>)>,
        buf: &mut Vec<E>,
    ) -> bool
    where
        K: 'm,
        E: 'm,
    {
        let mut last: Option<(&K, Timestamp, E, usize)> = None;
        let mut full = false;
        'keys: for (key, entry) in keys {
            if !entry.created_ts.visible_to(self.start_ts) {
                continue;
            }
            let postings = &entry.postings;
            let start = match &self.marker {
                Some((marker_key, ts, e)) if marker_key == key => {
                    self.resume_position(postings, *ts, *e)
                }
                _ => 0,
            };
            for (pos, p) in postings.iter().enumerate().skip(start) {
                if p.visible_to(self.start_ts) {
                    buf.push(p.entity);
                    last = Some((key, p.added_ts, p.entity, pos));
                    if buf.len() >= self.chunk {
                        full = true;
                        break 'keys;
                    }
                }
            }
        }
        if let Some((key, ts, e, pos)) = last {
            self.marker = Some((key.clone(), ts, e));
            self.pos_hint = pos;
        }
        full
    }

    /// Where to resume inside the marker key's posting list: just past the
    /// marker posting, found at its last position in O(1) unless GC
    /// compacted the list in between.
    fn resume_position(&self, postings: &[PostingEntry<E>], ts: Timestamp, e: E) -> usize {
        let is_marker = |p: &PostingEntry<E>| p.added_ts == ts && p.entity == e;
        if postings.get(self.pos_hint).is_some_and(is_marker) {
            return self.pos_hint + 1;
        }
        match postings.iter().position(is_marker) {
            Some(i) => i + 1,
            // The marker posting was reclaimed, which is only possible when
            // the cursor outlived its transaction. Resume at the first
            // posting of the marker's commit — the list is append-ordered
            // by commit timestamp, and `>=` rather than `>` so still-live
            // postings the same commit added are re-yielded instead of
            // skipped (duplicates beat lost entries).
            None => postings
                .iter()
                .position(|p| p.added_ts >= ts)
                .unwrap_or(postings.len()),
        }
    }
}

impl<K, E> std::fmt::Debug for RangePostingCursor<'_, K, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangePostingCursor")
            .field("chunk", &self.chunk)
            .field("start_ts", &self.start_ts)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<K, E> Default for VersionedPostingIndex<K, E>
where
    K: Ord + Clone,
    E: Copy + Eq,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, E> std::fmt::Debug for VersionedPostingIndex<K, E>
where
    K: Ord + Clone,
    E: Copy + Eq,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("VersionedPostingIndex")
            .field("keys", &stats.keys)
            .field("postings", &stats.postings)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Index = VersionedPostingIndex<u32, u64>;

    #[test]
    fn posting_visibility_window() {
        let mut p = PostingEntry::new(1u64, Timestamp(10));
        assert!(!p.visible_to(Timestamp(9)));
        assert!(p.visible_to(Timestamp(10)));
        assert!(p.visible_to(Timestamp(100)));
        p.removed_ts = Some(Timestamp(20));
        assert!(p.visible_to(Timestamp(15)));
        assert!(!p.visible_to(Timestamp(20)));
        assert!(!p.visible_to(Timestamp(25)));
        assert!(!p.reclaimable(Timestamp(19)));
        assert!(p.reclaimable(Timestamp(20)));
    }

    #[test]
    fn lookup_respects_snapshot() {
        let index = Index::new();
        index.add(1, 100, Timestamp(10));
        index.add(1, 200, Timestamp(20));
        assert_eq!(index.lookup(&1, Timestamp(5)), Vec::<u64>::new());
        assert_eq!(index.lookup(&1, Timestamp(15)), vec![100]);
        let mut at_25 = index.lookup(&1, Timestamp(25));
        at_25.sort_unstable();
        assert_eq!(at_25, vec![100, 200]);
    }

    #[test]
    fn key_created_after_snapshot_is_discarded_entirely() {
        let index = Index::new();
        index.add(7, 1, Timestamp(50));
        index.add(7, 2, Timestamp(60));
        // Reader started before the key existed: the paper says it "can
        // simply discard them".
        assert!(index.lookup(&7, Timestamp(40)).is_empty());
        assert!(!index.contains(&7, 1, Timestamp(40)));
        assert!(index.contains(&7, 1, Timestamp(55)));
    }

    #[test]
    fn removal_is_versioned_not_destructive() {
        let index = Index::new();
        index.add(1, 100, Timestamp(10));
        index.remove(&1, 100, Timestamp(30));
        // Old snapshot still sees the membership; new one does not.
        assert_eq!(index.lookup(&1, Timestamp(20)), vec![100]);
        assert!(index.lookup(&1, Timestamp(30)).is_empty());
        assert_eq!(index.stats().dead_postings, 1);
    }

    #[test]
    fn re_adding_after_removal_creates_new_posting() {
        let index = Index::new();
        index.add(1, 100, Timestamp(10));
        index.remove(&1, 100, Timestamp(20));
        index.add(1, 100, Timestamp(30));
        assert_eq!(index.lookup(&1, Timestamp(15)), vec![100]);
        assert!(index.lookup(&1, Timestamp(25)).is_empty());
        assert_eq!(index.lookup(&1, Timestamp(35)), vec![100]);
        assert_eq!(index.stats().postings, 2);
    }

    #[test]
    fn remove_unknown_entity_is_a_noop() {
        let index = Index::new();
        index.add(1, 100, Timestamp(10));
        index.remove(&1, 999, Timestamp(20));
        index.remove(&2, 100, Timestamp(20));
        assert_eq!(index.lookup(&1, Timestamp(25)), vec![100]);
    }

    #[test]
    fn gc_reclaims_dead_postings_and_empty_keys() {
        let index = Index::new();
        index.add(1, 100, Timestamp(10));
        index.add(1, 200, Timestamp(10));
        index.remove(&1, 100, Timestamp(20));
        index.add(2, 300, Timestamp(10));
        index.remove(&2, 300, Timestamp(20));

        // Watermark before the removals: nothing reclaimable.
        assert_eq!(index.gc(Timestamp(15)), 0);
        assert_eq!(index.stats().postings, 3);

        // Watermark after the removals: both dead postings go, key 2
        // becomes empty and is dropped.
        assert_eq!(index.gc(Timestamp(20)), 2);
        let stats = index.stats();
        assert_eq!(stats.postings, 1);
        assert_eq!(stats.keys, 1);
        assert_eq!(index.lookup(&1, Timestamp(30)), vec![200]);
        assert!(index.lookup(&2, Timestamp(30)).is_empty());
    }

    #[test]
    fn keys_lists_all_keys() {
        let index = Index::new();
        index.add(1, 10, Timestamp(1));
        index.add(2, 20, Timestamp(2));
        let mut keys = index.keys();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2]);
    }

    /// The one-key range a label or equality predicate walks.
    fn point_cursor(
        index: &Index,
        key: u32,
        start_ts: Timestamp,
        chunk: usize,
    ) -> RangePostingCursor<'_, u32, u64> {
        index.range_cursor(Bound::Included(key), Bound::Included(key), start_ts, chunk)
    }

    #[test]
    fn cursor_pages_through_visible_postings() {
        let index = Index::new();
        for e in 0..10u64 {
            index.add(1, e, Timestamp(e + 1));
        }
        // e=3 removed before the snapshot, e=9 added after it.
        index.remove(&1, 3, Timestamp(8));
        let mut cursor = point_cursor(&index, 1, Timestamp(8), 3);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while cursor.next_chunk(&mut buf) {
            assert!(buf.len() <= 3, "chunk bound violated: {}", buf.len());
            out.extend_from_slice(&buf);
        }
        assert_eq!(out, vec![0, 1, 2, 4, 5, 6, 7]);
        // Exhausted cursor stays exhausted.
        assert!(!cursor.next_chunk(&mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn cursor_survives_concurrent_append_and_gc() {
        let index = Index::new();
        for e in 0..6u64 {
            index.add(1, e, Timestamp(e + 1));
        }
        // Dead postings below the future watermark, interleaved.
        index.remove(&1, 0, Timestamp(7));
        index.remove(&1, 2, Timestamp(7));

        let mut cursor = point_cursor(&index, 1, Timestamp(10), 2);
        let mut buf = Vec::new();
        assert!(cursor.next_chunk(&mut buf));
        assert_eq!(buf, vec![1, 3]);

        // Concurrent world: GC compacts the list and a new commit appends.
        assert_eq!(index.gc(Timestamp(10)), 2);
        index.add(1, 99, Timestamp(20));

        let mut out = buf.clone();
        while cursor.next_chunk(&mut buf) {
            out.extend_from_slice(&buf);
        }
        // No lost entries (4, 5 still arrive), no phantoms (99 is above the
        // snapshot and never appears).
        assert_eq!(out, vec![1, 3, 4, 5]);
    }

    #[test]
    fn cursor_on_unknown_or_future_key_is_empty() {
        let index = Index::new();
        index.add(5, 1, Timestamp(50));
        let mut buf = Vec::new();
        assert!(!point_cursor(&index, 9, Timestamp(100), 4).next_chunk(&mut buf));
        // Key created after the snapshot: discarded wholesale.
        assert!(!point_cursor(&index, 5, Timestamp(40), 4).next_chunk(&mut buf));
    }

    #[test]
    fn cursor_resumes_after_losing_its_marker() {
        let index = Index::new();
        index.add(1, 10, Timestamp(1));
        index.add(1, 20, Timestamp(2));
        index.add(1, 21, Timestamp(2));
        index.add(1, 30, Timestamp(3));

        let mut cursor = point_cursor(&index, 1, Timestamp(10), 3);
        let mut buf = Vec::new();
        assert!(cursor.next_chunk(&mut buf));
        assert_eq!(buf, vec![10, 20, 21]);
        // The cursor outlives its transaction: the marker posting (21) is
        // removed and reclaimed behind it.
        index.remove(&1, 21, Timestamp(20));
        assert_eq!(index.gc(Timestamp(20)), 1);

        let mut out = buf.clone();
        while cursor.next_chunk(&mut buf) {
            out.extend_from_slice(&buf);
        }
        // Resumption restarts at the marker's commit: 20 (same commit) is
        // handed out again rather than risk skipping anything; 30 is not
        // lost.
        assert_eq!(out, vec![10, 20, 21, 20, 30]);
    }

    #[test]
    fn chunk_size_one_yields_single_entities() {
        let index = Index::new();
        for e in 0..4u64 {
            index.add(1, e, Timestamp(e + 1));
        }
        let mut cursor = point_cursor(&index, 1, Timestamp(100), 1);
        assert_eq!(cursor.chunk_size(), 1);
        let mut buf = Vec::new();
        let mut count = 0;
        while cursor.next_chunk(&mut buf) {
            assert_eq!(buf.len(), 1);
            count += 1;
        }
        assert_eq!(count, 4);
    }

    fn drain_range(cursor: &mut RangePostingCursor<'_, u32, u64>) -> Vec<u64> {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while cursor.next_chunk(&mut buf) {
            assert!(buf.len() <= cursor.chunk_size());
            out.extend_from_slice(&buf);
        }
        out
    }

    #[test]
    fn range_cursor_walks_keys_in_order() {
        let index = Index::new();
        for key in [5u32, 1, 9, 3, 7] {
            for e in 0..3u64 {
                index.add(key, u64::from(key) * 100 + e, Timestamp(1));
            }
        }
        let mut cursor =
            index.range_cursor(Bound::Included(3), Bound::Excluded(8), Timestamp(10), 2);
        assert_eq!(
            drain_range(&mut cursor),
            vec![300, 301, 302, 500, 501, 502, 700, 701, 702],
            "keys 3, 5, 7 in sorted order; 1 and 9 excluded"
        );
        // Unbounded on both sides covers everything.
        let mut all = index.range_cursor(Bound::Unbounded, Bound::Unbounded, Timestamp(10), 4);
        assert_eq!(drain_range(&mut all).len(), 15);
        // Inverted bounds are an empty range, not a panic.
        let mut none = index.range_cursor(Bound::Included(8), Bound::Included(3), Timestamp(10), 4);
        let mut buf = Vec::new();
        assert!(!none.next_chunk(&mut buf));
    }

    #[test]
    fn range_cursor_applies_snapshot_visibility_per_key_and_posting() {
        let index = Index::new();
        index.add(1, 10, Timestamp(5));
        index.add(2, 20, Timestamp(50)); // key created after the snapshot
        index.add(3, 30, Timestamp(5));
        index.add(3, 31, Timestamp(50)); // posting after the snapshot
        index.remove(&3, 30, Timestamp(8)); // removed before the snapshot
        index.add(4, 40, Timestamp(7));
        let mut cursor = index.range_cursor(Bound::Unbounded, Bound::Unbounded, Timestamp(10), 16);
        assert_eq!(drain_range(&mut cursor), vec![10, 40]);
    }

    #[test]
    fn range_cursor_survives_concurrent_append_and_gc_across_keys() {
        let index = Index::new();
        for key in [1u32, 2, 3] {
            for e in 0..4u64 {
                index.add(key, u64::from(key) * 10 + e, Timestamp(e + 1));
            }
        }
        // Dead postings in keys the cursor has not reached yet.
        index.remove(&2, 21, Timestamp(5));
        index.remove(&3, 30, Timestamp(5));

        let mut cursor =
            index.range_cursor(Bound::Included(1), Bound::Included(3), Timestamp(10), 3);
        let mut buf = Vec::new();
        assert!(cursor.next_chunk(&mut buf));
        assert_eq!(buf, vec![10, 11, 12]);

        // Concurrent world: GC compacts (dropping dead postings), a new key
        // inside the range appears, and new postings land in key 2 — all
        // above the snapshot.
        assert_eq!(index.gc(Timestamp(10)), 2);
        index.add(2, 99, Timestamp(20));
        index.add(1, 98, Timestamp(20)); // behind the cursor, too-new anyway

        let mut out = buf.clone();
        while cursor.next_chunk(&mut buf) {
            out.extend_from_slice(&buf);
        }
        // Lossless: 13 and the surviving postings of keys 2 and 3 arrive;
        // no phantoms (98/99 are above the snapshot, 21/30 were removed).
        assert_eq!(out, vec![10, 11, 12, 13, 20, 22, 23, 31, 32, 33]);
    }

    #[test]
    fn range_cursor_resumes_after_its_own_key_is_gc_dropped() {
        let index = Index::new();
        index.add(1, 10, Timestamp(1));
        index.add(2, 20, Timestamp(1));
        index.add(3, 30, Timestamp(1));
        // The cursor's snapshot cannot see key 2 (removed before it).
        index.remove(&2, 20, Timestamp(2));

        let mut cursor =
            index.range_cursor(Bound::Included(1), Bound::Included(3), Timestamp(5), 1);
        let mut buf = Vec::new();
        assert!(cursor.next_chunk(&mut buf));
        assert_eq!(buf, vec![10]);
        // GC drops key 2 entirely while the cursor is parked in key 1.
        assert_eq!(index.gc(Timestamp(5)), 1);
        assert!(cursor.next_chunk(&mut buf));
        assert_eq!(buf, vec![30]);
        assert!(!cursor.next_chunk(&mut buf));
    }

    #[test]
    fn estimates_count_postings_in_range() {
        let index = Index::new();
        for key in [1u32, 2, 3] {
            for e in 0..key as u64 {
                index.add(key, e, Timestamp(1));
            }
        }
        assert_eq!(index.postings_estimate(&2), 2);
        assert_eq!(index.postings_estimate(&9), 0);
        assert_eq!(
            index.range_postings_estimate(Bound::Included(&2), Bound::Unbounded, u64::MAX),
            5
        );
        assert_eq!(
            index.range_postings_estimate(Bound::Included(&3), Bound::Included(&1), u64::MAX),
            0,
            "inverted bounds estimate as empty instead of panicking"
        );
    }

    #[test]
    fn estimates_track_live_fraction_under_churn() {
        let index = Index::new();
        for e in 0..10u64 {
            index.add(1, e, Timestamp(e + 1));
        }
        assert_eq!(index.postings_estimate(&1), 10);
        // Tombstone 7 of them — no GC yet, but the estimate must already
        // reflect the live fraction, not the physical posting count.
        for e in 0..7u64 {
            index.remove(&1, e, Timestamp(20));
        }
        assert_eq!(index.postings_estimate(&1), 3);
        assert_eq!(
            index.range_postings_estimate(Bound::Unbounded, Bound::Unbounded, u64::MAX),
            3
        );
        let stats = index.stats();
        assert_eq!(stats.postings, 10);
        assert_eq!(stats.live_postings, 3);
        assert_eq!(stats.dead_postings, 7);
        // GC compaction does not change the live count.
        assert_eq!(index.gc(Timestamp(20)), 7);
        assert_eq!(index.postings_estimate(&1), 3);
        // Re-adding raises it again.
        index.add(1, 0, Timestamp(30));
        assert_eq!(index.postings_estimate(&1), 4);
    }

    #[test]
    fn range_cursor_desc_walks_keys_in_reverse_order() {
        let index = Index::new();
        for key in [5u32, 1, 9, 3, 7] {
            for e in 0..3u64 {
                index.add(key, u64::from(key) * 100 + e, Timestamp(1));
            }
        }
        let mut cursor =
            index.range_cursor_desc(Bound::Included(3), Bound::Excluded(8), Timestamp(10), 2);
        assert_eq!(
            drain_range(&mut cursor),
            vec![700, 701, 702, 500, 501, 502, 300, 301, 302],
            "keys 7, 5, 3 in descending order; 1 and 9 excluded"
        );
        let mut all = index.range_cursor_desc(Bound::Unbounded, Bound::Unbounded, Timestamp(10), 4);
        let out = drain_range(&mut all);
        assert_eq!(out.len(), 15);
        assert_eq!(out[0], 900, "descending walk starts at the largest key");
        // Inverted bounds are an empty range, not a panic.
        let mut none =
            index.range_cursor_desc(Bound::Included(8), Bound::Included(3), Timestamp(10), 4);
        let mut buf = Vec::new();
        assert!(!none.next_chunk(&mut buf));
    }

    #[test]
    fn range_cursor_desc_survives_concurrent_append_and_gc_across_keys() {
        let index = Index::new();
        for key in [1u32, 2, 3] {
            for e in 0..4u64 {
                index.add(key, u64::from(key) * 10 + e, Timestamp(e + 1));
            }
        }
        // Dead postings in keys the descending cursor has not reached yet.
        index.remove(&2, 21, Timestamp(5));
        index.remove(&1, 10, Timestamp(5));

        let mut cursor =
            index.range_cursor_desc(Bound::Included(1), Bound::Included(3), Timestamp(10), 3);
        let mut buf = Vec::new();
        assert!(cursor.next_chunk(&mut buf));
        assert_eq!(buf, vec![30, 31, 32]);

        // Concurrent world: GC compacts, new postings land above and below
        // the parked key — all invisible to the snapshot.
        assert_eq!(index.gc(Timestamp(10)), 2);
        index.add(2, 99, Timestamp(20));
        index.add(3, 98, Timestamp(20)); // behind the cursor, too-new anyway

        let mut out = buf.clone();
        while cursor.next_chunk(&mut buf) {
            out.extend_from_slice(&buf);
        }
        // Lossless: 33 and the surviving postings of keys 2 and 1 arrive in
        // descending key order; no phantoms.
        assert_eq!(out, vec![30, 31, 32, 33, 20, 22, 23, 11, 12, 13]);
    }

    #[test]
    fn range_cursor_desc_resumes_after_its_own_key_is_gc_dropped() {
        let index = Index::new();
        index.add(1, 10, Timestamp(1));
        index.add(2, 20, Timestamp(1));
        index.add(3, 30, Timestamp(1));
        // The cursor's snapshot cannot see key 2 (removed before it).
        index.remove(&2, 20, Timestamp(2));

        let mut cursor =
            index.range_cursor_desc(Bound::Included(1), Bound::Included(3), Timestamp(5), 1);
        let mut buf = Vec::new();
        assert!(cursor.next_chunk(&mut buf));
        assert_eq!(buf, vec![30]);
        // GC drops key 2 entirely while the cursor is parked in key 3.
        assert_eq!(index.gc(Timestamp(5)), 1);
        assert!(cursor.next_chunk(&mut buf));
        assert_eq!(buf, vec![10]);
        assert!(!cursor.next_chunk(&mut buf));
    }

    #[test]
    fn lookup_with_matches_lookup() {
        let index = Index::new();
        index.add(1, 10, Timestamp(1));
        index.add(1, 20, Timestamp(2));
        index.remove(&1, 10, Timestamp(3));
        let mut streamed = Vec::new();
        index.lookup_with(&1, Timestamp(5), |e| streamed.push(e));
        assert_eq!(streamed, index.lookup(&1, Timestamp(5)));
        let mut keys = Vec::new();
        index.for_each_key(|k| keys.push(*k));
        assert_eq!(keys, vec![1]);
    }

    #[test]
    fn concurrent_adds_and_lookups() {
        use std::sync::Arc;
        let index = Arc::new(Index::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let index = Arc::clone(&index);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    index.add((i % 10) as u32, t * 1000 + i, Timestamp(t * 250 + i + 1));
                    let _ = index.lookup(&((i % 10) as u32), Timestamp(u64::MAX));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(index.stats().postings, 1000);
    }
}
