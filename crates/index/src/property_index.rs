//! The versioned property indexes.
//!
//! Neo4j keeps a property index for nodes and one for relationships (the
//! paper, §2). Both map a `(property key, value)` pair to the entities
//! holding that value, with the §4 multi-versioning applied: postings are
//! tagged with the commit timestamp that added (and, eventually, removed)
//! them so readers only see the memberships belonging to their snapshot.

use std::ops::Bound;

use graphsi_storage::{NodeId, PropertyKeyToken, PropertyValue, RelationshipId, ValueKey};
use graphsi_txn::Timestamp;

use crate::posting::{IndexStats, RangePostingCursor, VersionedPostingIndex};

/// Index key: a property key token plus the canonical form of the value.
pub type PropertyIndexKey = (PropertyKeyToken, ValueKey);

/// Maps a value-range over one property key onto bounds of the composite
/// `(token, ValueKey)` key space, confining the range to the key token
/// *and* to the value type of its bounds (range predicates are
/// type-homogeneous: `age >= 30` never matches `age = "thirty"`).
///
/// Returns `None` when the pair cannot be expressed as one contiguous
/// composite range: bounds of two different value types (unsatisfiable —
/// callers should produce an empty scan).
pub fn composite_range_bounds(
    token: PropertyKeyToken,
    lo: Bound<&ValueKey>,
    hi: Bound<&ValueKey>,
) -> Option<(Bound<PropertyIndexKey>, Bound<PropertyIndexKey>)> {
    let typed = |b: &Bound<&ValueKey>| match b {
        Bound::Included(k) | Bound::Excluded(k) => Some((*k).clone()),
        Bound::Unbounded => None,
    };
    let (lo_key, hi_key) = (typed(&lo), typed(&hi));
    if let (Some(a), Some(b)) = (&lo_key, &hi_key) {
        if !a.same_type(b) {
            return None;
        }
    }
    let lower = match lo {
        Bound::Included(k) => Bound::Included((token, k.clone())),
        Bound::Excluded(k) => Bound::Excluded((token, k.clone())),
        // Clamp an open lower end to the hi bound's type floor; with both
        // ends open ("has this property at all"), start at the smallest
        // possible key.
        Bound::Unbounded => Bound::Included((
            token,
            hi_key
                .as_ref()
                .map_or(ValueKey::Bool(false), ValueKey::type_min),
        )),
    };
    let upper = match hi {
        Bound::Included(k) => Bound::Included((token, k.clone())),
        Bound::Excluded(k) => Bound::Excluded((token, k.clone())),
        Bound::Unbounded => match lo_key.as_ref().and_then(ValueKey::successor_type_min) {
            // Clamp an open upper end to the floor of the next value type.
            Some(ceiling) => Bound::Excluded((token, ceiling)),
            // String-typed (or fully open) ranges end at the next token.
            None => match token.0.checked_add(1) {
                Some(next) => Bound::Excluded((PropertyKeyToken(next), ValueKey::Bool(false))),
                None => Bound::Unbounded,
            },
        },
    };
    Some((lower, upper))
}

/// A snapshot-visible property index, generic over the entity kind.
#[derive(Debug)]
pub struct PropertyIndex<E: Copy + Eq> {
    inner: VersionedPostingIndex<PropertyIndexKey, E>,
}

impl<E: Copy + Eq> Default for PropertyIndex<E> {
    fn default() -> Self {
        PropertyIndex {
            inner: VersionedPostingIndex::new(),
        }
    }
}

impl<E: Copy + Eq> PropertyIndex<E> {
    /// Creates an empty property index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `entity` gained property `key = value` at `commit_ts`.
    pub fn add(
        &self,
        key: PropertyKeyToken,
        value: &PropertyValue,
        entity: E,
        commit_ts: Timestamp,
    ) {
        self.inner.add((key, value.index_key()), entity, commit_ts);
    }

    /// Records that `entity` lost property `key = value` at `commit_ts`
    /// (value change, property removal or entity deletion).
    pub fn remove(
        &self,
        key: PropertyKeyToken,
        value: &PropertyValue,
        entity: E,
        commit_ts: Timestamp,
    ) {
        self.inner
            .remove(&(key, value.index_key()), entity, commit_ts);
    }

    /// Entities whose property `key` equals `value` in the snapshot defined
    /// by `start_ts`.
    pub fn lookup(
        &self,
        key: PropertyKeyToken,
        value: &PropertyValue,
        start_ts: Timestamp,
    ) -> Vec<E> {
        self.inner.lookup(&(key, value.index_key()), start_ts)
    }

    /// Borrowing variant of [`PropertyIndex::lookup`]: streams every
    /// visible entity through `f` without allocating a `Vec`.
    pub fn lookup_with(
        &self,
        key: PropertyKeyToken,
        value: &PropertyValue,
        start_ts: Timestamp,
        f: impl FnMut(E),
    ) {
        self.inner
            .lookup_with(&(key, value.index_key()), start_ts, f);
    }

    /// Opens a chunked, GC-safe cursor over the entities whose property
    /// `key` equals `value` in the snapshot defined by `start_ts`: the
    /// one-key range over `(key, value)` (see [`RangePostingCursor`]).
    pub fn cursor(
        &self,
        key: PropertyKeyToken,
        value: &PropertyValue,
        start_ts: Timestamp,
        chunk_size: usize,
    ) -> RangePostingCursor<'_, PropertyIndexKey, E> {
        let point = value.index_key();
        self.range_cursor(
            key,
            Bound::Included(&point),
            Bound::Included(&point),
            start_ts,
            chunk_size,
        )
    }

    /// Opens a chunked, GC-safe **range cursor** over the entities whose
    /// property `key` holds a value inside `(lo, hi)` in the snapshot
    /// defined by `start_ts` — the index-side execution of a comparison
    /// predicate (see [`crate::posting::RangePostingCursor`]). Bounds are
    /// type-homogeneous ([`composite_range_bounds`]); an unsatisfiable
    /// pair yields an immediately-exhausted cursor.
    pub fn range_cursor(
        &self,
        key: PropertyKeyToken,
        lo: Bound<&ValueKey>,
        hi: Bound<&ValueKey>,
        start_ts: Timestamp,
        chunk_size: usize,
    ) -> RangePostingCursor<'_, PropertyIndexKey, E> {
        let (lower, upper) = composite_range_bounds(key, lo, hi).unwrap_or((
            // Unsatisfiable: an inverted composite pair the cursor treats
            // as empty without panicking.
            Bound::Included((key, ValueKey::Int(0))),
            Bound::Excluded((key, ValueKey::Int(0))),
        ));
        self.inner.range_cursor(lower, upper, start_ts, chunk_size)
    }

    /// Like [`PropertyIndex::range_cursor`], but walks the value keys in
    /// **descending** sort order — index-streamed `ORDER BY ... DESC`
    /// (see [`VersionedPostingIndex::range_cursor_desc`]).
    pub fn range_cursor_desc(
        &self,
        key: PropertyKeyToken,
        lo: Bound<&ValueKey>,
        hi: Bound<&ValueKey>,
        start_ts: Timestamp,
        chunk_size: usize,
    ) -> RangePostingCursor<'_, PropertyIndexKey, E> {
        let (lower, upper) = composite_range_bounds(key, lo, hi).unwrap_or((
            Bound::Included((key, ValueKey::Int(0))),
            Bound::Excluded((key, ValueKey::Int(0))),
        ));
        self.inner
            .range_cursor_desc(lower, upper, start_ts, chunk_size)
    }

    /// Live postings stored under `key = value` — the planner's
    /// point-cardinality estimate (dead churn excluded, see
    /// [`VersionedPostingIndex::postings_estimate`]).
    pub fn postings_estimate(&self, key: PropertyKeyToken, value: &PropertyValue) -> u64 {
        self.inner.postings_estimate(&(key, value.index_key()))
    }

    /// Live postings stored under property `key` inside the value range
    /// `(lo, hi)`, saturating at `cap` — the planner's range-cardinality
    /// estimate (see
    /// [`VersionedPostingIndex::range_postings_estimate`]).
    pub fn range_postings_estimate(
        &self,
        key: PropertyKeyToken,
        lo: Bound<&ValueKey>,
        hi: Bound<&ValueKey>,
        cap: u64,
    ) -> u64 {
        let Some((lower, upper)) = composite_range_bounds(key, lo, hi) else {
            return 0;
        };
        self.inner.range_postings_estimate(
            crate::posting::bound_as_ref(&lower),
            crate::posting::bound_as_ref(&upper),
            cap,
        )
    }

    /// Returns `true` if `entity` has `key = value` in the given snapshot.
    pub fn contains(
        &self,
        key: PropertyKeyToken,
        value: &PropertyValue,
        entity: E,
        start_ts: Timestamp,
    ) -> bool {
        self.inner
            .contains(&(key, value.index_key()), entity, start_ts)
    }

    /// Reclaims postings that no active or future reader can see.
    pub fn gc(&self, watermark: Timestamp) -> u64 {
        self.inner.gc(watermark)
    }

    /// Index statistics.
    pub fn stats(&self) -> IndexStats {
        self.inner.stats()
    }
}

/// Property index over nodes.
pub type NodePropertyIndex = PropertyIndex<NodeId>;
/// Property index over relationships.
pub type RelationshipPropertyIndex = PropertyIndex<RelationshipId>;

#[cfg(test)]
mod tests {
    use super::*;

    const AGE: PropertyKeyToken = PropertyKeyToken(1);
    const NAME: PropertyKeyToken = PropertyKeyToken(2);

    #[test]
    fn lookup_by_value_and_snapshot() {
        let index = NodePropertyIndex::new();
        index.add(AGE, &PropertyValue::Int(30), NodeId::new(1), Timestamp(10));
        index.add(AGE, &PropertyValue::Int(30), NodeId::new(2), Timestamp(20));
        index.add(AGE, &PropertyValue::Int(40), NodeId::new(3), Timestamp(10));

        assert_eq!(
            index.lookup(AGE, &PropertyValue::Int(30), Timestamp(15)),
            vec![NodeId::new(1)]
        );
        let mut all = index.lookup(AGE, &PropertyValue::Int(30), Timestamp(25));
        all.sort();
        assert_eq!(all, vec![NodeId::new(1), NodeId::new(2)]);
        assert_eq!(
            index.lookup(AGE, &PropertyValue::Int(40), Timestamp(25)),
            vec![NodeId::new(3)]
        );
        assert!(index
            .lookup(AGE, &PropertyValue::Int(99), Timestamp(25))
            .is_empty());
    }

    #[test]
    fn value_update_moves_the_posting() {
        let index = NodePropertyIndex::new();
        let node = NodeId::new(7);
        index.add(AGE, &PropertyValue::Int(30), node, Timestamp(10));
        // At ts 20 the value changes from 30 to 31.
        index.remove(AGE, &PropertyValue::Int(30), node, Timestamp(20));
        index.add(AGE, &PropertyValue::Int(31), node, Timestamp(20));

        assert!(index.contains(AGE, &PropertyValue::Int(30), node, Timestamp(15)));
        assert!(!index.contains(AGE, &PropertyValue::Int(31), node, Timestamp(15)));
        assert!(!index.contains(AGE, &PropertyValue::Int(30), node, Timestamp(20)));
        assert!(index.contains(AGE, &PropertyValue::Int(31), node, Timestamp(20)));
    }

    #[test]
    fn string_and_float_values_are_indexable() {
        let index = NodePropertyIndex::new();
        index.add(
            NAME,
            &PropertyValue::String("ada".into()),
            NodeId::new(1),
            Timestamp(5),
        );
        index.add(
            NAME,
            &PropertyValue::Float(1.5),
            NodeId::new(2),
            Timestamp(5),
        );
        assert_eq!(
            index.lookup(NAME, &PropertyValue::String("ada".into()), Timestamp(10)),
            vec![NodeId::new(1)]
        );
        assert_eq!(
            index.lookup(NAME, &PropertyValue::Float(1.5), Timestamp(10)),
            vec![NodeId::new(2)]
        );
    }

    #[test]
    fn relationship_index_works_the_same_way() {
        let index = RelationshipPropertyIndex::new();
        index.add(
            NAME,
            &PropertyValue::String("follows".into()),
            RelationshipId::new(4),
            Timestamp(8),
        );
        assert_eq!(
            index.lookup(NAME, &PropertyValue::String("follows".into()), Timestamp(9)),
            vec![RelationshipId::new(4)]
        );
        assert!(index
            .lookup(NAME, &PropertyValue::String("follows".into()), Timestamp(7))
            .is_empty());
    }

    fn drain<E: Copy + Eq + Ord>(
        cursor: &mut RangePostingCursor<'_, PropertyIndexKey, E>,
    ) -> Vec<E> {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        while cursor.next_chunk(&mut buf) {
            out.extend_from_slice(&buf);
        }
        out.sort();
        out
    }

    #[test]
    fn range_cursor_selects_value_interval() {
        let index = NodePropertyIndex::new();
        for i in 0..10i64 {
            index.add(
                AGE,
                &PropertyValue::Int(20 + i),
                NodeId::new(i as u64),
                Timestamp(5),
            );
        }
        // Another key the range must never leak into.
        index.add(NAME, &PropertyValue::Int(23), NodeId::new(99), Timestamp(5));

        let lo = PropertyValue::Int(22).index_key();
        let hi = PropertyValue::Int(25).index_key();
        let mut cursor = index.range_cursor(
            AGE,
            Bound::Included(&lo),
            Bound::Included(&hi),
            Timestamp(10),
            2,
        );
        assert_eq!(
            drain(&mut cursor),
            (2..=5).map(NodeId::new).collect::<Vec<_>>()
        );
        // Exclusive upper bound drops age 25.
        let mut cursor = index.range_cursor(
            AGE,
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            Timestamp(10),
            16,
        );
        assert_eq!(
            drain(&mut cursor),
            (2..=4).map(NodeId::new).collect::<Vec<_>>()
        );
    }

    #[test]
    fn half_open_ranges_stay_within_the_bound_type() {
        let index = NodePropertyIndex::new();
        index.add(AGE, &PropertyValue::Int(30), NodeId::new(1), Timestamp(1));
        index.add(AGE, &PropertyValue::Int(50), NodeId::new(2), Timestamp(1));
        index.add(
            AGE,
            &PropertyValue::Bool(true),
            NodeId::new(3),
            Timestamp(1),
        );
        index.add(
            AGE,
            &PropertyValue::Float(40.0),
            NodeId::new(4),
            Timestamp(1),
        );
        index.add(
            AGE,
            &PropertyValue::String("a".into()),
            NodeId::new(5),
            Timestamp(1),
        );

        let lo = PropertyValue::Int(40).index_key();
        // age >= 40: only Int values qualify — not the float 40.0, not the
        // string (type-homogeneous comparison semantics).
        let mut ge = index.range_cursor(
            AGE,
            Bound::Included(&lo),
            Bound::Unbounded,
            Timestamp(10),
            16,
        );
        assert_eq!(drain(&mut ge), vec![NodeId::new(2)]);
        // age <= 40: Ints only again — the Bool below Int's key space is
        // clamped out.
        let mut le = index.range_cursor(
            AGE,
            Bound::Unbounded,
            Bound::Included(&lo),
            Timestamp(10),
            16,
        );
        assert_eq!(drain(&mut le), vec![NodeId::new(1)]);
        // Fully open = "has the property at all", every type.
        let mut any =
            index.range_cursor(AGE, Bound::Unbounded, Bound::Unbounded, Timestamp(10), 16);
        assert_eq!(drain(&mut any).len(), 5);
        // Mixed-type bounds are unsatisfiable, not a panic.
        let s = PropertyValue::String("z".into()).index_key();
        let mut none = index.range_cursor(
            AGE,
            Bound::Included(&lo),
            Bound::Included(&s),
            Timestamp(10),
            16,
        );
        assert_eq!(drain(&mut none), Vec::<NodeId>::new());
        assert_eq!(
            index.range_postings_estimate(AGE, Bound::Included(&lo), Bound::Included(&s), u64::MAX),
            0
        );
        assert_eq!(
            index.range_postings_estimate(AGE, Bound::Included(&lo), Bound::Unbounded, u64::MAX),
            1
        );
        assert_eq!(index.postings_estimate(AGE, &PropertyValue::Int(30)), 1);
    }

    #[test]
    fn float_ranges_order_numerically() {
        let index = NodePropertyIndex::new();
        for (i, x) in [-10.5f64, -1.0, 0.0, 2.5, 100.0].iter().enumerate() {
            index.add(
                AGE,
                &PropertyValue::Float(*x),
                NodeId::new(i as u64),
                Timestamp(1),
            );
        }
        let lo = PropertyValue::Float(-2.0).index_key();
        let hi = PropertyValue::Float(3.0).index_key();
        let mut cursor = index.range_cursor(
            AGE,
            Bound::Included(&lo),
            Bound::Included(&hi),
            Timestamp(10),
            16,
        );
        assert_eq!(
            drain(&mut cursor),
            vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
            "-1.0, 0.0 and 2.5 fall in [-2.0, 3.0]; negatives sort correctly"
        );
    }

    #[test]
    fn range_respects_snapshots_and_value_moves() {
        let index = NodePropertyIndex::new();
        let node = NodeId::new(1);
        index.add(AGE, &PropertyValue::Int(10), node, Timestamp(10));
        // Value moves 10 -> 20 at ts 20; both values inside the range.
        index.remove(AGE, &PropertyValue::Int(10), node, Timestamp(20));
        index.add(AGE, &PropertyValue::Int(20), node, Timestamp(20));

        let lo = PropertyValue::Int(0).index_key();
        let hi = PropertyValue::Int(100).index_key();
        for ts in [15u64, 25] {
            let mut cursor = index.range_cursor(
                AGE,
                Bound::Included(&lo),
                Bound::Included(&hi),
                Timestamp(ts),
                16,
            );
            assert_eq!(
                drain(&mut cursor),
                vec![node],
                "at ts {ts} exactly one visible value lies in range — the \
                 entity is yielded once, never twice"
            );
        }
    }

    #[test]
    fn gc_reclaims_replaced_values() {
        let index = NodePropertyIndex::new();
        let node = NodeId::new(1);
        for (i, v) in (0..10).enumerate() {
            let ts = Timestamp((i as u64) * 10 + 10);
            if i > 0 {
                index.remove(AGE, &PropertyValue::Int(v - 1), node, ts);
            }
            index.add(AGE, &PropertyValue::Int(v), node, ts);
        }
        let before = index.stats();
        assert_eq!(before.postings, 10);
        let reclaimed = index.gc(Timestamp(1000));
        assert_eq!(reclaimed, 9);
        assert_eq!(index.stats().postings, 1);
        assert!(index.contains(AGE, &PropertyValue::Int(9), node, Timestamp(1000)));
    }
}
