//! Query lineage — which input segments caused each output segment.
//!
//! §IV-B: joins and aggregates have no unique inverse from outputs alone,
//! but "we may invert these operators given both the outputs and the inputs
//! that caused them". Properties 1 (temporal sub-ranges) and 2 (keys
//! functionally determine models) guarantee each output segment has a
//! unique causing set; this store records it, plus a snapshot of every
//! segment, so bound inversion can walk from query outputs back to source
//! segments. The paper notes lineage is cheap "due to a segment's
//! compactness" — snapshots here are a span plus a few coefficients.

use parking_lot::Mutex;
use pulse_model::{Segment, SegmentId};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Hasher for [`SegmentId`] keys: one multiply by the 64-bit golden ratio.
/// Ids come from a process-wide counter and are never read from input, so
/// nobody can craft colliding keys and SipHash's flooding resistance buys
/// nothing here. Odd-constant multiplication is a bijection, so sequential
/// ids spread over the low bits (bucket index) and mix into the high bits
/// (the table's tag byte).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// Map keyed by [`SegmentId`] under [`IdHasher`].
pub(crate) type IdMap<V> = HashMap<SegmentId, V, BuildHasherDefault<IdHasher>>;

/// Set of [`SegmentId`]s under [`IdHasher`].
pub(crate) type IdSet = HashSet<SegmentId, BuildHasherDefault<IdHasher>>;

/// Shared handle operators use to record lineage.
pub type SharedLineage = Arc<Mutex<LineageStore>>;

/// Creates a fresh shared store.
pub fn shared() -> SharedLineage {
    Arc::new(Mutex::new(LineageStore::default()))
}

/// The lineage graph plus segment snapshots.
#[derive(Debug, Default)]
pub struct LineageStore {
    parents: IdMap<Vec<SegmentId>>,
    snapshots: IdMap<Segment>,
}

impl LineageStore {
    /// Snapshots a segment (inputs and outputs alike). A segment is never
    /// changed under its id, so one that several operators consume keeps
    /// the snapshot its first registration took.
    pub fn register(&mut self, seg: &Segment) {
        self.snapshots.entry(seg.id).or_insert_with(|| seg.clone());
    }

    /// Records that `out` was caused by `parents`.
    pub fn record(&mut self, out: SegmentId, parents: &[SegmentId]) {
        self.parents.insert(out, parents.to_vec());
    }

    /// Convenience: snapshot an output and record its parents.
    pub fn emit(&mut self, out: &Segment, parents: &[SegmentId]) {
        self.register(out);
        self.record(out.id, parents);
    }

    /// Direct parents of a segment (empty for sources).
    pub fn parents_of(&self, id: SegmentId) -> &[SegmentId] {
        self.parents.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Snapshot lookup.
    pub fn segment(&self, id: SegmentId) -> Option<&Segment> {
        self.snapshots.get(&id)
    }

    /// Transitive closure down to source segments (those with no recorded
    /// parents), deduplicated. Each node is expanded once — diamond-shaped
    /// lineage (shared ancestors along several paths) stays linear instead
    /// of re-walking the shared subgraph per path.
    pub fn sources_of(&self, id: SegmentId) -> Vec<SegmentId> {
        let mut visited = IdSet::default();
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur) {
                continue;
            }
            let ps = self.parents_of(cur);
            if ps.is_empty() {
                out.push(cur);
            } else {
                stack.extend_from_slice(ps);
            }
        }
        out.sort();
        out
    }

    /// Drops lineage for segments entirely before `t` (state bounding).
    /// Parent entries go with their segment's snapshot; an entry whose
    /// segment was never snapshotted goes too.
    pub fn gc_before(&mut self, t: f64) {
        self.snapshots.retain(|_, s| s.span.hi >= t);
        let snapshots = &self.snapshots;
        self.parents.retain(|id, _| snapshots.contains_key(id));
    }

    /// Number of snapshots held (for memory accounting in experiments).
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::{Poly, Span};

    fn seg(lo: f64, hi: f64) -> Segment {
        Segment::single(1, Span::new(lo, hi), Poly::zero())
    }

    #[test]
    fn record_and_walk() {
        let mut store = LineageStore::default();
        let (a, b) = (seg(0.0, 1.0), seg(0.0, 1.0));
        let mid = seg(0.2, 0.8);
        let out = seg(0.3, 0.6);
        for s in [&a, &b, &mid, &out] {
            store.register(s);
        }
        store.record(mid.id, &[a.id, b.id]);
        store.record(out.id, &[mid.id]);
        assert_eq!(store.parents_of(out.id), &[mid.id]);
        assert_eq!(store.sources_of(out.id), {
            let mut v = vec![a.id, b.id];
            v.sort();
            v
        });
        // A source is its own source-set.
        assert_eq!(store.sources_of(a.id), vec![a.id]);
    }

    #[test]
    fn gc_drops_expired() {
        let mut store = LineageStore::default();
        let old = seg(0.0, 1.0);
        let new = seg(5.0, 6.0);
        store.register(&old);
        store.register(&new);
        store.record(new.id, &[old.id]);
        store.gc_before(2.0);
        assert!(store.segment(old.id).is_none());
        assert!(store.segment(new.id).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn reregistering_keeps_one_snapshot_and_its_parents() {
        let mut store = LineageStore::default();
        let src = seg(0.0, 1.0);
        let out = seg(0.0, 1.0);
        store.emit(&out, &[src.id]);
        store.register(&out);
        assert_eq!(store.len(), 1);
        assert_eq!(store.parents_of(out.id), &[src.id]);
        assert_eq!(store.segment(out.id), Some(&out));
    }

    #[test]
    fn gc_keeps_a_segment_ending_exactly_at_the_cutoff() {
        let mut store = LineageStore::default();
        let at = seg(0.0, 2.0);
        let before = seg(0.0, 2.0 - 1e-9);
        store.register(&at);
        store.register(&before);
        store.gc_before(2.0);
        assert!(store.segment(at.id).is_some());
        assert!(store.segment(before.id).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn gc_drops_parents_recorded_without_a_snapshot() {
        let mut store = LineageStore::default();
        let src = seg(5.0, 6.0);
        let orphan = seg(5.0, 6.0);
        store.register(&src);
        store.record(orphan.id, &[src.id]);
        assert_eq!(store.parents_of(orphan.id), &[src.id]);
        store.gc_before(0.0);
        assert!(store.parents_of(orphan.id).is_empty());
        assert!(store.segment(src.id).is_some());
    }

    #[test]
    fn id_hasher_spreads_sequential_ids() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IdHasher>::default();
        // Sequential ids land in distinct low-bit buckets of a 1024-slot table.
        let buckets: std::collections::HashSet<u64> =
            (1..=1024u64).map(|n| build.hash_one(SegmentId(n)) & 1023).collect();
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn shared_handle_is_cloneable() {
        let s = shared();
        let s2 = s.clone();
        s.lock().register(&seg(0.0, 1.0));
        assert_eq!(s2.lock().len(), 1);
    }
}
