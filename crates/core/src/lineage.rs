//! Query lineage — which input segments caused each output segment.
//!
//! §IV-B: joins and aggregates have no unique inverse from outputs alone,
//! but "we may invert these operators given both the outputs and the inputs
//! that caused them". Properties 1 (temporal sub-ranges) and 2 (keys
//! functionally determine models) guarantee each output segment has a
//! unique causing set; this store records it, plus a snapshot of every
//! segment, so bound inversion can walk from query outputs back to source
//! segments.
//!
//! The paper notes lineage is cheap "due to a segment's compactness", and
//! the layout keeps it so. Each id maps to one fixed-size, `Copy` `Entry`
//! (64 bytes): span, key, a snapshot flag, and offset/count pairs into
//! three arenas shared by every entry — model coefficients, each model's
//! end offset within its entry's coefficients, and parent ids. Writing a
//! snapshot or a parent list appends to the arenas, so `register`,
//! `record` and `emit` allocate only when an arena grows. [`gc_before`]
//! drops entries in one `retain` (nothing to free per entry), then copies
//! the survivors' arena ranges into fresh arenas, which is O(live) work and
//! three frees however much was dropped. Reads borrow a [`SegmentView`]
//! over the arenas.
//!
//! [`gc_before`]: LineageStore::gc_before

use parking_lot::Mutex;
use pulse_math::{Poly, Span};
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

/// Borrowed read view of a segment: id, key, span and each model's
/// ascending coefficients. Bound inversion reads stored snapshots through
/// it; [`SegmentView::of`] views a live [`Segment`] the same way.
#[derive(Debug, Clone, Copy)]
pub struct SegmentView<'a> {
    pub id: SegmentId,
    pub key: u64,
    pub span: Span,
    models: Models<'a>,
}

#[derive(Debug, Clone, Copy)]
enum Models<'a> {
    /// A live segment's polynomials.
    Polys(&'a [Poly]),
    /// A stored snapshot: every model's coefficients back to back, and
    /// each model's end offset within them.
    Flat { coeffs: &'a [f64], ends: &'a [u32] },
}

impl<'a> SegmentView<'a> {
    /// Views a live segment.
    pub fn of(seg: &'a Segment) -> Self {
        SegmentView { id: seg.id, key: seg.key, span: seg.span, models: Models::Polys(&seg.models) }
    }

    /// Number of modeled attributes.
    pub fn model_count(&self) -> usize {
        match self.models {
            Models::Polys(ps) => ps.len(),
            Models::Flat { ends, .. } => ends.len(),
        }
    }

    /// Ascending coefficients of the model in `slot` (empty for the zero
    /// polynomial), as [`Poly::coeffs`] gives them.
    pub fn model(&self, slot: usize) -> &'a [f64] {
        match self.models {
            Models::Polys(ps) => ps[slot].coeffs(),
            Models::Flat { coeffs, ends } => {
                let lo = if slot == 0 { 0 } else { ends[slot - 1] as usize };
                &coeffs[lo..ends[slot] as usize]
            }
        }
    }

    /// Every model's coefficients, in slot order.
    pub fn models(&self) -> impl Iterator<Item = &'a [f64]> + 'a {
        let view = *self;
        (0..view.model_count()).map(move |slot| view.model(slot))
    }

    /// Σ|m′(t)| over the models: the gradient split's weight. Bit-identical
    /// to summing `m.derivative().eval(t).abs()` over the segment's models.
    pub fn rate_at(&self, t: f64) -> f64 {
        self.models().map(|c| Poly::derivative_at(c, t).abs()).sum::<f64>()
    }
}

impl PartialEq for SegmentView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.key == other.key
            && self.span == other.span
            && self.models().eq(other.models())
    }
}

/// One id's lineage: its snapshot (when registered) and its parents
/// (when recorded), as ranges of the store's arenas.
#[derive(Debug, Clone, Copy)]
struct Entry {
    span: Span,
    key: u64,
    /// Start of the snapshot's coefficients in `Arenas::coeffs`.
    coeffs: usize,
    /// Start of the snapshot's model end offsets in `Arenas::model_ends`.
    ends: usize,
    /// Start of the parent ids in `Arenas::parents`.
    parents: usize,
    models: u32,
    parent_count: u32,
    snapshot: bool,
}

const _: () = assert!(std::mem::size_of::<Entry>() <= 64);

impl Entry {
    const EMPTY: Entry = Entry {
        span: Span { lo: 0.0, hi: 0.0 },
        key: 0,
        coeffs: 0,
        ends: 0,
        parents: 0,
        models: 0,
        parent_count: 0,
        snapshot: false,
    };

    fn ends_range(&self) -> std::ops::Range<usize> {
        self.ends..self.ends + self.models as usize
    }

    fn parents_range(&self) -> std::ops::Range<usize> {
        self.parents..self.parents + self.parent_count as usize
    }
}

/// A length that an entry stores as `u32`; lineage fan-in and model
/// counts are tiny, so overflow means a corrupted caller, never data.
fn small(n: usize) -> u32 {
    u32::try_from(n).expect("lineage count exceeds u32")
}

/// Storage behind the entries' offset/count pairs.
#[derive(Debug, Default)]
struct Arenas {
    coeffs: Vec<f64>,
    /// Per model: end of its coefficients, relative to its entry's start.
    model_ends: Vec<u32>,
    parents: Vec<SegmentId>,
}

impl Arenas {
    fn snapshot(&mut self, e: &mut Entry, seg: &Segment) {
        e.span = seg.span;
        e.key = seg.key;
        e.coeffs = self.coeffs.len();
        e.ends = self.model_ends.len();
        e.models = small(seg.models.len());
        for m in &seg.models {
            self.coeffs.extend_from_slice(m.coeffs());
            self.model_ends.push(small(self.coeffs.len() - e.coeffs));
        }
        e.snapshot = true;
    }

    fn set_parents(&mut self, e: &mut Entry, parents: &[SegmentId]) {
        e.parents = self.parents.len();
        e.parent_count = small(parents.len());
        self.parents.extend_from_slice(parents);
    }

    fn coeff_count(&self, e: &Entry) -> usize {
        self.model_ends[e.ends_range()].last().map_or(0, |&end| end as usize)
    }

    /// Appends `e`'s ranges of `from` to `self` and points `e` at the copies.
    fn copy_entry(&mut self, from: &Arenas, e: &mut Entry) {
        let n = from.coeff_count(e);
        let coeffs = self.coeffs.len();
        self.coeffs.extend_from_slice(&from.coeffs[e.coeffs..e.coeffs + n]);
        e.coeffs = coeffs;
        let ends = self.model_ends.len();
        self.model_ends.extend_from_slice(&from.model_ends[e.ends_range()]);
        e.ends = ends;
        let parents = self.parents.len();
        self.parents.extend_from_slice(&from.parents[e.parents_range()]);
        e.parents = parents;
    }
}

/// The lineage graph plus segment snapshots.
#[derive(Debug, Default)]
pub struct LineageStore {
    entries: IdMap<Entry>,
    arenas: Arenas,
    /// Entries holding a snapshot.
    snapshots: usize,
}

impl LineageStore {
    /// Snapshots a segment (inputs and outputs alike). A segment is never
    /// changed under its id, so one that several operators consume keeps
    /// the snapshot its first registration took.
    pub fn register(&mut self, seg: &Segment) {
        let e = self.entries.entry(seg.id).or_insert(Entry::EMPTY);
        if !e.snapshot {
            self.arenas.snapshot(e, seg);
            self.snapshots += 1;
        }
    }

    /// Records that `out` was caused by `parents`, replacing any parents
    /// recorded for it before.
    pub fn record(&mut self, out: SegmentId, parents: &[SegmentId]) {
        let e = self.entries.entry(out).or_insert(Entry::EMPTY);
        self.arenas.set_parents(e, parents);
    }

    /// Snapshot an output and record its parents, in one table probe.
    pub fn emit(&mut self, out: &Segment, parents: &[SegmentId]) {
        let e = self.entries.entry(out.id).or_insert(Entry::EMPTY);
        if !e.snapshot {
            self.arenas.snapshot(e, out);
            self.snapshots += 1;
        }
        self.arenas.set_parents(e, parents);
    }

    /// Direct parents of a segment (empty for sources).
    pub fn parents_of(&self, id: SegmentId) -> &[SegmentId] {
        self.entries.get(&id).map_or(&[], |e| &self.arenas.parents[e.parents_range()])
    }

    /// Snapshot lookup.
    pub fn segment(&self, id: SegmentId) -> Option<SegmentView<'_>> {
        let e = self.entries.get(&id).filter(|e| e.snapshot)?;
        let a = &self.arenas;
        Some(SegmentView {
            id,
            key: e.key,
            span: e.span,
            models: Models::Flat {
                coeffs: &a.coeffs[e.coeffs..e.coeffs + a.coeff_count(e)],
                ends: &a.model_ends[e.ends_range()],
            },
        })
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

    /// Drops lineage for segments entirely before `t` (state bounding):
    /// every entry whose snapshot ends before `t`, and every entry recorded
    /// without a snapshot. `t = +∞` drops everything; a NaN `t` drops
    /// nothing. The survivors' arena ranges are then copied into fresh
    /// arenas, which frees the dropped entries' coefficients and parents.
    pub fn gc_before(&mut self, t: f64) {
        if t.is_nan() {
            return;
        }
        let (mut coeffs, mut ends, mut parents) = (0, 0, 0);
        let arenas = &self.arenas;
        self.entries.retain(|_, e| {
            let keep = e.snapshot && e.span.hi >= t;
            if keep {
                coeffs += arenas.coeff_count(e);
                ends += e.models as usize;
                parents += e.parent_count as usize;
            }
            keep
        });
        self.snapshots = self.entries.len();
        let mut live = Arenas {
            coeffs: Vec::with_capacity(coeffs),
            model_ends: Vec::with_capacity(ends),
            parents: Vec::with_capacity(parents),
        };
        for e in self.entries.values_mut() {
            live.copy_entry(&self.arenas, e);
        }
        self.arenas = live;
    }

    /// Number of snapshots held (for memory accounting in experiments).
    pub fn len(&self) -> usize {
        self.snapshots
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.snapshots == 0
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
        assert_eq!(store.segment(out.id), Some(SegmentView::of(&out)));
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
    fn gc_with_nan_cutoff_keeps_everything_and_infinity_drops_all() {
        let mut store = LineageStore::default();
        let (a, b) = (seg(0.0, 1.0), seg(5.0, 6.0));
        store.register(&a);
        store.emit(&b, &[a.id]);
        store.gc_before(f64::NAN);
        assert_eq!(store.len(), 2);
        assert_eq!(store.parents_of(b.id), &[a.id]);
        assert_eq!(store.segment(a.id), Some(SegmentView::of(&a)));
        store.gc_before(f64::INFINITY);
        assert!(store.is_empty());
        assert!(store.segment(b.id).is_none());
        assert!(store.parents_of(b.id).is_empty());
    }

    fn assert_bit_equal(view: SegmentView<'_>, seg: &Segment) {
        assert_eq!((view.id, view.key, view.span), (seg.id, seg.key, seg.span));
        assert_eq!(view.model_count(), seg.models.len());
        for (got, m) in view.models().zip(&seg.models) {
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(m.coeffs()));
        }
    }

    #[test]
    fn multi_model_snapshot_with_a_zero_model_reads_back_bit_equal() {
        let mut store = LineageStore::default();
        let models = vec![
            Poly::new(vec![1.5, -0.1, 3e-7]),
            Poly::zero(),
            Poly::constant(-0.0),
            Poly::new(vec![f64::MIN_POSITIVE, 2.0]),
        ];
        let s = Segment::new(42, Span::new(-1.0, 3.5), models, vec![9.0]);
        store.register(&seg(0.0, 1.0));
        store.register(&s);
        let view = store.segment(s.id).expect("registered");
        assert_bit_equal(view, &s);
        assert_eq!(view.model(1), &[] as &[f64]);
        assert_eq!(view, SegmentView::of(&s));
    }

    #[test]
    fn record_before_register_then_record_again_replaces_parents() {
        let mut store = LineageStore::default();
        let (p1, p2, p3) = (seg(0.0, 1.0), seg(0.0, 1.0), seg(0.0, 1.0));
        let out = seg(0.0, 1.0);
        store.record(out.id, &[p1.id, p2.id]);
        assert!(store.segment(out.id).is_none());
        store.register(&out);
        assert_eq!(store.segment(out.id), Some(SegmentView::of(&out)));
        assert_eq!(store.parents_of(out.id), &[p1.id, p2.id]);
        store.record(out.id, &[p3.id]);
        assert_eq!(store.parents_of(out.id), &[p3.id]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn len_ignores_parent_only_entries() {
        let mut store = LineageStore::default();
        let (src, a, b) = (seg(0.0, 1.0), seg(0.0, 1.0), seg(0.0, 1.0));
        store.register(&src);
        store.record(a.id, &[src.id]);
        store.record(b.id, &[src.id]);
        assert_eq!(store.len(), 1);
        store.register(&a);
        assert_eq!(store.len(), 2);
    }

    /// Survivors read back exactly as the reference after several GC
    /// compactions with inserts in between.
    #[test]
    fn survivors_match_reference_after_repeated_compaction() {
        let mut store = LineageStore::default();
        let mut reference: Vec<(Segment, Vec<SegmentId>)> = Vec::new();
        let mut orphans: Vec<SegmentId> = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..4 {
            for i in 0..200 {
                let lo = f64::from(round * 100 + i / 2);
                let models = (0..1 + next() % 3)
                    .map(|_| {
                        let deg = (next() % 4) as usize;
                        Poly::new((0..deg).map(|_| (next() % 1000) as f64 / 7.0 - 70.0).collect())
                    })
                    .collect();
                let s = Segment::new(next() % 5, Span::new(lo, lo + 30.0), models, vec![]);
                let parents: Vec<SegmentId> = if reference.is_empty() {
                    vec![]
                } else {
                    (0..next() % 4)
                        .map(|_| reference[(next() as usize) % reference.len()].0.id)
                        .collect()
                };
                store.emit(&s, &parents);
                if i % 10 == 0 {
                    let orphan = SegmentId::fresh();
                    store.record(orphan, &[s.id]);
                    orphans.push(orphan);
                }
                reference.push((s, parents));
            }
            let cut = f64::from(round * 100 + 50);
            store.gc_before(cut);
            reference.retain(|(s, _)| s.span.hi >= cut);
            assert!(orphans.iter().all(|&o| store.parents_of(o).is_empty()));
        }
        assert_eq!(store.len(), reference.len());
        let live: std::collections::HashMap<SegmentId, &Vec<SegmentId>> =
            reference.iter().map(|(s, ps)| (s.id, ps)).collect();
        let ref_sources = |id: SegmentId| {
            let mut out = std::collections::BTreeSet::new();
            let mut stack = vec![id];
            while let Some(cur) = stack.pop() {
                match live.get(&cur) {
                    Some(ps) if !ps.is_empty() => stack.extend(ps.iter()),
                    _ => {
                        out.insert(cur);
                    }
                }
            }
            out.into_iter().collect::<Vec<_>>()
        };
        for (s, parents) in &reference {
            assert_bit_equal(store.segment(s.id).expect("survivor"), s);
            assert_eq!(store.parents_of(s.id), parents.as_slice());
            assert_eq!(store.sources_of(s.id), ref_sources(s.id));
        }
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
