//! Continuous sliding-window join.
//!
//! §III-A: "For a join, we use equi-join semantics along the time
//! dimension: we execute the linear system for each segment held in state
//! that overlaps with [t0, t1)". Each side keeps an order-based segment
//! buffer (Fig. 3); an arriving segment is paired with every temporally
//! overlapping opposite segment, one equation system per pair, solved over
//! the pair's common time range.

use super::{meaningful_spans, COperator};
use crate::binding::Binding;
use crate::eqsys::{SolveScratch, SystemTemplate};
use crate::index::SegmentIndex;
use crate::lineage::SharedLineage;
use pulse_model::{Pred, Segment};
use pulse_obs::{prof, Phase, TraceKind, Tracer};
use pulse_stream::{KeyJoin, OpMetrics};
use std::any::Any;
use std::collections::HashMap;

/// How the join buffers its per-side segment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinState {
    /// Linear scan of the whole buffer per arrival (the baseline the paper
    /// prototype used).
    Scan,
    /// Interval-indexed state (§VII future work): `O(log n + k)` overlap
    /// lookup — pays off on highly segmented inputs. For `KeyJoin::Eq`
    /// joins this upgrades further to one interval index per key, so the
    /// candidate walk never touches other keys' segments.
    #[default]
    Indexed,
}

/// One interval index per join key — the `KeyJoin::Eq` state layout. The
/// key-blind global index made every violation scan candidates across all
/// keys only to discard them against the key predicate; here the probe
/// only ever sees its own key's segments. Within a key, segments keep the
/// same start-order the global index would have produced, so candidate
/// iteration order (and therefore output order) is unchanged.
///
/// An arrival expires only its own key's buffer; keys that stop arriving
/// keep theirs until [`COperator::gc_before`] sweeps every key.
#[derive(Default)]
struct KeyedIndex {
    map: HashMap<u64, SegmentIndex>,
}

impl KeyedIndex {
    fn expire(&mut self, key: u64, t: f64) {
        if let Some(idx) = self.map.get_mut(&key) {
            idx.expire_before(t);
            if idx.is_empty() {
                self.map.remove(&key);
            }
        }
    }

    fn sweep(&mut self, t: f64) {
        self.map.retain(|_, idx| {
            idx.expire_before(t);
            !idx.is_empty()
        });
    }
}

enum SideState {
    Scan(Vec<Segment>),
    Indexed(SegmentIndex),
    Keyed(KeyedIndex),
}

impl SideState {
    fn new(kind: JoinState, on_keys: KeyJoin) -> Self {
        match kind {
            JoinState::Scan => SideState::Scan(Vec::new()),
            JoinState::Indexed if on_keys == KeyJoin::Eq => SideState::Keyed(KeyedIndex::default()),
            JoinState::Indexed => SideState::Indexed(SegmentIndex::new()),
        }
    }

    fn expire(&mut self, key: u64, t: f64) {
        match self {
            SideState::Scan(v) => v.retain(|s| s.span.hi > t),
            SideState::Indexed(idx) => idx.expire_before(t),
            SideState::Keyed(k) => k.expire(key, t),
        }
    }

    /// Expires every key's segments ending at or before `t`. The unkeyed
    /// layouts expire whole on every arrival, so only the keyed one can
    /// hold anything a sweep up to the latest arrival's expiry would drop.
    fn sweep(&mut self, t: f64) {
        if let SideState::Keyed(k) = self {
            k.sweep(t);
        }
    }

    fn push(&mut self, seg: Segment) {
        match self {
            SideState::Scan(v) => v.push(seg),
            SideState::Indexed(idx) => idx.insert(seg),
            SideState::Keyed(k) => k.map.entry(seg.key).or_default().insert(seg),
        }
    }

    /// Segments overlapping `span` (the Scan variant reproduces the naive
    /// full-buffer walk, including the comparisons against non-overlapping
    /// state that the index avoids; the Keyed variant additionally skips
    /// every other key's segments).
    fn candidates(&self, key: u64, span: pulse_math::Span, scanned: &mut u64) -> Vec<&Segment> {
        match self {
            SideState::Scan(v) => {
                *scanned += v.len() as u64;
                v.iter().filter(|s| s.span.overlaps(&span)).collect()
            }
            SideState::Indexed(idx) => {
                let hits = idx.overlapping(span);
                *scanned += hits.len() as u64;
                hits
            }
            SideState::Keyed(k) => {
                let hits = k.map.get(&key).map(|idx| idx.overlapping(span)).unwrap_or_default();
                *scanned += hits.len() as u64;
                hits
            }
        }
    }
}

/// Continuous join operator.
pub struct CJoin {
    window: f64,
    /// Per-pair equation system compiled once from the normalized join
    /// predicate; each candidate pair substitutes its models into it.
    template: SystemTemplate,
    on_keys: KeyJoin,
    bindings: [Binding; 2],
    left: SideState,
    right: SideState,
    /// `now − window` of the latest arrival: the expiry time every
    /// per-arrival expire has used so far. [`COperator::gc_before`] never
    /// sweeps past it.
    expired_to: f64,
    lineage: SharedLineage,
    dep_count: usize,
    slack: Option<f64>,
    /// Solver scratch shared by every candidate pair of every arrival.
    scratch: SolveScratch,
    m: OpMetrics,
}

impl CJoin {
    pub fn new(
        window: f64,
        pred: Pred,
        on_keys: KeyJoin,
        bindings: [Binding; 2],
        lineage: SharedLineage,
    ) -> Self {
        Self::with_state(window, pred, on_keys, bindings, lineage, JoinState::default())
    }

    /// Chooses the state layout explicitly (the ablation harness compares
    /// Scan vs Indexed).
    pub fn with_state(
        window: f64,
        pred: Pred,
        on_keys: KeyJoin,
        bindings: [Binding; 2],
        lineage: SharedLineage,
        state: JoinState,
    ) -> Self {
        let pred = pred.normalize();
        let dep_count = pred.referenced_attrs().len().max(1);
        let template = SystemTemplate::compile(&pred);
        CJoin {
            window,
            template,
            on_keys,
            bindings,
            left: SideState::new(state, on_keys),
            right: SideState::new(state, on_keys),
            expired_to: f64::NEG_INFINITY,
            lineage,
            dep_count,
            slack: None,
            scratch: SolveScratch::default(),
            m: OpMetrics::default(),
        }
    }
}

impl COperator for CJoin {
    fn name(&self) -> &'static str {
        "join"
    }

    fn process_traced(
        &mut self,
        input: usize,
        seg: &Segment,
        tr: &mut Tracer,
        out: &mut Vec<Segment>,
    ) {
        self.m.items_in += 1;
        self.lineage.lock().register(seg);
        let now = seg.span.lo;
        self.expired_to = now - self.window;
        self.left.expire(seg.key, self.expired_to);
        self.right.expire(seg.key, self.expired_to);
        let from_left = input == 0;
        let opposite = if from_left { &self.right } else { &self.left };

        let mut any_overlap = false;
        let mut worst_slack: Option<f64> = None;
        let mut scanned = 0;
        let mut trace_rows = 0u64;
        let mut trace_outputs = 0u32;
        for opp in opposite.candidates(seg.key, seg.span, &mut scanned) {
            let (l, r) = if from_left { (seg, opp) } else { (opp, seg) };
            if !self.on_keys.test(l.key, r.key) {
                continue;
            }
            let Some(overlap) = l.span.intersect(&r.span) else { continue };
            any_overlap = true;
            let lb = &self.bindings[0];
            let rb = &self.bindings[1];
            let t0 = prof::start();
            let sys = match self.template.substitute_into(|inp, attr, slot| {
                if inp == 0 {
                    lb.poly_into(l, attr, slot)
                } else {
                    rb.poly_into(r, attr, slot)
                }
            }) {
                Ok(sys) => sys,
                Err(_) => continue,
            };
            tr.prof(t0, Phase::TemplateSubstitute);
            let t0 = prof::start();
            let nested0 = t0.map(|_| Phase::solve_nested_ns(tr.phases()));
            let mut rows = 0;
            let sol = sys.solve_with(overlap, &mut rows, &mut self.scratch, tr);
            if let (Some(t0), Some(n0)) = (t0, nested0) {
                let nested = Phase::solve_nested_ns(tr.phases()).saturating_sub(n0);
                let total = t0.elapsed().as_nanos() as u64;
                tr.phases_mut().record(Phase::RootIsolate, total.saturating_sub(nested));
            }
            self.m.systems_solved += 1;
            self.m.comparisons += rows;
            trace_rows += rows;
            if sol.is_empty() {
                let s = sys.slack_with(overlap, &mut self.scratch);
                worst_slack = Some(worst_slack.map_or(s, |w: f64| w.min(s)));
                continue;
            }
            let mut models = l.models.clone();
            models.extend_from_slice(&r.models);
            let mut unmodeled = l.unmodeled.clone();
            unmodeled.extend_from_slice(&r.unmodeled);
            let key = self.on_keys.output_key(l.key, r.key);
            let mut lineage = self.lineage.lock();
            for span in meaningful_spans(&sol) {
                let joined = Segment::new(key, span, models.clone(), unmodeled.clone());
                lineage.emit(&joined, &[l.id, r.id]);
                self.m.items_out += 1;
                trace_outputs += 1;
                out.push(joined);
            }
        }
        self.m.comparisons += scanned;
        if tr.on() && any_overlap {
            let kind = TraceKind::OpSolve { op: "join", rows: trace_rows, outputs: trace_outputs };
            tr.emit_scoped(seg.key, now, kind);
        }
        self.slack = if any_overlap { worst_slack } else { None };
        if from_left {
            self.left.push(seg.clone());
        } else {
            self.right.push(seg.clone());
        }
    }

    fn metrics(&self) -> OpMetrics {
        self.m
    }

    /// Sweeps every key's buffers, clamped to the latest arrival's expiry
    /// time: a segment ending at or before `now − window` can never overlap
    /// a probe starting at or after `now`, so the sweep drops only what
    /// each key's next arrival would expire anyway and join results do
    /// not depend on when, or with what `t`, the caller collects.
    fn gc_before(&mut self, t: f64) {
        let t = t.min(self.expired_to);
        self.left.sweep(t);
        self.right.sweep(t);
    }

    fn dep_count(&self) -> usize {
        self.dep_count
    }

    fn last_slack(&self) -> Option<f64> {
        self.slack
    }

    fn reset_slack(&mut self) {
        self.slack = None;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage;
    use pulse_math::{CmpOp, Poly, Span};
    use pulse_model::{AttrKind, Expr, Schema};

    fn schema() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled)])
    }

    fn bindings() -> [Binding; 2] {
        [Binding::new(schema()), Binding::new(schema())]
    }

    fn seg(key: u64, lo: f64, hi: f64, icpt: f64, slope: f64) -> Segment {
        Segment::single(key, Span::new(lo, hi), Poly::linear(icpt, slope))
    }

    fn lt_pred() -> Pred {
        Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0))
    }

    #[test]
    fn crossing_models_join_on_subrange() {
        let mut j = CJoin::new(100.0, lt_pred(), KeyJoin::Any, bindings(), lineage::shared());
        let mut out = Vec::new();
        // Left: x = t on [0, 10); Right: y = 5 on [0, 10). x < y ⇔ t < 5.
        j.process(0, &seg(1, 0.0, 10.0, 0.0, 1.0), &mut out);
        assert!(out.is_empty(), "nothing buffered on the other side yet");
        j.process(1, &seg(2, 0.0, 10.0, 5.0, 0.0), &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].span.hi - 5.0).abs() < 1e-8);
        // Joined segment carries both models.
        assert_eq!(out[0].models.len(), 2);
        assert_eq!(out[0].key, (1 << 32) | 2);
    }

    #[test]
    fn equality_join_yields_point() {
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::attr_of(1, 0));
        let mut j = CJoin::new(100.0, pred, KeyJoin::Any, bindings(), lineage::shared());
        let mut out = Vec::new();
        j.process(0, &seg(1, 0.0, 10.0, 0.0, 1.0), &mut out); // x = t
        j.process(1, &seg(2, 0.0, 10.0, 8.0, -1.0), &mut out); // y = 8 − t; equal at t=4
        assert_eq!(out.len(), 1);
        assert!(out[0].span.is_point());
        assert!((out[0].span.lo - 4.0).abs() < 1e-8);
    }

    #[test]
    fn solutions_clipped_to_overlap() {
        let mut j = CJoin::new(100.0, lt_pred(), KeyJoin::Any, bindings(), lineage::shared());
        let mut out = Vec::new();
        // Left valid [0, 4); right valid [2, 10): overlap [2, 4). x<y always.
        j.process(0, &seg(1, 0.0, 4.0, 0.0, 0.0), &mut out);
        j.process(1, &seg(2, 2.0, 10.0, 1.0, 0.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].span, Span::new(2.0, 4.0));
    }

    #[test]
    fn key_ne_excludes_same_key() {
        let mut j = CJoin::new(100.0, Pred::True, KeyJoin::Ne, bindings(), lineage::shared());
        let mut out = Vec::new();
        j.process(0, &seg(7, 0.0, 10.0, 0.0, 0.0), &mut out);
        j.process(1, &seg(7, 0.0, 10.0, 1.0, 0.0), &mut out);
        assert!(out.is_empty(), "same key must not self-join under Ne");
        j.process(1, &seg(8, 0.0, 10.0, 1.0, 0.0), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn key_eq_joins_matching_keys_only() {
        let mut j = CJoin::new(100.0, Pred::True, KeyJoin::Eq, bindings(), lineage::shared());
        let mut out = Vec::new();
        j.process(0, &seg(5, 0.0, 10.0, 0.0, 0.0), &mut out);
        j.process(1, &seg(6, 0.0, 10.0, 0.0, 0.0), &mut out);
        assert!(out.is_empty());
        j.process(1, &seg(5, 0.0, 10.0, 0.0, 0.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, 5);
    }

    #[test]
    fn state_expiry_drops_old_segments() {
        let mut j = CJoin::new(1.0, Pred::True, KeyJoin::Any, bindings(), lineage::shared());
        let mut out = Vec::new();
        j.process(0, &seg(1, 0.0, 0.5, 0.0, 0.0), &mut out);
        // Arrives at t=5: the old left segment (ended 0.5) is beyond the 1s window.
        j.process(1, &seg(2, 5.0, 6.0, 0.0, 0.0), &mut out);
        assert!(out.is_empty());
    }

    /// Keys holding buffered segments on a keyed side.
    fn keyed_keys(side: &SideState) -> Vec<u64> {
        let SideState::Keyed(k) = side else { panic!("KeyJoin::Eq uses the keyed layout") };
        let mut keys: Vec<u64> = k.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn idle_key_keeps_buffers_until_gc() {
        let mut j = CJoin::new(1.0, Pred::True, KeyJoin::Eq, bindings(), lineage::shared());
        let mut out = Vec::new();
        j.process(0, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut out);
        j.process(1, &seg(1, 0.0, 1.0, 0.0, 0.0), &mut out);
        // Key 1 stops arriving; key 2 keeps the join busy far past its window.
        for i in 0..600 {
            let t = 10.0 + i as f64;
            j.process(i % 2, &seg(2, t, t + 0.5, 0.0, 0.0), &mut out);
        }
        assert_eq!(keyed_keys(&j.left), vec![1, 2]);
        assert_eq!(keyed_keys(&j.right), vec![1, 2]);
        j.gc_before(f64::INFINITY);
        assert_eq!(keyed_keys(&j.left), vec![2]);
        assert_eq!(keyed_keys(&j.right), vec![2]);
    }

    #[test]
    fn gc_never_sweeps_past_the_latest_expiry() {
        let mut j = CJoin::new(1.0, Pred::True, KeyJoin::Eq, bindings(), lineage::shared());
        let mut out = Vec::new();
        j.process(0, &seg(1, 0.0, 3.0, 0.0, 0.0), &mut out);
        // Past the latest `now − window` (−1): clamped, so [0, 3) survives.
        j.gc_before(5.0);
        j.process(1, &seg(1, 2.0, 4.0, 0.0, 0.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].span, Span::new(2.0, 3.0));
    }

    #[test]
    fn null_join_records_slack() {
        // Overlapping segments, predicate never satisfied: slack is the gap.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::attr_of(1, 0));
        let mut j = CJoin::new(100.0, pred, KeyJoin::Any, bindings(), lineage::shared());
        let mut out = Vec::new();
        j.process(0, &seg(1, 0.0, 10.0, 0.0, 0.0), &mut out); // x = 0
        j.process(1, &seg(2, 0.0, 10.0, 3.0, 0.0), &mut out); // y = 3
        assert!(out.is_empty());
        let slack = j.last_slack().unwrap();
        assert!((slack - 3.0).abs() < 1e-6, "slack {slack}");
    }

    #[test]
    fn lineage_links_both_parents() {
        let store = lineage::shared();
        let mut j = CJoin::new(100.0, lt_pred(), KeyJoin::Any, bindings(), store.clone());
        let mut out = Vec::new();
        let l = seg(1, 0.0, 10.0, 0.0, 1.0);
        let r = seg(2, 0.0, 10.0, 5.0, 0.0);
        j.process(0, &l, &mut out);
        j.process(1, &r, &mut out);
        let parents = store.lock().parents_of(out[0].id).to_vec();
        assert_eq!(parents, vec![l.id, r.id]);
    }
}
