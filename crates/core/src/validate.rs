//! Validating query processing (§IV): query inversion, bound splitting,
//! and the accuracy/slack validation modes.
//!
//! Pulse guarantees user-specified accuracy bounds *without* running the
//! discrete query: output bounds are inverted to input bounds (walking the
//! lineage recorded during processing, §IV-B) and arriving tuples are
//! checked against their segment's model at the query *inputs*. Only a
//! violation — or a previously unseen situation — re-runs the solver.

use crate::lineage::{LineageStore, SegmentView};
use pulse_math::EPS;
use pulse_model::SegmentId;
use std::collections::HashMap;

/// A two-sided absolute error bound `[−below, +above]` around a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub below: f64,
    pub above: f64,
}

impl Bound {
    /// Symmetric bound `±eps`.
    pub fn symmetric(eps: f64) -> Self {
        assert!(eps >= 0.0, "bound must be non-negative");
        Bound { below: eps, above: eps }
    }

    /// Total width of the allowed range.
    pub fn width(&self) -> f64 {
        self.below + self.above
    }

    /// Whether `actual` lies within the bound around `predicted`.
    pub fn admits(&self, predicted: f64, actual: f64) -> bool {
        let d = actual - predicted;
        d >= -self.below - EPS && d <= self.above + EPS
    }

    /// Scales both sides.
    pub fn scale(&self, k: f64) -> Bound {
        Bound { below: self.below * k, above: self.above * k }
    }
}

/// A bound-splitting heuristic (§IV-C): apportions an output bound across
/// the input segments that caused the output. Implementations must be
/// conservative — allocated input ranges may not exceed the output range.
pub trait SplitHeuristic {
    /// `dep_count` is `|D(o)| = |translations ∪ inferences|` for the
    /// operator being inverted.
    fn split(
        &self,
        output: &SegmentView<'_>,
        bound: Bound,
        inputs: &[SegmentView<'_>],
        dep_count: usize,
    ) -> Vec<(SegmentId, Bound)>;
}

/// Equi-split: uniform allocation `[oˡ/n, oᵘ/n]` across every contributing
/// key and attribute dependency.
#[derive(Debug, Clone, Copy, Default)]
pub struct EquiSplit;

impl SplitHeuristic for EquiSplit {
    fn split(
        &self,
        _output: &SegmentView<'_>,
        bound: Bound,
        inputs: &[SegmentView<'_>],
        dep_count: usize,
    ) -> Vec<(SegmentId, Bound)> {
        let n = (inputs.len() * dep_count.max(1)).max(1) as f64;
        inputs.iter().map(|s| (s.id, bound.scale(1.0 / n))).collect()
    }
}

/// Gradient split: allocates proportionally to each input model's rate of
/// change, capturing "the contribution of each particular input model to
/// the output result". Falls back to equi-split when all gradients vanish.
#[derive(Debug, Clone, Copy, Default)]
pub struct GradientSplit;

impl SplitHeuristic for GradientSplit {
    fn split(
        &self,
        output: &SegmentView<'_>,
        bound: Bound,
        inputs: &[SegmentView<'_>],
        dep_count: usize,
    ) -> Vec<(SegmentId, Bound)> {
        let mid = output.span.mid();
        let weights: Vec<f64> = inputs.iter().map(|s| s.rate_at(mid)).collect();
        let total: f64 = weights.iter().sum();
        if total < EPS {
            return EquiSplit.split(output, bound, inputs, dep_count);
        }
        let d = dep_count.max(1) as f64;
        inputs.iter().zip(&weights).map(|(s, w)| (s.id, bound.scale(w / total / d))).collect()
    }
}

/// Walks lineage from an output segment down to source segments, splitting
/// the output bound at each level — the query-inversion dataflow of §IV-B.
pub struct BoundInverter<'a> {
    store: &'a LineageStore,
    heuristic: &'a dyn SplitHeuristic,
    /// Dependency count applied at every split (a full implementation
    /// would carry per-operator translation/inference sets; this build
    /// applies a plan-wide count, which is conservative when ≥ the max).
    dep_count: usize,
}

impl<'a> BoundInverter<'a> {
    pub fn new(
        store: &'a LineageStore,
        heuristic: &'a dyn SplitHeuristic,
        dep_count: usize,
    ) -> Self {
        BoundInverter { store, heuristic, dep_count }
    }

    /// Inverts `bound` at `output` into bounds at the source segments.
    /// A source reached along several paths keeps its tightest allocation
    /// (conservative).
    pub fn invert(&self, output: SegmentId, bound: Bound) -> HashMap<SegmentId, Bound> {
        let mut result: HashMap<SegmentId, Bound> = HashMap::new();
        let mut frontier = vec![(output, bound)];
        while let Some((id, b)) = frontier.pop() {
            let parents = self.store.parents_of(id);
            if parents.is_empty() {
                result
                    .entry(id)
                    .and_modify(|cur| {
                        cur.below = cur.below.min(b.below);
                        cur.above = cur.above.min(b.above);
                    })
                    .or_insert(b);
                continue;
            }
            let Some(out_seg) = self.store.segment(id) else { continue };
            let inputs: Vec<SegmentView<'_>> =
                parents.iter().filter_map(|p| self.store.segment(*p)).collect();
            if inputs.is_empty() {
                continue;
            }
            for (pid, pb) in self.heuristic.split(&out_seg, b, &inputs, self.dep_count) {
                frontier.push((pid, pb));
            }
        }
        result
    }
}

/// Source-qualified validation key: a real composite, not a packed word.
/// (An earlier build packed `(source << 48) ^ key` into one `u64`, which
/// silently collided for keys ≥ 2⁴⁸ — e.g. `(1, 0)` and `(0, 1 << 48)` —
/// letting one stream's validation mode shadow another's.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct VKey {
    pub source: u32,
    pub key: u64,
}

impl VKey {
    pub fn new(source: usize, key: u64) -> Self {
        VKey { source: source as u32, key }
    }
}

impl std::hash::Hash for VKey {
    /// One 8-byte write instead of the derived two (12 bytes): validator
    /// lookups run on the per-tuple fast path, where the extra SipHash
    /// block costs measurable ns. Mixing `source` into the high bits may
    /// *hash*-collide for keys ≥ 2⁴⁸, which — unlike the old packed key —
    /// is harmless: `Eq` compares both fields.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64((self.source as u64).rotate_left(48) ^ self.key);
    }
}

/// Per-key validation state: accuracy bounds while results exist, slack
/// bounds after a null result ("Pulse alternates between performing
/// accuracy and slack validation based on whether previous inputs caused
/// query results").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidationMode {
    /// Check tuples against the model within the inverted accuracy bound.
    Accuracy(Bound),
    /// Check that tuples stay within the slack band of the null result.
    Slack(f64),
}

impl ValidationMode {
    /// The allowance in force for a signed deviation `d`: the directional
    /// side of an accuracy bound (above for `d ≥ 0`, below otherwise), or
    /// the band of a slack bound. This is the exact tolerance the runtime
    /// promises on the suppressed path, which makes it the comparison
    /// allowance for the shadow auditor too.
    pub fn allowance_for(&self, d: f64) -> f64 {
        match *self {
            ValidationMode::Accuracy(b) => {
                if d >= 0.0 {
                    b.above
                } else {
                    b.below
                }
            }
            ValidationMode::Slack(s) => s,
        }
    }
}

/// Serializable summary of a validator's counters and installed modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ValidatorStats {
    /// Checks performed (the cheap per-tuple cost of Pulse's fast path).
    pub checks: u64,
    /// Violations detected.
    pub violations: u64,
    /// Keys currently under accuracy validation.
    pub accuracy_keys: u64,
    /// Keys currently under slack validation.
    pub slack_keys: u64,
}

impl ValidatorStats {
    /// Accumulates another validator's counters (shard merging).
    pub fn absorb(&mut self, other: &ValidatorStats) {
        self.checks += other.checks;
        self.violations += other.violations;
        self.accuracy_keys += other.accuracy_keys;
        self.slack_keys += other.slack_keys;
    }
}

/// The numbers behind one validation verdict (what
/// [`Validator::check_explained`] reports to the flight recorder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckOutcome {
    /// Verdict: prediction still stands.
    pub ok: bool,
    /// Observed |actual − predicted| (infinite for unknown keys).
    pub deviation: f64,
    /// The allowance in force for the deviation's direction.
    pub allowance: f64,
}

/// EWMA weight for the per-key drift estimate (≈ the last 16 checks).
const DRIFT_ALPHA: f64 = 1.0 / 16.0;
/// Consecutive violations on one key that count as a burst — the model is
/// systematically wrong for the key, not unlucky on one tuple.
pub const BURST_LEN: u32 = 3;
/// Mean consumed-budget ratio above which a key counts as *hot*: still
/// validating, but so close to its allowance that any drift will violate.
pub const HOT_RATIO: f64 = 0.8;

/// Per-key error-budget accounting, maintained on every check of a key
/// with an installed mode. All plain arithmetic on the owning thread — a
/// handful of flops per check, no allocation, no atomics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KeyAccuracy {
    /// Checks performed against this key's installed modes.
    pub checks: u64,
    /// Σ consumed-budget ratios (deviation / allowance), over `ratio_count`
    /// checks with a positive allowance. Ratio 0 = prediction exact,
    /// 1 = budget exhausted, >1 = violation.
    pub ratio_sum: f64,
    pub ratio_count: u64,
    /// Worst consumed-budget ratio observed.
    pub ratio_max: f64,
    /// EWMA of the *signed* deviation: a persistent sign means the model
    /// systematically over/under-predicts (drift), even while every
    /// individual check still passes.
    pub drift: f64,
    /// Current run of consecutive violations.
    pub burst: u32,
    /// Longest such run.
    pub burst_max: u32,
}

impl KeyAccuracy {
    /// Folds one verdict in; returns `true` when this violation completed
    /// a burst (the run just reached [`BURST_LEN`]).
    fn note(&mut self, d: f64, deviation: f64, allowance: f64, ok: bool) -> bool {
        self.checks += 1;
        if allowance > EPS && deviation.is_finite() {
            let ratio = deviation / allowance;
            self.ratio_sum += ratio;
            self.ratio_count += 1;
            if ratio > self.ratio_max {
                self.ratio_max = ratio;
            }
        }
        if d.is_finite() {
            self.drift += (d - self.drift) * DRIFT_ALPHA;
        }
        if ok {
            self.burst = 0;
            false
        } else {
            self.burst += 1;
            if self.burst > self.burst_max {
                self.burst_max = self.burst;
            }
            if self.burst == BURST_LEN {
                // Count the burst and restart the run: 2·BURST_LEN
                // consecutive violations are two bursts, not one long one.
                self.burst = 0;
                true
            } else {
                false
            }
        }
    }

    /// Mean consumed-budget ratio (0 when no ratio was recordable).
    pub fn mean_ratio(&self) -> f64 {
        if self.ratio_count == 0 {
            0.0
        } else {
            self.ratio_sum / self.ratio_count as f64
        }
    }
}

/// Aggregate accuracy telemetry over a validator's keys — what the runtime
/// exports as gauges and `BENCH_scaling.json` embeds. Mergeable across
/// shards ([`Self::absorb`]), like [`ValidatorStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct AccuracySummary {
    /// Keys with an installed validation mode.
    pub keys: u64,
    /// Checks that produced a consumed-budget ratio.
    pub ratio_count: u64,
    /// Mean consumed-budget ratio across those checks.
    pub mean_budget_ratio: f64,
    /// Worst ratio any key ever saw.
    pub max_budget_ratio: f64,
    /// Keys whose *mean* ratio exceeds [`HOT_RATIO`].
    pub hot_keys: u64,
    /// Mean |drift| across keys.
    pub mean_drift: f64,
    /// Largest |drift| of any key.
    pub max_drift: f64,
    /// Violation bursts detected (runs reaching [`BURST_LEN`]).
    pub bursts: u64,
    /// Longest violation run on any key.
    pub burst_max: u32,
}

impl AccuracySummary {
    /// Accumulates another summary (shard merging); means merge weighted
    /// by their respective populations.
    pub fn absorb(&mut self, o: &AccuracySummary) {
        let rc = self.ratio_count + o.ratio_count;
        if rc > 0 {
            self.mean_budget_ratio = (self.mean_budget_ratio * self.ratio_count as f64
                + o.mean_budget_ratio * o.ratio_count as f64)
                / rc as f64;
        }
        let keys = self.keys + o.keys;
        if keys > 0 {
            self.mean_drift =
                (self.mean_drift * self.keys as f64 + o.mean_drift * o.keys as f64) / keys as f64;
        }
        self.ratio_count = rc;
        self.keys = keys;
        self.max_budget_ratio = self.max_budget_ratio.max(o.max_budget_ratio);
        self.hot_keys += o.hot_keys;
        self.max_drift = self.max_drift.max(o.max_drift);
        self.bursts += o.bursts;
        self.burst_max = self.burst_max.max(o.burst_max);
    }
}

/// A key's installed mode plus its accuracy accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KeyState {
    mode: ValidationMode,
    acc: KeyAccuracy,
}

/// Input-side validator: decides, per tuple, whether the current prediction
/// still stands (true) or the solver must re-run (false).
#[derive(Debug, Default)]
pub struct Validator {
    modes: HashMap<VKey, KeyState>,
    /// Checks performed (the cheap per-tuple cost of Pulse's fast path).
    pub checks: u64,
    /// Violations detected.
    pub violations: u64,
    /// Violation bursts detected across all keys (runs of [`BURST_LEN`]).
    pub bursts: u64,
    /// The numbers behind the most recent *failing* check — read by the
    /// runtime right after a violation to feed the budget-ratio histogram
    /// without re-deriving deviation/allowance.
    last_violation: Option<CheckOutcome>,
}

impl Validator {
    pub fn new() -> Self {
        Validator::default()
    }

    /// Installs an accuracy bound for a key (after successful inversion).
    /// The key's accuracy accounting survives mode changes.
    pub fn set_accuracy(&mut self, key: VKey, bound: Bound) {
        self.modes
            .entry(key)
            .and_modify(|s| s.mode = ValidationMode::Accuracy(bound))
            .or_insert(KeyState { mode: ValidationMode::Accuracy(bound), acc: Default::default() });
    }

    /// Installs a slack bound for a key (after a null result). The key's
    /// accuracy accounting survives mode changes.
    pub fn set_slack(&mut self, key: VKey, slack: f64) {
        let mode = ValidationMode::Slack(slack.max(0.0));
        self.modes
            .entry(key)
            .and_modify(|s| s.mode = mode)
            .or_insert(KeyState { mode, acc: Default::default() });
    }

    /// Current mode for a key.
    pub fn mode(&self, key: VKey) -> Option<ValidationMode> {
        self.modes.get(&key).map(|s| s.mode)
    }

    /// A key's accuracy accounting (None while no mode was ever installed).
    pub fn key_accuracy(&self, key: VKey) -> Option<KeyAccuracy> {
        self.modes.get(&key).map(|s| s.acc)
    }

    /// The numbers behind the most recent violation.
    pub fn last_violation(&self) -> Option<CheckOutcome> {
        self.last_violation
    }

    /// The shared verdict path: directional deviation/allowance, per-key
    /// accuracy accounting, counters. (For an accuracy bound the
    /// directional compare is equivalent to `Bound::admits`: `|d| ≤ side +
    /// EPS` with `side` picked by `d`'s sign.)
    fn check_inner(&mut self, key: VKey, predicted: f64, actual: f64) -> CheckOutcome {
        self.checks += 1;
        let d = actual - predicted;
        let outcome = match self.modes.get_mut(&key) {
            Some(state) => {
                let (deviation, allowance) = (d.abs(), state.mode.allowance_for(d));
                let ok = deviation <= allowance + EPS;
                if state.acc.note(d, deviation, allowance, ok) {
                    self.bursts += 1;
                }
                CheckOutcome { ok, deviation, allowance }
            }
            None => CheckOutcome { ok: false, deviation: f64::INFINITY, allowance: 0.0 },
        };
        if !outcome.ok {
            self.violations += 1;
            self.last_violation = Some(outcome);
        }
        outcome
    }

    /// Validates an observation against its prediction. Keys with no
    /// installed mode fail validation (no previously known result — the
    /// solver must run, per the paper's "only … in the presence of errors,
    /// or no previously known results").
    pub fn check(&mut self, key: VKey, predicted: f64, actual: f64) -> bool {
        self.check_inner(key, predicted, actual).ok
    }

    /// [`Self::check`] plus the numbers behind the verdict, for the flight
    /// recorder's `ValidationOutcome` events: the observed deviation and the
    /// allowance it was measured against (the directional side of an
    /// accuracy bound, the band of a slack bound). Unknown keys report an
    /// infinite deviation against a zero allowance — "no previously known
    /// results" always solves. Counter updates are identical to `check`.
    pub fn check_explained(&mut self, key: VKey, predicted: f64, actual: f64) -> CheckOutcome {
        self.check_inner(key, predicted, actual)
    }

    /// Clears a key's mode (e.g. after re-modeling).
    pub fn reset(&mut self, key: VKey) {
        self.modes.remove(&key);
    }

    /// Counter and mode-population summary.
    pub fn stats(&self) -> ValidatorStats {
        let accuracy_keys =
            self.modes.values().filter(|s| matches!(s.mode, ValidationMode::Accuracy(_))).count()
                as u64;
        ValidatorStats {
            checks: self.checks,
            violations: self.violations,
            accuracy_keys,
            slack_keys: self.modes.len() as u64 - accuracy_keys,
        }
    }

    /// Aggregate accuracy telemetry across all keys with installed modes.
    pub fn accuracy(&self) -> AccuracySummary {
        let mut s = AccuracySummary { bursts: self.bursts, ..Default::default() };
        let mut ratio_sum = 0.0;
        let mut drift_sum = 0.0;
        for st in self.modes.values() {
            s.keys += 1;
            ratio_sum += st.acc.ratio_sum;
            s.ratio_count += st.acc.ratio_count;
            s.max_budget_ratio = s.max_budget_ratio.max(st.acc.ratio_max);
            let drift = st.acc.drift.abs();
            drift_sum += drift;
            s.max_drift = s.max_drift.max(drift);
            if st.acc.mean_ratio() > HOT_RATIO {
                s.hot_keys += 1;
            }
            s.burst_max = s.burst_max.max(st.acc.burst_max);
        }
        if s.ratio_count > 0 {
            s.mean_budget_ratio = ratio_sum / s.ratio_count as f64;
        }
        if s.keys > 0 {
            s.mean_drift = drift_sum / s.keys as f64;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::LineageStore;
    use pulse_math::{Poly, Span};
    use pulse_model::Segment;

    fn seg_with(slope: f64) -> Segment {
        Segment::single(1, Span::new(0.0, 10.0), Poly::linear(0.0, slope))
    }

    #[test]
    fn bound_admits() {
        let b = Bound::symmetric(1.0);
        assert!(b.admits(5.0, 5.5));
        assert!(b.admits(5.0, 4.0));
        assert!(!b.admits(5.0, 6.5));
        let asym = Bound { below: 0.0, above: 2.0 };
        assert!(asym.admits(5.0, 6.9));
        assert!(!asym.admits(5.0, 4.5));
    }

    #[test]
    fn equi_split_uniform_and_conservative() {
        let out = seg_with(1.0);
        let (a, b) = (seg_with(2.0), seg_with(3.0));
        let parts = EquiSplit.split(
            &SegmentView::of(&out),
            Bound::symmetric(1.0),
            &[SegmentView::of(&a), SegmentView::of(&b)],
            1,
        );
        assert_eq!(parts.len(), 2);
        for (_, pb) in &parts {
            assert!((pb.below - 0.5).abs() < 1e-12);
        }
        // Dependencies shrink the shares further.
        let parts = EquiSplit.split(
            &SegmentView::of(&out),
            Bound::symmetric(1.0),
            &[SegmentView::of(&a), SegmentView::of(&b)],
            2,
        );
        assert!((parts[0].1.below - 0.25).abs() < 1e-12);
        // Conservative: Σ allocations ≤ bound.
        let total: f64 = parts.iter().map(|(_, b)| b.below).sum();
        assert!(total <= 1.0 + 1e-12);
    }

    #[test]
    fn gradient_split_weights_by_rate_of_change() {
        let out = seg_with(1.0);
        let fast = seg_with(9.0);
        let slow = seg_with(1.0);
        let parts = GradientSplit.split(
            &SegmentView::of(&out),
            Bound::symmetric(1.0),
            &[SegmentView::of(&fast), SegmentView::of(&slow)],
            1,
        );
        let fast_share = parts.iter().find(|(id, _)| *id == fast.id).unwrap().1;
        let slow_share = parts.iter().find(|(id, _)| *id == slow.id).unwrap().1;
        assert!((fast_share.below - 0.9).abs() < 1e-9);
        assert!((slow_share.below - 0.1).abs() < 1e-9);
        let total: f64 = parts.iter().map(|(_, b)| b.below).sum();
        assert!(total <= 1.0 + 1e-9, "conservative");
    }

    #[test]
    fn gradient_split_falls_back_on_flat_models() {
        let out = seg_with(0.0);
        let (a, b) = (seg_with(0.0), seg_with(0.0));
        let parts = GradientSplit.split(
            &SegmentView::of(&out),
            Bound::symmetric(1.0),
            &[SegmentView::of(&a), SegmentView::of(&b)],
            1,
        );
        assert!((parts[0].1.below - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverter_walks_to_sources() {
        let mut store = LineageStore::default();
        let (src_a, src_b) = (seg_with(1.0), seg_with(1.0));
        let mid = seg_with(1.0);
        let out = seg_with(1.0);
        for s in [&src_a, &src_b, &mid, &out] {
            store.register(s);
        }
        store.record(mid.id, &[src_a.id, src_b.id]);
        store.record(out.id, &[mid.id]);
        let heuristic = EquiSplit;
        let inv = BoundInverter::new(&store, &heuristic, 1);
        let bounds = inv.invert(out.id, Bound::symmetric(1.0));
        assert_eq!(bounds.len(), 2);
        // out → mid keeps 1.0 (single input), mid → two sources halves it.
        assert!((bounds[&src_a.id].below - 0.5).abs() < 1e-12);
        assert!((bounds[&src_b.id].below - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverter_keeps_tightest_on_shared_source() {
        // Diamond: out caused by m1 and m2, both caused by the same source.
        let mut store = LineageStore::default();
        let src = seg_with(1.0);
        let m1 = seg_with(1.0);
        let m2 = seg_with(1.0);
        let out = seg_with(1.0);
        for s in [&src, &m1, &m2, &out] {
            store.register(s);
        }
        store.record(m1.id, &[src.id]);
        store.record(m2.id, &[src.id]);
        store.record(out.id, &[m1.id, m2.id]);
        let heuristic = EquiSplit;
        let inv = BoundInverter::new(&store, &heuristic, 1);
        let bounds = inv.invert(out.id, Bound::symmetric(1.0));
        assert_eq!(bounds.len(), 1);
        assert!((bounds[&src.id].below - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validator_mode_alternation() {
        let mut v = Validator::new();
        let k = VKey::new(0, 1);
        // Unknown key: must fail (no previously known results).
        assert!(!v.check(k, 10.0, 10.0));
        v.set_accuracy(k, Bound::symmetric(0.5));
        assert!(v.check(k, 10.0, 10.3));
        assert!(!v.check(k, 10.0, 11.0));
        // After a null result: slack mode.
        v.set_slack(k, 3.0);
        assert!(matches!(v.mode(k), Some(ValidationMode::Slack(_))));
        assert!(v.check(k, 10.0, 12.0));
        assert!(!v.check(k, 10.0, 14.0));
        assert_eq!(v.checks, 5);
        assert_eq!(v.violations, 3);
        v.reset(k);
        assert!(v.mode(k).is_none());
    }

    #[test]
    fn vkeys_that_collided_under_packing_stay_distinct() {
        // The old `(source << 48) ^ key` packing mapped both of these to
        // the same slot; each stream must keep its own mode.
        let a = VKey::new(1, 0);
        let b = VKey::new(0, 1 << 48);
        assert_ne!(a, b);
        let mut v = Validator::new();
        v.set_slack(a, 1e6);
        v.set_accuracy(b, Bound::symmetric(0.5));
        assert!(matches!(v.mode(a), Some(ValidationMode::Slack(_))));
        assert!(matches!(v.mode(b), Some(ValidationMode::Accuracy(_))));
        assert!(v.check(a, 0.0, 100.0), "a's wide slack must survive b's install");
    }

    #[test]
    fn check_explained_agrees_with_check() {
        let mut explained = Validator::new();
        let mut plain = Validator::new();
        let k = VKey::new(0, 1);
        // Unknown key: infinite deviation against zero allowance.
        let o = explained.check_explained(k, 10.0, 10.0);
        assert!(!o.ok && o.deviation.is_infinite() && o.allowance == 0.0);
        assert!(!plain.check(k, 10.0, 10.0));
        for v in [&mut explained, &mut plain] {
            v.set_accuracy(k, Bound { below: 0.2, above: 0.5 });
        }
        for (pred, act) in [(10.0, 10.3), (10.0, 11.0), (10.0, 9.9), (10.0, 9.0)] {
            let o = explained.check_explained(k, pred, act);
            assert_eq!(o.ok, plain.check(k, pred, act), "accuracy {pred}→{act}");
            // A violating outcome always shows deviation beyond allowance.
            assert!(o.ok || o.deviation > o.allowance, "{o:?}");
        }
        for v in [&mut explained, &mut plain] {
            v.set_slack(k, 3.0);
        }
        for (pred, act) in [(10.0, 12.0), (10.0, 14.0)] {
            let o = explained.check_explained(k, pred, act);
            assert_eq!(o.ok, plain.check(k, pred, act), "slack {pred}→{act}");
            assert_eq!(o.allowance, 3.0);
        }
        // Counters advance identically on both paths.
        assert_eq!(explained.checks, plain.checks);
        assert_eq!(explained.violations, plain.violations);
    }

    #[test]
    fn budget_ratio_tracks_consumed_allowance() {
        let mut v = Validator::new();
        let k = VKey::new(0, 1);
        v.set_accuracy(k, Bound::symmetric(1.0));
        v.check(k, 10.0, 10.5); // ratio 0.5
        v.check(k, 10.0, 9.0); // ratio 1.0 (just at budget)
        v.check(k, 10.0, 12.0); // ratio 2.0, violation
        let acc = v.key_accuracy(k).unwrap();
        assert_eq!(acc.ratio_count, 3);
        assert!((acc.mean_ratio() - (0.5 + 1.0 + 2.0) / 3.0).abs() < 1e-12);
        assert!((acc.ratio_max - 2.0).abs() < 1e-12);
        let last = v.last_violation().unwrap();
        assert!(!last.ok && (last.deviation - 2.0).abs() < 1e-12 && last.allowance == 1.0);
        let sum = v.accuracy();
        assert_eq!(sum.keys, 1);
        assert!((sum.max_budget_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn drift_estimate_converges_to_signed_bias() {
        let mut v = Validator::new();
        let k = VKey::new(0, 1);
        v.set_slack(k, 10.0);
        // Model persistently predicts 2.0 low: every check passes, but the
        // drift EWMA must converge toward +2.
        for _ in 0..200 {
            assert!(v.check(k, 10.0, 12.0));
        }
        let acc = v.key_accuracy(k).unwrap();
        assert!((acc.drift - 2.0).abs() < 1e-3, "drift {}", acc.drift);
        assert!(v.accuracy().max_drift > 1.9);
        // Accuracy accounting survives a mode change.
        v.set_accuracy(k, Bound::symmetric(5.0));
        assert_eq!(v.key_accuracy(k).unwrap().checks, 200);
    }

    #[test]
    fn violation_bursts_detected_per_key() {
        let mut v = Validator::new();
        let k = VKey::new(0, 1);
        let other = VKey::new(0, 2);
        v.set_accuracy(k, Bound::symmetric(0.1));
        v.set_accuracy(other, Bound::symmetric(0.1));
        // Two violations, a pass, then two more: no run reaches BURST_LEN=3.
        for actual in [11.0, 11.0, 10.0, 11.0, 11.0] {
            v.check(k, 10.0, actual);
        }
        assert_eq!(v.bursts, 0);
        assert_eq!(v.key_accuracy(k).unwrap().burst_max, 2);
        // Interleaved checks on another key must not break k's run.
        for _ in 0..3 {
            v.check(k, 10.0, 11.0);
            v.check(other, 10.0, 10.0);
        }
        assert_eq!(v.bursts, 1, "one run of 3 → one burst");
        assert_eq!(v.key_accuracy(k).unwrap().burst_max, 3);
        let sum = v.accuracy();
        assert_eq!(sum.bursts, 1);
        assert_eq!(sum.burst_max, 3);
        assert_eq!(sum.hot_keys, 1, "only k runs over HOT_RATIO");
    }

    #[test]
    fn accuracy_summary_absorb_weights_means() {
        let a = AccuracySummary {
            keys: 1,
            ratio_count: 10,
            mean_budget_ratio: 0.2,
            max_budget_ratio: 0.5,
            hot_keys: 0,
            mean_drift: 1.0,
            max_drift: 1.0,
            bursts: 1,
            burst_max: 3,
        };
        let b = AccuracySummary {
            keys: 3,
            ratio_count: 30,
            mean_budget_ratio: 0.6,
            max_budget_ratio: 0.9,
            hot_keys: 2,
            mean_drift: 2.0,
            max_drift: 4.0,
            bursts: 2,
            burst_max: 5,
        };
        let mut m = a;
        m.absorb(&b);
        assert_eq!(m.keys, 4);
        assert_eq!(m.ratio_count, 40);
        assert!((m.mean_budget_ratio - 0.5).abs() < 1e-12, "10·0.2+30·0.6 over 40");
        assert!((m.mean_drift - 1.75).abs() < 1e-12, "1·1+3·2 over 4");
        assert_eq!(m.max_budget_ratio, 0.9);
        assert_eq!(m.hot_keys, 2);
        assert_eq!(m.bursts, 3);
        assert_eq!(m.burst_max, 5);
        // Absorbing an empty summary is the identity.
        let mut id = b;
        id.absorb(&AccuracySummary::default());
        assert_eq!(id, b);
    }

    #[test]
    fn validator_stats_absorb_sums_fields() {
        let mut a = ValidatorStats { checks: 1, violations: 2, accuracy_keys: 3, slack_keys: 4 };
        let b = ValidatorStats { checks: 10, violations: 20, accuracy_keys: 30, slack_keys: 40 };
        a.absorb(&b);
        assert_eq!(
            a,
            ValidatorStats { checks: 11, violations: 22, accuracy_keys: 33, slack_keys: 44 }
        );
    }
}
