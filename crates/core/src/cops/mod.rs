//! Continuous-time operators: equation systems consuming and producing
//! segments.
//!
//! §III-C: "Each equation system is closed, that is it consumes segments
//! and produces segments, enabling Pulse's query processing to use segments
//! as a first-class datatype." This module defines the operator trait plus
//! the filter and map; the join, min/max and sum/avg aggregates, and the
//! hash group-by live in submodules.

mod group;
mod join;
mod minmax;
mod sumavg;

pub use group::CGroupBy;
pub use join::{CJoin, JoinState};
pub use minmax::CMinMax;
pub use sumavg::CSumAvg;

use crate::binding::Binding;
use crate::eqsys::{legacy_subst_enabled, ExprProgram, SolveScratch, SystemTemplate};
use crate::lineage::SharedLineage;
use pulse_math::{Poly, EPS};
use pulse_model::{ExprError, ExprVm, Pred, Segment, SlotMap, VmProgram};
use pulse_obs::{prof, Phase, TraceKind, Tracer};
use pulse_stream::OpMetrics;
use std::any::Any;

/// A push-based continuous operator.
pub trait COperator: Any {
    /// Stable lower-case operator name — the middle component of the
    /// operator's metric names (`cops.<name>.<metric>`).
    fn name(&self) -> &'static str;
    /// Processes a segment arriving on `input`, appending output segments.
    /// Convenience over [`Self::process_traced`] with recording off.
    fn process(&mut self, input: usize, seg: &Segment, out: &mut Vec<Segment>) {
        self.process_traced(input, seg, &mut Tracer::off(), out);
    }
    /// [`Self::process`] with a flight recorder: operators that grind
    /// equation systems stamp an [`TraceKind::OpSolve`] event (scoped onto
    /// the runtime's enclosing `SolveStart`) describing the rows solved and
    /// segments emitted for this arrival.
    fn process_traced(
        &mut self,
        input: usize,
        seg: &Segment,
        tr: &mut Tracer,
        out: &mut Vec<Segment>,
    );
    /// Cost counters (systems solved, segments in/out).
    fn metrics(&self) -> OpMetrics;
    /// End-of-stream.
    fn flush(&mut self, _out: &mut Vec<Segment>) {}
    /// State bounding off the arrival path: drops state that no arrival at
    /// or after stream time `t` can reach. Operators that bound all their
    /// state on arrival keep the default no-op.
    fn gc_before(&mut self, _t: f64) {}
    /// `|D(o)| = |translations(o) ∪ inferences(o)|`: how many attribute
    /// dependencies the operator's bound inversion must apportion across
    /// (equi-split denominator, §IV-C).
    fn dep_count(&self) -> usize {
        1
    }
    /// Slack of the most recent null result, if the operator is selective
    /// and its last input produced nothing (§IV's slack validation).
    fn last_slack(&self) -> Option<f64> {
        None
    }
    /// Clears recorded null-result slack. The plan calls this at the start
    /// of every push so [`Self::last_slack`] only ever reflects the push in
    /// progress — stale slack from an earlier push (typically a different
    /// key's segment) must not drive another key's validation mode.
    fn reset_slack(&mut self) {}
    /// Downcast support (harnesses inspect operator state, e.g. the min/max
    /// envelope, when sampling query results).
    fn as_any(&self) -> &dyn Any;
}

/// Continuous filter: one equation system per arriving segment, solved over
/// the segment's lifespan; each satisfying time range becomes an output
/// segment restricted to that range.
pub struct CFilter {
    /// Equation-system template compiled once from the normalized
    /// predicate; per-segment work is coefficient substitution.
    template: SystemTemplate,
    binding: Binding,
    lineage: SharedLineage,
    dep_count: usize,
    slack: Option<f64>,
    /// Solver scratch shared by every arrival.
    scratch: SolveScratch,
    m: OpMetrics,
}

impl CFilter {
    /// `pred` is normalized on construction (sqrt/abs elimination).
    pub fn new(pred: Pred, binding: Binding, lineage: SharedLineage) -> Self {
        let pred = pred.normalize();
        let dep_count = pred.referenced_attrs().len().max(1);
        let template = SystemTemplate::compile(&pred);
        CFilter {
            template,
            binding,
            lineage,
            dep_count,
            slack: None,
            scratch: SolveScratch::default(),
            m: OpMetrics::default(),
        }
    }
}

impl COperator for CFilter {
    fn name(&self) -> &'static str {
        "filter"
    }

    fn process_traced(
        &mut self,
        _input: usize,
        seg: &Segment,
        tr: &mut Tracer,
        out: &mut Vec<Segment>,
    ) {
        self.m.items_in += 1;
        self.lineage.lock().register(seg);
        let binding = &self.binding;
        let t0 = prof::start();
        let sys =
            match self.template.substitute_into(|_, attr, slot| binding.poly_into(seg, attr, slot))
            {
                Ok(sys) => sys,
                Err(_) => return, // non-polynomial predicate: no continuous result
            };
        tr.prof(t0, Phase::TemplateSubstitute);
        let t0 = prof::start();
        let nested0 = t0.map(|_| Phase::solve_nested_ns(tr.phases()));
        let mut rows = 0;
        let sol = sys.solve_with(seg.span, &mut rows, &mut self.scratch, tr);
        if let (Some(t0), Some(n0)) = (t0, nested0) {
            let nested = Phase::solve_nested_ns(tr.phases()).saturating_sub(n0);
            let total = t0.elapsed().as_nanos() as u64;
            tr.phases_mut().record(Phase::RootIsolate, total.saturating_sub(nested));
        }
        self.m.systems_solved += 1;
        self.m.comparisons += rows;
        if tr.on() {
            let kind = TraceKind::OpSolve { op: "filter", rows, outputs: sol.spans().len() as u32 };
            tr.emit_scoped(seg.key, seg.span.lo, kind);
        }
        if sol.is_empty() {
            // Null result: record slack for §IV's slack validation.
            self.slack = Some(sys.slack_with(seg.span, &mut self.scratch));
            return;
        }
        self.slack = None;
        let mut lineage = self.lineage.lock();
        for span in sol.spans() {
            let piece = seg.restricted(*span);
            lineage.emit(&piece, &[seg.id]);
            self.m.items_out += 1;
            out.push(piece);
        }
    }

    fn metrics(&self) -> OpMetrics {
        self.m
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

/// Continuous map: substitutes models into each projection expression,
/// producing a segment whose models are the projected polynomials.
pub struct CMap {
    /// One bytecode program per projection expression, sharing one slot
    /// map; per-segment work is writing models into the VM's coefficient
    /// slots and running the programs.
    programs: Vec<VmProgram>,
    /// Retained AST-walk programs (legacy substitution path).
    legacy: Vec<ExprProgram>,
    slots: SlotMap,
    vm: ExprVm,
    binding: Binding,
    lineage: SharedLineage,
    /// Scratch stack reused across segments by the legacy programs.
    stack: Vec<Poly>,
    m: OpMetrics,
}

impl CMap {
    pub fn new(exprs: Vec<pulse_model::Expr>, binding: Binding, lineage: SharedLineage) -> Self {
        let mut slots = SlotMap::new();
        let programs = exprs.iter().map(|e| VmProgram::compile(e, &mut slots)).collect();
        let legacy = exprs.iter().map(ExprProgram::compile).collect();
        let mut vm = ExprVm::new();
        vm.ensure_slots(slots.len());
        CMap {
            programs,
            legacy,
            slots,
            vm,
            binding,
            lineage,
            stack: Vec::new(),
            m: OpMetrics::default(),
        }
    }

    /// Projects `seg` through every program (VM or legacy, per the
    /// process-wide toggle).
    fn project(&mut self, seg: &Segment) -> Result<Vec<Poly>, ExprError> {
        let CMap { programs, legacy, slots, vm, binding, stack, .. } = self;
        if legacy_subst_enabled() {
            return legacy
                .iter()
                .map(|p| p.eval(&mut |_, attr| binding.poly_of(seg, attr), stack))
                .collect();
        }
        vm.ensure_slots(slots.len());
        for (i, &(_, attr)) in slots.attrs().iter().enumerate() {
            binding.poly_into(seg, attr, vm.slot_mut(i))?;
        }
        programs
            .iter()
            .map(|prog| {
                let mut p = Poly::zero();
                vm.run(prog, &mut p).map(|_| p)
            })
            .collect()
    }
}

impl COperator for CMap {
    fn name(&self) -> &'static str {
        "map"
    }

    fn process_traced(
        &mut self,
        _input: usize,
        seg: &Segment,
        tr: &mut Tracer,
        out: &mut Vec<Segment>,
    ) {
        self.m.items_in += 1;
        let t0 = prof::start();
        let models = self.project(seg);
        tr.prof(t0, Phase::TemplateSubstitute);
        let Ok(models) = models else { return };
        let mapped = Segment::new(seg.key, seg.span, models, Vec::new());
        self.lineage.lock().emit(&mapped, &[seg.id]);
        self.m.items_out += 1;
        out.push(mapped);
    }

    fn metrics(&self) -> OpMetrics {
        self.m
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Continuous union: forwards segments from both inputs unchanged.
#[derive(Default)]
pub struct CUnion {
    m: OpMetrics,
}

impl CUnion {
    pub fn new() -> Self {
        CUnion::default()
    }
}

impl COperator for CUnion {
    fn name(&self) -> &'static str {
        "union"
    }

    fn process_traced(
        &mut self,
        _input: usize,
        seg: &Segment,
        _tr: &mut Tracer,
        out: &mut Vec<Segment>,
    ) {
        self.m.items_in += 1;
        self.m.items_out += 1;
        out.push(seg.clone());
    }

    fn metrics(&self) -> OpMetrics {
        self.m
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Drops zero-measure spans out of a solution unless they are genuine
/// equality points (helper shared by selective operators).
pub(crate) fn meaningful_spans(
    sol: &pulse_math::RangeSet,
) -> impl Iterator<Item = pulse_math::Span> + '_ {
    sol.spans().iter().copied().filter(|s| s.len() > EPS || s.is_point())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage;
    use pulse_math::{CmpOp, Poly, Span};
    use pulse_model::{AttrKind, Expr, Schema};

    fn xv_schema() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled)])
    }

    fn seg(key: u64, lo: f64, hi: f64, icpt: f64, slope: f64) -> Segment {
        Segment::single(key, Span::new(lo, hi), Poly::linear(icpt, slope))
    }

    #[test]
    fn filter_emits_satisfying_subranges() {
        let store = lineage::shared();
        let pred = Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(5.0));
        let mut f = CFilter::new(pred, Binding::new(xv_schema()), store.clone());
        // x = t on [0, 10): x < 5 holds on [0, 5).
        let s = seg(1, 0.0, 10.0, 0.0, 1.0);
        let mut out = Vec::new();
        f.process(0, &s, &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].span.hi - 5.0).abs() < 1e-8);
        assert_eq!(out[0].key, 1);
        // Lineage recorded.
        assert_eq!(store.lock().parents_of(out[0].id), &[s.id]);
        assert_eq!(f.metrics().items_out, 1);
        assert!(f.last_slack().is_none());
    }

    #[test]
    fn filter_null_result_sets_slack() {
        let store = lineage::shared();
        let pred = Pred::cmp(Expr::attr(0), CmpOp::Eq, Expr::c(100.0));
        let mut f = CFilter::new(pred, Binding::new(xv_schema()), store);
        // x = t on [0, 10): x never reaches 100; closest at t→10 → slack ≈ 90.
        let mut out = Vec::new();
        f.process(0, &seg(0, 0.0, 10.0, 0.0, 1.0), &mut out);
        assert!(out.is_empty());
        let slack = f.last_slack().unwrap();
        assert!((slack - 90.0).abs() < 1e-3, "slack {slack}");
    }

    #[test]
    fn filter_point_result_from_equality() {
        let store = lineage::shared();
        let pred = Pred::cmp(Expr::attr(0), CmpOp::Eq, Expr::c(5.0));
        let mut f = CFilter::new(pred, Binding::new(xv_schema()), store);
        let mut out = Vec::new();
        f.process(0, &seg(0, 0.0, 10.0, 0.0, 1.0), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].span.is_point());
        assert!((out[0].span.lo - 5.0).abs() < 1e-8);
    }

    #[test]
    fn filter_normalizes_abs() {
        let store = lineage::shared();
        // |x| < 3 with x = t − 5 on [0, 10): holds on (2, 8).
        let pred = Pred::cmp(Expr::Abs(Box::new(Expr::attr(0))), CmpOp::Lt, Expr::c(3.0));
        let mut f = CFilter::new(pred, Binding::new(xv_schema()), store);
        let mut out = Vec::new();
        f.process(0, &seg(0, 0.0, 10.0, -5.0, 1.0), &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].span.lo - 2.0).abs() < 1e-8);
        assert!((out[0].span.hi - 8.0).abs() < 1e-8);
    }

    #[test]
    fn map_projects_models() {
        let store = lineage::shared();
        // diff = 2x − 1
        let mut m = CMap::new(
            vec![Expr::attr(0) * Expr::c(2.0) - Expr::c(1.0)],
            Binding::new(xv_schema()),
            store,
        );
        let mut out = Vec::new();
        m.process(0, &seg(3, 0.0, 4.0, 1.0, 1.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].models[0], Poly::linear(1.0, 2.0));
        assert_eq!(out[0].key, 3);
        assert_eq!(out[0].span, Span::new(0.0, 4.0));
    }
}
