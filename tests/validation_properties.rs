//! Property-based tests of the validation machinery (§IV): bound splits
//! stay conservative, query inversion never over-allocates, equation-system
//! solutions actually satisfy their predicates, and suppressed tuples were
//! genuinely within bounds.

use proptest::prelude::*;
use pulse::core::validate::{Bound, BoundInverter, EquiSplit, GradientSplit, SplitHeuristic};
use pulse::core::{LineageStore, PulseRuntime, RuntimeConfig, SegmentView, System};
use pulse::math::poly::COEFF_EPS;
use pulse::math::{solve_poly_cmp, CmpOp, Poly, Span};
use pulse::model::{Expr, Pred, Segment, Tuple};
use pulse::stream::{LogicalOp, LogicalPlan, PortRef};
use pulse::workload::moving;

fn arb_poly(max_deg: usize) -> impl Strategy<Value = Poly> {
    prop::collection::vec(-10.0..10.0_f64, 1..=max_deg + 1).prop_map(Poly::new)
}

/// A polynomial of degree ≤ `max_deg` whose trailing coefficient is, half
/// the time, within a factor of 4 of the trim threshold (either side).
fn arb_poly_near_trim(max_deg: usize) -> impl Strategy<Value = Poly> {
    (prop::collection::vec(-10.0..10.0_f64, 1..=max_deg + 1), 0..2u8, -2.0..2.0_f64).prop_map(
        |(mut c, near, e)| {
            if near == 1 {
                let last = c.len() - 1;
                c[last] = COEFF_EPS * 2f64.powf(e) * c[last].signum();
            }
            Poly::new(c)
        },
    )
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Ge),
        Just(CmpOp::Gt),
    ]
}

proptest! {
    /// Sampled points inside a solution set satisfy the comparison; points
    /// far from boundaries outside it do not.
    #[test]
    fn solve_poly_cmp_is_sound(poly in arb_poly(4), op in arb_cmp()) {
        let domain = Span::new(-5.0, 5.0);
        let sol = solve_poly_cmp(&poly, op, domain, 1e-10);
        for span in sol.spans() {
            let t = span.mid();
            let v = poly.eval(t);
            // Interior points must satisfy within numeric tolerance.
            let ok = match op {
                CmpOp::Lt | CmpOp::Le => v <= 1e-6,
                CmpOp::Gt | CmpOp::Ge => v >= -1e-6,
                CmpOp::Eq => v.abs() <= 1e-4 * (1.0 + poly.max_coeff()),
                CmpOp::Ne => true,
            };
            prop_assert!(ok, "op {op} violated at t={t}: p(t)={v} ({poly})");
        }
    }

    /// Solution sets of p R 0 and p ¬R 0 partition the domain.
    #[test]
    fn solution_and_negation_partition_domain(poly in arb_poly(3), op in arb_cmp()) {
        let domain = Span::new(-4.0, 4.0);
        let a = solve_poly_cmp(&poly, op, domain, 1e-10);
        let b = solve_poly_cmp(&poly, op.negate(), domain, 1e-10);
        let together = a.union(&b);
        // Union must cover the domain's measure (boundary slivers aside).
        prop_assert!(together.measure() >= domain.len() - 1e-6,
            "cover {} of {}", together.measure(), domain.len());
        // And overlap must be at most boundary points.
        prop_assert!(a.intersect(&b).measure() <= 1e-6);
    }

    /// Split heuristics are conservative: every allocated share is within
    /// the output bound, and shares sum to at most the bound.
    #[test]
    fn splits_are_conservative(
        eps in 0.001..100.0_f64,
        slopes in prop::collection::vec(-20.0..20.0_f64, 1..6),
        deps in 1..4usize,
    ) {
        let out = Segment::single(0, Span::new(0.0, 10.0), Poly::linear(0.0, 1.0));
        let inputs: Vec<Segment> = slopes
            .iter()
            .map(|&s| Segment::single(1, Span::new(0.0, 10.0), Poly::linear(0.0, s)))
            .collect();
        let refs: Vec<SegmentView<'_>> = inputs.iter().map(SegmentView::of).collect();
        let bound = Bound::symmetric(eps);
        for heuristic in [&EquiSplit as &dyn SplitHeuristic, &GradientSplit] {
            let parts = heuristic.split(&SegmentView::of(&out), bound, &refs, deps);
            prop_assert_eq!(parts.len(), refs.len());
            let total: f64 = parts.iter().map(|(_, b)| b.below).sum();
            prop_assert!(total <= eps + 1e-9, "total {total} exceeds {eps}");
            for (_, b) in &parts {
                prop_assert!(b.below <= eps + 1e-9 && b.above <= eps + 1e-9);
                prop_assert!(b.below >= 0.0 && b.above >= 0.0);
            }
        }
    }

    /// The gradient split's weight read from a stored snapshot is the bit
    /// pattern the segment's own polynomials give, including when a
    /// trailing coefficient sits near the trim threshold.
    #[test]
    fn stored_rate_matches_poly_derivative_bitwise(
        models in prop::collection::vec(arb_poly_near_trim(4), 1..4),
        earlier in arb_poly(3),
        t in -50.0..50.0_f64,
    ) {
        let mut store = LineageStore::default();
        // A snapshot ahead of it, so the view reads from non-zero offsets.
        store.register(&Segment::single(1, Span::new(0.0, 1.0), earlier));
        let seg = Segment::new(2, Span::new(0.0, 1.0), models, Vec::new());
        store.register(&seg);
        let want: f64 = seg.models.iter().map(|m| m.derivative().eval(t).abs()).sum();
        let got = store.segment(seg.id).expect("registered").rate_at(t);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    }

    /// Inverting through a random lineage chain never allocates more than
    /// the output bound to any source.
    #[test]
    fn inversion_never_exceeds_output_bound(
        eps in 0.01..10.0_f64,
        fanouts in prop::collection::vec(1..4usize, 1..4),
    ) {
        let mut store = LineageStore::default();
        let mk = || Segment::single(0, Span::new(0.0, 1.0), Poly::linear(1.0, 1.0));
        let out = mk();
        store.register(&out);
        let mut frontier = vec![out.id];
        for fan in &fanouts {
            let mut next = Vec::new();
            for id in frontier {
                let parents: Vec<Segment> = (0..*fan).map(|_| mk()).collect();
                for p in &parents {
                    store.register(p);
                    next.push(p.id);
                }
                store.record(id, &parents.iter().map(|p| p.id).collect::<Vec<_>>());
            }
            frontier = next;
        }
        let heuristic = EquiSplit;
        let inv = BoundInverter::new(&store, &heuristic, 1);
        let bounds = inv.invert(out.id, Bound::symmetric(eps));
        prop_assert!(!bounds.is_empty());
        for b in bounds.values() {
            prop_assert!(b.below <= eps + 1e-9);
        }
    }

    /// Predicate trees solved as equation systems agree with direct
    /// pointwise evaluation of the predicate on the model values.
    #[test]
    fn system_matches_pointwise_predicate(
        c0 in -5.0..5.0_f64,
        c1 in -2.0..2.0_f64,
        thr in -5.0..5.0_f64,
    ) {
        let pred = Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(thr))
            .or(Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(thr + 1.0)));
        let model = Poly::linear(c0, c1);
        let lookup = |_: usize, _: usize| Ok(model.clone());
        let sys = System::build(&pred.normalize(), &lookup).unwrap();
        let mut rows = 0;
        let domain = Span::new(0.0, 10.0);
        let sol = sys.solve(domain, &mut rows);
        for i in 0..50 {
            let t = 0.1 + i as f64 * 0.198;
            let v = model.eval(t);
            let direct = v < thr || v > thr + 1.0;
            // Skip points within tolerance of a boundary.
            if (v - thr).abs() < 1e-3 || (v - thr - 1.0).abs() < 1e-3 {
                continue;
            }
            prop_assert_eq!(sol.contains(t), direct, "t={}, v={}", t, v);
        }
    }
}

/// Suppressed tuples really were within the configured bound of the model:
/// the runtime's core accuracy guarantee.
#[test]
fn suppressed_tuples_lie_within_bound() {
    let bound = 0.8;
    let mut lp = LogicalPlan::new(vec![moving::schema()]);
    lp.add(
        LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-1e9)) },
        vec![PortRef::Source(0)],
    );
    let mut rt = PulseRuntime::new(
        vec![moving::stream_model()],
        &lp,
        RuntimeConfig { horizon: 100.0, bound, ..Default::default() },
    )
    .unwrap();
    // Deterministic noisy trajectory.
    let mut violations_seen = 0;
    let mut last_model: Option<(f64, f64)> = None; // (x0, v) of current model
    for i in 0..500 {
        let ts = i as f64 * 0.1;
        let noise = (((i * 2654435761_usize) % 997) as f64 / 997.0 - 0.5) * 2.4;
        let x = 2.0 * ts + noise;
        let before = rt.stats().violations;
        rt.on_tuple(0, &Tuple::new(1, ts, vec![x, 2.0, 0.0, 0.0]));
        let after = rt.stats();
        if after.violations > before {
            violations_seen += 1;
            last_model = Some((x - 2.0 * ts, 2.0));
        } else if after.suppressed > 0 {
            if let Some((x0, v)) = last_model {
                // The suppressed tuple's deviation from the *current* model
                // must be within the bound (inverted allocations only ever
                // tighten it).
                let predicted = x0 + v * ts;
                assert!(
                    (x - predicted).abs() <= bound + 1e-9,
                    "suppressed tuple outside bound at ts={ts}: |{x} - {predicted}|"
                );
            }
        }
    }
    assert!(violations_seen > 0, "workload should trigger some violations");
}
