//! Sharded vs single-threaded equivalence.
//!
//! Key-partitioned execution must be invisible in the results: the merged
//! counters of N shards and the output-segment multiset must match a
//! single runtime fed the same tuples, because every per-key state machine
//! (model anchors, validator modes, aggregate windows, join buffers) sees
//! exactly the same inputs in the same order either way. Segment *ids* are
//! allocated from a process-wide counter and output *order* across shards
//! is arbitrary, so the comparison is order-insensitive and id-blind.

use pulse_core::hybrid::HybridRuntime;
use pulse_core::runtime::{Predictor, PulseRuntime, RuntimeConfig};
use pulse_core::shard::{ShardError, ShardedRuntime};
use pulse_math::CmpOp;
use pulse_model::{AttrKind, Expr, Pred, Schema, Segment, Tuple};
use pulse_stream::{partition_rewrite, AggFunc, KeyJoin, LogicalOp, LogicalPlan, PortRef};

fn schema() -> Schema {
    Schema::of(&[("price", AttrKind::Modeled)])
}

/// MACD-shaped plan: two grouped averages of the same source, joined on
/// key with `S.avg > L.avg`, projected to the divergence. Every operator
/// keeps keys separate, so the plan is shardable.
fn macd_plan() -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![schema()]);
    let short = lp.add(
        LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width: 1.0,
            slide: 0.5,
            group_by_key: true,
        },
        vec![PortRef::Source(0)],
    );
    let long = lp.add(
        LogicalOp::Aggregate {
            func: AggFunc::Avg,
            attr: 0,
            width: 3.0,
            slide: 0.5,
            group_by_key: true,
        },
        vec![PortRef::Source(0)],
    );
    let j = lp.add(
        LogicalOp::Join {
            window: 0.5,
            pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Gt, Expr::attr_of(1, 0)),
            on_keys: KeyJoin::Eq,
        },
        vec![short, long],
    );
    lp.add(
        LogicalOp::Map {
            exprs: vec![Expr::attr(0) - Expr::attr(1)],
            schema: Schema::of(&[("diff", AttrKind::Modeled)]),
        },
        vec![j],
    );
    lp
}

fn config() -> RuntimeConfig {
    RuntimeConfig { horizon: 5.0, bound: 0.05, ..Default::default() }
}

/// Deterministic noisy price streams: per-key level, a shared triangle
/// oscillation (so short/long averages cross and the join fires), and
/// tick noise larger than the bound (so validation keeps violating and
/// both runtimes re-model frequently).
fn tuples(keys: u64, rounds: usize) -> Vec<Tuple> {
    let mut rng: u64 = 0x1234_5678_9ABC_DEF0;
    let mut noise = || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((rng >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut out = Vec::with_capacity(keys as usize * rounds);
    for r in 0..rounds {
        let ts = r as f64 * 0.05;
        // Triangle wave with period 4s, amplitude 1.
        let phase = (ts / 4.0).fract();
        let tri = if phase < 0.5 { 4.0 * phase - 1.0 } else { 3.0 - 4.0 * phase };
        for key in 0..keys {
            let price = 50.0 + key as f64 + 2.0 * tri + 0.2 * noise();
            out.push(Tuple::new(key, ts, vec![price]));
        }
    }
    out
}

/// Bit-exact, id-blind fingerprint of a segment for multiset comparison.
type SegPrint = (u64, u64, u64, Vec<Vec<u64>>, Vec<u64>);

fn fingerprint(seg: &Segment) -> SegPrint {
    (
        seg.key,
        seg.span.lo.to_bits(),
        seg.span.hi.to_bits(),
        seg.models.iter().map(|p| p.coeffs().iter().map(|c| c.to_bits()).collect()).collect(),
        seg.unmodeled.iter().map(|u| u.to_bits()).collect(),
    )
}

#[test]
fn sharded_macd_matches_single_threaded() {
    let lp = macd_plan();
    let feed = tuples(24, 240);

    // Single-threaded reference.
    let mut single =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &lp, config())
            .unwrap();
    let mut single_outs = Vec::new();
    for (i, t) in feed.iter().enumerate() {
        single_outs.extend(single.on_tuple(0, t));
        if i == feed.len() / 2 {
            single.gc_before(t.ts - 10.0);
        }
    }

    // Sharded run over the same feed, including a mid-stream GC at the
    // same point and a batch size that doesn't divide the feed evenly.
    let mut sharded =
        ShardedRuntime::new(vec![Predictor::AdaptiveLinear(schema())], &lp, config(), 4).unwrap();
    sharded.set_batch(7);
    for (i, t) in feed.iter().enumerate() {
        sharded.on_tuple(0, t);
        if i == feed.len() / 2 {
            sharded.gc_before(t.ts - 10.0);
        }
    }
    let merged = sharded.finish();

    // The workload must actually exercise the machinery.
    let s = single.stats();
    assert!(s.violations > 100, "workload too tame: {s:?}");
    assert!(s.suppressed > 100, "workload too wild: {s:?}");
    assert!(!single_outs.is_empty(), "join never fired: {s:?}");

    assert_eq!(merged.stats, s, "merged runtime counters must match");
    let m = merged.stats;
    assert_eq!(m.tuples_in, feed.len() as u64, "{m:?}");
    assert_eq!(m.tuples_in, m.suppressed + m.violations + m.unchecked, "{m:?}");
    assert_eq!(merged.validator, single.validator().stats(), "validator counters must match");
    assert_eq!(
        merged.metrics.systems_solved,
        single.plan().metrics().systems_solved,
        "same segments must be solved either way"
    );

    let mut a: Vec<_> = single_outs.iter().map(fingerprint).collect();
    let mut b: Vec<_> = merged.outputs.iter().map(fingerprint).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "output-segment multisets must match bit-for-bit");
}

#[test]
fn one_shard_equals_single_threaded() {
    // Degenerate sharding (N=1) routes everything to one worker and must
    // still agree with the in-process runtime — the channel is pure plumbing.
    let lp = macd_plan();
    let feed = tuples(6, 120);

    let mut single =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &lp, config())
            .unwrap();
    let mut single_outs = Vec::new();
    for t in &feed {
        single_outs.extend(single.on_tuple(0, t));
    }

    let mut sharded =
        ShardedRuntime::new(vec![Predictor::AdaptiveLinear(schema())], &lp, config(), 1).unwrap();
    for t in &feed {
        sharded.on_tuple(0, t);
    }
    let merged = sharded.finish();

    assert_eq!(merged.stats, single.stats());
    // One shard preserves even the output order.
    let a: Vec<_> = single_outs.iter().map(fingerprint).collect();
    let b: Vec<_> = merged.outputs.iter().map(fingerprint).collect();
    assert_eq!(a, b);
}

/// Noise-free constant streams: each key holds one exact level forever, so
/// an adaptive model locks on the first tuple and every later tuple is
/// suppressed. That makes the full output determined by the first batch —
/// the regime where the hybrid rewrite must be *exactly* equivalent to the
/// unrewritten single-threaded run, not just equivalent up to ε.
fn constant_feed(keys: u64, rounds: usize) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(keys as usize * rounds);
    for r in 0..rounds {
        let ts = r as f64 * 0.05;
        for key in 0..keys {
            out.push(Tuple::new(key, ts, vec![100.0 + 3.0 * key as f64]));
        }
    }
    out
}

fn sorted_fp(outs: &[Segment]) -> Vec<SegPrint> {
    let mut v: Vec<_> = outs.iter().map(fingerprint).collect();
    v.sort();
    v
}

fn run_hybrid(lp: &LogicalPlan, feed: &[Tuple], shards: usize) -> pulse_core::hybrid::HybridRun {
    let hp = partition_rewrite(lp).expect("plan must take the partition rewrite");
    let mut h =
        HybridRuntime::new(vec![Predictor::AdaptiveLinear(schema())], &hp, config(), shards)
            .unwrap();
    // Small sync interval so merge-stage state stays fresh over a short feed.
    h.set_sync_every(16);
    for t in feed {
        h.on_tuple(0, t);
    }
    h.finish()
}

/// The Ne self-join is the canonical non-partitionable plan (no shard owns
/// a cross-key pair). The rewrite runs per-key prefix branches sharded and
/// the join serially in the merge stage — and on a constant feed the
/// result must be bit-for-bit the unrewritten single-threaded run's, at
/// any shard count.
#[test]
fn hybrid_ne_join_matches_unrewritten_single_threaded() {
    let mut lp = LogicalPlan::new(vec![schema()]);
    lp.add(
        LogicalOp::Join { window: 1.0, pred: Pred::True, on_keys: KeyJoin::Ne },
        vec![PortRef::Source(0), PortRef::Source(0)],
    );
    let feed = constant_feed(6, 80);

    let mut single =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &lp, config())
            .unwrap();
    let mut single_outs = Vec::new();
    for t in &feed {
        single_outs.extend(single.on_tuple(0, t));
    }
    assert!(!single_outs.is_empty(), "join never fired");

    let one = run_hybrid(&lp, &feed, 1);
    let four = run_hybrid(&lp, &feed, 4);
    assert_eq!(one.stats, four.stats, "hybrid stats must be shard-count-invariant");
    assert_eq!(
        sorted_fp(&one.outputs),
        sorted_fp(&four.outputs),
        "hybrid outputs must be shard-count-invariant"
    );
    assert_eq!(
        sorted_fp(&one.outputs),
        sorted_fp(&single_outs),
        "hybrid join must match the unrewritten single-threaded run bit-for-bit"
    );
}

/// Ungrouped min over per-key constant levels: the rewrite computes
/// per-key partial envelopes sharded, then a serial global merge. The
/// merge output must be shard-count-invariant bit-for-bit, and every
/// output segment must sit exactly on the global minimum level (key 0's
/// constant 100) — same value the unrewritten single-threaded run reports.
#[test]
fn hybrid_ungrouped_min_is_shard_invariant_and_exact() {
    let mut lp = LogicalPlan::new(vec![schema()]);
    lp.add(
        LogicalOp::Aggregate {
            func: AggFunc::Min,
            attr: 0,
            width: 1.0,
            slide: 0.5,
            group_by_key: false,
        },
        vec![PortRef::Source(0)],
    );
    let feed = constant_feed(6, 80);

    let one = run_hybrid(&lp, &feed, 1);
    let four = run_hybrid(&lp, &feed, 4);
    assert_eq!(one.stats, four.stats, "hybrid stats must be shard-count-invariant");
    assert_eq!(
        sorted_fp(&one.outputs),
        sorted_fp(&four.outputs),
        "hybrid outputs must be shard-count-invariant"
    );
    assert!(!one.outputs.is_empty(), "global min merge produced no output");
    for seg in &one.outputs {
        let mid = 0.5 * (seg.span.lo + seg.span.hi);
        let v = seg.eval(0, mid);
        assert!((v - 100.0).abs() < 1e-6, "global min must be key 0's level, got {v}");
    }

    // The unrewritten single-threaded run fragments its output segments
    // differently (one envelope, no merge syncs), so the comparison with
    // it is value-level: the same exact minimum everywhere.
    let mut single =
        PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &lp, config())
            .unwrap();
    let mut single_outs = Vec::new();
    for t in &feed {
        single_outs.extend(single.on_tuple(0, t));
    }
    assert!(!single_outs.is_empty(), "single-threaded min produced no output");
    for seg in &single_outs {
        let mid = 0.5 * (seg.span.lo + seg.span.hi);
        let v = seg.eval(0, mid);
        assert!((v - 100.0).abs() < 1e-6, "single-threaded min must agree, got {v}");
    }
}

#[test]
fn cross_key_plans_are_refused_with_a_reason() {
    // `following`-style self-join on distinct keys: pairs segments of
    // different keys, so no shard owns the pair — must be refused, not
    // silently mis-executed.
    let mut lp = LogicalPlan::new(vec![schema()]);
    lp.add(
        LogicalOp::Join { window: 1.0, pred: Pred::True, on_keys: KeyJoin::Ne },
        vec![PortRef::Source(0), PortRef::Source(0)],
    );
    let err = ShardedRuntime::new(vec![Predictor::AdaptiveLinear(schema())], &lp, config(), 2)
        .unwrap_err();
    let ShardError::NotPartitionable(v) = &err else {
        panic!("expected NotPartitionable, got {err:?}")
    };
    assert_eq!(v.node, 0);
    assert!(err.to_string().contains("key-inequality join"), "error must say why: {err}");
    // Callers can fall back: the same plan still runs single-threaded.
    PulseRuntime::with_predictors(vec![Predictor::AdaptiveLinear(schema())], &lp, config())
        .expect("single-threaded fallback must work");
}
