//! Plan optimizer: normalization passes plus the partition rewrite.
//!
//! Queries are algebra over the *continuous* interpretation of the stream,
//! so rewrites must preserve the discrete interpretation too ("Sequences,
//! yet Functions": both views of the same query). Every pass here is
//! therefore written against the engine-neutral [`LogicalPlan`] and proved
//! equivalent by pulse-qa's differential oracle (`opt_equiv`), not by
//! construction.
//!
//! The framework is a small fixpoint driver in the spirit of classic
//! normalization-pass optimizers: each [`Pass`] either returns a rewritten
//! plan (with a node index map, since a pass may renumber nodes) or `None`
//! when the plan is already normal with respect to it. The driver loops the
//! pass list until no pass fires, counting applications and skips per pass
//! in [`Optimized::stats`].
//!
//! The payoff pass is [`partition_rewrite`]: it takes a plan rejected by
//! [`LogicalPlan::is_key_partitionable`] and, when the single cross-key
//! operator sits on a partitionable prefix, splits the plan into sharded
//! per-key branch plans plus an explicit single-threaded merge stage (a
//! [`HybridPlan`]), instead of the runtime falling back wholesale to one
//! thread.

pub mod partition;
pub mod prune;
pub mod pushdown;

pub use partition::{partition_rewrite, BranchPlan, HybridPlan};
pub use prune::ProjectionPrune;
pub use pushdown::PredicatePushdown;

use crate::logical::{LogicalPlan, PortRef};

/// Result of one successful pass application.
pub struct Rewrite {
    pub plan: LogicalPlan,
    /// `node_map[old] = new` — identity for in-place rewrites, shifted when
    /// a pass inserts nodes. Lets callers track sink indices through the
    /// pipeline.
    pub node_map: Vec<usize>,
    /// Human-readable provenance line ("filter n2 pushed below map n1").
    pub note: String,
}

/// A plan-normalization transform.
pub trait Pass {
    fn name(&self) -> &'static str;
    /// Applies the pass once (first applicable site wins); `None` when the
    /// plan is already normal with respect to this pass.
    fn apply(&self, plan: &LogicalPlan) -> Option<Rewrite>;
}

/// Per-pass apply/skip counters of one optimizer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStat {
    pub name: &'static str,
    /// Number of rewrites this pass performed.
    pub applied: u64,
    /// Number of fixpoint rounds where the pass found nothing to do.
    pub skipped: u64,
}

/// An optimized plan with its provenance.
pub struct Optimized {
    pub plan: LogicalPlan,
    /// Composed node map from the input plan's node indices to the output
    /// plan's (use it to re-locate the sink).
    pub node_map: Vec<usize>,
    pub stats: Vec<PassStat>,
    /// One provenance line per applied rewrite, in application order.
    pub notes: Vec<String>,
}

/// Fixpoint cap: no sane plan needs more rounds, and a buggy pass pair that
/// ping-pongs must terminate rather than hang the planner.
const MAX_ROUNDS: usize = 64;

/// Fixpoint driver over a pass list.
pub struct Optimizer {
    passes: Vec<Box<dyn Pass>>,
}

impl Optimizer {
    /// The standard normalization pipeline: predicate pushdown, then
    /// projection pruning (pushdown first — a pushed filter can strand a
    /// map attribute that pruning then removes).
    pub fn standard() -> Self {
        Optimizer { passes: vec![Box::new(PredicatePushdown), Box::new(ProjectionPrune)] }
    }

    /// An optimizer with an explicit pass list.
    pub fn with_passes(passes: Vec<Box<dyn Pass>>) -> Self {
        Optimizer { passes }
    }

    /// Runs every pass to a joint fixpoint.
    pub fn run(&self, plan: &LogicalPlan) -> Optimized {
        let mut out = Optimized {
            plan: plan.clone(),
            node_map: (0..plan.nodes.len()).collect(),
            stats: self
                .passes
                .iter()
                .map(|p| PassStat { name: p.name(), applied: 0, skipped: 0 })
                .collect(),
            notes: Vec::new(),
        };
        for _ in 0..MAX_ROUNDS {
            let mut fired = false;
            for (i, pass) in self.passes.iter().enumerate() {
                match pass.apply(&out.plan) {
                    Some(rw) => {
                        out.node_map = out.node_map.iter().map(|&n| rw.node_map[n]).collect();
                        out.plan = rw.plan;
                        out.notes.push(format!("{}: {}", pass.name(), rw.note));
                        out.stats[i].applied += 1;
                        fired = true;
                    }
                    None => out.stats[i].skipped += 1,
                }
            }
            if !fired {
                return out;
            }
        }
        out
    }
}

/// How many nodes consume each node's output (sinks score zero).
pub(crate) fn consumer_counts(plan: &LogicalPlan) -> Vec<usize> {
    let mut counts = vec![0usize; plan.nodes.len()];
    for n in &plan.nodes {
        for p in &n.inputs {
            if let PortRef::Node(i) = p {
                counts[*i] += 1;
            }
        }
    }
    counts
}

/// Rebuilds `plan` with `op` inserted at index `at` (its inputs given in
/// old indices, which must all precede `at`); every node at or after `at`
/// shifts up by one and references are renumbered. Returns the new plan and
/// the old→new node map (the inserted node is not in the map — it is new).
pub(crate) fn insert_node(
    plan: &LogicalPlan,
    at: usize,
    op: crate::logical::LogicalOp,
    inputs: Vec<PortRef>,
) -> (LogicalPlan, Vec<usize>) {
    let bump = |p: &PortRef| match p {
        PortRef::Node(i) if *i >= at => PortRef::Node(i + 1),
        other => *other,
    };
    let mut new = LogicalPlan::new(plan.sources.clone());
    for (i, n) in plan.nodes.iter().enumerate() {
        if i == at {
            new.nodes.push(crate::logical::LogicalNode { op: op.clone(), inputs: inputs.clone() });
        }
        new.nodes.push(crate::logical::LogicalNode {
            op: n.op.clone(),
            inputs: n.inputs.iter().map(&bump).collect(),
        });
    }
    if at == plan.nodes.len() {
        new.nodes.push(crate::logical::LogicalNode { op, inputs });
    }
    let node_map = (0..plan.nodes.len()).map(|i| if i >= at { i + 1 } else { i }).collect();
    (new, node_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggFunc, LogicalOp};
    use pulse_math::CmpOp;
    use pulse_model::{AttrKind, Expr, Pred, Schema};

    fn src() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)])
    }

    #[test]
    fn fixpoint_converges_and_counts() {
        // map → filter chain: pushdown fires once, then both passes skip.
        let mut p = LogicalPlan::new(vec![src()]);
        let m = p.add(
            LogicalOp::Map {
                exprs: vec![Expr::attr(0) * Expr::c(2.0)],
                schema: Schema::of(&[("y", AttrKind::Modeled)]),
            },
            vec![PortRef::Source(0)],
        );
        p.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(1.0)) },
            vec![m],
        );
        let opt = Optimizer::standard().run(&p);
        let push = &opt.stats[0];
        assert_eq!(push.name, "pushdown");
        assert_eq!(push.applied, 1, "{:?}", opt.stats);
        assert!(push.skipped >= 1, "must also record the converged round");
        assert_eq!(opt.notes.len(), 1);
        assert_eq!(opt.node_map, vec![0, 1], "in-place swap keeps indices");
        // The rewritten plan filters first, maps second.
        assert!(matches!(opt.plan.nodes[0].op, LogicalOp::Filter { .. }));
        assert!(matches!(opt.plan.nodes[1].op, LogicalOp::Map { .. }));
    }

    #[test]
    fn insert_node_renumbers_references() {
        let mut p = LogicalPlan::new(vec![src()]);
        let f = p.add(LogicalOp::Filter { pred: Pred::True }, vec![PortRef::Source(0)]);
        p.add(
            LogicalOp::Aggregate {
                func: AggFunc::Min,
                attr: 0,
                width: 2.0,
                slide: 1.0,
                group_by_key: true,
            },
            vec![f],
        );
        let (new, map) =
            insert_node(&p, 1, LogicalOp::Filter { pred: Pred::True }, vec![PortRef::Node(0)]);
        assert_eq!(new.nodes.len(), 3);
        assert_eq!(map, vec![0, 2]);
        // The old aggregate (now n2) still reads the old filter (index
        // unchanged — it precedes the insertion point); callers rewire.
        assert_eq!(new.nodes[2].inputs, vec![PortRef::Node(0)]);
        assert_eq!(new.nodes[1].inputs, vec![PortRef::Node(0)]);
        // Until the caller rewires a consumer onto it, the inserted node
        // dangles as a second sink.
        assert_eq!(new.sinks(), vec![1, 2]);
    }
}
