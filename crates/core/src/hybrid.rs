//! Hybrid execution of partition-rewritten plans: sharded prefix workers
//! plus a single-threaded merge stage.
//!
//! [`crate::shard::ShardedRuntime`] rejects any plan with a cross-key
//! operator, forcing a wholesale fall back to one thread — and the
//! single-threaded fallback is doubly slow, because a non-partitionable
//! plan also disables the runtime's deferred solve batching
//! ([`PulseRuntime::batchable`]). The partition rewrite
//! ([`pulse_stream::partition_rewrite`]) splits such a plan into
//! key-partitionable branch plans plus an explicit serial merge stage;
//! [`HybridRuntime`] executes that shape:
//!
//! * Each worker thread owns one [`PulseRuntime`] **per branch** — full
//!   predictive runtimes (models, validator, lineage) over the keys a hash
//!   assigns the worker. Branch plans are partitionable by construction,
//!   so batching is back on and bound inversion stops at the shallow
//!   branch sinks.
//! * The merge stage is a bare [`CPlan`] on the router thread. It consumes
//!   the branches' *result segments* — the sparse, already-validated model
//!   stream — so it needs no validator of its own; the accuracy contract
//!   is enforced at the branch sinks (where the original plan's cross-key
//!   operator read its input).
//!
//! Merge inputs are synchronized at deterministic points — every
//! [`HybridRuntime::SYNC_EVERY`] routed tuples and at finish — by draining
//! all workers and feeding the merge stage in a canonical order (segment
//! start time, then branch, then key). Per-key segment content does not
//! depend on shard count (keys never share operator state), so the merge
//! stage sees an identical input sequence — and produces identical
//! outputs — at any shard count.
//!
//! Explain/trace/audit surfaces are not plumbed through the hybrid path
//! yet; use the single-threaded fallback when provenance matters more
//! than throughput.

use crate::plan::CPlan;
use crate::runtime::{Predictor, PulseRuntime, RuntimeConfig, RuntimeStats};
use crate::shard::{splitmix64, ShardError, ShardedRuntime, DEFAULT_BATCH};
use crate::validate::ValidatorStats;
use crossbeam::channel::{bounded, Sender};
use pulse_model::{Segment, Tuple};
use pulse_obs::PhaseTable;
use pulse_stream::{partition_rewrite, HybridPlan, LogicalPlan, OpMetrics, Optimizer, PassStat};
use std::thread::JoinHandle;

/// Batches in flight per worker before `send` blocks (mirrors the sharded
/// runtime's backpressure depth).
const CHANNEL_DEPTH: usize = 4;

/// Work sent to a hybrid prefix worker.
enum HMsg {
    // Debug is hand-rolled below: batches would dump whole tuples.
    /// `(branch, local_source, tuple)` triples, all keys owned by this
    /// worker. `local_source` indexes the branch plan's own sources.
    Batch(Vec<(usize, usize, Tuple)>),
    /// Hand back every result segment produced since the last drain,
    /// tagged with its branch, in emission order.
    Drain(Sender<Vec<(usize, Segment)>>),
    /// Garbage-collect plan state and lineage older than `t` in every
    /// branch runtime.
    Gc(f64),
    /// Publish per-branch counters into the global registry (live scrape).
    Export,
    /// Stop the worker loop.
    Shutdown,
}

impl std::fmt::Debug for HMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HMsg::Batch(b) => f.debug_tuple("Batch").field(&b.len()).finish(),
            HMsg::Drain { .. } => f.write_str("Drain"),
            HMsg::Gc(t) => f.debug_tuple("Gc").field(t).finish(),
            HMsg::Export => f.write_str("Export"),
            HMsg::Shutdown => f.write_str("Shutdown"),
        }
    }
}

/// What one prefix worker hands back at end of stream.
struct HShardResult {
    stats: RuntimeStats,
    validator: ValidatorStats,
    metrics: OpMetrics,
    phases: PhaseTable,
}

/// Merged end-of-run totals for a hybrid run.
#[derive(Debug, Default)]
pub struct HybridRun {
    /// Summed prefix runtime counters (all workers, all branches). The
    /// merge stage consumes segments, not tuples, so it contributes no
    /// runtime counters — its operator counters land in `metrics`.
    pub stats: RuntimeStats,
    /// Summed prefix validation counters.
    pub validator: ValidatorStats,
    /// Summed continuous-operator counters: prefix branches plus the
    /// merge stage.
    pub metrics: OpMetrics,
    /// Summed violation-path phase attribution (prefix only).
    pub phases: PhaseTable,
    /// The merge stage's sink outputs, in canonical merge order.
    pub outputs: Vec<Segment>,
}

/// Executes a [`HybridPlan`]: sharded branch runtimes feeding a serial
/// merge-stage [`CPlan`] at deterministic sync points.
pub struct HybridRuntime {
    txs: Vec<Sender<HMsg>>,
    handles: Vec<JoinHandle<HShardResult>>,
    /// Per-worker batch under construction.
    pending: Vec<Vec<(usize, usize, Tuple)>>,
    batch: usize,
    /// Routed tuples between merge synchronizations.
    sync_every: usize,
    since_sync: usize,
    /// `feeds[original_source]` = every `(branch, local_source)` that
    /// consumes it (a source shared by two branches fans out).
    feeds: Vec<Vec<(usize, usize)>>,
    /// `wiring[suffix_source] = branch` (from the rewrite).
    wiring: Vec<usize>,
    suffix: CPlan,
    /// Merge-stage sink outputs accumulated across sync points.
    outputs: Vec<Segment>,
    /// Rewrite provenance (surfaced via [`Self::note`]).
    note: String,
}

impl std::fmt::Debug for HybridRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridRuntime")
            .field("shards", &self.handles.len())
            .field("branches", &self.feeds.iter().flatten().map(|(b, _)| b).max())
            .finish_non_exhaustive()
    }
}

impl HybridRuntime {
    /// Default merge synchronization interval, in routed tuples. Small
    /// enough that merge-stage state stays fresh relative to branch
    /// windows, large enough to amortize the drain round-trip.
    pub const SYNC_EVERY: usize = 1024;

    /// Builds `shards` prefix workers (each owning one runtime per branch)
    /// and compiles the merge stage. Fails fast — before spawning — if any
    /// piece of the rewritten plan does not transform.
    pub fn new(
        predictors: Vec<Predictor>,
        hp: &HybridPlan,
        cfg: RuntimeConfig,
        shards: usize,
    ) -> Result<Self, ShardError> {
        assert!(shards >= 1, "need at least one shard");
        for b in &hp.branches {
            assert!(
                b.plan.is_key_partitionable(),
                "partition rewrite must produce partitionable branches"
            );
            // Compile once here so the per-worker compiles cannot fail.
            CPlan::compile(&b.plan)?;
        }
        let suffix = CPlan::compile(&hp.suffix)?;
        let n_sources = hp.branches.iter().flat_map(|b| &b.sources).max().map_or(0, |&s| s + 1);
        assert_eq!(predictors.len(), n_sources, "one predictor per original source");
        let mut feeds = vec![Vec::new(); n_sources];
        for (bi, b) in hp.branches.iter().enumerate() {
            for (local, &orig) in b.sources.iter().enumerate() {
                feeds[orig].push((bi, local));
            }
        }
        let mut txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = bounded::<HMsg>(CHANNEL_DEPTH);
            let branches: Vec<(Vec<Predictor>, LogicalPlan)> = hp
                .branches
                .iter()
                .map(|b| {
                    let preds = b.sources.iter().map(|&o| predictors[o].clone()).collect();
                    (preds, b.plan.clone())
                })
                .collect();
            let cfg = cfg.clone();
            let handle = std::thread::Builder::new()
                .name(format!("pulse-hybrid-{i}"))
                .spawn(move || {
                    let mut rts: Vec<PulseRuntime> = branches
                        .into_iter()
                        .map(|(preds, lp)| {
                            PulseRuntime::with_predictors(preds, &lp, cfg.clone())
                                .expect("branch compiled before spawn")
                        })
                        .collect();
                    // Branch-tagged result segments since the last drain.
                    let mut buffer: Vec<(usize, Segment)> = Vec::new();
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            HMsg::Batch(batch) => {
                                if rts.len() == 1 {
                                    let pairs: Vec<(usize, Tuple)> =
                                        batch.into_iter().map(|(_, ls, t)| (ls, t)).collect();
                                    buffer.extend(
                                        rts[0].on_pairs(&pairs).into_iter().map(|s| (0, s)),
                                    );
                                } else {
                                    let mut per: Vec<Vec<(usize, Tuple)>> =
                                        vec![Vec::new(); rts.len()];
                                    for (b, ls, t) in batch {
                                        per[b].push((ls, t));
                                    }
                                    for (b, pairs) in per.into_iter().enumerate() {
                                        if pairs.is_empty() {
                                            continue;
                                        }
                                        buffer.extend(
                                            rts[b].on_pairs(&pairs).into_iter().map(|s| (b, s)),
                                        );
                                    }
                                }
                            }
                            HMsg::Drain(reply) => {
                                let _ = reply.send(std::mem::take(&mut buffer));
                            }
                            HMsg::Gc(t) => {
                                for rt in &mut rts {
                                    rt.gc_before(t);
                                }
                            }
                            HMsg::Export => export_worker(&rts, i),
                            HMsg::Shutdown => break,
                        }
                    }
                    if pulse_obs::enabled() {
                        export_worker(&rts, i);
                    }
                    let mut r = HShardResult {
                        stats: RuntimeStats::default(),
                        validator: ValidatorStats::default(),
                        metrics: OpMetrics::default(),
                        phases: PhaseTable::default(),
                    };
                    for rt in &rts {
                        r.stats.absorb(&rt.stats());
                        r.validator.absorb(&rt.validator().stats());
                        r.metrics.absorb(&rt.plan().metrics());
                        r.phases.absorb(rt.phases());
                    }
                    r
                })
                .expect("spawn hybrid worker");
            txs.push(tx);
            handles.push(handle);
        }
        Ok(HybridRuntime {
            txs,
            handles,
            pending: vec![Vec::new(); shards],
            batch: DEFAULT_BATCH,
            sync_every: Self::SYNC_EVERY,
            since_sync: 0,
            feeds,
            wiring: hp.wiring.clone(),
            suffix,
            outputs: Vec::new(),
            note: hp.note.clone(),
        })
    }

    /// Number of prefix workers.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// The rewrite's provenance line (for explain surfaces and logs).
    pub fn note(&self) -> &str {
        &self.note
    }

    /// Overrides the tuples-per-message batch size.
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Overrides the merge synchronization interval. Results are
    /// independent of the interval; it only trades merge latency against
    /// drain round-trips.
    pub fn set_sync_every(&mut self, every: usize) {
        self.sync_every = every.max(1);
    }

    /// Which worker owns a key (same hash as the sharded runtime).
    pub fn shard_of(&self, key: u64) -> usize {
        (splitmix64(key) % self.txs.len() as u64) as usize
    }

    /// Routes one tuple to its key's worker, fanning out to every branch
    /// that consumes `source`. Merge outputs surface at [`Self::finish`].
    pub fn on_tuple(&mut self, source: usize, tuple: &Tuple) {
        let s = self.shard_of(tuple.key);
        for &(branch, local) in &self.feeds[source] {
            self.pending[s].push((branch, local, tuple.clone()));
        }
        if self.pending[s].len() >= self.batch {
            self.flush(s);
        }
        self.since_sync += 1;
        if self.since_sync >= self.sync_every {
            self.sync();
        }
    }

    /// Asks every branch runtime to garbage-collect plan state and lineage
    /// older than `t` ([`PulseRuntime::gc_before`]). The merge stage is not
    /// collected. Flushes pending batches first so GC stays ordered.
    pub fn gc_before(&mut self, t: f64) {
        for s in 0..self.txs.len() {
            self.flush(s);
            self.txs[s].send(HMsg::Gc(t)).expect("hybrid worker alive");
        }
    }

    /// Publishes every worker's counters (labeled by shard and branch)
    /// plus the merge stage's (labeled `stage="merge"`) for live scraping.
    pub fn publish_metrics(&mut self) {
        for s in 0..self.txs.len() {
            self.flush(s);
            self.txs[s].send(HMsg::Export).expect("hybrid worker alive");
        }
        if pulse_obs::enabled() {
            self.suffix.export_metrics_labeled(pulse_obs::global(), &[("stage", "merge")]);
            pulse_obs::timeseries::store().sample(&pulse_obs::global().snapshot());
        }
    }

    fn flush(&mut self, shard: usize) {
        if self.pending[shard].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending[shard]);
        self.txs[shard].send(HMsg::Batch(batch)).expect("hybrid worker alive");
    }

    /// Synchronizes the merge stage: flushes and drains every worker, then
    /// feeds the tagged segments to the merge plan in canonical order —
    /// `(span.lo, branch, key)`, ties left in worker emission order (ties
    /// share a key, and a key lives on one worker, so the order is
    /// deterministic and independent of shard count).
    fn sync(&mut self) {
        self.since_sync = 0;
        for s in 0..self.txs.len() {
            self.flush(s);
        }
        let mut merged: Vec<(usize, Segment)> = Vec::new();
        let mut replies = Vec::with_capacity(self.txs.len());
        for tx in &self.txs {
            let (reply_tx, reply_rx) = bounded(1);
            tx.send(HMsg::Drain(reply_tx)).expect("hybrid worker alive");
            replies.push(reply_rx);
        }
        for rx in replies {
            merged.extend(rx.recv().expect("hybrid worker alive"));
        }
        merged.sort_by(|a, b| {
            a.1.span.lo.total_cmp(&b.1.span.lo).then(a.0.cmp(&b.0)).then(a.1.key.cmp(&b.1.key))
        });
        for (branch, seg) in merged {
            // A self-join wires one branch to both merge sources; feed
            // them in ascending source order, like the unrewritten plan's
            // own fan-out would.
            for (src, &b) in self.wiring.iter().enumerate() {
                if b == branch {
                    self.outputs.extend(self.suffix.push(src, &seg));
                }
            }
        }
    }

    /// Ends the stream: final merge synchronization, worker shutdown and
    /// join, merge-stage flush, and counter roll-up.
    pub fn finish(mut self) -> HybridRun {
        self.sync();
        for tx in &self.txs {
            tx.send(HMsg::Shutdown).expect("hybrid worker alive");
        }
        self.txs.clear();
        let mut run = HybridRun::default();
        for h in self.handles.drain(..) {
            let r = h.join().expect("hybrid worker panicked");
            run.stats.absorb(&r.stats);
            run.validator.absorb(&r.validator);
            run.metrics.absorb(&r.metrics);
            run.phases.absorb(&r.phases);
        }
        self.outputs.extend(self.suffix.finish());
        run.metrics.absorb(&self.suffix.metrics());
        run.outputs = std::mem::take(&mut self.outputs);
        run
    }
}

/// Per-worker live export: every branch runtime's counters under
/// `shard`/`branch` labels.
fn export_worker(rts: &[PulseRuntime], shard: usize) {
    if !pulse_obs::enabled() {
        return;
    }
    for (b, rt) in rts.iter().enumerate() {
        rt.export_metrics_labeled(
            pulse_obs::global(),
            &[("shard", &shard.to_string()), ("branch", &b.to_string())],
        );
    }
}

/// Publishes the optimizer's per-pass counters as `opt.*` gauges:
/// `opt.<pass>.applied`, `opt.<pass>.skipped`, and whether the partition
/// rewrite kicked in (`opt.partition.applied`).
pub fn export_opt_metrics(stats: &[PassStat], partition_applied: bool) {
    if !pulse_obs::enabled() {
        return;
    }
    let reg = pulse_obs::global();
    for s in stats {
        reg.counter(&format!("opt.{}.applied", s.name)).set(s.applied);
        reg.counter(&format!("opt.{}.skipped", s.name)).set(s.skipped);
    }
    reg.counter("opt.partition.applied").set(partition_applied as u64);
}

/// Parallel execution with optimizer fallback: the front door callers use
/// instead of picking [`ShardedRuntime`] or [`HybridRuntime`] by hand.
///
/// With [`RuntimeConfig::optimize`] off this is exactly
/// [`ShardedRuntime::new`] (plans run as written; non-partitionable plans
/// are rejected). With it on, the plan first runs through the
/// normalization passes, and a non-partitionable result falls back to the
/// partition rewrite instead of an error.
#[derive(Debug)]
pub enum AutoRuntime {
    Sharded(ShardedRuntime),
    Hybrid(HybridRuntime),
}

/// End-of-run result from an [`AutoRuntime`].
pub enum AutoRun {
    Sharded(crate::shard::MergedRun),
    Hybrid(HybridRun),
}

impl AutoRun {
    /// The run's sink outputs, whichever mode produced them.
    pub fn outputs(&self) -> &[Segment] {
        match self {
            AutoRun::Sharded(r) => &r.outputs,
            AutoRun::Hybrid(r) => &r.outputs,
        }
    }

    /// The run's summed runtime counters.
    pub fn stats(&self) -> &RuntimeStats {
        match self {
            AutoRun::Sharded(r) => &r.stats,
            AutoRun::Hybrid(r) => &r.stats,
        }
    }
}

impl AutoRuntime {
    /// Builds the best parallel runtime the config allows for `logical`.
    /// Also publishes the `opt.*` pass counters when observability is on.
    pub fn new(
        predictors: Vec<Predictor>,
        logical: &LogicalPlan,
        cfg: RuntimeConfig,
        shards: usize,
    ) -> Result<Self, ShardError> {
        if !cfg.optimize {
            return Ok(AutoRuntime::Sharded(ShardedRuntime::new(
                predictors, logical, cfg, shards,
            )?));
        }
        let opt = Optimizer::standard().run(logical);
        if opt.plan.is_key_partitionable() {
            export_opt_metrics(&opt.stats, false);
            return Ok(AutoRuntime::Sharded(ShardedRuntime::new(
                predictors, &opt.plan, cfg, shards,
            )?));
        }
        match partition_rewrite(&opt.plan) {
            Some(hp) => {
                export_opt_metrics(&opt.stats, true);
                Ok(AutoRuntime::Hybrid(HybridRuntime::new(predictors, &hp, cfg, shards)?))
            }
            None => {
                export_opt_metrics(&opt.stats, false);
                let v = opt.plan.key_partition_violation().expect("not partitionable");
                Err(ShardError::NotPartitionable(v))
            }
        }
    }

    /// True when the partition rewrite is carrying this run.
    pub fn is_hybrid(&self) -> bool {
        matches!(self, AutoRuntime::Hybrid(_))
    }

    /// Routes one tuple (see the underlying runtimes' `on_tuple`).
    pub fn on_tuple(&mut self, source: usize, tuple: &Tuple) {
        match self {
            AutoRuntime::Sharded(rt) => rt.on_tuple(source, tuple),
            AutoRuntime::Hybrid(rt) => rt.on_tuple(source, tuple),
        }
    }

    /// Garbage-collects plan state and lineage older than `t` in every
    /// worker runtime.
    pub fn gc_before(&mut self, t: f64) {
        match self {
            AutoRuntime::Sharded(rt) => rt.gc_before(t),
            AutoRuntime::Hybrid(rt) => rt.gc_before(t),
        }
    }

    /// Ends the stream and merges counters and outputs.
    pub fn finish(self) -> AutoRun {
        match self {
            AutoRuntime::Sharded(rt) => AutoRun::Sharded(rt.finish()),
            AutoRuntime::Hybrid(rt) => AutoRun::Hybrid(rt.finish()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_model::{AttrKind, Expr, ModelSpec, Pred, Schema, StreamModel};
    use pulse_stream::{AggFunc, LogicalOp, PortRef};

    fn source() -> (Schema, StreamModel) {
        let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
        let sm = StreamModel::new(
            schema.clone(),
            vec![ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time)],
        )
        .unwrap();
        (schema, sm)
    }

    fn min_plan(schema: Schema) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![schema]);
        lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Min,
                attr: 0,
                width: 1e6,
                slide: 1.0,
                group_by_key: false,
            },
            vec![PortRef::Source(0)],
        );
        lp
    }

    #[test]
    fn hybrid_runs_a_non_partitionable_min() {
        let (schema, sm) = source();
        let lp = min_plan(schema);
        let hp = partition_rewrite(&lp).expect("must split");
        let cfg = RuntimeConfig { horizon: 1e6, bound: 1.0, ..Default::default() };
        let mut rt =
            HybridRuntime::new(vec![Predictor::Clause(sm)], &hp, cfg, 2).expect("build hybrid");
        rt.set_batch(2);
        // Keys 0..4 at constant levels 10, 11, 12, 13: the global min is 10.
        for key in 0..4u64 {
            rt.on_tuple(0, &Tuple::new(key, 0.0, vec![10.0 + key as f64, 0.0]));
        }
        rt.gc_before(0.0);
        let run = rt.finish();
        assert_eq!(run.stats.tuples_in, 4);
        assert!(!run.outputs.is_empty(), "merge stage must emit the global envelope");
        // Every output piece tracks the winning key's level; the winner
        // everywhere is key 0 at 10.
        let last = run.outputs.last().unwrap();
        assert!((last.models[0].eval(last.span.lo) - 10.0).abs() < 1e-9, "{last:?}");
    }

    #[test]
    fn auto_runtime_picks_hybrid_only_when_asked() {
        let (schema, sm) = source();
        let lp = min_plan(schema);
        // optimize off: same rejection as the plain sharded runtime.
        let err =
            AutoRuntime::new(vec![Predictor::Clause(sm.clone())], &lp, RuntimeConfig::default(), 2)
                .unwrap_err();
        assert!(matches!(err, ShardError::NotPartitionable(_)));
        // optimize on: partition rewrite carries it.
        let cfg = RuntimeConfig { optimize: true, ..Default::default() };
        let rt = AutoRuntime::new(vec![Predictor::Clause(sm)], &lp, cfg, 2).unwrap();
        assert!(rt.is_hybrid());
        rt.finish();
    }

    #[test]
    fn auto_runtime_still_shards_partitionable_plans() {
        let (schema, sm) = source();
        let mut lp = LogicalPlan::new(vec![schema]);
        lp.add(LogicalOp::Filter { pred: Pred::True }, vec![PortRef::Source(0)]);
        let cfg = RuntimeConfig { optimize: true, ..Default::default() };
        let mut rt = AutoRuntime::new(vec![Predictor::Clause(sm)], &lp, cfg, 2).unwrap();
        assert!(!rt.is_hybrid());
        rt.on_tuple(0, &Tuple::new(7, 0.0, vec![1.0, 0.0]));
        let run = rt.finish();
        assert_eq!(run.stats().tuples_in, 1);
        assert_eq!(run.outputs().len(), 1);
    }
}
