//! Key-partitioned parallel execution: one executor for keyed and hybrid
//! plans.
//!
//! [`Executor`] hash-partitions stream keys across N worker threads. Each
//! worker owns one complete [`PulseRuntime`] (plan, lineage, validator) per
//! *branch* of the plan, over its keys. Per-key models (§II-B) make this
//! sound whenever a branch keeps keys separate (joins match keys exactly,
//! aggregates group by key), and each worker's operator state shrinks to
//! ~1/N of the keys. Two plan shapes run on it ([`ExecPlan`]):
//!
//! * A key-partitionable [`LogicalPlan`] is one branch with no merge stage.
//!   Plans that mix keys are rejected with [`ShardError::NotPartitionable`];
//!   callers run them on one [`PulseRuntime`] or split them with
//!   [`pulse_stream::partition_rewrite`].
//! * A [`HybridPlan`] (the rewrite's output) adds a serial merge stage: a
//!   bare [`CPlan`] on the router thread fed the branches' *result
//!   segments* — the sparse, already-validated model stream — so it needs
//!   no validator; the accuracy contract is enforced at the branch sinks.
//!   Merge inputs are synchronized every [`Executor::SYNC_EVERY`] routed
//!   tuples and at finish, in a canonical order (segment start, branch,
//!   key), so the merge outputs do not depend on the shard count.
//!
//! Tuples travel in per-worker, per-branch batches over bounded channels,
//! in order per worker. Explain, trace and audit queries use the same
//! channels and run on the owning worker, so every plan shape serves them.

use crate::plan::{CPlan, TransformError};
use crate::runtime::{Predictor, PulseRuntime, RuntimeConfig, RuntimeStats};
use crate::validate::ValidatorStats;
use crossbeam::channel::{bounded, Receiver, Sender};
use pulse_model::{Segment, Tuple};
use pulse_obs::{AuditLedger, ExplainReport, PhaseTable, TraceEvent};
use pulse_stream::{HybridPlan, LogicalPlan, OpMetrics, PartitionViolation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tuples per channel message. Large enough that the per-message mutex
/// and allocation cost vanishes against per-tuple work, small enough that
/// batches stay cache-resident and backpressure stays responsive.
pub const DEFAULT_BATCH: usize = 256;

/// Batches in flight per worker before `send` blocks (backpressure).
const CHANNEL_DEPTH: usize = 4;

/// Why an executor could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The plan mixes keys inside an operator and cannot be partitioned;
    /// run it single-threaded instead.
    NotPartitionable(PartitionViolation),
    /// The plan failed the continuous transform (would fail single-threaded
    /// too); surfaced here so workers never panic on compile.
    Transform(TransformError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NotPartitionable(v) => write!(f, "plan is not key-partitionable: {v}"),
            ShardError::Transform(e) => write!(f, "continuous transform failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<TransformError> for ShardError {
    fn from(e: TransformError) -> Self {
        ShardError::Transform(e)
    }
}

/// What an [`Executor`] runs.
#[derive(Debug, Clone, Copy)]
pub enum ExecPlan<'a> {
    /// A key-partitionable plan: one branch, no merge stage.
    Keyed(&'a LogicalPlan),
    /// A partition-rewritten plan: sharded branches plus a serial merge stage.
    Hybrid(&'a HybridPlan),
}

impl<'a> From<&'a LogicalPlan> for ExecPlan<'a> {
    fn from(lp: &'a LogicalPlan) -> Self {
        ExecPlan::Keyed(lp)
    }
}

impl<'a> From<&'a HybridPlan> for ExecPlan<'a> {
    fn from(hp: &'a HybridPlan) -> Self {
        ExecPlan::Hybrid(hp)
    }
}

/// Work sent to a worker. Replies travel over one-shot channels.
enum Msg {
    /// `(local_source, tuple)` pairs for one branch (`local_source`
    /// indexes the branch plan's sources), all keys owned by this worker.
    Batch { branch: usize, pairs: Vec<(usize, Tuple)> },
    /// Hand back each branch's result segments since the last drain, in order.
    Drain(Sender<Vec<Vec<Segment>>>),
    /// [`PulseRuntime::gc_before`] on every branch runtime.
    Gc(f64),
    /// Answer a provenance query on the thread owning the flight recorders.
    Explain { key: u64, t0: f64, t1: f64, reply: Sender<ExplainReport> },
    /// Publish this worker's counters into the global registry under a
    /// `shard="i"` label (live scrapes; shutdown always exports).
    Export,
    /// Copy the worker's flight-recorder rings (the `/trace.json` path).
    Trace(Sender<Vec<TraceEvent>>),
    /// Copy the worker's guarantee-audit ledger (the `/audit` path).
    Audit(Sender<AuditLedger>),
    /// Stop the worker even while [`ExplainHandle`] clones hold the channel.
    Shutdown,
}

/// Merged end-of-run totals across all workers (each worker hands back one
/// of these for its own branch runtimes).
#[derive(Debug, Default)]
pub struct MergedRun {
    /// Summed runtime counters (every worker, every branch). A merge stage
    /// consumes segments, not tuples, so it contributes no runtime
    /// counters — its operator counters land in `metrics`.
    pub stats: RuntimeStats,
    /// Summed validation counters.
    pub validator: ValidatorStats,
    /// Summed continuous-operator counters, merge stage included.
    pub metrics: OpMetrics,
    /// Summed violation-path phase attribution (empty unless the profiler
    /// was enabled, see [`pulse_obs::set_prof_enabled`]).
    pub phases: PhaseTable,
    /// Merged per-key guarantee ledgers from every branch runtime's shadow
    /// auditor (empty unless [`RuntimeConfig::audit_rate`] was non-zero).
    pub audit: AuditLedger,
    /// Keyed plans: every worker's result segments, concatenated worker by
    /// worker (order across workers is not meaningful; per-key order is
    /// preserved). Hybrid plans: the merge stage's sink outputs, in
    /// canonical merge order.
    pub outputs: Vec<Segment>,
}

impl MergedRun {
    /// Totals of one worker's branch runtimes (outputs left empty).
    fn of(rts: &[PulseRuntime]) -> MergedRun {
        let mut run = MergedRun::default();
        for rt in rts {
            run.stats.absorb(&rt.stats());
            run.validator.absorb(&rt.validator().stats());
            run.metrics.absorb(&rt.plan().metrics());
            run.phases.absorb(rt.phases());
            if let Some(ledger) = rt.audit_ledger() {
                run.audit.absorb(ledger);
            }
        }
        run
    }
}

/// A hybrid plan's serial merge stage, run on the router thread.
struct Merge {
    plan: CPlan,
    /// `wiring[merge_source] = branch` (from the rewrite).
    wiring: Vec<usize>,
    /// Routed tuples between merge synchronizations.
    sync_every: usize,
    since_sync: usize,
    /// Merge-stage sink outputs accumulated across sync points.
    outputs: Vec<Segment>,
}

/// The parallel predictive processor: router plus key-partitioned workers,
/// and a serial merge stage for hybrid plans.
pub struct Executor {
    /// The workers' channels.
    chan: ExplainHandle,
    workers: Vec<JoinHandle<MergedRun>>,
    /// `pending[worker][branch]`: the batch under construction.
    pending: Vec<Vec<Vec<(usize, Tuple)>>>,
    batch: usize,
    /// `feeds[source]`: every `(branch, local_source)` reading the source.
    feeds: Vec<Vec<(usize, usize)>>,
    /// The merge stage (hybrid plans only).
    merge: Option<Box<Merge>>,
    /// Batches in flight per worker (the router counts up before `send`,
    /// the worker down on receipt): the channel has no `len()`, so this is
    /// the signal behind `shard.queue_depth{shard="i"}` and `/health`.
    depths: Vec<Arc<AtomicU64>>,
    /// Cached labeled gauges mirroring `depths` (only when obs is on).
    depth_gauges: Vec<Option<pulse_obs::Counter>>,
    /// Time the router spent blocked in `send` (backpressure stalls).
    send_wait: Option<pulse_obs::Histogram>,
}

/// The executor over a key-partitionable [`LogicalPlan`].
pub type ShardedRuntime = Executor;

/// The executor over a partition-rewritten [`HybridPlan`].
pub type HybridRuntime = Executor;

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("shards", &self.workers.len())
            .field("merge", &self.merge.is_some())
            .finish_non_exhaustive()
    }
}

/// Finalizer from splitmix64: avalanches low-entropy keys (sequential
/// symbol ids, packed pair keys) so `% shards` balances the load. The
/// shadow auditor reuses it for 1-in-N key sampling, so the audited
/// subset is the same deterministic set on every shard and every run.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Executor {
    /// Default merge synchronization interval, in routed tuples. Small
    /// enough that merge-stage state stays fresh relative to branch
    /// windows, large enough to amortize the drain round-trip.
    pub const SYNC_EVERY: usize = 1024;

    /// Builds `shards` workers, each owning one runtime per branch of
    /// `plan`, and compiles the merge stage of a hybrid plan.
    ///
    /// Fails fast — before spawning anything — if a branch mixes keys
    /// ([`ShardError::NotPartitionable`]) or any piece of the plan does not
    /// transform ([`ShardError::Transform`]).
    pub fn new<'a>(
        predictors: Vec<Predictor>,
        plan: impl Into<ExecPlan<'a>>,
        cfg: RuntimeConfig,
        shards: usize,
    ) -> Result<Self, ShardError> {
        assert!(shards >= 1, "need at least one shard");
        let plan = plan.into();
        // `(sources, plan)` per branch, `sources[local] = original source`.
        let branches: Vec<(Vec<usize>, &LogicalPlan)> = match plan {
            ExecPlan::Keyed(lp) => vec![((0..lp.sources.len()).collect(), lp)],
            ExecPlan::Hybrid(hp) => {
                hp.branches.iter().map(|b| (b.sources.clone(), &b.plan)).collect()
            }
        };
        for (_, lp) in &branches {
            if let Some(v) = lp.key_partition_violation() {
                return Err(ShardError::NotPartitionable(v));
            }
            // Compile once here so the per-worker compiles cannot fail.
            CPlan::compile(lp)?;
        }
        let merge = match plan {
            ExecPlan::Keyed(_) => None,
            ExecPlan::Hybrid(hp) => Some(Box::new(Merge {
                plan: CPlan::compile(&hp.suffix)?,
                wiring: hp.wiring.clone(),
                sync_every: Self::SYNC_EVERY,
                since_sync: 0,
                outputs: Vec::new(),
            })),
        };
        let n_sources = branches.iter().flat_map(|(s, _)| s).max().map_or(0, |&s| s + 1);
        assert_eq!(predictors.len(), n_sources, "one predictor per source");
        let mut feeds = vec![Vec::new(); n_sources];
        for (b, (sources, _)) in branches.iter().enumerate() {
            for (local, &orig) in sources.iter().enumerate() {
                feeds[orig].push((b, local));
            }
        }
        let (mut txs, mut workers, mut depths, mut depth_gauges) = (vec![], vec![], vec![], vec![]);
        let obs_on = pulse_obs::enabled();
        let send_wait = obs_on.then(|| pulse_obs::global().histogram("shard.send_wait_ns"));
        for i in 0..shards {
            let (tx, rx) = bounded::<Msg>(CHANNEL_DEPTH);
            let plans: Vec<(Vec<Predictor>, LogicalPlan)> = branches
                .iter()
                .map(|(sources, lp)| {
                    (sources.iter().map(|&o| predictors[o].clone()).collect(), (*lp).clone())
                })
                .collect();
            let depth = Arc::new(AtomicU64::new(0));
            let gauge = obs_on.then(|| {
                pulse_obs::global()
                    .counter(&pulse_obs::labeled("shard.queue_depth", &[("shard", &i.to_string())]))
            });
            depths.push(Arc::clone(&depth));
            depth_gauges.push(gauge.clone());
            let (cfg, label_branches) = (cfg.clone(), merge.is_some());
            let worker = Worker { shard: i, rx, plans, cfg, label_branches, depth, gauge };
            let handle = std::thread::Builder::new()
                .name(format!("pulse-shard-{i}"))
                .spawn(move || worker.run())
                .expect("spawn shard worker");
            txs.push(tx);
            workers.push(handle);
        }
        Ok(Executor {
            chan: ExplainHandle { txs },
            workers,
            pending: vec![vec![Vec::new(); branches.len()]; shards],
            batch: DEFAULT_BATCH,
            feeds,
            merge,
            depths,
            depth_gauges,
            send_wait,
        })
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Overrides the tuples-per-message batch size (tests use 1 to exercise
    /// the channel per tuple).
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Overrides the merge synchronization interval. Results are
    /// independent of the interval; it only trades merge latency against
    /// drain round-trips. No effect on keyed plans, which have no merge
    /// stage.
    pub fn set_sync_every(&mut self, every: usize) {
        if let Some(m) = &mut self.merge {
            m.sync_every = every.max(1);
        }
    }

    /// Which shard owns a key.
    pub fn shard_of(&self, key: u64) -> usize {
        self.chan.shard_of(key)
    }

    /// Routes one tuple to its key's shard, fanning out to every branch
    /// that consumes `source`. Batches internally; the send blocks
    /// (backpressure) when the shard is `CHANNEL_DEPTH` batches behind.
    /// Result segments surface at [`Self::finish`].
    pub fn on_tuple(&mut self, source: usize, tuple: &Tuple) {
        let s = self.shard_of(tuple.key);
        // A keyed plan is one branch reading the plan's own sources: its
        // per-tuple hot path skips the fan-out table and merge bookkeeping.
        let Some(m) = &mut self.merge else { return self.push(s, 0, source, tuple) };
        m.since_sync += 1;
        let due = m.since_sync >= m.sync_every;
        for i in 0..self.feeds[source].len() {
            let (branch, local) = self.feeds[source][i];
            self.push(s, branch, local, tuple);
        }
        if due {
            self.sync();
        }
    }

    // Inlined: on keyed plans this is the whole per-tuple routing cost.
    #[inline(always)]
    fn push(&mut self, shard: usize, branch: usize, local: usize, tuple: &Tuple) {
        let pending = &mut self.pending[shard][branch];
        pending.push((local, tuple.clone()));
        if pending.len() >= self.batch {
            self.flush(shard, branch);
        }
    }

    /// Asks every shard to garbage-collect plan state and lineage older
    /// than `t` ([`PulseRuntime::gc_before`]). A merge stage is not
    /// collected. Flushes pending batches first so GC stays ordered with
    /// the tuples before it.
    pub fn gc_before(&mut self, t: f64) {
        self.flush_all();
        (0..self.workers.len()).for_each(|s| self.chan.send(s, Msg::Gc(t)));
    }

    /// Publishes every shard's counters into the global registry with
    /// `shard="i"` labels (plus `branch="b"` for hybrid plans, whose merge
    /// stage publishes under `stage="merge"`), for live scraping mid-run.
    /// Flushes pending batches first so the export reflects every tuple
    /// routed so far; each worker exports when it drains to the message,
    /// so a scrape racing the export may see the previous publication.
    ///
    /// Doubles as the collector tick of the telemetry-history layer: one
    /// sample of every global-registry metric lands in the time-series
    /// store per call. The sample is taken router-side right after the
    /// export messages are sent, so it may reflect the *previous*
    /// publication for shards still draining — one tick of staleness,
    /// consistent with the scrape behavior above.
    pub fn publish_metrics(&mut self) {
        self.flush_all();
        (0..self.workers.len()).for_each(|s| self.chan.send(s, Msg::Export));
        if pulse_obs::enabled() {
            if let Some(m) = &self.merge {
                m.plan.export_metrics_labeled(pulse_obs::global(), &[("stage", "merge")]);
            }
            pulse_obs::timeseries::store().sample(&pulse_obs::global().snapshot());
        }
    }

    /// Copies every shard's flight-recorder rings: `(shard, events)` pairs,
    /// events oldest first per branch runtime. Flushes pending batches
    /// first so the rings have seen every tuple routed before the call.
    /// Empty rings (tracing off) come back empty rather than being skipped.
    pub fn trace_events(&mut self) -> Vec<(u32, Vec<TraceEvent>)> {
        self.flush_all();
        self.chan.trace_events().expect("shard worker alive")
    }

    /// Fans a provenance query to the shard owning `key` and blocks for
    /// the report. Pending batches are flushed first so the flight recorder
    /// has seen every tuple routed before the call.
    pub fn explain(&mut self, key: u64, t0: f64, t1: f64) -> ExplainReport {
        self.flush_all();
        self.chan.explain(key, t0, t1).expect("shard worker alive")
    }

    /// A cloneable handle other threads (e.g. the HTTP serving surface)
    /// can use to answer explain queries while this executor keeps
    /// ingesting. Reports reflect state as of the last flushed batch —
    /// tuples still pending in the router are not yet visible.
    pub fn explain_handle(&self) -> ExplainHandle {
        self.chan.clone()
    }

    /// Batches currently in flight to `shard` (router-side count; the
    /// worker decrements as it drains). Saturates at the channel depth
    /// plus one — one batch may sit counted while the router blocks in
    /// `send`.
    pub fn queue_depth(&self, shard: usize) -> u64 {
        self.depths[shard].load(Ordering::Relaxed)
    }

    fn flush(&mut self, shard: usize, branch: usize) {
        if self.pending[shard][branch].is_empty() {
            return;
        }
        let pairs = std::mem::take(&mut self.pending[shard][branch]);
        // Count the batch before the (possibly blocking) send so a stalled
        // router reads as a full queue, not an idle one.
        let d = self.depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(g) = &self.depth_gauges[shard] {
            g.set(d);
        }
        let t0 = self.send_wait.as_ref().map(|h| (h, std::time::Instant::now()));
        self.chan.send(shard, Msg::Batch { branch, pairs });
        if let Some((h, t0)) = t0 {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }

    fn flush_shard(&mut self, shard: usize) {
        for branch in 0..self.pending[shard].len() {
            self.flush(shard, branch);
        }
    }

    fn flush_all(&mut self) {
        (0..self.pending.len()).for_each(|shard| self.flush_shard(shard));
    }

    /// Flushes every pending batch, then (hybrid plans) synchronizes the
    /// merge stage: drains every worker and feeds the branch-tagged
    /// segments to the merge plan in canonical order — `(span.lo, branch,
    /// key)`, ties left in worker emission order (ties share a key, and a
    /// key lives on one worker, so the order is deterministic and
    /// independent of shard count).
    fn sync(&mut self) {
        self.flush_all();
        let Some(m) = &mut self.merge else { return };
        m.since_sync = 0;
        // Every drain request goes out before any reply is awaited, so the
        // workers finish their queues in parallel.
        let replies: Vec<_> = (0..self.workers.len())
            .map(|s| {
                let (reply_tx, reply_rx) = bounded(1);
                self.chan.send(s, Msg::Drain(reply_tx));
                reply_rx
            })
            .collect();
        let mut merged: Vec<(usize, Segment)> = Vec::new();
        for rx in replies {
            for (branch, segs) in rx.recv().expect("shard worker alive").into_iter().enumerate() {
                merged.extend(segs.into_iter().map(|s| (branch, s)));
            }
        }
        merged.sort_by(|a, b| {
            a.1.span.lo.total_cmp(&b.1.span.lo).then(a.0.cmp(&b.0)).then(a.1.key.cmp(&b.1.key))
        });
        for (branch, seg) in merged {
            // A self-join wires one branch to both merge sources; feed
            // them in ascending source order, like the unrewritten plan's
            // own fan-out would.
            for (src, &b) in m.wiring.iter().enumerate() {
                if b == branch {
                    m.outputs.extend(m.plan.push(src, &seg));
                }
            }
        }
    }

    /// Ends the stream: flushes every pending batch (and runs the final
    /// merge synchronization), stops and joins the workers, flushes the
    /// merge stage, and merges counters and outputs.
    pub fn finish(mut self) -> MergedRun {
        self.sync();
        for s in 0..self.workers.len() {
            // An explicit stop rather than relying on channel close:
            // cloned [`ExplainHandle`]s may outlive this executor and would
            // otherwise hold the channel open forever.
            self.chan.send(s, Msg::Shutdown);
        }
        let mut run = MergedRun::default();
        for w in self.workers.drain(..) {
            let r = w.join().expect("shard worker panicked");
            run.stats.absorb(&r.stats);
            run.validator.absorb(&r.validator);
            run.metrics.absorb(&r.metrics);
            run.phases.absorb(&r.phases);
            run.audit.absorb(&r.audit);
            run.outputs.extend(r.outputs);
        }
        if let Some(mut m) = self.merge.take() {
            m.outputs.extend(m.plan.finish());
            run.metrics.absorb(&m.plan.metrics());
            run.outputs.extend(m.outputs);
        }
        let s = run.stats;
        debug_assert_eq!(
            s.tuples_in,
            s.suppressed + s.violations + s.unchecked,
            "every tuple lands in exactly one outcome: {s:?}"
        );
        run
    }
}

/// One worker thread's channel, `(predictors, plan)` per branch and depth.
struct Worker {
    shard: usize,
    rx: Receiver<Msg>,
    plans: Vec<(Vec<Predictor>, LogicalPlan)>,
    cfg: RuntimeConfig,
    /// Label exports by branch too (hybrid plans).
    label_branches: bool,
    depth: Arc<AtomicU64>,
    gauge: Option<pulse_obs::Counter>,
}

impl Worker {
    fn run(mut self) -> MergedRun {
        let mut rts: Vec<PulseRuntime> = std::mem::take(&mut self.plans)
            .into_iter()
            .map(|(preds, lp)| {
                PulseRuntime::with_predictors(preds, &lp, self.cfg.clone())
                    .expect("plan compiled before spawn")
            })
            .collect();
        // Result segments per branch since the last drain. Keyed plans are
        // never drained; their outputs ride back at shutdown.
        let mut outs: Vec<Vec<Segment>> = vec![Vec::new(); rts.len()];
        // A dead reply slot means the querier gave up (timeout, dropped
        // handle), so reply send errors are ignored.
        while let Ok(msg) = self.rx.recv() {
            match msg {
                Msg::Batch { branch, pairs } => {
                    let d = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
                    if let Some(g) = &self.gauge {
                        g.set(d);
                    }
                    // Branches are key-partitionable, so every batch runs
                    // through the deferred-solve queue.
                    outs[branch].extend(rts[branch].on_pairs(&pairs));
                }
                Msg::Drain(reply) => _ = reply.send(outs.iter_mut().map(std::mem::take).collect()),
                Msg::Gc(t) => rts.iter_mut().for_each(|rt| rt.gc_before(t)),
                Msg::Explain { key, t0, t1, reply } => {
                    let mut report = ExplainReport { key, t0, t1, solves: Vec::new() };
                    for rt in &rts {
                        report.solves.extend(rt.explain(key, t0, t1).solves);
                    }
                    _ = reply.send(report);
                }
                Msg::Export => self.export(&rts),
                Msg::Trace(reply) => {
                    _ = reply.send(rts.iter().flat_map(PulseRuntime::trace_events).collect());
                }
                Msg::Audit(reply) => _ = reply.send(MergedRun::of(&rts).audit),
                Msg::Shutdown => break,
            }
        }
        self.export(&rts);
        if let (true, Some(g)) = (pulse_obs::enabled(), &self.gauge) {
            // Drained: pin the gauge at zero so a post-run health scrape
            // sees an idle queue, not the last in-flight count.
            g.set(0);
        }
        let mut run = MergedRun::of(&rts);
        run.outputs = outs.into_iter().flatten().collect();
        run
    }

    /// Publishes every branch runtime's counters under this worker's
    /// labels (a no-op while observability is off).
    fn export(&self, rts: &[PulseRuntime]) {
        if !pulse_obs::enabled() {
            return;
        }
        let shard = self.shard.to_string();
        for (b, rt) in rts.iter().enumerate() {
            let branch = b.to_string();
            let labels = [("shard", shard.as_str()), ("branch", branch.as_str())];
            let n = if self.label_branches { 2 } else { 1 };
            rt.export_metrics_labeled(pulse_obs::global(), &labels[..n]);
        }
    }
}

/// Cross-thread provenance access to a live [`Executor`]. Routes each
/// query to the owning shard over its work channel; the recorder rings
/// stay single-writer because the query executes on the worker thread.
#[derive(Clone)]
pub struct ExplainHandle {
    txs: Vec<Sender<Msg>>,
}

impl ExplainHandle {
    /// Number of shards behind this handle.
    pub fn shards(&self) -> usize {
        self.txs.len()
    }

    /// Asks the shard owning `key` to explain its outputs over
    /// `[t0, t1]`. Returns `None` once the executor has shut down.
    pub fn explain(&self, key: u64, t0: f64, t1: f64) -> Option<ExplainReport> {
        self.ask(self.shard_of(key), |reply| Msg::Explain { key, t0, t1, reply })
    }

    /// Copies every shard's flight-recorder rings (see
    /// [`Executor::trace_events`]). Reflects state as of the last flushed
    /// batch; `None` once the executor has shut down.
    pub fn trace_events(&self) -> Option<Vec<(u32, Vec<TraceEvent>)>> {
        (0..self.txs.len()).map(|s| Some((s as u32, self.ask(s, Msg::Trace)?))).collect()
    }

    /// Merges every shard's guarantee-audit ledger (the live `/audit`
    /// path). Reflects state as of each worker's last drained batch;
    /// `None` once the executor has shut down. Empty ledgers when
    /// auditing is off.
    pub fn audit(&self) -> Option<AuditLedger> {
        (0..self.txs.len()).try_fold(AuditLedger::default(), |mut merged, s| {
            merged.absorb(&self.ask(s, Msg::Audit)?);
            Some(merged)
        })
    }

    fn shard_of(&self, key: u64) -> usize {
        (splitmix64(key) % self.txs.len() as u64) as usize
    }

    /// Sends `shard` a request carrying a one-shot reply slot and waits
    /// for the answer; `None` if the worker is gone.
    fn ask<R>(&self, shard: usize, request: impl FnOnce(Sender<R>) -> Msg) -> Option<R> {
        let (reply_tx, reply_rx) = bounded(1);
        self.txs[shard].send(request(reply_tx)).ok()?;
        reply_rx.recv().ok()
    }

    /// Sends to a worker the executor still owns. A worker only goes away
    /// by panicking, so a failed send propagates that panic.
    fn send(&self, shard: usize, msg: Msg) {
        if self.txs[shard].send(msg).is_err() {
            panic!("shard worker {shard} is gone");
        }
    }
}

impl std::fmt::Debug for ExplainHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplainHandle").field("shards", &self.txs.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::CmpOp;
    use pulse_model::{AttrKind, Expr, ModelSpec, Pred, Schema, StreamModel};
    use pulse_stream::{partition_rewrite, AggFunc, LogicalOp, PortRef};

    fn source() -> (Schema, StreamModel) {
        let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
        let model = ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time);
        (schema.clone(), StreamModel::new(schema, vec![model]).unwrap())
    }

    fn filter_plan(schema: Schema) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![schema]);
        let pred = Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-100.0));
        lp.add(LogicalOp::Filter { pred }, vec![PortRef::Source(0)]);
        lp
    }

    fn agg_plan(
        schema: Schema,
        func: AggFunc,
        width: f64,
        slide: f64,
        grouped: bool,
    ) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![schema]);
        let op = LogicalOp::Aggregate { func, attr: 0, width, slide, group_by_key: grouped };
        lp.add(op, vec![PortRef::Source(0)]);
        lp
    }

    #[test]
    fn shard_of_covers_all_shards() {
        let (schema, sm) = source();
        let lp = filter_plan(schema);
        let rt =
            Executor::new(vec![Predictor::Clause(sm)], &lp, RuntimeConfig::default(), 4).unwrap();
        let mut hit = [false; 4];
        for key in 0..64u64 {
            hit[rt.shard_of(key)] = true;
        }
        assert_eq!(hit, [true; 4], "sequential keys must spread over shards");
        // Routing is deterministic.
        assert_eq!(rt.shard_of(7), rt.shard_of(7));
        rt.finish();
    }

    #[test]
    fn basic_run_merges_stats() {
        let (schema, sm) = source();
        let lp = filter_plan(schema);
        let cfg = RuntimeConfig { horizon: 100.0, bound: 1.0, ..Default::default() };
        let mut rt = Executor::new(vec![Predictor::Clause(sm)], &lp, cfg, 3).unwrap();
        rt.set_batch(2);
        for i in 0..60 {
            let key = (i % 6) as u64;
            let ts = (i / 6) as f64;
            rt.on_tuple(0, &Tuple::new(key, ts, vec![2.0 * ts, 2.0]));
        }
        rt.gc_before(0.0);
        let run = rt.finish();
        assert_eq!(run.stats.tuples_in, 60);
        // Six keys following their model exactly: one solve each.
        assert_eq!(run.stats.segments_pushed, 6);
        assert_eq!(run.stats.suppressed, 54);
        assert_eq!(run.stats.violations, 0);
        assert_eq!(run.outputs.len() as u64, run.stats.outputs);
        assert!(run.validator.checks >= 54);
        assert!(run.metrics.systems_solved >= 6);
    }

    #[test]
    fn non_partitionable_plan_is_rejected_before_spawn() {
        let (schema, sm) = source();
        let lp = agg_plan(schema, AggFunc::Min, 10.0, 2.0, false);
        let err = Executor::new(vec![Predictor::Clause(sm)], &lp, RuntimeConfig::default(), 2)
            .unwrap_err();
        let ShardError::NotPartitionable(v) = &err else {
            panic!("expected NotPartitionable, got {err:?}")
        };
        assert_eq!(v.node, 0);
        assert!(err.to_string().contains("aggregate"), "{err}");
    }

    #[test]
    fn untransformable_plan_is_a_transform_error() {
        let (schema, sm) = source();
        let lp = agg_plan(schema, AggFunc::Count, 10.0, 2.0, true);
        let err = Executor::new(vec![Predictor::Clause(sm)], &lp, RuntimeConfig::default(), 2)
            .unwrap_err();
        assert!(matches!(err, ShardError::Transform(_)), "{err:?}");
    }

    #[test]
    fn hybrid_runs_a_non_partitionable_min() {
        let (schema, sm) = source();
        let lp = agg_plan(schema, AggFunc::Min, 1e6, 1.0, false);
        let hp = partition_rewrite(&lp).expect("must split");
        let cfg = RuntimeConfig { horizon: 1e6, bound: 1.0, ..Default::default() };
        let mut rt = Executor::new(vec![Predictor::Clause(sm)], &hp, cfg, 2).expect("build hybrid");
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
}
