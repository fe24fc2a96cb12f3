//! Key-partitioned parallel execution of the predictive runtime.
//!
//! [`ShardedRuntime`] hash-partitions stream keys across N worker threads,
//! each owning a complete [`PulseRuntime`] (its own continuous plan,
//! lineage store and validator) compiled from the same logical plan. This
//! is sound only when every operator keeps keys separate — per-key models
//! (§II-B) make filters and maps trivially per-key, but a join must match
//! keys exactly and an aggregate must group by key, or one operator's state
//! would need tuples from several shards. [`LogicalPlan`]s that mix keys
//! are rejected up front with [`ShardError::NotPartitionable`]; callers
//! fall back to a single-threaded runtime.
//!
//! Beyond core-level parallelism, sharding shrinks each worker's state:
//! a shard's join and aggregate operators hold only that shard's keys, so
//! temporal-overlap candidate scans that would visit every buffered key in
//! one runtime visit ~1/N of them per shard — a throughput win even on a
//! single core for scan-dominated keyed workloads.
//!
//! Tuples travel in batches over bounded channels (the same backpressure
//! scheme as the discrete engine's `pulse_stream::parallel` pipeline) to
//! amortise channel cost; ordering is preserved per shard, which is all
//! key-partitioned semantics need.

use crate::plan::{CPlan, TransformError};
use crate::runtime::{Predictor, PulseRuntime, RuntimeConfig, RuntimeStats};
use crate::validate::ValidatorStats;
use crossbeam::channel::{bounded, Sender};
use pulse_model::{Segment, Tuple};
use pulse_obs::{AuditLedger, ExplainReport, PhaseTable, TraceEvent};
use pulse_stream::{LogicalPlan, OpMetrics, PartitionViolation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tuples per channel message. Large enough that the per-message mutex
/// and allocation cost vanishes against per-tuple work, small enough that
/// batches stay cache-resident and backpressure stays responsive.
pub const DEFAULT_BATCH: usize = 256;

/// Batches in flight per shard before `send` blocks (bounded backpressure,
/// like the discrete pipeline's per-node channel depth).
const CHANNEL_DEPTH: usize = 4;

/// Why a sharded runtime could not be built.
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
            ShardError::NotPartitionable(v) => {
                write!(f, "plan is not key-partitionable: {v}")
            }
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

/// Work sent to a shard worker.
enum Msg {
    /// A batch of `(source, tuple)` pairs, all keys owned by this shard.
    Batch(Vec<(usize, Tuple)>),
    /// Garbage-collect plan state and lineage older than `t` (mirrors
    /// [`PulseRuntime::gc_before`]).
    Gc(f64),
    /// Answer a provenance query from the worker's flight recorder. The
    /// recorder ring is single-writer, so the query runs on the owning
    /// thread and the report travels back over `reply`.
    Explain { key: u64, t0: f64, t1: f64, reply: Sender<ExplainReport> },
    /// Publish this shard's counters into the global registry with a
    /// `shard="i"` label (live scrape support; end-of-run export happens
    /// unconditionally at channel close).
    Export,
    /// Copy the worker's flight-recorder ring back over `reply` (the
    /// `/trace.json` export path — like `Explain`, the single-writer ring
    /// is only read on its owning thread).
    Trace { reply: Sender<Vec<TraceEvent>> },
    /// Copy the worker's guarantee-audit ledger back over `reply` (the
    /// `/audit` serving path). Empty when auditing is off.
    Audit { reply: Sender<AuditLedger> },
    /// Stop the worker loop even though sender clones (e.g. an
    /// [`ExplainHandle`]) may still be alive.
    Shutdown,
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Msg::Batch(b) => f.debug_tuple("Batch").field(&b.len()).finish(),
            Msg::Gc(t) => f.debug_tuple("Gc").field(t).finish(),
            Msg::Explain { key, t0, t1, .. } => f
                .debug_struct("Explain")
                .field("key", key)
                .field("t0", t0)
                .field("t1", t1)
                .finish_non_exhaustive(),
            Msg::Export => f.write_str("Export"),
            Msg::Trace { .. } => f.write_str("Trace"),
            Msg::Audit { .. } => f.write_str("Audit"),
            Msg::Shutdown => f.write_str("Shutdown"),
        }
    }
}

/// What one worker hands back at end of stream.
struct ShardResult {
    stats: RuntimeStats,
    validator: ValidatorStats,
    metrics: OpMetrics,
    phases: PhaseTable,
    audit: AuditLedger,
    outputs: Vec<Segment>,
}

/// Merged end-of-run totals across all shards.
#[derive(Debug, Default)]
pub struct MergedRun {
    /// Summed runtime counters.
    pub stats: RuntimeStats,
    /// Summed validation counters.
    pub validator: ValidatorStats,
    /// Summed continuous-operator counters.
    pub metrics: OpMetrics,
    /// Summed violation-path phase attribution (empty unless the profiler
    /// was enabled, see [`pulse_obs::set_prof_enabled`]).
    pub phases: PhaseTable,
    /// Merged per-key guarantee ledgers from every shard's shadow auditor
    /// (empty unless [`RuntimeConfig::audit_rate`] was non-zero).
    pub audit: AuditLedger,
    /// Every shard's result segments, concatenated shard-by-shard (order
    /// across shards is not meaningful; per-key order is preserved).
    pub outputs: Vec<Segment>,
}

/// The key-partitioned parallel predictive processor.
pub struct ShardedRuntime {
    txs: Vec<Sender<Msg>>,
    handles: Vec<JoinHandle<ShardResult>>,
    /// Per-shard batch under construction.
    pending: Vec<Vec<(usize, Tuple)>>,
    batch: usize,
    /// Batches in flight per shard: the router increments before `send`,
    /// the worker decrements on receipt. The vendored channel exposes no
    /// `len()`, so this shared count is the queue-depth signal behind the
    /// `shard.queue_depth{shard="i"}` gauges and the `/health`
    /// `queue_saturated` rule.
    depths: Vec<Arc<AtomicU64>>,
    /// Cached labeled gauges mirroring `depths` (only when obs is on).
    depth_gauges: Vec<Option<pulse_obs::Counter>>,
    /// Time the router spent blocked in `send` (backpressure stalls).
    send_wait: Option<pulse_obs::Histogram>,
}

impl std::fmt::Debug for ShardedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRuntime")
            .field("shards", &self.handles.len())
            .field("batch", &self.batch)
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

impl ShardedRuntime {
    /// Builds `shards` worker runtimes over the same logical plan.
    ///
    /// Fails fast — before spawning anything — if the plan mixes keys
    /// ([`ShardError::NotPartitionable`]) or does not transform
    /// ([`ShardError::Transform`]).
    pub fn new(
        predictors: Vec<Predictor>,
        logical: &LogicalPlan,
        cfg: RuntimeConfig,
        shards: usize,
    ) -> Result<Self, ShardError> {
        assert!(shards >= 1, "need at least one shard");
        assert_eq!(predictors.len(), logical.sources.len(), "one predictor per source");
        if let Some(v) = logical.key_partition_violation() {
            return Err(ShardError::NotPartitionable(v));
        }
        // Compile once here so the per-worker compile below cannot fail.
        CPlan::compile(logical)?;
        let mut txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut depths = Vec::with_capacity(shards);
        let mut depth_gauges = Vec::with_capacity(shards);
        let obs_on = pulse_obs::enabled();
        let send_wait = obs_on.then(|| pulse_obs::global().histogram("shard.send_wait_ns"));
        for i in 0..shards {
            let (tx, rx) = bounded::<Msg>(CHANNEL_DEPTH);
            let preds = predictors.clone();
            let lp = logical.clone();
            let cfg = cfg.clone();
            let depth = Arc::new(AtomicU64::new(0));
            let gauge = obs_on.then(|| {
                pulse_obs::global()
                    .counter(&pulse_obs::labeled("shard.queue_depth", &[("shard", &i.to_string())]))
            });
            depths.push(Arc::clone(&depth));
            depth_gauges.push(gauge.clone());
            let handle = std::thread::Builder::new()
                .name(format!("pulse-shard-{i}"))
                .spawn(move || {
                    let mut rt = PulseRuntime::with_predictors(preds, &lp, cfg)
                        .expect("plan compiled before spawn");
                    let mut outputs = Vec::new();
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Msg::Batch(batch) => {
                                let d = depth.fetch_sub(1, Ordering::Relaxed) - 1;
                                if let Some(g) = &gauge {
                                    g.set(d);
                                }
                                // Sharded plans are key-partitionable by
                                // construction, so every channel batch runs
                                // through the deferred-solve queue.
                                outputs.extend(rt.on_pairs(&batch));
                            }
                            Msg::Gc(t) => rt.gc_before(t),
                            Msg::Explain { key, t0, t1, reply } => {
                                // The querier may have given up (timeout,
                                // dropped handle); ignore a dead reply slot.
                                let _ = reply.send(rt.explain(key, t0, t1));
                            }
                            Msg::Export => {
                                if pulse_obs::enabled() {
                                    rt.export_metrics_labeled(
                                        pulse_obs::global(),
                                        &[("shard", &i.to_string())],
                                    );
                                }
                            }
                            Msg::Trace { reply } => {
                                let _ = reply.send(rt.trace_events());
                            }
                            Msg::Audit { reply } => {
                                let _ = reply.send(rt.audit_ledger().cloned().unwrap_or_default());
                            }
                            Msg::Shutdown => break,
                        }
                    }
                    if pulse_obs::enabled() {
                        let reg = pulse_obs::global();
                        rt.export_metrics_labeled(reg, &[("shard", &i.to_string())]);
                        if let Some(g) = &gauge {
                            // Worker is done draining; pin the gauge at
                            // zero so a post-run health scrape sees an
                            // idle queue, not the last in-flight count.
                            g.set(0);
                        }
                    }
                    ShardResult {
                        stats: rt.stats(),
                        validator: rt.validator().stats(),
                        metrics: rt.plan().metrics(),
                        phases: *rt.phases(),
                        audit: rt.audit_ledger().cloned().unwrap_or_default(),
                        outputs,
                    }
                })
                .expect("spawn shard worker");
            txs.push(tx);
            handles.push(handle);
        }
        Ok(ShardedRuntime {
            txs,
            handles,
            pending: vec![Vec::new(); shards],
            batch: DEFAULT_BATCH,
            depths,
            depth_gauges,
            send_wait,
        })
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Overrides the tuples-per-message batch size (tests use 1 to exercise
    /// the channel per tuple).
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch.max(1);
    }

    /// Which shard owns a key.
    pub fn shard_of(&self, key: u64) -> usize {
        (splitmix64(key) % self.txs.len() as u64) as usize
    }

    /// Routes one tuple to its key's shard. Batches internally; the send
    /// blocks (backpressure) when the shard is `CHANNEL_DEPTH` batches
    /// behind. Result segments surface at [`Self::finish`].
    pub fn on_tuple(&mut self, source: usize, tuple: &Tuple) {
        let s = self.shard_of(tuple.key);
        self.pending[s].push((source, tuple.clone()));
        if self.pending[s].len() >= self.batch {
            self.flush(s);
        }
    }

    /// Asks every shard to garbage-collect plan state and lineage older
    /// than `t` ([`PulseRuntime::gc_before`]). Flushes pending batches
    /// first so GC stays ordered with the tuples before it.
    pub fn gc_before(&mut self, t: f64) {
        for s in 0..self.txs.len() {
            self.flush(s);
            self.txs[s].send(Msg::Gc(t)).expect("shard worker alive");
        }
    }

    /// Publishes every shard's counters into the global registry with
    /// `shard="i"` labels, for live scraping mid-run. Flushes pending
    /// batches first so the export reflects every tuple routed so far;
    /// each worker exports when it drains to the message, so a scrape
    /// racing the export may see the previous publication.
    ///
    /// Doubles as the collector tick of the telemetry-history layer: one
    /// sample of every global-registry metric lands in the time-series
    /// store per call. The sample is taken router-side right after the
    /// export messages are sent, so it may reflect the *previous*
    /// publication for shards still draining — one tick of staleness,
    /// consistent with the scrape behavior above.
    pub fn publish_metrics(&mut self) {
        for s in 0..self.txs.len() {
            self.flush(s);
            self.txs[s].send(Msg::Export).expect("shard worker alive");
        }
        if pulse_obs::enabled() {
            pulse_obs::timeseries::store().sample(&pulse_obs::global().snapshot());
        }
    }

    /// Copies every shard's flight-recorder ring: `(shard, events)` pairs,
    /// events oldest first. Flushes pending batches first so the rings
    /// have seen every tuple routed before the call. Empty rings (tracing
    /// off) come back empty rather than being skipped.
    pub fn trace_events(&mut self) -> Vec<(u32, Vec<TraceEvent>)> {
        for s in 0..self.txs.len() {
            self.flush(s);
        }
        collect_trace_events(&self.txs).expect("shard worker alive")
    }

    /// Fans a provenance query to the shard owning `key` and blocks for
    /// the report. The owning shard's pending batch is flushed first so
    /// the flight recorder has seen every tuple routed before the call.
    pub fn explain(&mut self, key: u64, t0: f64, t1: f64) -> ExplainReport {
        let s = self.shard_of(key);
        self.flush(s);
        let (reply_tx, reply_rx) = bounded(1);
        self.txs[s]
            .send(Msg::Explain { key, t0, t1, reply: reply_tx })
            .expect("shard worker alive");
        reply_rx.recv().expect("shard worker alive")
    }

    /// A cloneable handle other threads (e.g. the HTTP serving surface)
    /// can use to answer explain queries while this runtime keeps
    /// ingesting. Reports reflect state as of the last flushed batch —
    /// tuples still pending in the router are not yet visible.
    pub fn explain_handle(&self) -> ExplainHandle {
        ExplainHandle { txs: self.txs.clone() }
    }

    /// Batches currently in flight to `shard` (router-side count; the
    /// worker decrements as it drains). Saturates at [`CHANNEL_DEPTH`] + 1
    /// — one batch may sit counted while the router blocks in `send`.
    pub fn queue_depth(&self, shard: usize) -> u64 {
        self.depths[shard].load(Ordering::Relaxed)
    }

    fn flush(&mut self, shard: usize) {
        if self.pending[shard].is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending[shard]);
        // Count the batch before the (possibly blocking) send so a stalled
        // router reads as a full queue, not an idle one.
        let d = self.depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(g) = &self.depth_gauges[shard] {
            g.set(d);
        }
        match &self.send_wait {
            Some(h) => {
                let t0 = std::time::Instant::now();
                self.txs[shard].send(Msg::Batch(batch)).expect("shard worker alive");
                h.record(t0.elapsed().as_nanos() as u64);
            }
            None => self.txs[shard].send(Msg::Batch(batch)).expect("shard worker alive"),
        }
    }

    /// Ends the stream: flushes every pending batch, closes the channels,
    /// joins the workers and merges their counters and outputs.
    pub fn finish(mut self) -> MergedRun {
        for s in 0..self.txs.len() {
            self.flush(s);
            // An explicit stop rather than relying on channel close:
            // cloned [`ExplainHandle`]s may outlive this runtime and would
            // otherwise hold the channel open forever.
            self.txs[s].send(Msg::Shutdown).expect("shard worker alive");
        }
        self.txs.clear();
        let mut merged = MergedRun::default();
        for h in self.handles.drain(..) {
            let r = h.join().expect("shard worker panicked");
            merged.stats.absorb(&r.stats);
            merged.validator.absorb(&r.validator);
            merged.metrics.absorb(&r.metrics);
            merged.phases.absorb(&r.phases);
            merged.audit.absorb(&r.audit);
            merged.outputs.extend(r.outputs);
        }
        merged
    }
}

/// Cross-thread provenance access to a live [`ShardedRuntime`]. Routes
/// each query to the owning shard over its work channel; the recorder ring
/// stays single-writer because the query executes on the worker thread.
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
    /// `[t0, t1]`. Returns `None` once the runtime has shut down.
    pub fn explain(&self, key: u64, t0: f64, t1: f64) -> Option<ExplainReport> {
        let s = (splitmix64(key) % self.txs.len() as u64) as usize;
        let (reply_tx, reply_rx) = bounded(1);
        self.txs[s].send(Msg::Explain { key, t0, t1, reply: reply_tx }).ok()?;
        reply_rx.recv().ok()
    }

    /// Copies every shard's flight-recorder ring (see
    /// [`ShardedRuntime::trace_events`]). Reflects state as of the last
    /// flushed batch; `None` once the runtime has shut down.
    pub fn trace_events(&self) -> Option<Vec<(u32, Vec<TraceEvent>)>> {
        collect_trace_events(&self.txs)
    }

    /// Merges every shard's guarantee-audit ledger (the live `/audit`
    /// path). Reflects state as of each worker's last drained batch;
    /// `None` once the runtime has shut down. Empty ledgers when
    /// auditing is off.
    pub fn audit(&self) -> Option<AuditLedger> {
        let mut merged = AuditLedger::default();
        for tx in &self.txs {
            let (reply_tx, reply_rx) = bounded(1);
            tx.send(Msg::Audit { reply: reply_tx }).ok()?;
            merged.absorb(&reply_rx.recv().ok()?);
        }
        Some(merged)
    }
}

/// Fans a `Msg::Trace` to every shard and gathers the rings in shard
/// order. `None` if any worker is gone.
fn collect_trace_events(txs: &[Sender<Msg>]) -> Option<Vec<(u32, Vec<TraceEvent>)>> {
    let mut out = Vec::with_capacity(txs.len());
    for (i, tx) in txs.iter().enumerate() {
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(Msg::Trace { reply: reply_tx }).ok()?;
        out.push((i as u32, reply_rx.recv().ok()?));
    }
    Some(out)
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
    use pulse_stream::{LogicalOp, PortRef};

    fn source() -> (Schema, StreamModel) {
        let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
        let sm = StreamModel::new(
            schema.clone(),
            vec![ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time)],
        )
        .unwrap();
        (schema, sm)
    }

    fn filter_plan(schema: Schema) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![schema]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-100.0)) },
            vec![PortRef::Source(0)],
        );
        lp
    }

    #[test]
    fn shard_of_covers_all_shards() {
        let (schema, sm) = source();
        let lp = filter_plan(schema);
        let rt = ShardedRuntime::new(vec![Predictor::Clause(sm)], &lp, RuntimeConfig::default(), 4)
            .unwrap();
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
        let mut rt = ShardedRuntime::new(
            vec![Predictor::Clause(sm)],
            &lp,
            RuntimeConfig { horizon: 100.0, bound: 1.0, ..Default::default() },
            3,
        )
        .unwrap();
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
        let mut lp = LogicalPlan::new(vec![schema]);
        lp.add(
            LogicalOp::Aggregate {
                func: pulse_stream::AggFunc::Min,
                attr: 0,
                width: 10.0,
                slide: 2.0,
                group_by_key: false,
            },
            vec![PortRef::Source(0)],
        );
        let err =
            ShardedRuntime::new(vec![Predictor::Clause(sm)], &lp, RuntimeConfig::default(), 2)
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
        let mut lp = LogicalPlan::new(vec![schema]);
        lp.add(
            LogicalOp::Aggregate {
                func: pulse_stream::AggFunc::Count,
                attr: 0,
                width: 10.0,
                slide: 2.0,
                group_by_key: true,
            },
            vec![PortRef::Source(0)],
        );
        let err =
            ShardedRuntime::new(vec![Predictor::Clause(sm)], &lp, RuntimeConfig::default(), 2)
                .unwrap_err();
        assert!(matches!(err, ShardError::Transform(_)), "{err:?}");
    }
}
