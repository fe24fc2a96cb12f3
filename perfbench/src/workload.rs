//! The three workloads, their seeded feeds, and one wrapper that drives
//! each of the three public runtimes the same way.

use pulse_core::runtime::Predictor;
use pulse_core::{
    HybridRuntime, PulseRuntime, RuntimeConfig, RuntimeStats, ShardedRuntime, ValidatorStats,
    DEFAULT_BATCH,
};
use pulse_model::{Segment, Tuple};
use pulse_obs::PhaseTable;
use pulse_stream::{
    partition_rewrite, AggFunc, HybridPlan, LogicalOp, LogicalPlan, OpMetrics, PortRef,
};
use pulse_workload::{nyse, NyseConfig, NyseGen};

/// Stream arrival rate of every feed (trades per stream-second), as in
/// `BENCH_scaling.json`.
pub const RATE: f64 = 3000.0;

/// MACD windows and slide (seconds): the 120k-tuple `BENCH_scaling.json`
/// sweep's `macd(5, 20, 2)`.
const MACD: (f64, f64, f64) = (5.0, 20.0, 2.0);

/// Which public runtime a workload drives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Single,
    Sharded,
    Hybrid,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Two grouped averages, a key-equi join and a map.
    Macd,
    /// An ungrouped global `Min` over every symbol's price.
    GlobalMin,
}

/// One workload: the feed's shape, the query and the runtime.
pub struct Workload {
    pub name: &'static str,
    pub symbols: usize,
    pub tick_noise: f64,
    pub drift_secs: f64,
    pub bound: f64,
    pub horizon: f64,
    pub query: Query,
    pub mode: Mode,
    /// Stream seconds of one generated lap; replay cycles through laps.
    pub lap_secs: f64,
}

pub static WORKLOADS: [Workload; 3] = [
    // Violation-heavy MACD on the single-threaded runtime: 74-83% of tuples
    // re-model and re-solve, so the solver, operator state, lineage and
    // bound inversion do nearly all the work; no shard hop, no merge. Feed
    // and plan match the `BENCH_scaling.json` sweep.
    Workload {
        name: "macd_tight",
        symbols: 10_000,
        tick_noise: 0.002,
        drift_secs: 2.0,
        bound: 0.05,
        horizon: 5.0,
        query: Query::Macd,
        mode: Mode::Single,
        lap_secs: 40.0,
    },
    // Read-mostly MACD on the sharded runtime: about 0.1% of tuples reach
    // the solver, so the validator fast path, the router and the channel
    // hop do the work. The same runtime layer as `macd_tight`, used the
    // other way round.
    Workload {
        name: "macd_calm",
        symbols: 100,
        tick_noise: 0.0002,
        drift_secs: 10.0,
        bound: 2.0,
        horizon: 60.0,
        query: Query::Macd,
        mode: Mode::Sharded,
        lap_secs: 200.0,
    },
    // Ungrouped global Min through the partition rewrite on the hybrid
    // runtime: per-key envelope rebuilds, the serial merge at each sync and
    // the optimizer at set-up; no join or average state.
    Workload {
        name: "min_hybrid",
        symbols: 1_000,
        tick_noise: 0.002,
        drift_secs: 2.0,
        bound: 0.05,
        horizon: 5.0,
        query: Query::GlobalMin,
        mode: Mode::Hybrid,
        lap_secs: 40.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn plan(&self) -> LogicalPlan {
        let (short, long, slide) = MACD;
        match self.query {
            Query::Macd => pulse_bench::queries::macd(short, long, slide),
            Query::GlobalMin => {
                let mut lp = LogicalPlan::new(vec![nyse::schema()]);
                lp.add(
                    LogicalOp::Aggregate {
                        func: AggFunc::Min,
                        attr: 0,
                        width: short,
                        slide,
                        group_by_key: false,
                    },
                    vec![PortRef::Source(0)],
                );
                lp
            }
        }
    }

    /// Longest window of the query, in stream seconds.
    pub fn longest_window(&self) -> f64 {
        match self.query {
            Query::Macd => MACD.1,
            Query::GlobalMin => MACD.0,
        }
    }

    /// How far behind the watermark the benchmark garbage-collects lineage:
    /// the longest window plus the horizon, beyond which no live window or
    /// prediction can reach a segment.
    pub fn gc_lag(&self) -> f64 {
        self.longest_window() + self.horizon
    }

    /// Batches between the benchmark's `gc_before` calls: one GC lag of
    /// stream time, so the lineage store holds between one and two lags of
    /// history and each call has a lag's worth of snapshots to drop.
    pub fn gc_every_batches(&self) -> usize {
        (self.gc_lag() * RATE / DEFAULT_BATCH as f64).round() as usize
    }

    /// Untimed warm-up prefix, in whole batches: three GC periods, so
    /// windows, predictions and the lineage store have filled and turned
    /// over before timing starts.
    pub fn warmup_batches(&self) -> usize {
        3 * self.gc_every_batches()
    }

    pub fn config(&self) -> RuntimeConfig {
        RuntimeConfig { horizon: self.horizon, bound: self.bound, ..Default::default() }
    }

    /// The configuration of the verification pass: the shadow auditor on
    /// 1 in 64 symbols, with the NYSE calibration of the `BENCH_scaling.json`
    /// sweep (each symbol trades once per `symbols / RATE` seconds).
    pub fn audit_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            audit_rate: 64,
            calibration: pulse_stream::Calibration {
                noise: 0.5,
                max_slope: 5.0,
                sample_dt: self.symbols as f64 / RATE,
                max_abs: 210.0,
            },
            ..self.config()
        }
    }

    /// One shard per available CPU (at least two, so the shard hop and the
    /// cross-shard checks always run) on the sharded and hybrid runtimes.
    pub fn shards(&self) -> usize {
        match self.mode {
            Mode::Single => 1,
            Mode::Sharded | Mode::Hybrid => crate::available_cpus().max(2),
        }
    }

    /// One lap of the seeded feed, cut to whole batches.
    pub fn feed(&self, seed: u64) -> Replay {
        let mut feed = NyseGen::new(NyseConfig {
            symbols: self.symbols,
            rate: RATE,
            drift_duration: self.drift_secs,
            tick_noise: self.tick_noise,
            seed,
        })
        .generate(self.lap_secs);
        feed.truncate(feed.len() / DEFAULT_BATCH * DEFAULT_BATCH);
        let lap_secs = feed.len() as f64 / RATE;
        let base_ts = feed.iter().map(|t| t.ts).collect();
        Replay { feed, base_ts, lap_secs, lap: 0, pos: 0 }
    }
}

/// Replays one generated lap over and over, each lap shifted later by the
/// lap's duration so timestamps keep rising. Prices restart with every lap,
/// which the runtime sees as one jump per symbol.
pub struct Replay {
    feed: Vec<Tuple>,
    base_ts: Vec<f64>,
    lap_secs: f64,
    lap: u32,
    pos: usize,
}

impl Replay {
    /// The next `DEFAULT_BATCH` tuples (laps hold whole batches).
    pub fn next_batch(&mut self) -> &[Tuple] {
        if self.pos == self.feed.len() {
            self.lap += 1;
            let shift = self.lap as f64 * self.lap_secs;
            for (t, base) in self.feed.iter_mut().zip(&self.base_ts) {
                t.ts = base + shift;
            }
            self.pos = 0;
        }
        let start = self.pos;
        self.pos += DEFAULT_BATCH;
        &self.feed[start..self.pos]
    }

    /// Back to the first tuple of the first lap.
    pub fn rewind(&mut self) {
        for (t, base) in self.feed.iter_mut().zip(&self.base_ts) {
            t.ts = *base;
        }
        self.lap = 0;
        self.pos = 0;
    }

    pub fn lap_len(&self) -> usize {
        self.feed.len()
    }
}

/// A constructed runtime of any mode, driven batch by batch.
pub enum Runtime {
    Single { rt: Box<PulseRuntime>, outputs: Vec<Segment>, keep: bool, results: usize },
    Sharded(ShardedRuntime),
    Hybrid(HybridRuntime),
}

/// What a finished run hands back. `outputs` are the sink segments the
/// runtime returned to the caller (empty when a single-threaded run was
/// told not to keep them); `results` counts them either way.
pub struct Finished {
    pub stats: RuntimeStats,
    pub validator: ValidatorStats,
    pub metrics: OpMetrics,
    pub phases: PhaseTable,
    pub outputs: Vec<Segment>,
    pub results: usize,
    /// Per-node operator counters, single-threaded runs only.
    pub nodes: Vec<OpMetrics>,
    /// Lineage snapshots held at the end, single-threaded runs only.
    pub lineage: Option<usize>,
}

impl Runtime {
    /// Builds a runtime of `mode` over `lp` with `shards` workers (the
    /// partition rewrite is applied here for hybrid mode, so set-up time
    /// includes it). Single-threaded runs keep their result segments only
    /// when `keep`.
    pub fn build(
        mode: Mode,
        shards: usize,
        lp: &LogicalPlan,
        cfg: RuntimeConfig,
        keep: bool,
    ) -> Runtime {
        let preds = vec![Predictor::AdaptiveLinear(nyse::schema())];
        match mode {
            Mode::Single => Runtime::Single {
                rt: Box::new(
                    PulseRuntime::with_predictors(preds, lp, cfg).expect("plan transforms"),
                ),
                outputs: Vec::new(),
                keep,
                results: 0,
            },
            Mode::Sharded => Runtime::Sharded(
                ShardedRuntime::new(preds, lp, cfg, shards).expect("plan is key-partitionable"),
            ),
            Mode::Hybrid => Runtime::Hybrid(
                HybridRuntime::new(preds, &rewrite(lp), cfg, shards)
                    .expect("rewritten branches transform"),
            ),
        }
    }

    /// Hands one batch of source-0 tuples to the runtime.
    pub fn ingest(&mut self, batch: &[Tuple]) {
        match self {
            Runtime::Single { rt, outputs, keep, results } => {
                let pairs: Vec<(usize, &Tuple)> = batch.iter().map(|t| (0, t)).collect();
                let outs = rt.on_pairs(&pairs);
                *results += outs.len();
                if *keep {
                    outputs.extend(outs);
                }
            }
            Runtime::Sharded(rt) => {
                for t in batch {
                    rt.on_tuple(0, t);
                }
            }
            Runtime::Hybrid(rt) => {
                for t in batch {
                    rt.on_tuple(0, t);
                }
            }
        }
    }

    pub fn gc_before(&mut self, t: f64) {
        match self {
            Runtime::Single { rt, .. } => rt.gc_before(t),
            Runtime::Sharded(rt) => rt.gc_before(t),
            Runtime::Hybrid(rt) => rt.gc_before(t),
        }
    }

    /// Ends the stream (joins worker threads) and collects the results.
    pub fn finish(self) -> Finished {
        match self {
            Runtime::Single { rt, outputs, results, .. } => Finished {
                stats: rt.stats(),
                validator: rt.validator().stats(),
                metrics: rt.plan().metrics(),
                phases: *rt.phases(),
                outputs,
                results,
                nodes: (0..rt.plan().len()).map(|i| rt.plan().node_metrics(i)).collect(),
                lineage: Some(rt.plan().lineage().lock().len()),
            },
            Runtime::Sharded(rt) => {
                let r = rt.finish();
                Finished {
                    stats: r.stats,
                    validator: r.validator,
                    metrics: r.metrics,
                    phases: r.phases,
                    results: r.outputs.len(),
                    outputs: r.outputs,
                    nodes: Vec::new(),
                    lineage: None,
                }
            }
            Runtime::Hybrid(rt) => {
                let r = rt.finish();
                Finished {
                    stats: r.stats,
                    validator: r.validator,
                    metrics: r.metrics,
                    phases: r.phases,
                    results: r.outputs.len(),
                    outputs: r.outputs,
                    nodes: Vec::new(),
                    lineage: None,
                }
            }
        }
    }
}

/// The optimizer step hybrid set-up runs.
pub fn rewrite(lp: &LogicalPlan) -> HybridPlan {
    partition_rewrite(lp).expect("an ungrouped min takes the partition rewrite")
}

/// Feeds `batches` batches from `replay` into `rt` with the benchmark's GC
/// cadence, counting from `done` batches already fed.
pub fn feed(rt: &mut Runtime, w: &Workload, replay: &mut Replay, done: usize, batches: usize) {
    for i in done..done + batches {
        let batch = replay.next_batch();
        let last_ts = batch[batch.len() - 1].ts;
        rt.ingest(batch);
        if (i + 1).is_multiple_of(w.gc_every_batches()) {
            rt.gc_before(last_ts - w.gc_lag());
        }
    }
}
