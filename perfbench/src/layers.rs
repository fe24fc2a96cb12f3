//! The traced run behind the per-layer metrics.
//!
//! After the same set-up and warm-up as the measured run, the timed region
//! alternates untraced and traced slices. Traced slices turn on the phase
//! profiler and `pulse_obs` metrics and record the benchmark's own spans,
//! with wall and thread CPU time, around each public call. Comparing the
//! two kinds of slice gives `trace.overhead_share`. Every number here comes
//! from public accessors: `phases()`, `stats()`, `validator()`,
//! `plan().node_metrics(i)`, `plan().lineage()`, `queue_depth(s)` and the
//! `pulse_obs` registry.
//!
//! Every per-layer metric is reported for every workload. A layer that
//! does not run on a workload reads 0 and is listed under `absent` in the
//! workload's file, `out/<workload>.json`.

use crate::checks;
use crate::clock::{self, median, quantile, Spans, Stamp};
use crate::workload::{Mode, Replay, Runtime, Workload};
use crate::{metric, metrics_json, prepare, Args, Metric, Outcome, Prepared};
use pulse_core::{HybridRuntime, DEFAULT_BATCH};
use pulse_obs::Phase;
use pulse_stream::OpMetrics;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Alternating slices in the timed region (half of them traced).
const SLICES: u32 = 10;

/// Per-node operator counters, by node name, for each query's nodes.
const MACD_NODES: [&str; 4] = ["avg_short", "avg_long", "join", "map"];
const MIN_NODES: [&str; 2] = ["min_partial", "min_merge"];

/// The per-layer metrics and their units, in report order.
fn catalogue() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("runtime.suppressed_share", "share"),
        ("runtime.pushes_per_tuple", "1/tuple"),
        ("validate.checks_per_tuple", "1/tuple"),
        ("validate.fast_path_ns", "ns"),
        ("runtime.remodel_fit_ns", "ns/tuple"),
        ("eqsys.template_substitute_ns", "ns/tuple"),
        ("math.root_isolate_ns", "ns/tuple"),
        ("math.solve_assemble_ns", "ns/tuple"),
        ("math.solve_sturm_ns", "ns/tuple"),
        ("math.solve_refine_ns", "ns/tuple"),
        ("runtime.batch_drain_ns", "ns/tuple"),
        ("validate.emit_ns", "ns/tuple"),
        ("plan.push_glue_ns", "ns/tuple"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for node in MACD_NODES.iter().chain(&MIN_NODES) {
        for (field, _) in OpMetrics::default().fields() {
            v.push((format!("cops.{node}.{field}"), "1/tuple"));
        }
    }
    v.extend(
        [
            ("lineage.entries", "count"),
            ("lineage.gc_ms", "ms"),
            ("shard.count", "count"),
            ("shard.router_cpu_ns_per_tuple", "ns/tuple"),
            ("shard.send_wait_p95_ns", "ns"),
            ("shard.queue_depth_mean", "batches"),
            ("shard.finish_ms", "ms"),
            ("shard.speedup_vs_single", "ratio"),
            ("hybrid.sync_p95_us", "us"),
            ("hybrid.partials_per_result", "ratio"),
            ("hybrid.finish_ms", "ms"),
            ("opt.partition_rewrite_us", "us"),
            ("runtime.unattributed_share", "share"),
            ("runtime.cpu_share", "share"),
            ("trace.overhead_share", "share"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// What the alternating slices measured.
#[derive(Default)]
struct Slices {
    /// `[untraced, traced]` tuples handed over and wall seconds.
    tuples: [usize; 2],
    secs: [f64; 2],
    /// CPU of every thread but the caller's, over traced slices.
    worker_cpu_ns: u64,
    /// Queue depth summed over shards, sampled after each traced batch.
    depth_samples: Vec<u64>,
}

/// Hands one batch to a hybrid runtime, timing on their own the calls
/// that trigger a merge sync (every `SYNC_EVERY`-th routed tuple since
/// construction). `routed` counts tuples routed before this batch.
fn hybrid_batch(
    rt: &mut HybridRuntime,
    batch: &[pulse_model::Tuple],
    routed: usize,
    spans: &mut Spans,
) {
    for (i, t) in batch.iter().enumerate() {
        if (routed + i + 1).is_multiple_of(HybridRuntime::SYNC_EVERY) {
            let s = Stamp::now();
            rt.on_tuple(0, t);
            spans.record("hybrid.sync_on_tuple", "batch", s.elapsed());
        } else {
            rt.on_tuple(0, t);
        }
    }
}

fn set_traced(on: bool) {
    pulse_obs::set_enabled(on);
    pulse_obs::set_prof_enabled(on);
}

/// The timed region: alternating untraced and traced slices over `rt`,
/// which has consumed `done` batches. Returns the traced spans, the slice
/// totals and the batch count at the end.
fn run_slices(
    w: &Workload,
    rt: &mut Runtime,
    replay: &mut Replay,
    mut done: usize,
    seconds: u64,
) -> (Spans, Slices, usize) {
    let mut spans = Spans::default();
    let mut sl = Slices::default();
    let slice = Duration::from_secs(seconds) / SLICES;
    for k in 0..SLICES {
        let traced = k % 2 == 1;
        set_traced(traced);
        let (p0, c0) = (clock::process_cpu_ns(), clock::thread_cpu_ns());
        let t0 = Instant::now();
        let mut n = 0;
        while t0.elapsed() < slice {
            let batch = replay.next_batch();
            let last_ts = batch[batch.len() - 1].ts;
            if traced {
                let s = Stamp::now();
                match &mut *rt {
                    Runtime::Hybrid(h) => hybrid_batch(h, batch, done * DEFAULT_BATCH, &mut spans),
                    rt => rt.ingest(batch),
                }
                spans.record("batch", "slice", s.elapsed());
                if let Runtime::Sharded(s) = &*rt {
                    sl.depth_samples.push((0..s.shards()).map(|i| s.queue_depth(i)).sum());
                }
            } else {
                rt.ingest(batch);
            }
            n += batch.len();
            done += 1;
            if done.is_multiple_of(w.gc_every_batches()) {
                let s = Stamp::now();
                rt.gc_before(last_ts - w.gc_lag());
                if traced {
                    spans.record("gc_before", "slice", s.elapsed());
                }
            }
        }
        sl.tuples[traced as usize] += n;
        sl.secs[traced as usize] += t0.elapsed().as_secs_f64();
        if traced {
            let caller = clock::thread_cpu_ns() - c0;
            sl.worker_cpu_ns += (clock::process_cpu_ns() - p0).saturating_sub(caller);
        }
    }
    (spans, sl, done)
}

pub fn traced(w: &Workload, args: &Args) -> Outcome {
    pulse_obs::set_trace_enabled(false);
    let Prepared { mut replay, mut rt, warm_batches, mut rewrite_us, .. } =
        prepare(w, args.seed, true);
    pulse_obs::global().reset();
    let (mut spans, sl, done) = run_slices(w, &mut rt, &mut replay, warm_batches, args.seconds);
    // Finish traced, so shard workers export their counters as they stop.
    set_traced(true);
    let s = Stamp::now();
    let fin = rt.finish();
    spans.record("finish", "run", s.elapsed());
    let snap = pulse_obs::global().snapshot();
    set_traced(false);

    let check = checks::run(w, &mut replay, &fin, done);
    let baseline = check.as_ref().ok().and_then(Option::as_ref);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };

    // core::runtime / core::validate.
    let st = fin.stats;
    let per_in = |x: u64| x as f64 / st.tuples_in.max(1) as f64;
    put("runtime.suppressed_share", per_in(st.suppressed));
    put("runtime.pushes_per_tuple", per_in(st.segments_pushed));
    put("validate.checks_per_tuple", per_in(fin.validator.checks));
    let ph = &fin.phases;
    let mean = |p: Phase| ph.ns(p) as f64 / ph.count(p).max(1) as f64;
    put("validate.fast_path_ns", mean(Phase::Validate));

    // Violation path and plan glue, per tuple handed over while traced.
    let traced_tuples = sl.tuples[1].max(1) as f64;
    for (name, p) in [
        ("runtime.remodel_fit_ns", Phase::RemodelFit),
        ("eqsys.template_substitute_ns", Phase::TemplateSubstitute),
        ("math.root_isolate_ns", Phase::RootIsolate),
        ("math.solve_assemble_ns", Phase::SolveAssemble),
        ("math.solve_sturm_ns", Phase::SolveSturm),
        ("math.solve_refine_ns", Phase::SolveRefine),
        ("runtime.batch_drain_ns", Phase::SolveBatchDrain),
        ("validate.emit_ns", Phase::Emit),
        ("plan.push_glue_ns", Phase::Solve),
    ] {
        put(name, ph.ns(p) as f64 / traced_tuples);
    }

    // core::cops per node, per input tuple over the whole run, and
    // core::lineage. MACD nodes come from a single-threaded plan: the run
    // itself, or the replay of a sharded run's prefix.
    let macd = match w.mode {
        Mode::Single => Some(&fin),
        Mode::Sharded => baseline.map(|b| &b.fin),
        Mode::Hybrid => None,
    };
    if let Some(f) = macd {
        assert_eq!(f.nodes.len(), MACD_NODES.len(), "MACD compiles to four nodes");
        for (node, m) in MACD_NODES.iter().zip(&f.nodes) {
            for (field, v) in m.fields() {
                put(&format!("cops.{node}.{field}"), v as f64 / f.stats.tuples_in as f64);
            }
        }
        if let Some(n) = f.lineage {
            put("lineage.entries", n as f64);
        }
    }
    if matches!(w.mode, Mode::Hybrid) {
        // The prefix workers export their per-key envelopes as labelled
        // `cops.minmax.*` counters; the rest of the run's total is the merge.
        for (field, total) in fin.metrics.fields() {
            let partial = snap.family_sum(&format!("cops.minmax.{field}"));
            put(&format!("cops.min_partial.{field}"), per_in(partial));
            let merge = total.checked_sub(partial).expect("prefix counters are in the total");
            put(&format!("cops.min_merge.{field}"), per_in(merge));
        }
    }
    if let Some(g) = spans.table.get("gc_before") {
        put("lineage.gc_ms", g.wall_ns as f64 / g.count as f64 / 1e6);
    }

    // core::shard and core::hybrid.
    put("shard.count", w.shards() as f64);
    let batch = spans.table.get("batch").expect("traced slices ran");
    let (batch_wall, batch_cpu) = (batch.wall_ns, batch.cpu_ns);
    let finish_ms = spans.table.get("finish").expect("finished").wall_ns as f64 / 1e6;
    let untraced_tps = sl.tuples[0] as f64 / sl.secs[0];
    let traced_tps = sl.tuples[1] as f64 / sl.secs[1];
    match w.mode {
        Mode::Single => {}
        Mode::Sharded => {
            put("shard.router_cpu_ns_per_tuple", batch_cpu as f64 / traced_tuples);
            let wait = snap.histogram("shard.send_wait_ns").map_or(0, |h| h.p95_ns);
            put("shard.send_wait_p95_ns", wait as f64);
            let depth: u64 = sl.depth_samples.iter().sum();
            put("shard.queue_depth_mean", depth as f64 / sl.depth_samples.len().max(1) as f64);
            put("shard.finish_ms", finish_ms);
            if let Some(b) = baseline {
                let single_tps = ((done - warm_batches) * DEFAULT_BATCH) as f64 / b.timed_secs;
                put("shard.speedup_vs_single", untraced_tps / single_tps);
            }
        }
        Mode::Hybrid => {
            put("shard.router_cpu_ns_per_tuple", batch_cpu as f64 / traced_tuples);
            if let Some(s) = spans.table.get_mut("hybrid.sync_on_tuple") {
                put("hybrid.sync_p95_us", quantile(&mut s.walls, 0.95) as f64 / 1e3);
            }
            put("hybrid.partials_per_result", st.outputs as f64 / fin.results.max(1) as f64);
            put("hybrid.finish_ms", finish_ms);
            put("opt.partition_rewrite_us", median(&mut rewrite_us));
        }
    }

    // Attribution: the phase table against the time the runtime had. The
    // fast path is timed on 1 in 64 suppressed tuples, so its cell is
    // scaled up by 64.
    let attributed = (ph.total_ns() + 63 * ph.ns(Phase::Validate)) as f64;
    let runtime_ns = match w.mode {
        Mode::Single => batch_wall,
        Mode::Sharded | Mode::Hybrid => sl.worker_cpu_ns,
    };
    put("runtime.unattributed_share", 1.0 - attributed / runtime_ns.max(1) as f64);
    put("runtime.cpu_share", batch_cpu as f64 / batch_wall.max(1) as f64);
    put("trace.overhead_share", 1.0 - traced_tps / untraced_tps);

    let mut absent = Vec::new();
    let ms: Vec<Metric> = catalogue()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or_else(|| {
                absent.push(name.clone());
                0.0
            });
            metric(name, v, unit)
        })
        .collect();
    println!(
        "{} (traced): {} shard(s); untraced {:.0} tuples/s, traced {:.0} tuples/s; {} results",
        w.name,
        w.shards(),
        untraced_tps,
        traced_tps,
        fin.results
    );
    for m in &ms {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    write_file(w, args, &ms, &absent, &spans, &sl);
    Outcome {
        metrics: ms,
        attempted: st.tuples_in,
        failed: st.model_errors,
        check: check.map(|_| ()),
    }
}

/// Writes `out/<workload>.json` beside the benchmark's sources: the
/// per-layer metrics, the layers absent on this workload, and the span
/// table (wall and thread CPU per span name).
fn write_file(
    w: &Workload,
    args: &Args,
    ms: &[Metric],
    absent: &[String],
    spans: &Spans,
    sl: &Slices,
) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let span_rows: Vec<String> = spans
        .table
        .iter()
        .map(|(name, s)| {
            let mut walls = s.walls.clone();
            format!(
                "{{\"name\": \"{name}\", \"parent\": \"{}\", \"count\": {}, \"wall_ms\": {}, \
                 \"cpu_ms\": {}, \"p50_us\": {}, \"p95_us\": {}}}",
                s.parent,
                s.count,
                s.wall_ns as f64 / 1e6,
                s.cpu_ns as f64 / 1e6,
                quantile(&mut walls, 0.5) as f64 / 1e3,
                quantile(&mut walls, 0.95) as f64 / 1e3,
            )
        })
        .collect();
    let absent: Vec<String> = absent.iter().map(|a| format!("\"{a}\"")).collect();
    let json = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"shards\": {}, \
         \"available_parallelism\": {}, \"tuples_untraced\": {}, \"tuples_traced\": {}, \
         \"metrics\": {}, \"absent\": [{}], \"spans\": [{}]}}\n",
        w.name,
        args.seed,
        args.seconds,
        w.shards(),
        crate::available_cpus(),
        sl.tuples[0],
        sl.tuples[1],
        metrics_json(ms),
        absent.join(", "),
        span_rows.join(", "),
    );
    let path = format!("{dir}/{}.json", w.name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}
