//! The repository's benchmark: seeded feeds replayed, closed loop, into
//! the public runtime entry points (`PulseRuntime::on_pairs`,
//! `ShardedRuntime::on_tuple`/`finish`, `HybridRuntime::on_tuple`/
//! `finish`). One caller thread hands over 256-tuple batches as fast as
//! the runtime takes them.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <macd_tight|macd_calm|min_hybrid|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with obs, the profiler and
//! the flight recorder off. `--trace 1` is the traced run behind the
//! per-layer metrics (see `layers.rs`). Either way the run ends with the
//! correctness and accounting checks, outside the timed region; a failed
//! check exits with code 1. The last line of standard output is one JSON
//! object: `correct`, `attempted` (tuples handed to the measured runtime),
//! `failed` (tuples it could not model) and `metrics`.

mod checks;
mod clock;
mod layers;
mod workload;

use clock::{median, peak_rss_mib, quantile, rss_mib};
use pulse_core::DEFAULT_BATCH;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Mode, Runtime, Workload};

/// Runtime constructions per run; `setup_s` takes their median.
const SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    // Non-finite values have no JSON form; a ratio over nothing reads 0.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name: name.into(), value, unit }
}

pub fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finished run: its metrics, the tuples attempted and failed, and the
/// verdict of the checks.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub check: Result<(), String>,
}

/// What every run of a workload shares: the replayed feed, the set-up
/// measurements and the runtime left warm for timing.
pub struct Prepared {
    pub replay: workload::Replay,
    pub rt: Runtime,
    pub setup_s: f64,
    pub warm_batches: usize,
    /// Peak RSS through set-up and warm-up above the RSS with the feed
    /// generated, in MiB.
    pub peak_rss_mb: f64,
    pub rewrite_us: Vec<f64>,
}

/// Generates the feed, builds the runtime `SETUPS` times (all but the last
/// are finished and dropped) and warms the survivor up. `setup_s` is the
/// median construction time plus the warm-up. A `traced` set-up builds
/// with `pulse_obs` on, since the sharded router creates its send-wait
/// histogram only then, and warms up with it off.
pub fn prepare(w: &Workload, seed: u64, traced: bool) -> Prepared {
    let mut replay = w.feed(seed);
    let rss0_mib = rss_mib();
    let lp = w.plan();
    let mut build = Vec::with_capacity(SETUPS);
    let mut rewrite_us = Vec::with_capacity(SETUPS);
    let mut rt = None;
    for _ in 0..SETUPS {
        if matches!(w.mode, Mode::Hybrid) {
            let t = Instant::now();
            std::hint::black_box(workload::rewrite(&lp));
            rewrite_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        pulse_obs::set_enabled(traced);
        let t = Instant::now();
        let built = Runtime::build(w.mode, w.shards(), &lp, w.config(), false);
        build.push(t.elapsed().as_secs_f64());
        pulse_obs::set_enabled(false);
        if let Some(old) = rt.replace(built) {
            Runtime::finish(old);
        }
    }
    let mut rt = rt.expect("at least one set-up");
    let warm_batches = w.warmup_batches();
    let t = Instant::now();
    workload::feed(&mut rt, w, &mut replay, 0, warm_batches);
    let setup_s = median(&mut build) + t.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mib() - rss0_mib;
    Prepared { replay, rt, setup_s, warm_batches, peak_rss_mb, rewrite_us }
}

/// The untraced measurement: closed loop for `seconds`, then `finish`.
///
/// Throughput is the median over the timed region's GC periods (each a
/// fixed number of batches ending in one `gc_before` call, charged an equal
/// share of `finish`), so a transient stall of the machine moves one
/// period, not the result. A last, incomplete period counts for latency
/// only.
fn measure(w: &Workload, args: &Args) -> Outcome {
    let Prepared { mut replay, mut rt, setup_s, warm_batches, peak_rss_mb, .. } =
        prepare(w, args.seed, false);
    let deadline = Duration::from_secs(args.seconds);
    let mut lat_ns: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut periods: Vec<(usize, f64)> = Vec::new();
    let mut done = warm_batches;
    let t0 = Instant::now();
    let (mut p0, mut p_tuples) = (t0, 0);
    while t0.elapsed() < deadline {
        let batch = replay.next_batch();
        let last_ts = batch[batch.len() - 1].ts;
        let b0 = Instant::now();
        rt.ingest(batch);
        lat_ns.push(b0.elapsed().as_nanos() as u64);
        p_tuples += batch.len();
        done += 1;
        if done.is_multiple_of(w.gc_every_batches()) {
            rt.gc_before(last_ts - w.gc_lag());
            periods.push((p_tuples, p0.elapsed().as_secs_f64()));
            (p0, p_tuples) = (Instant::now(), 0);
        }
    }
    let f0 = Instant::now();
    let fin = rt.finish();
    let finish_s = f0.elapsed().as_secs_f64();
    let secs = t0.elapsed().as_secs_f64();
    let timed = lat_ns.len();
    let share = finish_s / periods.len().max(1) as f64;
    let mut rates: Vec<f64> = periods.iter().map(|&(n, s)| n as f64 / (s + share)).collect();
    let tuples_per_s =
        if rates.is_empty() { (timed * DEFAULT_BATCH) as f64 / secs } else { median(&mut rates) };
    let p50 = quantile(&mut lat_ns, 0.50) as f64 / 1e3;
    let p95 = quantile(&mut lat_ns, 0.95) as f64 / 1e3;
    let s = fin.stats;
    let failed = s.model_errors;
    println!(
        "{}: {} shard(s), {} CPUs available; warm-up {} batches; timed {} batches \
         ({} tuples, {} GC periods) in {secs:.2} s; {} results",
        w.name,
        w.shards(),
        available_cpus(),
        warm_batches,
        timed,
        timed * DEFAULT_BATCH,
        periods.len(),
        fin.results
    );
    let ms = vec![
        metric("tuples_per_s", tuples_per_s, "1/s"),
        metric("ingest_p50_us", p50, "us"),
        metric("ingest_p95_us", p95, "us"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    for m in &ms {
        println!("  {:<14} {:>16.3} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<14} {:>16.3} ({failed} of {} tuples)",
        "failed_frac",
        failed as f64 / s.tuples_in.max(1) as f64,
        s.tuples_in
    );
    let check = checks::run(w, &mut replay, &fin, done).map(|_| ());
    Outcome { metrics: ms, attempted: s.tuples_in, failed, check }
}

pub fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `--workload all`: runs each workload in its own process (so peak RSS
/// and the global metrics registry start clean) and relays the output.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in &workload::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn workload run");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workload::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let out = if args.trace { layers::traced(w, &args) } else { measure(w, &args) };
    if let Err(e) = &out.check {
        eprintln!("perfbench: {}: check failed: {e}", w.name);
    }
    let correct = out.check.is_ok();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
