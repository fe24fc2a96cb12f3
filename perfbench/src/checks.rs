//! Correctness and accounting checks, run after the timed region on the
//! same seeded feed. Results are always the sink segments the runtime
//! handed back, never `RuntimeStats::outputs`.

use crate::workload::{self, Finished, Mode, Replay, Runtime, Workload};
use pulse_core::{RuntimeStats, DEFAULT_BATCH};
use pulse_stream::fingerprint;
use std::time::Instant;

/// The single-threaded replay of a sharded run's exact prefix: its result
/// and the seconds it spent after the warm-up.
pub struct Baseline {
    pub fin: Finished,
    pub timed_secs: f64,
}

/// Every check of `w` against the measured run `fin`, which consumed
/// `batches` batches of `replay` (warm-up included). Returns the
/// single-threaded baseline when one was replayed.
pub fn run(
    w: &Workload,
    replay: &mut Replay,
    fin: &Finished,
    batches: usize,
) -> Result<Option<Baseline>, String> {
    accounting("measured run", &fin.stats, batches * DEFAULT_BATCH)?;
    if fin.results == 0 {
        return Err("the measured run returned no result segments".into());
    }
    match w.mode {
        Mode::Single => audit(w, replay).map(|()| None),
        Mode::Sharded => same_as_single(w, replay, fin, batches).map(Some),
        Mode::Hybrid => shard_invariant(w, replay).map(|()| None),
    }
}

/// Every tuple is suppressed, pushed or a model error, and every tuple fed
/// was seen (summed across shards).
fn accounting(what: &str, s: &RuntimeStats, fed: usize) -> Result<(), String> {
    let sum = s.suppressed + s.segments_pushed + s.model_errors;
    if s.tuples_in != sum || s.tuples_in != fed as u64 {
        return Err(format!(
            "{what}: tuples_in {} != suppressed {} + segments_pushed {} + model_errors {} \
             = {sum}, or != {fed} tuples fed",
            s.tuples_in, s.suppressed, s.segments_pushed, s.model_errors
        ));
    }
    Ok(())
}

/// Replays the sharded run's prefix on one `PulseRuntime` (same batches,
/// same GC points) and demands the same counters and bit-identical result
/// segments, as `shard_equiv` does.
fn same_as_single(
    w: &Workload,
    replay: &mut Replay,
    fin: &Finished,
    batches: usize,
) -> Result<Baseline, String> {
    replay.rewind();
    let lp = w.plan();
    let mut rt = Runtime::build(Mode::Single, 1, &lp, w.config(), true);
    let warm = w.warmup_batches();
    workload::feed(&mut rt, w, replay, 0, warm);
    let t = Instant::now();
    workload::feed(&mut rt, w, replay, warm, batches - warm);
    let timed_secs = t.elapsed().as_secs_f64();
    let single = rt.finish();
    accounting("single-threaded replay", &single.stats, batches * DEFAULT_BATCH)?;
    if single.stats != fin.stats {
        return Err(format!("sharded {:?} != single-threaded {:?}", fin.stats, single.stats));
    }
    if fingerprint(&single.outputs) != fingerprint(&fin.outputs) {
        return Err(format!(
            "sharded results ({}) differ from single-threaded results ({})",
            fin.outputs.len(),
            single.outputs.len()
        ));
    }
    Ok(Baseline { fin: single, timed_secs })
}

/// Runs the warm-up prefix through the hybrid runtime at 1 and at `n`
/// shards and demands the same counters and merge results (`opt_equiv`'s
/// rule).
fn shard_invariant(w: &Workload, replay: &mut Replay) -> Result<(), String> {
    let n = w.shards();
    let lp = w.plan();
    let batches = w.warmup_batches();
    let mut runs = Vec::new();
    for shards in [1, n] {
        replay.rewind();
        let mut rt = Runtime::build(Mode::Hybrid, shards, &lp, w.config(), true);
        workload::feed(&mut rt, w, replay, 0, batches);
        let fin = rt.finish();
        accounting(&format!("{shards}-shard hybrid"), &fin.stats, batches * DEFAULT_BATCH)?;
        runs.push(fin);
    }
    let (one, many) = (&runs[0], &runs[1]);
    if one.stats != many.stats {
        return Err(format!("1 shard {:?} != {n} shards {:?}", one.stats, many.stats));
    }
    if one.outputs.is_empty() || fingerprint(&one.outputs) != fingerprint(&many.outputs) {
        return Err(format!(
            "merge results differ: {} at 1 shard, {} at {n}",
            one.outputs.len(),
            many.outputs.len()
        ));
    }
    Ok(())
}

/// One lap with the shadow auditor on 1 in 64 symbols: it must have
/// checked something and found no guarantee breach.
fn audit(w: &Workload, replay: &mut Replay) -> Result<(), String> {
    replay.rewind();
    let mut rt = Runtime::build(Mode::Single, 1, &w.plan(), w.audit_config(), false);
    workload::feed(&mut rt, w, replay, 0, replay.lap_len() / DEFAULT_BATCH);
    let Runtime::Single { rt, .. } = &rt else { unreachable!("built single-threaded") };
    let ledger = rt.audit_ledger().expect("auditing is on");
    if ledger.checks == 0 || ledger.breaches > 0 {
        return Err(format!(
            "shadow audit: {} breaches in {} checks over {} keys",
            ledger.breaches,
            ledger.checks,
            ledger.audited_keys()
        ));
    }
    println!(
        "  audit          {} checks over {} keys, 0 breaches",
        ledger.checks,
        ledger.audited_keys()
    );
    Ok(())
}
