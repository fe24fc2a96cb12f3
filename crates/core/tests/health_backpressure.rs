//! End-to-end health/alerting check: saturating a shard's bounded channel
//! must flip the served `/health` verdict to 503 (`queue_saturated`
//! firing), and draining must flip it back to 200.
//!
//! The router thread pumps violation-heavy tuples with a batch size of 1 —
//! every tuple re-runs the solver on the worker (~µs) while routing costs
//! ~100 ns, so the channel sits at `CHANNEL_DEPTH` almost immediately and
//! stays there while feeding continues. The `shard.queue_depth{shard="0"}`
//! gauge tracks the backlog, the serve thread's rule evaluator sees it
//! breach the `queue_saturated` threshold on consecutive polls, and the
//! verdict degrades.

use pulse_core::runtime::Predictor;
use pulse_core::{Executor, RuntimeConfig};
use pulse_math::CmpOp;
use pulse_model::{AttrKind, Expr, ModelSpec, Pred, Schema, StreamModel, Tuple};
use pulse_stream::{LogicalOp, LogicalPlan, PortRef};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw GET returning (status code, body).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).expect("send");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Polls `/health` until `want` or panics after `timeout`.
fn poll_until(addr: &str, want: u16, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) = http_get(addr, "/health");
        if status == want {
            return body;
        }
        assert!(Instant::now() < deadline, "/health never answered {want} (last: {status} {body})");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn health_verdict_flips_when_shard_channel_saturates() {
    pulse_obs::set_enabled(true);
    let h = pulse_obs::serve("127.0.0.1:0", pulse_obs::Routes::new()).expect("bind");
    let addr = h.addr().to_string();

    // Per-key linear models over a single filter: key-partitionable, and
    // tuples alternating far outside the ±0.05 bound violate every time.
    let schema = Schema::of(&[("x", AttrKind::Modeled), ("v", AttrKind::Coefficient)]);
    let sm = StreamModel::new(
        schema.clone(),
        vec![ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time)],
    )
    .unwrap();
    let mut lp = LogicalPlan::new(vec![schema]);
    lp.add(
        LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(-1e9)) },
        vec![PortRef::Source(0)],
    );
    let cfg = RuntimeConfig { horizon: 1e12, bound: 0.05, ..Default::default() };
    let mut rt = Executor::new(vec![Predictor::Clause(sm)], &lp, cfg, 1).expect("builds");
    rt.set_batch(1);

    // Feed from this thread while a stop flag lets us quit as soon as the
    // verdict has flipped; the router blocks in `send` whenever the worker
    // falls CHANNEL_DEPTH batches behind, which is the condition under test.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let body = poll_until(&addr, 503, Duration::from_secs(30));
            stop.store(true, Ordering::Relaxed);
            body
        })
    };
    let mut i = 0u64;
    let mut max_depth = 0;
    while !stop.load(Ordering::Relaxed) {
        // Flip sign once per 64-key sweep so each key alternates between
        // +100 and −100 across its visits and every revisit violates its
        // constant model (i % 2 would give each key a fixed sign — 64 is
        // even — and a permanently suppressed, cheap fast path).
        let x = if (i / 64).is_multiple_of(2) { 100.0 } else { -100.0 };
        rt.on_tuple(0, &Tuple::new(i % 64, i as f64, vec![x, 0.0]));
        max_depth = max_depth.max(rt.queue_depth(0));
        i += 1;
        assert!(i < 50_000_000, "queue never saturated after {i} tuples");
    }
    let degraded = watcher.join().expect("watcher");
    assert!(degraded.contains("\"degraded\""), "degraded body: {degraded}");
    assert!(degraded.contains("queue_saturated"), "firing rule named: {degraded}");
    assert!(max_depth >= 4, "router saw a full channel (max depth {max_depth})");

    // Drain: join the worker, which pins the gauge at zero; the rule
    // clears on the next evaluation and the verdict recovers.
    let run = rt.finish();
    assert!(run.stats.violations > 0, "workload was violation-heavy");
    let ok = poll_until(&addr, 200, Duration::from_secs(30));
    assert!(ok.contains("\"ok\""), "recovered body: {ok}");
}
