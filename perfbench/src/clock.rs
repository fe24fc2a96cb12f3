//! What the standard library does not measure: thread and process CPU
//! time (`clock_gettime`, declared by hand so the benchmark needs no extra
//! crate) and the process's resident set (Linux only).

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and both clock ids exist
    // on every Linux kernel this runs on; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of the process.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// One `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"));
    kib / 1024.0
}

/// Resident set size now, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Peak resident set size since the program started, in MiB. This is the
/// address space's own high-water mark: `getrusage`'s `ru_maxrss` would
/// also carry the peak of whatever process exec'd this one.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// One measured interval: wall time and the calling thread's CPU time.
pub struct Stamp {
    wall: Instant,
    cpu: u64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp { wall: Instant::now(), cpu: thread_cpu_ns() }
    }

    /// `(wall_ns, thread_cpu_ns)` since the stamp.
    pub fn elapsed(&self) -> (u64, u64) {
        let wall = self.wall.elapsed().as_nanos() as u64;
        (wall, thread_cpu_ns().saturating_sub(self.cpu))
    }
}

/// Aggregate of every span recorded under one name: the benchmark keeps
/// its spans in memory this way and writes them out at the end.
#[derive(Default)]
pub struct SpanStat {
    pub parent: &'static str,
    pub count: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Every span's wall time, for percentiles.
    pub walls: Vec<u64>,
}

/// The traced run's span table, keyed by span name.
#[derive(Default)]
pub struct Spans {
    pub table: std::collections::BTreeMap<&'static str, SpanStat>,
}

impl Spans {
    /// Records one finished span of `name`, caused by a span of `parent`.
    pub fn record(&mut self, name: &'static str, parent: &'static str, (wall, cpu): (u64, u64)) {
        let s = self.table.entry(name).or_default();
        s.parent = parent;
        s.count += 1;
        s.wall_ns += wall;
        s.cpu_ns += cpu;
        s.walls.push(wall);
    }
}

/// The `q`-quantile (0..=1) of `v`, nearest rank; 0 for an empty slice.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of a non-empty slice; an even count averages the middle pair.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
