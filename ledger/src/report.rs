//! Result plumbing: exact percentiles, the metric map, JSON helpers
//! over `flick_telemetry::json`, CPU and memory readings from the
//! kernel, and the host record.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use flick_telemetry::json::ObjectWriter;

/// A percentile computed exactly (nearest rank) from raw samples.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `sorted`.
#[must_use]
pub fn pct(sorted: &[u64], q: f64) -> Pct {
    let n = sorted.len();
    if n == 0 {
        return Pct {
            value: 0.0,
            n,
            beyond: 0,
        };
    }
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        value: sorted[rank - 1] as f64,
        n,
        beyond: n - rank,
    }
}

/// Median of unsorted values (the lower middle for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get((v.len().max(1) - 1) / 2).copied().unwrap_or(0.0)
}

/// Mean of the finite `values` after dropping the lowest and the
/// highest tenth.
#[must_use]
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Metric name → (value, unit), printed in name order.
#[derive(Default, Debug)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), (v, unit));
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = ObjectWriter::new();
        for (name, (v, unit)) in &self.0 {
            let mut m = ObjectWriter::new();
            m.raw("value", &num(*v)).str_field("unit", unit);
            o.raw(name, &m.finish());
        }
        o.finish()
    }
}

/// A JSON number: `v` with all its digits (0 when not finite).
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A percentile as `{"value", "samples", "beyond"}`, its value times
/// `scale`.
#[must_use]
pub fn pct_json(p: Pct, scale: f64) -> String {
    let mut o = ObjectWriter::new();
    o.raw("value", &num(p.value * scale))
        .u64_field("samples", p.n as u64)
        .u64_field("beyond", p.beyond as u64);
    o.finish()
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's
    // duration, and both clock ids are defined on Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    (ts.sec as u64) * 1_000_000_000 + ts.nsec as u64
}

/// CPU time of the whole process, every thread (live or exited).
#[must_use]
pub fn process_cpu_ns() -> u64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The core the client (or, in `compile`, the compiling) thread runs
/// on; the fabric worker gets the other one.
pub const CLIENT_CPU: usize = 0;
/// The core the fabric's threads run on.
pub const SERVER_CPU: usize = 1;

/// Pins the calling thread (and the threads it spawns later) to `cpu`
/// when the host has more than one; a failed pin leaves it unpinned.
/// Both busy threads keep their own core for the whole run, so a run
/// does not depend on where the scheduler happens to place them.
pub fn pin_to(cpu: usize) {
    if cores() < 2 || cpu >= 64 {
        return;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a valid one-word cpu set for the call's
    // duration; pid 0 names the calling thread.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Cores available to the process, read once before any thread is
/// pinned (a pinned thread sees only its own core).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The calling thread's kernel task id.
#[must_use]
pub fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time of task `tid` of this process, from
/// `/proc/self/task/<tid>/schedstat` (ns), falling back to the tick
/// counts in `stat`.
#[must_use]
pub fn task_cpu_ns(tid: u64) -> u64 {
    let base = format!("/proc/self/task/{tid}");
    if let Some(ns) = std::fs::read_to_string(format!("{base}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
    {
        return ns;
    }
    std::fs::read_to_string(format!("{base}/stat"))
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks * 10_000_000)
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` directly ("unknown" outside a repository).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host record every result carries.  Measures memcpy bandwidth,
/// which touches 128 MiB: call it after reading [`peak_rss_mib`].
#[must_use]
pub fn host_record() -> String {
    let mut o = ObjectWriter::new();
    o.u64_field("cores", cores() as u64)
        .raw(
            "memcpy_bytes_per_s",
            &num(flick_bench::hostcal::measure_memcpy_bps()),
        )
        .str_field("rustc", env!("LEDGER_RUSTC"))
        .str_field("git_revision", &git_revision());
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        let p = pct(&v, 0.5);
        assert_eq!((p.value, p.n, p.beyond), (50.0, 100, 50));
        let p = pct(&v, 0.99);
        assert_eq!((p.value, p.beyond), (99.0, 1));
        assert_eq!(pct(&[7], 0.99).value, 7.0);
    }

    #[test]
    fn trimmed_mean_drops_each_end_tenth() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v[0] = -1e9;
        v[19] = f64::NAN;
        // NaN dropped; of the 19 left, the lowest and highest go.
        assert_eq!(trimmed_mean(&v), (2..=18).sum::<i32>() as f64 / 17.0);
        assert_eq!(trimmed_mean(&[3.0, 5.0]), 4.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(num(1.2034), "1.2034");
        assert_eq!(num(f64::NAN), "0");
        let p = pct(&[10, 20], 0.5);
        assert_eq!(pct_json(p, 0.5), r#"{"value":5,"samples":2,"beyond":1}"#);
    }
}
