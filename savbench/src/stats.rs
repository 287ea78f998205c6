//! Measurement helpers: percentiles, `/proc` readers, the counting
//! allocator and the process-wide clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call (process start, in practice: `main`
/// calls it first). Every timestamp in the benchmark is on this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Counts allocations on every thread; the layer pass reads the delta
/// around single-threaded calls, so the count there is exact.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// statistic that publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (and reallocations) made by the process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort in place and return the `q`-quantile.
pub fn quantile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, q)
}

/// Median of an unsorted sample.
pub fn median(values: &mut [f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n`, as `(label, q)`.
pub fn highest_percentile(n: usize) -> (&'static str, f64) {
    // Per ten thousand, so that the count beyond is exact.
    const LADDER: [(&str, usize); 6] = [
        ("p99.99", 9999),
        ("p99.9", 9990),
        ("p99", 9900),
        ("p95", 9500),
        ("p90", 9000),
        ("p50", 5000),
    ];
    for (label, per_myriad) in LADDER {
        let rank = (n * per_myriad).div_ceil(10_000);
        if n - rank >= 10 {
            return (label, per_myriad as f64 / 1e4);
        }
    }
    ("p50", 0.50)
}

/// CPU seconds (user + system) a thread of this process has used, by
/// thread name; `None` when no live thread carries the name.
pub fn thread_cpu_s(name: &str) -> Option<f64> {
    let mut total = None;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited between readdir and open
        };
        if comm.trim_end() != name {
            continue;
        }
        if let Ok(stat) = std::fs::read_to_string(dir.join("stat")) {
            *total.get_or_insert(0.0) += parse_stat_cpu_s(&stat)?;
        }
    }
    total
}

/// utime + stime of one `/proc/<pid>/task/<tid>/stat` line, in seconds.
/// The command name may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // Linux fixes USER_HZ at 100 for every architecture it exports to
    // userspace through /proc.
    Some((utime + stime) / 100.0)
}

/// Number of live threads in this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19).0, "p50");
        assert_eq!(highest_percentile(20).0, "p50");
        assert_eq!(highest_percentile(100).0, "p90");
        assert_eq!(highest_percentile(200).0, "p95");
        assert_eq!(highest_percentile(999).0, "p95");
        assert_eq!(highest_percentile(1000).0, "p99");
        assert_eq!(highest_percentile(10_000).0, "p99.9");
        assert_eq!(highest_percentile(100_000).0, "p99.99");
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn stat_line_with_awkward_name_parses() {
        let line = "7 (a b) c) R 1 7 7 0 -1 4194304 10 0 0 0 250 50 0 0 20 0 2 0 100 0 0";
        assert_eq!(parse_stat_cpu_s(line), Some(3.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn named_thread_cpu_grows_while_it_spins() {
        let (tx, rx) = std::sync::mpsc::channel();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("savbench-spin".into())
            .spawn(move || {
                let t0 = Instant::now();
                while t0.elapsed().as_millis() < 60 {
                    std::hint::spin_loop();
                }
                tx.send(()).unwrap();
                stop_rx.recv().ok();
            })
            .unwrap();
        rx.recv().unwrap();
        let cpu = thread_cpu_s("savbench-spin").expect("thread is alive");
        assert!(cpu >= 0.03, "60 ms of spinning read as {cpu} s");
        assert!(thread_cpu_s("no-such-thread").is_none());
        assert!(thread_count() >= 2);
        stop_tx.send(()).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn allocator_counts_and_rss_reads() {
        let before = allocs();
        let v = std::hint::black_box(vec![0u8; 4096]);
        assert!(allocs() > before);
        drop(v);
        assert!(peak_rss_mib() > 1.0);
    }
}
