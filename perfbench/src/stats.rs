//! Order statistics, process probes and the simulated-outcome digest.

/// Samples a reported tail percentile must have strictly above it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile, in steps of 0.1 from 99.9 down to 50, that
/// leaves at least [`TAIL_BEYOND`] samples strictly above its nearest rank,
/// with its value; `None` when even the median does not. The fine steps
/// keep the statistic near the eleventh-largest sample whatever the count,
/// so a run with a few more ops does not jump to a coarser percentile.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (500..1000).rev().find_map(|tenths: usize| {
        let rank = (tenths * n).div_ceil(1000);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| (tenths as f64 / 10.0, sorted[rank - 1]))
    })
}

/// Consecutive ops per tail window. A window's tail is then about its
/// p90: the highest percentile with [`TAIL_BEYOND`] of its ops beyond.
pub const TAIL_WINDOW: usize = 100;

/// The tail of a run's op times, given in the order the ops ran: the ops
/// split into windows of at least [`TAIL_WINDOW`] consecutive ops (the last
/// takes the remainder), each window's [`tail_percentile`], and the median
/// over windows of percentile and value. Interference from other tenants of
/// a shared host arrives in bursts of a few consecutive ops; the median
/// over windows keeps one burst from setting the run's tail, while a tail
/// the program itself causes shows in every window. Returns (percentile,
/// value, windows), or `None` with too few ops for any tail.
pub fn windowed_tail(in_order: &[f64]) -> Option<(f64, f64, usize)> {
    let windows = (in_order.len() / TAIL_WINDOW).max(1);
    let size = in_order.len() / windows;
    let tails = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * size
            };
            tail_percentile(&sorted(&in_order[w * size..end]))
        })
        .collect::<Option<Vec<_>>>()?;
    let pcts: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.1).collect();
    Some((median(&pcts), median(&values), windows))
}

/// Sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles with the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses; both equal the sample for one
/// sample and 0 for none.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    match s.len() {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        n => {
            let at = |q: f64| {
                let pos = q * (n + 1) as f64;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = (pos - j as f64).clamp(0.0, 1.0);
                s[j - 1] + (s[j] - s[j - 1]) * frac
            };
            (at(0.25), at(0.75))
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over every byte fed to it: a stable, dependency-free hash of an
/// ordered stream of simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float in by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds a string in, length-prefixed so concatenations cannot collide.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Renders a digest the way reports and the pin file spell it.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux), and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts this process, and every thread it starts later, to the CPU
/// it is running on. Returns that CPU, or `None` if the kernel refused.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 1024-bit `cpu_set_t` and `size` is its
    // length in bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// A field of `/proc/self/status`, parsed as a number (units dropped).
fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(field))?;
    value.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Threads this process runs right now; 0 where unavailable.
pub fn threads() -> usize {
    proc_status("Threads:").map_or(0, |n| n as usize)
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 leaves exactly 10 above rank 990; p99.1 would leave 9.
        assert_eq!(tail_percentile(&samples), Some((99.0, 990.0)));
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 leaves 10 above rank 190; p95.1 would leave 9.
        assert_eq!(tail_percentile(&samples), Some((95.0, 190.0)));
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        // 199 samples: p95's rank is 190, leaving 9; p94.9's is 189.
        assert_eq!(tail_percentile(&samples), Some((94.9, 189.0)));
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples), Some((50.0, 10.0)));
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples), None);
    }

    #[test]
    fn windowed_tail_outlasts_one_burst_but_not_a_steady_tail() {
        // 300 ops at 1 ms with a 15-op burst at 10 ms inside the second
        // window: the plain tail is the burst, the windowed tail is not.
        let mut ops = vec![1.0; 300];
        ops[120..135].fill(10.0);
        assert_eq!(tail_percentile(&sorted(&ops)).map(|t| t.1), Some(10.0));
        assert_eq!(windowed_tail(&ops), Some((90.0, 1.0, 3)));
        // Every 5th op slow in every window: the windowed tail shows it.
        let ops: Vec<f64> = (0..300)
            .map(|i| if i % 5 == 0 { 3.0 } else { 1.0 })
            .collect();
        assert_eq!(windowed_tail(&ops), Some((90.0, 3.0, 3)));
        // Fewer ops than a window: one window over all of them.
        assert_eq!(windowed_tail(&[1.0; 40]).map(|t| t.2), Some(1));
        assert_eq!(windowed_tail(&[1.0; 19]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let mut a = Digest::default();
        a.str("ab");
        a.f64(1.0);
        let mut b = Digest::default();
        b.f64(1.0);
        b.str("ab");
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.str("ab");
        c.f64(1.0);
        assert_eq!(a, c);
    }
}
