//! Order statistics, the percentile rule, open-loop lag accounting and the
//! frontier budget penalty — the arithmetic behind every reported number —
//! and the two seeded draws the workloads need beyond `rand`'s own.

use rand::Rng;
use std::time::Duration;

/// Exponentially distributed with mean `mean` (Poisson inter-arrivals).
pub fn exp(rng: &mut impl Rng, mean: f64) -> f64 {
    -mean * (1.0 - rng.gen::<f64>()).ln()
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut impl Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0 < pct ≤ 100) of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `pct` percentile of
/// `n` samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// A tail percentile together with the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The percentile rule: the highest percentile of [`TAIL_LADDER`] that has
/// at least ten samples beyond it. `None` when not even the median does.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    TAIL_LADDER
        .iter()
        .find(|&&pct| samples_beyond(sorted.len(), pct) >= 10)
        .map(|&pct| Tail {
            pct,
            value: percentile(sorted, pct),
            samples: sorted.len(),
        })
}

/// The percentile `pct` of each run of consecutive samples just long enough
/// to have ten samples beyond it (1000 for p99, 100 for p90), and the
/// median of those per-window values: one burst moves one window, not the
/// reported tail. Samples are in arrival order; a short last window joins
/// the one before it. `None` with fewer samples than one window.
pub fn windowed_percentile(samples: &[f64], pct: f64) -> Option<f64> {
    let window = (1..=samples.len()).find(|&n| samples_beyond(n, pct) >= 10)?;
    let windows = samples.len() / window;
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * window
            };
            let mut v = samples[w * window..end].to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, pct)
        })
        .collect();
    Some(median(&per_window))
}

/// CPU time the hypervisor gave to other guests, summed over this
/// machine's CPUs, in clock ticks (`steal` in `/proc/stat`); `None` where
/// the kernel does not report it.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Ticks stolen since the steal counter read `start` (0 without a counter).
pub fn stolen_since(start: Option<u64>) -> u64 {
    steal_ticks().zip(start).map_or(0, |(now, then)| now - then)
}

/// Share of the machine's CPU time, in percent, stolen since `since`, when
/// the steal counter read `start` (`NaN` without a steal counter).
pub fn stolen_share(start: Option<u64>, since: std::time::Instant) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    match (start, steal_ticks()) {
        // /proc/stat counts in USER_HZ = 100 ticks per second.
        (Some(a), Some(b)) => {
            (b - a) as f64 / (since.elapsed().as_secs_f64() * 100.0 * cpus as f64) * 100.0
        }
        _ => f64::NAN,
    }
}

/// The samples least disturbed by other tenants of the machine: those
/// whose stolen time (the `u64`) is at most the median stolen time of all
/// samples. At least half survive; with no stolen time anywhere all do.
pub fn least_stolen<T>(samples: Vec<(T, u64)>) -> Vec<T> {
    let mut steal: Vec<u64> = samples.iter().map(|s| s.1).collect();
    steal.sort_unstable();
    let Some(&cut) = steal.get(steal.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    samples
        .into_iter()
        .filter(|s| s.1 <= cut)
        .map(|s| s.0)
        .collect()
}

/// CPU time (user + system) process `pid` has used, in microseconds.
pub fn cpu_us(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in USER_HZ = 100 ticks/s.
    let mut rest = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = rest.next()?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1e4)
}

/// A memory figure of process `pid` from `/proc/<pid>/status`, in bytes:
/// `"VmRSS"` for the resident set, `"VmHWM"` for its peak.
pub fn status_bytes(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// CPU time (user + system) of this process's children that have exited
/// and been waited for, all their threads included, at microsecond
/// resolution (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_cpu() -> Option<Duration> {
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `u` is a valid, writable rusage for the call's duration.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    (rc == 0).then(|| Duration::from_micros(us(&u.utime) + us(&u.stime)))
}

/// CPU time this process has used, all its threads together
/// (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution).
pub fn process_cpu() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// How late an open-loop generator sent, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lag {
    /// Median send delay past the due time.
    pub p50_ms: f64,
    /// 99th-percentile send delay.
    pub p99_ms: f64,
    /// Worst send delay.
    pub max_ms: f64,
}

/// Send lag of every request: `sent[i] - due[i]`, both offsets from the
/// schedule start. A request sent early (never the case for a generator
/// that sleeps until the due time) counts as zero lag.
pub fn lag(due: &[Duration], sent: &[Duration]) -> Lag {
    let mut late: Vec<f64> = due
        .iter()
        .zip(sent)
        .map(|(d, s)| s.saturating_sub(*d).as_secs_f64() * 1e3)
        .collect();
    late.sort_by(f64::total_cmp);
    Lag {
        p50_ms: percentile(&late, 50.0),
        p99_ms: percentile(&late, 99.0),
        max_ms: late.last().copied().unwrap_or(f64::NAN),
    }
}

/// Requests due but not yet answered at time `t` (all offsets from the
/// schedule start; a lost request has no completion time).
pub fn backlog_at(due: &[Duration], done: &[Option<Duration>], t: Duration) -> usize {
    let due_by = due.iter().filter(|d| **d <= t).count();
    let done_by = done.iter().filter(|d| d.is_some_and(|d| d <= t)).count();
    due_by.saturating_sub(done_by)
}

/// Whether the backlog grew over the window: the backlog at the last due
/// time exceeds the backlog at the window's midpoint by more than
/// `max(10, 1% of requests)`. A server that keeps up holds a small,
/// stationary backlog; one that does not accumulates work linearly.
pub fn backlog_growing(due: &[Duration], done: &[Option<Duration>]) -> bool {
    let Some(end) = due.iter().max().copied() else {
        return false;
    };
    let mid = end / 2;
    let slack = (due.len() / 100).max(10);
    backlog_at(due, done, end) > backlog_at(due, done, mid) + slack
}

/// The worst ratio, over `budgets`, of the approximate answer's step time
/// to the exact best step time under the same budget. `approx` and `exact`
/// answer a budget with the cost of the cheapest fitting strategy, or
/// `None` when nothing fits. An approximate answer where the exact search
/// says nothing fits, or a missing approximate answer where something does
/// (the memory floor is exact), is an error naming the budget.
pub fn budget_penalty_max(
    budgets: &[u64],
    approx: impl Fn(u64) -> Option<f64>,
    exact: impl Fn(u64) -> Option<f64>,
) -> Result<f64, String> {
    let mut worst = 1.0f64;
    for &b in budgets {
        match (approx(b), exact(b)) {
            (Some(a), Some(e)) => worst = worst.max(a / e),
            (None, None) => {}
            (Some(a), None) => {
                return Err(format!(
                    "budget {b}: approximate answer {a} where no strategy fits"
                ))
            }
            (None, Some(e)) => {
                return Err(format!(
                    "budget {b}: no approximate answer but the exact best is {e}"
                ))
            }
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_seed_same_shuffle() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..20).collect();
            shuffle(&mut StdRng::seed_from_u64(seed), &mut v);
            v
        };
        assert_eq!(shuffled(3), shuffled(3));
        assert_ne!(shuffled(3), shuffled(4));
        let mut sorted = shuffled(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mean = (0..n).map(|_| exp(&mut r, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "{mean}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&sorted).expect("supported");
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        let sorted: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: p99 leaves 9 beyond, so the rule falls to p95.
        let t = tail(&sorted).expect("supported");
        assert_eq!((t.pct, t.value, t.samples), (95.0, 950.0, 999));
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&sorted).expect("supported").pct, 90.0);
        let sorted: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&sorted), None);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // 3000 samples of 1.0 with a burst of 40 slow ones in the middle
        // window: that window's p99 is slow, the other two are not.
        let mut v = vec![1.0; 3000];
        for x in &mut v[1500..1540] {
            *x = 50.0;
        }
        assert_eq!(windowed_percentile(&v, 99.0), Some(1.0));
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(percentile(&sorted, 99.0), 50.0);
        // p90 windows are 100 samples; 2550 samples make 25 windows, the
        // last one 150 long.
        let v: Vec<f64> = (0..2550).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_percentile(&v, 90.0), Some(89.0));
        assert_eq!(windowed_percentile(&v[..99], 90.0), None);
    }

    #[test]
    fn least_stolen_keeps_the_cleaner_half() {
        let samples = vec![(1.0, 0), (9.0, 5), (2.0, 1), (8.0, 4), (3.0, 1)];
        assert_eq!(least_stolen(samples), vec![1.0, 2.0, 3.0]);
        let quiet = vec![(1.0, 0), (2.0, 0), (3.0, 0), (4.0, 0)];
        assert_eq!(least_stolen(quiet), vec![1.0, 2.0, 3.0, 4.0]);
        // An even count keeps the lower middle: at least half survive.
        assert_eq!(least_stolen(vec![(1.0, 3), (2.0, 1)]), vec![2.0]);
        assert!(least_stolen(Vec::<(f64, u64)>::new()).is_empty());
    }

    #[test]
    fn geometric_mean_weighs_every_value_equally() {
        let g = geomean(&[1.0, 100.0]).expect("positive");
        assert!((g - 10.0).abs() < 1e-12);
        let g = geomean(&[2.0, 8.0, 4.0]).expect("positive");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn lag_and_backlog_on_a_synthetic_schedule() {
        let ms = Duration::from_millis;
        // Ten requests due every 10 ms; the generator stalls once for 25 ms
        // at the fifth request and sends the next two in the stall's wake.
        let due: Vec<Duration> = (0..10).map(|i| ms(10 * i)).collect();
        let sent: Vec<Duration> = due
            .iter()
            .enumerate()
            .map(|(i, d)| match i {
                4 => *d + ms(25),
                5 => *d + ms(15),
                6 => *d + ms(5),
                _ => *d,
            })
            .collect();
        let l = lag(&due, &sent);
        assert_eq!(l.p50_ms, 0.0);
        assert_eq!(l.max_ms, 25.0);
        assert_eq!(l.p99_ms, 25.0);

        // A server answering each request 2 ms after it was due keeps up.
        let done: Vec<Option<Duration>> = due.iter().map(|d| Some(*d + ms(2))).collect();
        assert!(!backlog_growing(&due, &done));
        assert_eq!(backlog_at(&due, &done, ms(41)), 1);

        // One that serves one request per 30 ms while they arrive every
        // 10 ms falls behind linearly.
        let due: Vec<Duration> = (0..100).map(|i| ms(10 * i)).collect();
        let done: Vec<Option<Duration>> = (0..100).map(|i| Some(ms(30 * (i + 1)))).collect();
        assert!(backlog_growing(&due, &done));

        // Lost requests never complete and count as backlog.
        let done: Vec<Option<Duration>> =
            (0..100).map(|i| (i < 40).then(|| ms(10 * i + 1))).collect();
        assert!(backlog_growing(&due, &done));
    }

    /// Cheapest cost among `points` whose memory fits `budget`.
    fn pick(points: &[(f64, u64)]) -> impl Fn(u64) -> Option<f64> + '_ {
        move |b| points.iter().find(|p| p.1 <= b).map(|p| p.0)
    }

    #[test]
    fn budget_penalty_on_a_hand_built_frontier_pair() {
        // (cost, memory) points, cost ascending / memory descending.
        let exact = [(10.0, 100u64), (12.0, 80), (15.0, 60), (30.0, 40)];
        // The thinned frontier kept only the endpoints and one interior point.
        let approx = [(10.0, 100u64), (15.0, 60), (30.0, 40)];
        // At budgets 90 and 80 the exact best is 12, the thinned answer 15.
        let budgets = [100, 90, 80, 70, 60, 50, 40];
        let worst = budget_penalty_max(&budgets, pick(&approx), pick(&exact)).expect("consistent");
        assert_eq!(worst, 15.0 / 12.0);
        // Below the memory floor both say infeasible: no penalty.
        let floor = budget_penalty_max(&[39, 1], pick(&approx), pick(&exact));
        assert_eq!(floor, Ok(1.0));
        // A thinned frontier whose floor is not exact is an error.
        let bad = [(10.0, 100u64), (15.0, 60)];
        assert!(budget_penalty_max(&[50], pick(&bad), pick(&exact)).is_err());
        assert!(budget_penalty_max(&[50], pick(&exact), pick(&bad)).is_err());
    }

    #[test]
    fn process_figures_are_read() {
        let before = process_cpu().expect("the CPU clock is readable");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu().expect("readable") > before);
        let pid = std::process::id();
        let rss = status_bytes(pid, "VmRSS").expect("VmRSS is reported");
        assert!(rss > 0);
        assert!(status_bytes(pid, "VmHWM").expect("VmHWM is reported") >= rss);
        assert_eq!(status_bytes(pid, "VmNoSuchField"), None);
        assert!(children_cpu().is_some());
    }
}
