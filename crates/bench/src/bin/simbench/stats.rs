//! Metric definitions, percentiles, quartiles and bound checks.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. `bound` is the share of the baseline median by
/// which the metric may worsen, the number `BENCHMARK.json` lists. `exact`
/// metrics are deterministic for a fixed seed: runs at one seed agree bit
/// for bit, and only the seed moves them.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Relative regression bound.
    pub bound: f64,
    /// Deterministic at a fixed seed.
    pub exact: bool,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Metric {
    Metric { name, unit, better, bound, exact }
}

/// The end-to-end metrics every workload reports, measured untraced.
/// A bound covers the spread of the metric's values over ten seeds. The
/// rates' spread comes from other work on a shared 2-core host, so their
/// bound is the cap of 0.25. The virtual latencies vary only with the
/// seed (serve-mix's by under 0.4%), and their tight bound keeps that
/// variation under a third of it.
pub const E2E: [Metric; 7] = [
    metric("setup_s", "s", Better::Lower, 0.25, false),
    metric("sim_cycles_per_s", "cycles/s", Better::Higher, 0.25, false),
    metric("launches_per_s", "1/s", Better::Higher, 0.25, false),
    metric("jobs_per_s", "1/s", Better::Higher, 0.25, false),
    metric("p50_vt", "cycles", Better::Lower, 0.015, true),
    metric("p99_vt", "cycles", Better::Lower, 0.015, true),
    metric("peak_rss_mb", "MiB", Better::Lower, 0.25, false),
];

/// Look up an end-to-end metric by name.
pub fn e2e(name: &str) -> Option<&'static Metric> {
    E2E.iter().find(|m| m.name == name)
}

/// What `--repeat` flags about one metric's values over runs at one seed:
/// an exact metric whose values differ at all, or a spread wider than
/// `bound`.
pub fn repeat_flag(v: &[f64], exact: bool, bound: f64) -> Option<&'static str> {
    if exact && v.iter().any(|x| *x != v[0]) {
        Some("NOT EXACT")
    } else if spread(v) > bound {
        Some("SPREAD>BOUND")
    } else {
        None
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty set");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(v, n=4)` does (the default "exclusive" method).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of an empty set");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median (0 for a zero median).
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let med = median(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p/100 × n)`.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentiles tried, highest first, when the requested one has too few
/// samples beyond it.
const LADDER: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// The highest percentile, at most `want`, with at least ten samples
/// beyond it, and its nearest-rank value; the minimum (p0) when even the
/// median has fewer than ten samples above it.
pub fn tail_percentile(sorted: &[u64], want: f64) -> (f64, u64) {
    let n = sorted.len();
    let p = LADDER
        .iter()
        .copied()
        .filter(|&p| p <= want)
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(0.0);
    (p, nearest_rank(sorted, p))
}

/// Reset this process's peak resident set (`VmHWM`) to its current size,
/// so the next [`peak_rss_mb`] covers only what runs after; a no-op where
/// the kernel does not offer it.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a accumulator for digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf29ce484222325)
    }
}

impl Fnv {
    /// Fold bytes in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 99.0), 99);
        assert_eq!(nearest_rank(&v, 100.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 25.0), 3);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: rank(p99) = 990, 10 beyond — p99 is allowed.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v, 99.0), (99.0, 990));
        // 999 samples: rank(p99) = 990, only 9 beyond; p98 has 19.
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail_percentile(&v, 99.0), (98.0, 980));
        // 40 samples: p90 has 4 beyond, p75 has exactly 10.
        let v: Vec<u64> = (1..=40).collect();
        assert_eq!(tail_percentile(&v, 99.0), (75.0, 30));
        // Too few for the median: fall back to the minimum.
        let v: Vec<u64> = (1..=12).collect();
        assert_eq!(tail_percentile(&v, 99.0), (0.0, 1));
        // A lower request is honored as the ceiling.
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&v, 50.0), (50.0, 500));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn repeat_flags_spread_beyond_a_relative_bound() {
        let rps = e2e("launches_per_s").unwrap();
        // Quartiles 97.5 and 102.5 around a median of 100: spread 0.05.
        let steady = [95.0, 100.0, 100.0, 100.0, 105.0];
        assert_eq!(repeat_flag(&steady, rps.exact, rps.bound), None);
        let noisy = [60.0, 80.0, 100.0, 120.0, 140.0];
        assert_eq!(repeat_flag(&noisy, rps.exact, rps.bound), Some("SPREAD>BOUND"));
        assert_eq!(repeat_flag(&noisy, false, f64::INFINITY), None, "information rows");
    }

    #[test]
    fn repeat_flags_any_change_of_an_exact_metric() {
        let p99 = e2e("p99_vt").unwrap();
        assert!(p99.exact);
        assert_eq!(repeat_flag(&[1234.0; 5], p99.exact, p99.bound), None);
        // Far inside the bound, but an exact metric may not move at all.
        let moved = [1234.0, 1234.0, 1235.0, 1234.0, 1234.0];
        assert_eq!(repeat_flag(&moved, p99.exact, p99.bound), Some("NOT EXACT"));
    }

    #[test]
    fn every_bound_is_positive_and_within_the_cap() {
        for m in E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: {}", m.name, m.bound);
        }
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.eat(b"ab");
        let mut b = Fnv::default();
        b.eat(b"ba");
        assert_ne!(a, b);
    }
}
