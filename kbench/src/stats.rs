//! The benchmark's own maths: order statistics, the serving rate ladder
//! and the Poisson arrival generator. Pure functions, unit-tested below.

use kconv_tensor::rng::StdRng;

/// Samples a percentile reported beside the median must keep beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (the default exclusive
/// method). A single sample is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        // Clamping j to 1..=n-1 and leaving delta unclamped extrapolates
        // at tiny n, exactly as Python does.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The nearest-rank `p`-th percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — a tail percentile is only
/// reported where the sample supports it.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// One fixed arrival rate of the serving ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLevel {
    /// Offered load, requests per modeled second.
    pub rate: f64,
    /// Tail latency at [`tail_percentile`] 95, if the sample supports it.
    pub p95: Option<f64>,
    /// Requests refused at admission or expired before delivery.
    pub refused: u64,
    /// Whether queueing delay grew across the run (see [`backlog_grows`]).
    pub backlog: bool,
}

impl RateLevel {
    /// Whether this level meets `limit` on p95 with nothing refused and no
    /// growing backlog.
    pub fn meets(&self, limit: f64) -> bool {
        self.refused == 0 && !self.backlog && self.p95.is_some_and(|p| p <= limit)
    }
}

/// The highest offered rate that [`RateLevel::meets`] the limit, if any.
pub fn max_rate(levels: &[RateLevel], limit: f64) -> Option<f64> {
    levels
        .iter()
        .filter(|l| l.meets(limit))
        .map(|l| l.rate)
        .max_by(f64::total_cmp)
}

/// The highest rate that meets `limit`, narrowed by bisection. The
/// bracket starts at the highest ladder level that [`RateLevel::meets`] the
/// limit (0 when none does) and the lowest level above it that does not;
/// `steps` probes then halve it, `probe(rate)` saying whether `rate`
/// meets. When every level meets, the highest level is returned untouched.
pub fn bisect_max_rate(
    levels: &[RateLevel],
    limit: f64,
    steps: usize,
    mut probe: impl FnMut(f64) -> bool,
) -> f64 {
    let mut lo = max_rate(levels, limit).unwrap_or(0.0);
    let Some(mut hi) = levels
        .iter()
        .map(|l| l.rate)
        .filter(|&r| r > lo)
        .min_by(f64::total_cmp)
    else {
        return lo;
    };
    for _ in 0..steps {
        let mid = (lo + hi) / 2.0;
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Whether queueing delay grows over a run: `waits` are per-request waits
/// in arrival order; the backlog grows when the median wait of the last
/// quarter exceeds the first quarter's by more than half of `limit`.
/// Fewer than eight requests never show a trend.
pub fn backlog_grows(waits: &[f64], limit: f64) -> bool {
    let q = waits.len() / 4;
    if q < 2 {
        return false;
    }
    median(&waits[waits.len() - q..]) > median(&waits[..q]) + limit / 2.0
}

/// Requests delivered within `limit` per second of `span` (the modeled
/// time the run took). Refused and late requests count as misses.
pub fn goodput(latencies: &[f64], limit: f64, span: f64) -> f64 {
    if span <= 0.0 {
        return 0.0;
    }
    latencies.iter().filter(|&&l| l <= limit).count() as f64 / span
}

/// `n` open-loop Poisson arrival times at `rate` per second, starting
/// after one exponential gap from zero. The same generator state gives the
/// same schedule.
pub fn poisson_arrivals(rng: &mut StdRng, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // 53 uniform bits in [0, 1); 1 - u is in (0, 1], so ln is finite.
            let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn tail_percentile_needs_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank ceil(0.95 * 200) = 190 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(&xs, 95.0), Some(190.0));
        // 199 samples: rank 190 leaves 9 beyond.
        assert_eq!(tail_percentile(&xs[..199], 95.0), None);
        assert_eq!(tail_percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(tail_percentile(&xs[..19], 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
        // p99 needs 1000 samples.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&many[..999], 99.0), None);
    }

    fn level(rate: f64, p95: Option<f64>, refused: u64, backlog: bool) -> RateLevel {
        RateLevel {
            rate,
            p95,
            refused,
            backlog,
        }
    }

    #[test]
    fn max_rate_picks_highest_level_meeting_every_condition() {
        let limit = 1.0;
        let levels = [
            level(10.0, Some(0.2), 0, false),
            level(20.0, Some(0.9), 0, false),
            level(40.0, Some(0.5), 3, false),
        ];
        assert_eq!(max_rate(&levels, limit), Some(20.0));
        // A p95 over the limit disqualifies.
        let levels = [
            level(10.0, Some(0.2), 0, false),
            level(20.0, Some(1.1), 0, false),
        ];
        assert_eq!(max_rate(&levels, limit), Some(10.0));
        // A growing backlog disqualifies even under the limit.
        let levels = [
            level(10.0, Some(0.2), 0, false),
            level(20.0, Some(0.3), 0, true),
        ];
        assert_eq!(max_rate(&levels, limit), Some(10.0));
        // A tail the sample cannot support disqualifies.
        let levels = [level(10.0, None, 0, false)];
        assert_eq!(max_rate(&levels, limit), None);
        // Order of the ladder does not matter.
        let levels = [
            level(30.0, Some(0.1), 0, false),
            level(10.0, Some(0.1), 0, false),
        ];
        assert_eq!(max_rate(&levels, limit), Some(30.0));
    }

    #[test]
    fn bisection_narrows_between_the_bracketing_levels() {
        let limit = 1.0;
        let levels = [
            level(10.0, Some(0.2), 0, false),
            level(20.0, Some(0.9), 0, false),
            level(40.0, Some(1.5), 3, true),
        ];
        // True capacity 33: six probes in (20, 40) land within 20/64.
        let mut probes = Vec::new();
        let r = bisect_max_rate(&levels, limit, 6, |rate| {
            probes.push(rate);
            rate <= 33.0
        });
        assert_eq!(probes[..2], [30.0, 35.0]);
        assert!(r <= 33.0 && 33.0 - r < 20.0 / 64.0, "{r}");
        // Every level meets: the top level, with no probe.
        let r = bisect_max_rate(&levels[..2], limit, 6, |_| unreachable!());
        assert_eq!(r, 20.0);
        // No level meets: bisect below the lowest level.
        let r = bisect_max_rate(&levels[2..], limit, 4, |rate| rate <= 6.0);
        assert_eq!(r, 5.0);
        // Nothing meets at all.
        assert_eq!(bisect_max_rate(&levels[2..], limit, 4, |_| false), 0.0);
    }

    #[test]
    fn backlog_detection() {
        let limit = 1.0;
        // Steady waits: no trend.
        let steady: Vec<f64> = (0..40).map(|i| 0.2 + 0.1 * ((i % 3) as f64)).collect();
        assert!(!backlog_grows(&steady, limit));
        // Linearly growing waits: the last quarter sits far above the first.
        let growing: Vec<f64> = (0..40).map(|i| i as f64 * 0.1).collect();
        assert!(backlog_grows(&growing, limit));
        // Growth smaller than half the limit is not a backlog.
        let mild: Vec<f64> = (0..40).map(|i| i as f64 * 0.01).collect();
        assert!(!backlog_grows(&mild, limit));
        // Too few requests to tell.
        assert!(!backlog_grows(&[0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0], limit));
    }

    #[test]
    fn goodput_counts_only_deliveries_within_limit() {
        let lat = [0.5, 1.0, 1.5, 0.2];
        assert_eq!(goodput(&lat, 1.0, 2.0), 1.5);
        assert_eq!(goodput(&lat, 0.1, 2.0), 0.0);
        assert_eq!(goodput(&lat, 1.0, 0.0), 0.0);
    }

    #[test]
    fn poisson_arrivals_are_deterministic_per_seed() {
        let a = poisson_arrivals(&mut StdRng::seed_from_u64(5), 1000.0, 500);
        let b = poisson_arrivals(&mut StdRng::seed_from_u64(5), 1000.0, 500);
        let c = poisson_arrivals(&mut StdRng::seed_from_u64(6), 1000.0, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        // Mean gap within 15% of 1 / rate over 500 arrivals.
        let mean_gap = a[a.len() - 1] / a.len() as f64;
        assert!((mean_gap * 1000.0 - 1.0).abs() < 0.15, "{mean_gap}");
    }
}
