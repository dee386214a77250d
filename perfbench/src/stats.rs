//! The benchmark's own arithmetic: medians, the percentile-rank rule,
//! ratios that carry their base, the sampled-IPC error and the
//! open-loop ladder rule. Everything here is pure and unit-tested.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail search tries, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 * n)`, together with how many samples lie beyond it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (sorted[rank - 1], n - rank)
}

/// A timing distribution as the benchmark reports it: the median, the
/// highest percentile with at least [`TAIL_MIN_BEYOND`] samples beyond
/// it, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile reported (`None`: too few samples for any).
    pub tail_pct: Option<f64>,
    /// Value at `tail_pct` (the maximum when `tail_pct` is `None`).
    pub tail: f64,
}

impl Timing {
    /// Summarize `xs`. Infinite samples (failed requests) sort last, so
    /// a failure always counts as missing any latency limit.
    ///
    /// # Panics
    /// Panics on an empty slice or a NaN sample.
    pub fn of(xs: &[f64]) -> Timing {
        assert!(!xs.is_empty(), "timing of no samples");
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        for p in TAIL_PERCENTILES {
            let (value, beyond) = nearest_rank(&v, p);
            if beyond >= TAIL_MIN_BEYOND {
                return Timing {
                    n: v.len(),
                    p50: median(&v),
                    tail_pct: Some(p),
                    tail: value,
                };
            }
        }
        Timing {
            n: v.len(),
            p50: median(&v),
            tail_pct: None,
            tail: v[v.len() - 1],
        }
    }
}

/// A ratio reported with its base.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub den: f64,
}

impl Ratio {
    /// `num / den` (0 when the base is empty).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

/// Mean relative IPC error of sampled estimates against full-detail
/// runs of the same cells, given `(full_ipc, sampled_ipc)` pairs. The
/// numerator is the summed relative error, the denominator the cell
/// count.
pub fn ipc_err(pairs: &[(f64, f64)]) -> Ratio {
    let num = pairs
        .iter()
        .map(|&(full, est)| {
            assert!(full > 0.0, "full-detail IPC must be positive");
            ((est - full) / full).abs()
        })
        .sum();
    Ratio {
        num,
        den: pairs.len() as f64,
    }
}

/// One rung of the open-loop rate ladder.
#[derive(Clone, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Latency from each request's due time, in ms, in due order; a
    /// failed request is `f64::INFINITY`.
    pub latencies_ms: Vec<f64>,
    /// Host seconds from the first due time to the last completion.
    pub span_s: f64,
}

impl Rung {
    /// Completed requests per host second over the rung.
    pub fn achieved_rps(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.span_s
    }

    /// The tail latency the SLO is judged on: the 99th percentile when
    /// the rung has enough samples for it, else the highest percentile
    /// it supports.
    pub fn tail_ms(&self) -> f64 {
        Timing::of(&self.latencies_ms).tail
    }

    /// Whether the backlog grows over the rung: the median latency of the
    /// last quarter of requests (in due order) exceeds the first
    /// quarter's by more than a quarter of the latency limit.
    pub fn backlog_growing(&self, limit_ms: f64) -> bool {
        let n = self.latencies_ms.len();
        let q = (n / 4).max(1);
        if n < 4 {
            return false;
        }
        let first = median(&self.latencies_ms[..q]);
        let last = median(&self.latencies_ms[n - q..]);
        last > first + limit_ms / 4.0
    }

    /// Whether the rung meets the SLO: tail latency within `limit_ms`
    /// (failures count as misses) and no growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        !self.latencies_ms.is_empty()
            && self.tail_ms() <= limit_ms
            && !self.backlog_growing(limit_ms)
    }
}

/// The highest sustainable rate: the achieved rate of the highest rung
/// that meets the SLO, where every lower rung meets it too (the ladder
/// climbs in order and stops at the first miss). `None` when even the
/// first rung misses.
pub fn max_rps_slo(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    let mut best = None;
    for r in rungs {
        if !r.passes(limit_ms) {
            break;
        }
        best = Some(r.achieved_rps());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99.9 has 1 beyond, p99 has exactly 10.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&xs);
        assert_eq!(t.n, 1000);
        assert_eq!(t.tail_pct, Some(99.0));
        assert_eq!(t.tail, 990.0);
        // 999 samples: p99 leaves only 9 beyond, so p95 is reported.
        let t = Timing::of(&xs[..999]);
        assert_eq!(t.tail_pct, Some(95.0));
        assert_eq!(t.tail, 950.0);
        // 100 samples: p90 leaves exactly 10.
        let t = Timing::of(&xs[..100]);
        assert_eq!((t.tail_pct, t.tail), (Some(90.0), 90.0));
        // 15 samples: not even the median has ten beyond.
        let t = Timing::of(&xs[..15]);
        assert_eq!((t.tail_pct, t.tail, t.p50), (None, 15.0, 8.0));
    }

    #[test]
    fn failures_sort_last_and_break_the_tail() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in xs.iter_mut().skip(985) {
            *x = f64::INFINITY;
        }
        assert!(Timing::of(&xs).tail.is_infinite());
    }

    #[test]
    fn ipc_err_is_the_mean_relative_error_with_its_base() {
        let r = ipc_err(&[(1.0, 1.1), (2.0, 1.8), (0.5, 0.5)]);
        assert!((r.num - 0.2).abs() < 1e-12);
        assert_eq!(r.den, 3.0);
        assert!((r.value() - 0.2 / 3.0).abs() < 1e-12);
        assert_eq!(ipc_err(&[]).value(), 0.0);
    }

    fn rung(rate: f64, lat: Vec<f64>) -> Rung {
        let span_s = lat.len() as f64 / rate;
        Rung {
            rate,
            latencies_ms: lat,
            span_s,
        }
    }

    #[test]
    fn ladder_takes_the_highest_contiguous_passing_rung() {
        let ok = |rate| rung(rate, vec![2.0; 1000]);
        // The tail misses the limit: 11 samples of 500 ms out of 1000.
        let mut slow = vec![2.0; 989];
        slow.extend(vec![500.0; 11]);
        let rungs = vec![ok(50.0), ok(100.0), rung(200.0, slow), ok(400.0)];
        assert_eq!(max_rps_slo(&rungs, 250.0), Some(100.0));
        // Ten slow samples sit beyond p99 and do not fail the rung.
        let mut tail10 = vec![2.0; 990];
        tail10.extend(vec![500.0; 10]);
        assert!(rung(200.0, tail10).passes(250.0));
        assert_eq!(max_rps_slo(&[rungs[2].clone()], 250.0), None);
    }

    #[test]
    fn a_growing_backlog_fails_a_rung_with_a_good_tail() {
        // Latency climbs steadily: the queue never drains. The tail is
        // within the limit, the trend is not.
        let climbing: Vec<f64> = (0..1000).map(|i| 2.0 + i as f64 * 0.2).collect();
        let r = rung(100.0, climbing);
        assert!(r.tail_ms() <= 250.0);
        assert!(r.backlog_growing(250.0));
        assert!(!r.passes(250.0));
        // A steady rung with one late burst in the middle does not grow.
        let mut bursty = vec![2.0; 1000];
        for x in bursty.iter_mut().skip(400).take(5) {
            *x = 80.0;
        }
        assert!(!rung(100.0, bursty).backlog_growing(250.0));
    }

    #[test]
    fn achieved_rate_is_measured_over_the_span() {
        let r = Rung {
            rate: 100.0,
            latencies_ms: vec![1.0; 500],
            span_s: 5.5,
        };
        assert!((r.achieved_rps() - 500.0 / 5.5).abs() < 1e-12);
    }
}
