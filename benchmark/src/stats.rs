//! The percentile rule every timing in the benchmark is reported by: the
//! median plus the highest percentile that still has at least ten samples
//! beyond it, always with the sample count.

use dyndens_obs::HistogramSnapshot;

/// The conventional percentiles a tail may be reported at, ascending.
const LADDER: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: f64 = 10.0;

/// The highest ladder percentile with at least ten of `count` samples beyond
/// it, or `None` when even p90 has fewer (under 100 samples).
pub fn tail_percentile(count: u64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| count as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9)
}

/// A timing summarised by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Number of samples summarised.
    pub count: u64,
    /// The median (0 when there are no samples).
    pub p50: f64,
    /// The tail percentile reported and its value; `None` under 100 samples.
    pub tail: Option<(f64, f64)>,
    /// The largest sample.
    pub max: f64,
}

impl Timing {
    /// The tail value, falling back to the maximum when the sample is too
    /// small to support any ladder percentile.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(self.max, |(_, v)| v)
    }

    /// `p50 … p99.9 … (n = …)`, for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.4} {unit}, p{p} {:.4} {unit}, max {:.4} {unit} (n = {})",
                self.p50, v, self.max, self.count
            ),
            None => format!(
                "p50 {:.4} {unit}, max {:.4} {unit} (n = {}, too few for a tail)",
                self.p50, self.max, self.count
            ),
        }
    }
}

/// The value at percentile `p` of an ascending-sorted sample (nearest rank);
/// 0 for an empty sample.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Summarises raw samples (sorted in place).
pub fn summarize(samples: &mut [f64]) -> Timing {
    if samples.is_empty() {
        return Timing {
            count: 0,
            p50: 0.0,
            tail: None,
            max: 0.0,
        };
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let count = samples.len() as u64;
    Timing {
        count,
        p50: percentile_of_sorted(samples, 50.0),
        tail: tail_percentile(count).map(|p| (p, percentile_of_sorted(samples, p))),
        max: samples[samples.len() - 1],
    }
}

/// Summarises a registry histogram by the same rule (bucket upper bounds,
/// so values carry the histogram's ~3 % relative error).
pub fn summarize_histogram(hist: &HistogramSnapshot) -> Timing {
    Timing {
        count: hist.count,
        p50: hist.percentile(50.0) as f64,
        tail: tail_percentile(hist.count).map(|p| (p, hist.percentile(p) as f64)),
        max: hist.max() as f64,
    }
}

/// The smallest of the values a run's repetitions measured for one
/// lower-is-better timing (a phase's whole duration, a phase's median
/// latency); 0 for none.
///
/// A run measures its workload several times over, on fresh systems fed the
/// identical stream, and a timing counts at its best repetition. The sizing
/// sandbox slows identical single-threaded work by 30–60 % for tenths of a
/// second to tens of seconds at a time and never speeds it up (README,
/// "Repetitions"), so the best repetition is the one the host disturbed
/// least; every repetition does all of the phase's work, so whatever the
/// system itself does in every repetition — checkpoints, rotations — is in
/// it. The median over repetitions is printed beside every gated timing.
/// Never used across runs.
pub fn best_low(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// [`best_low`] for a higher-is-better rate.
pub fn best_high(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// The median of a small set of values (the mean of the middle two for an
/// even count); 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("values are finite"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(15_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.999));
    }

    #[test]
    fn summarize_reports_median_tail_and_count() {
        let mut samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let t = summarize(&mut samples);
        assert_eq!(t.count, 1_000);
        assert_eq!(t.p50, 500.0);
        // p99 of 1..=1000 is 990: exactly ten samples lie beyond it.
        assert_eq!(t.tail, Some((99.0, 990.0)));
        assert_eq!(t.max, 1_000.0);
        assert_eq!(samples.iter().filter(|&&s| s > 990.0).count(), 10);
    }

    #[test]
    fn small_samples_report_no_tail() {
        let mut samples = vec![3.0, 1.0, 2.0];
        let t = summarize(&mut samples);
        assert_eq!((t.count, t.p50, t.tail, t.max), (3, 2.0, None, 3.0));
        assert_eq!(t.tail_value(), 3.0);
        let empty = summarize(&mut []);
        assert_eq!((empty.count, empty.p50, empty.tail), (0, 0.0, None));
    }

    #[test]
    fn histogram_summary_follows_the_same_rule() {
        let hist = dyndens_obs::Histogram::new();
        for v in 1..=2_000u64 {
            hist.record(v % 20);
        }
        let t = summarize_histogram(&hist.snapshot());
        assert_eq!(t.count, 2_000);
        assert_eq!(t.tail.map(|(p, _)| p), Some(99.0));
        assert!(t.p50 >= 9.0 && t.p50 <= 10.0);
    }

    #[test]
    fn a_timing_counts_at_its_best_repetition() {
        // Ten repetitions of the same work, four of them slowed by the host.
        let seconds = [1.02, 1.45, 1.0, 1.31, 1.01, 1.5, 1.0, 1.02, 1.44, 1.03];
        assert_eq!(best_low(&seconds), 1.0);
        let rates: Vec<f64> = seconds.iter().map(|s| 100.0 / s).collect();
        assert_eq!(best_high(&rates), 100.0);
        assert!(median(&seconds) > 1.02, "the median still sees the host");
        assert_eq!((best_low(&[]), best_high(&[])), (0.0, 0.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
