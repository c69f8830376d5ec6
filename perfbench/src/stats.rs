//! Percentiles under the "at least ten samples beyond" rule, and
//! medians.

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `sorted`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least q*n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of unsorted `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and p99 of a latency sample, in nanoseconds, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples taken.
    pub count: usize,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
}

impl Latency {
    /// Sorts `samples` in place and summarises them; `None` when the
    /// sample is too small for a p99 with ten samples beyond it.
    pub fn of(samples: &mut [u64]) -> Option<Latency> {
        samples.sort_unstable();
        Some(Latency {
            count: samples.len(),
            p50_ns: percentile(samples, 0.5)?,
            p99_ns: percentile(samples, 0.99)?,
        })
    }
}

/// The end-to-end figures of one pass (or one campaign).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Figures {
    /// Requests per second.
    pub req_per_s: f64,
    /// Request latency, median.
    pub req_p50_us: f64,
    /// Request latency, 99th percentile.
    pub req_p99_us: f64,
    /// Request latency samples.
    pub req_samples: usize,
    /// Verdict latency, median.
    pub round_p50_us: f64,
    /// Verdict latency, 99th percentile.
    pub round_p99_us: f64,
    /// Verdict latency samples.
    pub round_samples: usize,
    /// §3.3 steps per second.
    pub steps_per_s: f64,
    /// Live heap at the end of the window, MiB.
    pub heap_mb: f64,
    /// Reference units per second the machine ran at meanwhile (see
    /// `calib`); 0 when the figures are raw.
    pub speed: f64,
}

impl Figures {
    /// Each figure's median over `all`; sample counts are summed.
    pub fn median_of(all: &[Figures]) -> Figures {
        let m = |f: fn(&Figures) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        Figures {
            req_per_s: m(|f| f.req_per_s),
            req_p50_us: m(|f| f.req_p50_us),
            req_p99_us: m(|f| f.req_p99_us),
            req_samples: all.iter().map(|f| f.req_samples).sum(),
            round_p50_us: m(|f| f.round_p50_us),
            round_p99_us: m(|f| f.round_p99_us),
            round_samples: all.iter().map(|f| f.round_samples).sum(),
            steps_per_s: m(|f| f.steps_per_s),
            heap_mb: m(|f| f.heap_mb),
            speed: m(|f| f.speed),
        }
    }
}

/// Set-ups per group of [`median_of_means`] for `setup_s`.
pub const SETUP_GROUP: usize = 11;
/// Set-ups a run makes: nine groups.
pub const SETUP_CYCLES: usize = 9 * SETUP_GROUP;

/// The median of the means of consecutive groups of `group` samples
/// (a trailing partial group is dropped).  A set-up over TCP waits 0 or
/// 1 ms for each reply depending on the reactor's poll phase, so single
/// set-ups are multimodal and their plain median jumps between modes.
pub fn median_of_means(samples: &[u64], group: usize) -> f64 {
    let means: Vec<f64> = samples
        .chunks_exact(group)
        .map(|g| g.iter().sum::<u64>() as f64 / group as f64)
        .collect();
    median(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=999).collect();
        // rank ceil(0.99 * 999) = 990 leaves nine beyond.
        assert_eq!(percentile(&sorted, 0.99), None);
        let sorted: Vec<u64> = (1..=1000).collect();
        // rank 990: value 990, ten samples beyond.
        assert_eq!(percentile(&sorted, 0.99), Some(990));
    }

    #[test]
    fn median_rank_and_small_samples() {
        let sorted: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(11));
        assert_eq!(percentile(&sorted[..20], 0.5), Some(10));
        assert_eq!(percentile(&sorted[..19], 0.5), None, "9 beyond");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn latency_summary_sorts_and_counts() {
        let mut samples: Vec<u64> = (0..2000).rev().collect();
        let l = Latency::of(&mut samples).unwrap();
        assert_eq!((l.count, l.p50_ns, l.p99_ns), (2000, 999, 1979));
        assert!(Latency::of(&mut [1, 2, 3]).is_none());
    }

    #[test]
    fn median_of_group_means() {
        let samples = [1, 3, 10, 20, 100, 300, 7];
        // Groups (1, 3), (10, 20), (100, 300); the 7 is dropped.
        assert_eq!(median_of_means(&samples, 2), 15.0);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
