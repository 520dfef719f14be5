//! Summary statistics and histograms for evaluation harnesses.
//!
//! Every figure in the paper reports either a distribution (histograms,
//! min/avg/max bands) or a scalar series; these helpers compute them in one
//! pass with exact integer accumulation where possible.

/// Streaming statistics over `u64` samples (Welford's algorithm for the
/// variance, exact integer min/max/sum).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: u64,
    max: u64,
    sum: u128,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: u64) {
        self.n += 1;
        self.sum += x as u128;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        let xf = x as f64;
        let delta = xf - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (xf - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation, 0 for fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest sample; 0 when empty.
    pub fn min(&self) -> u64 {
        if self.n == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Freeze into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// A frozen statistical summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: u64,
    /// Maximum sample.
    pub max: u64,
}

impl Summary {
    /// Summarize a slice in one pass.
    pub fn of(samples: &[u64]) -> Summary {
        let mut s = OnlineStats::new();
        for &x in samples {
            s.push(x);
        }
        s.summary()
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1} std={:.1} min={} max={}",
            self.n, self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// A fixed-width-bin histogram over `u64` samples.
///
/// Out-of-range samples are counted in saturation bins so no data is
/// silently lost (Figure 3's TSC-offset histogram relies on seeing the full
/// tail).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: u64,
    width: u64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    n: u64,
}

impl Histogram {
    /// Bins of `width` covering `[lo, lo + width*count)`.
    pub fn new(lo: u64, width: u64, count: usize) -> Self {
        assert!(width > 0 && count > 0);
        Histogram {
            lo,
            width,
            bins: vec![0; count],
            underflow: 0,
            overflow: 0,
            n: 0,
        }
    }

    /// Record a sample.
    pub fn record(&mut self, x: u64) {
        self.n += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Total samples recorded (including saturated ones).
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Samples below the first bin.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the last bin's upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterate `(bin_lower_edge, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + i as u64 * self.width, c))
    }

    /// Fraction of samples below `x` (approximate to bin granularity;
    /// exact when `x` lies on a bin edge).
    pub fn fraction_below(&self, x: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mut c = self.underflow;
        for (edge, count) in self.iter() {
            if edge + self.width <= x {
                c += count;
            }
        }
        c as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_hand_computation() {
        let s = Summary::of(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 9);
    }

    #[test]
    fn empty_stats_are_zeroed() {
        let s = OnlineStats::new().summary();
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let s = Summary::of(&[42]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 42);
        assert_eq!(s.max, 42);
    }

    #[test]
    fn histogram_bins_and_saturation() {
        let mut h = Histogram::new(100, 10, 3); // [100,110) [110,120) [120,130)
        for x in [99, 100, 109, 110, 125, 130, 999] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        let bins: Vec<_> = h.iter().collect();
        assert_eq!(bins, vec![(100, 2), (110, 1), (120, 1)]);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn fraction_below_counts_whole_bins() {
        let mut h = Histogram::new(0, 10, 10);
        for x in 0..100 {
            h.record(x);
        }
        assert!((h.fraction_below(50) - 0.5).abs() < 1e-12);
        assert!((h.fraction_below(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sum_is_exact() {
        let mut s = OnlineStats::new();
        s.push(u64::MAX);
        s.push(u64::MAX);
        assert_eq!(s.sum(), 2 * u64::MAX as u128);
    }
}
