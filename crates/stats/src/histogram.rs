//! Linear binning.
//!
//! Figure 12 groups apps into one-dollar price bins. [`Histogram`] carries
//! equal-width bins with per-bin counts plus an attached value accumulator
//! (so "average downloads of apps priced $2–3" is one pass).

use serde::{Deserialize, Serialize};

/// One histogram bin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramBin {
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge (inclusive for the last bin).
    pub hi: f64,
    /// Number of samples that fell in the bin.
    pub count: u64,
    /// Sum of attached values of those samples.
    pub value_sum: f64,
}

impl HistogramBin {
    /// Midpoint of the bin.
    pub fn mid(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    /// Mean attached value, or `None` for an empty bin.
    pub fn mean_value(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.value_sum / self.count as f64)
        }
    }
}

/// A fixed-layout histogram over `[lo, hi]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bins: Vec<HistogramBin>,
    lo: f64,
    hi: f64,
}

impl Histogram {
    /// Creates `n` equal-width bins covering `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `hi <= lo`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Histogram {
        assert!(n > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be nonempty");
        let width = (hi - lo) / n as f64;
        let bins = (0..n)
            .map(|i| HistogramBin {
                lo: lo + width * i as f64,
                hi: lo + width * (i + 1) as f64,
                count: 0,
                value_sum: 0.0,
            })
            .collect();
        Histogram { bins, lo, hi }
    }

    /// Index of the bin containing `x`, or `None` if out of range.
    pub fn bin_index(&self, x: f64) -> Option<usize> {
        if x < self.lo || x > self.hi || x.is_nan() {
            return None;
        }
        let n = self.bins.len();
        let raw = (x - self.lo) / (self.hi - self.lo) * n as f64;
        Some((raw.floor() as usize).min(n - 1))
    }

    /// Adds a sample with an attached value. An out-of-range or NaN
    /// sample is not recorded, and `add` returns `false`.
    pub fn add(&mut self, x: f64, value: f64) -> bool {
        match self.bin_index(x) {
            Some(i) => {
                self.bins[i].count += 1;
                self.bins[i].value_sum += value;
                true
            }
            None => false,
        }
    }

    /// The bins in order.
    pub fn bins(&self) -> &[HistogramBin] {
        &self.bins
    }

    /// Total count across bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().map(|b| b.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn linear_binning() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        assert!(h.add(0.0, 0.0)); // bin 0
        assert!(h.add(1.99, 0.0)); // bin 0
        assert!(h.add(2.0, 0.0)); // bin 1
        assert!(h.add(10.0, 0.0)); // clamped into last bin
        assert!(!h.add(10.01, 0.0));
        assert!(!h.add(-0.1, 0.0));
        let counts: Vec<u64> = h.bins().iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![2, 1, 0, 0, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn value_accumulation() {
        let mut h = Histogram::linear(0.0, 4.0, 2);
        h.add(0.5, 10.0);
        h.add(1.0, 30.0);
        h.add(3.0, 7.0);
        assert_eq!(h.bins()[0].mean_value(), Some(20.0));
        assert_eq!(h.bins()[1].mean_value(), Some(7.0));
        let empty = Histogram::linear(0.0, 1.0, 1);
        assert_eq!(empty.bins()[0].mean_value(), None);
    }

    #[test]
    fn nan_is_dropped() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        assert!(!h.add(f64::NAN, 0.0));
    }

    proptest! {
        #[test]
        fn every_in_range_sample_lands_in_matching_bin(x in 0.0f64..100.0) {
            let h = Histogram::linear(0.0, 100.0, 17);
            let i = h.bin_index(x).unwrap();
            let b = h.bins()[i];
            prop_assert!(x >= b.lo - 1e-9);
            // last bin is inclusive at the top
            prop_assert!(x < b.hi + 1e-9 || (i == 16 && x <= 100.0));
        }
    }
}
