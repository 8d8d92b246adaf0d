//! Concentration measures: top-shares and Gini.
//!
//! The paper's first result (Fig. 2) is a Pareto statement — "10% of the
//! apps account for 70–90% of the downloads" — and its income analysis
//! (Fig. 13) is another concentration story. These helpers quantify both.

/// Fraction of the total mass held by the top `fraction` of items.
///
/// `counts` need not be sorted. `fraction` is clamped to `[0, 1]`; the
/// number of top items is `ceil(fraction · n)` with a minimum of one item
/// for any positive fraction. Returns `None` on empty input or zero total.
pub fn top_share(counts: &[u64], fraction: f64) -> Option<f64> {
    if counts.is_empty() {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let fraction = fraction.clamp(0.0, 1.0);
    if fraction == 0.0 {
        return Some(0.0);
    }
    let mut sorted = counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let k = ((fraction * counts.len() as f64).ceil() as usize).max(1);
    let top: u64 = sorted.iter().take(k).sum();
    Some(top as f64 / total as f64)
}

/// The cumulative-share curve of Figure 2: for each of `points` evenly
/// spaced rank fractions `x ∈ (0, 1]`, the fraction of total mass held by
/// the top `x` of items. Returns `(x, share)` pairs.
pub fn top_share_curve(counts: &[u64], points: usize) -> Vec<(f64, f64)> {
    if counts.is_empty() || points == 0 {
        return Vec::new();
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let mut sorted = counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let prefix: Vec<u64> = sorted
        .iter()
        .scan(0u64, |acc, &c| {
            *acc += c;
            Some(*acc)
        })
        .collect();
    (1..=points)
        .map(|i| {
            let x = i as f64 / points as f64;
            let k = ((x * counts.len() as f64).ceil() as usize).clamp(1, counts.len());
            (x, prefix[k - 1] as f64 / total as f64)
        })
        .collect()
}

/// Gini coefficient of a count vector (0 = equal, →1 = fully concentrated).
///
/// Returns `None` on empty input or zero total.
pub fn gini(counts: &[u64]) -> Option<f64> {
    if counts.is_empty() {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let mut sorted = counts.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    // G = (2·Σ i·x_i)/(n·Σ x_i) − (n+1)/n with 1-based ascending i.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    Some((2.0 * weighted) / (n * total as f64) - (n + 1.0) / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn top_share_known_values() {
        // 10 items; top item holds 91 of 100.
        let counts = [91, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        assert_eq!(top_share(&counts, 0.1), Some(0.91));
        assert_eq!(top_share(&counts, 1.0), Some(1.0));
        assert_eq!(top_share(&counts, 0.0), Some(0.0));
    }

    #[test]
    fn top_share_unsorted_input() {
        let counts = [1, 91, 1, 1, 1, 1, 1, 1, 1, 1];
        assert_eq!(top_share(&counts, 0.1), Some(0.91));
    }

    #[test]
    fn top_share_degenerate() {
        assert_eq!(top_share(&[], 0.5), None);
        assert_eq!(top_share(&[0, 0], 0.5), None);
        // Tiny positive fraction still takes at least one item.
        assert_eq!(top_share(&[10, 0], 0.0001), Some(1.0));
    }

    #[test]
    fn curve_is_monotone_and_ends_at_one() {
        let counts = [5, 3, 2, 2, 1, 1, 1, 1, 1, 1];
        let curve = top_share_curve(&counts, 10);
        assert_eq!(curve.len(), 10);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(curve[9], (1.0, 1.0));
    }

    #[test]
    fn gini_known_values() {
        // Perfect equality.
        assert!((gini(&[5, 5, 5, 5]).unwrap() - 0.0).abs() < 1e-12);
        // One holder of everything among 4: G = (n-1)/n = 0.75.
        assert!((gini(&[0, 0, 0, 100]).unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(gini(&[]), None);
        assert_eq!(gini(&[0]), None);
    }

    proptest! {
        #[test]
        fn gini_bounded(counts in proptest::collection::vec(0u64..1000, 1..100)) {
            if let Some(g) = gini(&counts) {
                prop_assert!((-1e-9..=1.0).contains(&g));
            }
        }

        #[test]
        fn top_share_monotone_in_fraction(counts in proptest::collection::vec(1u64..1000, 1..100), f in 0.0f64..1.0) {
            let a = top_share(&counts, f).unwrap();
            let b = top_share(&counts, (f + 0.1).min(1.0)).unwrap();
            prop_assert!(b + 1e-12 >= a);
        }
    }
}
