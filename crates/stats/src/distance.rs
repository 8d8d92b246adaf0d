//! Model-vs-data distances.
//!
//! The paper scores a simulated popularity curve against the measured one
//! with the mean relative error of per-rank downloads (Eq. 6).

/// Mean relative error between observed and simulated per-rank counts
/// (the paper's Eq. 6): `(1/A) Σ |Do(i) − Ds(i)| / Do(i)`.
///
/// Both slices must be ranked the same way (descending downloads).
/// Ranks where the observed count is zero are skipped (the paper's data
/// has none; ours can, in tiny synthetic stores).
///
/// Returns `None` if lengths differ or no rank has a positive observed
/// count.
pub fn mean_relative_error(observed: &[u64], simulated: &[u64]) -> Option<f64> {
    if observed.len() != simulated.len() || observed.is_empty() {
        return None;
    }
    let mut total = 0.0;
    let mut n = 0usize;
    for (&o, &s) in observed.iter().zip(simulated) {
        if o > 0 {
            total += (o as f64 - s as f64).abs() / o as f64;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(total / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_curves_have_zero_distance() {
        let xs = [100, 50, 25, 12];
        assert_eq!(mean_relative_error(&xs, &xs), Some(0.0));
    }

    #[test]
    fn mre_known_value() {
        // |10-5|/10 = 0.5, |20-30|/20 = 0.5 -> mean 0.5
        assert_eq!(mean_relative_error(&[10, 20], &[5, 30]), Some(0.5));
    }

    #[test]
    fn mre_skips_zero_observed() {
        // Only the first rank counts: |10-5|/10 = 0.5.
        assert_eq!(mean_relative_error(&[10, 0], &[5, 99]), Some(0.5));
        assert_eq!(mean_relative_error(&[0, 0], &[5, 99]), None);
    }

    #[test]
    fn length_mismatch_rejected() {
        assert_eq!(mean_relative_error(&[1, 2], &[1]), None);
    }

    #[test]
    fn worse_fit_scores_higher() {
        let observed = [1000, 500, 250, 125, 62];
        let close = [990, 480, 260, 120, 70];
        let far = [500, 500, 500, 500, 500];
        assert!(
            mean_relative_error(&observed, &close).unwrap()
                < mean_relative_error(&observed, &far).unwrap()
        );
    }

    proptest! {
        #[test]
        fn mre_nonnegative(pairs in proptest::collection::vec((1u64..1000, 0u64..1000), 1..100)) {
            let o: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let s: Vec<u64> = pairs.iter().map(|p| p.1).collect();
            prop_assert!(mean_relative_error(&o, &s).unwrap() >= 0.0);
        }
    }
}
