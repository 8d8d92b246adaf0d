//! Property tests for the mergeable sketches: the advertised error
//! bounds must hold on random *and* adversarial inputs, and merging must
//! commute/associate up to those bounds — the contract the out-of-core
//! shard folds rely on.

use appstore_stats::{QuantileSketch, SpaceSaving};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Exact empirical quantile with the same convention the sketch uses
/// (rank = ceil(q·n), 1-based, clamped).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[target - 1]
}

/// Absolute rank error of reporting `approx` for quantile `q` of
/// `sorted`: distance from the target rank to the value's rank window.
fn rank_error(sorted: &[u64], q: f64, approx: u64) -> u64 {
    let lo = sorted.partition_point(|&v| v < approx) as u64;
    let hi = sorted.partition_point(|&v| v <= approx) as u64;
    let target = ((q * sorted.len() as f64).ceil() as u64).clamp(1, sorted.len() as u64);
    if target < lo {
        lo - target
    } else {
        target.saturating_sub(hi)
    }
}

fn assert_within_bound(sketch: &QuantileSketch, mut values: Vec<u64>, label: &str) {
    values.sort_unstable();
    let bound = sketch.rank_error_bound();
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let approx = sketch.quantile(q).expect("nonempty");
        let err = rank_error(&values, q, approx);
        assert!(
            err <= bound,
            "{label}: q={q} rank error {err} > advertised bound {bound}"
        );
    }
}

/// Deterministic Zipf-skewed value: heavy mass on small values.
fn zipf_value(i: u64) -> u64 {
    let u = ((i.wrapping_mul(2_654_435_761)) % 10_000) as f64 / 10_000.0;
    // Inverse-CDF of a rough power law on [1, 10_000].
    (10_000f64.powf(u).max(1.0)) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quantiles_within_bound_on_random_input(
        values in proptest::collection::vec(0u64..1_000_000, 1..4000),
        k in 8usize..128,
    ) {
        let mut sketch = QuantileSketch::new(k);
        for &v in &values {
            sketch.offer(v);
        }
        prop_assert_eq!(sketch.count(), values.len() as u64);
        assert_within_bound(&sketch, values, "random");
    }

    #[test]
    fn quantiles_within_bound_on_adversarial_shapes(
        n in 100usize..3000,
        k in 8usize..64,
        shape in 0usize..3,
    ) {
        let values: Vec<u64> = match shape {
            0 => (0..n as u64).map(zipf_value).collect(),      // Zipf-skewed
            1 => vec![42; n],                                  // all-equal
            _ => (0..n as u64).collect(),                      // sorted ramp
        };
        let mut sketch = QuantileSketch::new(k);
        for &v in &values {
            sketch.offer(v);
        }
        let label = ["zipf", "all-equal", "sorted"][shape];
        assert_within_bound(&sketch, values, label);
    }

    #[test]
    fn merge_is_commutative_and_associative_within_bounds(
        a in proptest::collection::vec(0u64..100_000, 1..1200),
        b in proptest::collection::vec(0u64..100_000, 1..1200),
        c in proptest::collection::vec(0u64..100_000, 1..1200),
        k in 16usize..64,
    ) {
        let build = |chunks: &[&Vec<u64>]| {
            let mut sketch = QuantileSketch::new(k);
            for chunk in chunks {
                let mut part = QuantileSketch::new(k);
                for &v in chunk.iter() {
                    part.offer(v);
                }
                sketch.merge(&part);
            }
            sketch
        };
        let abc = build(&[&a, &b, &c]);
        let cba = build(&[&c, &b, &a]);
        // (a⊕b)⊕c vs a⊕(b⊕c): fold the right pair first.
        let mut bc = QuantileSketch::new(k);
        for &v in b.iter().chain(c.iter()) {
            bc.offer(v);
        }
        let mut a_bc = build(&[&a]);
        a_bc.merge(&bc);

        let mut all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(abc.count(), all.len() as u64);
        prop_assert_eq!(cba.count(), all.len() as u64);
        prop_assert_eq!(a_bc.count(), all.len() as u64);
        // Every merge order answers within its own advertised bound of
        // the exact quantile — the fold contract the shards rely on.
        for sketch in [&abc, &cba, &a_bc] {
            assert_within_bound(sketch, all.clone(), "merge-order");
        }
    }

    #[test]
    fn exactness_below_capacity(
        values in proptest::collection::vec(0u64..1000, 1..64),
    ) {
        // A sketch that never compacts advertises bound 0 and must be
        // exactly the empirical quantile function.
        let mut sketch = QuantileSketch::new(64);
        for &v in &values {
            sketch.offer(v);
        }
        prop_assert_eq!(sketch.rank_error_bound(), 0);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.3, 0.5, 0.8, 1.0] {
            prop_assert_eq!(sketch.quantile(q), Some(exact_quantile(&sorted, q)));
        }
    }

    #[test]
    fn space_saving_brackets_truth_and_contains_heavy_hitters(
        keys in proptest::collection::vec(0u64..50, 1..2000),
        capacity in 4usize..24,
    ) {
        let mut ss = SpaceSaving::new(capacity);
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        for &key in &keys {
            ss.offer(key, 1);
            *truth.entry(key).or_default() += 1;
        }
        prop_assert_eq!(ss.total(), keys.len() as u64);
        let top = ss.top(capacity);
        for &(key, est, over) in &top {
            let true_count = truth.get(&key).copied().unwrap_or(0);
            prop_assert!(est >= true_count, "estimate undercounts key {key}");
            prop_assert!(est - over <= true_count, "floor overcounts key {key}");
        }
        // Guaranteed containment: true count above min_count ⇒ tracked.
        let floor = ss.min_count();
        for (&key, &count) in &truth {
            if count > floor {
                prop_assert!(
                    top.iter().any(|&(k, _, _)| k == key),
                    "key {key} with true count {count} > floor {floor} missing"
                );
            }
        }
    }

    #[test]
    fn space_saving_merge_preserves_guarantees(
        left_keys in proptest::collection::vec(0u64..40, 1..1000),
        right_keys in proptest::collection::vec(0u64..40, 1..1000),
        capacity in 4usize..16,
    ) {
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        let mut left = SpaceSaving::new(capacity);
        for &key in &left_keys {
            left.offer(key, 1);
            *truth.entry(key).or_default() += 1;
        }
        let mut right = SpaceSaving::new(capacity);
        for &key in &right_keys {
            right.offer(key, 1);
            *truth.entry(key).or_default() += 1;
        }
        let mut forward = left.clone();
        forward.merge(&right);
        let mut backward = right.clone();
        backward.merge(&left);
        for merged in [&forward, &backward] {
            prop_assert_eq!(merged.total(), (left_keys.len() + right_keys.len()) as u64);
            let top = merged.top(capacity);
            for &(key, est, over) in &top {
                let true_count = truth.get(&key).copied().unwrap_or(0);
                prop_assert!(est >= true_count);
                prop_assert!(est - over <= true_count);
            }
            let floor = merged.min_count();
            for (&key, &count) in &truth {
                if count > floor {
                    prop_assert!(top.iter().any(|&(k, _, _)| k == key));
                }
            }
        }
    }
}
