//! Finite-support Zipf sampling.
//!
//! Every simulator in this crate draws millions of app ranks from Zipf
//! laws, so the sampler matters. Two exact sampling strategies are
//! provided behind one type:
//!
//! * **Inverse CDF** (the default): precompute the cumulative mass over
//!   the `n` ranks once (O(n) build, a single `powf` per rank), then
//!   sample by binary search on a uniform variate — O(log n) per draw,
//!   one uniform consumed per draw. This is the historical sampler; all
//!   calibrated experiment outputs were produced with it, and its RNG
//!   stream must not change.
//! * **Walker/Vose alias table** ([`SampleMethod::Alias`]): O(n) build on
//!   top of the same weights, O(1) per draw at the cost of two uniforms
//!   per draw. Draw-for-draw it follows the *same distribution* (see the
//!   chi-squared and KS tests below) but a *different RNG stream*, so it
//!   is opt-in via [`ZipfSampler::with_method`] rather than the default.

use appstore_stats::generalized_harmonic;
use rand::Rng;

/// Which algorithm a [`ZipfSampler`] uses to draw ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleMethod {
    /// Binary search on the cumulative distribution. One uniform per
    /// draw, O(log n); the historical default whose RNG stream the
    /// calibrated experiments depend on.
    #[default]
    InverseCdf,
    /// Walker/Vose alias method. Two uniforms per draw, O(1); same
    /// distribution, different stream.
    Alias,
}

/// A Walker/Vose alias table over `n` outcomes (0-based).
///
/// Supports O(1) draws from any finite discrete distribution given its
/// (unnormalized) weights. Construction is O(n) and fully deterministic:
/// ties are processed in ascending index order.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// `prob[i]`: probability of keeping column `i` given column `i` was
    /// rolled.
    prob: Vec<f64>,
    /// `alias[i]`: outcome used when the coin flip rejects column `i`.
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from unnormalized nonnegative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn from_weights(weights: &[f64]) -> AliasTable {
        let n = weights.len();
        assert!(n > 0, "alias table needs a nonempty support");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "alias weights must be finite and nonnegative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "alias weights must not all be zero");

        // Scale so the average bucket holds exactly 1.0 of mass.
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut small: Vec<usize> = Vec::new();
        let mut large: Vec<usize> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }

        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<usize> = (0..n).collect();
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            // Donate from the large bucket; it may become small.
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Whatever remains (numerical leftovers) keeps probability 1.
        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the support is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a 0-based outcome in O(1): one die roll for the column, one
    /// coin flip against the column's kept probability.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let col = rng.gen_range(0..self.prob.len());
        let coin: f64 = rng.gen();
        // Branchless select (compiles to a cmov): the coin flip is a
        // coin toss by construction, so a conditional jump here would
        // mispredict half the time in the simulators' draw loops.
        let candidates = [col, self.alias[col]];
        candidates[usize::from(coin >= self.prob[col])]
    }
}

/// An exact sampler for `P(rank = k) ∝ k^(−s)`, `k ∈ 1..=n`.
///
/// ```
/// use appstore_models::{SampleMethod, ZipfSampler};
/// use appstore_core::Seed;
///
/// let sampler = ZipfSampler::new(1_000, 1.4);
/// let mut rng = Seed::new(7).rng();
/// let rank = sampler.sample(&mut rng);
/// assert!((1..=1_000).contains(&rank));
/// // Rank 1 carries the most mass.
/// assert!(sampler.pmf(1) > sampler.pmf(2));
///
/// // O(1)-per-draw variant, same distribution (different RNG stream).
/// let fast = ZipfSampler::with_method(1_000, 1.4, SampleMethod::Alias);
/// assert!((1..=1_000).contains(&fast.sample(&mut rng)));
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative probabilities; `cumulative[k-1] = P(rank ≤ k)`.
    cumulative: Vec<f64>,
    /// Guide table for the inverse-CDF draw: `guide[j]` is the first
    /// index whose cumulative mass reaches `j / n`, so a uniform `u`
    /// lands within a couple of entries of `guide[⌊u·n⌋]`. Turns the
    /// O(log n) binary search into an O(1) expected lookup while
    /// returning the *same index* for the same uniform (the correction
    /// loops in [`ZipfSampler::sample`] restore exact `partition_point`
    /// semantics), so the draw stream is unchanged.
    guide: Vec<u32>,
    exponent: f64,
    /// Present iff the sampler was built with [`SampleMethod::Alias`].
    alias: Option<AliasTable>,
}

impl ZipfSampler {
    /// Builds an inverse-CDF sampler over `n` ranks with exponent
    /// `s ≥ 0`. Equivalent to
    /// `with_method(n, s, SampleMethod::InverseCdf)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative or not finite.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        ZipfSampler::with_method(n, s, SampleMethod::InverseCdf)
    }

    /// Builds a sampler over `n` ranks with exponent `s ≥ 0` using the
    /// given draw algorithm.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is negative or not finite.
    pub fn with_method(n: usize, s: f64, method: SampleMethod) -> ZipfSampler {
        assert!(n > 0, "Zipf support must be nonempty");
        assert!(
            s >= 0.0 && s.is_finite(),
            "Zipf exponent must be finite and >= 0"
        );
        // One pass computes each rank's weight exactly once; summing the
        // weights in ascending-k order reproduces generalized_harmonic
        // bit-for-bit, so the cumulative vector (and therefore the
        // inverse-CDF draw stream) is unchanged from the historical
        // two-powf-per-rank build.
        let mut weights = Vec::with_capacity(n);
        let mut h = 0.0;
        for k in 1..=n {
            let w = (k as f64).powf(-s);
            weights.push(w);
            h += w;
        }
        debug_assert_eq!(h, generalized_harmonic(n, s));
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for &w in &weights {
            acc += w / h;
            cumulative.push(acc);
        }
        // Guard against floating-point shortfall at the top.
        *cumulative.last_mut().expect("nonempty") = 1.0;
        // One merged pass builds the guide table: a pointer walks the
        // cumulative vector once while the bucket thresholds ascend, so
        // construction stays O(n) overall.
        let mut guide = Vec::with_capacity(n + 1);
        let inv_n = 1.0 / n as f64;
        let mut i = 0usize;
        for j in 0..=n {
            let threshold = j as f64 * inv_n;
            while i < n && cumulative[i] < threshold {
                i += 1;
            }
            guide.push(i.min(n - 1) as u32);
        }
        let alias = match method {
            SampleMethod::InverseCdf => None,
            SampleMethod::Alias => Some(AliasTable::from_weights(&weights)),
        };
        ZipfSampler {
            cumulative,
            guide,
            exponent: s,
            alias,
        }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if the support is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// The exponent the sampler was built with.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The draw algorithm the sampler was built with.
    pub fn method(&self) -> SampleMethod {
        if self.alias.is_some() {
            SampleMethod::Alias
        } else {
            SampleMethod::InverseCdf
        }
    }

    /// Probability of rank `k` (1-based).
    ///
    /// # Panics
    /// Panics if `k` is outside `1..=n`.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cumulative.len(), "rank out of support");
        if k == 1 {
            self.cumulative[0]
        } else {
            self.cumulative[k - 1] - self.cumulative[k - 2]
        }
    }

    /// The 0-based index an inverse-CDF draw of uniform `u` lands on:
    /// the first index whose cumulative mass reaches `u`.
    ///
    /// Guide-table lookup plus correction loops: start near the answer,
    /// then walk to the exact first index with cumulative >= u. The
    /// forward/backward pair makes the result identical to
    /// `partition_point(|&c| c < u)` from any starting position on a
    /// nondecreasing vector, so FP rounding in the bucket index cannot
    /// shift a draw. `u < 1.0` and `cumulative[n-1] == 1.0` bound the
    /// forward walk.
    #[inline]
    fn index_of(&self, u: f64) -> usize {
        let n = self.cumulative.len();
        let bucket = ((u * n as f64) as usize).min(n - 1);
        let mut i = self.guide[bucket] as usize;
        while self.cumulative[i] < u {
            i += 1;
        }
        while i > 0 && self.cumulative[i - 1] >= u {
            i -= 1;
        }
        i
    }

    /// Draws a 1-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match &self.alias {
            None => self.index_of(rng.gen()) + 1,
            Some(table) => table.sample(rng) + 1,
        }
    }

    /// Draws a 0-based index (rank − 1), convenient for array indexing.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample(rng) - 1
    }

    /// Draws a 0-based index like [`ZipfSampler::sample_index`], but
    /// answers `None`, without a lookup, when an inverse-CDF draw lands
    /// below `floor`. The draw consumes the same uniforms either way.
    ///
    /// The lookup returns the first index whose cumulative mass reaches
    /// `u`, so `u <= cumulative[floor - 1]` holds exactly when the index
    /// would be below `floor`: one compare replaces the lookup for those
    /// draws. Alias draws have no such order and always return the index.
    #[inline]
    pub(crate) fn sample_index_from<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        floor: usize,
    ) -> Option<usize> {
        match &self.alias {
            None => {
                let u: f64 = rng.gen();
                if floor > 0 && u <= self.cumulative[floor - 1] {
                    None
                } else {
                    Some(self.index_of(u))
                }
            }
            Some(table) => Some(table.sample(rng)),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use appstore_core::Seed;
    use appstore_stats::{chi_squared_gof, ks_two_sample, zipf_pmf};
    use proptest::prelude::*;

    #[test]
    fn pmf_matches_reference() {
        let s = ZipfSampler::new(50, 1.3);
        for k in 1..=50 {
            assert!((s.pmf(k) - zipf_pmf(k, 50, 1.3)).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_special_case() {
        let s = ZipfSampler::new(4, 0.0);
        for k in 1..=4 {
            assert!((s.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn alias_pmf_identical_to_inverse_cdf() {
        // Both methods share the exact cumulative table.
        let a = ZipfSampler::with_method(200, 1.2, SampleMethod::Alias);
        let b = ZipfSampler::new(200, 1.2);
        for k in 1..=200 {
            assert_eq!(a.pmf(k), b.pmf(k));
        }
        assert_eq!(a.method(), SampleMethod::Alias);
        assert_eq!(b.method(), SampleMethod::InverseCdf);
    }

    #[test]
    fn new_is_inverse_cdf_with_unchanged_stream() {
        // `new` and `with_method(InverseCdf)` must consume the RNG
        // identically — the calibrated experiments depend on this stream.
        let a = ZipfSampler::new(1_000, 1.4);
        let b = ZipfSampler::with_method(1_000, 1.4, SampleMethod::InverseCdf);
        let mut rng_a = Seed::new(99).rng();
        let mut rng_b = Seed::new(99).rng();
        for _ in 0..1_000 {
            assert_eq!(a.sample(&mut rng_a), b.sample(&mut rng_b));
        }
    }

    #[test]
    fn guide_table_sample_equals_partition_point() {
        // The guide-table fast path must return the exact index the
        // plain binary search would, for every draw — the calibrated
        // RNG stream consumes one uniform either way, so equality here
        // means the goldens cannot move. Exercised across support
        // sizes (including n = 1 and sizes near guide-bucket
        // boundaries) and exponents (uniform through steep).
        for &n in &[1usize, 2, 3, 7, 64, 65, 1_000] {
            for &s in &[0.0f64, 0.6, 1.0, 1.4, 2.5] {
                let sampler = ZipfSampler::new(n, s);
                let mut rng_fast = Seed::new(n as u64 ^ s.to_bits()).rng();
                let mut rng_ref = rng_fast.clone();
                for _ in 0..2_000 {
                    let fast = sampler.sample(&mut rng_fast);
                    let u: f64 = rng_ref.gen();
                    let reference = sampler.cumulative.partition_point(|&c| c < u) + 1;
                    assert_eq!(fast, reference, "n={n} s={s} u={u}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn guide_table_equivalence_holds_for_random_supports(
            n in 1usize..800, s in 0.0f64..3.0, seed in any::<u64>()
        ) {
            let sampler = ZipfSampler::new(n, s);
            let mut rng_fast = Seed::new(seed).rng();
            let mut rng_ref = rng_fast.clone();
            for _ in 0..64 {
                let fast = sampler.sample(&mut rng_fast);
                let u: f64 = rng_ref.gen();
                let reference = sampler.cumulative.partition_point(|&c| c < u) + 1;
                prop_assert_eq!(fast, reference);
            }
        }
    }

    proptest! {
        #[test]
        fn floored_draws_reject_exactly_the_draws_below_the_floor(
            n in 1usize..400, s in 0.0f64..4.0, floor_pick in 0usize..1_000, seed in any::<u64>(), alias in any::<bool>()
        ) {
            let method = if alias { SampleMethod::Alias } else { SampleMethod::InverseCdf };
            let sampler = ZipfSampler::with_method(n, s, method);
            let floor = floor_pick % (n + 1);
            let mut rng_floor = Seed::new(seed).rng();
            let mut rng_plain = rng_floor.clone();
            for _ in 0..64 {
                let floored = sampler.sample_index_from(&mut rng_floor, floor);
                let plain = sampler.sample_index(&mut rng_plain);
                match floored {
                    Some(index) => prop_assert_eq!(index, plain),
                    None => prop_assert!(!alias && plain < floor),
                }
                if !alias {
                    prop_assert_eq!(floored.is_none(), plain < floor);
                }
            }
            // Both paths consumed the same uniforms.
            prop_assert_eq!(rng_floor.gen::<u64>(), rng_plain.gen::<u64>());
        }
    }

    #[test]
    fn sample_frequencies_match_pmf() {
        let sampler = ZipfSampler::new(20, 1.1);
        let mut rng = Seed::new(42).rng();
        let n = 200_000;
        let mut counts = [0u64; 20];
        for _ in 0..n {
            counts[sampler.sample_index(&mut rng)] += 1;
        }
        for k in 1..=20 {
            let expected = sampler.pmf(k) * n as f64;
            let got = counts[k - 1] as f64;
            // 5-sigma binomial tolerance.
            let sigma = (expected * (1.0 - sampler.pmf(k))).sqrt();
            assert!(
                (got - expected).abs() < 5.0 * sigma + 1.0,
                "rank {k}: got {got}, expected {expected}"
            );
        }
    }

    /// Draws `draws` ranks and chi-squared-tests them against the
    /// sampler's own pmf. Returns the p-value.
    fn chi_squared_p(sampler: &ZipfSampler, seed: u64, draws: u64) -> f64 {
        let mut rng = Seed::new(seed).rng();
        let mut counts = vec![0u64; sampler.len()];
        for _ in 0..draws {
            counts[sampler.sample_index(&mut rng)] += 1;
        }
        let expected: Vec<f64> = (1..=sampler.len())
            .map(|k| sampler.pmf(k) * draws as f64)
            .collect();
        chi_squared_gof(&counts, &expected, 5.0)
            .expect("valid chi-squared inputs")
            .p_value
    }

    #[test]
    fn both_methods_pass_chi_squared_against_analytic_pmf() {
        for method in [SampleMethod::InverseCdf, SampleMethod::Alias] {
            let sampler = ZipfSampler::with_method(100, 1.4, method);
            let p = chi_squared_p(&sampler, 7, 200_000);
            assert!(p > 0.001, "{method:?}: empirical pmf rejected, p = {p}");
        }
    }

    #[test]
    fn methods_are_statistically_equivalent_by_ks() {
        // Two-sample KS on the drawn ranks themselves: the alias stream
        // and the inverse-CDF stream must be draws from one distribution.
        let inverse = ZipfSampler::new(500, 1.2);
        let alias = ZipfSampler::with_method(500, 1.2, SampleMethod::Alias);
        let mut rng_a = Seed::new(11).rng();
        let mut rng_b = Seed::new(12).rng();
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| inverse.sample(&mut rng_a) as f64).collect();
        let ys: Vec<f64> = (0..n).map(|_| alias.sample(&mut rng_b) as f64).collect();
        let ks = ks_two_sample(&xs, &ys).expect("nonempty samples");
        assert!(
            ks.p_value > 0.001,
            "KS rejected equivalence: D = {}, p = {}",
            ks.statistic,
            ks.p_value
        );
    }

    #[test]
    fn alias_table_from_explicit_weights() {
        // A lopsided hand-built distribution: outcome frequencies must
        // track the weights.
        let table = AliasTable::from_weights(&[8.0, 1.0, 1.0]);
        assert_eq!(table.len(), 3);
        let mut rng = Seed::new(5).rng();
        let mut counts = [0u64; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        let expected = [0.8, 0.1, 0.1].map(|p| p * n as f64);
        let p = chi_squared_gof(&counts, &expected, 5.0).unwrap().p_value;
        assert!(p > 0.001, "p = {p}");
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn alias_rejects_negative_weights() {
        let _ = AliasTable::from_weights(&[1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn alias_rejects_all_zero_weights() {
        let _ = AliasTable::from_weights(&[0.0, 0.0]);
    }

    #[test]
    fn single_rank_support() {
        for method in [SampleMethod::InverseCdf, SampleMethod::Alias] {
            let sampler = ZipfSampler::with_method(1, 2.0, method);
            let mut rng = Seed::new(0).rng();
            assert_eq!(sampler.sample(&mut rng), 1);
            assert_eq!(sampler.pmf(1), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn zero_support_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn negative_exponent_panics() {
        let _ = ZipfSampler::new(10, -1.0);
    }

    proptest! {
        #[test]
        fn samples_stay_in_support(n in 1usize..500, s in 0.0f64..3.0, seed in any::<u64>()) {
            let sampler = ZipfSampler::new(n, s);
            let mut rng = Seed::new(seed).rng();
            for _ in 0..50 {
                let k = sampler.sample(&mut rng);
                prop_assert!(k >= 1 && k <= n);
            }
        }

        #[test]
        fn alias_samples_stay_in_support(n in 1usize..500, s in 0.0f64..3.0, seed in any::<u64>()) {
            let sampler = ZipfSampler::with_method(n, s, SampleMethod::Alias);
            let mut rng = Seed::new(seed).rng();
            for _ in 0..50 {
                let k = sampler.sample(&mut rng);
                prop_assert!(k >= 1 && k <= n);
            }
        }

        #[test]
        fn pmf_is_monotone_nonincreasing(n in 2usize..200, s in 0.0f64..3.0) {
            let sampler = ZipfSampler::new(n, s);
            for k in 1..n {
                prop_assert!(sampler.pmf(k) + 1e-12 >= sampler.pmf(k + 1));
            }
        }

        #[test]
        fn alias_table_probs_are_valid(n in 1usize..100, s in 0.0f64..3.0) {
            let sampler = ZipfSampler::with_method(n, s, SampleMethod::Alias);
            let table = sampler.alias.as_ref().expect("alias method");
            for (i, &p) in table.prob.iter().enumerate() {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
                prop_assert!(table.alias[i] < n);
            }
        }
    }
}
