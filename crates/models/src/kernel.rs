//! Flat-array kernels behind the coarse-to-fine fitting grid.
//!
//! Two pieces live here:
//!
//! * [`ZipfFamily`] — the unnormalized Zipf weight tables for a whole
//!   exponent axis, laid out in one contiguous arena and built
//!   *incrementally*: stepping from exponent `z` to `z + Δ` multiplies
//!   the existing row by a shared `k^{−Δ}` factor vector instead of
//!   re-running the `O(n)` `powf` sweep. A 15-exponent axis costs two
//!   `powf` sweeps (the first row and the factor vector) plus pure
//!   multiplies.
//! * `CoarseScreener` / `coarse_select` — the subsample screening
//!   pass of the coarse-to-fine grid search. Every feasible candidate is
//!   scored on a deterministic decimation of the rank axis using
//!   memoized per-sample miss tables; the best `keep_global` candidates
//!   overall plus the best `keep_per_uf` per user-fraction column
//!   survive to exact re-screening — and those counts are floors: every
//!   candidate scoring within a near-tie band of the best survives too,
//!   so a flat screening landscape widens the survivor set instead of
//!   losing exact near-ties. Selection is serial and breaks score
//!   ties by grid index, so the survivor set is a pure function of
//!   `(observed, spec)` — independent of thread count.
//!
//! The coarse score is a *heuristic ranking* only: survivors are always
//! re-scored by the unchanged exact screening path, and the grid search
//! asserts exhaustive-equivalence in tests (`tests/coarse_to_fine.rs`),
//! so approximation error here can cost speed but never the optimum
//! unless the survivor budget is set pathologically small.

use crate::config::ClusterLayout;
use crate::fit::{candidate_params, FitSpec, GridCandidate};
use std::collections::{BTreeSet, HashMap};

/// Unnormalized Zipf weights `k^{−z}` for every exponent of an axis, in
/// one exponent-major arena, plus each row's normalizer `H_n(z)`.
///
/// Rows after the first are built incrementally (`w_{z+Δ}[k] =
/// w_z[k] · k^{−Δ}`), so the tables are *numerically close to* but not
/// bit-identical with a fresh `powf` sweep — they back the coarse
/// screening heuristic and the microbenches, never the exact path.
#[derive(Debug, Clone)]
pub struct ZipfFamily {
    n: usize,
    /// `weights[e * n + (k − 1)] = k^{−exponents[e]}`.
    weights: Vec<f64>,
    /// `totals[e] = Σ_{k=1..=n} k^{−exponents[e]}`.
    totals: Vec<f64>,
}

impl ZipfFamily {
    /// Builds the family for `exponents` over ranks `1..=n`.
    pub fn build(n: usize, exponents: &[f64]) -> ZipfFamily {
        let n = n.max(1);
        let mut weights = Vec::with_capacity(n * exponents.len());
        let mut totals = Vec::with_capacity(exponents.len());
        // `Δ → k^{−Δ}` factor vectors; a uniform axis has one entry.
        let mut deltas: Vec<(u64, Vec<f64>)> = Vec::new();
        for (e, &z) in exponents.iter().enumerate() {
            if e == 0 {
                weights.extend((1..=n).map(|k| (k as f64).powf(-z)));
            } else {
                let delta = z - exponents[e - 1];
                if !deltas.iter().any(|(bits, _)| *bits == delta.to_bits()) {
                    let factors = (1..=n).map(|k| (k as f64).powf(-delta)).collect();
                    deltas.push((delta.to_bits(), factors));
                }
                let factors = &deltas
                    .iter()
                    .find(|(bits, _)| *bits == delta.to_bits())
                    .expect("factor vector just ensured")
                    .1;
                let prev = (e - 1) * n;
                for k in 0..n {
                    let w = weights[prev + k] * factors[k];
                    weights.push(w);
                }
            }
            totals.push(weights[e * n..(e + 1) * n].iter().sum());
        }
        ZipfFamily { n, weights, totals }
    }

    /// Ranks per row.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the family holds no ranks (never: `n` is clamped ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The unnormalized weight `rank^{−z_e}` (`rank` is 1-based).
    pub fn weight(&self, e: usize, rank: usize) -> f64 {
        self.weights[e * self.n + rank - 1]
    }

    /// The full-row normalizer `H_n(z_e)`.
    pub fn total(&self, e: usize) -> f64 {
        self.totals[e]
    }

    /// The truncated normalizer `H_m(z_e) = Σ_{k=1..=m} k^{−z_e}`.
    pub fn prefix_total(&self, e: usize, m: usize) -> f64 {
        let m = m.min(self.n);
        self.weights[e * self.n..e * self.n + m].iter().sum()
    }

    /// The pmf of rank `rank` under a Zipf law truncated at `m` ranks.
    pub fn pmf(&self, e: usize, rank: usize, m: usize) -> f64 {
        self.weight(e, rank) / self.prefix_total(e, m)
    }
}

/// The survivor set of a coarse pass: ascending grid indices plus the
/// feasibility tally the exhaustive counters need.
pub(crate) struct CoarseSelection {
    /// Grid indices that survive to exact re-screening, ascending.
    pub survivors: Vec<usize>,
    /// Candidates that passed the (exact) feasibility checks.
    pub feasible: u64,
}

/// Scores clustering candidates on a deterministic rank subsample.
///
/// All heavy state is per-axis, not per-candidate: Zipf families for
/// both exponent axes, lazily materialized cluster weights per `z_r`,
/// and per-sample miss tables memoized on `(exponent index, draw-count
/// bits)` — the grid's `(p, U)` pairs produce only a handful of distinct
/// draw counts, so each table is built once and shared by hundreds of
/// candidates.
pub(crate) struct CoarseScreener {
    /// Sampled global app indices, ascending (always includes rank 1).
    sample: Vec<usize>,
    /// `observed[s]` per sampled index.
    obs: Vec<f64>,
    /// `Σ obs` over the sample.
    obs_total: f64,
    /// Cluster of each sampled index.
    cluster_of: Vec<u32>,
    /// Size-class index (into the rows of `cluster_totals`) of that
    /// cluster — the interleaved layout has at most two distinct sizes.
    size_class: Vec<u8>,
    /// 1-based within-cluster rank of each sampled index.
    rank_in_cluster: Vec<usize>,
    /// Global-exponent family over all `apps` ranks.
    global: ZipfFamily,
    /// Cluster-exponent family over the largest sampled cluster.
    cluster: ZipfFamily,
    /// `cluster_totals[zc_idx][class]` = truncated normalizer for that
    /// cluster size.
    cluster_totals: Vec<Vec<f64>>,
    /// Lazily computed cluster weights per `z_r` index.
    weights: Vec<Option<Vec<f64>>>,
    /// `(zr_idx, a.to_bits())` → per-sample `(1 − pmf_G)^a`.
    eg: HashMap<(usize, u64), Vec<f64>>,
    /// `(zc_idx, b.to_bits())` → per-sample `(1 − pmf_c)^b`.
    ec: HashMap<(usize, u64), Vec<f64>>,
    apps: usize,
    clusters: usize,
    layout: ClusterLayout,
}

impl CoarseScreener {
    pub(crate) fn new(observed: &[u64], spec: &FitSpec, sample_target: usize) -> CoarseScreener {
        let apps = observed.len();
        let clusters = spec.clusters.max(1);
        let layout = ClusterLayout::Interleaved;
        // Decimate the rank axis with a fixed stride; tiny curves are
        // taken whole so the coarse score degenerates to (unsorted)
        // exact shape comparison.
        let m = sample_target.clamp(apps.min(32), apps).max(1);
        let sample: Vec<usize> = (0..m).map(|t| t * apps / m).collect();
        let obs: Vec<f64> = sample.iter().map(|&s| observed[s] as f64).collect();
        let obs_total: f64 = obs.iter().sum();
        let mut cluster_of = Vec::with_capacity(m);
        let mut rank_in_cluster = Vec::with_capacity(m);
        let mut class_sizes: Vec<usize> = Vec::new();
        let mut size_class = Vec::with_capacity(m);
        for &s in &sample {
            let (c, j) = layout.place(s, apps, clusters);
            let size = layout.cluster_size(c, apps, clusters).max(1);
            let class = match class_sizes.iter().position(|&sz| sz == size) {
                Some(i) => i,
                None => {
                    class_sizes.push(size);
                    class_sizes.len() - 1
                }
            };
            cluster_of.push(c as u32);
            rank_in_cluster.push(j + 1);
            size_class.push(class as u8);
        }
        let global = ZipfFamily::build(apps, &spec.zipf_exponents);
        let max_size = class_sizes.iter().copied().max().unwrap_or(1);
        let cluster = ZipfFamily::build(max_size, &spec.cluster_exponents);
        let cluster_totals = (0..spec.cluster_exponents.len())
            .map(|e| {
                class_sizes
                    .iter()
                    .map(|&sz| cluster.prefix_total(e, sz))
                    .collect()
            })
            .collect();
        CoarseScreener {
            sample,
            obs,
            obs_total,
            cluster_of,
            size_class,
            rank_in_cluster,
            global,
            cluster,
            cluster_totals,
            weights: vec![None; spec.zipf_exponents.len()],
            eg: HashMap::new(),
            ec: HashMap::new(),
            apps,
            clusters,
            layout,
        }
    }

    fn ensure_weights(&mut self, zr: usize) {
        if self.weights[zr].is_some() {
            return;
        }
        let total = self.global.total(zr);
        let mut w = vec![0.0; self.clusters];
        for idx in 0..self.apps {
            let (c, _) = self.layout.place(idx, self.apps, self.clusters);
            w[c] += self.global.weight(zr, idx + 1) / total;
        }
        self.weights[zr] = Some(w);
    }

    fn ensure_eg(&mut self, zr: usize, a: f64) {
        let key = (zr, a.to_bits());
        if self.eg.contains_key(&key) {
            return;
        }
        let total = self.global.total(zr);
        let table = self
            .sample
            .iter()
            .map(|&s| (1.0 - self.global.weight(zr, s + 1) / total).powf(a))
            .collect();
        self.eg.insert(key, table);
    }

    fn ensure_ec(&mut self, zc: usize, b: f64) {
        let key = (zc, b.to_bits());
        if self.ec.contains_key(&key) {
            return;
        }
        let table = (0..self.sample.len())
            .map(|t| {
                let h = self.cluster_totals[zc][usize::from(self.size_class[t])];
                let q = self.cluster.weight(zc, self.rank_in_cluster[t]) / h;
                (1.0 - q).powf(b)
            })
            .collect();
        self.ec.insert(key, table);
    }

    /// The coarse distance of one feasible candidate: mean relative
    /// error between the sampled observed curve and the *descending-
    /// sorted* sampled expectation, rescaled to the sampled observed
    /// total. Sorting mirrors the exact screen's ranked-vs-ranked
    /// comparison — the clustering expectation is sawtoothed across
    /// interleaved clusters (worst at high `p`), and comparing it
    /// positionally would systematically misrank exactly the high-`p`
    /// region the paper's best fits live in. No rounding — this ranks
    /// candidates, it does not report distances.
    pub(crate) fn score(
        &mut self,
        zr: usize,
        zc: usize,
        p: f64,
        users: usize,
        downloads_per_user: u32,
        expected: &mut Vec<f64>,
    ) -> f64 {
        let d = f64::from(downloads_per_user);
        let a = (1.0 - p) * d;
        let b = p * d;
        self.ensure_weights(zr);
        self.ensure_eg(zr, a);
        self.ensure_ec(zc, b);
        let w = self.weights[zr].as_ref().expect("weights just ensured");
        let eg = &self.eg[&(zr, a.to_bits())];
        let ec = &self.ec[&(zc, b.to_bits())];
        let users = users as f64;
        expected.clear();
        let mut total = 0.0;
        for t in 0..self.sample.len() {
            let wc = w[self.cluster_of[t] as usize];
            let e = users * (1.0 - eg[t] * ((1.0 - wc) + wc * ec[t]));
            expected.push(e);
            total += e;
        }
        if total <= 0.0 || self.obs_total <= 0.0 {
            return f64::INFINITY;
        }
        expected.sort_unstable_by(|a, b| b.total_cmp(a));
        let scale = self.obs_total / total;
        let mut err = 0.0;
        let mut counted = 0u32;
        for (t, &o) in self.obs.iter().enumerate() {
            if o > 0.0 {
                err += (o - expected[t] * scale).abs() / o;
                counted += 1;
            }
        }
        if counted == 0 {
            f64::INFINITY
        } else {
            err / f64::from(counted)
        }
    }
}

/// Global near-tie band: every candidate whose coarse score is within
/// this factor of the best survives regardless of `keep_global`. The
/// exact screening landscape is flat near its optimum while the
/// subsampled score carries noise of the same order; on measured
/// stores the true exact top candidates score within ~1.5× of the
/// coarse best, so 2× keeps them with margin. On a pathologically flat
/// landscape the band keeps (almost) everything — the coarse pass then
/// degrades to the exhaustive screen instead of losing the optimum.
const GLOBAL_BAND: f64 = 2.0;

/// Per-user-fraction-column near-tie band (the per-column bests feed
/// the shortlist's per-`uf` slots, so each column needs its own cover).
const COLUMN_BAND: f64 = 1.5;

/// Runs the coarse pass over the whole grid and picks the survivors:
/// the `keep_global` best overall plus the `keep_per_uf` best in each
/// user-fraction column — both floors, widened to every candidate
/// within the near-tie bands above — with ties broken toward the lower
/// grid index (the same preference the exhaustive shortlist's stable,
/// grid-ordered feed gives tied candidates).
pub(crate) fn coarse_select(
    observed: &[u64],
    spec: &FitSpec,
    grid: &[GridCandidate],
    sample_target: usize,
    keep_global: usize,
    keep_per_uf: usize,
) -> CoarseSelection {
    let mut screener = CoarseScreener::new(observed, spec, sample_target);
    let len_uf = spec.user_fractions.len().max(1);
    let len_p = spec.ps.len().max(1);
    let len_zc = spec.cluster_exponents.len().max(1);
    let mut scored: Vec<(f64, usize)> = Vec::with_capacity(grid.len());
    let mut by_uf: Vec<Vec<(f64, usize)>> = vec![Vec::new(); len_uf];
    let mut expected = Vec::new();
    let mut feasible = 0u64;
    for (i, &candidate) in grid.iter().enumerate() {
        let Some(params) = candidate_params(observed, spec, candidate) else {
            continue;
        };
        feasible += 1;
        let zr = i / (len_zc * len_p * len_uf);
        let zc = (i / (len_p * len_uf)) % len_zc;
        let distance = screener.score(
            zr,
            zc,
            params.p,
            params.population.users,
            params.population.downloads_per_user,
            &mut expected,
        );
        scored.push((distance, i));
        by_uf[i % len_uf].push((distance, i));
    }
    let stable = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    // `sorted` is score-ascending, so the band cutoff is a prefix.
    let banded_take = |sorted: &[(f64, usize)], floor: usize, band: f64| -> usize {
        let Some(&(best, _)) = sorted.first() else {
            return 0;
        };
        let within = sorted.partition_point(|&(s, _)| s <= best * band);
        within.max(floor.max(1)).min(sorted.len())
    };
    scored.sort_by(stable);
    let take = banded_take(&scored, keep_global, GLOBAL_BAND);
    let mut keep: BTreeSet<usize> = scored.iter().take(take).map(|&(_, i)| i).collect();
    for column in &mut by_uf {
        column.sort_by(stable);
        let take = banded_take(column, keep_per_uf, COLUMN_BAND);
        keep.extend(column.iter().take(take).map(|&(_, i)| i));
    }
    CoarseSelection {
        survivors: keep.into_iter().collect(),
        feasible,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::zipf::ZipfSampler;

    #[test]
    fn family_matches_direct_powf_within_float_noise() {
        let exps: Vec<f64> = (6..=20).map(|i| i as f64 / 10.0).collect();
        let family = ZipfFamily::build(200, &exps);
        for (e, &z) in exps.iter().enumerate() {
            let sampler = ZipfSampler::new(200, z);
            for rank in [1usize, 2, 17, 199, 200] {
                let got = family.weight(e, rank) / family.total(e);
                let want = sampler.pmf(rank);
                assert!(
                    (got - want).abs() <= 1e-9 * want.max(1e-300),
                    "z={z} rank={rank}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn family_prefix_total_truncates() {
        let family = ZipfFamily::build(50, &[1.0, 1.5]);
        let direct: f64 = (1..=20).map(|k| (k as f64).powf(-1.5)).sum();
        assert!((family.prefix_total(1, 20) - direct).abs() < 1e-12);
        assert_eq!(family.prefix_total(0, 50), family.total(0));
    }

    #[test]
    fn family_handles_unsorted_and_duplicate_exponents() {
        let family = ZipfFamily::build(40, &[1.4, 0.8, 1.4, 1.4]);
        for e in [0usize, 2, 3] {
            let sampler = ZipfSampler::new(40, 1.4);
            let got = family.weight(e, 7) / family.total(e);
            assert!((got - sampler.pmf(7)).abs() < 1e-12);
        }
    }
}
