//! Fitting model parameters to a measured popularity curve (Figs. 8–10).
//!
//! The paper tunes each model "by running simulations with all parameter
//! combinations, and measuring the distance from actual data" (Eq. 6 mean
//! relative error). Re-simulating every grid point is wasteful, so the
//! search here runs in two stages:
//!
//! 1. **Analytic screening** — every candidate is scored with a cheap
//!    closed-form expectation (exact for ZIPF, the standard independence
//!    approximation for ZIPF-at-most-once, and the mass-preserving
//!    weighted form of Eq. 5 for APP-CLUSTERING). The grid is spread over
//!    worker threads with [`par_map_indexed`], each worker reusing a
//!    [`ScreeningCache`] so the `O(apps)` Zipf table behind each distinct
//!    exponent is built once instead of once per candidate.
//! 2. **Monte-Carlo refinement** — the `refine_top` best candidates are
//!    re-scored by actually simulating them (averaging `replications`
//!    runs), exactly as the paper does, and the best simulated distance
//!    wins. The shortlist simulates in parallel; every candidate's seed
//!    is derived from its shortlist index before any thread runs, so the
//!    winner is bit-identical for every thread count. Setting
//!    `refine_top = 0` keeps the fit purely analytic.
//!
//! Both curves are compared *as distributions*: the candidate's per-app
//! downloads are sorted descending, like the measured ranking, before the
//! Eq. 6 distance is computed, and the analytic expectation is rescaled to
//! the measured total (the simulators emit exactly `U·d ≈ D` downloads;
//! the closed forms lose or gain the mass of rejected redraws).

use crate::config::{ClusterLayout, ClusteringParams, ModelKind, PopulationParams};
use crate::expectation::ScreeningCache;
use crate::kernel;
use crate::simulate::Simulator;
use appstore_core::faults::{self, FaultKind};
use appstore_core::journal::{heal_torn_tail, seal, unseal, LossyLines};
use appstore_core::{effective_threads, par_map_indexed, Seed};
use appstore_stats::mean_relative_error;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;

/// The winning parameters of a grid search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitOutcome {
    /// Which model was fitted.
    pub kind: ModelKind,
    /// Global Zipf exponent `z_r`.
    pub zipf_exponent: f64,
    /// Per-cluster exponent `z_c` (clustering model only; 0 otherwise).
    pub cluster_exponent: f64,
    /// Clustering probability `p` (clustering model only; 0 otherwise).
    pub p: f64,
    /// Fitted user count `U` (0 for pure ZIPF, where only `U·d` matters).
    pub users: usize,
    /// Implied per-user budget `d = D / U` (at least 1; 0 for pure ZIPF).
    pub downloads_per_user: u32,
    /// Eq. 6 mean relative error of the winning candidate. When
    /// Monte-Carlo refinement ran, this is a simulated distance.
    pub distance: f64,
}

/// Search-space description for fitting against one measured curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitSpec {
    /// Candidate global exponents `z_r`.
    pub zipf_exponents: Vec<f64>,
    /// Candidate cluster exponents `z_c` (clustering model only).
    pub cluster_exponents: Vec<f64>,
    /// Candidate clustering probabilities `p` (clustering model only).
    pub ps: Vec<f64>,
    /// Candidate user counts expressed as multiples of the most popular
    /// app's downloads (the paper's Fig. 10 axis).
    pub user_fractions: Vec<f64>,
    /// Number of clusters `C` (taken from the store's category count).
    pub clusters: usize,
    /// Number of worker threads (0 ⇒ one per available CPU).
    pub threads: usize,
    /// How many analytically-screened candidates to re-score by
    /// simulation (0 disables refinement).
    pub refine_top: usize,
    /// Monte-Carlo replications averaged per refined candidate.
    pub replications: u32,
    /// Coarse-to-fine screening policy (see [`CoarseMode`]). Absent in
    /// serialized specs from before the field existed ⇒ [`CoarseMode::Auto`].
    #[serde(default)]
    pub coarse: CoarseMode,
}

/// How [`fit_clustering`] and [`fit_clustering_checkpointed`] screen the
/// candidate grid.
///
/// Under coarse-to-fine, every feasible candidate is first scored on a
/// deterministic subsample of the rank axis (cheap, serial, heuristic);
/// only the best `keep_global` overall plus the best `keep_per_uf` per
/// user-fraction column are re-scored by the unchanged exact screening
/// path, which alone feeds the refinement shortlist. The survivor
/// budget is sized so the winner matches the exhaustive grid search —
/// asserted across seeded stores in `tests/coarse_to_fine.rs` — while
/// exact screening work drops by the survivor ratio. On the standard
/// grid that ratio is modest, because the near-tie bands keep most of a
/// flat landscape: fig8 keeps 14,523 of 23,625 candidates (61%) at
/// scale 64 and 8,416 (36%) at scale 16, where fig9, fig10 and ablate-p
/// keep 31–36%.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum CoarseMode {
    /// Coarse-to-fine with default budgets, but only when the grid is
    /// large enough that screening it exhaustively costs more than the
    /// coarse pass saves. Small grids (every unit-test spec) screen
    /// exhaustively, unchanged.
    #[default]
    Auto,
    /// Always screen the full grid exactly.
    Off,
    /// Coarse-to-fine with explicit budgets.
    On {
        /// Target number of sampled ranks (clamped to `[min(apps, 32), apps]`).
        sample: usize,
        /// Globally best candidates kept for exact re-screening.
        keep_global: usize,
        /// Best candidates kept per user-fraction column.
        keep_per_uf: usize,
    },
}

impl FitSpec {
    /// The default grid used throughout the reproduction: exponents in
    /// 0.6..=2.0 (step 0.1), `p ∈ {0, 0.5, 0.8, 0.9, 0.95}`, user counts
    /// 0.25×..4× the top app's downloads, refinement of the top 8
    /// candidates with 2 replications each.
    pub fn standard(clusters: usize) -> FitSpec {
        let exps: Vec<f64> = (6..=20).map(|i| i as f64 / 10.0).collect();
        FitSpec {
            zipf_exponents: exps.clone(),
            cluster_exponents: exps,
            ps: vec![0.0, 0.5, 0.8, 0.9, 0.95],
            user_fractions: vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0],
            clusters,
            threads: 0,
            refine_top: 8,
            replications: 2,
            coarse: CoarseMode::Auto,
        }
    }

    fn worker_count(&self) -> usize {
        effective_threads(self.threads)
    }

    /// Resolves [`CoarseMode`] for a grid of `grid_len` candidates:
    /// `Some((sample, keep_global, keep_per_uf))` when the coarse pass
    /// should run.
    ///
    /// `Auto` scales the survivor floors with the grid — an eighth of
    /// the grid globally and an eighth of each user-fraction column —
    /// because the exact screening landscape is *flat* near its optimum
    /// (shortlisted candidates typically sit within a few percent of
    /// each other) while the subsampled coarse score carries noise of
    /// the same order, so small fixed budgets would cut exact near-ties.
    /// The counts are floors only: [`kernel::coarse_select`] additionally
    /// keeps every candidate whose coarse score lands within a relative
    /// band of the best. `Auto` activates only when the grid dwarfs the
    /// survivor floor (≥ 2×, and at least 256 candidates), so small
    /// grids keep the exhaustive path with zero overhead.
    fn coarse_plan(&self, grid_len: usize) -> Option<(usize, usize, usize)> {
        match self.coarse {
            CoarseMode::Off => None,
            CoarseMode::On {
                sample,
                keep_global,
                keep_per_uf,
            } => Some((sample.max(1), keep_global.max(1), keep_per_uf.max(1))),
            CoarseMode::Auto => {
                let column = grid_len / self.user_fractions.len().max(1);
                let keep_global = 64.max(16 * self.refine_top.max(1)).max(grid_len / 8);
                let keep_per_uf = 8.max(2 * self.refine_top).max(column / 8);
                let budget = keep_global + self.user_fractions.len() * keep_per_uf;
                if grid_len >= 256.max(2 * budget) {
                    Some((128, keep_global, keep_per_uf))
                } else {
                    None
                }
            }
        }
    }
}

/// Converts a per-app expectation vector into a descending integer
/// popularity curve comparable with the measured one.
#[cfg(test)]
pub(crate) fn to_ranked(expected: Vec<f64>) -> Vec<u64> {
    let mut ranked: Vec<u64> = expected
        .into_iter()
        .map(|e| e.round().max(0.0) as u64)
        .collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    ranked
}

/// Scores one analytic candidate against the measured curve, rescaling
/// the expectation to the measured total first (see module docs).
fn score(observed: &[u64], expected: Vec<f64>) -> f64 {
    let mut ranked = Vec::new();
    score_into(observed, &expected, &mut ranked)
}

/// [`score`] into a caller-owned rank buffer: the screening hot path
/// reuses one arena across thousands of candidates instead of
/// allocating two vectors per candidate. Operation order matches
/// [`score`] exactly (scale, round, clamp, sort), so both paths produce
/// the same bits.
fn score_into(observed: &[u64], expected: &[f64], ranked: &mut Vec<u64>) -> f64 {
    let observed_total: u64 = observed.iter().sum();
    let expected_total: f64 = expected.iter().sum();
    if expected_total <= 0.0 {
        return f64::INFINITY;
    }
    let scale = observed_total as f64 / expected_total;
    ranked.clear();
    ranked.extend(
        expected
            .iter()
            .map(|&e| (e * scale).round().max(0.0) as u64),
    );
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    mean_relative_error(observed, ranked).unwrap_or(f64::INFINITY)
}

/// Reused per-worker buffers for the screening hot loop: the expectation
/// arena and the ranked-curve scratch. One pair serves an entire grid
/// chunk, so screening allocates nothing per candidate.
#[derive(Default)]
struct ScreenScratch {
    expected: Vec<f64>,
    ranked: Vec<u64>,
}

/// Scores one candidate by Monte-Carlo simulation: averages the ranked
/// counts of `replications` runs and computes the Eq. 6 distance.
///
/// Replications run on up to `threads` workers. Each replication's seed
/// is fixed by its index and the average visits replications in index
/// order, so the score is bit-identical for every thread count.
fn score_simulated(
    observed: &[u64],
    sim: &Simulator,
    replications: u32,
    seed: Seed,
    threads: usize,
) -> f64 {
    let reps = replications.max(1);
    appstore_obs::counter(appstore_obs::names::FIT_SIM_REPLICATIONS, u64::from(reps));
    let per_rep = par_map_indexed((0..reps).collect(), threads, |_, r: u32| {
        let mut counts = sim.simulate_counts(seed.child_indexed("rep", u64::from(r)));
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    });
    let mut acc = vec![0.0f64; observed.len()];
    for counts in per_rep {
        for (slot, c) in acc.iter_mut().zip(counts) {
            *slot += c as f64 / f64::from(reps);
        }
    }
    let ranked: Vec<u64> = acc.into_iter().map(|e| e.round() as u64).collect();
    mean_relative_error(observed, &ranked).unwrap_or(f64::INFINITY)
}

pub(crate) fn derive_population(
    observed: &[u64],
    z_r: f64,
    user_fraction: f64,
) -> Option<PopulationParams> {
    let apps = observed.len();
    let total: u64 = observed.iter().sum();
    let top = *observed.first()?;
    if total == 0 || top == 0 {
        return None;
    }
    let users = ((top as f64 * user_fraction).round() as usize).max(1);
    let d = ((total as f64 / users as f64).round() as u32).max(1);
    // Fetch-at-most-once requires d <= apps.
    if d as usize > apps {
        return None;
    }
    Some(PopulationParams {
        apps,
        users,
        downloads_per_user: d,
        zipf_exponent: z_r,
    })
}

fn clustering_params(outcome: &FitOutcome, apps: usize, clusters: usize) -> ClusteringParams {
    ClusteringParams {
        population: PopulationParams {
            apps,
            users: outcome.users,
            downloads_per_user: outcome.downloads_per_user,
            zipf_exponent: outcome.zipf_exponent,
        },
        clusters,
        p: outcome.p,
        cluster_exponent: outcome.cluster_exponent,
        layout: ClusterLayout::Interleaved,
    }
}

/// Fits the pure ZIPF model: only `z_r` matters (downloads are scaled to
/// the measured total, no user ceiling). The closed form is exact, so no
/// refinement is needed.
///
/// `observed` must be the measured popularity curve in descending order.
/// Returns `None` for an empty or all-zero curve.
pub fn fit_zipf(observed: &[u64], spec: &FitSpec) -> Option<FitOutcome> {
    let total: u64 = observed.iter().sum();
    if observed.is_empty() || total == 0 {
        return None;
    }
    let mut best: Option<FitOutcome> = None;
    let mut cache = ScreeningCache::new();
    for &z in &spec.zipf_exponents {
        let params = PopulationParams {
            apps: observed.len(),
            users: 1,
            downloads_per_user: 1,
            zipf_exponent: z,
        };
        // `score` rescales to the measured total, so users/d are moot.
        let distance = score(observed, cache.expected_zipf(&params));
        if best.is_none_or(|b| distance < b.distance) {
            best = Some(FitOutcome {
                kind: ModelKind::Zipf,
                zipf_exponent: z,
                cluster_exponent: 0.0,
                p: 0.0,
                users: 0,
                downloads_per_user: 0,
                distance,
            });
        }
    }
    appstore_obs::counter(
        appstore_obs::names::FIT_ZIPF_CANDIDATES,
        spec.zipf_exponents.len() as u64,
    );
    cache.flush_metrics();
    best
}

/// Keeps the `k` smallest-distance outcomes.
///
/// Distances are non-negative (possibly `+inf`, never `-0.0`), so
/// `total_cmp` orders them exactly like `partial_cmp` would — without a
/// panic path for NaN.
fn push_top(top: &mut Vec<FitOutcome>, k: usize, candidate: FitOutcome) {
    top.push(candidate);
    top.sort_by(|a, b| a.distance.total_cmp(&b.distance));
    top.truncate(k.max(1));
}

/// Accumulates screened candidates into the refinement shortlist: the
/// global top-K *and* the best candidate per user-fraction. The analytic
/// score's head/tail biases depend on `U`, so the global top-K can
/// cluster in one `U` regime and starve the Monte-Carlo refinement of
/// the regime the simulator actually prefers (the paper's own finding is
/// that the best `U` sits near the top app's downloads — it must stay in
/// the shortlist). Candidates must be fed **in grid order** so the
/// shortlist cannot depend on the thread count, even under exact
/// distance ties.
/// Per-user-fraction slots are pre-seeded from the spec's axis (deduped,
/// axis order), so the shortlist's tail ordering depends only on the
/// axis — not on which candidate happened to be fed first. Feeding the
/// whole grid and feeding any survivor subset that contains each
/// column's best therefore produce identical shortlists, which the
/// coarse-to-fine path relies on (refinement seeds are keyed on
/// shortlist position).
struct ShortlistBuilder {
    keep: usize,
    top: Vec<FitOutcome>,
    per_uf: Vec<(f64, Option<FitOutcome>)>,
}

impl ShortlistBuilder {
    fn new(keep: usize, user_fractions: &[f64]) -> ShortlistBuilder {
        let mut per_uf: Vec<(f64, Option<FitOutcome>)> = Vec::new();
        for &uf in user_fractions {
            if !per_uf.iter().any(|(f, _)| *f == uf) {
                per_uf.push((uf, None));
            }
        }
        ShortlistBuilder {
            keep,
            top: Vec::new(),
            per_uf,
        }
    }

    fn add(&mut self, uf: f64, outcome: FitOutcome) {
        push_top(&mut self.top, self.keep, outcome);
        match self.per_uf.iter_mut().find(|(f, _)| *f == uf) {
            Some((_, Some(best))) if outcome.distance < best.distance => *best = outcome,
            Some((_, Some(_))) => {}
            Some((_, slot @ None)) => *slot = Some(outcome),
            // A NaN fraction never matches its own slot; keep the legacy
            // behaviour of appending a fresh entry.
            None => self.per_uf.push((uf, Some(outcome))),
        }
    }

    fn is_empty(&self) -> bool {
        self.top.is_empty()
    }

    /// The best analytic candidate (for `refine_top == 0` fits).
    fn best_screened(self) -> Option<FitOutcome> {
        self.top.into_iter().next()
    }

    /// Global top-K followed by each user-fraction's best (deduplicated).
    fn shortlist(self) -> Vec<FitOutcome> {
        let mut shortlist = self.top;
        for outcome in self.per_uf.into_iter().filter_map(|(_, o)| o) {
            if !shortlist.contains(&outcome) {
                shortlist.push(outcome);
            }
        }
        shortlist
    }
}

/// Fits ZIPF-at-most-once over `(z_r, U)` with analytic screening and
/// optional Monte-Carlo refinement.
///
/// Returns `None` for an empty or all-zero curve or an empty grid.
pub fn fit_zipf_amo(observed: &[u64], spec: &FitSpec, seed: Seed) -> Option<FitOutcome> {
    let mut builder = ShortlistBuilder::new(spec.refine_top.max(1), &spec.user_fractions);
    let mut cache = ScreeningCache::new();
    let mut screened_count = 0u64;
    for &z in &spec.zipf_exponents {
        for &uf in &spec.user_fractions {
            let Some(params) = derive_population(observed, z, uf) else {
                continue;
            };
            screened_count += 1;
            let distance = score(observed, cache.expected_zipf_amo(&params));
            let outcome = FitOutcome {
                kind: ModelKind::ZipfAtMostOnce,
                zipf_exponent: z,
                cluster_exponent: 0.0,
                p: 0.0,
                users: params.users,
                downloads_per_user: params.downloads_per_user,
                distance,
            };
            builder.add(uf, outcome);
            appstore_obs::instant(appstore_obs::names::INSTANT_FIT_CANDIDATE_SCREENED);
        }
    }
    let grid = (spec.zipf_exponents.len() * spec.user_fractions.len()) as u64;
    appstore_obs::counter(appstore_obs::names::FIT_AMO_GRID_CANDIDATES, grid);
    appstore_obs::counter(appstore_obs::names::FIT_AMO_SCREENED, screened_count);
    appstore_obs::counter(appstore_obs::names::FIT_AMO_PRUNED, grid - screened_count);
    cache.flush_metrics();
    if spec.refine_top == 0 {
        return builder.best_screened();
    }
    let top = builder.shortlist();
    appstore_obs::counter(appstore_obs::names::FIT_AMO_REFINED, top.len() as u64);
    appstore_obs::span(appstore_obs::names::SPAN_FIT_REFINE, || {
        par_map_indexed(top, spec.worker_count(), |i, mut outcome: FitOutcome| {
            let params = clustering_params(&outcome, observed.len(), 1).population;
            let sim = Simulator::zipf_at_most_once(params);
            outcome.distance = score_simulated(
                observed,
                &sim,
                spec.replications,
                seed.child_indexed("amo-refine", i as u64),
                1,
            );
            appstore_obs::instant(appstore_obs::names::INSTANT_FIT_CANDIDATE_REFINED);
            outcome
        })
        .into_iter()
        .min_by(|a, b| a.distance.total_cmp(&b.distance))
    })
}

/// Fits APP-CLUSTERING over `(z_r, z_c, p, U)`: parallel analytic
/// screening with the weighted closed form, then Monte-Carlo refinement
/// of the `refine_top` best candidates.
///
/// Returns `None` for an empty or all-zero curve or an empty grid.
pub fn fit_clustering(observed: &[u64], spec: &FitSpec, seed: Seed) -> Option<FitOutcome> {
    fit_clustering_with(observed, spec, seed, &mut NoJournal).unwrap_or_else(|never| match never {})
}

/// One screened grid candidate: its user fraction and analytic outcome.
type Screened = (f64, FitOutcome);

/// What the APP-CLUSTERING pipeline asks of a checkpoint journal, the
/// one seam between [`fit_clustering`] and
/// [`fit_clustering_checkpointed`]. Screening results are keyed by grid
/// index and refinements by shortlist index. The defaults keep nothing,
/// which is all the plain fit needs ([`NoJournal`]).
trait Checkpoint {
    /// Why a record could not be sealed.
    type Error;

    /// Replays or starts the journal, once the grid of `grid_len`
    /// candidates is known to be non-empty.
    fn open(
        &mut self,
        _observed: &[u64],
        _spec: &FitSpec,
        _seed: Seed,
        _grid_len: usize,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// The sealed screening result of grid candidate `index`
    /// (`Some(None)` when it was sealed as infeasible), or `None` when
    /// the journal holds no record of it.
    fn screened(&self, _index: usize) -> Option<Option<Screened>> {
        None
    }

    /// Seals the screening result of grid candidate `index`.
    fn seal_screened(
        &mut self,
        _index: usize,
        _result: Option<Screened>,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// The final outcome of shortlist slot `index` when it needs no
    /// refinement: its sealed refinement, or its `analytic` score when a
    /// deadline downgraded it; `None` when it still has to be refined.
    fn settled(
        &mut self,
        _index: usize,
        _analytic: FitOutcome,
    ) -> Result<Option<FitOutcome>, Self::Error> {
        Ok(None)
    }

    /// Seals the refined outcome of shortlist slot `index`.
    fn seal_refined(&mut self, _index: usize, _outcome: FitOutcome) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The plain fit's checkpoint: no fingerprint, no replay, no
/// serialization and no `fit.journal.*` counters.
struct NoJournal;

impl Checkpoint for NoJournal {
    type Error = Infallible;
}

/// The one APP-CLUSTERING fit behind both public entry points:
///
/// 1. build the grid;
/// 2. run the coarse pass when [`FitSpec::coarse_plan`] calls for it;
/// 3. screen every target (coarse survivor, or the whole grid) that the
///    checkpoint holds no record of, in one chunked fan-out;
/// 4. feed the screened targets to the [`ShortlistBuilder`] in grid
///    order;
/// 5. Monte-Carlo refine every shortlist slot the checkpoint has not
///    settled, in one fan-out, and keep the first minimum.
///
/// Refinement seeds are keyed by shortlist index, so a resumed slot
/// draws exactly the streams an uninterrupted run would.
fn fit_clustering_with<C: Checkpoint>(
    observed: &[u64],
    spec: &FitSpec,
    seed: Seed,
    checkpoint: &mut C,
) -> Result<Option<FitOutcome>, C::Error> {
    if observed.is_empty() {
        return Ok(None);
    }
    let grid = clustering_grid(spec);
    if grid.is_empty() {
        return Ok(None);
    }
    checkpoint.open(observed, spec, seed, grid.len())?;
    appstore_obs::counter(
        appstore_obs::names::FIT_CLUSTERING_GRID_CANDIDATES,
        grid.len() as u64,
    );
    let plan = spec.coarse_plan(grid.len());
    let unsealed = |i: &usize| checkpoint.screened(*i).is_none();
    let screen = || {
        let selection = plan.map(|(sample, keep_global, keep_per_uf)| {
            kernel::coarse_select(observed, spec, &grid, sample, keep_global, keep_per_uf)
        });
        let (targets, feasible) = match selection {
            Some(sel) => (sel.survivors, Some(sel.feasible)),
            None => ((0..grid.len()).collect(), None),
        };
        let missing: Vec<usize> = targets.iter().copied().filter(unsealed).collect();
        let fresh = screen_chunks(observed, spec, &grid, &missing);
        if let Some(feasible) = feasible {
            appstore_obs::counter(
                appstore_obs::names::FIT_COARSE_SURVIVORS,
                targets.len() as u64,
            );
            appstore_obs::counter(
                appstore_obs::names::FIT_COARSE_PRUNED,
                feasible - targets.len() as u64,
            );
        }
        (targets, feasible, fresh)
    };
    // Only a resumed fit whose journal holds the whole grid, with no
    // coarse pass to run, has nothing to screen.
    let (targets, feasible, fresh) = if plan.is_some() || (0..grid.len()).any(|i| unsealed(&i)) {
        appstore_obs::span(appstore_obs::names::SPAN_FIT_SCREEN, screen)
    } else {
        ((0..grid.len()).collect(), None, Vec::new())
    };
    // Seal in grid order, so a kill mid-seal loses only unsealed work.
    for &(i, result) in &fresh {
        checkpoint.seal_screened(i, result)?;
    }
    // `fresh` holds the unsealed targets in grid order, so the shortlist
    // reads every target's result in grid order too.
    let mut fresh = fresh.into_iter().map(|(_, result)| result);
    let mut builder = ShortlistBuilder::new(spec.refine_top.max(1), &spec.user_fractions);
    let mut screened_count = 0u64;
    for i in targets {
        if let Some((uf, outcome)) = checkpoint.screened(i).or_else(|| fresh.next()).flatten() {
            screened_count += 1;
            builder.add(uf, outcome);
        }
    }
    // The screened/pruned tallies always describe the *full* grid's
    // feasibility, so their values match the exhaustive path whatever
    // the coarse mode.
    let screened_count = feasible.unwrap_or(screened_count);
    appstore_obs::counter(appstore_obs::names::FIT_CLUSTERING_SCREENED, screened_count);
    appstore_obs::counter(
        appstore_obs::names::FIT_CLUSTERING_PRUNED,
        grid.len() as u64 - screened_count,
    );
    if builder.is_empty() {
        return Ok(None);
    }
    if spec.refine_top == 0 {
        return Ok(builder.best_screened());
    }
    let shortlist = builder.shortlist();
    appstore_obs::counter(
        appstore_obs::names::FIT_CLUSTERING_REFINED,
        shortlist.len() as u64,
    );
    appstore_obs::span(
        appstore_obs::names::SPAN_FIT_REFINE,
        || -> Result<Option<FitOutcome>, C::Error> {
            let mut settled = Vec::with_capacity(shortlist.len());
            let mut pending = Vec::new();
            for (i, &analytic) in shortlist.iter().enumerate() {
                let outcome = checkpoint.settled(i, analytic)?;
                if outcome.is_none() {
                    pending.push((i, analytic));
                }
                settled.push(outcome);
            }
            let refined = par_map_indexed(
                pending,
                spec.worker_count(),
                |_, (i, outcome): (usize, FitOutcome)| {
                    let seed = seed.child_indexed("clustering-refine", i as u64);
                    (
                        i,
                        refine_clustering_candidate(observed, spec, outcome, seed),
                    )
                },
            );
            for (i, outcome) in refined {
                checkpoint.seal_refined(i, outcome)?;
                settled[i] = Some(outcome);
            }
            Ok(settled
                .into_iter()
                .flatten()
                .min_by(|a, b| a.distance.total_cmp(&b.distance)))
        },
    )
}

/// Screens the grid candidates at `targets` (ascending grid indices) in
/// contiguous chunks, one per worker, each with its own
/// [`ScreeningCache`]: the grid revisits the same few exponents
/// thousands of times, so each chunk builds every distinct Zipf table
/// once. Results come back in target order, so the shortlist cannot
/// depend on the thread count, even under exact distance ties.
fn screen_chunks(
    observed: &[u64],
    spec: &FitSpec,
    grid: &[GridCandidate],
    targets: &[usize],
) -> Vec<(usize, Option<Screened>)> {
    let workers = spec.worker_count().min(targets.len()).max(1);
    let chunk_len = targets.len().div_ceil(workers).max(1);
    let chunks: Vec<Vec<usize>> = targets.chunks(chunk_len).map(<[_]>::to_vec).collect();
    par_map_indexed(chunks, workers, |_, chunk: Vec<usize>| {
        let mut cache = ScreeningCache::new();
        let mut scratch = ScreenScratch::default();
        let scored: Vec<(usize, Option<Screened>)> = chunk
            .into_iter()
            .map(|i| {
                let result = screen_candidate(observed, spec, &mut cache, &mut scratch, grid[i]);
                (i, result)
            })
            .collect();
        cache.flush_metrics();
        scored
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Materializes the APP-CLUSTERING candidate grid in its canonical
/// order: `z_r` outermost, then `z_c`, `p`, and user-fraction. The
/// screen, the coarse pass and journal replay must agree on this order,
/// because journal records address candidates by their grid index (and
/// the coarse pass recovers axis indices from it arithmetically).
pub(crate) type GridCandidate = (f64, f64, f64, f64);

fn clustering_grid(spec: &FitSpec) -> Vec<GridCandidate> {
    let mut grid: Vec<GridCandidate> = Vec::new();
    for &z_r in &spec.zipf_exponents {
        for &z_c in &spec.cluster_exponents {
            for &p in &spec.ps {
                for &uf in &spec.user_fractions {
                    grid.push((z_r, z_c, p, uf));
                }
            }
        }
    }
    grid
}

/// The validated [`ClusteringParams`] of one grid candidate; `None`
/// when the candidate is infeasible. Both the exact screen and the
/// coarse pass run exactly this check, so they agree candidate by
/// candidate on feasibility.
pub(crate) fn candidate_params(
    observed: &[u64],
    spec: &FitSpec,
    (z_r, z_c, p, uf): GridCandidate,
) -> Option<ClusteringParams> {
    let population = derive_population(observed, z_r, uf)?;
    let params = ClusteringParams {
        population,
        clusters: spec.clusters,
        p,
        cluster_exponent: z_c,
        layout: ClusterLayout::Interleaved,
    };
    params.validate().ok()?;
    Some(params)
}

/// Analytically screens one APP-CLUSTERING candidate; `None` when the
/// candidate is infeasible (pruned before scoring).
fn screen_candidate(
    observed: &[u64],
    spec: &FitSpec,
    cache: &mut ScreeningCache,
    scratch: &mut ScreenScratch,
    candidate: GridCandidate,
) -> Option<(f64, FitOutcome)> {
    let (z_r, z_c, p, uf) = candidate;
    let params = candidate_params(observed, spec, candidate)?;
    cache.expected_clustering_weighted_into(&params, &mut scratch.expected);
    let distance = score_into(observed, &scratch.expected, &mut scratch.ranked);
    let outcome = FitOutcome {
        kind: ModelKind::AppClustering,
        zipf_exponent: z_r,
        cluster_exponent: z_c,
        p,
        users: params.population.users,
        downloads_per_user: params.population.downloads_per_user,
        distance,
    };
    appstore_obs::instant(appstore_obs::names::INSTANT_FIT_CANDIDATE_SCREENED);
    Some((uf, outcome))
}

/// Monte-Carlo re-scores one shortlisted candidate under its
/// shortlist-index-derived seed (`score_simulated` on one worker, so the
/// outer refinement parallelism owns the fan-out).
fn refine_clustering_candidate(
    observed: &[u64],
    spec: &FitSpec,
    mut outcome: FitOutcome,
    seed: Seed,
) -> FitOutcome {
    let params = clustering_params(&outcome, observed.len(), spec.clusters);
    let sim = Simulator::app_clustering(params);
    outcome.distance = score_simulated(observed, &sim, spec.replications, seed, 1);
    appstore_obs::instant(appstore_obs::names::INSTANT_FIT_CANDIDATE_REFINED);
    outcome
}

/// Fig. 10: for fixed `(z_r, z_c, p)` taken from `fit`, sweep the user
/// count over `fractions` of the most popular app's downloads and return
/// `(fraction, simulated distance)` pairs.
///
/// Each fraction simulates on its own worker (up to `threads`; 0 ⇒ one
/// per CPU) under a seed fixed by its position in `fractions`, so the
/// sweep is bit-identical for every thread count.
pub fn user_count_sweep(
    observed: &[u64],
    fit: &FitOutcome,
    clusters: usize,
    fractions: &[f64],
    replications: u32,
    seed: Seed,
    threads: usize,
) -> Vec<(f64, f64)> {
    par_map_indexed(fractions.to_vec(), threads, |i, uf: f64| {
        let population = derive_population(observed, fit.zipf_exponent, uf)?;
        let params = ClusteringParams {
            population,
            clusters,
            p: fit.p,
            cluster_exponent: fit.cluster_exponent,
            layout: ClusterLayout::Interleaved,
        };
        params.validate().ok()?;
        let sim = Simulator::app_clustering(params);
        let distance = score_simulated(
            observed,
            &sim,
            replications,
            seed.child_indexed("user-sweep", i as u64),
            1,
        );
        Some((uf, distance))
    })
    .into_iter()
    .flatten()
    .collect()
}

// ---------------------------------------------------------------------------
// Checkpointed fitting (resumable grid search)
// ---------------------------------------------------------------------------

/// Fault-injection site: each sealed append to a fit journal. The
/// `index` coordinate is the record's logical index — the candidate's
/// grid index for screening records, `grid_len + shortlist_index` for
/// refinement records, `u64::MAX` for the header — so a fault plan can
/// kill or corrupt the fit at an exact, replayable point.
pub const SITE_FIT_JOURNAL_APPEND: &str = "fit.journal.append";

/// Fault-injection site: per-candidate Monte-Carlo refinement latency.
/// A [`FaultKind::Delay`] fired here (indexed by shortlist position)
/// counts against the [`CandidateBudget`] deadline.
pub const SITE_FIT_REFINE: &str = "fit.refine";

/// Errors from a checkpointed fit. Screening and refinement themselves
/// are pure computation; only the journal can fail.
#[derive(Debug)]
pub enum FitError {
    /// The fit journal could not be appended (I/O failure, torn write).
    Journal {
        /// Human-readable cause.
        detail: String,
    },
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::Journal { detail } => write!(f, "fit journal append failed: {detail}"),
        }
    }
}

impl std::error::Error for FitError {}

/// Per-candidate resource budget for the refinement stage.
///
/// A refinement candidate whose injected latency
/// ([`FaultKind::Delay`] at [`SITE_FIT_REFINE`]) exceeds the deadline is
/// **downgraded**: its analytic (screened) distance is kept, a
/// `Downgraded` record is journaled, a WARN goes to stderr and
/// `fit.refine.deadline_downgrades` is counted — the fit completes
/// instead of stalling on one pathological candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateBudget {
    /// Maximum virtual milliseconds one refinement candidate may take;
    /// `None` = unlimited.
    pub refine_deadline_virtual_ms: Option<u64>,
}

impl CandidateBudget {
    /// No deadline: every candidate refines to completion.
    pub const UNLIMITED: CandidateBudget = CandidateBudget {
        refine_deadline_virtual_ms: None,
    };

    /// A budget with the given per-candidate virtual-time deadline.
    pub fn with_refine_deadline(virtual_ms: u64) -> CandidateBudget {
        CandidateBudget {
            refine_deadline_virtual_ms: Some(virtual_ms),
        }
    }
}

/// A [`FitOutcome`] with every float stored as IEEE bits: `serde_json`
/// cannot round-trip `inf` (a legal screening distance), and resume
/// convergence must be *byte*-identical, so journal records never go
/// through decimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct JournalOutcome {
    kind: ModelKind,
    zipf_exponent: u64,
    cluster_exponent: u64,
    p: u64,
    users: usize,
    downloads_per_user: u32,
    distance: u64,
}

impl From<FitOutcome> for JournalOutcome {
    fn from(o: FitOutcome) -> JournalOutcome {
        JournalOutcome {
            kind: o.kind,
            zipf_exponent: o.zipf_exponent.to_bits(),
            cluster_exponent: o.cluster_exponent.to_bits(),
            p: o.p.to_bits(),
            users: o.users,
            downloads_per_user: o.downloads_per_user,
            distance: o.distance.to_bits(),
        }
    }
}

impl From<JournalOutcome> for FitOutcome {
    fn from(o: JournalOutcome) -> FitOutcome {
        FitOutcome {
            kind: o.kind,
            zipf_exponent: f64::from_bits(o.zipf_exponent),
            cluster_exponent: f64::from_bits(o.cluster_exponent),
            p: f64::from_bits(o.p),
            users: o.users,
            downloads_per_user: o.downloads_per_user,
            distance: f64::from_bits(o.distance),
        }
    }
}

/// One sealed line of a fit journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum FitRecord {
    /// Identifies the fit (curve + grid + seed); must come first. A
    /// journal whose fingerprint disagrees with the requested fit is
    /// discarded, never merged.
    Header {
        /// Fingerprint of `(observed, spec, seed)`.
        fingerprint: u64,
    },
    /// One screened grid candidate; `None` = pruned as infeasible.
    /// `uf` is the candidate's user-fraction as IEEE bits.
    Screened {
        /// Grid index of the candidate.
        index: u64,
        /// `(uf_bits, outcome)`, or `None` for a pruned candidate.
        outcome: Option<(u64, JournalOutcome)>,
    },
    /// One Monte-Carlo-refined shortlist candidate.
    Refined {
        /// Shortlist index of the candidate.
        index: u64,
        /// The refined outcome.
        outcome: JournalOutcome,
    },
    /// A shortlist candidate downgraded to its screened-only score by
    /// the [`CandidateBudget`] deadline.
    Downgraded {
        /// Shortlist index of the candidate.
        index: u64,
    },
}

/// FNV-1a, folding 8 bytes per step — cheap and stable across runs.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fingerprints one fit request. Everything that changes the answer is
/// mixed in — the measured curve, the full grid, the refinement knobs,
/// the coarse plan when one runs, and a value derived from the seed — so
/// a journal can only resume the exact fit that started it.
fn fit_fingerprint(observed: &[u64], spec: &FitSpec, seed: Seed, grid_len: usize) -> u64 {
    let mut fp = Fingerprint::new();
    fp.mix(seed.child("fit-journal-fingerprint").rng().gen::<u64>());
    fp.mix(observed.len() as u64);
    for &v in observed {
        fp.mix(v);
    }
    for axis in [
        &spec.zipf_exponents,
        &spec.cluster_exponents,
        &spec.ps,
        &spec.user_fractions,
    ] {
        fp.mix(axis.len() as u64);
        for &v in axis {
            fp.mix(v.to_bits());
        }
    }
    fp.mix(spec.clusters as u64);
    fp.mix(spec.refine_top as u64);
    fp.mix(u64::from(spec.replications));
    // The survivors decide which candidates reach the shortlist, whose
    // slots key the refinement records.
    if let Some((sample, keep_global, keep_per_uf)) = spec.coarse_plan(grid_len) {
        for v in [sample, keep_global, keep_per_uf] {
            fp.mix(v as u64);
        }
    }
    fp.0
}

/// What a fit journal replays to. Damaged lines are quarantined (counted,
/// never trusted); duplicate indices keep their first record, mirroring
/// the crawl journal's replay discipline.
#[derive(Default)]
struct FitReplay {
    header: Option<u64>,
    screened: BTreeMap<u64, Option<Screened>>,
    refined: BTreeMap<u64, FitOutcome>,
    downgraded: BTreeSet<u64>,
    quarantined: u64,
}

fn replay_fit_journal(journal: &[u8]) -> FitReplay {
    let mut replay = FitReplay::default();
    // Reading a byte slice cannot fail, so no line is lost here.
    for (line, _) in LossyLines::new(journal).map_while(Result::ok) {
        if line.is_empty() {
            continue;
        }
        let Some(record) = unseal(&line).and_then(|p| serde_json::from_str::<FitRecord>(p).ok())
        else {
            replay.quarantined += 1;
            continue;
        };
        match record {
            FitRecord::Header { fingerprint } => {
                if replay.header.is_none() {
                    replay.header = Some(fingerprint);
                }
            }
            FitRecord::Screened { index, outcome } => {
                replay.screened.entry(index).or_insert_with(|| {
                    outcome.map(|(uf, o)| (f64::from_bits(uf), FitOutcome::from(o)))
                });
            }
            FitRecord::Refined { index, outcome } => {
                replay
                    .refined
                    .entry(index)
                    .or_insert_with(|| outcome.into());
            }
            FitRecord::Downgraded { index } => {
                replay.downgraded.insert(index);
            }
        }
    }
    replay
}

/// Seals one record onto the journal, consulting the fault injector at
/// [`SITE_FIT_JOURNAL_APPEND`] — where an injected `IoError` kills the
/// fit, a `PartialWrite` tears the line mid-byte, and a `Corrupt`
/// flips a seal digit so replay quarantines the line.
fn append_fit_record(
    journal: &mut Vec<u8>,
    record: &FitRecord,
    logical_index: u64,
) -> Result<(), FitError> {
    let payload = serde_json::to_string(record).map_err(|e| FitError::Journal {
        detail: e.to_string(),
    })?;
    let line = seal(&payload);
    match faults::roll(SITE_FIT_JOURNAL_APPEND, logical_index, 0) {
        Some(FaultKind::IoError) => {
            return Err(FitError::Journal {
                detail: format!("injected I/O error at journal index {logical_index}"),
            });
        }
        Some(FaultKind::PartialWrite) => {
            // Half the line reaches the journal, no newline: the torn
            // tail is quarantined on replay and resealed by the resume.
            let half = line.len() / 2;
            journal.extend_from_slice(&line.as_bytes()[..half]);
            return Err(FitError::Journal {
                detail: format!("injected torn write at journal index {logical_index}"),
            });
        }
        Some(FaultKind::Corrupt) => {
            // Silent corruption: alter one seal digit and keep going.
            // The in-memory value stays good; only a later resume sees
            // (and quarantines) the damage.
            let mut bytes = line.into_bytes();
            bytes[0] = if bytes[0] == b'f' { b'0' } else { b'f' };
            journal.extend_from_slice(&bytes);
            journal.push(b'\n');
        }
        _ => {
            journal.extend_from_slice(line.as_bytes());
            journal.push(b'\n');
        }
    }
    appstore_obs::counter(appstore_obs::names::FIT_JOURNAL_APPENDS, 1);
    Ok(())
}

/// [`fit_clustering`] with a checkpoint journal: every screened grid
/// candidate (each coarse survivor, when the coarse pass runs) and every
/// refined shortlist candidate is sealed into `journal` (CRC32 lines,
/// same format as the crawl journal) as it completes, so an interrupted
/// fit — crash, injected I/O fault, torn write — resumes from the last
/// sealed candidate instead of restarting the multi-minute grid from
/// zero. Both entry points run the same pipeline; only the journal is
/// extra.
///
/// Guarantees:
///
/// - **Byte-identical convergence.** With the same `(observed, spec,
///   seed)`, any interleaving of kills and resumes produces the exact
///   winner (bit-for-bit, including the distance) of an uninterrupted
///   [`fit_clustering`] run — journal floats travel as IEEE bits and
///   replayed candidates keep their original shortlist seeds.
/// - **Corruption is quarantined.** Damaged journal lines are counted
///   (`fit.journal.lines_quarantined`) and their candidates recomputed;
///   a journal whose header fingerprint disagrees with the requested
///   fit is discarded entirely.
/// - **Deadlines degrade, not fail.** See [`CandidateBudget`].
///
/// `Err` means the journal itself could not be appended (the in-memory
/// journal keeps every line sealed before the failure, so a retry
/// resumes); `Ok(None)` mirrors [`fit_clustering`]'s degenerate cases.
pub fn fit_clustering_checkpointed(
    observed: &[u64],
    spec: &FitSpec,
    seed: Seed,
    budget: CandidateBudget,
    journal: &mut Vec<u8>,
) -> Result<Option<FitOutcome>, FitError> {
    let mut journal = Journal {
        lines: journal,
        budget,
        replay: FitReplay::default(),
        grid_len: 0,
    };
    fit_clustering_with(observed, spec, seed, &mut journal)
}

/// The checkpointed fit's side of the [`Checkpoint`] seam: the caller's
/// journal, what it replayed to, and the refinement deadline.
struct Journal<'a> {
    lines: &'a mut Vec<u8>,
    budget: CandidateBudget,
    replay: FitReplay,
    /// Refinement records follow the grid in the logical index space.
    grid_len: u64,
}

impl Checkpoint for Journal<'_> {
    type Error = FitError;

    fn open(
        &mut self,
        observed: &[u64],
        spec: &FitSpec,
        seed: Seed,
        grid_len: usize,
    ) -> Result<(), FitError> {
        heal_torn_tail(self.lines);
        let fingerprint = fit_fingerprint(observed, spec, seed, grid_len);
        self.replay = replay_fit_journal(self.lines);
        appstore_obs::counter(
            appstore_obs::names::FIT_JOURNAL_LINES_QUARANTINED,
            self.replay.quarantined,
        );
        if self.replay.header != Some(fingerprint) {
            // Foreign or headerless journal: this is a different fit (or
            // nothing useful survived). Start over.
            self.lines.clear();
            self.replay = FitReplay::default();
            append_fit_record(self.lines, &FitRecord::Header { fingerprint }, u64::MAX)?;
        }
        let replay = &self.replay;
        let resumed =
            (replay.screened.len() + replay.refined.len() + replay.downgraded.len()) as u64;
        appstore_obs::counter(appstore_obs::names::FIT_JOURNAL_CANDIDATES_RESUMED, resumed);
        self.grid_len = grid_len as u64;
        Ok(())
    }

    fn screened(&self, index: usize) -> Option<Option<Screened>> {
        self.replay.screened.get(&(index as u64)).copied()
    }

    fn seal_screened(&mut self, index: usize, result: Option<Screened>) -> Result<(), FitError> {
        let index = index as u64;
        let record = FitRecord::Screened {
            index,
            outcome: result.map(|(uf, o)| (uf.to_bits(), JournalOutcome::from(o))),
        };
        append_fit_record(self.lines, &record, index)
    }

    fn settled(
        &mut self,
        index: usize,
        analytic: FitOutcome,
    ) -> Result<Option<FitOutcome>, FitError> {
        let index = index as u64;
        if self.replay.downgraded.contains(&index) {
            return Ok(Some(analytic));
        }
        if let Some(&refined) = self.replay.refined.get(&index) {
            return Ok(Some(refined));
        }
        let Some(over) = refine_deadline_exceeded(index, self.budget) else {
            return Ok(None);
        };
        eprintln!(
            "WARN: fit candidate {index} exceeded its refinement deadline \
             ({over} ms of virtual latency); downgraded to screened-only score"
        );
        appstore_obs::counter(appstore_obs::names::FIT_REFINE_DEADLINE_DOWNGRADES, 1);
        let record = FitRecord::Downgraded { index };
        append_fit_record(self.lines, &record, self.grid_len + index)?;
        Ok(Some(analytic))
    }

    fn seal_refined(&mut self, index: usize, outcome: FitOutcome) -> Result<(), FitError> {
        let index = index as u64;
        let record = FitRecord::Refined {
            index,
            outcome: JournalOutcome::from(outcome),
        };
        append_fit_record(self.lines, &record, self.grid_len + index)
    }
}

/// How far over the [`CandidateBudget`] deadline the injected latency of
/// shortlist candidate `index` lands; `None` when it fits the budget (or
/// no deadline / no delay fault applies).
fn refine_deadline_exceeded(index: u64, budget: CandidateBudget) -> Option<u64> {
    let deadline = budget.refine_deadline_virtual_ms?;
    match faults::roll(SITE_FIT_REFINE, index, 0) {
        Some(FaultKind::Delay { virtual_ms }) if virtual_ms > deadline => Some(virtual_ms),
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::expectation::expected_downloads_zipf;
    use appstore_core::Seed;

    /// A measured curve generated by the clustering model itself.
    fn synthetic_observed() -> Vec<u64> {
        let params = ClusteringParams {
            population: PopulationParams {
                apps: 400,
                users: 3000,
                downloads_per_user: 8,
                zipf_exponent: 1.2,
            },
            clusters: 20,
            p: 0.9,
            cluster_exponent: 1.8,
            layout: ClusterLayout::Interleaved,
        };
        let mut counts = Simulator::app_clustering(params).simulate_counts(Seed::new(5));
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    fn small_spec() -> FitSpec {
        FitSpec {
            zipf_exponents: vec![1.0, 1.2, 1.4, 1.6],
            cluster_exponents: vec![1.0, 1.4, 1.8],
            ps: vec![0.0, 0.5, 0.9],
            user_fractions: vec![0.5, 1.0, 2.0],
            clusters: 20,
            threads: 2,
            refine_top: 6,
            replications: 1,
            coarse: CoarseMode::Auto,
        }
    }

    #[test]
    #[ignore = "diagnostic: prints coarse-rank coverage of the exact top candidates (used to calibrate survivor bands)"]
    fn coarse_rank_coverage_diagnostic() {
        let params = ClusteringParams {
            population: PopulationParams {
                apps: 250,
                users: 2000,
                downloads_per_user: 5,
                zipf_exponent: 1.3,
            },
            clusters: 10,
            p: 0.9,
            cluster_exponent: 1.5,
            layout: ClusterLayout::Interleaved,
        };
        let mut observed = Simulator::app_clustering(params).simulate_counts(Seed::new(11));
        observed.sort_unstable_by(|a, b| b.cmp(a));
        let mut spec = FitSpec::standard(10);
        spec.threads = 2;
        spec.replications = 1;
        spec.coarse = CoarseMode::Off;
        let grid = clustering_grid(&spec);
        let mut cache = ScreeningCache::new();
        let mut scratch = ScreenScratch::default();
        // Exact screening distances for the full grid.
        let mut exact: Vec<(f64, usize)> = Vec::new();
        for (i, &candidate) in grid.iter().enumerate() {
            if let Some((_, outcome)) =
                screen_candidate(&observed, &spec, &mut cache, &mut scratch, candidate)
            {
                exact.push((outcome.distance, i));
            }
        }
        exact.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Coarse scores for the full grid.
        let mut screener = kernel::CoarseScreener::new(&observed, &spec, 128);
        let len_uf = spec.user_fractions.len();
        let len_p = spec.ps.len();
        let len_zc = spec.cluster_exponents.len();
        let mut coarse: Vec<(f64, usize)> = Vec::new();
        let mut expected = Vec::new();
        for (i, &candidate) in grid.iter().enumerate() {
            let Some(params) = candidate_params(&observed, &spec, candidate) else {
                continue;
            };
            let zr = i / (len_zc * len_p * len_uf);
            let zc = (i / (len_p * len_uf)) % len_zc;
            let d = screener.score(
                zr,
                zc,
                params.p,
                params.population.users,
                params.population.downloads_per_user,
                &mut expected,
            );
            coarse.push((d, i));
        }
        coarse.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let coarse_rank: std::collections::HashMap<usize, usize> = coarse
            .iter()
            .enumerate()
            .map(|(rank, &(_, i))| (i, rank))
            .collect();
        println!("grid {} feasible {}", grid.len(), exact.len());
        println!(
            "coarse best {:.5} p50 {:.5} p90 {:.5}",
            coarse[0].0,
            coarse[coarse.len() / 2].0,
            coarse[coarse.len() * 9 / 10].0
        );
        let coarse_score: std::collections::HashMap<usize, f64> =
            coarse.iter().map(|&(s, i)| (i, s)).collect();
        for (k, &(dist, i)) in exact.iter().take(16).enumerate() {
            let (z_r, z_c, p, uf) = grid[i];
            println!(
                "exact #{k:2} dist {dist:.5} grid {i:4} (zr {z_r:.1} zc {z_c:.1} p {p:.2} uf {uf}) -> coarse rank {} score {:.5} (x{:.3} of best)",
                coarse_rank[&i],
                coarse_score[&i],
                coarse_score[&i] / coarse[0].0
            );
        }
        // Worst coarse rank among per-uf exact bests.
        for uf_col in 0..len_uf {
            let best = exact.iter().find(|&&(_, i)| i % len_uf == uf_col);
            if let Some(&(dist, i)) = best {
                // Rank within the coarse uf column.
                let col_rank = coarse
                    .iter()
                    .filter(|&&(_, j)| j % len_uf == uf_col)
                    .position(|&(_, j)| j == i);
                println!(
                    "uf col {uf_col} exact best dist {dist:.5} grid {i:4} -> coarse global rank {} col rank {:?}",
                    coarse_rank[&i], col_rank
                );
            }
        }
    }

    #[test]
    fn clustering_fits_its_own_output_best() {
        let observed = synthetic_observed();
        let spec = small_spec();
        let seed = Seed::new(42);
        let zipf = fit_zipf(&observed, &spec).unwrap();
        let amo = fit_zipf_amo(&observed, &spec, seed).unwrap();
        let clustering = fit_clustering(&observed, &spec, seed).unwrap();
        assert!(
            clustering.distance < amo.distance,
            "clustering {} !< amo {}",
            clustering.distance,
            amo.distance
        );
        assert!(
            clustering.distance < zipf.distance,
            "clustering {} !< zipf {}",
            clustering.distance,
            zipf.distance
        );
        // A high clustering probability must be recovered.
        assert!(clustering.p >= 0.5, "recovered p = {}", clustering.p);
    }

    #[test]
    fn zipf_fit_recovers_exponent_on_pure_zipf_data() {
        // Expected ZIPF(1.2) counts over 300 ranks.
        let params = PopulationParams {
            apps: 300,
            users: 1,
            downloads_per_user: 1,
            zipf_exponent: 1.2,
        };
        let expected: Vec<f64> = expected_downloads_zipf(&params)
            .into_iter()
            .map(|e| e * 100_000.0)
            .collect();
        let observed = super::to_ranked(expected);
        let fit = fit_zipf(&observed, &small_spec()).unwrap();
        assert_eq!(fit.zipf_exponent, 1.2);
        assert!(fit.distance < 0.05, "distance {}", fit.distance);
    }

    #[test]
    fn degenerate_inputs_give_none() {
        let spec = small_spec();
        let seed = Seed::new(0);
        assert!(fit_zipf(&[], &spec).is_none());
        assert!(fit_zipf(&[0, 0], &spec).is_none());
        assert!(fit_zipf_amo(&[0, 0, 0], &spec, seed).is_none());
        assert!(fit_clustering(&[], &spec, seed).is_none());
        let empty = FitSpec {
            zipf_exponents: vec![],
            ..spec
        };
        assert!(fit_clustering(&[5, 3, 1], &empty, seed).is_none());
    }

    #[test]
    fn user_sweep_minimum_near_top_app_downloads() {
        let observed = synthetic_observed();
        let spec = small_spec();
        let seed = Seed::new(9);
        let best = fit_clustering(&observed, &spec, seed).unwrap();
        let fractions = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0];
        let sweep = user_count_sweep(&observed, &best, 20, &fractions, 1, seed, 2);
        assert_eq!(sweep.len(), fractions.len());
        let (best_frac, _) = sweep
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        // The generator's top app approaches the fetch-at-most-once
        // ceiling, so the sweep's minimum must sit at a small multiple of
        // the top app's downloads (paper: "very close" to 1).
        assert!(
            (0.25..=5.0).contains(&best_frac),
            "minimum at fraction {best_frac}"
        );
    }

    #[test]
    fn analytic_screening_is_deterministic_across_thread_counts() {
        let observed = synthetic_observed();
        let mut spec = small_spec();
        spec.refine_top = 0; // analytic only
        spec.threads = 1;
        let serial = fit_clustering(&observed, &spec, Seed::new(1)).unwrap();
        spec.threads = 4;
        let parallel = fit_clustering(&observed, &spec, Seed::new(1)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn full_fit_is_deterministic_across_thread_counts() {
        // Screening *and* Monte-Carlo refinement: the complete pipeline
        // must produce one bit-identical winner for any thread count.
        let observed = synthetic_observed();
        let mut spec = small_spec();
        let mut outcomes = Vec::new();
        for threads in [1, 2, 5] {
            spec.threads = threads;
            outcomes.push(fit_clustering(&observed, &spec, Seed::new(21)).unwrap());
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcomes[2]);
    }

    #[test]
    fn user_sweep_is_deterministic_across_thread_counts() {
        let observed = synthetic_observed();
        let fit = FitOutcome {
            kind: ModelKind::AppClustering,
            zipf_exponent: 1.2,
            cluster_exponent: 1.8,
            p: 0.9,
            users: 3000,
            downloads_per_user: 8,
            distance: 0.0,
        };
        let fractions = [0.5, 1.0, 2.0, 4.0];
        let serial = user_count_sweep(&observed, &fit, 20, &fractions, 2, Seed::new(8), 1);
        let parallel = user_count_sweep(&observed, &fit, 20, &fractions, 2, Seed::new(8), 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn simulated_scores_are_thread_count_invariant() {
        // Per-replication parallelism inside one score: rep seeds are
        // index-derived and merged in rep order.
        let observed = synthetic_observed();
        let params = PopulationParams {
            apps: observed.len(),
            users: 3000,
            downloads_per_user: 8,
            zipf_exponent: 1.2,
        };
        let sim = Simulator::zipf_at_most_once(params);
        let serial = score_simulated(&observed, &sim, 4, Seed::new(33), 1);
        let parallel = score_simulated(&observed, &sim, 4, Seed::new(33), 3);
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn refinement_is_deterministic_per_seed() {
        let observed = synthetic_observed();
        let spec = small_spec();
        let a = fit_clustering(&observed, &spec, Seed::new(3)).unwrap();
        let b = fit_clustering(&observed, &spec, Seed::new(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn push_top_keeps_k_smallest() {
        let mut top = Vec::new();
        for (i, d) in [0.5, 0.1, 0.9, 0.3, 0.2].into_iter().enumerate() {
            push_top(
                &mut top,
                3,
                FitOutcome {
                    kind: ModelKind::Zipf,
                    zipf_exponent: i as f64,
                    cluster_exponent: 0.0,
                    p: 0.0,
                    users: 0,
                    downloads_per_user: 0,
                    distance: d,
                },
            );
        }
        let distances: Vec<f64> = top.iter().map(|o| o.distance).collect();
        assert_eq!(distances, vec![0.1, 0.2, 0.3]);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod checkpoint_tests {
    use super::*;
    use appstore_core::faults::{with_injector, FaultInjector, FaultPlan, FaultTrigger};
    use appstore_core::Seed;

    fn observed() -> Vec<u64> {
        let params = ClusteringParams {
            population: PopulationParams {
                apps: 400,
                users: 3000,
                downloads_per_user: 8,
                zipf_exponent: 1.2,
            },
            clusters: 20,
            p: 0.9,
            cluster_exponent: 1.8,
            layout: ClusterLayout::Interleaved,
        };
        let mut counts = Simulator::app_clustering(params).simulate_counts(Seed::new(5));
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    fn spec() -> FitSpec {
        FitSpec {
            zipf_exponents: vec![1.0, 1.2, 1.4, 1.6],
            cluster_exponents: vec![1.0, 1.4, 1.8],
            ps: vec![0.0, 0.5, 0.9],
            user_fractions: vec![0.5, 1.0, 2.0],
            clusters: 20,
            threads: 2,
            refine_top: 6,
            replications: 1,
            coarse: CoarseMode::Auto,
        }
    }

    #[test]
    fn empty_journal_matches_uncheckpointed_fit() {
        let observed = observed();
        let spec = spec();
        let reference = fit_clustering(&observed, &spec, Seed::new(42)).unwrap();
        let mut journal = Vec::new();
        let checkpointed = fit_clustering_checkpointed(
            &observed,
            &spec,
            Seed::new(42),
            CandidateBudget::UNLIMITED,
            &mut journal,
        )
        .unwrap()
        .unwrap();
        assert_eq!(reference, checkpointed);
        assert_eq!(
            reference.distance.to_bits(),
            checkpointed.distance.to_bits()
        );
        assert!(!journal.is_empty());
    }

    #[test]
    fn io_kill_mid_screen_resumes_byte_identically() {
        let observed = observed();
        let spec = spec();
        let reference = fit_clustering(&observed, &spec, Seed::new(7)).unwrap();
        let mut journal = Vec::new();
        // Kill at the 41st screening seal; everything sealed before it
        // survives in the journal.
        let plan = FaultPlan::seeded(1).rule(
            SITE_FIT_JOURNAL_APPEND,
            FaultKind::IoError,
            FaultTrigger::AtIndex(40),
        );
        let injector = FaultInjector::new(plan);
        let killed = with_injector(&injector, || {
            fit_clustering_checkpointed(
                &observed,
                &spec,
                Seed::new(7),
                CandidateBudget::UNLIMITED,
                &mut journal,
            )
        });
        assert!(killed.is_err(), "injected I/O error must surface");
        assert!(!journal.is_empty(), "sealed prefix must survive the kill");
        let resumed = fit_clustering_checkpointed(
            &observed,
            &spec,
            Seed::new(7),
            CandidateBudget::UNLIMITED,
            &mut journal,
        )
        .unwrap()
        .unwrap();
        assert_eq!(reference, resumed);
        assert_eq!(reference.distance.to_bits(), resumed.distance.to_bits());
    }

    #[test]
    fn torn_write_in_refine_resumes_byte_identically() {
        let observed = observed();
        let spec = spec();
        let reference = fit_clustering(&observed, &spec, Seed::new(19)).unwrap();
        let grid_len = clustering_grid(&spec).len() as u64;
        let mut journal = Vec::new();
        // Tear the very first refinement seal mid-line.
        let plan = FaultPlan::seeded(2).rule(
            SITE_FIT_JOURNAL_APPEND,
            FaultKind::PartialWrite,
            FaultTrigger::AtIndex(grid_len),
        );
        let injector = FaultInjector::new(plan);
        let killed = with_injector(&injector, || {
            fit_clustering_checkpointed(
                &observed,
                &spec,
                Seed::new(19),
                CandidateBudget::UNLIMITED,
                &mut journal,
            )
        });
        assert!(killed.is_err(), "torn write must surface");
        assert_ne!(
            journal.last(),
            Some(&b'\n'),
            "the tail must actually be torn"
        );
        let registry = appstore_obs::Registry::new();
        let resumed = appstore_obs::with_registry(&registry, || {
            fit_clustering_checkpointed(
                &observed,
                &spec,
                Seed::new(19),
                CandidateBudget::UNLIMITED,
                &mut journal,
            )
        })
        .unwrap()
        .unwrap();
        assert_eq!(reference, resumed);
        assert!(
            registry.counter_value(appstore_obs::names::FIT_JOURNAL_LINES_QUARANTINED) >= 1,
            "the torn fragment must be quarantined on replay"
        );
    }

    #[test]
    fn corrupt_seal_is_quarantined_and_recomputed() {
        let observed = observed();
        let spec = spec();
        let reference = fit_clustering(&observed, &spec, Seed::new(11)).unwrap();
        let mut journal = Vec::new();
        // Silently corrupt the seal of screening record 10; the first run
        // still completes (the in-memory value is good).
        let plan = FaultPlan::seeded(3).rule(
            SITE_FIT_JOURNAL_APPEND,
            FaultKind::Corrupt,
            FaultTrigger::AtIndex(10),
        );
        let injector = FaultInjector::new(plan);
        let first = with_injector(&injector, || {
            fit_clustering_checkpointed(
                &observed,
                &spec,
                Seed::new(11),
                CandidateBudget::UNLIMITED,
                &mut journal,
            )
        })
        .unwrap()
        .unwrap();
        assert_eq!(reference, first);
        // A later resume must notice the damage, recompute candidate 10
        // and still land on the same winner.
        let registry = appstore_obs::Registry::new();
        let resumed = appstore_obs::with_registry(&registry, || {
            fit_clustering_checkpointed(
                &observed,
                &spec,
                Seed::new(11),
                CandidateBudget::UNLIMITED,
                &mut journal,
            )
        })
        .unwrap()
        .unwrap();
        assert_eq!(reference, resumed);
        assert_eq!(
            registry.counter_value(appstore_obs::names::FIT_JOURNAL_LINES_QUARANTINED),
            1
        );
    }

    #[test]
    fn foreign_journal_is_discarded_not_merged() {
        let observed = observed();
        let spec = spec();
        let mut journal = Vec::new();
        fit_clustering_checkpointed(
            &observed,
            &spec,
            Seed::new(1),
            CandidateBudget::UNLIMITED,
            &mut journal,
        )
        .unwrap()
        .unwrap();
        // Same journal buffer, different seed: the fingerprint disagrees,
        // so nothing may be reused.
        let reference = fit_clustering(&observed, &spec, Seed::new(2)).unwrap();
        let other = fit_clustering_checkpointed(
            &observed,
            &spec,
            Seed::new(2),
            CandidateBudget::UNLIMITED,
            &mut journal,
        )
        .unwrap()
        .unwrap();
        assert_eq!(reference, other);
    }

    #[test]
    fn deadline_downgrades_slow_candidate_with_warn_counter() {
        let observed = observed();
        let spec = spec();
        let mut journal = Vec::new();
        // Shortlist candidate 0 takes 5000 virtual ms; the budget allows
        // 100, so it must be downgraded to its screened-only score.
        let plan = FaultPlan::seeded(4).rule(
            SITE_FIT_REFINE,
            FaultKind::Delay { virtual_ms: 5000 },
            FaultTrigger::AtIndex(0),
        );
        let injector = FaultInjector::new(plan);
        let registry = appstore_obs::Registry::new();
        let outcome = appstore_obs::with_registry(&registry, || {
            with_injector(&injector, || {
                fit_clustering_checkpointed(
                    &observed,
                    &spec,
                    Seed::new(31),
                    CandidateBudget::with_refine_deadline(100),
                    &mut journal,
                )
            })
        })
        .unwrap();
        assert!(outcome.is_some(), "the fit must still converge");
        assert_eq!(
            registry.counter_value(appstore_obs::names::FIT_REFINE_DEADLINE_DOWNGRADES),
            1
        );
        let replay = replay_fit_journal(&journal);
        assert!(
            replay.downgraded.contains(&0),
            "the downgrade must be journaled for resume"
        );
        assert!(!replay.refined.contains_key(&0));
    }

    #[test]
    fn journal_floats_round_trip_infinity() {
        // Screening can legitimately produce an infinite distance;
        // the bit-level encoding must survive a journal round trip.
        let outcome = FitOutcome {
            kind: ModelKind::AppClustering,
            zipf_exponent: 1.25,
            cluster_exponent: f64::INFINITY,
            p: 0.9,
            users: 10,
            downloads_per_user: 3,
            distance: f64::INFINITY,
        };
        let record = FitRecord::Refined {
            index: 3,
            outcome: JournalOutcome::from(outcome),
        };
        let mut journal = Vec::new();
        append_fit_record(&mut journal, &record, 3).unwrap();
        let replay = replay_fit_journal(&journal);
        let back = replay.refined[&3];
        assert_eq!(outcome, back);
        assert_eq!(outcome.distance.to_bits(), back.distance.to_bits());
    }
}
