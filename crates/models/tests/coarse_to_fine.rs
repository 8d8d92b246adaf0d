//! The coarse-to-fine contract: `fit_clustering` with a coarse
//! subsample pass must return *exactly* the outcome of the exhaustive
//! grid search — same parameters, same distance bits — across seeded
//! random stores and every degenerate grid shape (single candidate,
//! all-ties, `refine_top = 0`, pathological sample sizes).

#![allow(clippy::unwrap_used)]

use appstore_core::faults::{with_injector, FaultInjector, FaultKind, FaultPlan, FaultTrigger};
use appstore_core::Seed;
use appstore_models::{
    fit_clustering, fit_clustering_checkpointed, CandidateBudget, ClusterLayout, ClusteringParams,
    CoarseMode, FitSpec, PopulationParams, Simulator, SITE_FIT_JOURNAL_APPEND,
};
use proptest::prelude::*;

/// A grid of 6×4×3×4 = 288 candidates — big enough that `Auto` engages
/// for `refine_top = 3` (threshold 256) and that coarse pruning is real
/// (survivors ≪ grid).
fn spec(clusters: usize, coarse: CoarseMode) -> FitSpec {
    FitSpec {
        zipf_exponents: vec![0.8, 1.0, 1.2, 1.4, 1.6, 1.8],
        cluster_exponents: vec![1.0, 1.3, 1.6, 1.9],
        ps: vec![0.5, 0.8, 0.95],
        user_fractions: vec![0.5, 1.0, 2.0, 4.0],
        clusters,
        threads: 2,
        refine_top: 3,
        replications: 1,
        coarse,
    }
}

fn store(apps: usize, users: usize, d: u32, z_r: f64, clusters: usize, seed: u64) -> Vec<u64> {
    let params = ClusteringParams {
        population: PopulationParams {
            apps,
            users,
            downloads_per_user: d,
            zipf_exponent: z_r,
        },
        clusters,
        p: 0.9,
        cluster_exponent: 1.5,
        layout: ClusterLayout::Interleaved,
    };
    let mut counts = Simulator::app_clustering(params).simulate_counts(Seed::new(seed));
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts
}

/// Asserts the full outcome matches bit for bit (distance included).
fn assert_equivalent(observed: &[u64], exhaustive: &FitSpec, coarse: &FitSpec, seed: Seed) {
    let reference = fit_clustering(observed, exhaustive, seed);
    let fast = fit_clustering(observed, coarse, seed);
    match (reference, fast) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a, b, "coarse winner diverged from exhaustive");
            assert_eq!(
                a.distance.to_bits(),
                b.distance.to_bits(),
                "winner distances must match bitwise"
            );
        }
        (a, b) => panic!("one path found a winner, the other did not: {a:?} vs {b:?}"),
    }
}

#[test]
fn auto_matches_exhaustive_on_a_generated_store() {
    let observed = store(300, 2500, 6, 1.2, 15, 5);
    assert_equivalent(
        &observed,
        &spec(15, CoarseMode::Off),
        &spec(15, CoarseMode::Auto),
        Seed::new(42),
    );
}

#[test]
fn standard_grid_matches_exhaustive() {
    // The 7875-candidate production grid with the production Auto
    // budgets — the configuration every fit experiment actually runs.
    let observed = store(250, 2000, 5, 1.3, 10, 11);
    let mut exhaustive = FitSpec::standard(10);
    exhaustive.threads = 2;
    exhaustive.replications = 1;
    exhaustive.coarse = CoarseMode::Off;
    let mut auto = exhaustive.clone();
    auto.coarse = CoarseMode::Auto;
    assert_equivalent(&observed, &exhaustive, &auto, Seed::new(7));
}

#[test]
fn single_candidate_grid_matches() {
    let observed = store(120, 800, 4, 1.1, 8, 9);
    let mut one = spec(8, CoarseMode::Off);
    one.zipf_exponents = vec![1.2];
    one.cluster_exponents = vec![1.4];
    one.ps = vec![0.9];
    one.user_fractions = vec![1.0];
    let mut coarse = one.clone();
    coarse.coarse = CoarseMode::On {
        sample: 16,
        keep_global: 1,
        keep_per_uf: 1,
    };
    assert_equivalent(&observed, &one, &coarse, Seed::new(3));
}

#[test]
fn all_ties_grid_matches() {
    // Duplicated axis values make whole planes of candidates *exactly*
    // tied; the survivor selection must break ties in grid order, like
    // the exhaustive shortlist's stable feed.
    let observed = store(150, 1000, 5, 1.2, 10, 13);
    let mut tied = spec(10, CoarseMode::Off);
    tied.zipf_exponents = vec![1.2, 1.2, 1.2, 1.2];
    tied.cluster_exponents = vec![1.5, 1.5, 1.5];
    tied.ps = vec![0.9, 0.9];
    tied.user_fractions = vec![1.0, 1.0, 2.0];
    let mut coarse = tied.clone();
    coarse.coarse = CoarseMode::On {
        sample: 32,
        keep_global: 6,
        keep_per_uf: 2,
    };
    assert_equivalent(&observed, &tied, &coarse, Seed::new(17));
}

#[test]
fn refine_top_zero_matches() {
    let observed = store(200, 1500, 5, 1.4, 12, 21);
    let mut exhaustive = spec(12, CoarseMode::Off);
    exhaustive.refine_top = 0;
    let mut coarse = exhaustive.clone();
    coarse.coarse = CoarseMode::On {
        sample: 64,
        keep_global: 24,
        keep_per_uf: 3,
    };
    assert_equivalent(&observed, &exhaustive, &coarse, Seed::new(1));
}

#[test]
fn degenerate_sample_sizes_match() {
    let observed = store(200, 1500, 5, 1.2, 12, 29);
    let exhaustive = spec(12, CoarseMode::Off);
    // sample = 0 clamps up to min(apps, 32); sample ≫ apps clamps down
    // to the full curve.
    for sample in [0usize, 1, 1_000_000] {
        let mut coarse = exhaustive.clone();
        coarse.coarse = CoarseMode::On {
            sample,
            keep_global: 24,
            keep_per_uf: 3,
        };
        assert_equivalent(&observed, &exhaustive, &coarse, Seed::new(2));
    }
}

#[test]
fn checkpointed_exhaustive_matches_coarse_fit() {
    // With `CoarseMode::Off` the checkpointed fit screens the full grid,
    // so agreement with the coarse in-memory fit is a second,
    // independent witness of exhaustive-equivalence through the public
    // API.
    let observed = store(300, 2500, 6, 1.2, 15, 5);
    let coarse = fit_clustering(&observed, &spec(15, CoarseMode::Auto), Seed::new(42)).unwrap();
    let mut journal = Vec::new();
    let checkpointed = fit_clustering_checkpointed(
        &observed,
        &spec(15, CoarseMode::Off),
        Seed::new(42),
        CandidateBudget::UNLIMITED,
        &mut journal,
    )
    .unwrap()
    .unwrap();
    assert_eq!(coarse, checkpointed);
    assert_eq!(coarse.distance.to_bits(), checkpointed.distance.to_bits());
}

/// The `--no-timings` snapshot of a registry that recorded only `fit`.
fn snapshot<T>(fit: impl FnOnce() -> T) -> (T, String) {
    let registry = appstore_obs::Registry::new();
    let out = appstore_obs::with_registry(&registry, fit);
    (out, registry.snapshot_json(true))
}

/// The snapshot's lines, minus the `fit.journal.*` counters.
fn without_journal(snapshot: &str) -> Vec<&str> {
    snapshot
        .lines()
        .filter(|line| !line.contains("\"fit.journal."))
        .collect()
}

#[test]
fn checkpointed_fit_runs_the_coarse_pass_like_the_plain_fit() {
    // Both entry points share one pipeline, so with an empty journal the
    // checkpointed fit screens, shortlists and refines exactly like the
    // plain one: every counter and span matches but the journal's own.
    let observed = store(300, 2500, 6, 1.2, 15, 5);
    let spec = spec(15, CoarseMode::Auto);
    let (plain, plain_metrics) = snapshot(|| fit_clustering(&observed, &spec, Seed::new(42)));
    let mut journal = Vec::new();
    let (checkpointed, checkpointed_metrics) = snapshot(|| {
        fit_clustering_checkpointed(
            &observed,
            &spec,
            Seed::new(42),
            CandidateBudget::UNLIMITED,
            &mut journal,
        )
    });
    let checkpointed = checkpointed.unwrap();
    assert_eq!(plain, checkpointed);
    assert!(plain_metrics.contains("\"fit.coarse.survivors\""));
    assert!(!plain_metrics.contains("\"fit.journal."));
    assert!(checkpointed_metrics.contains("\"fit.journal.appends\""));
    assert_eq!(
        without_journal(&plain_metrics),
        without_journal(&checkpointed_metrics)
    );
}

#[test]
fn coarse_checkpointed_fit_killed_mid_screen_resumes_exactly() {
    let observed = store(300, 2500, 6, 1.2, 15, 5);
    let spec = spec(15, CoarseMode::Auto);
    let seed = Seed::new(42);
    let reference = fit_clustering(&observed, &spec, seed).unwrap();
    // The coarse survivors are not known up front, so the I/O error
    // fires at a seeded random subset of journal appends; the first one
    // to fire kills the run.
    let plan = FaultPlan::seeded(5).rule(
        SITE_FIT_JOURNAL_APPEND,
        FaultKind::IoError,
        FaultTrigger::Probability(0.05),
    );
    let injector = FaultInjector::new(plan);
    let mut journal = Vec::new();
    let registry = appstore_obs::Registry::new();
    let killed = appstore_obs::with_registry(&registry, || {
        with_injector(&injector, || {
            fit_clustering_checkpointed(
                &observed,
                &spec,
                seed,
                CandidateBudget::UNLIMITED,
                &mut journal,
            )
        })
    });
    assert!(killed.is_err(), "the injected I/O error must surface");
    // Killed while sealing the screen: the header and some screening
    // records made it, and the screened tally, recorded once sealing is
    // done, never did.
    assert!(registry.counter_value("fit.journal.appends") >= 2);
    assert_eq!(registry.counter_value("fit.clustering.screened"), 0);
    let registry = appstore_obs::Registry::new();
    let resumed = appstore_obs::with_registry(&registry, || {
        fit_clustering_checkpointed(
            &observed,
            &spec,
            seed,
            CandidateBudget::UNLIMITED,
            &mut journal,
        )
    })
    .unwrap()
    .unwrap();
    assert!(registry.counter_value("fit.journal.candidates_resumed") >= 1);
    assert!(registry.counter_value("fit.coarse.survivors") >= 1);
    assert_eq!(reference, resumed);
    assert_eq!(reference.distance.to_bits(), resumed.distance.to_bits());
}

#[test]
fn journal_of_another_coarse_plan_is_not_resumed() {
    // The coarse plan decides the shortlist that refinement records are
    // keyed by, so a journal written without the coarse pass must not
    // seed a fit that runs it.
    let observed = store(300, 2500, 6, 1.2, 15, 5);
    let seed = Seed::new(42);
    let mut journal = Vec::new();
    fit_clustering_checkpointed(
        &observed,
        &spec(15, CoarseMode::Off),
        seed,
        CandidateBudget::UNLIMITED,
        &mut journal,
    )
    .unwrap()
    .unwrap();
    let auto = spec(15, CoarseMode::Auto);
    let registry = appstore_obs::Registry::new();
    let resumed = appstore_obs::with_registry(&registry, || {
        fit_clustering_checkpointed(
            &observed,
            &auto,
            seed,
            CandidateBudget::UNLIMITED,
            &mut journal,
        )
    })
    .unwrap()
    .unwrap();
    assert_eq!(registry.counter_value("fit.journal.candidates_resumed"), 0);
    assert_eq!(resumed, fit_clustering(&observed, &auto, seed).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random stores (shape, scale, and seed all drawn) keep the
    /// equivalence: the coarse pass may only change *how fast* the
    /// optimum is found, never which optimum.
    #[test]
    fn coarse_fit_equals_exhaustive_fit(
        apps in 120usize..320,
        users in 600usize..3000,
        d in 3u32..8,
        z_r in 0.9f64..1.6,
        clusters in 5usize..22,
        store_seed in 0u64..1_000,
        fit_seed in 0u64..1_000,
    ) {
        let observed = store(apps, users, d, z_r, clusters, store_seed);
        assert_equivalent(
            &observed,
            &spec(clusters, CoarseMode::Off),
            &spec(clusters, CoarseMode::Auto),
            Seed::new(fit_seed),
        );
    }
}
