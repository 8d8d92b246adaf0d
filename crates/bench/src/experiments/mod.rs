//! One function per paper table/figure, plus the ablations, and the one
//! table that registers them: [`EXPERIMENTS`].
//!
//! An experiment function returns its [`Output`] (printable lines and a
//! JSON series) and never names itself. Its table entry holds its id,
//! title, in-memory run function, optional out-of-core fold and required
//! JSON keys, and the runner names each result from that entry. Listing,
//! id validation, `--streaming`, dispatch and [`crate::schema::validate`]
//! all read the table, so adding or retiring an experiment touches one
//! entry.

pub mod behavior;
pub mod breakeven;
pub mod cache;
pub mod failover;
pub mod income;
pub mod model_fit;
pub mod popularity;
pub mod prefetch;
pub mod pricing;
pub mod recommend;
pub mod recovery;
pub mod serve_replay;
pub mod table1;

use crate::stores::Stores;
use crate::streaming::{self, StreamingStores};
use appstore_core::{assess, par_map_indexed, repair_gaps, Dataset, GapRepair, Seed};
use serde_json::Value;
use std::borrow::Cow;
use std::io;
use std::time::Instant;

/// Gap-aware view of a dataset for the analysis experiments: assess
/// coverage, carry-forward-repair any missing days, and hand back the
/// dataset to analyze plus a coverage annotation for the report. On a
/// complete dataset this is a borrow and the annotation says so.
pub(crate) fn gap_repaired(dataset: &Dataset) -> (Cow<'_, Dataset>, String) {
    let quality = assess(dataset);
    if quality.is_complete() {
        (Cow::Borrowed(dataset), quality.annotation())
    } else {
        let (repaired, report) = repair_gaps(dataset, GapRepair::CarryForward);
        let note = format!("{}; {}", quality.annotation(), report.annotation());
        (Cow::Owned(repaired), note)
    }
}

/// What an experiment function produces: its printable lines and the
/// JSON series behind them. The runner adds the id and title from the
/// experiment's [`EXPERIMENTS`] entry.
pub struct Output {
    /// Printable rows (one per output line).
    pub lines: Vec<String>,
    /// The structured series behind the rows.
    pub json: Value,
}

/// A regenerated experiment: printable lines plus a JSON series for
/// EXPERIMENTS.md.
pub struct ExperimentResult {
    /// Experiment id, e.g. `"fig3"`.
    pub id: &'static str,
    /// Human title matching the paper artifact.
    pub title: &'static str,
    /// Printable rows (one per output line).
    pub lines: Vec<String>,
    /// The structured series behind the rows.
    pub json: Value,
}

impl ExperimentResult {
    /// Renders the result as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// One registered experiment: an entry of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Experiment {
    /// Experiment id, e.g. `"fig3"`: the `repro` argument and the stem of
    /// its `--json` file.
    pub id: &'static str,
    /// Human title matching the paper artifact.
    pub title: &'static str,
    /// The in-memory analysis over the generated stores. It receives the
    /// batch's `experiments`-child seed and derives its own children.
    pub run: fn(&Stores, Seed) -> Output,
    /// The out-of-core fold over spilled stores, which `repro --streaming`
    /// runs instead of `run`. Its lines equal `run`'s byte for byte.
    pub fold: Option<fn(&StreamingStores, Seed) -> io::Result<Output>>,
    /// Top-level keys the experiment's JSON must carry; see
    /// [`crate::schema::validate`].
    pub required_keys: &'static [&'static str],
}

impl Experiment {
    /// Runs the in-memory analysis on `stores`.
    pub fn run_in_memory(&self, stores: &Stores, seed: Seed) -> ExperimentResult {
        self.named((self.run)(stores, seed))
    }

    /// Runs the out-of-core fold over `spills`; `None` when the
    /// experiment has no fold.
    pub fn run_streaming(
        &self,
        spills: &StreamingStores,
        seed: Seed,
    ) -> Option<io::Result<ExperimentResult>> {
        let fold = self.fold?;
        Some(fold(spills, seed).map(|output| self.named(output)))
    }

    fn named(&self, output: Output) -> ExperimentResult {
        ExperimentResult {
            id: self.id,
            title: self.title,
            lines: output.lines,
            json: output.json,
        }
    }
}

/// Every experiment the harness knows, in paper order: Table 1 and
/// Figs. 2–19, then the crawl, recovery, §7, ablation and serving
/// experiments.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Summary of collected data (scaled calibration of Table 1)",
        run: |stores, _| table1::run(stores),
        fold: None,
        required_keys: &["rows"],
    },
    Experiment {
        id: "fig2",
        title: "CDF of downloads vs normalized app ranking (Pareto effect)",
        run: |stores, _| popularity::fig2(stores),
        fold: None,
        required_keys: &["stores"],
    },
    Experiment {
        id: "fig3",
        title: "App popularity distribution: Zipf trunk, truncated ends",
        run: |stores, _| popularity::fig3(stores),
        fold: Some(|spills, _| streaming::fig3(spills)),
        required_keys: &["stores"],
    },
    Experiment {
        id: "fig4",
        title: "CDF of the number of updates per app (fetch-at-most-once)",
        run: |stores, _| popularity::fig4(stores),
        fold: None,
        required_keys: &["stores"],
    },
    Experiment {
        id: "fig5",
        title: "Users focus on a few categories (Anzhi comments)",
        run: |stores, _| behavior::fig5(stores),
        fold: Some(|spills, _| streaming::fig5(spills)),
        required_keys: &[
            "categories_below_4pct",
            "comments_cdf_le10",
            "coverage",
            "single_category",
            "top_category_share",
            "top_k_share",
            "users",
            "within_five",
        ],
    },
    Experiment {
        id: "fig6",
        title: "Successive selections stay in the same category",
        run: |stores, _| behavior::fig6(stores),
        fold: None,
        required_keys: &["depths"],
    },
    Experiment {
        id: "fig7",
        title: "CDF of per-user temporal affinity (depths 1-3)",
        run: |stores, _| behavior::fig7(stores),
        fold: None,
        required_keys: &["depths"],
    },
    Experiment {
        id: "fig8",
        title: "Predicted vs measured app popularity per store",
        run: model_fit::fig8,
        fold: Some(streaming::fig8),
        required_keys: &["stores"],
    },
    Experiment {
        id: "fig9",
        title: "Model distance from measured data (first/last day)",
        run: model_fit::fig9,
        fold: None,
        required_keys: &["points"],
    },
    Experiment {
        id: "fig10",
        title: "Choosing the number of users U (distance vs U)",
        run: model_fit::fig10,
        fold: None,
        required_keys: &["stores"],
    },
    Experiment {
        id: "fig11",
        title: "Paid apps follow a clear Zipf distribution (SlideMe)",
        run: |stores, _| pricing::fig11(stores),
        fold: None,
        required_keys: &["free", "paid"],
    },
    Experiment {
        id: "fig12",
        title: "Expensive apps are less popular (SlideMe paid)",
        run: |stores, _| pricing::fig12(stores),
        fold: None,
        required_keys: &["bins", "r_price_apps", "r_price_downloads"],
    },
    Experiment {
        id: "fig13",
        title: "Most developers have negligible income from paid apps",
        run: |stores, _| income::fig13(stores),
        fold: None,
        required_keys: &[
            "developers",
            "gini",
            "max_income",
            "p_lt_10",
            "p_lt_100",
            "p_lt_1500",
            "p_zero",
        ],
    },
    Experiment {
        id: "fig14",
        title: "Quality is more important than quantity",
        run: |stores, _| income::fig14(stores),
        fold: None,
        required_keys: &["avg_income_many", "avg_income_single", "pearson"],
    },
    Experiment {
        id: "fig15",
        title: "Revenue comes from few categories (music-heavy)",
        run: |stores, _| income::fig15(stores),
        fold: None,
        required_keys: &["shares", "top4_revenue"],
    },
    Experiment {
        id: "fig16",
        title: "Developers create few apps focused on few categories",
        run: |stores, _| income::fig16(stores),
        fold: None,
        required_keys: &[
            "apps_per_developer",
            "both",
            "free_only",
            "p_single_app_free",
            "p_single_app_paid",
            "p_single_cat_free",
            "p_single_cat_paid",
            "paid_only",
        ],
    },
    Experiment {
        id: "fig17",
        title: "Free apps with ads can out-earn paid apps",
        run: |stores, _| breakeven::fig17(stores),
        fold: None,
        required_keys: &["ad_fraction", "over_time", "overall", "tiers"],
    },
    Experiment {
        id: "fig18",
        title: "Break-even ad income per category",
        run: |stores, _| breakeven::fig18(stores),
        fold: None,
        required_keys: &["categories"],
    },
    Experiment {
        id: "fig19",
        title: "Clustering-based behaviour degrades LRU caching",
        run: |_, seed| cache::fig19(seed),
        fold: None,
        required_keys: &["fractions", "models"],
    },
    Experiment {
        id: "crawl",
        title: "Data-collection architecture end-to-end (paper §2.2)",
        run: table1::crawl,
        fold: None,
        required_keys: &[
            "app_pages",
            "comment_pages",
            "corrupted",
            "days",
            "dropped",
            "lossless",
            "proxies_banned",
            "rate_limited",
            "requests",
            "retries",
            "virtual_ms",
        ],
    },
    Experiment {
        id: "crawl-recovery",
        title: "Crash/resume fault tolerance and gap repair (paper §2.2)",
        run: recovery::run,
        fold: None,
        required_keys: &[
            "breaker_trips",
            "converged",
            "coverage",
            "days",
            "lossless",
            "proxies_banned",
            "reference_requests",
            "repairs",
            "runs",
            "worst_proxy_score",
        ],
    },
    Experiment {
        id: "fit-recovery",
        title: "Kill/resume convergence of the checkpointed model fit",
        run: recovery::fit_recovery,
        fold: None,
        required_keys: &[
            "converged",
            "deadline_downgrades",
            "degraded_distance",
            "fault_log",
            "grid_candidates",
            "runs",
            "winner_distance",
        ],
    },
    Experiment {
        id: "recommend",
        title: "Clustering-aware recommendation (paper §7, implemented)",
        run: |stores, _| recommend::run(stores),
        fold: None,
        required_keys: &["k", "reports"],
    },
    Experiment {
        id: "prefetch",
        title: "Category prefetching (paper §7), hit rate vs waste",
        run: |stores, _| prefetch::run(stores),
        fold: None,
        required_keys: &["points"],
    },
    Experiment {
        id: "ablate-depth",
        title: "Ablation: affinity vs depth and spam filtering",
        run: |stores, _| behavior::ablate_depth(stores),
        fold: None,
        required_keys: &["depths"],
    },
    Experiment {
        id: "ablate-drift",
        title: "Ablation: affinity stability over calendar time",
        run: |stores, _| behavior::ablate_drift(stores),
        fold: None,
        required_keys: &["retention", "windows"],
    },
    Experiment {
        id: "ablate-policies",
        title: "Ablation: replacement policies under the clustering workload",
        run: |_, seed| cache::ablate_policies(seed),
        fold: None,
        required_keys: &["fractions", "policies"],
    },
    Experiment {
        id: "ablate-cluster-size",
        title: "Ablation: cluster layout sensitivity of APP-CLUSTERING",
        run: |_, _| cache::ablate_cluster_size(),
        fold: None,
        required_keys: &["blocked_head", "divergence", "interleaved_head"],
    },
    Experiment {
        id: "ablate-cutoff",
        title: "Ablation: power law with exponential cutoff (UGC analogy)",
        run: |stores, _| popularity::ablate_cutoff(stores),
        fold: None,
        required_keys: &["stores"],
    },
    Experiment {
        id: "ablate-p",
        title: "Ablation: fit distance vs clustering probability p",
        run: model_fit::ablate_p,
        fold: None,
        required_keys: &["points"],
    },
    Experiment {
        id: "serve-replay",
        title: "Serving layer under replayed §5 workloads with chaos",
        run: |_, seed| serve_replay::run(seed),
        fold: None,
        required_keys: &[
            "chaos",
            "clustering_hit_rate",
            "fault_log",
            "healthy",
            "p99_virtual_ms",
            "panics_caught",
            "panics_escaped",
            "probe",
            "recovered",
            "sheds",
            "slo",
            "stale_served",
            "telemetry",
            "zipf_hit_rate",
        ],
    },
    Experiment {
        id: "serve-failover",
        title: "Replicated backing tier under replica chaos",
        run: |_, seed| failover::run(seed),
        fold: None,
        required_keys: &[
            "availability_ppm",
            "chaos",
            "fault_log",
            "fingerprint_match",
            "hedge_rate",
            "hedges",
            "panics_caught",
            "panics_escaped",
            "probe",
            "reconcile",
            "reference",
            "replicas",
            "slo",
        ],
    },
];

/// Every experiment id, in [`EXPERIMENTS`] order. An array rather than a
/// slice, because perfbench iterates it by value.
pub const EXPERIMENT_IDS: [&str; EXPERIMENTS.len()] = {
    let mut ids = [""; EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

/// The experiment registered under `id`, if any.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|experiment| experiment.id == id)
}

/// The experiments with an out-of-core fold, in table order: the set
/// `repro --streaming all` runs.
pub fn streaming_experiments() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS
        .iter()
        .filter(|experiment| experiment.fold.is_some())
}

/// Resolves the ids of one run against [`EXPERIMENTS`], in the order
/// given. `Err` carries a usage message naming the first id that is
/// unknown, given more than once, or (with `streaming`) without a fold.
pub fn select(ids: &[&str], streaming: bool) -> Result<Vec<&'static Experiment>, String> {
    let mut selected: Vec<&'static Experiment> = Vec::with_capacity(ids.len());
    for &id in ids {
        let Some(experiment) = find(id) else {
            return Err(format!("unknown experiment: {id} (try `repro list`)"));
        };
        if selected.iter().any(|chosen| chosen.id == id) {
            return Err(format!("experiment {id} given more than once"));
        }
        if streaming && experiment.fold.is_none() {
            let folds: Vec<&str> = streaming_experiments().map(|e| e.id).collect();
            return Err(format!(
                "experiment {id} has no streaming implementation \
                 (streaming ids: {})",
                folds.join(", ")
            ));
        }
        selected.push(experiment);
    }
    Ok(selected)
}

/// Runs a batch of experiments on up to `threads` workers (0 ⇒ one per
/// CPU), collecting each experiment's metrics into its own fresh
/// [`appstore_obs::Registry`]. Returns `(result, wall_seconds,
/// registry)` triples **in the order of `ids`** regardless of
/// completion order.
///
/// Every experiment receives the same `seed.child("experiments")` a
/// sequential [`run_experiment`] loop would pass and derives its own
/// child seeds internally, so the rendered results are bit-identical
/// for every thread count; only the wall times vary.
///
/// Each experiment's registry is installed for exactly the duration of
/// that experiment (and carried onto any worker threads it spawns), so
/// the snapshots partition cleanly by experiment id no matter how the
/// batch was scheduled. Deterministic metrics are identical for every
/// thread count; volatile ones are zeroed when the snapshot is taken in
/// no-timings mode.
///
/// `progress` is invoked from worker threads as each experiment
/// finishes (completion order), for live wall-time reporting.
///
/// # Panics
/// Panics on an unknown id — validate with [`select`] first.
pub fn run_experiments_observed(
    ids: &[&str],
    stores: &Stores,
    seed: Seed,
    threads: usize,
    progress: impl Fn(&str, f64) + Sync,
) -> Vec<(ExperimentResult, f64, appstore_obs::Registry)> {
    let experiments: Vec<&'static Experiment> = ids
        .iter()
        .map(|id| find(id).unwrap_or_else(|| panic!("unknown experiment id: {id}")))
        .collect();
    run_experiments_observed_with(&experiments, seed, threads, progress, |experiment, seed| {
        experiment.run_in_memory(stores, seed)
    })
}

/// The scheduling/observation shell of [`run_experiments_observed`],
/// generic over how one experiment becomes a result — the streaming
/// path plugs [`Experiment::run_streaming`] in here so both paths share
/// the per-experiment registry, track-labelling, and ordering machinery.
///
/// `run` receives the experiment and the batch's `experiments`-child
/// seed, exactly what [`run_experiment`] passes on.
pub fn run_experiments_observed_with(
    experiments: &[&'static Experiment],
    seed: Seed,
    threads: usize,
    progress: impl Fn(&str, f64) + Sync,
    run: impl Fn(&'static Experiment, Seed) -> ExperimentResult + Sync,
) -> Vec<(ExperimentResult, f64, appstore_obs::Registry)> {
    par_map_indexed(experiments.to_vec(), threads, |_, experiment| {
        let registry = appstore_obs::Registry::new();
        let started = Instant::now();
        // Name the experiment's trace track after its id so a `--trace`
        // timeline reads "fig8", not "task 1.4".
        appstore_obs::label_track(experiment.id);
        let result =
            appstore_obs::with_registry(&registry, || run(experiment, seed.child("experiments")));
        let secs = started.elapsed().as_secs_f64();
        progress(experiment.id, secs);
        (result, secs, registry)
    })
}

/// Runs one experiment by id. Returns `None` for an unknown id.
pub fn run_experiment(id: &str, stores: &Stores, seed: Seed) -> Option<ExperimentResult> {
    find(id).map(|experiment| experiment.run_in_memory(stores, seed))
}
