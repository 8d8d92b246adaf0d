//! The paper-fidelity report: `results/*.json` joined against a
//! checked-in table of figure-level targets from the paper.
//!
//! Each target row names one published number (a Pareto share, a
//! Zipf exponent, a hit-rate band, …), extracts the reproduced value
//! from the experiment JSON, and grades the relative error as
//! PASS/WARN/FAIL. A handful of rows are *invariants* — ordering claims
//! the reproduction must honor at any scale (e.g. APP-CLUSTERING fits
//! strictly better than pure ZIPF). Non-invariant rows are graded
//! against the full-scale run; on a scaled-down run (`--scale N > 1`,
//! as recorded in the `--metrics` snapshot) their FAILs downgrade to
//! WARN, because absolute magnitudes legitimately drift when stores
//! shrink — only the invariants can still fail outright.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What "close to the paper" means for one target.
#[derive(Clone, Copy, Debug)]
pub enum Goal {
    /// Match a single published value.
    Value(f64),
    /// Land inside a published (or stated) interval.
    Band(f64, f64),
    /// Stay at or above a floor (ordering/ratio invariants).
    Min(f64),
}

/// Grade of one target row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Relative error within the pass tolerance.
    Pass,
    /// Outside pass but within the warn tolerance, or a scaled-down
    /// run's downgraded fail.
    Warn,
    /// Outside the warn tolerance (or an invariant violated).
    Fail,
    /// The experiment JSON needed for this row was not in the results
    /// directory (or had an unexpected shape).
    Missing,
}

impl Verdict {
    /// Uppercase grade label as printed in the report tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
            Verdict::Missing => "MISSING",
        }
    }
}

/// One figure-level target from the paper.
struct TargetSpec {
    /// Experiment id whose JSON feeds this row (also the results file).
    figure: &'static str,
    /// Short name of the measured quantity.
    metric: &'static str,
    /// The paper's published value, as prose for the dashboard.
    paper: &'static str,
    goal: Goal,
    /// Relative error at or below this grades PASS.
    pass_tol: f64,
    /// Relative error at or below this grades WARN; above is FAIL.
    warn_tol: f64,
    /// Scale-independent ordering claim: never downgraded, may FAIL
    /// even on scaled-down runs.
    invariant: bool,
    extract: fn(&BTreeMap<String, Value>) -> Option<f64>,
}

/// One evaluated dashboard row.
pub struct ReportRow {
    /// Experiment id the value came from.
    pub figure: &'static str,
    /// Short name of the measured quantity.
    pub metric: &'static str,
    /// The paper's published value, as prose.
    pub paper: &'static str,
    /// The reproduced value, if the results JSON had it.
    pub observed: Option<f64>,
    /// Relative error against the goal (0 inside a band / above a min).
    pub rel_err: Option<f64>,
    /// The grade.
    pub verdict: Verdict,
    /// True for scale-independent ordering claims.
    pub invariant: bool,
}

// ---- JSON helpers ------------------------------------------------------

fn num(value: &Value, path: &[&str]) -> Option<f64> {
    let mut v = value;
    for seg in path {
        v = v.get(seg)?;
    }
    v.as_f64()
}

/// `results[figure].stores[store == name][field]` for per-store figures.
fn store_num(
    results: &BTreeMap<String, Value>,
    figure: &str,
    store: &str,
    path: &[&str],
) -> Option<f64> {
    results
        .get(figure)?
        .get("stores")?
        .as_array()?
        .iter()
        .find(|s| s.get("store").and_then(Value::as_str) == Some(store))
        .and_then(|s| num(s, path))
}

fn fig6_depth1(results: &BTreeMap<String, Value>, field: &str) -> Option<f64> {
    results
        .get("fig6")?
        .get("depths")?
        .as_array()?
        .iter()
        .find(|d| d.get("depth").and_then(Value::as_u64) == Some(1))
        .and_then(|d| d.get(field).and_then(Value::as_f64))
}

/// Per-(store, day) fit-distance ratios `numer/denom` from fig9.
fn fig9_ratios(results: &BTreeMap<String, Value>, numer: &str, denom: &str) -> Option<Vec<f64>> {
    let points = results.get("fig9")?.get("points")?.as_array()?;
    let mut ratios = Vec::with_capacity(points.len());
    for p in points {
        let n = p.get(numer).and_then(Value::as_f64)?;
        let d = p.get(denom).and_then(Value::as_f64)?;
        if d > 0.0 {
            ratios.push(n / d);
        }
    }
    if ratios.is_empty() {
        None
    } else {
        Some(ratios)
    }
}

/// Hit ratio of `model` at cached `fraction` from fig19.
fn fig19_hit(results: &BTreeMap<String, Value>, model: &str, fraction: f64) -> Option<f64> {
    let fig = results.get("fig19")?;
    let idx = fig
        .get("fractions")?
        .as_array()?
        .iter()
        .position(|f| f.as_f64() == Some(fraction))?;
    fig.get("models")?
        .as_array()?
        .iter()
        .find(|m| m.get("model").and_then(Value::as_str) == Some(model))?
        .get("hit_ratios")?
        .as_array()?
        .get(idx)?
        .as_f64()
}

fn max_of(values: Option<Vec<f64>>) -> Option<f64> {
    values?.into_iter().reduce(f64::max)
}

fn min_of(values: Option<Vec<f64>>) -> Option<f64> {
    values?.into_iter().reduce(f64::min)
}

// ---- The target table --------------------------------------------------

/// Every figure-level target the report grades, in paper order.
fn targets() -> Vec<TargetSpec> {
    vec![
        // Figure 2: download concentration (Pareto shares).
        TargetSpec {
            figure: "fig2",
            metric: "anzhi top-10% share",
            paper: "top 10% of apps draw 70–90% of downloads",
            goal: Goal::Band(0.70, 0.90),
            pass_tol: 0.10,
            warn_tol: 0.40,
            invariant: false,
            extract: |r| store_num(r, "fig2", "anzhi", &["top10"]),
        },
        TargetSpec {
            figure: "fig2",
            metric: "appchina top-10% share",
            paper: "top 10% of apps draw 70–90% of downloads",
            goal: Goal::Band(0.70, 0.90),
            pass_tol: 0.10,
            warn_tol: 0.40,
            invariant: false,
            extract: |r| store_num(r, "fig2", "appchina", &["top10"]),
        },
        TargetSpec {
            figure: "fig2",
            metric: "1mobile top-10% share",
            paper: "top 10% of apps draw 70–90% of downloads",
            goal: Goal::Band(0.70, 0.90),
            pass_tol: 0.10,
            warn_tol: 0.40,
            invariant: false,
            extract: |r| store_num(r, "fig2", "1mobile", &["top10"]),
        },
        TargetSpec {
            figure: "fig2",
            metric: "slideme top-10% share",
            paper: "top 10% of apps draw 70–90% of downloads",
            goal: Goal::Band(0.70, 0.90),
            pass_tol: 0.10,
            warn_tol: 0.40,
            invariant: false,
            extract: |r| store_num(r, "fig2", "slideme", &["top10"]),
        },
        TargetSpec {
            figure: "fig2",
            metric: "max top-1% share",
            paper: "top 1% alone reaches 30–70% in the measured stores",
            goal: Goal::Band(0.30, 0.70),
            pass_tol: 0.10,
            warn_tol: 0.40,
            invariant: false,
            extract: |r| {
                let stores = r.get("fig2")?.get("stores")?.as_array()?;
                max_of(Some(
                    stores.iter().filter_map(|s| num(s, &["top1"])).collect(),
                ))
            },
        },
        // Figure 6: comment affinity vs a random-walk baseline.
        TargetSpec {
            figure: "fig6",
            metric: "depth-1 affinity",
            paper: "mean download affinity ≈ 0.55 at depth 1",
            goal: Goal::Value(0.55),
            pass_tol: 0.10,
            warn_tol: 0.30,
            invariant: false,
            extract: |r| fig6_depth1(r, "mean_affinity"),
        },
        TargetSpec {
            figure: "fig6",
            metric: "random-walk baseline",
            paper: "random-walk affinity ≈ 0.14",
            goal: Goal::Value(0.14),
            pass_tol: 0.10,
            warn_tol: 0.30,
            invariant: false,
            extract: |r| fig6_depth1(r, "random_walk"),
        },
        TargetSpec {
            figure: "fig6",
            metric: "affinity / baseline",
            paper: "affinity beats the random-walk baseline (≈ 3.9×)",
            goal: Goal::Min(1.0),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| {
                let a = fig6_depth1(r, "mean_affinity")?;
                let b = fig6_depth1(r, "random_walk")?;
                (b > 0.0).then(|| a / b)
            },
        },
        TargetSpec {
            figure: "fig6",
            metric: "affinity lift",
            paper: "0.55 / 0.14 ≈ 3.9× over baseline",
            goal: Goal::Value(3.93),
            pass_tol: 0.15,
            warn_tol: 0.60,
            invariant: false,
            extract: |r| {
                let a = fig6_depth1(r, "mean_affinity")?;
                let b = fig6_depth1(r, "random_walk")?;
                (b > 0.0).then(|| a / b)
            },
        },
        // Figure 8: best-fit APP-CLUSTERING parameters.
        TargetSpec {
            figure: "fig8",
            metric: "mean best-fit p",
            paper: "best fits favor p ≈ 0.9 (most users download an app once)",
            goal: Goal::Band(0.90, 0.95),
            pass_tol: 0.10,
            warn_tol: 0.30,
            invariant: false,
            extract: |r| {
                let stores = r.get("fig8")?.get("stores")?.as_array()?;
                let ps: Vec<f64> = stores
                    .iter()
                    .filter_map(|s| num(s, &["app_clustering", "p"]))
                    .collect();
                (!ps.is_empty()).then(|| ps.iter().sum::<f64>() / ps.len() as f64)
            },
        },
        // Figure 9: fit-distance ratios between the three models.
        TargetSpec {
            figure: "fig9",
            metric: "max ZIPF / APP-CLUSTERING",
            paper: "APP-CLUSTERING fits up to 7.2× closer than ZIPF",
            goal: Goal::Band(1.0, 7.2),
            pass_tol: 0.10,
            warn_tol: 0.50,
            invariant: false,
            extract: |r| max_of(fig9_ratios(r, "zipf", "clustering")),
        },
        TargetSpec {
            figure: "fig9",
            metric: "max ZIPF-amo / APP-CLUSTERING",
            paper: "APP-CLUSTERING fits up to 6.4× closer than ZIPF-at-most-once",
            goal: Goal::Band(1.0, 6.4),
            pass_tol: 0.10,
            warn_tol: 0.50,
            invariant: false,
            extract: |r| max_of(fig9_ratios(r, "amo", "clustering")),
        },
        TargetSpec {
            figure: "fig9",
            metric: "min ZIPF / APP-CLUSTERING",
            paper: "APP-CLUSTERING never fits worse than pure ZIPF",
            goal: Goal::Min(1.0),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| min_of(fig9_ratios(r, "zipf", "clustering")),
        },
        // Figure 11: truncated Zipf exponents of the download curves.
        TargetSpec {
            figure: "fig11",
            metric: "paid Zipf exponent",
            paper: "paid apps follow Zipf with z ≈ 1.72",
            goal: Goal::Value(1.72),
            pass_tol: 0.10,
            warn_tol: 0.30,
            invariant: false,
            extract: |r| num(r.get("fig11")?, &["paid", "z"]),
        },
        TargetSpec {
            figure: "fig11",
            metric: "free trunk exponent",
            paper: "free apps' Zipf trunk fits z ≈ 0.85",
            goal: Goal::Value(0.85),
            pass_tol: 0.10,
            warn_tol: 0.30,
            invariant: false,
            extract: |r| num(r.get("fig11")?, &["free", "trunk_z"]),
        },
        TargetSpec {
            figure: "fig11",
            metric: "paid fit r²",
            paper: "the paid curve is near-perfect Zipf (r² ≥ 0.95)",
            goal: Goal::Band(0.95, 1.0),
            pass_tol: 0.05,
            warn_tol: 0.20,
            invariant: false,
            extract: |r| num(r.get("fig11")?, &["paid", "r2"]),
        },
        TargetSpec {
            figure: "fig11",
            metric: "paid r² − free full r²",
            paper: "paid curves are cleaner Zipf than free curves",
            goal: Goal::Min(0.0),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| {
                let paid = num(r.get("fig11")?, &["paid", "r2"])?;
                let free = num(r.get("fig11")?, &["free", "full_r2"])?;
                Some(paid - free)
            },
        },
        // Figure 17: ad-supported break-even fractions.
        TargetSpec {
            figure: "fig17",
            metric: "overall break-even share",
            paper: "≈ 21% of ad-supported apps break even",
            goal: Goal::Value(0.21),
            pass_tol: 0.15,
            warn_tol: 0.50,
            invariant: false,
            extract: |r| num(r.get("fig17")?, &["overall"]),
        },
        TargetSpec {
            figure: "fig17",
            metric: "top-tier break-even share",
            paper: "≈ 3.3% among top-popularity apps (they'd earn more paid)",
            goal: Goal::Value(0.033),
            pass_tol: 0.15,
            warn_tol: 0.50,
            invariant: false,
            extract: |r| num(r.get("fig17")?, &["tiers", "top"]),
        },
        // Figure 19: LRU hit rates under the three synthetic workloads.
        TargetSpec {
            figure: "fig19",
            metric: "APP-CLUSTERING hit @ 1%",
            paper: "caching 1% of apps yields a 67.1% hit rate",
            goal: Goal::Value(0.671),
            pass_tol: 0.15,
            warn_tol: 0.40,
            invariant: false,
            extract: |r| fig19_hit(r, "APP-CLUSTERING", 0.01),
        },
        TargetSpec {
            figure: "fig19",
            metric: "APP-CLUSTERING hit @ 20%",
            paper: "caching 20% of apps yields a 96.3% hit rate",
            goal: Goal::Value(0.963),
            pass_tol: 0.05,
            warn_tol: 0.20,
            invariant: false,
            extract: |r| fig19_hit(r, "APP-CLUSTERING", 0.2),
        },
        TargetSpec {
            figure: "fig19",
            metric: "ZIPF hit @ 10%",
            paper: "the ZIPF workload is near-perfectly cacheable (≥ 99%)",
            goal: Goal::Band(0.99, 1.0),
            pass_tol: 0.02,
            warn_tol: 0.10,
            invariant: false,
            extract: |r| fig19_hit(r, "ZIPF", 0.1),
        },
        TargetSpec {
            figure: "fig19",
            metric: "min ZIPF − APP-CLUSTERING hit gap",
            paper: "at-most-once clustering always caches worse than ZIPF",
            goal: Goal::Min(0.0),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| {
                let fig = r.get("fig19")?;
                let n = fig.get("fractions")?.as_array()?.len();
                let gaps: Vec<f64> = (0..n)
                    .filter_map(|i| {
                        let frac = fig.get("fractions")?.as_array()?.get(i)?.as_f64()?;
                        let z = fig19_hit(r, "ZIPF", frac)?;
                        let c = fig19_hit(r, "APP-CLUSTERING", frac)?;
                        Some(z - c)
                    })
                    .collect();
                min_of(Some(gaps))
            },
        },
        // Streaming integrity: a `repro --streaming` run reports how
        // many spill chunks were quarantined during the folds. Zero is
        // the healthy state; any loss means the numbers above were
        // computed without the damaged rows, worth a WARN but never a
        // FAIL (the fold itself is the recovery mechanism). An
        // in-memory run never writes the telemetry block — no spill
        // layer means vacuously zero quarantined chunks, so the row
        // grades PASS rather than MISSING (a *truncated* streaming
        // block is caught by the schema and skips the whole file).
        TargetSpec {
            figure: "fig3",
            metric: "spill chunks quarantined",
            paper: "out-of-core folds read every sealed chunk back intact",
            goal: Goal::Value(0.0),
            pass_tol: 0.0,
            warn_tol: f64::INFINITY,
            invariant: false,
            extract: |r| {
                let fig3 = r.get("fig3")?;
                Some(num(fig3, &["streaming", "quarantined_chunks"]).unwrap_or(0.0))
            },
        },
        // serve-replay: the serving layer must reproduce the §5 cache
        // bands over real sockets and survive the chaos window. All
        // rows are invariant — virtual time makes them scale-free.
        TargetSpec {
            figure: "serve-replay",
            metric: "edge hit rate, APP-CLUSTERING",
            paper: "clustering caches at 67.1–96.3% across Fig. 19 sizes",
            goal: Goal::Band(0.671, 0.963),
            pass_tol: 0.0,
            warn_tol: 0.05,
            invariant: true,
            extract: |r| num(r.get("serve-replay")?, &["clustering_hit_rate"]),
        },
        TargetSpec {
            figure: "serve-replay",
            metric: "edge hit rate, ZIPF",
            paper: "the ZIPF workload is near-perfectly cacheable (≥ 99%)",
            goal: Goal::Min(0.99),
            pass_tol: 0.0,
            warn_tol: 0.01,
            invariant: true,
            extract: |r| num(r.get("serve-replay")?, &["zipf_hit_rate"]),
        },
        TargetSpec {
            figure: "serve-replay",
            metric: "handler panics escaped",
            paper: "injected worker panics must never escape a handler",
            goal: Goal::Value(0.0),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| num(r.get("serve-replay")?, &["panics_escaped"]),
        },
        TargetSpec {
            figure: "serve-replay",
            metric: "recovered after chaos window",
            paper: "the breaker closes and fresh serving resumes (probe clean)",
            goal: Goal::Min(1.0),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| num(r.get("serve-replay")?, &["recovered"]),
        },
        TargetSpec {
            figure: "serve-replay",
            metric: "p99 virtual latency (ms)",
            paper: "deadlines bound tail latency even during the fault window",
            goal: Goal::Band(1.0, 200.0),
            pass_tol: 0.0,
            warn_tol: 0.5,
            invariant: true,
            extract: |r| num(r.get("serve-replay")?, &["p99_virtual_ms"]),
        },
        // SLO burn-rate grading: the chaos window must push the error
        // budget hard enough to trip the fast-burn alert, the alert
        // must clear before the chaos replay ends, and the recovery
        // probe must meet the availability objective outright. All
        // three run on virtual time, so they are scale-free invariants.
        TargetSpec {
            figure: "serve-replay",
            metric: "fast-burn alert fired in chaos",
            paper: "a 10x error-budget burn must page within its short window",
            goal: Goal::Min(1.0),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| num(r.get("serve-replay")?, &["slo", "fast_burn_fired"]),
        },
        TargetSpec {
            figure: "serve-replay",
            metric: "fast-burn alert recovered",
            paper: "the alert clears once the window drains past the chaos",
            goal: Goal::Min(1.0),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| num(r.get("serve-replay")?, &["slo", "fast_burn_recovered"]),
        },
        TargetSpec {
            figure: "serve-replay",
            metric: "probe availability (ppm)",
            paper: "post-chaos serving meets the 99.5% availability objective",
            goal: Goal::Min(995_000.0),
            pass_tol: 0.0,
            warn_tol: 0.001,
            invariant: true,
            extract: |r| num(r.get("serve-replay")?, &["slo", "probe_availability_ppm"]),
        },
        // serve-failover: the replicated backing tier must hide replica
        // crashes, partitions, and drift from clients. All rows are
        // invariant — the experiment is scale-free by construction.
        TargetSpec {
            figure: "serve-failover",
            metric: "availability under replica chaos (ppm)",
            paper: "hedged failover keeps availability ≥ 99.5% through replica loss",
            goal: Goal::Min(995_000.0),
            pass_tol: 0.0,
            warn_tol: 0.001,
            invariant: true,
            extract: |r| num(r.get("serve-failover")?, &["availability_ppm"]),
        },
        TargetSpec {
            figure: "serve-failover",
            metric: "hedge rate ceiling",
            paper: "retry budgets cap hedges at ~10% of backing calls",
            goal: Goal::Band(0.0, 0.10),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| num(r.get("serve-failover")?, &["hedge_rate"]),
        },
        TargetSpec {
            figure: "serve-failover",
            metric: "post-rejoin rankings fingerprint match",
            paper: "anti-entropy restores bit-identical rankings after rejoin",
            goal: Goal::Min(1.0),
            pass_tol: 0.0,
            warn_tol: 0.0,
            invariant: true,
            extract: |r| num(r.get("serve-failover")?, &["fingerprint_match"]),
        },
    ]
}

// ---- Evaluation --------------------------------------------------------

/// Relative error of `observed` against `goal`: distance to the value,
/// to the nearest band edge (0 inside), or below the floor (0 at or
/// above). A floor of exactly 0 grades any shortfall as full error.
fn relative_error(goal: Goal, observed: f64) -> f64 {
    match goal {
        Goal::Value(target) => {
            if target == 0.0 {
                f64::from(u8::from(observed != 0.0))
            } else {
                (observed - target).abs() / target.abs()
            }
        }
        Goal::Band(lo, hi) => {
            if observed < lo {
                (lo - observed) / lo.abs().max(f64::EPSILON)
            } else if observed > hi {
                (observed - hi) / hi.abs().max(f64::EPSILON)
            } else {
                0.0
            }
        }
        Goal::Min(floor) => {
            if observed >= floor {
                0.0
            } else if floor == 0.0 {
                1.0
            } else {
                (floor - observed) / floor.abs()
            }
        }
    }
}

/// Loads every `<experiment>.json` in `dir` into an id-keyed map,
/// validating each file against [`crate::schema`].
///
/// Damage degrades gracefully: an unreadable, unparseable or
/// schema-invalid file is skipped (its dashboard rows grade MISSING) and
/// a WARN line describing the skip is returned alongside the map. Only
/// an unreadable *directory* is an error.
pub fn load_results(dir: &str) -> std::io::Result<(BTreeMap<String, Value>, Vec<String>)> {
    let mut results = BTreeMap::new();
    let mut warnings = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                warnings.push(format!(
                    "WARN: skipping {}: unreadable: {e}",
                    path.display()
                ));
                continue;
            }
        };
        let value = match serde_json::from_str::<Value>(&text) {
            Ok(value) => value,
            Err(e) => {
                warnings.push(format!("WARN: skipping {}: not JSON: {e}", path.display()));
                continue;
            }
        };
        if let Err(reason) = crate::schema::validate(stem, &value) {
            warnings.push(format!("WARN: skipping {}: {reason}", path.display()));
            continue;
        }
        results.insert(stem.to_string(), value);
    }
    Ok((results, warnings))
}

/// Reads the `"scale"` field of a `--metrics` snapshot (1 if absent).
pub fn scale_of_metrics(text: &str) -> u32 {
    serde_json::from_str::<Value>(text)
        .ok()
        .and_then(|v| v.get("scale")?.as_u64())
        .map_or(1, |s| s.max(1) as u32)
}

/// Grades every target against `results`. `scale > 1` marks a scaled-
/// down run: non-invariant FAILs downgrade to WARN.
pub fn evaluate(results: &BTreeMap<String, Value>, scale: u32) -> Vec<ReportRow> {
    targets()
        .into_iter()
        .map(|spec| {
            let observed = (spec.extract)(results);
            let (rel_err, verdict) = match observed {
                None => (None, Verdict::Missing),
                Some(obs) => {
                    let err = relative_error(spec.goal, obs);
                    // A scaled-down run only FAILs on scale-independent
                    // invariants; everything else degrades to WARN.
                    let verdict = if err <= spec.pass_tol {
                        Verdict::Pass
                    } else if err <= spec.warn_tol || (scale > 1 && !spec.invariant) {
                        Verdict::Warn
                    } else {
                        Verdict::Fail
                    };
                    (Some(err), verdict)
                }
            };
            ReportRow {
                figure: spec.figure,
                metric: spec.metric,
                paper: spec.paper,
                observed,
                rel_err,
                verdict,
                invariant: spec.invariant,
            }
        })
        .collect()
}

/// True when any row graded FAIL (the report's nonzero-exit condition).
pub fn has_fail(rows: &[ReportRow]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Fail)
}

fn fmt_opt(value: Option<f64>) -> String {
    value.map_or_else(|| "—".to_string(), |v| format!("{v:.3}"))
}

fn fmt_err(value: Option<f64>) -> String {
    value.map_or_else(|| "—".to_string(), |v| format!("{:.1}%", v * 100.0))
}

fn counts(rows: &[ReportRow]) -> (usize, usize, usize, usize) {
    let tally = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    (
        tally(Verdict::Pass),
        tally(Verdict::Warn),
        tally(Verdict::Fail),
        tally(Verdict::Missing),
    )
}

/// Renders the dashboard as aligned terminal text.
pub fn render_text(rows: &[ReportRow], scale: u32) -> String {
    let mut out = String::new();
    writeln!(out, "paper-fidelity report (scale 1/{scale})").unwrap();
    writeln!(out, "{}", "-".repeat(78)).unwrap();
    for row in rows {
        let marker = if row.invariant { "*" } else { " " };
        writeln!(
            out,
            "{:<7} {:<8}{marker}{:<34} obs {:>8}  err {:>7}",
            row.verdict.label(),
            row.figure,
            row.metric,
            fmt_opt(row.observed),
            fmt_err(row.rel_err),
        )
        .unwrap();
    }
    writeln!(out, "{}", "-".repeat(78)).unwrap();
    let (pass, warn, fail, missing) = counts(rows);
    writeln!(
        out,
        "{pass} pass, {warn} warn, {fail} fail, {missing} missing \
         (* = scale-independent invariant)"
    )
    .unwrap();
    out
}

/// Renders the dashboard as a markdown table (the CI artifact).
pub fn render_markdown(rows: &[ReportRow], scale: u32) -> String {
    let mut out = String::new();
    writeln!(out, "# Paper-fidelity report\n").unwrap();
    writeln!(out, "Run at scale 1/{scale}. Rows marked **inv** are").unwrap();
    writeln!(
        out,
        "scale-independent invariants; other rows downgrade FAIL→WARN when scale > 1.\n"
    )
    .unwrap();
    writeln!(
        out,
        "| Verdict | Figure | Metric | Paper target | Observed | Rel. error |"
    )
    .unwrap();
    writeln!(out, "|---|---|---|---|---|---|").unwrap();
    for row in rows {
        let metric = if row.invariant {
            format!("{} (**inv**)", row.metric)
        } else {
            row.metric.to_string()
        };
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} |",
            row.verdict.label(),
            row.figure,
            metric,
            row.paper,
            fmt_opt(row.observed),
            fmt_err(row.rel_err),
        )
        .unwrap();
    }
    let (pass, warn, fail, missing) = counts(rows);
    writeln!(
        out,
        "\n**{pass} pass, {warn} warn, {fail} fail, {missing} missing.**"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn relative_error_value() {
        assert!(relative_error(Goal::Value(2.0), 2.0).abs() < 1e-12);
        assert!((relative_error(Goal::Value(2.0), 1.0) - 0.5).abs() < 1e-12);
        assert!((relative_error(Goal::Value(2.0), 3.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn relative_error_band_zero_inside_edges_inclusive() {
        assert_eq!(relative_error(Goal::Band(0.7, 0.9), 0.8), 0.0);
        assert_eq!(relative_error(Goal::Band(0.7, 0.9), 0.7), 0.0);
        assert_eq!(relative_error(Goal::Band(0.7, 0.9), 0.9), 0.0);
        let below = relative_error(Goal::Band(0.7, 0.9), 0.63);
        assert!((below - 0.1).abs() < 1e-9, "{below}");
        let above = relative_error(Goal::Band(0.7, 0.9), 0.99);
        assert!((above - 0.1).abs() < 1e-9, "{above}");
    }

    #[test]
    fn relative_error_min_floor() {
        assert_eq!(relative_error(Goal::Min(1.0), 3.0), 0.0);
        assert_eq!(relative_error(Goal::Min(1.0), 1.0), 0.0);
        assert!((relative_error(Goal::Min(1.0), 0.5) - 0.5).abs() < 1e-12);
        // A floor of 0 can't divide; any shortfall is full error.
        assert_eq!(relative_error(Goal::Min(0.0), -0.1), 1.0);
        assert_eq!(relative_error(Goal::Min(0.0), 0.0), 0.0);
    }

    #[test]
    fn missing_results_grade_missing_not_fail() {
        let rows = evaluate(&BTreeMap::new(), 1);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
        assert!(!has_fail(&rows));
    }

    #[test]
    fn scale_downgrades_noninvariant_fails_only() {
        let mut results = BTreeMap::new();
        // Affinity below baseline: fails the invariant at any scale and
        // puts the lift target far outside its warn band.
        let depth1 = json!({"depth": 1u32, "mean_affinity": 0.05, "random_walk": 0.5});
        results.insert("fig6".to_string(), json!({ "depths": vec![depth1] }));
        let rows = evaluate(&results, 1);
        let full: Vec<&ReportRow> = rows.iter().filter(|r| r.figure == "fig6").collect();
        assert!(full
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.invariant));
        assert!(full
            .iter()
            .any(|r| r.verdict == Verdict::Fail && !r.invariant));
        let scaled = evaluate(&results, 64);
        for row in scaled.iter().filter(|r| r.figure == "fig6") {
            if row.invariant {
                assert_eq!(row.verdict, Verdict::Fail, "invariants still fail");
            } else {
                assert_ne!(row.verdict, Verdict::Fail, "{} downgraded", row.metric);
            }
        }
    }

    #[test]
    fn quarantined_chunks_warn_but_never_fail() {
        let row_for = |results: &BTreeMap<String, Value>| {
            evaluate(results, 1)
                .into_iter()
                .find(|r| r.metric == "spill chunks quarantined")
                .expect("streaming row present")
                .verdict
        };
        // Without any fig3 results the row cannot be graded at all.
        assert_eq!(row_for(&BTreeMap::new()), Verdict::Missing);
        // An in-memory run never writes the block: no spill layer,
        // vacuously zero quarantined chunks.
        let mut results = BTreeMap::new();
        results.insert("fig3".to_string(), json!({"stores": Vec::<u64>::new()}));
        assert_eq!(row_for(&results), Verdict::Pass);
        // A clean streaming run passes.
        results.insert(
            "fig3".to_string(),
            json!({"stores": Vec::<u64>::new(), "streaming": {"quarantined_chunks": 0}}),
        );
        assert_eq!(row_for(&results), Verdict::Pass);
        // Quarantined data is loss worth surfacing, but the fold already
        // recovered: WARN, never FAIL.
        results.insert(
            "fig3".to_string(),
            json!({"stores": Vec::<u64>::new(), "streaming": {"quarantined_chunks": 3}}),
        );
        assert_eq!(row_for(&results), Verdict::Warn);
    }

    #[test]
    fn renders_include_every_row() {
        let rows = evaluate(&BTreeMap::new(), 1);
        let text = render_text(&rows, 1);
        let md = render_markdown(&rows, 1);
        for row in &rows {
            assert!(text.contains(row.metric), "text missing {}", row.metric);
            assert!(md.contains(row.metric), "md missing {}", row.metric);
        }
        assert!(md.contains("| MISSING |"));
    }

    #[test]
    fn every_target_names_a_registered_experiment() {
        // A mistyped figure id would grade MISSING on every run.
        for spec in targets() {
            assert!(
                crate::experiments::find(spec.figure).is_some(),
                "target {:?} names unregistered experiment {}",
                spec.metric,
                spec.figure
            );
        }
    }

    #[test]
    fn scale_of_metrics_reads_field() {
        assert_eq!(scale_of_metrics("{\"scale\": 64}"), 64);
        assert_eq!(scale_of_metrics("{}"), 1);
        assert_eq!(scale_of_metrics("not json"), 1);
    }
}
