//! The crawl-recovery experiment: the fault-tolerance layer exercised
//! end to end.
//!
//! The paper's two-month campaigns survived crawler crashes, proxy
//! churn and partial page corruption (§2.2); this harness reproduces
//! that operating regime. One campaign is killed at injected crash
//! points, has a byte of its on-disk journal flipped between runs, and
//! is resumed until it completes — then the recovered dataset is
//! required to be byte-identical to an uninterrupted reference run.
//! The tail of the report demonstrates graceful degradation: snapshots
//! are deleted from the recovered dataset and the analysis re-run on
//! gap-repaired data with coverage annotations.

use crate::experiments::Output;
use crate::stores::Stores;
use appstore_core::faults::{
    with_injector, FaultInjector, FaultKind, FaultPlan as InjectedFaultPlan, FaultTrigger,
};
use appstore_core::{assess, repair_gaps, Dataset, Day, GapRepair, Seed};
use appstore_crawler::{
    canonicalize, read_journal_lossy, run_campaign_resumable, CampaignError, CampaignFaultPlan,
    FaultPlan, MarketplaceServer, ProxyPool, Region, ResumeOutcome, ServerPolicy,
};
use appstore_models::{
    fit_clustering, fit_clustering_checkpointed, CandidateBudget, CoarseMode, FitSpec,
    SITE_FIT_JOURNAL_APPEND, SITE_FIT_REFINE,
};
use serde_json::json;

/// Same transport fault rates as the `crawl` experiment.
const FAULTS: FaultPlan = FaultPlan {
    drop_chance: 0.05,
    corrupt_chance: 0.05,
};

fn campaign_run(
    server: &MarketplaceServer<'_>,
    truth: &Dataset,
    crashes: CampaignFaultPlan,
    seed: &Seed,
    journal: &mut Vec<u8>,
) -> (Result<ResumeOutcome, CampaignError>, ProxyPool) {
    // A fresh pool per run: the dead process's breaker state and hold
    // times do not survive a restart.
    let mut pool = ProxyPool::planetlab(40, 60);
    let result = run_campaign_resumable(
        server,
        truth,
        &mut pool,
        Some(Region::China),
        FAULTS,
        crashes,
        seed.child("campaign"),
        journal,
    );
    (result, pool)
}

/// Flips one decimal digit somewhere past the journal's midpoint,
/// simulating at-rest corruption between two runs of the crawler.
fn corrupt_one_byte(journal: &mut [u8]) -> Option<usize> {
    let start = journal.len() / 2;
    let i = (start..journal.len()).find(|&i| journal[i].is_ascii_digit())?;
    journal[i] = if journal[i] == b'9' {
        b'0'
    } else {
        journal[i] + 1
    };
    Some(i)
}

/// `crawl-recovery`: kill/corrupt/resume until convergence, then repair
/// an artificially degraded dataset and re-run the popularity fit.
pub fn run(stores: &Stores, seed: Seed) -> Output {
    let truth = &stores.anzhi().store.dataset;
    let server = MarketplaceServer::new(
        truth,
        ServerPolicy {
            requests_per_second: 2_000.0,
            burst: 4_000,
            china_only: true,
            ..ServerPolicy::default()
        },
    );
    let day_count = truth.snapshots.len() as u32;

    // The reference: the identical campaign, never interrupted.
    let mut reference_journal = Vec::new();
    let (reference, _) = campaign_run(
        &server,
        truth,
        CampaignFaultPlan::NONE,
        &seed,
        &mut reference_journal,
    );
    let reference = reference.expect("uninterrupted campaign completes");

    // The faulty campaign: crash right after the first checkpoint, flip
    // a journal byte while the process is down, crash again mid-day
    // halfway through, and finally run to completion.
    let schedule = [
        CampaignFaultPlan {
            crash_after_day: Some(0),
            crash_mid_day: None,
        },
        CampaignFaultPlan {
            crash_after_day: None,
            crash_mid_day: Some(day_count / 2),
        },
        CampaignFaultPlan::NONE,
    ];

    let mut lines = Vec::new();
    lines.push(format!(
        "store: {} ({} days, {:.0}% drop / {:.0}% corrupt, china-only)",
        truth.store.name,
        day_count,
        FAULTS.drop_chance * 100.0,
        FAULTS.corrupt_chance * 100.0
    ));
    lines.push(format!(
        "reference run: {} requests, {} retries",
        reference.report.requests, reference.report.retries
    ));

    let mut journal = Vec::new();
    let mut runs = Vec::new();
    let mut final_run = None;
    for (i, crashes) in schedule.iter().enumerate() {
        // The journal as this run finds it on startup.
        let found = read_journal_lossy(journal.as_slice()).1;
        let (result, pool) = campaign_run(&server, truth, *crashes, &seed, &mut journal);
        let resumed_at = match &result {
            Ok(outcome) => outcome.resumed_at,
            Err(_) => found.trusted_days().len(),
        };
        let outcome_text = match &result {
            Ok(_) => "completed".to_string(),
            Err(CampaignError::Crashed { day }) => format!("killed at day {}", day.0),
            Err(e) => format!("failed: {e}"),
        };
        lines.push(format!(
            "run {}: found {} journal lines ({} quarantined), resumed at day {:>2}, {}",
            i + 1,
            found.lines_total,
            found.quarantined.len(),
            resumed_at,
            outcome_text,
        ));
        runs.push(json!({
            "run": i + 1,
            "resumed_at": resumed_at,
            "outcome": outcome_text,
            "journal_lines_found": found.lines_total,
            "quarantined": found.quarantined.len(),
        }));
        if let Ok(outcome) = result {
            final_run = Some((outcome, pool));
            break;
        }
        if i == 0 {
            if let Some(at) = corrupt_one_byte(&mut journal) {
                lines.push(format!("  ...journal byte {at} flipped while down"));
            }
        }
    }
    let (recovered, pool) = final_run.expect("final run completes");

    // Convergence: the journal replayed after all that abuse must equal
    // the uninterrupted run, record for record.
    let mut reference_dataset = reference.dataset;
    canonicalize(&mut reference_dataset);
    let converged = recovered.dataset == reference_dataset;
    let lossless = recovered.dataset.snapshots == truth.snapshots;
    let quality = assess(&recovered.dataset);
    lines.push(format!("converged to reference dataset: {converged}"));
    lines.push(format!("lossless vs ground truth:       {lossless}"));
    lines.push(format!("recovered dataset: {}", quality.annotation()));

    // Circuit-breaker health of the final run's pool.
    let health = pool.health();
    let trips: u64 = health.iter().map(|h| h.quarantines).sum();
    let banned = health.iter().filter(|h| h.banned).count();
    let worst = health
        .iter()
        .map(|h| h.score())
        .fold(1.0f64, |a, b| a.min(b));
    lines.push(format!(
        "proxy pool: {} nodes, {} breaker trips, {} banned, worst score {:.2}",
        health.len(),
        trips,
        banned,
        worst
    ));

    // Graceful degradation: delete two interior days as if those crawls
    // had been unrecoverable, then repair and compare the synthesized
    // snapshots against what was actually observed.
    let victims: Vec<Day> = {
        let n = recovered.dataset.snapshots.len();
        [n / 3, 2 * n / 3]
            .iter()
            .map(|&i| recovered.dataset.snapshots[i.clamp(1, n.saturating_sub(2))].day)
            .collect()
    };
    let mut degraded = recovered.dataset.clone();
    degraded.snapshots.retain(|s| !victims.contains(&s.day));
    let degraded_quality = assess(&degraded);
    lines.push(format!("degraded copy: {}", degraded_quality.annotation()));
    let probe = victims[victims.len() - 1];
    let actual = recovered
        .dataset
        .snapshots
        .iter()
        .find(|s| s.day == probe)
        .map(|s| s.total_downloads())
        .unwrap_or(0);
    let mut repairs = Vec::new();
    for strategy in [GapRepair::CarryForward, GapRepair::LinearInterpolation] {
        let (repaired, report) = repair_gaps(&degraded, strategy);
        let estimate = repaired
            .snapshots
            .iter()
            .find(|s| s.day == probe)
            .map(|s| s.total_downloads())
            .unwrap_or(0);
        let error = if actual > 0 {
            (estimate as f64 - actual as f64) / actual as f64
        } else {
            0.0
        };
        lines.push(format!(
            "  {} -> day {} downloads {} vs observed {} ({:+.2}%)",
            report.annotation(),
            probe.0,
            estimate,
            actual,
            error * 100.0
        ));
        repairs.push(json!({
            "strategy": report.annotation(),
            "probe_day": probe.0,
            "estimated_downloads": estimate,
            "observed_downloads": actual,
            "relative_error": error,
        }));
    }

    Output {
        lines,
        json: json!({
            "days": day_count,
            "reference_requests": reference.report.requests,
            "runs": runs,
            "converged": converged,
            "lossless": lossless,
            "coverage": quality.annotation(),
            "breaker_trips": trips,
            "proxies_banned": banned,
            "worst_proxy_score": worst,
            "repairs": repairs,
        }),
    }
}

/// The spec the recovery fit uses: a compact clustering grid with the
/// thread count pinned to 2 so every task/fault roll — and therefore the
/// whole metrics snapshot — is machine-independent.
fn recovery_fit_spec(clusters: usize) -> FitSpec {
    FitSpec {
        zipf_exponents: vec![1.0, 1.2, 1.4, 1.6],
        cluster_exponents: vec![1.2, 1.8],
        ps: vec![0.5, 0.9],
        user_fractions: vec![0.5, 1.0, 2.0],
        clusters,
        threads: 2,
        refine_top: 3,
        replications: 1,
        coarse: CoarseMode::Auto,
    }
}

fn journal_lines(journal: &[u8]) -> usize {
    journal
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count()
}

/// `fit-recovery`: kill the clustering fit mid-grid under an injected
/// fault plan, resume it from the sealed journal, and require the
/// recovered winner to be bit-identical to an uninterrupted fit.
///
/// The chaos schedule mirrors `crawl-recovery`'s kill/corrupt/resume
/// loop, but the faults come from [`appstore_core::faults`]: an injected
/// I/O error kills the first run mid-screening, the second run survives
/// an isolated worker panic (retried transparently) before a torn
/// journal write kills it mid-refinement, and the third run resumes to
/// completion. A final phase injects a pathological per-candidate
/// latency and shows the deadline budget downgrading that candidate
/// instead of stalling the fit.
pub fn fit_recovery(stores: &Stores, seed: Seed) -> Output {
    let bundle = stores.anzhi();
    let observed = bundle.store.dataset.final_downloads_ranked();
    let spec = recovery_fit_spec(crate::experiments::model_fit::feasible_clusters(
        bundle.profile.categories,
        observed.len(),
    ));
    let grid_len = (spec.zipf_exponents.len()
        * spec.cluster_exponents.len()
        * spec.ps.len()
        * spec.user_fractions.len()) as u64;
    let fit_seed = seed.child("fit-recovery");

    let mut lines = Vec::new();
    lines.push(format!(
        "store: {} ({} ranks, {} grid candidates, refine top {})",
        bundle.store.dataset.store.name,
        observed.len(),
        grid_len,
        spec.refine_top
    ));

    // The reference: the same fit, never interrupted and never journaled.
    let reference = fit_clustering(&observed, &spec, fit_seed).expect("nonempty curve");
    lines.push(format!(
        "reference fit: z_r={:.2} z_c={:.2} p={:.2} U={} distance={:.4}",
        reference.zipf_exponent,
        reference.cluster_exponent,
        reference.p,
        reference.users,
        reference.distance
    ));

    // The chaos schedule. Each entry is one process lifetime: a fault
    // plan installed for the duration of one checkpointed run against
    // the same persistent journal.
    let schedule: Vec<(&str, InjectedFaultPlan)> = vec![
        (
            "I/O error mid-screening",
            InjectedFaultPlan::seeded(1).rule(
                SITE_FIT_JOURNAL_APPEND,
                FaultKind::IoError,
                FaultTrigger::AtIndex(grid_len / 2),
            ),
        ),
        (
            "worker panic + torn write in refinement",
            InjectedFaultPlan::seeded(2)
                .rule(
                    appstore_core::faults::SITE_PAR_TASK,
                    FaultKind::WorkerPanic,
                    FaultTrigger::Probability(0.4),
                )
                .rule(
                    SITE_FIT_JOURNAL_APPEND,
                    FaultKind::PartialWrite,
                    FaultTrigger::AtIndex(grid_len + 1),
                ),
        ),
        ("clean resume", InjectedFaultPlan::none()),
    ];

    let mut journal = Vec::new();
    let mut runs = Vec::new();
    let mut fault_log = Vec::new();
    let mut recovered = None;
    for (i, (label, plan)) in schedule.into_iter().enumerate() {
        let found = journal_lines(&journal);
        let injector = FaultInjector::new(plan);
        let result = with_injector(&injector, || {
            fit_clustering_checkpointed(
                &observed,
                &spec,
                fit_seed,
                CandidateBudget::UNLIMITED,
                &mut journal,
            )
        });
        let outcome_text = match &result {
            Ok(_) => "completed".to_string(),
            Err(e) => format!("killed: {e}"),
        };
        let events = injector.events();
        lines.push(format!(
            "run {} [{}]: found {} journal lines, {} faults fired, {}",
            i + 1,
            label,
            found,
            events.len(),
            outcome_text
        ));
        runs.push(json!({
            "run": i + 1,
            "plan": label,
            "journal_lines_found": found,
            "faults_fired": events.len(),
            "outcome": outcome_text,
        }));
        fault_log.extend(events);
        if let Ok(Some(outcome)) = result {
            recovered = Some(outcome);
            break;
        }
    }
    let recovered = recovered.expect("clean resume completes");
    let converged =
        recovered == reference && recovered.distance.to_bits() == reference.distance.to_bits();
    lines.push(format!(
        "resumed winner: z_r={:.2} z_c={:.2} p={:.2} U={} distance={:.4}",
        recovered.zipf_exponent,
        recovered.cluster_exponent,
        recovered.p,
        recovered.users,
        recovered.distance
    ));
    lines.push(format!(
        "converged bit-identically to reference: {converged}"
    ));

    // Deadline budgets: one shortlist candidate is made pathologically
    // slow; the budget downgrades it (WARN on stderr) and the fit still
    // converges to a winner.
    let slow_plan = InjectedFaultPlan::seeded(3).rule(
        SITE_FIT_REFINE,
        FaultKind::Delay { virtual_ms: 30_000 },
        FaultTrigger::AtIndex(0),
    );
    let injector = FaultInjector::new(slow_plan);
    let mut deadline_journal = Vec::new();
    let degraded = with_injector(&injector, || {
        fit_clustering_checkpointed(
            &observed,
            &spec,
            fit_seed,
            CandidateBudget::with_refine_deadline(1_000),
            &mut deadline_journal,
        )
    })
    .expect("journal healthy")
    .expect("nonempty curve");
    let downgrades = injector.events().len();
    fault_log.extend(injector.events());
    lines.push(format!(
        "deadline run: {downgrades} candidate(s) downgraded to screened-only, \
         winner distance={:.4}",
        degraded.distance
    ));

    let fault_log_json: Vec<_> = fault_log
        .iter()
        .map(|e| {
            json!({
                "site": e.site,
                "index": e.index,
                "attempt": e.attempt,
                "kind": e.kind.label(),
            })
        })
        .collect();

    Output {
        lines,
        json: json!({
            "grid_candidates": grid_len,
            "runs": runs,
            "converged": converged,
            "winner_distance": recovered.distance,
            "deadline_downgrades": downgrades,
            "degraded_distance": degraded.distance,
            "fault_log": fault_log_json,
        }),
    }
}
