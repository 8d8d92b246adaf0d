//! The serve-failover experiment: the replicated backing tier under
//! replica chaos.
//!
//! A 3-replica backing tier fronts the Fig. 19 store while the §5
//! APP-CLUSTERING workload replays against it. First a short *unfaulted*
//! reference replay pins the authoritative rankings fingerprint. Then
//! the chaos replay arms a replica-level fault schedule — one replica
//! silently **drifts** its rankings, later **crashes** outright, a
//! second replica is **partitioned** for a stretch of virtual time, and
//! the third suffers random **slowdowns** — plus a pair of injected
//! handler panics. The serving layer must hide all of it: health-checked
//! routing steers traffic off sick replicas once their breakers trip,
//! hedged requests (capped by per-replica retry budgets) absorb the
//! failures in between, and availability excluding explicit sheds must
//! stay at or above 99.5%. After the replay an admin **rejoin** heals
//! the crashed/partitioned replicas and an **anti-entropy** pass
//! fingerprints every replica against the authoritative payload,
//! repairing exactly the drifted one — after which the served rankings
//! page must be bit-identical to the unfaulted run, and a final probe
//! replay must come back perfectly clean.
//!
//! Everything runs on virtual time with seeded routing and hedge coins,
//! so the output is bit-identical across machines, thread counts, and
//! scales.

use crate::experiments::serve_replay::{
    json_u64_field, rank_ordered_dataset, scrape, slo_json, stats_json,
};
use crate::experiments::{cache::fig19_params, Output};
use appstore_core::faults::{with_injector, FaultInjector, FaultKind, FaultPlan, FaultTrigger};
use appstore_core::Seed;
use appstore_models::{ModelKind, Simulator};
use appstore_serve::{
    fingerprint64, replay, replica_site, with_server, ReplayConfig, ServeConfig, Workload,
    SITE_SERVE_HANDLER,
};
use serde_json::json;

/// Replicas in the backing tier.
const REPLICAS: usize = 3;

/// Edge cache size as a fraction of the app population (the same 15%
/// point serve-replay uses).
const CACHE_FRACTION: f64 = 0.15;

/// Requests replayed in each phase. The chaos slice is long enough for
/// every scheduled replica fault to fire (they key off the tier's
/// backing-call counter, which advances roughly once per edge miss).
const REFERENCE_EVENTS: usize = 20_000;
const CHAOS_EVENTS: usize = 60_000;
const PROBE_EVENTS: usize = 2_000;

/// The replica fault schedule, in tier backing-call indices. The tier
/// sees roughly 2.7k backing calls over the 60k-request chaos slice
/// (the edge absorbs ~95%), so every index below sits well inside that.
const DRIFT_AT: u64 = 500;
const CRASH_AT: u64 = 1_200;
const PARTITION_AT: u64 = 1_800;
/// How long the partition lasts, in virtual ms.
const PARTITION_MS: u64 = 30_000;
/// Injected per-call slowdown on replica 0, and how often it fires.
const SLOW_MS: u64 = 400;
const SLOW_PROBABILITY: f64 = 0.02;

/// Handler panics mid-chaos, at fixed request indices: the tier must
/// not leak them even while replicas are failing underneath.
const PANIC_INDICES: [u64; 2] = [10_050, 30_050];

/// Disjoint `X-Trace-Id` bases (multiples of the trace sampling
/// period), continuing serve-replay's allocation.
const TRACE_BASE_REFERENCE: u64 = 40_000_000;
const TRACE_BASE_FAILOVER: u64 = 50_000_000;
const TRACE_BASE_PROBE: u64 = 60_000_000;

fn serve_config(seed: Seed, cache_apps: usize) -> ServeConfig {
    let mut config = ServeConfig::replay_default(seed.child("server"));
    config.cache_capacity = cache_apps;
    config.warm_apps = cache_apps;
    config.replicas = REPLICAS;
    config
}

/// The replica chaos schedule: drift, then crash, on replica 1; a
/// healing partition on replica 2; random slowness on replica 0; two
/// handler panics for good measure.
fn failover_plan() -> FaultPlan {
    FaultPlan::seeded(2013)
        .rule(
            &replica_site(1),
            FaultKind::ReplicaDrift,
            FaultTrigger::AtIndex(DRIFT_AT),
        )
        .rule(
            &replica_site(1),
            FaultKind::ReplicaCrash,
            FaultTrigger::AtIndex(CRASH_AT),
        )
        .rule(
            &replica_site(2),
            FaultKind::ReplicaPartition {
                virtual_ms: PARTITION_MS,
            },
            FaultTrigger::AtIndex(PARTITION_AT),
        )
        .rule(
            &replica_site(0),
            FaultKind::ReplicaSlow {
                virtual_ms: SLOW_MS,
            },
            FaultTrigger::Probability(SLOW_PROBABILITY),
        )
        .rule(
            SITE_SERVE_HANDLER,
            FaultKind::WorkerPanic,
            FaultTrigger::AtIndex(PANIC_INDICES[0]),
        )
        .rule(
            SITE_SERVE_HANDLER,
            FaultKind::WorkerPanic,
            FaultTrigger::AtIndex(PANIC_INDICES[1]),
        )
}

/// `serve-failover`: replica chaos, hedged failover, anti-entropy.
pub fn run(seed: Seed) -> Output {
    let params = fig19_params();
    let apps = params.population.apps;
    let cache_apps = ((apps as f64 * CACHE_FRACTION).round() as usize).max(1);
    let dataset = rank_ordered_dataset(apps, params.clusters);
    let fo_seed = seed.child("serve-failover");

    let trace = Simulator::for_kind(ModelKind::AppClustering, params)
        .simulate_trace(fo_seed.child("trace"), 30);
    let full = Workload::from_trace("failover", &trace.events);
    let chaos_events = full.events[..CHAOS_EVENTS.min(full.events.len())].to_vec();

    let mut lines = Vec::new();
    lines.push(format!(
        "store: {} apps behind {} replicas, edge cache {} apps ({:.0}%); clustering workload from fig19",
        apps,
        REPLICAS,
        cache_apps,
        CACHE_FRACTION * 100.0
    ));

    // Phase 1 — the unfaulted reference: same tier shape, no chaos.
    // Pins the authoritative rankings payload the post-rejoin server
    // must reproduce bit for bit.
    let reference_workload = Workload {
        name: "reference".into(),
        events: chaos_events[..REFERENCE_EVENTS.min(chaos_events.len())].to_vec(),
    };
    let config = serve_config(fo_seed, cache_apps);
    let mut reference_config = ReplayConfig::new(fo_seed.child("client").child("reference"));
    reference_config.trace_base = TRACE_BASE_REFERENCE;
    let (reference_stats, reference_fp) = with_server(&dataset, &config, |handle| {
        let stats =
            replay(handle.addr(), &reference_workload, &reference_config).expect("loopback replay");
        let rankings = scrape(handle.addr(), "/rankings", stats.final_clock_ms);
        (stats, fingerprint64(&rankings.body))
    });
    lines.push(format!(
        "reference replay ({} requests, no faults): hit rate {:>5.1}%, {} sheds; rankings fingerprint {:016x}",
        reference_workload.len(),
        reference_stats.hit_rate() * 100.0,
        reference_stats.sheds(),
        reference_fp
    ));

    // Phase 2 — replica chaos over the full slice, SLO monitor armed.
    let workload = Workload {
        name: "failover-chaos".into(),
        events: chaos_events.clone(),
    };
    let probe_workload = Workload {
        name: "failover-probe".into(),
        events: chaos_events[chaos_events.len() - PROBE_EVENTS.min(chaos_events.len())..].to_vec(),
    };
    let config = serve_config(fo_seed, cache_apps);
    let mut replay_config = ReplayConfig::new(fo_seed.child("client").child("chaos"));
    replay_config.trace_base = TRACE_BASE_FAILOVER;
    replay_config.slo = true;
    let mut probe_config = replay_config.clone();
    probe_config.trace_base = TRACE_BASE_PROBE;
    let injector = FaultInjector::new(failover_plan());
    let (
        chaos,
        healthz_body,
        rejoin_body,
        reconcile_body,
        tier_body,
        post_fp,
        probe,
        panics_caught,
    ) = with_injector(&injector, || {
        with_server(&dataset, &config, |handle| {
            let chaos = replay(handle.addr(), &workload, &replay_config).expect("loopback replay");
            let now_ms = chaos.final_clock_ms;
            // Post-chaos operator sequence: inspect, rejoin the
            // downed replicas, reconcile divergence, re-read the
            // rankings page the clients see.
            let healthz = scrape(handle.addr(), "/healthz", now_ms);
            let rejoin = scrape(handle.addr(), "/admin/rejoin", now_ms + 10);
            let reconcile = scrape(handle.addr(), "/admin/reconcile", now_ms + 20);
            let tier = scrape(handle.addr(), "/admin/tier", now_ms + 30);
            let rankings = scrape(handle.addr(), "/rankings", now_ms + 40);
            // The healed tier must serve the tail of the workload
            // perfectly clean.
            let probe =
                replay(handle.addr(), &probe_workload, &probe_config).expect("loopback replay");
            (
                chaos,
                String::from_utf8_lossy(&healthz.body).into_owned(),
                String::from_utf8_lossy(&rejoin.body).into_owned(),
                String::from_utf8_lossy(&reconcile.body).into_owned(),
                String::from_utf8_lossy(&tier.body).into_owned(),
                fingerprint64(&rankings.body),
                probe,
                handle.panics_caught(),
            )
        })
    });

    let events = injector.events();
    let fired = |kind: &str| events.iter().filter(|e| e.kind.label() == kind).count() as u64;
    let panics_fired = fired("worker-panic");
    let panics_escaped = panics_fired.saturating_sub(panics_caught);
    lines.push(format!(
        "chaos replay ({} requests): drift@{} crash@{} partition@{}+{}ms (tier calls), slow p={} on replica 0",
        workload.len(),
        DRIFT_AT,
        CRASH_AT,
        PARTITION_AT,
        PARTITION_MS,
        SLOW_PROBABILITY
    ));
    lines.push(format!(
        "  replica faults fired: drift={} crash={} partition={} slow={}",
        fired("replica-drift"),
        fired("replica-crash"),
        fired("replica-partition"),
        fired("replica-slow")
    ));
    lines.push(format!(
        "  server shed {} (503={} 504={}), {} client errors, hit rate {:>5.1}%, p99 {} virtual ms",
        chaos.sheds(),
        chaos.shed_503,
        chaos.shed_504,
        chaos.server_errors,
        chaos.hit_rate() * 100.0,
        chaos.p99_virtual_ms()
    ));
    lines.push(format!(
        "  panics: {} fired / {} caught / {} escaped",
        panics_fired, panics_caught, panics_escaped
    ));

    // Hedge accounting from /admin/tier: hedges fired can never exceed
    // the budget ceiling burst×replicas + ratio×calls (ratio and burst
    // are the HedgePolicy defaults carried by the config).
    let tier_calls = json_u64_field(&tier_body, "calls").unwrap_or(0);
    let hedges_fired = json_u64_field(&tier_body, "hedges_fired").unwrap_or(0);
    let hedges_won = json_u64_field(&tier_body, "hedges_won").unwrap_or(0);
    let hedges_denied = json_u64_field(&tier_body, "hedges_denied").unwrap_or(0);
    let failovers = json_u64_field(&tier_body, "failovers").unwrap_or(0);
    let hedge_budget_cap = (REPLICAS as u64) * config.hedge.budget_burst
        + (config.hedge.budget_ratio * tier_calls as f64) as u64;
    let hedges_within_budget = hedges_fired <= hedge_budget_cap;
    let hedge_rate = if tier_calls == 0 {
        0.0
    } else {
        hedges_fired as f64 / tier_calls as f64
    };
    lines.push(format!(
        "  balancer: {} calls, {} hedges ({} won, {} denied, {} failovers), rate {:.4} -> hedges within budget: {}",
        tier_calls, hedges_fired, hedges_won, hedges_denied, failovers, hedge_rate, hedges_within_budget
    ));

    // Availability excluding explicit sheds, from the SLO monitor.
    let chaos_slo = chaos
        .slo
        .clone()
        .expect("chaos replay runs the SLO monitor");
    let probe_slo = probe
        .slo
        .clone()
        .expect("probe replay runs the SLO monitor");
    let availability_pass = chaos_slo.availability_ppm >= 995_000;
    lines.push(format!(
        "availability under replica chaos: {} ppm (sheds excluded), floor 995000 -> pass: {}",
        chaos_slo.availability_ppm, availability_pass
    ));

    // Post-chaos healing: rejoin, anti-entropy, the fingerprint check.
    let rejoined = json_u64_field(&rejoin_body, "rejoined").unwrap_or(0);
    let checked = json_u64_field(&reconcile_body, "checked").unwrap_or(0);
    let repaired = json_u64_field(&reconcile_body, "repaired").unwrap_or(0);
    let fingerprint_match = post_fp == reference_fp;
    lines.push(format!(
        "post-chaos healthz: {}, then rejoin healed {} replicas; reconcile checked {} repaired {}",
        if healthz_body.contains("\"state\": \"shedding\"") {
            "shedding"
        } else if healthz_body.contains("\"state\": \"stale\"") {
            "stale"
        } else {
            "fresh"
        },
        rejoined,
        checked,
        repaired
    ));
    lines.push(format!(
        "post-rejoin rankings fingerprint {:016x} vs reference {:016x}",
        post_fp, reference_fp
    ));
    lines.push(format!(
        "post-rejoin rankings bit-identical to unfaulted run: {}",
        fingerprint_match
    ));
    let recovered = probe.sheds() == 0 && probe.server_errors == 0 && probe.panics_seen == 0;
    lines.push(format!(
        "recovery probe ({} requests): {} sheds, {} errors, availability {} ppm -> recovered: {}",
        probe_workload.len(),
        probe.sheds(),
        probe.server_errors,
        probe_slo.availability_ppm,
        recovered
    ));

    let fault_log: Vec<_> = events
        .iter()
        .filter(|e| !matches!(e.kind, FaultKind::ReplicaSlow { .. }))
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
            "replicas": REPLICAS,
            "apps": apps,
            "cache_apps": cache_apps,
            "reference": {
                "requests": reference_workload.len(),
                "hit_rate": reference_stats.hit_rate(),
                "fingerprint": format!("{reference_fp:016x}"),
            },
            "chaos": stats_json(&chaos),
            "probe": stats_json(&probe),
            "availability_ppm": chaos_slo.availability_ppm,
            "hedges": {
                "calls": tier_calls,
                "fired": hedges_fired,
                "won": hedges_won,
                "denied": hedges_denied,
                "failovers": failovers,
                "budget_cap": hedge_budget_cap,
                "within_budget": if hedges_within_budget { 1.0 } else { 0.0 },
            },
            "hedge_rate": hedge_rate,
            "reconcile": {
                "rejoined": rejoined,
                "checked": checked,
                "repaired": repaired,
                "post_fingerprint": format!("{post_fp:016x}"),
            },
            "fingerprint_match": if fingerprint_match { 1.0 } else { 0.0 },
            "recovered": if recovered { 1.0 } else { 0.0 },
            "panics_fired": panics_fired,
            "panics_caught": panics_caught,
            "panics_escaped": panics_escaped,
            "slo": {
                "chaos": slo_json(&chaos_slo),
                "probe": slo_json(&probe_slo),
                "availability_ppm": chaos_slo.availability_ppm,
                "probe_availability_ppm": probe_slo.availability_ppm,
            },
            "fault_log": fault_log,
        }),
    }
}
