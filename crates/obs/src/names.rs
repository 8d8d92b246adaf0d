//! The metric, span, and instant-event name registry.
//!
//! Every name the workspace records is declared here as a constant (or,
//! for per-policy cache metrics, a constructor), so a typo'd name is a
//! compile error at the call site instead of a silently empty series.
//! The golden suite closes the loop from the other side: a test asserts
//! that every key in the pinned metrics snapshot satisfies
//! [`is_declared_metric`] / [`is_declared_span_path`], so a name added
//! without a declaration fails CI.

// Counters, gauges, and histograms, grouped by owning crate.

/// Affinity comment streams analyzed.
pub const AFFINITY_STREAMS: &str = "affinity.streams";
/// Affinity (user, depth) samples aggregated.
pub const AFFINITY_SAMPLES: &str = "affinity.samples";

/// `par_map_indexed` invocations.
pub const CORE_PAR_CALLS: &str = "core.par.calls";
/// Total tasks fanned out across all `par_map_indexed` calls.
pub const CORE_PAR_TASKS: &str = "core.par.tasks";
/// Per-worker task count distribution (volatile histogram).
pub const CORE_PAR_WORKER_TASKS: &str = "core.par.worker_tasks";
/// Worker panics caught and retried by `par_map_indexed`.
pub const CORE_PAR_PANICS_ISOLATED: &str = "core.par.panics_isolated";
/// Faults fired by the deterministic fault injector.
pub const FAULTS_INJECTED: &str = "faults.injected";
/// Gap-repair passes executed.
pub const CORE_QUALITY_REPAIRS: &str = "core.quality.repairs";
/// Missing days filled by gap repair.
pub const CORE_QUALITY_GAP_DAYS_FILLED: &str = "core.quality.gap_days_filled";

/// Crawl days completed.
pub const CRAWL_DAYS: &str = "crawl.days";
/// App pages fetched.
pub const CRAWL_APP_PAGES: &str = "crawl.app_pages";
/// Comment pages fetched.
pub const CRAWL_COMMENT_PAGES: &str = "crawl.comment_pages";
/// Total requests issued.
pub const CRAWL_REQUESTS: &str = "crawl.requests";
/// Requests retried.
pub const CRAWL_RETRIES: &str = "crawl.retries";
/// Responses dropped in transit.
pub const CRAWL_DROPPED: &str = "crawl.dropped";
/// Responses corrupted in transit.
pub const CRAWL_CORRUPTED: &str = "crawl.corrupted";
/// Requests rejected by server rate limiting.
pub const CRAWL_RATE_LIMITED: &str = "crawl.rate_limited";
/// Proxies blacklisted by the server.
pub const CRAWL_PROXIES_BANNED: &str = "crawl.proxies_banned";
/// Pages abandoned after retry exhaustion.
pub const CRAWL_FAILED_PAGES: &str = "crawl.failed_pages";
/// Resume position of a resumable campaign (gauge).
pub const CRAWL_RESUME_INDEX: &str = "crawl.resume_index";
/// Proxy-pool permanent bans.
pub const CRAWL_PROXY_BANS: &str = "crawl.proxy.bans";
/// Circuit-breaker trips (also an instant event).
pub const CRAWL_BREAKER_TRIPS: &str = "crawl.breaker.trips";
/// Circuit-breaker closes (also an instant event).
pub const CRAWL_BREAKER_CLOSES: &str = "crawl.breaker.closes";
/// Journal read passes.
pub const CRAWL_JOURNAL_READS: &str = "crawl.journal.reads";
/// Journal lines quarantined as corrupt.
pub const CRAWL_JOURNAL_LINES_QUARANTINED: &str = "crawl.journal.lines_quarantined";
/// Journal records deduplicated on replay.
pub const CRAWL_JOURNAL_RECORDS_DEDUPLICATED: &str = "crawl.journal.records_deduplicated";
/// Journals ending in a truncated tail.
pub const CRAWL_JOURNAL_TRUNCATED_TAILS: &str = "crawl.journal.truncated_tails";

/// Pure-Zipf candidates scored.
pub const FIT_ZIPF_CANDIDATES: &str = "fit.zipf.candidates";
/// ZIPF-at-most-once grid size.
pub const FIT_AMO_GRID_CANDIDATES: &str = "fit.amo.grid_candidates";
/// ZIPF-at-most-once candidates screened.
pub const FIT_AMO_SCREENED: &str = "fit.amo.screened";
/// ZIPF-at-most-once candidates pruned before scoring.
pub const FIT_AMO_PRUNED: &str = "fit.amo.pruned";
/// ZIPF-at-most-once candidates refined by simulation.
pub const FIT_AMO_REFINED: &str = "fit.amo.refined";
/// APP-CLUSTERING grid size.
pub const FIT_CLUSTERING_GRID_CANDIDATES: &str = "fit.clustering.grid_candidates";
/// APP-CLUSTERING candidates screened.
pub const FIT_CLUSTERING_SCREENED: &str = "fit.clustering.screened";
/// APP-CLUSTERING candidates pruned before scoring.
pub const FIT_CLUSTERING_PRUNED: &str = "fit.clustering.pruned";
/// APP-CLUSTERING candidates refined by simulation.
pub const FIT_CLUSTERING_REFINED: &str = "fit.clustering.refined";
/// Feasible candidates kept by the coarse subsample pass for exact
/// re-screening (0 when coarse-to-fine is inactive).
pub const FIT_COARSE_SURVIVORS: &str = "fit.coarse.survivors";
/// Feasible candidates dropped by the coarse subsample pass.
pub const FIT_COARSE_PRUNED: &str = "fit.coarse.pruned";
/// Monte-Carlo replications run by a refinement score.
pub const FIT_SIM_REPLICATIONS: &str = "fit.sim.replications";
/// Screening-cache hits (volatile: workers own private caches).
pub const FIT_CACHE_HITS: &str = "fit.cache.hits";
/// Screening-cache misses (volatile).
pub const FIT_CACHE_MISSES: &str = "fit.cache.misses";
/// Records appended to a checkpointed fit journal.
pub const FIT_JOURNAL_APPENDS: &str = "fit.journal.appends";
/// Fit candidates restored from a journal instead of recomputed.
pub const FIT_JOURNAL_CANDIDATES_RESUMED: &str = "fit.journal.candidates_resumed";
/// Fit-journal lines quarantined as corrupt or unparseable.
pub const FIT_JOURNAL_LINES_QUARANTINED: &str = "fit.journal.lines_quarantined";
/// Refinement candidates downgraded to screened-only by a deadline.
pub const FIT_REFINE_DEADLINE_DOWNGRADES: &str = "fit.refine.deadline_downgrades";

/// Simulated downloads produced.
pub const SIM_DOWNLOADS: &str = "sim.downloads";
/// Sampler draws via the Walker/Vose alias table.
pub const SIM_DRAWS_ALIAS: &str = "sim.draws.alias";
/// Sampler draws via inverse-CDF binary search.
pub const SIM_DRAWS_INVERSE_CDF: &str = "sim.draws.inverse_cdf";

/// Prefetch-eligible downloads observed.
pub const PREFETCH_ELIGIBLE: &str = "prefetch.eligible";
/// Downloads served from the prefetch stage.
pub const PREFETCH_HITS: &str = "prefetch.hits";
/// Total downloads seen by the prefetch experiment.
pub const PREFETCH_DOWNLOADS: &str = "prefetch.downloads";
/// Apps staged ahead of demand.
pub const PREFETCH_STAGED: &str = "prefetch.staged";
/// Staged apps never requested.
pub const PREFETCH_WASTED: &str = "prefetch.wasted";

/// Recommender evaluation passes.
pub const RECOMMEND_EVALUATIONS: &str = "recommend.evaluations";
/// Users scored by the recommender evaluation.
pub const RECOMMEND_USERS_EVALUATED: &str = "recommend.users_evaluated";

/// Break-even curve evaluations.
pub const REVENUE_BREAKEVEN_EVALS: &str = "revenue.breakeven_evals";

/// HTTP requests the serving layer parsed off its sockets.
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Responses served fresh (edge hit or live backing fetch).
pub const SERVE_RESPONSES_FRESH: &str = "serve.responses.fresh";
/// Responses degraded to a stale edge copy.
pub const SERVE_RESPONSES_STALE: &str = "serve.responses.stale";
/// Responses shed (503/504) instead of served.
pub const SERVE_RESPONSES_SHED: &str = "serve.responses.shed";
/// Connections shed at the accept queue (503 + Retry-After).
pub const SERVE_SHEDS_QUEUE: &str = "serve.sheds.queue";
/// Requests shed because their deadline budget ran out (504).
pub const SERVE_SHEDS_DEADLINE: &str = "serve.sheds.deadline";
/// Requests shed because the backing breaker was open and no stale
/// copy existed (503).
pub const SERVE_SHEDS_BREAKER: &str = "serve.sheds.breaker";
/// Handler panics caught at the worker boundary (500, worker survives).
pub const SERVE_PANICS_CAUGHT: &str = "serve.panics.caught";
/// Edge-cache hits on the app-page path.
pub const SERVE_EDGE_HITS: &str = "serve.edge.hits";
/// Edge-cache misses on the app-page path.
pub const SERVE_EDGE_MISSES: &str = "serve.edge.misses";
/// Edge-cache payload evictions.
pub const SERVE_EDGE_EVICTIONS: &str = "serve.edge.evictions";
/// Rankings served from a fresh edge copy.
pub const SERVE_RANKINGS_FRESH: &str = "serve.rankings.fresh";
/// Rankings served stale (stale-while-revalidate degradation).
pub const SERVE_RANKINGS_STALE: &str = "serve.rankings.stale";
/// Calls that reached the backing store.
pub const SERVE_BACKING_CALLS: &str = "serve.backing.calls";
/// Backing calls that failed (injected I/O errors, timeouts).
pub const SERVE_BACKING_FAILURES: &str = "serve.backing.failures";
/// Requests refused by the backing store's per-client rate limit (429).
pub const SERVE_RATE_LIMITED: &str = "serve.rate_limited";
/// Per-request virtual latency (deterministic histogram, virtual ms).
pub const SERVE_LATENCY_VIRTUAL_MS: &str = "serve.latency.virtual_ms";
/// Per-request wall-clock latency (volatile histogram, microseconds).
pub const SERVE_LATENCY_REAL_US: &str = "serve.latency.real_us";
/// Virtual latency of `/rankings` requests (log-linear histogram).
pub const SERVE_LATENCY_ROUTE_RANKINGS: &str = "serve.latency.route.rankings";
/// Virtual latency of `/app` requests (log-linear histogram).
pub const SERVE_LATENCY_ROUTE_APP: &str = "serve.latency.route.app";
/// Virtual latency of `/download` requests (log-linear histogram).
pub const SERVE_LATENCY_ROUTE_DOWNLOAD: &str = "serve.latency.route.download";
/// Virtual latency of telemetry (`/metrics`, `/healthz`, `/statusz`)
/// requests (log-linear histogram).
pub const SERVE_LATENCY_ROUTE_TELEMETRY: &str = "serve.latency.route.telemetry";
/// Virtual latency of unrecognized-route requests (log-linear histogram).
pub const SERVE_LATENCY_ROUTE_OTHER: &str = "serve.latency.route.other";
/// Virtual latency of responses served fresh (log-linear histogram).
pub const SERVE_LATENCY_CLASS_FRESH: &str = "serve.latency.class.fresh";
/// Virtual latency of responses degraded to stale (log-linear histogram).
pub const SERVE_LATENCY_CLASS_STALE: &str = "serve.latency.class.stale";
/// Virtual latency of shed responses (log-linear histogram).
pub const SERVE_LATENCY_CLASS_SHED: &str = "serve.latency.class.shed";
/// Virtual latency of error responses (log-linear histogram).
pub const SERVE_LATENCY_CLASS_ERROR: &str = "serve.latency.class.error";
/// Telemetry-endpoint scrapes served (`/metrics`, `/healthz`, `/statusz`).
pub const SERVE_TELEMETRY_SCRAPES: &str = "serve.telemetry.scrapes";

/// Backing calls routed through the replica balancer.
pub const BALANCER_ROUTED: &str = "balancer.routed";
/// Hedged (second) requests actually fired.
pub const BALANCER_HEDGES_FIRED: &str = "balancer.hedges.fired";
/// Hedges whose response was used instead of the primary's.
pub const BALANCER_HEDGES_WON: &str = "balancer.hedges.won";
/// Hedges suppressed because the target replica's retry budget was
/// exhausted.
pub const BALANCER_HEDGES_DENIED: &str = "balancer.hedges.denied";
/// Primary-attempt failures recovered by a successful hedge.
pub const BALANCER_FAILOVERS: &str = "balancer.failovers";
/// Replica rankings fingerprints checked by anti-entropy passes.
pub const BALANCER_RECONCILE_CHECKS: &str = "balancer.reconcile.checks";
/// Divergent replicas repaired by anti-entropy passes.
pub const BALANCER_RECONCILE_REPAIRS: &str = "balancer.reconcile.repairs";

/// Emissions of metric names not declared in this module (release
/// builds only; debug builds panic instead). Volatile by construction —
/// its very presence marks a names-drift bug.
pub const OBS_UNDECLARED: &str = "obs.undeclared";

/// Synthetic stores generated.
pub const SYNTH_STORES: &str = "synth.stores";
/// Apps in generated catalogues.
pub const SYNTH_APPS: &str = "synth.apps";
/// Download events generated.
pub const SYNTH_DOWNLOADS: &str = "synth.downloads";
/// Comments generated.
pub const SYNTH_COMMENTS: &str = "synth.comments";
/// App updates generated.
pub const SYNTH_UPDATES: &str = "synth.updates";
/// Daily snapshots materialized.
pub const SYNTH_SNAPSHOTS: &str = "synth.snapshots";

/// Bytes written to columnar spill files (volatile: layout-dependent).
pub const SPILL_BYTES_WRITTEN: &str = "spill.bytes.written";
/// Sealed chunks written to spill files (volatile: shard-dependent).
pub const SPILL_CHUNKS_WRITTEN: &str = "spill.chunks.written";
/// Bytes read back during shard-merge folds (volatile).
pub const SPILL_BYTES_MERGED: &str = "spill.bytes.merged";
/// Sealed chunks folded during shard merges (volatile).
pub const SPILL_CHUNKS_MERGED: &str = "spill.chunks.merged";
/// Spill chunks quarantined on read (seal mismatch or undecodable).
pub const SPILL_CHUNKS_QUARANTINED: &str = "spill.chunks.quarantined";
/// Shards in the active out-of-core shard plan (volatile gauge).
pub const SPILL_SHARDS: &str = "spill.shards";

/// Every fixed (non-parameterized) metric name above, for coverage
/// checks against exported snapshots.
pub const ALL_METRICS: &[&str] = &[
    AFFINITY_STREAMS,
    AFFINITY_SAMPLES,
    CORE_PAR_CALLS,
    CORE_PAR_TASKS,
    CORE_PAR_WORKER_TASKS,
    CORE_PAR_PANICS_ISOLATED,
    FAULTS_INJECTED,
    CORE_QUALITY_REPAIRS,
    CORE_QUALITY_GAP_DAYS_FILLED,
    CRAWL_DAYS,
    CRAWL_APP_PAGES,
    CRAWL_COMMENT_PAGES,
    CRAWL_REQUESTS,
    CRAWL_RETRIES,
    CRAWL_DROPPED,
    CRAWL_CORRUPTED,
    CRAWL_RATE_LIMITED,
    CRAWL_PROXIES_BANNED,
    CRAWL_FAILED_PAGES,
    CRAWL_RESUME_INDEX,
    CRAWL_PROXY_BANS,
    CRAWL_BREAKER_TRIPS,
    CRAWL_BREAKER_CLOSES,
    CRAWL_JOURNAL_READS,
    CRAWL_JOURNAL_LINES_QUARANTINED,
    CRAWL_JOURNAL_RECORDS_DEDUPLICATED,
    CRAWL_JOURNAL_TRUNCATED_TAILS,
    FIT_ZIPF_CANDIDATES,
    FIT_AMO_GRID_CANDIDATES,
    FIT_AMO_SCREENED,
    FIT_AMO_PRUNED,
    FIT_AMO_REFINED,
    FIT_CLUSTERING_GRID_CANDIDATES,
    FIT_CLUSTERING_SCREENED,
    FIT_CLUSTERING_PRUNED,
    FIT_CLUSTERING_REFINED,
    FIT_COARSE_SURVIVORS,
    FIT_COARSE_PRUNED,
    FIT_SIM_REPLICATIONS,
    FIT_CACHE_HITS,
    FIT_CACHE_MISSES,
    FIT_JOURNAL_APPENDS,
    FIT_JOURNAL_CANDIDATES_RESUMED,
    FIT_JOURNAL_LINES_QUARANTINED,
    FIT_REFINE_DEADLINE_DOWNGRADES,
    SIM_DOWNLOADS,
    SIM_DRAWS_ALIAS,
    SIM_DRAWS_INVERSE_CDF,
    PREFETCH_ELIGIBLE,
    PREFETCH_HITS,
    PREFETCH_DOWNLOADS,
    PREFETCH_STAGED,
    PREFETCH_WASTED,
    RECOMMEND_EVALUATIONS,
    RECOMMEND_USERS_EVALUATED,
    REVENUE_BREAKEVEN_EVALS,
    SERVE_REQUESTS,
    SERVE_RESPONSES_FRESH,
    SERVE_RESPONSES_STALE,
    SERVE_RESPONSES_SHED,
    SERVE_SHEDS_QUEUE,
    SERVE_SHEDS_DEADLINE,
    SERVE_SHEDS_BREAKER,
    SERVE_PANICS_CAUGHT,
    SERVE_EDGE_HITS,
    SERVE_EDGE_MISSES,
    SERVE_EDGE_EVICTIONS,
    SERVE_RANKINGS_FRESH,
    SERVE_RANKINGS_STALE,
    SERVE_BACKING_CALLS,
    SERVE_BACKING_FAILURES,
    SERVE_RATE_LIMITED,
    SERVE_LATENCY_VIRTUAL_MS,
    SERVE_LATENCY_REAL_US,
    SERVE_LATENCY_ROUTE_RANKINGS,
    SERVE_LATENCY_ROUTE_APP,
    SERVE_LATENCY_ROUTE_DOWNLOAD,
    SERVE_LATENCY_ROUTE_TELEMETRY,
    SERVE_LATENCY_ROUTE_OTHER,
    SERVE_LATENCY_CLASS_FRESH,
    SERVE_LATENCY_CLASS_STALE,
    SERVE_LATENCY_CLASS_SHED,
    SERVE_LATENCY_CLASS_ERROR,
    SERVE_TELEMETRY_SCRAPES,
    BALANCER_ROUTED,
    BALANCER_HEDGES_FIRED,
    BALANCER_HEDGES_WON,
    BALANCER_HEDGES_DENIED,
    BALANCER_FAILOVERS,
    BALANCER_RECONCILE_CHECKS,
    BALANCER_RECONCILE_REPAIRS,
    OBS_UNDECLARED,
    SYNTH_STORES,
    SYNTH_APPS,
    SYNTH_DOWNLOADS,
    SYNTH_COMMENTS,
    SYNTH_UPDATES,
    SYNTH_SNAPSHOTS,
    SPILL_BYTES_WRITTEN,
    SPILL_CHUNKS_WRITTEN,
    SPILL_BYTES_MERGED,
    SPILL_CHUNKS_MERGED,
    SPILL_CHUNKS_QUARANTINED,
    SPILL_SHARDS,
];

/// Declared suffixes of the per-policy cache metric family
/// `cache.<policy>.<suffix>`.
pub const CACHE_METRIC_SUFFIXES: &[&str] = &["requests", "hits", "misses", "evictions"];

/// Requests seen by cache policy `policy`.
pub fn cache_requests(policy: &str) -> String {
    format!("cache.{policy}.requests")
}

/// Hits recorded by cache policy `policy`.
pub fn cache_hits(policy: &str) -> String {
    format!("cache.{policy}.hits")
}

/// Misses recorded by cache policy `policy`.
pub fn cache_misses(policy: &str) -> String {
    format!("cache.{policy}.misses")
}

/// Evictions performed by cache policy `policy`.
pub fn cache_evictions(policy: &str) -> String {
    format!("cache.{policy}.evictions")
}

// Span names (segments of exported `/`-joined span paths).

/// One crawl day (crawler campaign loop).
pub const SPAN_CRAWL_DAY: &str = "crawl.day";
/// Analytic screening pass of a model fit.
pub const SPAN_FIT_SCREEN: &str = "fit.screen";
/// Monte-Carlo refinement pass of a model fit.
pub const SPAN_FIT_REFINE: &str = "fit.refine";
/// One synthetic store generation.
pub const SPAN_SYNTH_GENERATE: &str = "synth.generate";
/// Generation of the whole calibrated store set.
pub const SPAN_STORES_GENERATE: &str = "stores.generate";
/// One store generated straight into spill files (out-of-core path).
pub const SPAN_SPILL_STORE: &str = "spill.store";
/// One shard-merge fold over spill files.
pub const SPAN_SPILL_FOLD: &str = "spill.fold";
/// Server-side handling of one traced request (per-request track).
pub const SPAN_SERVE_REQUEST: &str = "serve.request";
/// Client-side view of one traced replay request (per-request track).
pub const SPAN_SERVE_CLIENT: &str = "serve.client";

/// Every declared span name.
pub const ALL_SPANS: &[&str] = &[
    SPAN_CRAWL_DAY,
    SPAN_FIT_SCREEN,
    SPAN_FIT_REFINE,
    SPAN_SYNTH_GENERATE,
    SPAN_STORES_GENERATE,
    SPAN_SPILL_STORE,
    SPAN_SPILL_FOLD,
    SPAN_SERVE_REQUEST,
    SPAN_SERVE_CLIENT,
];

// Instant-event names (trace-only; never appear in metric snapshots).

/// A model-fit grid candidate was screened.
pub const INSTANT_FIT_CANDIDATE_SCREENED: &str = "fit.candidate.screened";
/// A shortlisted candidate was re-scored by simulation.
pub const INSTANT_FIT_CANDIDATE_REFINED: &str = "fit.candidate.refined";
/// A proxy circuit breaker tripped open.
pub const INSTANT_CRAWL_BREAKER_TRIP: &str = "crawl.breaker.trip";
/// A proxy circuit breaker closed after a successful probe.
pub const INSTANT_CRAWL_BREAKER_CLOSE: &str = "crawl.breaker.close";
/// Queue-admission stage of a traced serve request (depth annotation).
pub const INSTANT_SERVE_STAGE_QUEUE: &str = "serve.stage.queue";
/// Edge-cache stage of a traced serve request (hit/miss/stale).
pub const INSTANT_SERVE_STAGE_EDGE: &str = "serve.stage.edge";
/// Backing-fetch stage of a traced serve request (breaker state).
pub const INSTANT_SERVE_STAGE_BACKING: &str = "serve.stage.backing";
/// Deadline-budget stage of a traced serve request (burn annotation).
pub const INSTANT_SERVE_STAGE_DEADLINE: &str = "serve.stage.deadline";

/// Every declared instant-event name.
pub const ALL_INSTANTS: &[&str] = &[
    INSTANT_FIT_CANDIDATE_SCREENED,
    INSTANT_FIT_CANDIDATE_REFINED,
    INSTANT_CRAWL_BREAKER_TRIP,
    INSTANT_CRAWL_BREAKER_CLOSE,
    INSTANT_SERVE_STAGE_QUEUE,
    INSTANT_SERVE_STAGE_EDGE,
    INSTANT_SERVE_STAGE_BACKING,
    INSTANT_SERVE_STAGE_DEADLINE,
];

/// True when `name` is a declared counter/gauge/histogram name: either
/// an exact [`ALL_METRICS`] entry, a `cache.<policy>.<suffix>` family
/// member with a declared suffix and nonempty policy, or a `test.`
/// scratch name.
///
/// The `test.` prefix is the unit-test escape hatch: test code may
/// record ad-hoc names under it without registering them here, and the
/// facade's undeclared-name guard lets them through. Production code
/// must never use it — the prefix makes such names easy to grep for.
pub fn is_declared_metric(name: &str) -> bool {
    if ALL_METRICS.contains(&name) {
        return true;
    }
    if name
        .strip_prefix("test.")
        .is_some_and(|rest| !rest.is_empty())
    {
        return true;
    }
    if let Some(rest) = name.strip_prefix("cache.") {
        if let Some((policy, suffix)) = rest.rsplit_once('.') {
            return !policy.is_empty() && CACHE_METRIC_SUFFIXES.contains(&suffix);
        }
    }
    false
}

/// True when every `/`-separated segment of an exported span path is a
/// declared span name.
pub fn is_declared_span_path(path: &str) -> bool {
    !path.is_empty() && path.split('/').all(|segment| ALL_SPANS.contains(&segment))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_names_are_declared() {
        assert!(is_declared_metric("crawl.retries"));
        assert!(is_declared_metric("fit.cache.hits"));
        assert!(!is_declared_metric("crawl.retrys"));
        assert!(!is_declared_metric(""));
    }

    #[test]
    fn cache_family_is_declared_by_pattern() {
        assert!(is_declared_metric(&cache_requests("lru")));
        assert!(is_declared_metric(&cache_evictions("belady")));
        assert!(is_declared_metric("cache.two.level.hits"));
        assert!(!is_declared_metric("cache..hits"));
        assert!(!is_declared_metric("cache.lru.latency"));
    }

    #[test]
    fn span_paths_validate_per_segment() {
        assert!(is_declared_span_path("crawl.day"));
        assert!(is_declared_span_path("stores.generate/synth.generate"));
        assert!(!is_declared_span_path("stores.generate/unknown"));
        assert!(!is_declared_span_path(""));
    }

    #[test]
    fn test_prefix_is_a_unit_test_escape_hatch() {
        assert!(is_declared_metric("test.anything.goes"));
        assert!(is_declared_metric("test.c"));
        assert!(!is_declared_metric("test."));
        assert!(!is_declared_metric("testing.c"));
    }

    #[test]
    fn no_duplicate_declarations() {
        let mut metrics: Vec<&str> = ALL_METRICS.to_vec();
        metrics.sort_unstable();
        metrics.dedup();
        assert_eq!(metrics.len(), ALL_METRICS.len());
    }
}
