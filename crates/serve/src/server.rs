//! The threaded TCP/HTTP front end with the full resilience stack.
//!
//! [`with_server`] binds a loopback listener over a dataset and runs
//! workers inside a [`std::thread::scope`], so the server borrows the
//! dataset safely and everything is torn down when the caller's
//! closure returns. Connections flow acceptor → bounded queue →
//! worker; each request then runs the degradation ladder:
//!
//! 1. **fresh** — edge hit, or a live fetch through the replicated
//!    backing tier ([`crate::balancer`]): seeded two-choice routing
//!    over per-replica circuit breakers, budgeted hedges on slow or
//!    failed primaries, per-client token buckets at every replica;
//! 2. **stale** — the breaker is open or the deadline cannot cover a
//!    backing fetch, but the edge holds a stale rankings copy: serve
//!    it, marked `X-Degraded: stale`;
//! 3. **shed** — nothing to degrade to: explicit 503 (+ Retry-After)
//!    or 504 when the deadline budget ran out.
//!
//! Handlers run under `catch_unwind`: an injected (or real) panic
//! costs one 500 response and is counted — it never kills a worker or
//! wedges the accept queue. Fault rolls happen at two sites,
//! [`crate::SITE_SERVE_HANDLER`] (per request) and
//! [`crate::SITE_SERVE_BACKING`] (per backing call), both keyed by
//! sequential indices so chaos schedules replay deterministically.
//!
//! The server is also its own telemetry plane. Three reserved routes —
//! `/metrics` (Prometheus text exposition of the installed registry),
//! `/healthz` (degradation-ladder state plus breaker ledgers), and
//! `/statusz` (queue depth, shed counters, virtual uptime) — are served
//! through the normal request path (see [`crate::telemetry`]), so they
//! stay scrapeable mid-replay and their latencies land in the same
//! histograms as product traffic. Requests carrying an `X-Trace-Id`
//! header are stitched into the cross-tier trace: sampled (and every
//! degraded or erroring) requests emit a [`names::SPAN_SERVE_REQUEST`]
//! span on the track named by the trace id, annotated with per-stage
//! instants (queue admission, edge cache, backing fetch, deadline
//! burn). A bounded [`FlightRecorder`] keeps the recent degraded/error
//! history and dumps it to `ServeConfig::flight_dump` when a handler
//! panic is caught.

use crate::balancer::{BackingTier, TierError as BackingError};
use crate::deadline::Deadline;
use crate::edge::{EdgeCache, RankingsView};
use crate::hedge::HedgePolicy;
use crate::http::{read_request_into, HttpRequest, HttpResponse, IO_BUFFER_BYTES};
use crate::queue::BoundedQueue;
use crate::telemetry::{self, HealthState, StatusSnapshot};
use crate::SITE_SERVE_HANDLER;
use appstore_core::faults::{self, FaultKind};
use appstore_core::{Dataset, Day, Seed};
use appstore_crawler::wire::encode_response;
use appstore_crawler::{Request, Response, ServerPolicy};
use appstore_obs::{names, FlightRecorder, Registry, Update};
use bytes::Bytes;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The client address the edge itself uses when refreshing rankings
/// (kept away from real client ids so the refresher has its own token
/// bucket at the backing store).
pub const EDGE_CLIENT_ADDR: u32 = u32::MAX;

/// One in this many `X-Trace-Id`-carrying requests emits a full
/// request-path span even when nothing went wrong; degraded and
/// erroring requests always emit. Sampling keys off the trace id, not
/// the arrival order, so the traced set is thread-count invariant.
pub const TRACE_SAMPLE_EVERY: u64 = 500;

/// Connections the accept queue holds before it sheds with a 503.
const QUEUE_CAPACITY: usize = 1_024;

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Default per-request deadline budget (virtual ms) when the
    /// client does not propagate one via `X-Deadline-Ms`.
    pub deadline_ms: u64,
    /// Virtual base cost charged per request for parse/route work.
    pub handler_cost_ms: u64,
    /// Virtual cost charged per download-endpoint request.
    pub download_cost_ms: u64,
    /// App pages held at the edge.
    pub cache_capacity: usize,
    /// Apps (by popularity rank 0..n) pre-filled at the edge.
    pub warm_apps: usize,
    /// Virtual TTL of the edge's rankings copy.
    pub rankings_ttl_ms: u64,
    /// The day of store state this server fronts.
    pub day: Day,
    /// Backing-store policy (per-client token buckets, latency),
    /// applied to every replica in the tier.
    pub backing: ServerPolicy,
    /// Replicas in the backing tier (clamped to at least one). One
    /// replica reproduces the single-backing behaviour exactly.
    pub replicas: usize,
    /// Hedged-read policy for the backing tier (delay clamp, hedge
    /// fraction, per-replica retry budget).
    pub hedge: HedgePolicy,
    /// Seed driving the tier's routing and hedge decisions (and each
    /// replica's drift direction).
    pub seed: Seed,
    /// Where to dump the flight recorder when a handler panic is
    /// caught (`None` disables the dump, not the recorder).
    pub flight_dump: Option<PathBuf>,
}

impl ServeConfig {
    /// A deterministic default sized for tests and the replay
    /// experiment: 2 workers, generous backing limits.
    pub fn replay_default(seed: Seed) -> ServeConfig {
        ServeConfig {
            workers: 2,
            deadline_ms: 1_000,
            handler_cost_ms: 1,
            download_cost_ms: 5,
            cache_capacity: 64,
            warm_apps: 0,
            rankings_ttl_ms: 10_000,
            day: Day(0),
            backing: ServerPolicy {
                requests_per_second: 2_000.0,
                burst: 4_000,
                ..ServerPolicy::default()
            },
            replicas: 1,
            hedge: HedgePolicy::default(),
            seed: seed.child("tier"),
            flight_dump: None,
        }
    }
}

/// What the caller's closure gets: where to connect, plus liveness
/// counters that must survive handler panics.
pub struct ServerHandle {
    addr: SocketAddr,
    panics_caught: Arc<AtomicU64>,
    flight: FlightRecorder,
}

impl ServerHandle {
    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Handler panics caught at the worker boundary so far.
    pub fn panics_caught(&self) -> u64 {
        self.panics_caught.load(Ordering::SeqCst)
    }

    /// The server's flight recorder (recent degraded/error events).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }
}

/// Runs `f` under the captured observability context, if any — worker
/// threads attribute metrics exactly like the thread that started the
/// server.
fn in_context<R>(context: &Option<appstore_obs::Context>, f: impl FnOnce() -> R) -> R {
    match context {
        Some(context) => context.run(f),
        None => f(),
    }
}

/// Locks a mutex, recovering from poisoning: a handler panic must not
/// permanently wedge the edge cache or the breaker for every
/// subsequent request.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct Shared<'a> {
    tier: Mutex<BackingTier<'a>>,
    dataset: &'a Dataset,
    config: ServeConfig,
    edge: Mutex<EdgeCache>,
    request_index: AtomicU64,
    fallback_clock_ms: AtomicU64,
    panics_caught: Arc<AtomicU64>,
    /// The accept queue, shared so `/statusz` can report its depth.
    queue: Arc<BoundedQueue<TcpStream>>,
    /// The registry installed when the server started, so `/metrics`
    /// and `/statusz` can render it from any worker thread.
    registry: Option<Registry>,
    /// Highest `X-Now-Ms` any request has carried: the virtual uptime.
    last_now_ms: AtomicU64,
    /// Recent degraded/error events, dumped on a caught panic.
    flight: FlightRecorder,
}

impl<'a> Shared<'a> {
    fn new(
        dataset: &'a Dataset,
        config: ServeConfig,
        queue: Arc<BoundedQueue<TcpStream>>,
    ) -> Shared<'a> {
        let mut edge = EdgeCache::new(config.cache_capacity, config.rankings_ttl_ms);
        // Warm start (the paper's §5 setup): the most popular apps —
        // app id == popularity rank — are already at the edge.
        if let Some(snapshot) = dataset.snapshots.iter().find(|s| s.day == config.day) {
            for observation in snapshot.observations.iter().take(config.warm_apps) {
                let payload = encode_response(&Response::AppPage {
                    observation: *observation,
                });
                edge.warm_app(observation.app.0, payload);
            }
        }
        // The replicated backing tier: N marketplace servers behind
        // per-replica circuit breakers (streaks, doubling probation,
        // health ledgers — the crawler's state machine unchanged),
        // seeded two-choice routing, and budgeted hedges. One replica
        // degenerates to the old single-backing path exactly.
        let tier = BackingTier::new(
            dataset,
            config.replicas,
            config.backing,
            config.hedge,
            config.seed,
        );
        Shared {
            tier: Mutex::new(tier),
            dataset,
            config,
            edge: Mutex::new(edge),
            request_index: AtomicU64::new(0),
            fallback_clock_ms: AtomicU64::new(0),
            panics_caught: Arc::new(AtomicU64::new(0)),
            queue,
            registry: appstore_obs::current_registry(),
            last_now_ms: AtomicU64::new(0),
            flight: FlightRecorder::default(),
        }
    }
}

/// What a traced request saw at each tier, gathered while handling and
/// rendered post-hoc as span args and stage instants. The degradation
/// reason and the burned budget also classify the finished response,
/// so the server never reads its own headers back, and the edge's
/// verdict and eviction go into the request's metrics record. Nothing
/// here feeds a resilience decision.
#[derive(Debug, Default)]
struct TraceNotes {
    /// Accept-queue depth when the handler picked the request up.
    queue_depth: u64,
    /// Edge-cache verdict (`hit` / `miss` / `fresh` / `stale` / `missing`).
    edge: Option<&'static str>,
    /// Whether admitting the fetched app page evicted another.
    evicted: bool,
    /// Backing-fetch verdict (`ok` / `open` / `failed` / ...).
    backing: Option<&'static str>,
    /// The `X-Degraded` reason the response carries, if any.
    degraded: Option<&'static str>,
    /// Deadline budget the request carried (virtual ms).
    deadline_budget_ms: u64,
    /// Virtual ms the request actually burned: its `X-Virtual-Ms`.
    deadline_burned_ms: u64,
}

/// One backing fetch through the replicated tier: routing, breakers,
/// and hedging live in [`crate::balancer`]; this wrapper just holds the
/// tier lock for the call and threads the trace note through.
fn call_backing(
    shared: &Shared<'_>,
    client: u32,
    now_ms: u64,
    index: u64,
    deadline: &mut Deadline,
    notes: &mut TraceNotes,
    request: Request,
) -> Result<Bytes, BackingError> {
    lock(&shared.tier).call(client, now_ms, index, deadline, &mut notes.backing, request)
}

/// Marks `response` degraded: `X-Degraded: reason` on the wire, and the
/// same reason in the notes that classify the response.
fn degrade(response: HttpResponse, reason: &'static str, notes: &mut TraceNotes) -> HttpResponse {
    notes.degraded = Some(reason);
    response.with_header("X-Degraded", reason)
}

fn shed(
    status: u16,
    reason: &'static str,
    retry_after_ms: u64,
    notes: &mut TraceNotes,
) -> HttpResponse {
    degrade(HttpResponse::new(status), reason, notes)
        .with_header("Retry-After", retry_after_ms.div_ceil(1_000).max(1))
        .with_header("X-Retry-After-Ms", retry_after_ms.max(1))
}

fn rankings(
    shared: &Shared<'_>,
    now_ms: u64,
    index: u64,
    deadline: &mut Deadline,
    notes: &mut TraceNotes,
) -> HttpResponse {
    let view = lock(&shared.edge).rankings(now_ms);
    notes.edge = Some(match &view {
        RankingsView::Fresh(_) => "fresh",
        RankingsView::Stale(_) => "stale",
        RankingsView::Missing => "missing",
    });
    if let RankingsView::Fresh(payload) = view {
        appstore_obs::counter(names::SERVE_RANKINGS_FRESH, 1);
        return HttpResponse::new(200)
            .with_header("X-Source", "edge")
            .with_body(payload);
    }
    // Missing or stale: try a refresh through the breaker.
    let day = shared.config.day;
    match call_backing(
        shared,
        EDGE_CLIENT_ADDR,
        now_ms,
        index,
        deadline,
        notes,
        Request::Index { day },
    ) {
        Ok(payload) => {
            lock(&shared.edge).put_rankings(payload.clone(), now_ms);
            appstore_obs::counter(names::SERVE_RANKINGS_FRESH, 1);
            HttpResponse::new(200)
                .with_header("X-Source", "backing")
                .with_body(payload)
        }
        Err(BackingError::NotFound) => HttpResponse::new(404),
        Err(BackingError::Blacklisted) => HttpResponse::new(403),
        Err(error) => {
            // Degrade to the stale copy if the edge holds one —
            // stale-while-revalidate's whole point.
            if let RankingsView::Stale(payload) = view {
                appstore_obs::counter(names::SERVE_RANKINGS_STALE, 1);
                let response = HttpResponse::new(200).with_header("X-Source", "edge");
                return degrade(response, "stale", notes).with_body(payload);
            }
            match error {
                BackingError::Open { retry_at_ms } => {
                    appstore_obs::counter(names::SERVE_SHEDS_BREAKER, 1);
                    shed(
                        503,
                        "breaker-open",
                        retry_at_ms.saturating_sub(now_ms),
                        notes,
                    )
                }
                BackingError::Deadline => {
                    appstore_obs::counter(names::SERVE_SHEDS_DEADLINE, 1);
                    shed(504, "deadline", 1_000, notes)
                }
                BackingError::RateLimited { retry_after_ms } => {
                    shed(503, "backing-throttled", retry_after_ms, notes)
                }
                _ => shed(503, "backing-failed", 1_000, notes),
            }
        }
    }
}

fn app_page(
    shared: &Shared<'_>,
    request: &HttpRequest,
    client: u32,
    now_ms: u64,
    index: u64,
    deadline: &mut Deadline,
    notes: &mut TraceNotes,
) -> HttpResponse {
    let Some(app) = request.query_u64("id") else {
        return HttpResponse::new(400);
    };
    let app = app as u32;
    if let Some(payload) = lock(&shared.edge).lookup_app(app) {
        notes.edge = Some("hit");
        return HttpResponse::new(200)
            .with_header("X-Source", "edge")
            .with_body(payload);
    }
    notes.edge = Some("miss");
    let day = shared.config.day;
    match call_backing(
        shared,
        client,
        now_ms,
        index,
        deadline,
        notes,
        Request::AppPage {
            app: appstore_core::AppId(app),
            day,
        },
    ) {
        Ok(payload) => {
            notes.evicted = lock(&shared.edge).fill_app(app, payload.clone());
            HttpResponse::new(200)
                .with_header("X-Source", "backing")
                .with_body(payload)
        }
        Err(BackingError::Open { retry_at_ms }) => {
            appstore_obs::counter(names::SERVE_SHEDS_BREAKER, 1);
            shed(
                503,
                "breaker-open",
                retry_at_ms.saturating_sub(now_ms),
                notes,
            )
        }
        Err(BackingError::Failed) => degrade(HttpResponse::new(502), "backing-failed", notes)
            .with_header("X-Retry-After-Ms", 100u64),
        Err(BackingError::Deadline) => {
            appstore_obs::counter(names::SERVE_SHEDS_DEADLINE, 1);
            shed(504, "deadline", 1_000, notes)
        }
        Err(BackingError::RateLimited { retry_after_ms }) => HttpResponse::new(429)
            .with_header("Retry-After", retry_after_ms.div_ceil(1_000).max(1))
            .with_header("X-Retry-After-Ms", retry_after_ms.max(1)),
        Err(BackingError::Blacklisted) => HttpResponse::new(403),
        Err(BackingError::NotFound) => HttpResponse::new(404),
    }
}

fn download(
    shared: &Shared<'_>,
    request: &HttpRequest,
    deadline: &mut Deadline,
    notes: &mut TraceNotes,
) -> HttpResponse {
    let Some(app) = request.query_u64("app") else {
        return HttpResponse::new(400);
    };
    deadline.charge(shared.config.download_cost_ms);
    if deadline.exceeded() {
        appstore_obs::counter(names::SERVE_SHEDS_DEADLINE, 1);
        return shed(504, "deadline", 1_000, notes);
    }
    // APK metadata comes straight from the catalogue — the paper's
    // download path is fronted by exactly the cache this server is.
    match shared.dataset.apps.get(app as usize) {
        Some(entry) => HttpResponse::new(200)
            .with_header("X-Source", "edge")
            .with_body(format!(
                "{{\"app\": {}, \"apk_size\": {}}}",
                app, entry.apk_size
            )),
        None => HttpResponse::new(404),
    }
}

/// Routes one request under a `budget_ms` deadline. Runs inside
/// `catch_unwind`.
fn handle_request(
    shared: &Shared<'_>,
    request: &HttpRequest,
    client: u32,
    index: u64,
    now_ms: u64,
    budget_ms: u64,
    notes: &mut TraceNotes,
) -> HttpResponse {
    let mut deadline = Deadline::new(budget_ms);
    notes.deadline_budget_ms = budget_ms;
    let response = route_request(shared, request, client, index, now_ms, &mut deadline, notes);
    notes.deadline_burned_ms = deadline.charged_ms();
    finalize(response, &deadline)
}

/// The routing body of [`handle_request`], separated so the deadline
/// is charged and stamped (and the trace notes closed out) in exactly
/// one place regardless of which arm produced the response.
fn route_request(
    shared: &Shared<'_>,
    request: &HttpRequest,
    client: u32,
    index: u64,
    now_ms: u64,
    deadline: &mut Deadline,
    notes: &mut TraceNotes,
) -> HttpResponse {
    match faults::roll(SITE_SERVE_HANDLER, index, 0) {
        Some(FaultKind::WorkerPanic) => faults::inject_panic(SITE_SERVE_HANDLER, index),
        Some(FaultKind::Delay { virtual_ms }) => {
            deadline.charge(virtual_ms);
        }
        Some(FaultKind::IoError | FaultKind::Corrupt | FaultKind::PartialWrite) => {
            return degrade(HttpResponse::new(500), "io-error", notes);
        }
        // Replica faults target the tier's sites, not the handler; any
        // kind that leaks here is a no-op by construction.
        _ => {}
    }
    deadline.charge(shared.config.handler_cost_ms);
    if deadline.exceeded() {
        appstore_obs::counter(names::SERVE_SHEDS_DEADLINE, 1);
        return shed(504, "deadline", 1_000, notes);
    }
    if request.method() != "GET" {
        return HttpResponse::new(400);
    }
    match request.path.as_str() {
        "/rankings" => rankings(shared, now_ms, index, deadline, notes),
        "/app" => app_page(shared, request, client, now_ms, index, deadline, notes),
        "/download" => download(shared, request, deadline, notes),
        "/admin/rejoin" => admin_rejoin(shared),
        "/admin/reconcile" => admin_reconcile(shared),
        "/admin/tier" => admin_tier(shared),
        path if telemetry::is_telemetry_path(path) => telemetry_route(shared, path, now_ms),
        _ => HttpResponse::new(404),
    }
}

/// `GET /admin/rejoin` — heals every crashed or partitioned replica
/// (the operator's "bring the node back" knob). Drift is deliberately
/// untouched: a rejoined node keeps its bad state until reconciled.
fn admin_rejoin(shared: &Shared<'_>) -> HttpResponse {
    let mut tier = lock(&shared.tier);
    let rejoined = tier.rejoin_all();
    let replicas = tier.len();
    drop(tier);
    HttpResponse::new(200).with_body(format!(
        "{{\"rejoined\": {rejoined}, \"replicas\": {replicas}}}"
    ))
}

/// `GET /admin/reconcile` — one anti-entropy pass over the rankings
/// page. Any repair also drops the edge's cached rankings copy: a copy
/// cached off drifted state must not outlive the repair.
fn admin_reconcile(shared: &Shared<'_>) -> HttpResponse {
    let report = lock(&shared.tier).reconcile(shared.config.day);
    if report.repaired() > 0 {
        lock(&shared.edge).drop_rankings();
    }
    let divergent = report
        .divergent
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    HttpResponse::new(200).with_body(format!(
        "{{\"checked\": {}, \"divergent\": [{}], \"repaired\": {}, \"reference_fingerprint\": \"{:016x}\"}}",
        report.checked,
        divergent,
        report.repaired(),
        report.reference_fingerprint
    ))
}

/// `GET /admin/tier` — the tier's deterministic routing and hedging
/// counters (what the failover experiment asserts its budgets from).
fn admin_tier(shared: &Shared<'_>) -> HttpResponse {
    let stats = lock(&shared.tier).stats();
    let budgets = stats
        .budget_available
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    HttpResponse::new(200).with_body(format!(
        "{{\"replicas\": {}, \"calls\": {}, \"hedges_fired\": {}, \"hedges_won\": {}, \
         \"hedges_denied\": {}, \"failovers\": {}, \"hedge_delay_ms\": {}, \
         \"budget_available\": [{}]}}",
        stats.replicas,
        stats.calls,
        stats.hedges_fired,
        stats.hedges_won,
        stats.hedges_denied,
        stats.failovers,
        stats.hedge_delay_ms,
        budgets
    ))
}

/// Serves the three reserved telemetry routes. Scrapes ride the normal
/// request path (queue, deadline, histograms); only the response body
/// construction differs.
fn telemetry_route(shared: &Shared<'_>, path: &str, now_ms: u64) -> HttpResponse {
    appstore_obs::counter(names::SERVE_TELEMETRY_SCRAPES, 1);
    match path {
        "/metrics" => telemetry::metrics_response(shared.registry.as_ref()),
        "/healthz" => healthz(shared, now_ms),
        "/statusz" => telemetry::statusz_response(&status_snapshot(shared)),
        _ => HttpResponse::new(404),
    }
}

/// Samples the degradation ladder and breaker ledgers for `/healthz`.
fn healthz(shared: &Shared<'_>, now_ms: u64) -> HttpResponse {
    let tier = lock(&shared.tier);
    // Shedding only when *every* replica's breaker is open: with one
    // replica this is the old single-breaker condition exactly.
    let open = tier.all_open(now_ms);
    let breakers = tier.breaker_states(now_ms);
    drop(tier);
    let state = if open {
        HealthState::Shedding
    } else {
        // Missing counts as fresh: with a closed breaker the backing
        // store can repopulate the edge on the next product request.
        match lock(&shared.edge).rankings(now_ms) {
            RankingsView::Stale(_) => HealthState::Stale,
            _ => HealthState::Fresh,
        }
    };
    telemetry::healthz_response(state, &breakers)
}

/// Samples the queue/shed/uptime counters for `/statusz`.
fn status_snapshot(shared: &Shared<'_>) -> StatusSnapshot {
    let counter = |name: &str| {
        shared
            .registry
            .as_ref()
            .map(|r| r.counter_value(name))
            .unwrap_or(0)
    };
    StatusSnapshot {
        queue_depth: shared.queue.len() as u64,
        requests: shared.request_index.load(Ordering::SeqCst),
        uptime_virtual_ms: shared.last_now_ms.load(Ordering::SeqCst),
        sheds_queue: counter(names::SERVE_SHEDS_QUEUE),
        sheds_deadline: counter(names::SERVE_SHEDS_DEADLINE),
        sheds_breaker: counter(names::SERVE_SHEDS_BREAKER),
        panics_caught: shared.panics_caught.load(Ordering::SeqCst),
    }
}

/// Stamps the deterministic virtual latency onto a response.
fn finalize(response: HttpResponse, deadline: &Deadline) -> HttpResponse {
    response.with_header("X-Virtual-Ms", deadline.charged_ms())
}

/// The per-route latency histogram a path lands in.
fn route_metric(path: &str) -> &'static str {
    match path {
        "/rankings" => names::SERVE_LATENCY_ROUTE_RANKINGS,
        "/app" => names::SERVE_LATENCY_ROUTE_APP,
        "/download" => names::SERVE_LATENCY_ROUTE_DOWNLOAD,
        path if telemetry::is_telemetry_path(path) => names::SERVE_LATENCY_ROUTE_TELEMETRY,
        _ => names::SERVE_LATENCY_ROUTE_OTHER,
    }
}

/// The degradation class of a finished response: which latency
/// histogram it lands in, and the `class` arg on its trace span.
fn degradation_class(status: u16, degraded: Option<&str>) -> (&'static str, &'static str) {
    match (status, degraded) {
        (503 | 504 | 429, _) => (names::SERVE_LATENCY_CLASS_SHED, "shed"),
        (500 | 502, _) => (names::SERVE_LATENCY_CLASS_ERROR, "error"),
        (200, Some(_)) => (names::SERVE_LATENCY_CLASS_STALE, "stale"),
        _ => (names::SERVE_LATENCY_CLASS_FRESH, "fresh"),
    }
}

/// Emits the cross-tier request span for a traced request: one
/// [`names::SPAN_SERVE_REQUEST`] frame on the track named by the trace
/// id, with per-stage instants (queue admission, edge cache, backing
/// fetch, deadline burn) nested inside it. Runs after the response is
/// built, so a handler panic can never lose the trace machinery.
fn trace_request(
    request: &HttpRequest,
    trace_id: u64,
    status: u16,
    class: &str,
    now_ms: u64,
    notes: &TraceNotes,
) {
    appstore_obs::with_track(trace_id, || {
        appstore_obs::span_args(
            names::SPAN_SERVE_REQUEST,
            &[
                ("trace_id", &trace_id.to_string()),
                ("parent_span", request.header("x-parent-span").unwrap_or("")),
                ("route", &request.path),
                ("status", &status.to_string()),
                ("class", class),
                ("now_ms", &now_ms.to_string()),
            ],
            || {
                appstore_obs::instant_args(
                    names::INSTANT_SERVE_STAGE_QUEUE,
                    &[("depth", &notes.queue_depth.to_string())],
                );
                if let Some(edge) = notes.edge {
                    appstore_obs::instant_args(
                        names::INSTANT_SERVE_STAGE_EDGE,
                        &[("verdict", edge)],
                    );
                }
                if let Some(backing) = notes.backing {
                    appstore_obs::instant_args(
                        names::INSTANT_SERVE_STAGE_BACKING,
                        &[("verdict", backing)],
                    );
                }
                appstore_obs::instant_args(
                    names::INSTANT_SERVE_STAGE_DEADLINE,
                    &[
                        ("burned_ms", &notes.deadline_burned_ms.to_string()),
                        ("budget_ms", &notes.deadline_budget_ms.to_string()),
                    ],
                );
            },
        );
    });
}

/// The edge counter an edge verdict bumps: app-page lookups count hits
/// and misses, rankings verdicts count nothing.
fn edge_counter(verdict: Option<&str>) -> Option<&'static str> {
    match verdict {
        Some("hit") => Some(names::SERVE_EDGE_HITS),
        Some("miss") => Some(names::SERVE_EDGE_MISSES),
        _ => None,
    }
}

/// Records a finished request's counters that apply (each a `+1`) and
/// its four latency observations, in one `record` call.
fn record_request(counters: [Option<&'static str>; 4], observations: [Update<'static>; 4]) {
    let mut updates = [observations[0]; 8];
    let mut len = 0;
    let counters = counters.into_iter().flatten();
    for update in counters
        .map(|name| Update::Counter(name, 1))
        .chain(observations)
    {
        updates[len] = update;
        len += 1;
    }
    appstore_obs::record(&updates[..len]);
}

/// Panic-isolated request dispatch plus response classification.
/// `serve.requests` is counted when the request starts, so a `/metrics`
/// scrape counts itself; everything else the request records goes into
/// one `record` call once the response is built.
fn guarded_handle(shared: &Shared<'_>, request: &HttpRequest) -> HttpResponse {
    let started = Instant::now();
    let index = shared.request_index.fetch_add(1, Ordering::SeqCst);
    appstore_obs::counter(names::SERVE_REQUESTS, 1);
    // The headers the handler acts on, found in one pass.
    let [now_ms, deadline_ms, client, trace_id] = request
        .header_values(["x-now-ms", "x-deadline-ms", "x-client", "x-trace-id"])
        .map(|value| value?.parse::<u64>().ok());
    let now_ms = now_ms.unwrap_or_else(|| shared.fallback_clock_ms.fetch_add(1, Ordering::SeqCst));
    let budget_ms = deadline_ms.unwrap_or(shared.config.deadline_ms);
    let client = client.unwrap_or(0) as u32;
    shared.last_now_ms.fetch_max(now_ms, Ordering::SeqCst);
    let queue_depth = shared.queue.len() as u64;
    let fresh_notes = || TraceNotes {
        queue_depth,
        ..TraceNotes::default()
    };
    let mut notes = fresh_notes();
    let handled = catch_unwind(AssertUnwindSafe(|| {
        handle_request(
            shared, request, client, index, now_ms, budget_ms, &mut notes,
        )
    }));
    // An edge verdict reached before a panic still counts.
    let (edge, evicted) = (edge_counter(notes.edge), notes.evicted);
    let (response, panicked) = match handled {
        Ok(response) => (response, false),
        Err(_) => {
            shared.panics_caught.fetch_add(1, Ordering::SeqCst);
            notes = fresh_notes();
            let response = degrade(HttpResponse::new(500), "panic", &mut notes)
                .with_header("X-Virtual-Ms", 0u64);
            (response, true)
        }
    };
    let degraded = notes.degraded;
    let outcome = match (response.status, degraded) {
        (200, None) => Some(names::SERVE_RESPONSES_FRESH),
        (200, Some(_)) => Some(names::SERVE_RESPONSES_STALE),
        (503 | 504, _) => Some(names::SERVE_RESPONSES_SHED),
        _ => None,
    };
    let virtual_ms = notes.deadline_burned_ms;
    let (class_metric, class) = degradation_class(response.status, degraded);
    record_request(
        [
            edge,
            evicted.then_some(names::SERVE_EDGE_EVICTIONS),
            panicked.then_some(names::SERVE_PANICS_CAUGHT),
            outcome,
        ],
        [
            Update::Observe(names::SERVE_LATENCY_VIRTUAL_MS, virtual_ms),
            Update::ObserveHdr(route_metric(&request.path), virtual_ms),
            Update::ObserveHdr(class_metric, virtual_ms),
            Update::ObserveVolatile(
                names::SERVE_LATENCY_REAL_US,
                started.elapsed().as_micros() as u64,
            ),
        ],
    );
    // Flight recorder: every degraded/error response leaves a breadcrumb
    // in the bounded ring; a caught panic additionally dumps the ring.
    if response.status >= 400 || degraded.is_some() {
        shared.flight.record(
            if panicked { "panic" } else { "request" },
            &[
                ("index", index.to_string()),
                ("route", request.path.clone()),
                ("status", response.status.to_string()),
                ("degraded", degraded.unwrap_or("").to_string()),
                ("now_ms", now_ms.to_string()),
            ],
        );
    }
    if panicked {
        if let Some(path) = &shared.config.flight_dump {
            let _ = shared.flight.dump_to_file(path);
        }
    }
    // Cross-tier tracing: requests carrying X-Trace-Id emit the full
    // request-path span when sampled or when anything went wrong. The
    // gate depends only on the trace id and the response, never on
    // timing, so the traced set is identical across thread counts.
    if let Some(trace_id) = trace_id {
        if trace_id.is_multiple_of(TRACE_SAMPLE_EVERY)
            || response.status >= 500
            || degraded.is_some()
        {
            trace_request(request, trace_id, response.status, class, now_ms, &notes);
        }
    }
    response
}

/// Serves one connection until EOF, flushing pipelined batches of
/// responses together. Every request is read into one reused
/// [`HttpRequest`].
fn handle_connection(shared: &Shared<'_>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::with_capacity(IO_BUFFER_BYTES, read_half);
    let mut writer = BufWriter::with_capacity(IO_BUFFER_BYTES, stream);
    let mut request = HttpRequest::default();
    loop {
        // About to block for input: push out everything pending first.
        if reader.buffer().is_empty() && writer.flush().is_err() {
            return;
        }
        match read_request_into(&mut reader, &mut request) {
            Ok(true) => {
                let response = guarded_handle(shared, &request);
                if response.write_to(&mut writer).is_err() {
                    return;
                }
            }
            Ok(false) | Err(_) => break,
        }
    }
    let _ = writer.flush();
}

/// Starts the server over `dataset`, runs `f` against it, and tears
/// everything down before returning `f`'s result. Worker threads
/// inherit the caller's observability context and fault injector, so
/// metrics and chaos behave exactly as if the handlers ran inline.
pub fn with_server<R>(
    dataset: &Dataset,
    config: &ServeConfig,
    f: impl FnOnce(&ServerHandle) -> R,
) -> R {
    let queue: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::new(QUEUE_CAPACITY));
    let shared = Shared::new(dataset, config.clone(), Arc::clone(&queue));
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    let obs_context = appstore_obs::capture();
    let injector = faults::capture();
    let handle = ServerHandle {
        addr,
        panics_caught: Arc::clone(&shared.panics_caught),
        flight: shared.flight.clone(),
    };

    std::thread::scope(|scope| {
        let shared = &shared;
        let queue = &queue;
        let stop = &stop;
        for _ in 0..config.workers.max(1) {
            let obs_context = obs_context.clone();
            let injector = injector.clone();
            scope.spawn(move || {
                in_context(&obs_context, || {
                    let work = || {
                        while let Some(stream) = queue.pop() {
                            handle_connection(shared, stream);
                        }
                    };
                    match &injector {
                        Some(injector) => faults::with_injector(injector, work),
                        None => work(),
                    }
                });
            });
        }
        let obs_context = obs_context.clone();
        scope.spawn(move || {
            in_context(&obs_context, || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if let Some(rejected) = queue.push(stream) {
                        // Explicit load shed at the front door: the
                        // client gets told to back off, not a hang.
                        appstore_obs::counter(names::SERVE_SHEDS_QUEUE, 1);
                        appstore_obs::counter(names::SERVE_RESPONSES_SHED, 1);
                        let mut writer = BufWriter::new(rejected);
                        let response = shed(503, "queue-full", 1_000, &mut TraceNotes::default());
                        let _ = response.write_to(&mut writer);
                        let _ = writer.flush();
                    }
                }
            });
        });

        let result = f(&handle);

        stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor; it checks `stop` before queueing.
        let _ = TcpStream::connect(addr);
        queue.close();
        result
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::balancer::replica_site;
    use crate::http::read_response;
    use crate::replay::test_dataset;
    use crate::SITE_SERVE_BACKING;
    use appstore_core::faults::{with_injector, FaultInjector, FaultPlan, FaultTrigger};

    fn get(addr: SocketAddr, target: &str, now_ms: u64) -> HttpResponse {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write!(
            writer,
            "GET {target} HTTP/1.1\r\nX-Client: 1\r\nX-Now-Ms: {now_ms}\r\n\r\n"
        )
        .unwrap();
        writer.flush().unwrap();
        read_response(&mut reader).unwrap()
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            cache_capacity: 8,
            warm_apps: 4,
            ..ServeConfig::replay_default(Seed::new(11))
        }
    }

    #[test]
    fn serves_warm_app_pages_from_the_edge_and_cold_from_backing() {
        let dataset = test_dataset(32);
        with_server(&dataset, &test_config(), |handle| {
            let warm = get(handle.addr(), "/app?id=1", 0);
            assert_eq!(warm.status, 200);
            assert_eq!(warm.header("x-source"), Some("edge"));
            let cold = get(handle.addr(), "/app?id=20", 10);
            assert_eq!(cold.status, 200);
            assert_eq!(cold.header("x-source"), Some("backing"));
            // Second fetch of the cold app now hits the edge.
            let again = get(handle.addr(), "/app?id=20", 20);
            assert_eq!(again.header("x-source"), Some("edge"));
            let missing = get(handle.addr(), "/app?id=999", 30);
            assert_eq!(missing.status, 404);
        });
    }

    #[test]
    fn rankings_degrade_to_stale_and_recover() {
        let dataset = test_dataset(16);
        // Request index 2's backing refresh fails; everything else works.
        let plan = FaultPlan::seeded(5).rule(
            SITE_SERVE_BACKING,
            FaultKind::IoError,
            FaultTrigger::AtIndex(2),
        );
        let injector = FaultInjector::new(plan);
        with_injector(&injector, || {
            with_server(&dataset, &test_config(), |handle| {
                // Index 0: edge is empty, backing refresh fills it.
                let first = get(handle.addr(), "/rankings", 0);
                assert_eq!(first.status, 200);
                assert_eq!(first.header("x-source"), Some("backing"));
                // Index 1, within the 10 s TTL: served fresh off the edge.
                let edge = get(handle.addr(), "/rankings", 5_000);
                assert_eq!(edge.header("x-source"), Some("edge"));
                assert_eq!(edge.header("x-degraded"), None);
                // Index 2, past the TTL with the refresh failing: the
                // retained copy is served stale instead of a 5xx.
                let stale = get(handle.addr(), "/rankings", 20_000);
                assert_eq!(stale.status, 200);
                assert_eq!(stale.header("x-degraded"), Some("stale"));
                // Index 3: the backing store is healthy again, so the
                // refresh goes through and fresh serving resumes.
                let recovered = get(handle.addr(), "/rankings", 21_000);
                assert_eq!(recovered.status, 200);
                assert_eq!(recovered.header("x-source"), Some("backing"));
                assert_eq!(recovered.header("x-degraded"), None);
            });
        });
    }

    #[test]
    fn injected_panics_are_caught_and_counted() {
        let dataset = test_dataset(16);
        let plan = FaultPlan::seeded(6).rule(
            SITE_SERVE_HANDLER,
            FaultKind::WorkerPanic,
            FaultTrigger::AtIndex(1),
        );
        let injector = FaultInjector::new(plan);
        with_injector(&injector, || {
            with_server(&dataset, &test_config(), |handle| {
                assert_eq!(get(handle.addr(), "/app?id=1", 0).status, 200);
                let boom = get(handle.addr(), "/app?id=2", 1);
                assert_eq!(boom.status, 500);
                assert_eq!(boom.header("x-degraded"), Some("panic"));
                // The worker survived: the next request is served.
                assert_eq!(get(handle.addr(), "/app?id=1", 2).status, 200);
                assert_eq!(handle.panics_caught(), 1);
            });
        });
    }

    #[test]
    fn an_edge_miss_before_a_panic_still_counts() {
        let dataset = test_dataset(16);
        // Request 1 misses the edge, then panics in the tier's fetch.
        let plan = FaultPlan::seeded(6).rule(
            SITE_SERVE_BACKING,
            FaultKind::WorkerPanic,
            FaultTrigger::AtIndex(1),
        );
        let injector = FaultInjector::new(plan);
        let registry = Registry::new();
        with_injector(&injector, || {
            appstore_obs::with_registry(&registry, || {
                with_server(&dataset, &test_config(), |handle| {
                    assert_eq!(get(handle.addr(), "/app?id=9", 0).status, 200);
                    assert_eq!(get(handle.addr(), "/app?id=10", 1).status, 500);
                    assert_eq!(get(handle.addr(), "/app?id=9", 2).status, 200);
                });
            });
        });
        let count = |name| registry.counter_value(name);
        assert_eq!(count(names::SERVE_REQUESTS), 3);
        assert_eq!(count(names::SERVE_EDGE_MISSES), 2);
        assert_eq!(count(names::SERVE_EDGE_HITS), 1);
        assert_eq!(count(names::SERVE_PANICS_CAUGHT), 1);
        assert_eq!(count(names::SERVE_RESPONSES_FRESH), 2);
    }

    #[test]
    fn deadline_budget_sheds_instead_of_serving_late() {
        let dataset = test_dataset(16);
        with_server(&dataset, &test_config(), |handle| {
            let stream = TcpStream::connect(handle.addr()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            // A cold app page needs a backing fetch (80 virtual ms);
            // a 10 ms budget cannot cover it.
            write!(
                writer,
                "GET /app?id=9 HTTP/1.1\r\nX-Client: 1\r\nX-Now-Ms: 0\r\nX-Deadline-Ms: 10\r\n\r\n"
            )
            .unwrap();
            writer.flush().unwrap();
            let response = read_response(&mut reader).unwrap();
            assert_eq!(response.status, 504);
            assert_eq!(response.header("x-degraded"), Some("deadline"));
        });
    }

    #[test]
    fn oversized_heads_drop_the_connection_and_the_server_carries_on() {
        let dataset = test_dataset(16);
        with_server(&dataset, &test_config(), |handle| {
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            let mut head = b"GET /app?id=1 HTTP/1.1\r\nX-Pad: ".to_vec();
            head.resize(crate::http::MAX_HEAD_BYTES + 1_024, b'a');
            // The server may close mid-write; what matters is what it answers.
            let _ = stream
                .write_all(&head)
                .and_then(|()| stream.write_all(b"\r\n\r\n"));
            let mut answer = Vec::new();
            let _ = std::io::Read::read_to_end(&mut stream, &mut answer);
            assert!(answer.is_empty(), "no response to an oversized head");
            // The worker survived and serves the next connection.
            assert_eq!(get(handle.addr(), "/app?id=1", 0).status, 200);
            assert_eq!(handle.panics_caught(), 0);
        });
    }

    #[test]
    fn served_wire_bytes_are_unchanged() {
        let dataset = test_dataset(16);
        with_server(&dataset, &test_config(), |handle| {
            let raw = |request: &str| {
                let mut stream = TcpStream::connect(handle.addr()).unwrap();
                stream.write_all(request.as_bytes()).unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut answer = String::new();
                std::io::Read::read_to_string(&mut stream, &mut answer).unwrap();
                answer
            };
            let warm = raw("GET /app?id=1 HTTP/1.1\r\nX-Client: 1\r\nX-Now-Ms: 0\r\n\r\n");
            let body = String::from_utf8(
                encode_response(&Response::AppPage {
                    observation: dataset.snapshots[0].observations[1],
                })
                .to_vec(),
            )
            .unwrap();
            assert_eq!(
                warm,
                format!(
                    "HTTP/1.1 200 OK\r\nX-Source: edge\r\nX-Virtual-Ms: 1\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
            );
            let late = raw(
                "GET /app?id=9 HTTP/1.1\r\nX-Client: 1\r\nX-Now-Ms: 0\r\nX-Deadline-Ms: 10\r\n\r\n",
            );
            assert_eq!(
                late,
                "HTTP/1.1 504 Gateway Timeout\r\nX-Degraded: deadline\r\nRetry-After: 1\r\n\
                 X-Retry-After-Ms: 1000\r\nX-Virtual-Ms: 1\r\nContent-Length: 0\r\n\r\n"
            );
        });
    }

    #[test]
    fn unknown_app_ids_answer_404_and_size_nothing() {
        let dataset = test_dataset(6_000);
        let config = ServeConfig {
            replicas: 3,
            ..test_config()
        };
        let shared = Shared::new(
            &dataset,
            config,
            Arc::new(BoundedQueue::new(QUEUE_CAPACITY)),
        );
        let get = |target: &str| {
            let raw = format!("GET {target} HTTP/1.1\r\nX-Client: 1\r\nX-Now-Ms: 0\r\n\r\n");
            let request = crate::http::read_request(&mut raw.as_bytes())
                .unwrap()
                .unwrap();
            guarded_handle(&shared, &request).status
        };
        assert_eq!(get("/app?id=5999"), 200);
        let slots = || (lock(&shared.edge).slots(), lock(&shared.tier).page_slots());
        let grown = slots();
        assert_eq!(
            grown,
            (6_000, 6_001),
            "app 5999 and the day's rankings slot"
        );
        for target in ["/app?id=6000", "/app?id=4294967295"] {
            assert_eq!(get(target), 404, "{target}");
        }
        assert_eq!(slots(), grown);
    }

    #[test]
    fn download_endpoint_reports_apk_metadata() {
        let dataset = test_dataset(8);
        with_server(&dataset, &test_config(), |handle| {
            let response = get(handle.addr(), "/download?app=3", 0);
            assert_eq!(response.status, 200);
            let body = String::from_utf8(response.body.to_vec()).unwrap();
            assert!(body.contains("\"app\": 3"), "{body}");
            assert_eq!(get(handle.addr(), "/download?app=99", 1).status, 404);
        });
    }

    fn body_string(response: &HttpResponse) -> String {
        String::from_utf8(response.body.to_vec()).unwrap()
    }

    #[test]
    fn telemetry_endpoints_scrape_over_the_socket() {
        let dataset = test_dataset(16);
        let registry = Registry::new();
        appstore_obs::with_registry(&registry, || {
            with_server(&dataset, &test_config(), |handle| {
                assert_eq!(get(handle.addr(), "/app?id=1", 100).status, 200);
                let metrics = get(handle.addr(), "/metrics", 200);
                assert_eq!(metrics.status, 200);
                assert_eq!(
                    metrics.header("content-type"),
                    Some(telemetry::METRICS_CONTENT_TYPE)
                );
                let body = body_string(&metrics);
                assert!(body.contains("# TYPE serve_requests counter"), "{body}");
                assert!(body.contains("serve_latency_route_app_bucket"), "{body}");
                let health = get(handle.addr(), "/healthz", 300);
                assert_eq!(health.status, 200);
                let body = body_string(&health);
                assert!(body.contains("\"state\": \"fresh\""), "{body}");
                assert!(body.contains("\"name\": \"backing-0\""), "{body}");
                let status = get(handle.addr(), "/statusz", 400);
                assert_eq!(status.status, 200);
                let body = body_string(&status);
                assert!(body.contains("\"uptime_virtual_ms\": 400"), "{body}");
                assert!(body.contains("\"queue_depth\""), "{body}");
            });
        });
        // The scrapes themselves landed in the telemetry histograms.
        assert_eq!(registry.counter_value(names::SERVE_TELEMETRY_SCRAPES), 3);
    }

    #[test]
    fn healthz_reports_shedding_while_the_breaker_is_open() {
        let dataset = test_dataset(16);
        // Three straight backing failures trip the breaker.
        let plan = FaultPlan::seeded(8)
            .rule(
                SITE_SERVE_BACKING,
                FaultKind::IoError,
                FaultTrigger::AtIndex(0),
            )
            .rule(
                SITE_SERVE_BACKING,
                FaultKind::IoError,
                FaultTrigger::AtIndex(1),
            )
            .rule(
                SITE_SERVE_BACKING,
                FaultKind::IoError,
                FaultTrigger::AtIndex(2),
            );
        let injector = FaultInjector::new(plan);
        with_injector(&injector, || {
            with_server(&dataset, &test_config(), |handle| {
                for i in 0..3 {
                    let response = get(handle.addr(), &format!("/app?id={}", 20 + i), i);
                    assert_ne!(response.status, 200);
                }
                let health = get(handle.addr(), "/healthz", 10);
                let body = body_string(&health);
                assert!(body.contains("\"state\": \"shedding\""), "{body}");
                assert!(body.contains("\"open\": true"), "{body}");
            });
        });
    }

    #[test]
    fn caught_panic_dumps_the_flight_recorder() {
        let dataset = test_dataset(16);
        let dir = std::env::temp_dir().join(format!("serve-flight-test-{}", std::process::id()));
        let path = dir.join("flight.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::seeded(9).rule(
            SITE_SERVE_HANDLER,
            FaultKind::WorkerPanic,
            FaultTrigger::AtIndex(1),
        );
        let injector = FaultInjector::new(plan);
        with_injector(&injector, || {
            let config = ServeConfig {
                flight_dump: Some(path.clone()),
                ..test_config()
            };
            with_server(&dataset, &config, |handle| {
                assert_eq!(get(handle.addr(), "/app?id=1", 0).status, 200);
                assert_eq!(get(handle.addr(), "/app?id=2", 1).status, 500);
                assert!(!handle.flight().is_empty());
            });
        });
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.contains("\"flight_recorder\""), "{dump}");
        assert!(dump.contains("\"kind\": \"panic\""), "{dump}");
        assert!(dump.contains("\"route\": \"/app\""), "{dump}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_replica_is_invisible_to_clients_behind_the_tier() {
        let dataset = test_dataset(64);
        let config = ServeConfig {
            replicas: 3,
            ..test_config()
        };
        // Replica 1 crashes on the tier's very first backing call.
        let plan = FaultPlan::seeded(21).rule(
            &replica_site(1),
            FaultKind::ReplicaCrash,
            FaultTrigger::AtIndex(0),
        );
        let injector = FaultInjector::new(plan);
        with_injector(&injector, || {
            with_server(&dataset, &config, |handle| {
                // Cold app pages force backing calls; every one of them
                // must succeed even though a third of primaries are dead
                // (the hedge fails over), and the breaker learns.
                for i in 0..40u64 {
                    let response = get(handle.addr(), &format!("/app?id={}", 10 + i), i * 10);
                    assert_eq!(response.status, 200, "request {i}");
                }
                let health = get(handle.addr(), "/healthz", 500);
                let body = body_string(&health);
                assert!(body.contains("\"name\": \"backing-1\""), "{body}");
                assert!(!body.contains("\"state\": \"shedding\""), "{body}");
            });
        });
    }

    #[test]
    fn admin_routes_rejoin_and_reconcile_the_tier() {
        let dataset = test_dataset(32);
        let config = ServeConfig {
            replicas: 3,
            ..test_config()
        };
        // Replica 2 drifts on the tier's first backing call.
        let plan = FaultPlan::seeded(22).rule(
            &replica_site(2),
            FaultKind::ReplicaDrift,
            FaultTrigger::AtIndex(0),
        );
        let injector = FaultInjector::new(plan);
        with_injector(&injector, || {
            with_server(&dataset, &config, |handle| {
                // Force one backing call so the drift fault fires.
                assert_eq!(get(handle.addr(), "/rankings", 0).status, 200);
                let reconcile = get(handle.addr(), "/admin/reconcile", 10);
                assert_eq!(reconcile.status, 200);
                let body = body_string(&reconcile);
                assert!(body.contains("\"checked\": 3"), "{body}");
                assert!(body.contains("\"divergent\": [2]"), "{body}");
                assert!(body.contains("\"repaired\": 1"), "{body}");
                // A second pass finds nothing left to repair.
                let again = body_string(&get(handle.addr(), "/admin/reconcile", 20));
                assert!(again.contains("\"divergent\": []"), "{again}");
                // Nothing was down, so rejoin heals zero replicas.
                let rejoin = body_string(&get(handle.addr(), "/admin/rejoin", 30));
                assert!(rejoin.contains("\"rejoined\": 0"), "{rejoin}");
                assert!(rejoin.contains("\"replicas\": 3"), "{rejoin}");
                let tier = body_string(&get(handle.addr(), "/admin/tier", 40));
                assert!(tier.contains("\"replicas\": 3"), "{tier}");
                assert!(tier.contains("\"calls\": "), "{tier}");
            });
        });
    }

    #[test]
    fn traced_requests_record_the_request_span_path() {
        let dataset = test_dataset(16);
        let registry = Registry::new();
        appstore_obs::with_registry(&registry, || {
            with_server(&dataset, &test_config(), |handle| {
                // Trace id 0 samples (0 % TRACE_SAMPLE_EVERY == 0);
                // trace id 1 does not, and the request succeeds.
                for trace_id in [0u64, 1] {
                    let stream = TcpStream::connect(handle.addr()).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = BufWriter::new(stream);
                    write!(
                        writer,
                        "GET /app?id=1 HTTP/1.1\r\nX-Client: 1\r\nX-Now-Ms: {trace_id}\r\n\
                         X-Trace-Id: {trace_id}\r\nX-Parent-Span: client-{trace_id}\r\n\r\n"
                    )
                    .unwrap();
                    writer.flush().unwrap();
                    assert_eq!(read_response(&mut reader).unwrap().status, 200);
                }
            });
        });
        let exposition = registry.render_prometheus(false);
        assert!(exposition.contains("serve_request_calls 1"), "{exposition}");
    }
}
