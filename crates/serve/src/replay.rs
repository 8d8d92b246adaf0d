//! The deterministic load generator: replays download traces over a
//! real socket.
//!
//! A [`Workload`] is a trace of `(user, app)` download events — in the
//! experiments, traces simulated from the paper's §5 workload models
//! (ZIPF, APP-CLUSTERING with fetch-at-most-once and category
//! affinity), so the request stream inherits exactly the locality the
//! paper measured. [`replay`] drives the workload through the serving
//! layer at a configurable QPS on a *virtual* clock: each request
//! advances the clock by `1000 / qps` ms and stamps it into
//! `X-Now-Ms`, so TTLs, rate-limit refills, and breaker probation
//! windows all run in deterministic virtual time no matter how fast
//! the real socket is. Requests are pipelined in batches (write the
//! whole batch, flush, read the responses back) to keep six-figure
//! replays fast.
//!
//! Failures (429/5xx) are retried with the shared
//! [`appstore_core::backoff`] schedule — jittered exponential delays,
//! seeded per attempt — governed by a [`RetryBudget`] so a broken
//! server sees its load *drop*, not multiply. `Retry-After` hints are
//! honored by advancing the virtual clock past them, which is what
//! lets a tripped breaker's probation actually expire mid-replay.
//!
//! The client is also the origin of the cross-tier trace: every
//! request is stamped with `X-Trace-Id` (sequential from
//! [`ReplayConfig::trace_base`]) and `X-Parent-Span`, and completed
//! requests emit a client-side span on the same per-trace track the
//! server annotates — so one trace id stitches client, queue, edge,
//! and backing on a single timeline. With [`ReplayConfig::slo`] on,
//! every completed request also feeds a [`SloMonitor`] grading
//! availability and p99 objectives over rolling virtual-time windows.

use crate::http::{decimal, read_client_response, ClientResponse, IO_BUFFER_BYTES};
use crate::server::TRACE_SAMPLE_EVERY;
use crate::slo::{SloMonitor, SloSummary};
use appstore_core::backoff::{BackoffSchedule, RetryBudget};
use appstore_core::{DownloadEvent, Seed};
use appstore_obs::{names, LogLinearHistogram};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A named request stream derived from a download trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (e.g. `"app-clustering"`).
    pub name: String,
    /// `(client, app)` pairs in replay order.
    pub events: Vec<(u32, u32)>,
}

impl Workload {
    /// Maps a simulated download trace onto the serving layer: each
    /// download becomes an app-page fetch by that user. The trace
    /// already embodies the workload model's structure (Zipf ranks,
    /// fetch-at-most-once, category affinity) — the mapping adds
    /// nothing and removes nothing.
    pub fn from_trace(name: &str, trace: &[DownloadEvent]) -> Workload {
        Workload {
            name: name.to_string(),
            events: trace.iter().map(|e| (e.user.0, e.app.0)).collect(),
        }
    }

    /// Number of app-page requests the workload will issue.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the workload holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Replay pacing, retry policy, and interleaving knobs.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Requests per virtual second (sets the virtual clock step).
    pub qps: u64,
    /// Deadline budget stamped on every request (`X-Deadline-Ms`).
    pub deadline_ms: u64,
    /// Requests pipelined per batch.
    pub batch: usize,
    /// Issue a rankings fetch every N app requests (0 = never).
    pub rankings_every: usize,
    /// Issue a download fetch every N app requests (0 = never).
    pub download_every: usize,
    /// Retry attempts per failed request.
    pub max_attempts: u32,
    /// Base backoff delay before the first retry.
    pub backoff_base_ms: u64,
    /// Retry tokens earned per fresh request (0.1 = 10% retry ratio).
    pub retry_budget_ratio: f64,
    /// Retry tokens available up front (burst allowance).
    pub retry_budget_burst: u64,
    /// Seed for the jittered backoff schedule.
    pub seed: Seed,
    /// Base for the `X-Trace-Id` stamped on each request (the id is
    /// `trace_base + requests_sent`, so distinct replay phases get
    /// disjoint id ranges on one shared timeline).
    pub trace_base: u64,
    /// Grade this replay against the service-level objectives of
    /// [`crate::slo`] (`false` disables the monitor).
    pub slo: bool,
}

impl ReplayConfig {
    /// Defaults matching the serve-replay experiment: 200 virtual QPS,
    /// 1 s deadlines, 10% retry budget.
    pub fn new(seed: Seed) -> ReplayConfig {
        ReplayConfig {
            qps: 200,
            deadline_ms: 1_000,
            batch: 64,
            rankings_every: 50,
            download_every: 25,
            max_attempts: 3,
            backoff_base_ms: 100,
            retry_budget_ratio: 0.1,
            retry_budget_burst: 50,
            seed,
            trace_base: 0,
            slo: false,
        }
    }
}

/// One request the replay client can issue.
#[derive(Debug, Clone, Copy)]
enum Op {
    App { client: u32, app: u32 },
    Rankings,
    Download { app: u32 },
}

/// What one replay run saw, counted client-side from status codes and
/// the resilience headers — independent of the server's own metrics,
/// so the two can cross-check each other.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayStats {
    /// Requests written to the socket, including retries.
    pub requests_sent: u64,
    /// App-page responses with status 200.
    pub app_ok: u64,
    /// App-page 200s answered by the edge cache (`X-Source: edge`).
    pub app_edge_hits: u64,
    /// App-page 200s that needed the backing store.
    pub app_backing: u64,
    /// Rankings 200s served fresh (edge-within-TTL or live refresh).
    pub rankings_fresh: u64,
    /// Rankings 200s served stale (`X-Degraded: stale`).
    pub rankings_stale: u64,
    /// Download-endpoint 200s.
    pub downloads_ok: u64,
    /// 503 responses (queue, breaker, or backing sheds).
    pub shed_503: u64,
    /// 504 responses (deadline sheds).
    pub shed_504: u64,
    /// 429 responses (per-client rate limiting).
    pub rate_limited_429: u64,
    /// 500/502 responses (handler faults, backing failures).
    pub server_errors: u64,
    /// Responses flagged `X-Degraded: panic` (a caught handler panic).
    pub panics_seen: u64,
    /// 404 responses.
    pub not_found: u64,
    /// Retries actually sent.
    pub retries: u64,
    /// Retries suppressed because the budget was empty.
    pub retries_denied: u64,
    /// Requests still failing after their last permitted attempt.
    pub exhausted: u64,
    /// Per-response deterministic virtual latency (`X-Virtual-Ms`).
    pub latencies_virtual_ms: Vec<u64>,
    /// Virtual clock value when the replay finished.
    pub final_clock_ms: u64,
    /// SLO grading, when [`ReplayConfig::slo`] enabled the monitor.
    pub slo: Option<SloSummary>,
}

impl ReplayStats {
    /// Edge hit rate over completed app-page requests, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.app_edge_hits + self.app_backing;
        if total == 0 {
            0.0
        } else {
            self.app_edge_hits as f64 / total as f64
        }
    }

    /// Shed responses of either kind.
    pub fn sheds(&self) -> u64 {
        self.shed_503 + self.shed_504
    }

    /// The p99 of the deterministic virtual latencies (0 when empty),
    /// computed through the same log-linear histogram the server's
    /// telemetry plane uses, so the client-side number and a scraped
    /// `/metrics` quantile can never disagree about bucketing.
    pub fn p99_virtual_ms(&self) -> u64 {
        self.latency_histogram().p99()
    }

    /// The deterministic virtual latencies folded into a log-linear
    /// histogram (exact up to bucket resolution: values ≤ 64 exact,
    /// above that within 1/32 of an octave).
    pub fn latency_histogram(&self) -> LogLinearHistogram {
        let mut hist = LogLinearHistogram::new();
        for &latency in &self.latencies_virtual_ms {
            hist.record(latency);
        }
        hist
    }
}

fn retryable(status: u16) -> bool {
    matches!(status, 429 | 500 | 502 | 503 | 504)
}

/// Appends `op`'s request target and returns the client it goes out as.
fn push_target(out: &mut Vec<u8>, op: Op) -> u32 {
    let mut digits = [0; 20];
    match op {
        Op::App { client, app } => {
            out.extend_from_slice(b"/app?id=");
            out.extend_from_slice(decimal(app.into(), &mut digits));
            client
        }
        Op::Rankings => {
            out.extend_from_slice(b"/rankings");
            0
        }
        Op::Download { app } => {
            out.extend_from_slice(b"/download?app=");
            out.extend_from_slice(decimal(app.into(), &mut digits));
            0
        }
    }
}

/// Appends `op`'s request head to `out`: byte appends, with the
/// numbers written by the integer writer.
fn write_op(out: &mut Vec<u8>, op: Op, now_ms: u64, deadline_ms: u64, trace_id: u64) {
    let mut digits = [0; 20];
    out.extend_from_slice(b"GET ");
    let client = push_target(out, op);
    for (name, value) in [
        (&b" HTTP/1.1\r\nX-Client: "[..], client.into()),
        (b"\r\nX-Now-Ms: ", now_ms),
        (b"\r\nX-Deadline-Ms: ", deadline_ms),
        (b"\r\nX-Trace-Id: ", trace_id),
        (b"\r\nX-Parent-Span: client-", trace_id),
    ] {
        out.extend_from_slice(name);
        out.extend_from_slice(decimal(value, &mut digits));
    }
    out.extend_from_slice(b"\r\n\r\n");
}

/// Sends the requests written to `wire` and empties it for the next.
fn send(stream: &mut TcpStream, wire: &mut Vec<u8>) -> io::Result<()> {
    stream.write_all(wire)?;
    wire.clear();
    Ok(())
}

/// Accounts one completed request: the client-side counters, the SLO
/// monitor (if enabled, on the virtual clock the request was stamped
/// with) and the client leg of its trace.
fn complete(
    stats: &mut ReplayStats,
    monitor: &mut Option<SloMonitor>,
    op: Op,
    trace_id: u64,
    sent_ms: u64,
    response: &ClientResponse,
) {
    let (virtual_ms, degraded) = (response.virtual_ms(), response.degraded());
    if let Some(latency) = virtual_ms {
        stats.latencies_virtual_ms.push(latency);
    }
    if degraded == Some("panic") {
        stats.panics_seen += 1;
    }
    match response.status {
        200 => match op {
            Op::App { .. } => {
                stats.app_ok += 1;
                if response.source() == Some("edge") {
                    stats.app_edge_hits += 1;
                } else {
                    stats.app_backing += 1;
                }
            }
            Op::Rankings => {
                if degraded == Some("stale") {
                    stats.rankings_stale += 1;
                } else {
                    stats.rankings_fresh += 1;
                }
            }
            Op::Download { .. } => stats.downloads_ok += 1,
        },
        429 => stats.rate_limited_429 += 1,
        503 => stats.shed_503 += 1,
        504 => stats.shed_504 += 1,
        500 | 502 => stats.server_errors += 1,
        404 => stats.not_found += 1,
        _ => {}
    }
    if let Some(monitor) = monitor {
        monitor.observe(sent_ms, response.status, virtual_ms.unwrap_or(0));
    }
    trace_client(op, trace_id, sent_ms, response.status, degraded);
}

/// Emits the client-side leg of the cross-tier trace: a
/// [`names::SPAN_SERVE_CLIENT`] frame on the track named by the trace
/// id, using the same deterministic gate as the server (sampled id, or
/// anything degraded/erroring), so client and server legs always
/// stitch for the same requests.
fn trace_client(op: Op, trace_id: u64, sent_ms: u64, status: u16, degraded: Option<&str>) {
    if !trace_id.is_multiple_of(TRACE_SAMPLE_EVERY) && status < 500 && degraded.is_none() {
        return;
    }
    let mut target = Vec::new();
    push_target(&mut target, op);
    appstore_obs::with_track(trace_id, || {
        appstore_obs::span_args(
            names::SPAN_SERVE_CLIENT,
            &[
                ("trace_id", &trace_id.to_string()),
                ("target", &String::from_utf8_lossy(&target)),
                ("status", &status.to_string()),
                ("degraded", degraded.unwrap_or("")),
                ("now_ms", &sent_ms.to_string()),
            ],
            || {},
        );
    });
}

/// Replays `workload` against the server at `addr`, returning
/// client-side statistics. Deterministic for a fixed workload, config,
/// and server state: the virtual clock, retry schedule, and request
/// order are all seeded or sequential.
pub fn replay(
    addr: SocketAddr,
    workload: &Workload,
    config: &ReplayConfig,
) -> io::Result<ReplayStats> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::with_capacity(IO_BUFFER_BYTES, stream.try_clone()?);

    let mut ops = Vec::with_capacity(workload.events.len() + workload.events.len() / 16);
    for (i, &(client, app)) in workload.events.iter().enumerate() {
        if config.rankings_every > 0 && i % config.rankings_every == 0 {
            ops.push(Op::Rankings);
        }
        ops.push(Op::App { client, app });
        if config.download_every > 0 && i % config.download_every == 0 {
            ops.push(Op::Download { app });
        }
    }

    let step_ms = (1_000 / config.qps.max(1)).max(1);
    let schedule = BackoffSchedule::new(config.backoff_base_ms, config.seed.child("backoff"));
    let mut budget = RetryBudget::new(config.retry_budget_ratio, config.retry_budget_burst);
    let mut stats = ReplayStats::default();
    let mut monitor = config.slo.then(SloMonitor::new);
    let mut clock_ms = 0u64;
    // The request bytes, the response head and the batch ledgers are
    // reused for the whole replay.
    let mut wire = Vec::with_capacity(IO_BUFFER_BYTES);
    let mut response = ClientResponse::default();
    let mut pending = Vec::with_capacity(config.batch.max(1));
    let mut retry_queue = Vec::new();

    for batch in ops.chunks(config.batch.max(1)) {
        // Pipeline the whole batch: stamp, write, send once.
        for &op in batch {
            clock_ms += step_ms;
            budget.deposit();
            let trace_id = config.trace_base + stats.requests_sent;
            write_op(&mut wire, op, clock_ms, config.deadline_ms, trace_id);
            stats.requests_sent += 1;
            pending.push((op, clock_ms, trace_id));
        }
        send(&mut stream, &mut wire)?;
        // Read the batch back in order; queue failures for retry only
        // after the batch is fully drained (a mid-batch resend would
        // interleave with responses still in flight).
        for (op, sent_ms, trace_id) in pending.drain(..) {
            read_client_response(&mut reader, &mut response)?;
            complete(&mut stats, &mut monitor, op, trace_id, sent_ms, &response);
            if retryable(response.status) {
                let hinted = response.retry_after_ms().unwrap_or(0);
                retry_queue.push((op, response.status, hinted));
            }
        }
        for (op, mut status, mut hinted) in retry_queue.drain(..) {
            let mut attempt = 0;
            while retryable(status) && attempt < config.max_attempts {
                if !budget.try_spend() {
                    stats.retries_denied += 1;
                    break;
                }
                // Honor the server's backpressure hint, then add the
                // jittered backoff on top.
                clock_ms = clock_ms
                    .saturating_add(hinted)
                    .saturating_add(schedule.delay_ms(attempt));
                let trace_id = config.trace_base + stats.requests_sent;
                write_op(&mut wire, op, clock_ms, config.deadline_ms, trace_id);
                send(&mut stream, &mut wire)?;
                stats.requests_sent += 1;
                stats.retries += 1;
                read_client_response(&mut reader, &mut response)?;
                complete(&mut stats, &mut monitor, op, trace_id, clock_ms, &response);
                status = response.status;
                hinted = response.retry_after_ms().unwrap_or(0);
                attempt += 1;
            }
            if retryable(status) {
                stats.exhausted += 1;
            }
        }
    }
    stats.final_clock_ms = clock_ms;
    stats.slo = monitor.map(SloMonitor::finish);
    Ok(stats)
}

/// A minimal single-day dataset for the serving-layer tests: `apps`
/// apps in one category, app id `i` ranked `i`-th by downloads.
#[cfg(test)]
pub(crate) fn test_dataset(apps: usize) -> appstore_core::Dataset {
    use appstore_core::{
        App, AppId, AppObservation, CategoryId, CategorySet, Cents, DailySnapshot, Dataset, Day,
        Developer, DeveloperId, PricingTier, StoreId, StoreMeta,
    };
    let registry: Vec<App> = (0..apps)
        .map(|i| App {
            id: AppId(i as u32),
            category: CategoryId(0),
            developer: DeveloperId(0),
            tier: PricingTier::Free,
            price: Cents::ZERO,
            created: Day(0),
            apk_size: 3_500_000,
            libraries: Vec::new(),
        })
        .collect();
    let observations = (0..apps)
        .map(|i| AppObservation {
            app: AppId(i as u32),
            category: CategoryId(0),
            developer: DeveloperId(0),
            downloads: (apps - i) as u64,
            comments: 0,
            version: 1,
            price: Cents::ZERO,
        })
        .collect();
    Dataset {
        store: StoreMeta {
            id: StoreId(0),
            name: "serve-test".into(),
            has_paid_apps: false,
        },
        categories: CategorySet::anonymous(1),
        apps: registry,
        developers: vec![Developer::numbered(DeveloperId(0))],
        snapshots: vec![DailySnapshot {
            day: Day(0),
            observations,
        }],
        comments: Vec::new(),
        updates: Vec::new(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::server::{with_server, ServeConfig};
    use crate::SITE_SERVE_HANDLER;
    use appstore_core::faults::{with_injector, FaultInjector, FaultKind, FaultPlan, FaultTrigger};
    use appstore_core::{AppId, Day, UserId};
    use proptest::prelude::*;

    /// The reference rendering of a request head, with `format!`: the
    /// byte appends must reproduce it exactly.
    fn formatted(op: Op, now_ms: u64, deadline_ms: u64, trace_id: u64) -> String {
        let (target, client) = match op {
            Op::App { client, app } => (format!("/app?id={app}"), client),
            Op::Rankings => ("/rankings".to_string(), 0),
            Op::Download { app } => (format!("/download?app={app}"), 0),
        };
        format!(
            "GET {target} HTTP/1.1\r\nX-Client: {client}\r\nX-Now-Ms: {now_ms}\r\nX-Deadline-Ms: {deadline_ms}\r\nX-Trace-Id: {trace_id}\r\nX-Parent-Span: client-{trace_id}\r\n\r\n"
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn request_bytes_match_the_formatted_text(
            kind in 0u8..3,
            ids in (any::<u32>(), any::<u32>()),
            clock in (any::<u64>(), any::<u64>(), any::<u64>()),
            edge in 0usize..3,
        ) {
            let (client, app) = [ids, (0, 0), (u32::MAX, u32::MAX)][edge];
            let op = [Op::App { client, app }, Op::Rankings, Op::Download { app }][kind as usize];
            let (now_ms, deadline_ms, trace_id) = [clock, (0, 0, 0), (u64::MAX, u64::MAX, u64::MAX)][edge];
            let mut wire = b"previous request".to_vec();
            write_op(&mut wire, op, now_ms, deadline_ms, trace_id);
            let expected = formatted(op, now_ms, deadline_ms, trace_id);
            prop_assert_eq!(&wire[b"previous request".len()..], expected.as_bytes());
        }
    }

    fn trace(pairs: &[(u32, u32)]) -> Vec<DownloadEvent> {
        pairs
            .iter()
            .map(|&(user, app)| DownloadEvent {
                user: UserId(user),
                app: AppId(app),
                day: Day(0),
            })
            .collect()
    }

    fn serve_config() -> ServeConfig {
        ServeConfig {
            cache_capacity: 4,
            warm_apps: 4,
            ..ServeConfig::replay_default(Seed::new(3))
        }
    }

    #[test]
    fn workload_maps_trace_events() {
        let workload = Workload::from_trace("t", &trace(&[(1, 10), (2, 11)]));
        assert_eq!(workload.name, "t");
        assert_eq!(workload.events, vec![(1, 10), (2, 11)]);
        assert_eq!(workload.len(), 2);
        assert!(!workload.is_empty());
    }

    #[test]
    fn replay_collects_hits_misses_and_interleaved_endpoints() {
        let dataset = test_dataset(16);
        // Apps 0-3 are warm; 8 and 9 are cold (one miss each, then hits).
        let workload = Workload::from_trace(
            "mixed",
            &trace(&[(1, 0), (2, 1), (3, 8), (4, 8), (5, 9), (6, 2), (7, 9)]),
        );
        let mut config = ReplayConfig::new(Seed::new(7));
        config.rankings_every = 4;
        config.download_every = 3;
        let stats = with_server(&dataset, &serve_config(), |handle| {
            replay(handle.addr(), &workload, &config).unwrap()
        });
        assert_eq!(stats.app_ok, 7);
        // First touches of 8 and 9 go to backing; filling them evicts
        // warm apps 2 and 3 (capacity 4), so 2's later fetch does too.
        assert_eq!(stats.app_backing, 3);
        assert_eq!(stats.app_edge_hits, 4);
        assert_eq!(stats.rankings_fresh, 2, "indices 0 and 4");
        assert_eq!(stats.downloads_ok, 3, "indices 0, 3 and 6");
        assert_eq!(stats.sheds(), 0);
        assert_eq!(stats.retries, 0);
        assert!(stats.hit_rate() > 0.57 && stats.hit_rate() < 0.58);
        assert_eq!(stats.latencies_virtual_ms.len() as u64, stats.requests_sent);
    }

    #[test]
    fn replay_is_deterministic_across_runs() {
        let dataset = test_dataset(24);
        let workload = Workload::from_trace(
            "det",
            &trace(&[(1, 5), (2, 6), (1, 5), (3, 7), (2, 6), (4, 20), (5, 21)]),
        );
        let config = ReplayConfig::new(Seed::new(99));
        let run = || {
            with_server(&dataset, &serve_config(), |handle| {
                replay(handle.addr(), &workload, &config).unwrap()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn failed_requests_retry_under_the_budget_and_recover() {
        let dataset = test_dataset(16);
        // Request index 2 (the third request of the replay stream) hits
        // an injected I/O error; the client retries and succeeds.
        let plan = FaultPlan::seeded(17).rule(
            SITE_SERVE_HANDLER,
            FaultKind::IoError,
            FaultTrigger::AtIndex(2),
        );
        let injector = FaultInjector::new(plan);
        let workload = Workload::from_trace("retry", &trace(&[(1, 0), (2, 1), (3, 2), (4, 3)]));
        let mut config = ReplayConfig::new(Seed::new(5));
        config.rankings_every = 0;
        config.download_every = 0;
        let stats = with_injector(&injector, || {
            with_server(&dataset, &serve_config(), |handle| {
                replay(handle.addr(), &workload, &config).unwrap()
            })
        });
        assert_eq!(stats.server_errors, 1, "the injected 500");
        assert_eq!(stats.retries, 1, "one retry fixed it");
        assert_eq!(stats.app_ok, 4, "all four app pages served in the end");
        assert_eq!(stats.exhausted, 0);
        assert_eq!(stats.requests_sent, 5);
    }

    #[test]
    fn slo_monitor_grades_a_clean_replay_without_alerts() {
        let dataset = test_dataset(16);
        let events: Vec<(u32, u32)> = (0..30).map(|i| (i, i % 4)).collect();
        let workload = Workload::from_trace("clean", &trace(&events));
        let mut config = ReplayConfig::new(Seed::new(12));
        config.slo = true;
        let stats = with_server(&dataset, &serve_config(), |handle| {
            replay(handle.addr(), &workload, &config).unwrap()
        });
        let slo = stats.slo.expect("monitor enabled");
        assert_eq!(slo.errors, 0);
        assert_eq!(slo.fast_burn_fired, 0);
        assert_eq!(slo.slow_burn_fired, 0);
        assert_eq!(slo.availability_ppm, 1_000_000);
        assert_eq!(slo.good, stats.requests_sent);
    }

    #[test]
    fn p99_comes_from_the_log_linear_histogram() {
        let stats = ReplayStats {
            latencies_virtual_ms: (0..100).map(|i| if i < 99 { 5 } else { 81 }).collect(),
            ..ReplayStats::default()
        };
        // Rank ceil(0.99 * 100) = 99 lands on the last of the 5 ms
        // observations; both 5 and 81 are exactly representable.
        assert_eq!(stats.p99_virtual_ms(), 5);
        let hist = stats.latency_histogram();
        assert_eq!(hist.count(), 100);
        assert_eq!(hist.max(), 81);
    }

    #[test]
    fn retry_budget_denies_when_exhausted() {
        let dataset = test_dataset(8);
        // Every handler roll fails: retries burn the budget down and
        // the client stops multiplying load.
        let plan = FaultPlan::seeded(23).rule(
            SITE_SERVE_HANDLER,
            FaultKind::IoError,
            FaultTrigger::Probability(1.0),
        );
        let injector = FaultInjector::new(plan);
        let events: Vec<(u32, u32)> = (0..40).map(|i| (i, i % 8)).collect();
        let workload = Workload::from_trace("storm", &trace(&events));
        let mut config = ReplayConfig::new(Seed::new(6));
        config.rankings_every = 0;
        config.download_every = 0;
        config.retry_budget_ratio = 0.1;
        config.retry_budget_burst = 2;
        let stats = with_injector(&injector, || {
            with_server(&dataset, &serve_config(), |handle| {
                replay(handle.addr(), &workload, &config).unwrap()
            })
        });
        assert_eq!(stats.app_ok, 0);
        assert!(stats.retries_denied > 0, "budget said no at some point");
        // Budget cap: burst + ratio * fresh traffic, never more.
        assert!(stats.retries <= 2 + (events.len() as u64) / 10 + 1);
    }
}
