//! The resilient appstore serving layer.
//!
//! Everything before this crate treats the store as a passive dataset
//! behind a simulated wire; this crate promotes it into a real network
//! service — a threaded TCP/HTTP front end over the store state (app
//! pages, rankings, the download endpoint) built from `std` only — and
//! wraps it in the resilience machinery a bursty, heavy-tailed
//! marketplace workload demands:
//!
//! * **per-request deadlines** ([`deadline`]) — every request carries a
//!   virtual-time budget (propagated from the client via a header) that
//!   each stage of handler work charges against; an exhausted budget
//!   turns into a 504 instead of a stalled socket;
//! * **bounded admission** ([`queue`]) — connections enter a bounded
//!   work queue; when it is full the server sheds with an explicit
//!   `503 Retry-After` instead of letting latency grow without bound;
//! * **a replicated backing tier** ([`balancer`], [`replica`],
//!   [`hedge`]) — misses go to one of N deterministic
//!   [`appstore_crawler::MarketplaceServer`] replicas (reusing their
//!   per-client token-bucket rate limits) picked by seeded
//!   power-of-two-choices routing over per-replica
//!   [`appstore_crawler::ProxyPool`] circuit breakers, with hedged
//!   reads under a per-replica retry budget and an anti-entropy pass
//!   that fingerprints and repairs divergent replicas — so a sick
//!   replica is routed around, probed, and reconciled, not hammered;
//! * **graceful degradation** ([`edge`]) — rankings are cached at the
//!   edge with stale-while-revalidate: while the breaker is open the
//!   server serves the stale copy (marked `X-Degraded: stale`) instead
//!   of erroring, and only sheds when it has nothing at all;
//! * **a deterministic load generator** ([`replay`](mod@replay)) — replays
//!   APP-CLUSTERING / ZIPF download traces at a configurable QPS over a
//!   real socket, with jittered-backoff retries governed by an
//!   [`appstore_core::backoff::RetryBudget`] so retries cannot amplify
//!   overload;
//! * **a live telemetry plane** ([`telemetry`]) — `GET /metrics`
//!   (Prometheus text exposition of the installed registry),
//!   `GET /healthz` (degradation-ladder state plus breaker ledgers),
//!   and `GET /statusz` (queue depth, shed counters, virtual uptime)
//!   served through the normal request path, so the server stays
//!   scrapeable mid-replay;
//! * **SLO burn-rate grading** ([`slo`]) — fixed availability and p99
//!   objectives evaluated over rolling virtual-time windows with
//!   multi-window burn-rate alerting, so a chaos window trips a
//!   fast-burn alert and provably recovers.
//!
//! The degradation ladder is always *fresh → stale → shed*: serve live
//! data when the backing store is healthy, serve a stale edge copy when
//! it is not, and shed explicitly when even that is impossible.
//!
//! Determinism: all resilience decisions run on virtual time (the
//! replay client stamps every request with `X-Now-Ms`), fault rolls and
//! shed rolls key off sequential request indices, and wall-clock only
//! feeds volatile metrics — so a seeded replay produces byte-identical
//! counters, hit rates, and fault logs on every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod balancer;
pub mod deadline;
pub mod edge;
pub mod hedge;
pub mod http;
pub mod queue;
pub mod replay;
pub mod replica;
pub mod server;
pub mod slo;
pub mod telemetry;

pub use balancer::{replica_site, BackingTier, ReconcileReport, TierError, TierStats};
pub use deadline::Deadline;
pub use edge::{EdgeCache, RankingsView};
pub use hedge::HedgePolicy;
pub use http::{HttpRequest, HttpResponse};
pub use queue::BoundedQueue;
pub use replay::{replay, ReplayConfig, ReplayStats, Workload};
pub use replica::{fingerprint64, PageTable, Replica, ReplicaError, ReplicaState};
pub use server::{with_server, ServeConfig, ServerHandle, TRACE_SAMPLE_EVERY};
pub use slo::{SloMonitor, SloSummary};
pub use telemetry::{BreakerState, HealthState, StatusSnapshot};

/// Fault-injection site: one roll per request at the handler boundary
/// (worker panics, injected handler delays and I/O errors).
pub const SITE_SERVE_HANDLER: &str = "serve.handler";

/// Fault-injection site: one roll per backing-store call (I/O errors and
/// slowdowns on the path behind the edge cache).
pub const SITE_SERVE_BACKING: &str = "serve.backing";
