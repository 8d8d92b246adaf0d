//! The proxy pool.
//!
//! The paper routed every crawl request through ~100 PlanetLab nodes to
//! avoid IP blacklisting, using only China-located nodes against the
//! Chinese stores (which rate-limit foreign clients hard). A [`Proxy`]
//! is an address plus a region; the [`ProxyPool`] tracks when each proxy
//! is next usable (its per-store token refill) and hands out the
//! earliest-available eligible proxy.
//!
//! On top of scheduling, the pool runs a per-proxy **circuit breaker**:
//! consecutive transport failures trip the breaker and quarantine the
//! node for an exponentially growing probation window (a PlanetLab node
//! that starts mangling responses should stop receiving traffic, but be
//! probed again later since flakiness is often transient). A success
//! closes the breaker and resets probation. Health counters per proxy
//! feed the recovery report. [`ProxyPool::ban`] remains separate and
//! permanent — a server blacklist never heals.

use serde::{Deserialize, Serialize};

/// Consecutive failures that trip a proxy's circuit breaker.
const BREAKER_STREAK: u32 = 3;
/// First quarantine window after the breaker trips (virtual ms).
const PROBATION_INITIAL_MS: u64 = 5_000;
/// Probation windows double per consecutive trip, up to this cap.
const PROBATION_CAP_MS: u64 = 900_000;

/// Coarse geography of a proxy node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Region {
    /// Node located in China (required for the Chinese stores).
    China,
    /// Node located in Europe.
    Europe,
    /// Node located in the United States.
    UnitedStates,
}

/// One proxy node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Proxy {
    /// Stable address identifier (stands in for an IP).
    pub addr: u32,
    /// Where the node lives.
    pub region: Region,
}

/// Health ledger of one proxy, for the recovery report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProxyHealth {
    /// Which proxy.
    pub proxy: Proxy,
    /// Successful responses relayed.
    pub successes: u64,
    /// Transport failures observed (drops, corrupted payloads).
    pub failures: u64,
    /// Times the circuit breaker tripped into quarantine.
    pub quarantines: u64,
    /// Permanently banned by the server.
    pub banned: bool,
}

impl ProxyHealth {
    /// Success fraction in [0, 1]; a fresh proxy scores 1.
    pub fn score(&self) -> f64 {
        let total = self.successes + self.failures;
        if total == 0 {
            1.0
        } else {
            self.successes as f64 / total as f64
        }
    }
}

/// A pool of proxies with per-proxy next-available times (virtual ms)
/// and circuit-breaker state.
#[derive(Debug, Clone)]
pub struct ProxyPool {
    proxies: Vec<Proxy>,
    next_free_ms: Vec<u64>,
    banned: Vec<bool>,
    /// Consecutive transport failures since the last success.
    streak: Vec<u32>,
    /// Breaker-open window: not eligible before this virtual time.
    quarantined_until: Vec<u64>,
    /// Next probation window; doubles per trip, resets on success.
    probation_ms: Vec<u64>,
    /// Breaker state: true from trip until the next success, so the
    /// open→closed transition is observable exactly once per episode.
    open: Vec<bool>,
    successes: Vec<u64>,
    failures: Vec<u64>,
    quarantines: Vec<u64>,
}

impl ProxyPool {
    /// Builds a pool in the paper's shape: `china` Chinese nodes plus
    /// `western` nodes split between Europe and the US.
    pub fn planetlab(china: usize, western: usize) -> ProxyPool {
        let mut proxies = Vec::with_capacity(china + western);
        for i in 0..china {
            proxies.push(Proxy {
                addr: i as u32,
                region: Region::China,
            });
        }
        for i in 0..western {
            proxies.push(Proxy {
                addr: (china + i) as u32,
                region: if i % 2 == 0 {
                    Region::Europe
                } else {
                    Region::UnitedStates
                },
            });
        }
        let n = proxies.len();
        ProxyPool {
            proxies,
            next_free_ms: vec![0; n],
            banned: vec![false; n],
            streak: vec![0; n],
            quarantined_until: vec![0; n],
            probation_ms: vec![PROBATION_INITIAL_MS; n],
            open: vec![false; n],
            successes: vec![0; n],
            failures: vec![0; n],
            quarantines: vec![0; n],
        }
    }

    /// Number of proxies (banned or not).
    pub fn len(&self) -> usize {
        self.proxies.len()
    }

    /// True if the pool has no proxies.
    pub fn is_empty(&self) -> bool {
        self.proxies.is_empty()
    }

    /// Number of usable (non-banned) proxies, optionally restricted to a
    /// region.
    pub fn usable(&self, region: Option<Region>) -> usize {
        self.proxies
            .iter()
            .zip(&self.banned)
            .filter(|(p, &banned)| !banned && region.is_none_or(|r| p.region == r))
            .count()
    }

    /// Picks the eligible proxy (matching `region` if given, not banned)
    /// that becomes free earliest; returns it with the time it can fire
    /// (≥ `now_ms`). A quarantined proxy is eligible again once its
    /// probation window ends — if every node is quarantined, the call
    /// returns the earliest probe time rather than failing. `None` if no
    /// eligible proxy exists.
    pub fn acquire(&self, now_ms: u64, region: Option<Region>) -> Option<(Proxy, u64)> {
        self.proxies
            .iter()
            .enumerate()
            .filter(|(i, p)| !self.banned[*i] && region.is_none_or(|r| p.region == r))
            .map(|(i, p)| {
                (
                    *p,
                    self.next_free_ms[i]
                        .max(self.quarantined_until[i])
                        .max(now_ms),
                )
            })
            .min_by_key(|&(p, at)| (at, p.addr))
    }

    /// Marks a proxy busy until `until_ms` (its local pacing delay).
    pub fn hold(&mut self, proxy: Proxy, until_ms: u64) {
        let i = self.index_of(proxy);
        self.next_free_ms[i] = self.next_free_ms[i].max(until_ms);
    }

    /// Permanently removes a proxy from rotation (server blacklisted it).
    pub fn ban(&mut self, proxy: Proxy) {
        let i = self.index_of(proxy);
        if !self.banned[i] {
            appstore_obs::counter(appstore_obs::names::CRAWL_PROXY_BANS, 1);
        }
        self.banned[i] = true;
    }

    /// Records a successful response through `proxy`: closes the circuit
    /// breaker and resets its probation window.
    pub fn record_success(&mut self, proxy: Proxy) {
        let i = self.index_of(proxy);
        self.successes[i] = self.successes[i].saturating_add(1);
        self.streak[i] = 0;
        self.probation_ms[i] = PROBATION_INITIAL_MS;
        if self.open[i] {
            self.open[i] = false;
            appstore_obs::counter(appstore_obs::names::CRAWL_BREAKER_CLOSES, 1);
            appstore_obs::instant_args(
                appstore_obs::names::INSTANT_CRAWL_BREAKER_CLOSE,
                &[("proxy", &proxy.addr.to_string())],
            );
        }
    }

    /// Records a transport failure (dropped or corrupted response)
    /// through `proxy` at virtual time `now_ms`. After
    /// `BREAKER_STREAK` consecutive failures the breaker trips: the
    /// proxy is quarantined until `now_ms + probation`, and the next
    /// probation window doubles (capped), so a persistently sick node
    /// backs off exponentially while still being probed.
    pub fn record_failure(&mut self, proxy: Proxy, now_ms: u64) {
        let i = self.index_of(proxy);
        self.failures[i] = self.failures[i].saturating_add(1);
        // A failure reported while the breaker is still open is a stale
        // in-flight response from the episode that already tripped it (a
        // probe that timed out exactly at the deadline lands at
        // `quarantined_until`, which counts). Tally the ledger but do not
        // advance the streak, or one bad episode double-counts and the
        // probation window ratchets without a fresh probe ever failing.
        if self.open[i] && now_ms < self.quarantined_until[i] {
            return;
        }
        self.streak[i] = self.streak[i].saturating_add(1);
        if self.streak[i] >= BREAKER_STREAK {
            self.quarantined_until[i] = now_ms.saturating_add(self.probation_ms[i]);
            self.probation_ms[i] = (self.probation_ms[i].saturating_mul(2)).min(PROBATION_CAP_MS);
            self.quarantines[i] = self.quarantines[i].saturating_add(1);
            self.open[i] = true;
            appstore_obs::counter(appstore_obs::names::CRAWL_BREAKER_TRIPS, 1);
            appstore_obs::instant_args(
                appstore_obs::names::INSTANT_CRAWL_BREAKER_TRIP,
                &[
                    ("proxy", &proxy.addr.to_string()),
                    ("until_ms", &self.quarantined_until[i].to_string()),
                    ("next_probation_ms", &self.probation_ms[i].to_string()),
                ],
            );
            // A fresh streak starts after the probe.
            self.streak[i] = 0;
        }
    }

    /// True if `proxy`'s breaker is open (quarantined) at `now_ms`.
    pub fn is_quarantined(&self, proxy: Proxy, now_ms: u64) -> bool {
        self.quarantined_until[self.index_of(proxy)] > now_ms
    }

    /// True while `proxy`'s breaker episode is open — from trip until
    /// the next success — even after its quarantine window has expired.
    /// An expired window with the episode still open is exactly the
    /// half-open state: the node deserves a probe, not full traffic.
    pub fn breaker_open(&self, proxy: Proxy) -> bool {
        self.open[self.index_of(proxy)]
    }

    /// One proxy's health ledger without allocating the whole vector —
    /// the serving balancer compares replica scores on every routed
    /// request, so this sits on a hot path.
    pub fn health_of(&self, proxy: Proxy) -> ProxyHealth {
        let i = self.index_of(proxy);
        ProxyHealth {
            proxy: self.proxies[i],
            successes: self.successes[i],
            failures: self.failures[i],
            quarantines: self.quarantines[i],
            banned: self.banned[i],
        }
    }

    /// Per-proxy health ledgers, in pool order.
    pub fn health(&self) -> Vec<ProxyHealth> {
        self.proxies
            .iter()
            .enumerate()
            .map(|(i, &proxy)| ProxyHealth {
                proxy,
                successes: self.successes[i],
                failures: self.failures[i],
                quarantines: self.quarantines[i],
                banned: self.banned[i],
            })
            .collect()
    }

    fn index_of(&self, proxy: Proxy) -> usize {
        self.proxies
            .iter()
            .position(|p| p.addr == proxy.addr)
            .expect("proxy belongs to this pool")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn planetlab_shape() {
        let pool = ProxyPool::planetlab(40, 60);
        assert_eq!(pool.len(), 100);
        assert_eq!(pool.usable(Some(Region::China)), 40);
        assert_eq!(
            pool.usable(Some(Region::Europe)) + pool.usable(Some(Region::UnitedStates)),
            60
        );
    }

    #[test]
    fn acquire_prefers_earliest_free() {
        let mut pool = ProxyPool::planetlab(2, 0);
        let (first, at) = pool.acquire(100, None).unwrap();
        assert_eq!(at, 100);
        pool.hold(first, 500);
        let (second, at2) = pool.acquire(100, None).unwrap();
        assert_ne!(second.addr, first.addr);
        assert_eq!(at2, 100);
        pool.hold(second, 800);
        // Both busy: earliest is the first, at 500.
        let (third, at3) = pool.acquire(100, None).unwrap();
        assert_eq!(third.addr, first.addr);
        assert_eq!(at3, 500);
    }

    #[test]
    fn region_filter_and_bans() {
        let mut pool = ProxyPool::planetlab(1, 2);
        let (china, _) = pool.acquire(0, Some(Region::China)).unwrap();
        assert_eq!(china.region, Region::China);
        pool.ban(china);
        assert!(pool.acquire(0, Some(Region::China)).is_none());
        assert_eq!(pool.usable(None), 2);
        assert!(pool.acquire(0, None).is_some());
    }

    #[test]
    fn breaker_trips_after_a_failure_streak_and_probes_again() {
        let mut pool = ProxyPool::planetlab(0, 1);
        let (proxy, _) = pool.acquire(0, None).unwrap();
        pool.record_failure(proxy, 1_000);
        pool.record_failure(proxy, 1_100);
        assert!(!pool.is_quarantined(proxy, 1_100), "two failures: closed");
        pool.record_failure(proxy, 1_200);
        assert!(pool.is_quarantined(proxy, 1_200), "third failure trips");
        assert!(pool.breaker_open(proxy));
        // Not eligible until probation ends; acquire defers to the probe
        // time instead of failing.
        let (_, at) = pool.acquire(1_300, None).unwrap();
        assert_eq!(at, 1_200 + 5_000);
        assert!(!pool.is_quarantined(proxy, at));
        // Quarantine expired but no success yet: half-open, still open.
        assert!(pool.breaker_open(proxy));
        pool.record_success(proxy);
        assert!(!pool.breaker_open(proxy));
    }

    #[test]
    fn probation_doubles_per_trip_and_success_resets_it() {
        let mut pool = ProxyPool::planetlab(0, 1);
        let (proxy, _) = pool.acquire(0, None).unwrap();
        for _ in 0..3 {
            pool.record_failure(proxy, 0);
        }
        let (_, first_probe) = pool.acquire(0, None).unwrap();
        // Second trip: window doubled.
        for _ in 0..3 {
            pool.record_failure(proxy, first_probe);
        }
        let (_, second_probe) = pool.acquire(first_probe, None).unwrap();
        assert_eq!(second_probe - first_probe, 2 * first_probe);
        // A success closes the breaker and resets probation.
        pool.record_success(proxy);
        for _ in 0..3 {
            pool.record_failure(proxy, 100_000);
        }
        let (_, probe) = pool.acquire(100_000, None).unwrap();
        assert_eq!(probe - 100_000, 5_000, "probation back to initial");
        let health = &pool.health()[0];
        assert_eq!(health.failures, 9);
        assert_eq!(health.successes, 1);
        assert_eq!(health.quarantines, 3);
        assert!(!health.banned);
        assert!(health.score() < 0.2);
        assert_eq!(pool.health_of(proxy), *health);
    }

    #[test]
    fn stale_failures_inside_an_open_window_do_not_double_count() {
        let mut pool = ProxyPool::planetlab(0, 1);
        let (proxy, _) = pool.acquire(0, None).unwrap();
        // Trip at 1_000: quarantined until 6_000, probation doubles to 10s.
        for now in [800, 900, 1_000] {
            pool.record_failure(proxy, now);
        }
        assert!(pool.is_quarantined(proxy, 1_000));
        // Stale in-flight failures from the same episode drain while the
        // breaker is open: ledger grows, but no second trip and no streak.
        for now in [3_000, 3_500, 4_000] {
            pool.record_failure(proxy, now);
        }
        let health = &pool.health()[0];
        assert_eq!(health.failures, 6, "ledger still counts every failure");
        assert_eq!(health.quarantines, 1, "but the breaker tripped once");
        // A probe failing exactly at the deadline is a genuine new
        // failure (single-counted): two more leave the streak short…
        pool.record_failure(proxy, 6_000);
        pool.record_failure(proxy, 6_100);
        assert!(!pool.is_quarantined(proxy, 6_100), "streak is 2, not 5");
        // …and a third trips the second quarantine with the doubled
        // window, proving probation did not ratchet during the stale run.
        pool.record_failure(proxy, 6_200);
        assert_eq!(pool.health()[0].quarantines, 2);
        let (_, probe) = pool.acquire(6_200, None).unwrap();
        assert_eq!(probe, 6_200 + 10_000, "exactly one doubling");
    }

    #[test]
    fn quarantine_heals_but_ban_does_not() {
        let mut pool = ProxyPool::planetlab(0, 2);
        let (a, _) = pool.acquire(0, None).unwrap();
        for _ in 0..3 {
            pool.record_failure(a, 0);
        }
        // While `a` is quarantined the other proxy serves.
        let (b, at) = pool.acquire(0, None).unwrap();
        assert_ne!(b.addr, a.addr);
        assert_eq!(at, 0);
        // After probation `a` is back in rotation…
        assert!(!pool.is_quarantined(a, 10_000));
        // …but a ban is forever.
        pool.ban(a);
        pool.hold(b, 1_000_000);
        let (only, _) = pool.acquire(10_000, None).unwrap();
        assert_eq!(only.addr, b.addr);
    }

    #[test]
    fn breaker_transitions_and_bans_are_observable() {
        let registry = appstore_obs::Registry::new();
        appstore_obs::with_registry(&registry, || {
            let mut pool = ProxyPool::planetlab(0, 2);
            let (proxy, _) = pool.acquire(0, None).unwrap();
            for _ in 0..3 {
                pool.record_failure(proxy, 0);
            }
            // Extra successes while closed must not double-count closes.
            pool.record_success(proxy);
            pool.record_success(proxy);
            for _ in 0..3 {
                pool.record_failure(proxy, 50_000);
            }
            pool.ban(proxy);
            pool.ban(proxy); // idempotent: still one ban event
        });
        assert_eq!(registry.counter_value("crawl.breaker.trips"), 2);
        assert_eq!(registry.counter_value("crawl.breaker.closes"), 1);
        assert_eq!(registry.counter_value("crawl.proxy.bans"), 1);
    }

    #[test]
    fn empty_pool() {
        let pool = ProxyPool::planetlab(0, 0);
        assert!(pool.is_empty());
        assert!(pool.acquire(0, None).is_none());
    }
}
