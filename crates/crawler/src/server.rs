//! The marketplace frontend.
//!
//! [`MarketplaceServer`] serves the three wire endpoints from a generated
//! store's ground-truth dataset and enforces the operational behaviour
//! the paper had to engineer around:
//!
//! * **token-bucket rate limiting** per client address — each address
//!   may issue `burst` requests immediately and then refills at
//!   `requests_per_second`;
//! * **geo throttling** — Chinese stores serve non-China addresses at a
//!   small fraction of the domestic rate (the paper's reason for using
//!   China-located PlanetLab nodes);
//! * **blacklisting** — an address that keeps hammering past its limit
//!   (more than `violation_budget` throttled requests) is permanently
//!   refused, like the IP bans the paper's distributed crawling scheme
//!   existed to avoid.
//!
//! The server is deliberately synchronous: the campaign driver holds the
//! virtual clock and passes `now_ms` in, which keeps the whole simulation
//! deterministic. Interior state (buckets, blacklist) sits behind a
//! `parking_lot::Mutex`, so concurrent crawler threads can share one
//! server in the stress tests.

use crate::proxy::Region;
use crate::wire::{encode_response, Request, Response, WireError, COMMENTS_PAGE_SIZE};
use appstore_core::{CommentEvent, Dataset, Day};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Operational policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPolicy {
    /// Sustained request rate per address (tokens per second).
    pub requests_per_second: f64,
    /// Bucket depth (burst size) per address.
    pub burst: u32,
    /// Whether the store throttles foreign addresses (Chinese stores).
    pub china_only: bool,
    /// Rate multiplier applied to foreign addresses when `china_only`
    /// (e.g. 0.05 ⇒ 20× slower).
    pub foreign_rate_factor: f64,
    /// Throttled-request budget before an address is blacklisted.
    pub violation_budget: u32,
    /// Base response latency in virtual ms.
    pub latency_ms: u64,
}

impl Default for ServerPolicy {
    fn default() -> ServerPolicy {
        ServerPolicy {
            requests_per_second: 10.0,
            burst: 20,
            china_only: false,
            foreign_rate_factor: 0.05,
            violation_budget: 200,
            latency_ms: 80,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_refill_ms: u64,
    violations: u32,
    blacklisted: bool,
}

/// The simulated store frontend.
pub struct MarketplaceServer<'a> {
    dataset: &'a Dataset,
    policy: ServerPolicy,
    /// Comments grouped by day (built once).
    comments_by_day: Vec<Vec<CommentEvent>>,
    /// Per-client token buckets. The key is the `X-Client` address a
    /// client sends, so this map keeps `std`'s keyed SipHash: a client
    /// that picks its own keys must not be able to flood one bucket
    /// chain.
    state: Mutex<HashMap<u32, Bucket>>,
}

impl<'a> MarketplaceServer<'a> {
    /// Wraps a ground-truth dataset behind the wire protocol.
    pub fn new(dataset: &'a Dataset, policy: ServerPolicy) -> MarketplaceServer<'a> {
        let days = dataset
            .snapshots
            .last()
            .map(|s| s.day.index() + 1)
            .unwrap_or(0);
        let mut comments_by_day = vec![Vec::new(); days];
        for c in &dataset.comments {
            if c.day.index() < days {
                comments_by_day[c.day.index()].push(*c);
            }
        }
        for day in &mut comments_by_day {
            day.sort_by_key(|c| (c.user, c.seq, c.app));
        }
        MarketplaceServer {
            dataset,
            policy,
            comments_by_day,
            state: Mutex::new(HashMap::new()),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> ServerPolicy {
        self.policy
    }

    /// Effective token rate for an address in `region`.
    fn rate_for(&self, region: Region) -> f64 {
        if self.policy.china_only && region != Region::China {
            self.policy.requests_per_second * self.policy.foreign_rate_factor
        } else {
            self.policy.requests_per_second
        }
    }

    /// Admission control: returns `Ok(())` or a wire error, updating the
    /// address's bucket. [`MarketplaceServer::handle`] is admission plus
    /// [`MarketplaceServer::peek`]; a caller that keeps encoded pages of
    /// its own admits first and then serves from them.
    pub fn admit(&self, addr: u32, region: Region, now_ms: u64) -> Result<(), WireError> {
        let mut state = self.state.lock();
        let bucket = state.entry(addr).or_insert(Bucket {
            tokens: f64::from(self.policy.burst),
            last_refill_ms: now_ms,
            violations: 0,
            blacklisted: false,
        });
        if bucket.blacklisted {
            return Err(WireError::Blacklisted);
        }
        let rate = self.rate_for(region);
        let elapsed = now_ms.saturating_sub(bucket.last_refill_ms) as f64 / 1000.0;
        bucket.tokens = (bucket.tokens + elapsed * rate).min(f64::from(self.policy.burst));
        bucket.last_refill_ms = now_ms;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Ok(());
        }
        bucket.violations += 1;
        if bucket.violations > self.policy.violation_budget {
            bucket.blacklisted = true;
            return Err(WireError::Blacklisted);
        }
        let deficit = 1.0 - bucket.tokens;
        let retry_after_ms = ((deficit / rate) * 1000.0).ceil() as u64;
        Err(WireError::RateLimited { retry_after_ms })
    }

    /// Serves one request from `addr`/`region` at virtual time `now_ms`.
    /// On success returns the encoded payload and the virtual latency.
    pub fn handle(
        &self,
        addr: u32,
        region: Region,
        now_ms: u64,
        request: Request,
    ) -> Result<(Bytes, u64), WireError> {
        self.admit(addr, region, now_ms)?;
        Ok((self.peek(request)?, self.policy.latency_ms))
    }

    /// Serves one request outside admission control: no token bucket,
    /// no blacklist, no latency. This is the internal replication
    /// channel — anti-entropy reconciliation reads the authoritative
    /// payload without competing with (or being throttled like) client
    /// traffic.
    pub fn peek(&self, request: Request) -> Result<Bytes, WireError> {
        Ok(encode_response(&self.serve(request)?))
    }

    fn snapshot_for(&self, day: Day) -> Result<&appstore_core::DailySnapshot, WireError> {
        self.dataset
            .snapshots
            .iter()
            .find(|s| s.day == day)
            .ok_or(WireError::NotFound)
    }

    fn serve(&self, request: Request) -> Result<Response, WireError> {
        match request {
            Request::Index { day } => {
                let snapshot = self.snapshot_for(day)?;
                Ok(Response::Index {
                    apps: snapshot.observations.iter().map(|o| o.app).collect(),
                })
            }
            Request::AppPage { app, day } => {
                let snapshot = self.snapshot_for(day)?;
                let idx = snapshot
                    .observations
                    .binary_search_by_key(&app, |o| o.app)
                    .map_err(|_| WireError::NotFound)?;
                Ok(Response::AppPage {
                    observation: snapshot.observations[idx],
                })
            }
            Request::CommentsPage { day, page } => {
                let comments = self
                    .comments_by_day
                    .get(day.index())
                    .ok_or(WireError::NotFound)?;
                let start = page as usize * COMMENTS_PAGE_SIZE;
                if start > comments.len() && !(start == 0 && comments.is_empty()) {
                    return Err(WireError::NotFound);
                }
                let end = (start + COMMENTS_PAGE_SIZE).min(comments.len());
                Ok(Response::CommentsPage {
                    comments: comments[start.min(comments.len())..end].to_vec(),
                    has_more: end < comments.len(),
                })
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::wire::decode_response;
    use appstore_core::{Seed, StoreId};
    use appstore_synth::{generate, StoreProfile};

    fn tiny_dataset() -> appstore_core::Dataset {
        generate(
            &StoreProfile::anzhi().scaled_down(40),
            StoreId(0),
            Seed::new(1),
        )
        .dataset
    }

    #[test]
    fn serves_index_and_pages_from_ground_truth() {
        let dataset = tiny_dataset();
        let server = MarketplaceServer::new(&dataset, ServerPolicy::default());
        let day = dataset.last().day;
        let (payload, latency) = server
            .handle(0, Region::Europe, 0, Request::Index { day })
            .unwrap();
        assert_eq!(latency, 80);
        let Response::Index { apps } = decode_response(&payload).unwrap() else {
            panic!("wrong response kind");
        };
        assert_eq!(apps.len(), dataset.last().app_count());
        // Every app page matches the ground-truth observation.
        let app = apps[apps.len() / 2];
        let (payload, _) = server
            .handle(0, Region::Europe, 1_000, Request::AppPage { app, day })
            .unwrap();
        let Response::AppPage { observation } = decode_response(&payload).unwrap() else {
            panic!("wrong response kind");
        };
        assert_eq!(
            Some(observation.downloads),
            dataset.last().downloads_of(app)
        );
    }

    #[test]
    fn unknown_day_and_app_are_not_found() {
        let dataset = tiny_dataset();
        let server = MarketplaceServer::new(&dataset, ServerPolicy::default());
        assert_eq!(
            server
                .handle(0, Region::Europe, 0, Request::Index { day: Day(9999) })
                .unwrap_err(),
            WireError::NotFound
        );
        assert_eq!(
            server
                .handle(
                    0,
                    Region::Europe,
                    10,
                    Request::AppPage {
                        app: appstore_core::AppId(u32::MAX),
                        day: dataset.last().day
                    }
                )
                .unwrap_err(),
            WireError::NotFound
        );
    }

    #[test]
    fn token_bucket_throttles_bursts() {
        let dataset = tiny_dataset();
        let policy = ServerPolicy {
            requests_per_second: 10.0,
            burst: 5,
            ..ServerPolicy::default()
        };
        let server = MarketplaceServer::new(&dataset, policy);
        let day = dataset.last().day;
        // 5 burst tokens pass…
        for _ in 0..5 {
            assert!(server
                .handle(7, Region::Europe, 0, Request::Index { day })
                .is_ok());
        }
        // …the 6th is throttled with a sensible retry hint (1 token at
        // 10/s ⇒ 100 ms).
        match server.handle(7, Region::Europe, 0, Request::Index { day }) {
            Err(WireError::RateLimited { retry_after_ms }) => {
                assert!((90..=110).contains(&retry_after_ms), "{retry_after_ms}");
            }
            other => panic!("expected throttle, got {other:?}"),
        }
        // After a second of virtual time, tokens refill.
        assert!(server
            .handle(7, Region::Europe, 1_000, Request::Index { day })
            .is_ok());
    }

    #[test]
    fn china_only_policy_throttles_foreigners_harder() {
        let dataset = tiny_dataset();
        let policy = ServerPolicy {
            requests_per_second: 10.0,
            burst: 1,
            china_only: true,
            foreign_rate_factor: 0.1,
            ..ServerPolicy::default()
        };
        let server = MarketplaceServer::new(&dataset, policy);
        let day = dataset.last().day;
        // Exhaust both addresses' single token.
        assert!(server
            .handle(1, Region::China, 0, Request::Index { day })
            .is_ok());
        assert!(server
            .handle(2, Region::Europe, 0, Request::Index { day })
            .is_ok());
        let china_retry = match server.handle(1, Region::China, 0, Request::Index { day }) {
            Err(WireError::RateLimited { retry_after_ms }) => retry_after_ms,
            other => panic!("{other:?}"),
        };
        let foreign_retry = match server.handle(2, Region::Europe, 0, Request::Index { day }) {
            Err(WireError::RateLimited { retry_after_ms }) => retry_after_ms,
            other => panic!("{other:?}"),
        };
        assert!(
            foreign_retry >= china_retry * 9,
            "foreign {foreign_retry} vs china {china_retry}"
        );
    }

    #[test]
    fn persistent_violations_lead_to_blacklisting() {
        let dataset = tiny_dataset();
        let policy = ServerPolicy {
            requests_per_second: 1.0,
            burst: 1,
            violation_budget: 3,
            ..ServerPolicy::default()
        };
        let server = MarketplaceServer::new(&dataset, policy);
        let day = dataset.last().day;
        assert!(server
            .handle(9, Region::Europe, 0, Request::Index { day })
            .is_ok());
        // Hammer without waiting: 3 violations tolerated, then banned.
        for _ in 0..3 {
            assert!(matches!(
                server.handle(9, Region::Europe, 0, Request::Index { day }),
                Err(WireError::RateLimited { .. })
            ));
        }
        assert_eq!(
            server.handle(9, Region::Europe, 0, Request::Index { day }),
            Err(WireError::Blacklisted)
        );
        // And stays banned even after time passes.
        assert_eq!(
            server.handle(9, Region::Europe, 60_000, Request::Index { day }),
            Err(WireError::Blacklisted)
        );
    }

    #[test]
    fn peek_bypasses_admission_and_matches_the_metered_payload() {
        let dataset = tiny_dataset();
        let policy = ServerPolicy {
            requests_per_second: 1.0,
            burst: 1,
            ..ServerPolicy::default()
        };
        let server = MarketplaceServer::new(&dataset, policy);
        let day = dataset.last().day;
        let (metered, _) = server
            .handle(3, Region::Europe, 0, Request::Index { day })
            .unwrap();
        // The bucket is now empty, but peek still answers — and with
        // byte-identical content.
        assert!(matches!(
            server.handle(3, Region::Europe, 0, Request::Index { day }),
            Err(WireError::RateLimited { .. })
        ));
        assert_eq!(server.peek(Request::Index { day }).unwrap(), metered);
    }

    #[test]
    fn comment_pages_paginate_without_loss() {
        let dataset = tiny_dataset();
        let server = MarketplaceServer::new(&dataset, ServerPolicy::default());
        let mut harvested = Vec::new();
        for day in 0..dataset.snapshots.len() as u32 {
            let mut page = 0;
            loop {
                let (payload, _) = server
                    .handle(
                        0,
                        Region::Europe,
                        u64::from(day) * 10_000 + u64::from(page) * 200,
                        Request::CommentsPage {
                            day: Day(day),
                            page,
                        },
                    )
                    .unwrap();
                let Response::CommentsPage { comments, has_more } =
                    decode_response(&payload).unwrap()
                else {
                    panic!("wrong response kind");
                };
                harvested.extend(comments);
                if !has_more {
                    break;
                }
                page += 1;
            }
        }
        assert_eq!(harvested.len(), dataset.comments.len());
    }
}
