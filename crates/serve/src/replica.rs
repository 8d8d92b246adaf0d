//! One member of the replicated backing tier.
//!
//! A [`Replica`] wraps a [`MarketplaceServer`] — its own instance, with
//! its own token buckets — behind the fault plane the serving tier
//! needs: it can **crash** (down until an explicit rejoin), be
//! **partitioned** (unreachable until a virtual-time deadline passes),
//! and **drift** (silently serve a deterministically perturbed rankings
//! page until an anti-entropy pass repairs it). All state transitions
//! are driven by injected [`appstore_core::faults`] rolls or explicit
//! admin calls, never by wall-clock time, so a replayed chaos schedule
//! reproduces the same replica history bit for bit.
//!
//! Divergence and reconciliation are both phrased in terms of a 64-bit
//! FNV-1a [`fingerprint64`] over the encoded rankings payload: drift
//! changes the fingerprint, reconciliation compares each replica's
//! fingerprint against the authoritative payload (read over the
//! unmetered [`MarketplaceServer::peek`] channel) and clears the drift
//! overlay on mismatch.
//!
//! Encoded payloads come from a [`PageTable`] the whole tier shares:
//! every replica serves the same immutable dataset, so each page is
//! encoded on the tier's first fetch of it and reused after that. The
//! table keeps pages in slots indexed by day and app id, not in a hash
//! map.

use appstore_core::{Dataset, Day, Seed};
use appstore_crawler::wire::{decode_response, encode_response};
use appstore_crawler::{MarketplaceServer, Region, Request, Response, ServerPolicy, WireError};
use bytes::Bytes;

/// 64-bit FNV-1a over a byte slice: the tier's content fingerprint.
/// Zero-dependency and stable across platforms, so fingerprints can be
/// pinned in goldens and compared across runs.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Encoded payloads by request, filled on first fetch and shared by the
/// replicas of one tier. The dataset behind them never changes, so a
/// page's bytes never do either: it is encoded at most once, and a page
/// the tier never fetches is never encoded. Admission, liveness and
/// drift still run on every call; only the encoding is kept.
///
/// Pages sit in slots: per day, one for the rankings page and one per
/// app id. Only a page the backing store produced grows the slots, so
/// an unknown app or day sizes nothing. Comments pages, which the tier
/// never sends, are fetched without being kept.
///
/// The table lives in the serving tier, not in [`MarketplaceServer`]:
/// the crawler reads each page about once a day, where a table would
/// only hold memory.
#[derive(Debug, Default)]
pub struct PageTable {
    /// Indexed by day number.
    days: Vec<DayPages>,
}

/// One day's kept pages.
#[derive(Debug, Default)]
struct DayPages {
    rankings: Option<Bytes>,
    /// Indexed by app id.
    apps: Vec<Option<Bytes>>,
}

impl PageTable {
    /// The payload for `request`: kept from an earlier fetch, or read
    /// over `server`'s unmetered [`MarketplaceServer::peek`] channel and
    /// kept. Errors (an unknown app or day) are not kept.
    pub(crate) fn get(
        &mut self,
        server: &MarketplaceServer<'_>,
        request: Request,
    ) -> Result<Bytes, WireError> {
        if let Some(page) = self.kept(request) {
            return Ok(page.clone());
        }
        let page = server.peek(request)?;
        if let Some(slot) = self.slot(request) {
            *slot = Some(page.clone());
        }
        Ok(page)
    }

    /// The page kept for `request`, if any.
    fn kept(&self, request: Request) -> Option<&Bytes> {
        match request {
            Request::Index { day } => self.days.get(day.0 as usize)?.rankings.as_ref(),
            Request::AppPage { app, day } => self
                .days
                .get(day.0 as usize)?
                .apps
                .get(app.0 as usize)?
                .as_ref(),
            Request::CommentsPage { .. } => None,
        }
    }

    /// The slot `request`'s page is kept in, grown to fit; `None` for a
    /// page that is not kept.
    fn slot(&mut self, request: Request) -> Option<&mut Option<Bytes>> {
        let (day, app) = match request {
            Request::Index { day } => (day, None),
            Request::AppPage { app, day } => (day, Some(app.0 as usize)),
            Request::CommentsPage { .. } => return None,
        };
        let day = day.0 as usize;
        if self.days.len() <= day {
            self.days.resize_with(day + 1, DayPages::default);
        }
        let pages = &mut self.days[day];
        Some(match app {
            None => &mut pages.rankings,
            Some(app) => {
                if pages.apps.len() <= app {
                    pages.apps.resize(app + 1, None);
                }
                &mut pages.apps[app]
            }
        })
    }

    /// Pages encoded so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.days
            .iter()
            .map(|day| usize::from(day.rankings.is_some()) + day.apps.iter().flatten().count())
            .sum()
    }

    /// Slots allocated so far, kept pages or not.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.days.iter().map(|day| 1 + day.apps.len()).sum()
    }
}

/// Liveness of one replica, as injected faults and admin calls see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Serving normally.
    Up,
    /// Crashed: down until an explicit rejoin.
    Crashed,
    /// Unreachable until the given virtual time, then heals on its own.
    Partitioned {
        /// Virtual time at which the partition heals.
        until_ms: u64,
    },
}

/// Why a replica call produced no payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaError {
    /// The replica is crashed or partitioned right now.
    Unavailable,
    /// The replica answered with a wire error.
    Wire(WireError),
}

/// One backing replica: a marketplace server plus its fault-plane state.
pub struct Replica<'a> {
    id: usize,
    server: MarketplaceServer<'a>,
    state: ReplicaState,
    /// Drift overlay: when set, rankings responses are deterministically
    /// perturbed by this seed-derived salt until reconciliation.
    drift_salt: Option<u64>,
    /// The per-replica salt, fixed at construction from the tier seed.
    salt: u64,
}

impl<'a> Replica<'a> {
    /// Builds replica `id` over the shared dataset. The per-replica seed
    /// is derived from the tier seed, so every replica generates the
    /// same snapshots (they share the dataset) but drifts — when drift
    /// is injected — in its own deterministic direction.
    pub fn new(id: usize, dataset: &'a Dataset, policy: ServerPolicy, seed: Seed) -> Replica<'a> {
        Replica {
            id,
            server: MarketplaceServer::new(dataset, policy),
            state: ReplicaState::Up,
            drift_salt: None,
            salt: seed.child_indexed("replica", id as u64).0,
        }
    }

    /// The replica's id (index in the tier).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current liveness at virtual time `now_ms`. A partition whose
    /// deadline has passed reads as `Up`.
    pub fn state(&self, now_ms: u64) -> ReplicaState {
        match self.state {
            ReplicaState::Partitioned { until_ms } if now_ms >= until_ms => ReplicaState::Up,
            state => state,
        }
    }

    /// True when the replica can answer a call at `now_ms`.
    pub fn is_up(&self, now_ms: u64) -> bool {
        self.state(now_ms) == ReplicaState::Up
    }

    /// True while the drift overlay is active.
    pub fn is_drifted(&self) -> bool {
        self.drift_salt.is_some()
    }

    /// Injected `ReplicaCrash`: down until [`Replica::rejoin`].
    pub fn crash(&mut self) {
        self.state = ReplicaState::Crashed;
    }

    /// Injected `ReplicaPartition`: unreachable until `until_ms`.
    pub fn partition(&mut self, until_ms: u64) {
        self.state = ReplicaState::Partitioned { until_ms };
    }

    /// Injected `ReplicaDrift`: rankings responses diverge until an
    /// anti-entropy pass clears the overlay. Crash and rejoin do NOT
    /// clear it — a node that restarts with bad state keeps serving bad
    /// state until reconciled, which is exactly the failure mode
    /// anti-entropy exists for.
    pub fn drift(&mut self) {
        self.drift_salt = Some(self.salt);
    }

    /// Clears the drift overlay (anti-entropy repair).
    pub fn clear_drift(&mut self) {
        self.drift_salt = None;
    }

    /// Explicit rejoin: heals a crash or partition. Drift persists.
    pub fn rejoin(&mut self) -> bool {
        let was_down = self.state != ReplicaState::Up;
        self.state = ReplicaState::Up;
        was_down
    }

    /// Serves one metered call, applying liveness, admission and drift;
    /// the payload comes from the tier's shared `pages`.
    pub fn handle(
        &self,
        addr: u32,
        region: Region,
        now_ms: u64,
        request: Request,
        pages: &mut PageTable,
    ) -> Result<(Bytes, u64), ReplicaError> {
        if !self.is_up(now_ms) {
            return Err(ReplicaError::Unavailable);
        }
        self.server
            .admit(addr, region, now_ms)
            .map_err(ReplicaError::Wire)?;
        let payload = pages
            .get(&self.server, request)
            .map_err(ReplicaError::Wire)?;
        Ok((
            self.apply_drift(request, payload),
            self.server.policy().latency_ms,
        ))
    }

    /// The authoritative (never drifted, never metered) payload for
    /// `request` — the replication channel anti-entropy reads.
    pub fn peek_authoritative(
        &self,
        request: Request,
        pages: &mut PageTable,
    ) -> Result<Bytes, WireError> {
        pages.get(&self.server, request)
    }

    /// The payload this replica would serve for the rankings page right
    /// now, drift included — what a fingerprint check must hash.
    pub fn rankings_payload(&self, day: Day, pages: &mut PageTable) -> Result<Bytes, WireError> {
        let request = Request::Index { day };
        Ok(self.apply_drift(request, pages.get(&self.server, request)?))
    }

    /// Perturbs an `Index` payload while drifted: the app list is
    /// rotated by a salt-derived amount, so the page is still
    /// well-formed (same apps, same length) but ranks silently disagree
    /// with the replica's peers. Non-rankings responses pass through.
    fn apply_drift(&self, request: Request, payload: Bytes) -> Bytes {
        let Some(salt) = self.drift_salt else {
            return payload;
        };
        if !matches!(request, Request::Index { .. }) {
            return payload;
        }
        let Ok(Response::Index { mut apps }) = decode_response(&payload) else {
            return payload;
        };
        if apps.len() < 2 {
            return payload;
        }
        let rotation = 1 + (salt as usize % (apps.len() - 1));
        apps.rotate_left(rotation);
        encode_response(&Response::Index { apps })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::replay::test_dataset;

    fn replica(dataset: &Dataset) -> Replica<'_> {
        Replica::new(1, dataset, ServerPolicy::default(), Seed::new(7))
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        assert_eq!(fingerprint64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64(b"apps"), fingerprint64(b"apps"));
        assert_ne!(fingerprint64(b"apps"), fingerprint64(b"sppa"));
    }

    #[test]
    fn crash_partition_and_rejoin_transitions() {
        let dataset = test_dataset(8);
        let mut r = replica(&dataset);
        let mut pages = PageTable::default();
        let request = Request::Index { day: Day(0) };
        assert!(r.handle(0, Region::Europe, 0, request, &mut pages).is_ok());
        r.crash();
        assert_eq!(
            r.handle(0, Region::Europe, 10, request, &mut pages),
            Err(ReplicaError::Unavailable)
        );
        // A crash does not heal with time, only with a rejoin.
        assert!(!r.is_up(1_000_000));
        assert!(r.rejoin());
        assert!(!r.rejoin(), "already up");
        r.partition(5_000);
        assert!(!r.is_up(4_999));
        assert!(r.is_up(5_000), "partition heals at its deadline");
    }

    #[test]
    fn drift_perturbs_rankings_deterministically_and_repairs() {
        let dataset = test_dataset(16);
        let mut r = replica(&dataset);
        let mut pages = PageTable::default();
        let clean = r.rankings_payload(Day(0), &mut pages).unwrap();
        assert_eq!(
            clean,
            r.peek_authoritative(Request::Index { day: Day(0) }, &mut pages)
                .unwrap()
        );
        r.drift();
        let drifted = r.rankings_payload(Day(0), &mut pages).unwrap();
        assert_ne!(fingerprint64(&clean), fingerprint64(&drifted));
        // Same apps, different order: decodes to a permutation.
        let Response::Index { apps } = decode_response(&drifted).unwrap() else {
            panic!("wrong response kind");
        };
        assert_eq!(apps.len(), 16);
        // Drift is stable while active, survives crash + rejoin, and
        // only reconciliation clears it.
        assert_eq!(drifted, r.rankings_payload(Day(0), &mut pages).unwrap());
        r.crash();
        r.rejoin();
        assert!(r.is_drifted());
        assert_eq!(drifted, r.rankings_payload(Day(0), &mut pages).unwrap());
        r.clear_drift();
        assert_eq!(clean, r.rankings_payload(Day(0), &mut pages).unwrap());
    }

    #[test]
    fn comments_pages_are_fetched_but_not_kept() {
        let dataset = test_dataset(8);
        let r = replica(&dataset);
        let mut pages = PageTable::default();
        let comments = Request::CommentsPage {
            day: Day(0),
            page: 0,
        };
        let fetched = r.peek_authoritative(comments, &mut pages);
        assert_eq!(fetched, r.server.peek(comments));
        assert_eq!((pages.len(), pages.slots()), (0, 0));
    }

    #[test]
    fn drift_leaves_app_pages_alone() {
        let dataset = test_dataset(8);
        let mut r = replica(&dataset);
        let mut pages = PageTable::default();
        let request = Request::AppPage {
            app: appstore_core::AppId(3),
            day: Day(0),
        };
        let (clean, _) = r.handle(0, Region::Europe, 0, request, &mut pages).unwrap();
        r.drift();
        let (drifted, _) = r.handle(0, Region::Europe, 1, request, &mut pages).unwrap();
        assert_eq!(clean, drifted);
    }
}
