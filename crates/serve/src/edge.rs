//! The edge cache: LRU app pages plus stale-while-revalidate rankings.
//!
//! The paper's §5 argument is that an appstore-side cache absorbs most
//! download traffic; this module is that cache, placed in front of the
//! backing store by the serving layer. App pages live in an
//! [`appstore_cache::Lru`] (unit-size objects, exactly the paper's
//! Fig. 19 setup) with the encoded payload carried alongside in a slot
//! indexed by app id, so a hit's payload is found without hashing and
//! served without touching the backing store at all. Only an admitted
//! page grows the slots, so a client-supplied id never sizes anything.
//! The cache counts its own hits and misses; the server records them
//! with the rest of a request's metrics. The rankings
//! page is a single hot object cached with a virtual-time TTL: within
//! the TTL it is *fresh*; after the TTL it is *stale* but retained, so
//! that when the backing store is tripped or slow the server can keep
//! answering — marked degraded — instead of erroring. That retained
//! copy is the middle rung of the fresh → stale → shed ladder.

use appstore_cache::{Lru, ReplacementPolicy};
use bytes::Bytes;

/// What the edge knows about the rankings page right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankingsView {
    /// A copy within its TTL: serve it, skip the backing store.
    Fresh(Bytes),
    /// A retained copy past its TTL: good enough when the backing
    /// store is unavailable, served with `X-Degraded: stale`.
    Stale(Bytes),
    /// Never fetched (or the server just started): nothing to degrade
    /// to — a backing failure here means shedding.
    Missing,
}

/// The serving layer's edge cache.
pub struct EdgeCache {
    apps: Lru,
    /// The payload of each cached app page, by app id.
    payloads: Vec<Option<Bytes>>,
    rankings: Option<(Bytes, u64)>,
    rankings_ttl_ms: u64,
    hits: u64,
    misses: u64,
}

impl EdgeCache {
    /// Creates an edge cache holding up to `capacity` app pages, with
    /// rankings considered fresh for `rankings_ttl_ms` of virtual time.
    pub fn new(capacity: usize, rankings_ttl_ms: u64) -> EdgeCache {
        EdgeCache {
            apps: Lru::new(capacity),
            payloads: Vec::new(),
            rankings: None,
            rankings_ttl_ms,
            hits: 0,
            misses: 0,
        }
    }

    /// Pre-fills one app page without counting a hit or a miss (the
    /// paper's warm start: most-popular apps already at the edge).
    pub fn warm_app(&mut self, app: u32, payload: Bytes) {
        self.apps.warm(app);
        if self.apps.contains(app) {
            *self.slot(app) = Some(payload);
        }
    }

    /// Looks up an app page. A hit promotes the entry and returns its
    /// payload; a miss returns `None` *without* admitting the app — the
    /// caller admits via [`EdgeCache::fill_app`] only after the backing
    /// store actually produced the page.
    pub fn lookup_app(&mut self, app: u32) -> Option<Bytes> {
        if self.apps.touch(app) {
            self.hits += 1;
            self.payloads[app as usize].clone()
        } else {
            self.misses += 1;
            None
        }
    }

    /// Admits a freshly fetched app page, dropping the LRU victim's
    /// payload if the cache was full. Returns whether it evicted.
    pub fn fill_app(&mut self, app: u32, payload: Bytes) -> bool {
        let evicted = self.apps.insert_evicting(app);
        if let Some(evicted) = evicted {
            self.payloads[evicted as usize] = None;
        }
        *self.slot(app) = Some(payload);
        evicted.is_some()
    }

    /// `app`'s payload slot, grown to fit: only pages being admitted
    /// reach here.
    fn slot(&mut self, app: u32) -> &mut Option<Bytes> {
        let index = app as usize;
        if self.payloads.len() <= index {
            self.payloads.resize(index + 1, None);
        }
        &mut self.payloads[index]
    }

    /// App-page slots allocated so far (one per app id up to the
    /// highest admitted).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.payloads.len()
    }

    /// The rankings page as of virtual time `now_ms`.
    pub fn rankings(&self, now_ms: u64) -> RankingsView {
        match &self.rankings {
            Some((payload, fetched_at)) => {
                if now_ms.saturating_sub(*fetched_at) <= self.rankings_ttl_ms {
                    RankingsView::Fresh(payload.clone())
                } else {
                    RankingsView::Stale(payload.clone())
                }
            }
            None => RankingsView::Missing,
        }
    }

    /// Stores a freshly fetched rankings page, restarting its TTL.
    pub fn put_rankings(&mut self, payload: Bytes, now_ms: u64) {
        self.rankings = Some((payload, now_ms));
    }

    /// Discards the cached rankings copy entirely (fresh or stale).
    /// Anti-entropy calls this after repairing a divergent replica: a
    /// copy cached off drifted state must not outlive the repair, not
    /// even as a stale fallback.
    pub fn drop_rankings(&mut self) {
        self.rankings = None;
    }

    /// App-page hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// App-page misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// App-page hit rate in [0, 1]; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use appstore_cache::hit_ratio;
    use appstore_core::{AppId, Day, DownloadEvent, UserId};
    use proptest::prelude::*;

    fn payload(tag: u8) -> Bytes {
        Bytes::from(vec![tag; 4])
    }

    #[test]
    fn lru_hits_and_evictions_track_payloads() {
        let mut edge = EdgeCache::new(2, 1_000);
        assert!(edge.lookup_app(1).is_none(), "cold miss");
        edge.fill_app(1, payload(1));
        edge.fill_app(2, payload(2));
        assert_eq!(edge.lookup_app(1), Some(payload(1)), "hit promotes 1");
        edge.fill_app(3, payload(3)); // evicts 2 (LRU)
        assert!(edge.lookup_app(2).is_none());
        assert_eq!(edge.lookup_app(1), Some(payload(1)));
        assert_eq!(edge.hits(), 2);
        assert_eq!(edge.misses(), 2);
        // The evicted payload is gone from its slot too.
        assert_eq!(edge.payloads.iter().flatten().count(), 2);
    }

    #[test]
    fn fill_reports_its_evictions() {
        let mut edge = EdgeCache::new(1, 1_000);
        assert!(!edge.fill_app(5, payload(5)), "room to spare");
        assert!(!edge.fill_app(5, payload(5)), "already cached");
        assert!(edge.fill_app(2, payload(2)), "5 makes room for 2");
        assert_eq!(edge.lookup_app(5), None);
        assert_eq!(edge.lookup_app(2), Some(payload(2)));
    }

    #[test]
    fn lookups_of_unknown_ids_grow_no_slots() {
        let mut edge = EdgeCache::new(4, 1_000);
        edge.warm_app(3, payload(3));
        assert_eq!(edge.slots(), 4);
        for app in [4, 6_000, u32::MAX] {
            assert_eq!(edge.lookup_app(app), None);
        }
        assert_eq!(edge.slots(), 4);
        assert_eq!(edge.misses(), 3);
    }

    proptest! {
        /// On any trace, the edge's hits, misses and evictions are what
        /// the Fig. 19 LRU counts over the same capacity and warm set,
        /// and every hit returns the page last admitted for that app.
        #[test]
        fn edge_counts_match_the_reference_lru(
            capacity in 1usize..12,
            warm in proptest::collection::vec(0u32..40, 0..12),
            trace in proptest::collection::vec(0u32..40, 0..300),
        ) {
            let mut edge = EdgeCache::new(capacity, 1_000);
            for &app in &warm {
                edge.warm_app(app, payload(app as u8));
            }
            let mut evictions = 0u64;
            for &app in &trace {
                match edge.lookup_app(app) {
                    Some(page) => prop_assert_eq!(page, payload(app as u8)),
                    None => evictions += u64::from(edge.fill_app(app, payload(app as u8))),
                }
            }
            let mut lru = Lru::new(capacity);
            let events: Vec<DownloadEvent> = trace
                .iter()
                .map(|&app| DownloadEvent { user: UserId(0), app: AppId(app), day: Day(0) })
                .collect();
            let reference = hit_ratio(&mut lru, &warm, &events);
            prop_assert_eq!(edge.hits(), reference.hits);
            prop_assert_eq!(edge.misses(), reference.requests - reference.hits);
            prop_assert_eq!(evictions, lru.evictions());
        }
    }

    #[test]
    fn warm_start_counts_nothing() {
        let mut edge = EdgeCache::new(4, 1_000);
        edge.warm_app(1, payload(1));
        edge.warm_app(2, payload(2));
        assert_eq!((edge.hits(), edge.misses()), (0, 0));
        assert_eq!(edge.lookup_app(1), Some(payload(1)));
        assert_eq!(edge.hits(), 1);
    }

    #[test]
    fn rankings_age_from_fresh_to_stale() {
        let mut edge = EdgeCache::new(2, 500);
        assert_eq!(edge.rankings(0), RankingsView::Missing);
        edge.put_rankings(payload(9), 1_000);
        assert_eq!(edge.rankings(1_400), RankingsView::Fresh(payload(9)));
        assert_eq!(edge.rankings(1_500), RankingsView::Fresh(payload(9)));
        assert_eq!(edge.rankings(1_501), RankingsView::Stale(payload(9)));
        // A refresh restarts the TTL.
        edge.put_rankings(payload(8), 2_000);
        assert_eq!(edge.rankings(2_400), RankingsView::Fresh(payload(8)));
        // Dropping leaves nothing, not even a stale copy.
        edge.drop_rankings();
        assert_eq!(edge.rankings(2_400), RankingsView::Missing);
    }
}
