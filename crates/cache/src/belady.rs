//! Belady's optimal offline replacement (MIN).
//!
//! Knowing the whole future request sequence, MIN evicts the cached app
//! whose next use lies farthest in the future. No online policy can beat
//! it, which makes it the natural upper bound for the §7 policy ablation:
//! the gap between LRU and MIN under the clustering workload is the
//! headroom any clustering-aware policy is fighting for.
//!
//! The replay precomputes, for each position in the trace, the next
//! occurrence of the same app (one backward pass), then keeps the cached
//! set in a max-heap keyed by next-use position — O(n log n) overall.

use crate::hash::IdMap;
use appstore_core::DownloadEvent;
use std::collections::BinaryHeap;

/// Result of an optimal replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeladyRun {
    /// Requests served.
    pub requests: u64,
    /// Requests that hit the cache.
    pub hits: u64,
}

impl BeladyRun {
    /// Hit ratio in [0, 1]; 0 for an empty run.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Position used for "never referenced again".
const NEVER: u64 = u64::MAX;

/// Replays a trace under Belady's MIN policy with the given capacity and
/// optional warm start (most popular apps first, as in Fig. 19).
///
/// # Panics
/// Panics if `capacity == 0`.
pub fn belady_hit_ratio(capacity: usize, warm_start: &[u32], trace: &[DownloadEvent]) -> BeladyRun {
    assert!(capacity > 0, "cache capacity must be positive");
    let n = trace.len();
    // next_use[i] = position of the next request for trace[i]'s app.
    let mut next_use = vec![NEVER; n];
    let mut last_seen: IdMap<u32, usize> = IdMap::default();
    for i in (0..n).rev() {
        let app = trace[i].app.0;
        next_use[i] = last_seen.get(&app).map(|&j| j as u64).unwrap_or(NEVER);
        last_seen.insert(app, i);
    }
    // First use of each app (for warm-start keys).
    let first_use = last_seen; // after the backward pass this maps app -> first index

    // Cached set: app -> valid next-use key; heap of (key, app) with lazy
    // invalidation.
    let mut cached: IdMap<u32, u64> = IdMap::with_capacity_and_hasher(capacity, Default::default());
    let mut heap: BinaryHeap<(u64, u32)> = BinaryHeap::with_capacity(capacity * 2);
    for &app in warm_start.iter().take(capacity) {
        let key = first_use.get(&app).map(|&i| i as u64).unwrap_or(NEVER);
        if cached.insert(app, key).is_none() {
            heap.push((key, app));
        }
    }

    let mut hits = 0u64;
    for (i, event) in trace.iter().enumerate() {
        let app = event.app.0;
        let next = next_use[i];
        if let Some(slot) = cached.get_mut(&app) {
            hits += 1;
            *slot = next;
            heap.push((next, app));
            continue;
        }
        if cached.len() == capacity {
            // Evict the entry with the farthest valid next use.
            loop {
                let (key, victim) = heap.pop().expect("heap tracks cached set");
                if cached.get(&victim) == Some(&key) {
                    cached.remove(&victim);
                    break;
                }
                // Stale heap entry: skip.
            }
        }
        cached.insert(app, next);
        heap.push((next, app));
    }
    BeladyRun {
        requests: n as u64,
        hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Lru, ReplacementPolicy};
    use appstore_core::{AppId, Day, UserId};

    fn trace(apps: &[u32]) -> Vec<DownloadEvent> {
        apps.iter()
            .map(|&a| DownloadEvent {
                user: UserId(0),
                app: AppId(a),
                day: Day(0),
            })
            .collect()
    }

    #[test]
    fn textbook_belady_example() {
        // The classic 3-frame reference string (Silberschatz et al.):
        // 7 0 1 2 0 3 0 4 2 3 0 3 2 1 2 0 1 7 0 1 suffers exactly 9 page
        // faults (11 hits) under MIN.
        let t = trace(&[7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]);
        let run = belady_hit_ratio(3, &[], &t);
        assert_eq!(run.requests, 20);
        assert_eq!(run.hits, 11);
    }

    #[test]
    fn never_worse_than_lru() {
        // Pseudo-random trace; MIN must dominate LRU at every capacity.
        let apps: Vec<u32> = (0..5_000u32).map(|i| (i * 37 + i * i / 91) % 400).collect();
        let t = trace(&apps);
        for capacity in [5, 20, 80] {
            let optimal = belady_hit_ratio(capacity, &[], &t);
            let mut lru = Lru::new(capacity);
            let mut lru_hits = 0u64;
            for e in &t {
                if lru.access(e.app.0) {
                    lru_hits += 1;
                }
            }
            assert!(
                optimal.hits >= lru_hits,
                "capacity {capacity}: MIN {} < LRU {lru_hits}",
                optimal.hits
            );
        }
    }

    #[test]
    fn full_capacity_only_misses_cold_start() {
        let t = trace(&[1, 2, 3, 1, 2, 3, 1, 2, 3]);
        let run = belady_hit_ratio(3, &[], &t);
        assert_eq!(run.hits, 6); // everything after the 3 cold misses
        let warmed = belady_hit_ratio(3, &[1, 2, 3], &t);
        assert_eq!(warmed.hits, 9);
    }

    #[test]
    fn empty_trace() {
        let run = belady_hit_ratio(4, &[1], &[]);
        assert_eq!(run.requests, 0);
        assert_eq!(run.hit_ratio(), 0.0);
    }

    #[test]
    fn warm_start_beyond_capacity_is_truncated() {
        let t = trace(&[1]);
        let run = belady_hit_ratio(1, &[1, 2, 3], &t);
        assert_eq!(run.hits, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = belady_hit_ratio(0, &[], &[]);
    }
}
