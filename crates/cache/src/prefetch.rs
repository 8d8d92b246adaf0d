//! Category prefetching (the paper's §7 "Effective prefetching").
//!
//! > "a user that downloads an app from a given category is more likely
//! > to download the next few apps from the same category. Thus, the
//! > most popular apps from this category that have not been downloaded
//! > by the user can be prefetched to a local place."
//!
//! [`PrefetchSimulator`] implements exactly that: after every download,
//! the `fanout` most popular apps of the same category that the user has
//! not fetched are staged into the user's local prefetch slot (bounded
//! per user). A subsequent download is a *prefetch hit* if the app was
//! staged. The simulator reports hit rate and waste (staged bytes never
//! used) — the two numbers an operator needs to size the feature.

use crate::hash::IdMap;
use appstore_core::DownloadEvent;

/// Outcome of a prefetch simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchReport {
    /// Downloads simulated.
    pub downloads: u64,
    /// Downloads already staged when requested (after the user's first).
    pub hits: u64,
    /// Downloads eligible for a hit (the user had a previous download).
    pub eligible: u64,
    /// Total prefetch operations (apps staged).
    pub staged: u64,
    /// Staged apps that were never downloaded by their user.
    pub wasted: u64,
}

impl PrefetchReport {
    /// Hit rate over eligible downloads.
    pub fn hit_rate(&self) -> f64 {
        if self.eligible == 0 {
            0.0
        } else {
            self.hits as f64 / self.eligible as f64
        }
    }

    /// Fraction of staged apps never used.
    pub fn waste_rate(&self) -> f64 {
        if self.staged == 0 {
            0.0
        } else {
            self.wasted as f64 / self.staged as f64
        }
    }
}

/// Per-user prefetch state.
#[derive(Debug, Default, Clone)]
struct Slot {
    /// Currently staged apps (bounded FIFO).
    staged: Vec<u32>,
    /// Apps the user has downloaded.
    fetched: Vec<u32>,
    /// Ever-staged apps that were used (for waste accounting).
    used: u64,
    /// Ever staged count.
    ever_staged: u64,
}

/// Simulates the §7 prefetching policy over a download trace.
///
/// * `category_of[app]` — the app→category table;
/// * `popular_by_category[c]` — each category's apps in popularity order
///   (head first), e.g. a generated catalogue's per-category rank lists;
/// * `fanout` — apps staged per download;
/// * `slot_capacity` — per-user staging budget (oldest evicted first).
pub struct PrefetchSimulator<'a> {
    category_of: &'a [u32],
    popular_by_category: &'a [Vec<u32>],
    fanout: usize,
    slot_capacity: usize,
    slots: IdMap<u32, Slot>,
}

impl<'a> PrefetchSimulator<'a> {
    /// Creates a simulator.
    ///
    /// # Panics
    /// Panics if `fanout == 0` or `slot_capacity < fanout`.
    pub fn new(
        category_of: &'a [u32],
        popular_by_category: &'a [Vec<u32>],
        fanout: usize,
        slot_capacity: usize,
    ) -> PrefetchSimulator<'a> {
        assert!(fanout > 0, "fanout must be positive");
        assert!(
            slot_capacity >= fanout,
            "slot must hold at least one fanout batch"
        );
        PrefetchSimulator {
            category_of,
            popular_by_category,
            fanout,
            slot_capacity,
            slots: IdMap::default(),
        }
    }

    /// Replays a chronological trace and reports prefetch performance.
    pub fn run(&mut self, trace: &[DownloadEvent]) -> PrefetchReport {
        let mut report = PrefetchReport {
            downloads: 0,
            hits: 0,
            eligible: 0,
            staged: 0,
            wasted: 0,
        };
        for event in trace {
            let app = event.app.0;
            let slot = self.slots.entry(event.user.0).or_default();
            report.downloads += 1;
            if !slot.fetched.is_empty() {
                report.eligible += 1;
                if let Some(pos) = slot.staged.iter().position(|&a| a == app) {
                    report.hits += 1;
                    slot.staged.remove(pos);
                    slot.used += 1;
                }
            }
            slot.fetched.push(app);
            // Stage the fanout most popular unfetched apps of this
            // category.
            let category = self.category_of[app as usize] as usize;
            let mut added = 0;
            for &candidate in &self.popular_by_category[category] {
                if added == self.fanout {
                    break;
                }
                if candidate == app
                    || slot.fetched.contains(&candidate)
                    || slot.staged.contains(&candidate)
                {
                    continue;
                }
                slot.staged.push(candidate);
                slot.ever_staged += 1;
                report.staged += 1;
                added += 1;
            }
            while slot.staged.len() > self.slot_capacity {
                slot.staged.remove(0);
            }
        }
        // Waste: staged-but-never-used across all users.
        report.wasted = self.slots.values().map(|s| s.ever_staged - s.used).sum();
        appstore_obs::counter(appstore_obs::names::PREFETCH_DOWNLOADS, report.downloads);
        appstore_obs::counter(appstore_obs::names::PREFETCH_HITS, report.hits);
        appstore_obs::counter(appstore_obs::names::PREFETCH_ELIGIBLE, report.eligible);
        appstore_obs::counter(appstore_obs::names::PREFETCH_STAGED, report.staged);
        appstore_obs::counter(appstore_obs::names::PREFETCH_WASTED, report.wasted);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appstore_core::{AppId, Day, UserId};

    fn event(user: u32, app: u32) -> DownloadEvent {
        DownloadEvent {
            user: UserId(user),
            app: AppId(app),
            day: Day(0),
        }
    }

    /// Two categories: apps 0-4 (popularity order 0,1,2,3,4) and 5-9.
    fn tables() -> (Vec<u32>, Vec<Vec<u32>>) {
        let category_of = vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        let popular = vec![vec![0, 1, 2, 3, 4], vec![5, 6, 7, 8, 9]];
        (category_of, popular)
    }

    #[test]
    fn sequential_category_walk_hits() {
        let (cats, popular) = tables();
        let mut sim = PrefetchSimulator::new(&cats, &popular, 2, 4);
        // User walks the category head in order: after app 0, apps 1 and
        // 2 are staged; the next two downloads hit.
        let report = sim.run(&[event(0, 0), event(0, 1), event(0, 2)]);
        assert_eq!(report.downloads, 3);
        assert_eq!(report.eligible, 2);
        assert_eq!(report.hits, 2);
        assert_eq!(report.hit_rate(), 1.0);
    }

    #[test]
    fn category_switch_misses() {
        let (cats, popular) = tables();
        let mut sim = PrefetchSimulator::new(&cats, &popular, 2, 4);
        // After app 0 (category 0), the user jumps to category 1: miss.
        let report = sim.run(&[event(0, 0), event(0, 5)]);
        assert_eq!(report.eligible, 1);
        assert_eq!(report.hits, 0);
        assert!(report.waste_rate() > 0.0);
    }

    #[test]
    fn first_download_is_never_eligible() {
        let (cats, popular) = tables();
        let mut sim = PrefetchSimulator::new(&cats, &popular, 1, 2);
        let report = sim.run(&[event(0, 3)]);
        assert_eq!(report.eligible, 0);
        assert_eq!(report.hit_rate(), 0.0);
    }

    #[test]
    fn slot_capacity_evicts_oldest() {
        let (cats, popular) = tables();
        // Capacity 2, fanout 2: the second staging round evicts the
        // first round's leftovers.
        let mut sim = PrefetchSimulator::new(&cats, &popular, 2, 2);
        // Download 4 then 3: after 4 stages {0,1}; download 3 (miss),
        // stages {0,1} -> dedup, adds {0,1}? 0,1 already staged, so adds
        // 2... then capacity trims to 2.
        let report = sim.run(&[event(0, 4), event(0, 3), event(0, 0)]);
        assert!(report.hits <= report.eligible);
        assert!(report.staged >= 2);
    }

    #[test]
    fn users_are_isolated() {
        let (cats, popular) = tables();
        let mut sim = PrefetchSimulator::new(&cats, &popular, 2, 4);
        // User 0 warms category 0; user 1's first download in the same
        // category is not eligible and not a hit.
        let report = sim.run(&[event(0, 0), event(1, 1)]);
        assert_eq!(report.eligible, 0);
        assert_eq!(report.hits, 0);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn zero_fanout_panics() {
        let (cats, popular) = tables();
        let _ = PrefetchSimulator::new(&cats, &popular, 0, 2);
    }
}
