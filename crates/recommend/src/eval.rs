//! Temporal hold-out evaluation.
//!
//! Recommenders are trained on the downloads before a split day and then
//! judged on what users *actually* fetched afterwards: for each user with
//! at least one post-split download, we ask the recommender for `k` apps
//! and measure the overlap with the user's real future downloads.
//!
//! Metrics: hit-rate@k (fraction of evaluated users whose future
//! contains at least one recommended app) and recall@k (fraction of
//! future downloads covered by the recommendations), macro-averaged over
//! users, exactly the setup an appstore A/B test would approximate.

use crate::recommender::Recommender;
use appstore_core::{Day, DownloadEvent, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The outcome of evaluating one recommender.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Recommender name.
    pub name: String,
    /// List length `k` used.
    pub k: usize,
    /// Users with at least one future download.
    pub users: usize,
    /// Fraction of users with ≥1 hit in their future set.
    pub hit_rate: f64,
    /// Mean per-user recall (future downloads covered / future size).
    pub recall: f64,
}

/// Splits a chronological event stream at `split_day`: events strictly
/// before it train, events on or after it test.
pub fn temporal_split(
    events: &[DownloadEvent],
    split_day: Day,
) -> (Vec<DownloadEvent>, Vec<DownloadEvent>) {
    let mut train = Vec::new();
    let mut test = Vec::new();
    for e in events {
        if e.day < split_day {
            train.push(*e);
        } else {
            test.push(*e);
        }
    }
    (train, test)
}

/// Trains `recommender` on `train` and evaluates hit-rate@k / recall@k
/// on `test`. Returns `None` if the test period has no users.
pub fn evaluate(
    recommender: &mut dyn Recommender,
    train: &[DownloadEvent],
    test: &[DownloadEvent],
    k: usize,
) -> Option<EvalReport> {
    recommender.train(train);
    // Users in id order, so the recall sum repeats exactly run to run.
    let mut future: BTreeMap<UserId, Vec<u32>> = BTreeMap::new();
    for e in test {
        future.entry(e.user).or_default().push(e.app.0);
    }
    if future.is_empty() {
        return None;
    }
    let mut hits = 0usize;
    let mut recall_sum = 0.0;
    for (&user, apps) in &future {
        let recs = recommender.recommend(user, k);
        let covered = apps
            .iter()
            .filter(|&&a| recs.iter().any(|r| r.0 == a))
            .count();
        if covered > 0 {
            hits += 1;
        }
        recall_sum += covered as f64 / apps.len() as f64;
    }
    let users = future.len();
    appstore_obs::counter(appstore_obs::names::RECOMMEND_EVALUATIONS, 1);
    appstore_obs::counter(appstore_obs::names::RECOMMEND_USERS_EVALUATED, users as u64);
    Some(EvalReport {
        name: recommender.name().to_string(),
        k,
        users,
        hit_rate: hits as f64 / users as f64,
        recall: recall_sum / users as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommender::{CategoryRecency, ItemKnn, Popularity};
    use appstore_core::{AppId, CategoryId, Seed, StoreId};
    use appstore_synth::{generate, StoreProfile};

    fn event(user: u32, app: u32, day: u32) -> DownloadEvent {
        DownloadEvent {
            user: UserId(user),
            app: AppId(app),
            day: Day(day),
        }
    }

    #[test]
    fn split_is_chronological_and_complete() {
        let events = vec![event(0, 1, 0), event(0, 2, 5), event(1, 3, 9)];
        let (train, test) = temporal_split(&events, Day(5));
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 2);
        assert!(train.iter().all(|e| e.day < Day(5)));
        assert!(test.iter().all(|e| e.day >= Day(5)));
    }

    #[test]
    fn perfect_recommender_scores_one() {
        // One user whose future is exactly the most popular unfetched app.
        let train = vec![event(1, 7, 0), event(2, 7, 0), event(0, 3, 0)];
        let test = vec![event(0, 7, 5)];
        let mut r = Popularity::new();
        let report = evaluate(&mut r, &train, &test, 1).unwrap();
        assert_eq!(report.users, 1);
        assert_eq!(report.hit_rate, 1.0);
        assert_eq!(report.recall, 1.0);
    }

    #[test]
    fn empty_test_period_gives_none() {
        let train = vec![event(0, 1, 0)];
        let mut r = Popularity::new();
        assert!(evaluate(&mut r, &train, &[], 5).is_none());
    }

    #[test]
    fn clustering_aware_beats_popularity_on_behavioural_data() {
        // Generate a store whose users follow the clustering effect, then
        // check the paper's §7 claim: category-recency recommendation
        // beats the global-popularity baseline.
        let profile = StoreProfile::anzhi().scaled_down(8);
        let store = generate(&profile, StoreId(0), Seed::new(77));
        let events = &store.outcome.events;
        let split = Day(profile.days / 2);
        let (train, test) = temporal_split(events, split);
        let k = 20;
        let dataset = &store.dataset;
        let mut popularity = Popularity::new();
        let pop = evaluate(&mut popularity, &train, &test, k).unwrap();
        let mut category = CategoryRecency::new(|a: AppId| dataset.category_of(a), 5);
        let cat = evaluate(&mut category, &train, &test, k).unwrap();
        assert!(
            cat.hit_rate > pop.hit_rate,
            "category-recency {} !> popularity {}",
            cat.hit_rate,
            pop.hit_rate
        );
        assert!(
            cat.recall > pop.recall,
            "category-recency recall {} !> popularity {}",
            cat.recall,
            pop.recall
        );
    }

    #[test]
    fn item_knn_beats_popularity_on_behavioural_data() {
        let profile = StoreProfile::anzhi().scaled_down(12);
        let store = generate(&profile, StoreId(0), Seed::new(78));
        let events = &store.outcome.events;
        let (train, test) = temporal_split(events, Day(profile.days / 2));
        let k = 20;
        let mut popularity = Popularity::new();
        let pop = evaluate(&mut popularity, &train, &test, k).unwrap();
        let mut knn = ItemKnn::new(30);
        let knn_report = evaluate(&mut knn, &train, &test, k).unwrap();
        assert!(
            knn_report.hit_rate >= pop.hit_rate * 0.95,
            "item-knn {} far below popularity {}",
            knn_report.hit_rate,
            pop.hit_rate
        );
    }

    #[test]
    fn category_recency_works_on_pure_category_process() {
        // Hand-built data: users always stay in one category; the
        // category recommender must get perfect hit rates while
        // popularity confuses categories.
        let mut events = Vec::new();
        // Category c holds apps 10c..10c+7; user u prefers category u % 3
        // and trains on a staggered window of 4 of its 8 apps, so every
        // app is trained by *some* users while remaining unfetched (and
        // recommendable) for others.
        for u in 0..30u32 {
            let c = u % 3;
            let offset = u / 3;
            for i in 0..4 {
                events.push(event(u, 10 * c + (offset + i) % 8, i));
            }
            // Future download: the next app of the same category.
            events.push(event(u, 10 * c + (offset + 4) % 8, 10));
        }
        let (train, test) = temporal_split(&events, Day(10));
        let mut r = CategoryRecency::new(|a: AppId| CategoryId(a.0 / 10), 3);
        // k = 4 covers each user's four unfetched same-category apps.
        let report = evaluate(&mut r, &train, &test, 4).unwrap();
        assert_eq!(report.users, 30);
        assert!(
            report.hit_rate > 0.95,
            "hit rate {} on a pure category process",
            report.hit_rate
        );
    }
}
