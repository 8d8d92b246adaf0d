//! The recommendation experiment (the paper's §7, implemented).

use crate::experiments::Output;
use crate::stores::Stores;
use appstore_core::{AppId, Day};
use appstore_recommend::{evaluate, temporal_split, CategoryRecency, ItemKnn, Popularity};
use serde_json::json;

/// Trains the three recommenders on the first half of Anzhi's download
/// history and scores hit-rate@20 / recall@20 on the second half —
/// quantifying the §7 claim that clustering-aware recommendation beats
/// the popularity carousel.
pub fn run(stores: &Stores) -> Output {
    let bundle = stores.anzhi();
    let dataset = &bundle.store.dataset;
    let events = &bundle.store.outcome.events;
    let split = Day(bundle.profile.days / 2);
    let (train, test) = temporal_split(events, split);
    let k = 20;

    let mut reports = Vec::new();
    {
        let mut r = Popularity::new();
        if let Some(report) = evaluate(&mut r, &train, &test, k) {
            reports.push(report);
        }
    }
    {
        let mut r = ItemKnn::new(30);
        if let Some(report) = evaluate(&mut r, &train, &test, k) {
            reports.push(report);
        }
    }
    {
        let mut r = CategoryRecency::new(|a: AppId| dataset.category_of(a), 5);
        if let Some(report) = evaluate(&mut r, &train, &test, k) {
            reports.push(report);
        }
    }

    let mut lines = Vec::new();
    lines.push(format!(
        "train: {} downloads before {}; test: {} after",
        train.len(),
        split,
        test.len()
    ));
    lines.push(format!(
        "{:<18} {:>8} {:>12} {:>10}",
        "recommender", "users", "hit-rate@20", "recall@20"
    ));
    for r in &reports {
        lines.push(format!(
            "{:<18} {:>8} {:>11.1}% {:>9.1}%",
            r.name,
            r.users,
            r.hit_rate * 100.0,
            r.recall * 100.0
        ));
    }
    lines.push("§7: recency-of-interest recommendation exploits the clustering".into());
    lines.push("effect and beats the popularity carousel by a wide margin".into());
    Output {
        lines,
        json: json!({
            "k": k,
            "reports": reports.iter().map(|r| json!({
                "name": r.name, "users": r.users,
                "hit_rate": r.hit_rate, "recall": r.recall,
            })).collect::<Vec<_>>(),
        }),
    }
}
