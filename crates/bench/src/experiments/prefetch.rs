//! The §7 prefetching experiment.

use crate::experiments::Output;
use crate::stores::Stores;
use appstore_cache::PrefetchSimulator;
use serde_json::json;

/// Replays Anzhi's generated download trace through the category
/// prefetcher at several fanouts and reports hit and waste rates — the
/// feasibility check for the paper's §7 "effective prefetching" idea.
pub fn run(stores: &Stores) -> Output {
    let bundle = stores.anzhi();
    let catalog = &bundle.store.catalog;
    let trace = &bundle.store.outcome.events;
    let category_of: Vec<u32> = catalog.apps.iter().map(|a| a.category.0).collect();
    let mut lines = Vec::new();
    let mut series = Vec::new();
    lines.push(format!(
        "{} downloads replayed; per-category popularity from the catalogue",
        trace.len()
    ));
    lines.push(format!(
        "{:>8} {:>10} {:>12} {:>12}",
        "fanout", "slot", "hit rate", "waste rate"
    ));
    for (fanout, slot) in [(1usize, 4usize), (3, 12), (5, 20), (10, 40)] {
        let mut sim = PrefetchSimulator::new(&category_of, &catalog.free_by_category, fanout, slot);
        let report = sim.run(trace);
        lines.push(format!(
            "{:>8} {:>10} {:>11.1}% {:>11.1}%",
            fanout,
            slot,
            report.hit_rate() * 100.0,
            report.waste_rate() * 100.0
        ));
        series.push(json!({
            "fanout": fanout,
            "slot": slot,
            "hit_rate": report.hit_rate(),
            "waste_rate": report.waste_rate(),
            "eligible": report.eligible,
            "staged": report.staged,
        }));
    }
    lines.push("prefetching the user's current category converts a large share".into());
    lines.push("of next downloads into local hits — §7's suggestion quantified,".into());
    lines.push("with the bandwidth cost made explicit as the waste rate".into());
    Output {
        lines,
        json: json!({ "points": series }),
    }
}
