//! Table 1 — dataset summary — and the crawl-pipeline report.

use crate::experiments::Output;
use crate::stores::Stores;
use appstore_core::Seed;
use appstore_crawler::{
    run_campaign, FaultPlan, MarketplaceServer, ProxyPool, Region, ServerPolicy,
};
use serde_json::json;

/// Table 1: per-store crawling period, app counts, new apps per day,
/// download totals and daily downloads.
pub fn run(stores: &Stores) -> Output {
    let mut lines = Vec::new();
    let mut rows = Vec::new();
    lines.push(format!(
        "{:<16} {:>6} {:>12} {:>12} {:>14} {:>16} {:>16} {:>14}",
        "store",
        "days",
        "apps(first)",
        "apps(last)",
        "new apps/day",
        "dl(first)",
        "dl(last)",
        "daily dl"
    ));
    for bundle in &stores.bundles {
        let d = &bundle.store.dataset;
        let first = d.first();
        let last = d.last();
        lines.push(format!(
            "{:<16} {:>6} {:>12} {:>12} {:>14.1} {:>16} {:>16} {:>14.1}",
            d.store.name,
            d.campaign_days(),
            first.app_count(),
            last.app_count(),
            d.new_apps_per_day(),
            first.total_downloads(),
            last.total_downloads(),
            d.daily_downloads(),
        ));
        rows.push(json!({
            "store": d.store.name,
            "days": d.campaign_days(),
            "apps_first": first.app_count(),
            "apps_last": last.app_count(),
            "new_apps_per_day": d.new_apps_per_day(),
            "downloads_first": first.total_downloads(),
            "downloads_last": last.total_downloads(),
            "daily_downloads": d.daily_downloads(),
        }));
        // SlideMe splits free/paid in the paper's Table 1.
        if d.store.has_paid_apps {
            let mut paid_first = 0u64;
            let mut paid_last = 0u64;
            for obs in &first.observations {
                if d.apps[obs.app.index()].is_paid() {
                    paid_first += obs.downloads;
                }
            }
            for obs in &last.observations {
                if d.apps[obs.app.index()].is_paid() {
                    paid_last += obs.downloads;
                }
            }
            lines.push(format!(
                "{:<16} {:>6} {:>12} {:>12} {:>14} {:>16} {:>16} {:>14}",
                format!("{} (paid)", d.store.name),
                d.campaign_days(),
                "",
                "",
                "",
                paid_first,
                paid_last,
                ""
            ));
        }
    }
    Output {
        lines,
        json: json!({ "rows": rows }),
    }
}

/// The crawl-pipeline experiment: harvest Anzhi through the simulated
/// proxy/rate-limit/fault stack and verify losslessness — the paper's
/// §2.2 architecture exercised end to end.
pub fn crawl(stores: &Stores, seed: Seed) -> Output {
    let truth = &stores.anzhi().store.dataset;
    let server = MarketplaceServer::new(
        truth,
        ServerPolicy {
            requests_per_second: 2_000.0,
            burst: 4_000,
            china_only: true,
            ..ServerPolicy::default()
        },
    );
    let mut pool = ProxyPool::planetlab(40, 60);
    let outcome = run_campaign(
        &server,
        truth,
        &mut pool,
        Some(Region::China),
        FaultPlan {
            drop_chance: 0.05,
            corrupt_chance: 0.05,
        },
        seed.child("crawl"),
    )
    .expect("campaign completes");
    let lossless = outcome.dataset.snapshots == truth.snapshots;
    let r = outcome.report;
    let lines = vec![
        format!(
            "store: {} (china-only policy, via Chinese proxies)",
            truth.store.name
        ),
        format!("days crawled:        {}", r.days),
        format!("app pages fetched:   {}", r.app_pages),
        format!("comment pages:       {}", r.comment_pages),
        format!("requests (w/ retry): {}", r.requests),
        format!("retries:             {}", r.retries),
        format!("injected drops:      {}", r.dropped),
        format!("corrupt payloads:    {}", r.corrupted),
        format!("rate-limited:        {}", r.rate_limited),
        format!("proxies banned:      {}", r.proxies_banned),
        format!(
            "virtual time:        {:.1} h",
            r.virtual_ms as f64 / 3_600_000.0
        ),
        format!("lossless harvest:    {lossless}"),
    ];
    Output {
        lines,
        json: json!({
            "days": r.days,
            "app_pages": r.app_pages,
            "comment_pages": r.comment_pages,
            "requests": r.requests,
            "retries": r.retries,
            "dropped": r.dropped,
            "corrupted": r.corrupted,
            "rate_limited": r.rate_limited,
            "proxies_banned": r.proxies_banned,
            "virtual_ms": r.virtual_ms,
            "lossless": lossless,
        }),
    }
}
