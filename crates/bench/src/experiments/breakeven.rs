//! Figures 17–18: break-even ad income (Eq. 7).

use crate::experiments::Output;
use crate::stores::Stores;
use appstore_revenue::{
    ad_fraction_of_free_apps, breakeven_by_category, breakeven_by_tier, breakeven_over_time,
    breakeven_overall,
};
use serde_json::json;

/// Fig. 17 — break-even ad income per download: overall, by popularity
/// tier, and over the last months of the campaign (paper: $0.21 average,
/// $0.033 for popular apps, $1.56 for unpopular ones; drops over time).
pub fn fig17(stores: &Stores) -> Output {
    let d = &stores.slideme().store.dataset;
    let overall = breakeven_overall(d).unwrap_or(f64::NAN);
    let tiers = breakeven_by_tier(d);
    let over_time = breakeven_over_time(d);
    let ad_fraction = ad_fraction_of_free_apps(&d.apps).unwrap_or(f64::NAN);
    let mut lines = Vec::new();
    lines.push(format!(
        "free apps with ads: {:.1}%   (paper: 67.7% via Androguard)",
        ad_fraction * 100.0
    ));
    lines.push(format!(
        "break-even ad income, average free app: ${overall:.3} per download (paper: $0.21)"
    ));
    if let Some((top, mid, low)) = tiers {
        lines.push(format!(
            "by tier:  top 20%: ${top:.3}   mid 50%: ${mid:.3}   low 30%: ${low:.3}"
        ));
        lines.push("paper tiers: $0.033 / (medium) / $1.56".into());
    }
    // Trend over the last ~90 days.
    let tail: Vec<&(u32, f64)> = over_time.iter().rev().take(90).collect();
    if tail.len() >= 2 {
        let newest = tail.first().expect("nonempty").1;
        let oldest = tail.last().expect("nonempty").1;
        lines.push(format!(
            "trend over final {} days: ${oldest:.3} -> ${newest:.3} ({})",
            tail.len(),
            if newest <= oldest {
                "dropping, as in the paper"
            } else {
                "rising"
            }
        ));
    }
    Output {
        lines,
        json: json!({
            "ad_fraction": ad_fraction,
            "overall": overall,
            "tiers": tiers.map(|(t, m, l)| json!({ "top": t, "mid": m, "low": l })),
            "over_time": over_time,
        }),
    }
}

/// Fig. 18 — break-even ad income per category (paper: music ≈ $1.60
/// down to ≈ $0.002 for wallpapers/e-books, three orders of magnitude).
pub fn fig18(stores: &Stores) -> Output {
    let d = &stores.slideme().store.dataset;
    let by_category = breakeven_by_category(d);
    let mut lines = Vec::new();
    lines.push(format!("{:<16} {:>16}", "category", "break-even $/dl"));
    for (name, value) in &by_category {
        lines.push(format!("{:<16} {:>16.4}", name, value));
    }
    // Spread between the most and least demanding categories with a
    // positive break-even (categories whose paid apps sold nothing have
    // a degenerate zero).
    let positive: Vec<&(String, f64)> = by_category.iter().filter(|(_, v)| *v > 0.0).collect();
    if let (Some(first), Some(last)) = (positive.first(), positive.last()) {
        let spread = first.1 / last.1;
        lines.push(format!(
            "spread: {} (${:.3}) to {} (${:.4}) — {:.0}x",
            first.0, first.1, last.0, last.1, spread
        ));
    }
    lines.push("paper: music $1.60 ... e-books/wallpapers ~$0.002 (~800x)".into());
    Output {
        lines,
        json: json!({ "categories": by_category }),
    }
}
