//! Figures 11–12: paid vs free popularity, and price effects.

use crate::experiments::Output;
use crate::stores::Stores;
use appstore_core::PricingTier;
use appstore_revenue::{price_bins, price_correlations};
use appstore_stats::{zipf_fit_loglog, zipf_fit_trunk};
use serde_json::json;

/// Splits SlideMe's final ranked downloads by tier.
fn slideme_ranked_by_tier(stores: &Stores) -> (Vec<u64>, Vec<u64>) {
    let d = &stores.slideme().store.dataset;
    let last = d.last();
    let mut free = Vec::new();
    let mut paid = Vec::new();
    for obs in &last.observations {
        match d.apps[obs.app.index()].tier {
            PricingTier::Free => free.push(obs.downloads),
            PricingTier::Paid => paid.push(obs.downloads),
        }
    }
    free.sort_unstable_by(|a, b| b.cmp(a));
    paid.sort_unstable_by(|a, b| b.cmp(a));
    (free, paid)
}

/// Fig. 11 — download distributions of free vs paid SlideMe apps.
/// Paper: free apps show the truncated curve (trunk slope 0.85); paid
/// apps follow a clean power law with slope 1.72.
pub fn fig11(stores: &Stores) -> Output {
    let (free, paid) = slideme_ranked_by_tier(stores);
    let free_trunk = zipf_fit_trunk(&free, free.len() / 50, free.len() / 4);
    let free_full = zipf_fit_loglog(&free);
    let paid_full = zipf_fit_loglog(&paid);
    let mut lines = Vec::new();
    let (ft_z, ft_r2) = free_trunk
        .map(|f| (f.exponent, f.quality))
        .unwrap_or((f64::NAN, f64::NAN));
    let (ff_z, ff_r2) = free_full
        .map(|f| (f.exponent, f.quality))
        .unwrap_or((f64::NAN, f64::NAN));
    let (p_z, p_r2) = paid_full
        .map(|f| (f.exponent, f.quality))
        .unwrap_or((f64::NAN, f64::NAN));
    lines.push(format!(
        "free apps:  {:>6} apps   trunk z={:.2} (r²={:.3})   full-curve z={:.2} (r²={:.3})",
        free.len(),
        ft_z,
        ft_r2,
        ff_z,
        ff_r2
    ));
    lines.push(format!(
        "paid apps:  {:>6} apps   full-curve z={:.2} (r²={:.3})",
        paid.len(),
        p_z,
        p_r2
    ));
    lines.push(format!(
        "paid curve is cleaner: paid r² {:.3} vs free full-curve r² {:.3}",
        p_r2, ff_r2
    ));
    lines.push("paper: free trunk 0.85; paid 1.72, a clean power law".into());
    Output {
        lines,
        json: json!({
            "free": { "apps": free.len(), "trunk_z": ft_z, "full_z": ff_z, "full_r2": ff_r2 },
            "paid": { "apps": paid.len(), "z": p_z, "r2": p_r2 },
        }),
    }
}

/// Fig. 12 — downloads and app counts per one-dollar price bin with the
/// two Pearson correlations (paper: −0.229 and −0.240).
pub fn fig12(stores: &Stores) -> Output {
    let d = &stores.slideme().store.dataset;
    let bins = price_bins(d, 50);
    let correlations = price_correlations(d, 50);
    let mut lines = Vec::new();
    lines.push(format!(
        "{:>10} {:>8} {:>16}",
        "price bin", "apps", "mean downloads"
    ));
    for b in bins.iter().take(12) {
        lines.push(format!(
            "{:>7}-{:<2} {:>8} {:>16}",
            format!("${:.0}", b.dollars_lo),
            format!("{:.0}", b.dollars_hi),
            b.apps,
            b.mean_downloads
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "-".into())
        ));
    }
    let (r_downloads, r_apps) = correlations.unwrap_or((f64::NAN, f64::NAN));
    lines.push(format!(
        "Pearson price vs downloads: {r_downloads:.3}   price vs app count: {r_apps:.3}"
    ));
    lines.push("paper: -0.229 and -0.240 — expensive apps are fewer and less popular".into());
    Output {
        lines,
        json: json!({
            "r_price_downloads": r_downloads,
            "r_price_apps": r_apps,
            "bins": bins.iter().map(|b| json!({
                "lo": b.dollars_lo, "hi": b.dollars_hi,
                "apps": b.apps, "mean_downloads": b.mean_downloads,
            })).collect::<Vec<_>>(),
        }),
    }
}
