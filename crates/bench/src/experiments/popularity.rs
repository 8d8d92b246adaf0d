//! Figures 2–4: Pareto effect, truncated-Zipf popularity, update CDF.

use crate::experiments::{gap_repaired, Output};
use crate::stores::Stores;
use appstore_stats::{
    powerlaw_cutoff_fit, top_share, top_share_curve, zipf_fit_loglog, zipf_fit_trunk, Ecdf,
};
use serde_json::json;

/// Fig. 2 — cumulative download share vs normalized app rank per store,
/// with the headline top-1% and top-10% shares.
pub fn fig2(stores: &Stores) -> Output {
    let mut lines = Vec::new();
    let mut series = Vec::new();
    lines.push(format!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "store", "top 1%", "top 10%", "top 20%", "top 50%"
    ));
    for bundle in &stores.bundles {
        let ranked = bundle.store.dataset.final_downloads_ranked();
        let shares: Vec<f64> = [0.01, 0.10, 0.20, 0.50]
            .iter()
            .map(|&f| top_share(&ranked, f).unwrap_or(0.0))
            .collect();
        lines.push(format!(
            "{:<12} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
            bundle.profile.name,
            shares[0] * 100.0,
            shares[1] * 100.0,
            shares[2] * 100.0,
            shares[3] * 100.0
        ));
        let curve = top_share_curve(&ranked, 100);
        series.push(json!({
            "store": bundle.profile.name,
            "top1": shares[0], "top10": shares[1],
            "top20": shares[2], "top50": shares[3],
            "curve": curve,
        }));
    }
    lines.push("paper: top 10% of apps account for 70-90% of downloads;".into());
    lines.push("       top 1% for 30-70% depending on the store".into());
    Output {
        lines,
        json: json!({ "stores": series }),
    }
}

/// One store's input to the Fig. 3 kernel: free-app downloads ranked
/// descending, plus the coverage note to print below the table. Both
/// the in-memory and the out-of-core paths reduce to this.
pub struct PopularityInput {
    /// Store name as printed in the table.
    pub name: String,
    /// Free-app final downloads, sorted descending.
    pub ranked: Vec<u64>,
    /// Coverage annotation (from `gap_repaired` or its streaming twin).
    pub note: String,
}

/// Fig. 3 — downloads vs rank (log-log) per store with the trunk Zipf
/// exponent (paper: Anzhi 1.42, AppChina 1.51, 1Mobile 0.92, SlideMe
/// 0.90) and the double truncation evidence.
pub fn fig3(stores: &Stores) -> Output {
    let inputs: Vec<PopularityInput> = stores
        .bundles
        .iter()
        .map(|bundle| {
            // Analyses run on the gap-repaired view of each crawl, with
            // the coverage noted below the table.
            let (view, note) = gap_repaired(&bundle.store.dataset);
            // The paper plots SlideMe's free apps in Fig. 3d (paid apps
            // get their own Fig. 11b); mixing the two tiers muddies the
            // trunk.
            let ranked: Vec<u64> = {
                let d = view.as_ref();
                let mut v: Vec<u64> = d
                    .last()
                    .observations
                    .iter()
                    .filter(|o| !d.apps[o.app.index()].is_paid())
                    .map(|o| o.downloads)
                    .collect();
                v.sort_unstable_by(|a, b| b.cmp(a));
                v
            };
            PopularityInput {
                name: bundle.profile.name.to_string(),
                ranked,
                note,
            }
        })
        .collect();
    fig3_from_inputs(&inputs)
}

/// Fig. 3 kernel over pre-ranked download vectors. All fitting and
/// formatting lives here so the streaming path reuses it verbatim.
pub fn fig3_from_inputs(inputs: &[PopularityInput]) -> Output {
    let mut lines = Vec::new();
    let mut series = Vec::new();
    lines.push(format!(
        "{:<12} {:>8} {:>12} {:>10} {:>12} {:>12}",
        "store", "apps", "downloads", "trunk z", "r^2", "head flat?"
    ));
    let mut coverage = Vec::new();
    for input in inputs {
        coverage.push(format!("{}: {}", input.name, input.note));
        let ranked = &input.ranked;
        let n = ranked.len();
        let total: u64 = ranked.iter().sum();
        let fit = zipf_fit_trunk(ranked, n / 50, n / 4);
        // Head-flattening evidence: ratio of rank-1 to rank-10 downloads
        // is far below a pure Zipf prediction when fetch-at-most-once
        // truncates the head.
        let head_ratio = if n >= 10 && ranked[9] > 0 {
            ranked[0] as f64 / ranked[9] as f64
        } else {
            f64::NAN
        };
        let (z, r2) = fit
            .map(|f| (f.exponent, f.quality))
            .unwrap_or((f64::NAN, f64::NAN));
        let zipf_head_ratio = 10f64.powf(z);
        let truncated = head_ratio < zipf_head_ratio * 0.5;
        lines.push(format!(
            "{:<12} {:>8} {:>12} {:>10.2} {:>12.3} {:>12}",
            input.name, n, total, z, r2, truncated
        ));
        // Log-spaced (rank, downloads) samples for plotting.
        let mut samples = Vec::new();
        let mut rank = 1usize;
        while rank <= n {
            samples.push((rank, ranked[rank - 1]));
            rank = ((rank as f64) * 1.5).ceil() as usize;
        }
        series.push(json!({
            "store": input.name,
            "trunk_exponent": z,
            "r_squared": r2,
            "head_truncated": truncated,
            "coverage": input.note,
            "rank_samples": samples,
        }));
    }
    lines.extend(coverage);
    lines.push(
        "paper trunk exponents: anzhi 1.42, appchina 1.51, 1mobile 0.92, slideme 0.90".into(),
    );
    Output {
        lines,
        json: json!({ "stores": series }),
    }
}

/// Fig. 4 — CDF of updates per app over the campaign (paper: >80% never
/// updated; 99% have fewer than four; top-10% apps update more).
pub fn fig4(stores: &Stores) -> Output {
    let mut lines = Vec::new();
    let mut series = Vec::new();
    lines.push(format!(
        "{:<12} {:>10} {:>10} {:>10} {:>14}",
        "store", "P(0 upd)", "P(<=3)", "p99", "top10% P(0)"
    ));
    for bundle in &stores.bundles {
        let d = &bundle.store.dataset;
        let updates = d.updates_per_app();
        let ecdf = Ecdf::from_counts(&updates);
        let p0 = ecdf.eval(0.0);
        let p3 = ecdf.eval(3.0);
        let p99 = ecdf.quantile(0.99).unwrap_or(0.0);
        // Top-10% most downloaded apps.
        let ranked_apps = {
            let last = d.last();
            let mut v: Vec<(u64, u32)> = last
                .observations
                .iter()
                .map(|o| (o.downloads, o.app.0))
                .collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        };
        let top_n = (ranked_apps.len() / 10).max(1);
        let top_zero = ranked_apps[..top_n]
            .iter()
            .filter(|&&(_, app)| updates[app as usize] == 0)
            .count() as f64
            / top_n as f64;
        lines.push(format!(
            "{:<12} {:>9.1}% {:>9.1}% {:>10} {:>13.1}%",
            bundle.profile.name,
            p0 * 100.0,
            p3 * 100.0,
            p99,
            top_zero * 100.0
        ));
        series.push(json!({
            "store": bundle.profile.name,
            "p_zero": p0,
            "p_le3": p3,
            "p99_updates": p99,
            "top10_p_zero": top_zero,
            "cdf_steps": ecdf.steps(),
        }));
    }
    lines.push("paper: >80% of apps with zero updates; 99% below four;".into());
    lines.push("       60-75% of the top-10% apps have no updates".into());
    Output {
        lines,
        json: json!({ "stores": series }),
    }
}

/// Ablation: is the app popularity curve better described as a power law
/// with an *exponential cutoff* — the model Cha et al. fit to YouTube,
/// which the paper says "is similar to the app popularity distribution
/// we observe in our study"? Compares log-space fit quality of a pure
/// power law vs one with a cutoff term on every store's free-app curve.
pub fn ablate_cutoff(stores: &Stores) -> Output {
    let mut lines = Vec::new();
    let mut series = Vec::new();
    lines.push(format!(
        "{:<12} {:>10} {:>14} {:>14} {:>12}",
        "store", "plain r²", "cutoff r²", "cutoff rank", "tail frac"
    ));
    for bundle in &stores.bundles {
        let d = &bundle.store.dataset;
        let mut ranked: Vec<u64> = d
            .last()
            .observations
            .iter()
            .filter(|o| !d.apps[o.app.index()].is_paid())
            .map(|o| o.downloads)
            .collect();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        let plain = zipf_fit_loglog(&ranked);
        let cutoff = powerlaw_cutoff_fit(&ranked);
        let (pr2, cr2, k) = match (plain, cutoff) {
            (Some(p), Some(c)) => (p.quality, c.r_squared, c.cutoff),
            _ => (f64::NAN, f64::NAN, f64::NAN),
        };
        let tail_fraction = k / ranked.len() as f64;
        lines.push(format!(
            "{:<12} {:>10.3} {:>14.3} {:>14.0} {:>12.2}",
            bundle.profile.name, pr2, cr2, k, tail_fraction
        ));
        series.push(json!({
            "store": bundle.profile.name,
            "plain_r2": pr2,
            "cutoff_r2": cr2,
            "cutoff_rank": if k.is_finite() { Some(k) } else { None },
        }));
    }
    lines.push("the cutoff term absorbs the collapsed tail the clustering effect".into());
    lines.push("produces — app popularity matches UGC video (power law with".into());
    lines.push("exponential cutoff) better than pure Zipf, as the paper notes".into());
    Output {
        lines,
        json: json!({ "stores": series }),
    }
}
