//! Figures 5–7: user comment behaviour and temporal affinity.

use crate::experiments::{gap_repaired, Output};
use crate::stores::Stores;
use appstore_affinity::{
    affinity_by_group, affinity_samples, build_user_streams, downloads_share_by_category,
    random_walk_affinity, top_k_share_from_profiles, UserCommentProfile, UserStream,
};
use appstore_stats::Ecdf;
use serde_json::json;

/// Fig. 5 — comments per user, unique categories per user, top-k comment
/// shares, and downloads per category (Anzhi).
pub fn fig5(stores: &Stores) -> Output {
    let anzhi = stores.anzhi();
    // The affinity analysis runs on the gap-repaired view of the crawl.
    let (view, coverage) = gap_repaired(&anzhi.store.dataset);
    let d = view.as_ref();
    let streams = build_user_streams(&d.comments, |a| d.category_of(a));
    let profiles: Vec<UserCommentProfile> = streams.iter().map(UserStream::profile).collect();
    fig5_from_profiles(&profiles, &d.downloads_by_category(d.last()), &coverage)
}

/// Fig. 5 kernel over per-user comment profiles and per-category
/// download totals — the O(users + categories) state the out-of-core
/// fold carries instead of the full comment log.
pub fn fig5_from_profiles(
    profiles: &[UserCommentProfile],
    downloads_per_category: &[u64],
    coverage: &str,
) -> Output {
    let mut lines = Vec::new();

    // (a) comments per user.
    let per_user: Vec<u64> = profiles.iter().map(|p| p.raw_comments as u64).collect();
    let ecdf_comments = Ecdf::from_counts(&per_user);
    lines.push(format!(
        "(a) users: {}   P(comments<=10): {:.2}   P(<=30): {:.2}",
        profiles.len(),
        ecdf_comments.eval(10.0),
        ecdf_comments.eval(30.0)
    ));

    // (b) unique categories per user.
    let cats_per_user: Vec<u64> = profiles
        .iter()
        .map(|p| p.category_counts.len() as u64)
        .collect();
    let ecdf_cats = Ecdf::from_counts(&cats_per_user);
    lines.push(format!(
        "(b) P(1 category): {:.2}   P(<=5 categories): {:.2}",
        ecdf_cats.eval(1.0),
        ecdf_cats.eval(5.0)
    ));
    lines.push("    paper: 53% single category, 94% within five".into());

    // (c) average share of comments in the user's top-k categories.
    let mut topk = Vec::new();
    for k in [1usize, 2, 3, 5, 10] {
        let share = top_k_share_from_profiles(profiles, k).unwrap_or(0.0);
        topk.push((k, share));
    }
    lines.push(format!(
        "(c) top-k comment share: {}",
        topk.iter()
            .map(|(k, s)| format!("k={k}: {:.0}%", s * 100.0))
            .collect::<Vec<_>>()
            .join("  ")
    ));
    lines.push("    paper: 66% in the top category, 95% within five".into());

    // (d) downloads per category.
    let shares = downloads_share_by_category(downloads_per_category);
    let top = shares.first().map(|&(_, s)| s).unwrap_or(0.0);
    let below4 = shares.iter().filter(|&&(_, s)| s < 0.04).count();
    lines.push(format!(
        "(d) top category download share: {:.1}%   categories below 4%: {}/{}",
        top * 100.0,
        below4,
        shares.len()
    ));
    lines.push("    paper: most popular category has 12%; majority below 4%".into());
    lines.push(format!("anzhi: {coverage}"));

    Output {
        lines,
        json: json!({
            "coverage": coverage,
            "users": profiles.len(),
            "comments_cdf_le10": ecdf_comments.eval(10.0),
            "single_category": ecdf_cats.eval(1.0),
            "within_five": ecdf_cats.eval(5.0),
            "top_k_share": topk,
            "top_category_share": top,
            "categories_below_4pct": below4,
        }),
    }
}

/// Fig. 6 — temporal affinity by comment-count group at depths 1–3 vs
/// the exact random-walk baselines.
pub fn fig6(stores: &Stores) -> Output {
    let anzhi = stores.anzhi();
    let d = &anzhi.store.dataset;
    let streams = build_user_streams(&d.comments, |a| d.category_of(a));
    let apps_per_category = d.apps_by_category(d.last());
    let mut lines = Vec::new();
    let mut series = Vec::new();
    for depth in 1..=3usize {
        let baseline = random_walk_affinity(&apps_per_category, depth).unwrap_or(f64::NAN);
        let groups = affinity_by_group(&streams, depth, 10);
        let overall: Vec<f64> = affinity_samples(&streams, depth);
        let mean = if overall.is_empty() {
            f64::NAN
        } else {
            overall.iter().sum::<f64>() / overall.len() as f64
        };
        lines.push(format!(
            "depth {depth}: mean affinity {:.2} vs random walk {:.2} ({:.1}x)   [{} groups]",
            mean,
            baseline,
            mean / baseline,
            groups.len()
        ));
        series.push(json!({
            "depth": depth,
            "mean_affinity": mean,
            "random_walk": baseline,
            "groups": groups.iter().map(|g| json!({
                "comments": g.comments, "n": g.n, "mean": g.mean, "ci95": g.ci95_half,
            })).collect::<Vec<_>>(),
        }));
    }
    lines.push("paper: depth-1 affinity ~0.55 vs 0.14 random walk (3.9x);".into());
    lines.push("       baselines 0.14 / 0.28 / 0.42 at depths 1-3".into());
    Output {
        lines,
        json: json!({ "depths": series }),
    }
}

/// Fig. 7 — CDF of per-user affinity at depths 1–3 (paper medians 0.5 /
/// 0.58 / 0.67).
pub fn fig7(stores: &Stores) -> Output {
    let anzhi = stores.anzhi();
    let d = &anzhi.store.dataset;
    let streams = build_user_streams(&d.comments, |a| d.category_of(a));
    let apps_per_category = d.apps_by_category(d.last());
    let mut lines = Vec::new();
    let mut series = Vec::new();
    for depth in 1..=3usize {
        let samples = affinity_samples(&streams, depth);
        let ecdf = Ecdf::new(&samples);
        let median = ecdf.median().unwrap_or(f64::NAN);
        let baseline = random_walk_affinity(&apps_per_category, depth).unwrap_or(f64::NAN);
        let above_baseline = 1.0 - ecdf.eval(baseline);
        lines.push(format!(
            "depth {depth}: median affinity {:.2} (paper {:.2})   P(affinity > random walk) = {:.2}",
            median,
            [0.5, 0.58, 0.67][depth - 1],
            above_baseline
        ));
        series.push(json!({
            "depth": depth,
            "median": median,
            "random_walk": baseline,
            "fraction_above_baseline": above_baseline,
            "cdf": ecdf.curve(50),
        }));
    }
    Output {
        lines,
        json: json!({ "depths": series }),
    }
}

/// Ablation: is category interest stable over calendar time? (Extension
/// beyond the paper, motivated by its §7 "recommend the most recent
/// interests" suggestion.)
pub fn ablate_drift(stores: &Stores) -> Output {
    use appstore_affinity::{affinity_over_windows, interest_retention};
    let anzhi = stores.anzhi();
    let d = &anzhi.store.dataset;
    let last_day = d.last().day;
    let windows = affinity_over_windows(&d.comments, last_day, 15, 1, |a| d.category_of(a));
    let retention = interest_retention(&d.comments, last_day, |a| d.category_of(a));
    let mut lines = Vec::new();
    for w in &windows {
        lines.push(format!(
            "days {:>3}-{:<3}  users {:>6}  mean affinity {}",
            w.start.0,
            w.end.0,
            w.users,
            if w.mean.is_nan() {
                "-".to_string()
            } else {
                format!("{:.2}", w.mean)
            }
        ));
    }
    if let Some(r) = retention {
        lines.push(format!(
            "interest retention (late categories already seen early): {:.2}",
            r
        ));
    }
    lines.push("stable in-window affinity + high retention justify recency-".into());
    lines.push("based recommendation over full-history collaborative filtering".into());
    Output {
        lines,
        json: json!({
            "windows": windows.iter().map(|w| json!({
                "start": w.start.0, "end": w.end.0, "users": w.users, "mean": if w.mean.is_nan() { None } else { Some(w.mean) },
            })).collect::<Vec<_>>(),
            "retention": retention,
        }),
    }
}

/// Ablation: affinity estimate sensitivity to spam filtering and depth.
pub fn ablate_depth(stores: &Stores) -> Output {
    let anzhi = stores.anzhi();
    let d = &anzhi.store.dataset;
    let streams = build_user_streams(&d.comments, |a| d.category_of(a));
    let regular_users = anzhi.profile.users;
    let mut lines = Vec::new();
    let mut series = Vec::new();
    for depth in 1..=3usize {
        let all: Vec<f64> = affinity_samples(&streams, depth);
        let filtered: Vec<f64> = streams
            .iter()
            .filter(|s| s.user.index() < regular_users)
            .filter_map(|s| appstore_affinity::affinity(&s.categories, depth))
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        lines.push(format!(
            "depth {depth}: mean with spam {:.3}, without spam {:.3} (delta {:+.3})",
            mean(&all),
            mean(&filtered),
            mean(&filtered) - mean(&all)
        ));
        series.push(json!({
            "depth": depth,
            "with_spam": mean(&all),
            "without_spam": mean(&filtered),
        }));
    }
    lines.push("a dozen spam accounts among ~100k commenters cannot move the".into());
    lines.push("per-user mean; their real damage is to the *high-comment-count*".into());
    lines.push("groups of Fig. 6, which the paper's group-size filter removes".into());
    Output {
        lines,
        json: json!({ "depths": series }),
    }
}
