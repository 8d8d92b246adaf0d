//! Affinity drift over the campaign (an extension beyond the paper).
//!
//! The paper measures temporal affinity over each user's whole comment
//! history. A natural follow-up — relevant to the paper's §7 suggestion
//! of recommending "apps related to the most recent interests of a user"
//! — is whether affinity is stable over calendar time: do users stay in
//! the same categories across the campaign, or do their interests drift?
//!
//! [`affinity_over_windows`] recomputes the affinity metric per calendar
//! window (comments bucketed by day), and [`interest_retention`] measures
//! how much of a user's early category set is still active late.

use crate::metric::affinity;
use appstore_core::{CategoryId, CommentEvent, Day};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Affinity measured within one calendar window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowAffinity {
    /// First day of the window (inclusive).
    pub start: Day,
    /// Last day of the window (inclusive).
    pub end: Day,
    /// Users whose in-window string was long enough to score.
    pub users: usize,
    /// Mean affinity across those users.
    pub mean: f64,
}

/// Splits the campaign `[0, last_day]` into windows of `window_days` and
/// computes mean depth-`depth` affinity within each.
///
/// Comment streams are deduplicated per (user, window) in first-comment
/// order, as in the whole-campaign analysis.
pub fn affinity_over_windows<F>(
    comments: &[CommentEvent],
    last_day: Day,
    window_days: u32,
    depth: usize,
    mut category_of: F,
) -> Vec<WindowAffinity>
where
    F: FnMut(appstore_core::AppId) -> CategoryId,
{
    assert!(window_days > 0, "window must be at least one day");
    let windows = (last_day.0 / window_days) + 1;
    // (window, user) -> (apps seen, category string). Key order fixes
    // the order of the per-window float sums, so the means repeat
    // exactly from run to run.
    let mut per_user: BTreeMap<(u32, u32), (Vec<u32>, Vec<CategoryId>)> = BTreeMap::new();
    let mut sorted: Vec<&CommentEvent> = comments.iter().collect();
    sorted.sort_by_key(|c| (c.user, c.chrono_key()));
    for c in sorted {
        let w = c.day.0 / window_days;
        let entry = per_user.entry((w, c.user.0)).or_default();
        if !entry.0.contains(&c.app.0) {
            entry.0.push(c.app.0);
            entry.1.push(category_of(c.app));
        }
    }
    (0..windows)
        .map(|w| {
            let mut samples = Vec::new();
            for ((win, _), (_, cats)) in per_user.iter() {
                if *win == w {
                    if let Some(a) = affinity(cats, depth) {
                        samples.push(a);
                    }
                }
            }
            WindowAffinity {
                start: Day(w * window_days),
                end: Day(((w + 1) * window_days - 1).min(last_day.0)),
                users: samples.len(),
                mean: if samples.is_empty() {
                    f64::NAN
                } else {
                    samples.iter().sum::<f64>() / samples.len() as f64
                },
            }
        })
        .collect()
}

/// For users active in both halves of the campaign, the fraction of their
/// second-half comment categories already present in their first half —
/// 1.0 means interests are fully persistent, low values mean drift.
///
/// Returns `None` when no user is active in both halves.
pub fn interest_retention<F>(
    comments: &[CommentEvent],
    last_day: Day,
    mut category_of: F,
) -> Option<f64>
where
    F: FnMut(appstore_core::AppId) -> CategoryId,
{
    let midpoint = last_day.0 / 2;
    let mut early: HashMap<u32, Vec<CategoryId>> = HashMap::new();
    let mut late: HashMap<u32, Vec<CategoryId>> = HashMap::new();
    for c in comments {
        let cat = category_of(c.app);
        let bucket = if c.day.0 <= midpoint {
            &mut early
        } else {
            &mut late
        };
        let cats = bucket.entry(c.user.0).or_default();
        if !cats.contains(&cat) {
            cats.push(cat);
        }
    }
    let mut retained = 0usize;
    let mut total = 0usize;
    for (user, late_cats) in &late {
        let Some(early_cats) = early.get(user) else {
            continue;
        };
        for cat in late_cats {
            total += 1;
            if early_cats.contains(cat) {
                retained += 1;
            }
        }
    }
    if total == 0 {
        None
    } else {
        Some(retained as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appstore_core::{AppId, UserId};

    fn comment(user: u32, app: u32, day: u32, seq: u32) -> CommentEvent {
        CommentEvent {
            user: UserId(user),
            app: AppId(app),
            day: Day(day),
            seq,
            rating: 5,
        }
    }

    /// app -> category: app id / 10.
    fn cat(app: AppId) -> CategoryId {
        CategoryId(app.0 / 10)
    }

    #[test]
    fn windows_partition_the_campaign() {
        let comments = vec![
            // Window 0 (days 0-9): user 0 stays in category 0.
            comment(0, 1, 0, 0),
            comment(0, 2, 1, 0),
            comment(0, 3, 2, 0),
            // Window 1 (days 10-19): user 0 alternates categories.
            comment(0, 11, 10, 0),
            comment(0, 21, 11, 0),
            comment(0, 12, 12, 0),
        ];
        let windows = affinity_over_windows(&comments, Day(19), 10, 1, cat);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].start, Day(0));
        assert_eq!(windows[0].end, Day(9));
        assert_eq!(windows[0].users, 1);
        assert!((windows[0].mean - 1.0).abs() < 1e-12);
        assert_eq!(windows[1].users, 1);
        assert!((windows[1].mean - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_reports_nan() {
        let comments = vec![comment(0, 1, 0, 0), comment(0, 2, 1, 0)];
        let windows = affinity_over_windows(&comments, Day(25), 10, 1, cat);
        assert_eq!(windows.len(), 3);
        assert!(windows[2].mean.is_nan());
        assert_eq!(windows[2].users, 0);
    }

    #[test]
    fn retention_full_and_partial() {
        // User 0: early categories {0}, late {0} -> retained.
        // User 1: early {0}, late {1, 0} -> half retained.
        let comments = vec![
            comment(0, 1, 0, 0),
            comment(0, 2, 9, 0),
            comment(1, 3, 0, 0),
            comment(0, 4, 15, 0),
            comment(1, 15, 16, 0),
            comment(1, 5, 17, 0),
        ];
        let retention = interest_retention(&comments, Day(19), cat).unwrap();
        // Late categories: user 0 {0} retained 1/1; user 1 {1 (no), 0 (yes)}.
        assert!((retention - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn retention_none_without_overlapping_users() {
        let comments = vec![comment(0, 1, 0, 0), comment(1, 2, 15, 0)];
        assert_eq!(interest_retention(&comments, Day(19), cat), None);
        assert_eq!(interest_retention(&[], Day(19), cat), None);
    }
}
