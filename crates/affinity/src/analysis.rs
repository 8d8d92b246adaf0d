//! Per-user aggregations behind Figures 5–7.

use crate::metric::affinity;
use crate::strings::{UserCommentProfile, UserStream};
use appstore_stats::mean_ci95;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Average affinity of one comment-count group of users (one point of
/// Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupAffinity {
    /// Group key: number of raw comments per user in the group.
    pub comments: usize,
    /// Number of users in the group.
    pub n: usize,
    /// Mean affinity across the group.
    pub mean: f64,
    /// Half-width of the normal-approximation 95% confidence interval.
    pub ci95_half: f64,
}

/// Average share of a user's comments that fall in their own top-`k`
/// categories (Fig. 5c), over users that commented on more than one app
/// (the paper excludes single-app users from this figure).
///
/// Returns `None` if no user qualifies or `k == 0`. Shares are summed in
/// profile order, so the in-memory and out-of-core paths, which both pass
/// profiles in ascending user order, agree bit-for-bit.
pub fn top_k_share_from_profiles(profiles: &[UserCommentProfile], k: usize) -> Option<f64> {
    if k == 0 {
        return None;
    }
    let mut shares = Vec::new();
    for p in profiles {
        if p.stream_len < 2 {
            continue;
        }
        let top: usize = p.category_counts.iter().take(k).sum();
        shares.push(top as f64 / p.stream_len as f64);
    }
    if shares.is_empty() {
        None
    } else {
        Some(shares.iter().sum::<f64>() / shares.len() as f64)
    }
}

/// Per-category download shares ranked descending (Fig. 5d): input is
/// total downloads per category id; output pairs `(category id, share)`.
pub fn downloads_share_by_category(downloads_per_category: &[u64]) -> Vec<(usize, f64)> {
    let total: u64 = downloads_per_category.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let mut shares: Vec<(usize, f64)> = downloads_per_category
        .iter()
        .enumerate()
        .map(|(i, &d)| (i, d as f64 / total as f64))
        .collect();
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN shares"));
    shares
}

/// Per-user affinity samples at the given depth, skipping users whose
/// strings are too short to score (Fig. 7 input).
pub fn affinity_samples(streams: &[UserStream], depth: usize) -> Vec<f64> {
    let samples: Vec<f64> = streams
        .iter()
        .filter_map(|s| affinity(&s.categories, depth))
        .collect();
    appstore_obs::counter(appstore_obs::names::AFFINITY_STREAMS, streams.len() as u64);
    appstore_obs::counter(appstore_obs::names::AFFINITY_SAMPLES, samples.len() as u64);
    samples
}

/// Fig. 6: groups users by their raw comment count, computes each
/// group's mean affinity at `depth` with a 95% CI, and keeps only groups
/// with more than `min_group_size` users (the paper uses 10, which also
/// filters the spam accounts).
pub fn affinity_by_group(
    streams: &[UserStream],
    depth: usize,
    min_group_size: usize,
) -> Vec<GroupAffinity> {
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in streams {
        if let Some(a) = affinity(&s.categories, depth) {
            groups.entry(s.raw_comments).or_default().push(a);
        }
    }
    groups
        .into_iter()
        .filter(|(_, samples)| samples.len() > min_group_size)
        .filter_map(|(comments, samples)| {
            let (mean, ci95_half) = mean_ci95(&samples)?;
            Some(GroupAffinity {
                comments,
                n: samples.len(),
                mean,
                ci95_half,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use appstore_core::{AppId, CategoryId, UserId};

    fn stream(user: u32, raw: usize, cats: &[u32]) -> UserStream {
        UserStream {
            user: UserId(user),
            raw_comments: raw,
            apps: (0..cats.len() as u32).map(AppId).collect(),
            categories: cats.iter().map(|&c| CategoryId(c)).collect(),
        }
    }

    fn profiles_of(streams: &[UserStream]) -> Vec<UserCommentProfile> {
        streams.iter().map(UserStream::profile).collect()
    }

    #[test]
    fn top_k_share_example() {
        // User with categories [1,1,2]: top-1 share 2/3; user [3] excluded.
        let profiles = profiles_of(&[stream(0, 3, &[1, 1, 2]), stream(1, 1, &[3])]);
        let share = top_k_share_from_profiles(&profiles, 1).unwrap();
        assert!((share - 2.0 / 3.0).abs() < 1e-12);
        // top-2 covers everything.
        assert_eq!(top_k_share_from_profiles(&profiles, 2), Some(1.0));
        assert_eq!(top_k_share_from_profiles(&profiles, 0), None);
        let single = profiles_of(&[stream(0, 1, &[1])]);
        assert_eq!(top_k_share_from_profiles(&single, 1), None);
    }

    #[test]
    fn download_shares_ranked() {
        let shares = downloads_share_by_category(&[10, 70, 20]);
        assert_eq!(shares[0], (1, 0.7));
        assert_eq!(shares[1], (2, 0.2));
        assert_eq!(shares[2], (0, 0.1));
        assert!(downloads_share_by_category(&[0, 0]).is_empty());
    }

    #[test]
    fn affinity_samples_skip_short_strings() {
        let streams = vec![
            stream(0, 4, &[1, 1, 1, 2]),
            stream(1, 1, &[3]), // too short at depth 1
        ];
        let samples = affinity_samples(&streams, 1);
        assert_eq!(samples.len(), 1);
        assert!((samples[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn grouping_respects_min_size_and_orders_keys() {
        let mut streams = Vec::new();
        // 12 users with 3 comments each, perfect affinity.
        for u in 0..12 {
            streams.push(stream(u, 3, &[5, 5, 5]));
        }
        // 2 users with 4 comments (group too small: filtered out).
        streams.push(stream(100, 4, &[1, 2, 3, 4]));
        streams.push(stream(101, 4, &[1, 2, 3, 4]));
        let groups = affinity_by_group(&streams, 1, 10);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.comments, 3);
        assert_eq!(g.n, 12);
        assert!((g.mean - 1.0).abs() < 1e-12);
        assert_eq!(g.ci95_half, 0.0);
    }

    #[test]
    fn grouped_mean_mixes_samples() {
        let mut streams = Vec::new();
        for u in 0..6 {
            streams.push(stream(u, 2, &[1, 1])); // affinity 1
        }
        for u in 6..12 {
            streams.push(stream(u, 2, &[1, 2])); // affinity 0
        }
        let groups = affinity_by_group(&streams, 1, 5);
        assert_eq!(groups.len(), 1);
        assert!((groups[0].mean - 0.5).abs() < 1e-12);
        assert!(groups[0].ci95_half > 0.0);
    }
}
