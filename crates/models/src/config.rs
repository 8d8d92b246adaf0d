//! Model parameter sets (the paper's Table 2).

use appstore_core::CoreError;
use serde::{Deserialize, Serialize};

/// Which of the three workload models to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Independent global-Zipf draws.
    Zipf,
    /// Global-Zipf draws with per-user fetch-at-most-once.
    ZipfAtMostOnce,
    /// The paper's APP-CLUSTERING model.
    AppClustering,
}

impl ModelKind {
    /// The display name the paper uses.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Zipf => "ZIPF",
            ModelKind::ZipfAtMostOnce => "ZIPF-at-most-once",
            ModelKind::AppClustering => "APP-CLUSTERING",
        }
    }

    /// All three models, in the paper's presentation order.
    pub const ALL: [ModelKind; 3] = [
        ModelKind::Zipf,
        ModelKind::ZipfAtMostOnce,
        ModelKind::AppClustering,
    ];
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Population shape shared by all models: `A` apps, `U` users, `d`
/// downloads per user, global Zipf exponent `z_r`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationParams {
    /// Number of apps `A`.
    pub apps: usize,
    /// Number of users `U`.
    pub users: usize,
    /// Downloads per user `d` (the paper uses a fixed per-user budget;
    /// total downloads `D = U·d`).
    pub downloads_per_user: u32,
    /// Global Zipf exponent `z_r` over the overall app ranking.
    pub zipf_exponent: f64,
}

impl PopulationParams {
    /// Validates the parameter domain common to all models.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.apps == 0 {
            return Err(CoreError::invalid("apps", "must be positive"));
        }
        if self.users == 0 {
            return Err(CoreError::invalid("users", "must be positive"));
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent >= 0.0) {
            return Err(CoreError::invalid(
                "zipf_exponent",
                "must be finite and non-negative",
            ));
        }
        Ok(())
    }

    /// Validates the additional constraint of fetch-at-most-once models:
    /// a user cannot download more distinct apps than exist.
    pub fn validate_at_most_once(&self) -> Result<(), CoreError> {
        self.validate()?;
        if self.downloads_per_user as usize > self.apps {
            return Err(CoreError::invalid(
                "downloads_per_user",
                format!(
                    "cannot exceed the number of apps ({}) under fetch-at-most-once",
                    self.apps
                ),
            ));
        }
        Ok(())
    }

    /// Total downloads `D = U·d`.
    pub fn total_downloads(&self) -> u64 {
        self.users as u64 * u64::from(self.downloads_per_user)
    }
}

/// How apps map to clusters.
///
/// The paper assumes `C` clusters of equal size. The global rank of an app
/// and its rank within its cluster must be consistent; we use the
/// *interleaved* layout — app with global rank `i` (1-based) belongs to
/// cluster `(i − 1) mod C` with within-cluster rank `⌊(i − 1)/C⌋ + 1` — so
/// globally popular apps are exactly the union of the clusters' heads.
/// [`ClusterLayout::Blocked`] (cluster = contiguous rank block) is kept as
/// an ablation: it concentrates all popular apps in cluster 0 and visibly
/// degrades the fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClusterLayout {
    /// Rank `i` → cluster `(i − 1) mod C` (paper-consistent; default).
    Interleaved,
    /// Ranks are divided into `C` contiguous blocks (ablation).
    Blocked,
}

impl ClusterLayout {
    /// Maps a 0-based global app index to `(cluster, 0-based within-cluster
    /// index)` for `clusters` clusters over `apps` apps.
    pub fn place(self, app_index: usize, apps: usize, clusters: usize) -> (usize, usize) {
        debug_assert!(app_index < apps);
        match self {
            ClusterLayout::Interleaved => (app_index % clusters, app_index / clusters),
            ClusterLayout::Blocked => {
                let base = apps / clusters;
                let extra = apps % clusters;
                // First `extra` clusters hold `base + 1` apps.
                let big = (base + 1) * extra;
                if app_index < big {
                    (app_index / (base + 1), app_index % (base + 1))
                } else {
                    let rest = app_index - big;
                    (extra + rest / base, rest % base)
                }
            }
        }
    }

    /// Number of apps in `cluster` under this layout.
    pub fn cluster_size(self, cluster: usize, apps: usize, clusters: usize) -> usize {
        let base = apps / clusters;
        let extra = apps % clusters;
        match self {
            ClusterLayout::Interleaved => base + usize::from(cluster < extra),
            ClusterLayout::Blocked => base + usize::from(cluster < extra),
        }
    }
}

/// Full parameter set of the APP-CLUSTERING model (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusteringParams {
    /// Shared population shape, including `z_r`.
    pub population: PopulationParams,
    /// Number of clusters `C`.
    pub clusters: usize,
    /// Probability `p` that a download is clustering-based.
    pub p: f64,
    /// Per-cluster Zipf exponent `z_c`.
    pub cluster_exponent: f64,
    /// How apps are assigned to clusters.
    pub layout: ClusterLayout,
}

impl ClusteringParams {
    /// Validates the parameter domain.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.population.validate_at_most_once()?;
        if self.clusters == 0 || self.clusters > self.population.apps {
            return Err(CoreError::invalid(
                "clusters",
                format!("must lie in 1..={}", self.population.apps),
            ));
        }
        if !(0.0..=1.0).contains(&self.p) {
            return Err(CoreError::invalid("p", "must lie in [0, 1]"));
        }
        if !(self.cluster_exponent.is_finite() && self.cluster_exponent >= 0.0) {
            return Err(CoreError::invalid(
                "cluster_exponent",
                "must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn pop() -> PopulationParams {
        PopulationParams {
            apps: 100,
            users: 50,
            downloads_per_user: 5,
            zipf_exponent: 1.4,
        }
    }

    #[test]
    fn population_validation() {
        assert!(pop().validate().is_ok());
        assert!(PopulationParams { apps: 0, ..pop() }.validate().is_err());
        assert!(PopulationParams { users: 0, ..pop() }.validate().is_err());
        // Pure ZIPF allows d > apps (repeat downloads are legal)…
        assert!(PopulationParams {
            downloads_per_user: 101,
            ..pop()
        }
        .validate()
        .is_ok());
        // …but the at-most-once models do not.
        assert!(PopulationParams {
            downloads_per_user: 101,
            ..pop()
        }
        .validate_at_most_once()
        .is_err());
        assert!(PopulationParams {
            zipf_exponent: f64::NAN,
            ..pop()
        }
        .validate()
        .is_err());
        assert_eq!(pop().total_downloads(), 250);
    }

    #[test]
    fn clustering_validation() {
        let base = ClusteringParams {
            population: pop(),
            clusters: 10,
            p: 0.9,
            cluster_exponent: 1.4,
            layout: ClusterLayout::Interleaved,
        };
        assert!(base.validate().is_ok());
        assert!(ClusteringParams {
            clusters: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(ClusteringParams {
            clusters: 101,
            ..base
        }
        .validate()
        .is_err());
        assert!(ClusteringParams { p: 1.5, ..base }.validate().is_err());
        assert!(ClusteringParams { p: -0.1, ..base }.validate().is_err());
    }

    #[test]
    fn interleaved_layout_spreads_head() {
        let l = ClusterLayout::Interleaved;
        // Global ranks 1..=6 over 3 clusters: clusters 0,1,2,0,1,2.
        assert_eq!(l.place(0, 6, 3), (0, 0));
        assert_eq!(l.place(1, 6, 3), (1, 0));
        assert_eq!(l.place(2, 6, 3), (2, 0));
        assert_eq!(l.place(3, 6, 3), (0, 1));
        assert_eq!(l.place(5, 6, 3), (2, 1));
    }

    #[test]
    fn blocked_layout_contiguous() {
        let l = ClusterLayout::Blocked;
        // 7 apps, 3 clusters: sizes 3, 2, 2.
        assert_eq!(l.place(0, 7, 3), (0, 0));
        assert_eq!(l.place(2, 7, 3), (0, 2));
        assert_eq!(l.place(3, 7, 3), (1, 0));
        assert_eq!(l.place(4, 7, 3), (1, 1));
        assert_eq!(l.place(5, 7, 3), (2, 0));
        assert_eq!(l.place(6, 7, 3), (2, 1));
        assert_eq!(l.cluster_size(0, 7, 3), 3);
        assert_eq!(l.cluster_size(1, 7, 3), 2);
    }

    #[test]
    fn interleaved_sizes_account_for_remainder() {
        let l = ClusterLayout::Interleaved;
        // 7 apps over 3 clusters: cluster 0 gets ranks 1,4,7 (3 apps).
        assert_eq!(l.cluster_size(0, 7, 3), 3);
        assert_eq!(l.cluster_size(1, 7, 3), 2);
        assert_eq!(l.cluster_size(2, 7, 3), 2);
    }

    #[test]
    fn layouts_are_bijective() {
        for layout in [ClusterLayout::Interleaved, ClusterLayout::Blocked] {
            let (apps, clusters) = (23, 5);
            let mut seen = std::collections::HashSet::new();
            for i in 0..apps {
                let (c, j) = layout.place(i, apps, clusters);
                assert!(c < clusters);
                assert!(j < layout.cluster_size(c, apps, clusters));
                assert!(seen.insert((c, j)), "duplicate placement for {i}");
            }
        }
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Zipf.to_string(), "ZIPF");
        assert_eq!(ModelKind::AppClustering.to_string(), "APP-CLUSTERING");
        assert_eq!(ModelKind::ALL.len(), 3);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod serde_tests {
    use super::*;

    #[test]
    fn params_round_trip_through_json() {
        let params = ClusteringParams {
            population: PopulationParams {
                apps: 100,
                users: 50,
                downloads_per_user: 5,
                zipf_exponent: 1.4,
            },
            clusters: 10,
            p: 0.9,
            cluster_exponent: 1.3,
            layout: ClusterLayout::Interleaved,
        };
        let json = serde_json::to_string(&params).unwrap();
        let back: ClusteringParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, params);
    }

    #[test]
    fn model_kind_serializes_stably() {
        let json = serde_json::to_string(&ModelKind::AppClustering).unwrap();
        assert_eq!(json, "\"AppClustering\"");
        let back: ModelKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ModelKind::AppClustering);
    }
}
