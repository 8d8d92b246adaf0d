//! Clustering-effect analysis (Section 4 of the paper).
//!
//! The paper validates the clustering effect by measuring the *temporal
//! affinity* of users to app categories over their comment streams:
//! once a user comments on (≈ downloads) an app of some category, how
//! likely is their next comment to fall in the same category?
//!
//! * [`strings`] — turns raw comment events into per-user *app strings*
//!   (unique apps in first-comment order) and *category strings*;
//! * [`metric`] — the affinity metric at depth `d` (Eqs. 1 and 3);
//! * [`baseline`] — the exact random-walk affinity probability a user
//!   wandering without category preference would score (Eqs. 2 and 4);
//! * [`analysis`] — the per-user aggregations behind Figs. 5–7: top-`k`
//!   category shares, per-category download shares, and affinity
//!   samples, also grouped by comment count with confidence intervals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod drift;
pub mod metric;
pub mod strings;

pub use drift::{affinity_over_windows, interest_retention, WindowAffinity};

pub use analysis::{
    affinity_by_group, affinity_samples, downloads_share_by_category, top_k_share_from_profiles,
    GroupAffinity,
};
pub use baseline::random_walk_affinity;
pub use metric::affinity;
pub use strings::{build_user_streams, UserCommentProfile, UserStream};
