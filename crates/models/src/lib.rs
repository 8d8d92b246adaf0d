//! Appstore workload models (Section 5 of the paper).
//!
//! Three generative models of who downloads what:
//!
//! * **ZIPF** — every download is an independent draw from a global
//!   Zipf law over app ranks (the classical web-workload model);
//! * **ZIPF-at-most-once** — same, but a user never downloads the same app
//!   twice (the peer-to-peer file-sharing model of Gummadi et al.);
//! * **APP-CLUSTERING** — the paper's contribution: apps live in clusters
//!   (categories); after the first download, each subsequent download
//!   stays with probability `p` in the cluster of a previously downloaded
//!   app (chosen uniformly among them) and is drawn from a per-cluster
//!   Zipf law, otherwise it falls back to the global law; downloads are
//!   fetch-at-most-once throughout.
//!
//! The crate offers, for each model:
//!
//! * a Monte-Carlo simulator producing either per-app download counts
//!   ([`simulate::Simulator::simulate_counts`]) or a full interleaved
//!   download-event trace ([`simulate::Simulator::simulate_trace`], used
//!   by the cache experiments of Fig. 19);
//! * a closed-form expectation of per-app downloads
//!   ([`expectation`], the paper's Eq. 5 and its two specializations);
//! * grid-search fitting of model parameters against a measured popularity
//!   curve by mean relative error ([`fit`], Eq. 6 / Figs. 8–10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod config;
pub mod expectation;
pub mod fit;
pub mod kernel;
pub mod simulate;
pub mod zipf;

pub use config::{ClusterLayout, ClusteringParams, ModelKind, PopulationParams};
pub use expectation::{
    cluster_weights, expected_downloads_clustering, expected_downloads_clustering_weighted,
    expected_downloads_zipf, expected_downloads_zipf_amo, ScreeningCache,
};
pub use fit::{
    fit_clustering, fit_clustering_checkpointed, fit_zipf, fit_zipf_amo, user_count_sweep,
    CandidateBudget, CoarseMode, FitError, FitOutcome, FitSpec, SITE_FIT_JOURNAL_APPEND,
    SITE_FIT_REFINE,
};
pub use kernel::ZipfFamily;
pub use simulate::{DownloadTrace, Simulator};
pub use zipf::{AliasTable, SampleMethod, ZipfSampler};
