//! # planet-apps
//!
//! A from-scratch reproduction of *Rise of the Planet of the Apps: A
//! Systematic Study of the Mobile App Ecosystem* (Petsas et al., IMC
//! 2013) as a Rust workspace. This facade crate re-exports every
//! sub-crate under one roof for convenient use in examples and
//! downstream experiments.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `appstore-core` | domain model: ids, apps, categories, events, snapshots, datasets, deterministic seeding |
//! | [`stats`] | `appstore-stats` | ECDFs, correlation, regression, power-law fits, Pareto/Gini, the Eq. 6 model distance, bootstrap |
//! | [`models`] | `appstore-models` | ZIPF, ZIPF-at-most-once and APP-CLUSTERING simulators, closed forms, grid-search fitting |
//! | [`affinity`] | `appstore-affinity` | temporal affinity metric, random-walk baselines, per-user behaviour aggregations |
//! | [`synth`] | `appstore-synth` | calibrated synthetic marketplace generator (the data substitution for the 2012 crawls) |
//! | [`crawler`] | `appstore-crawler` | simulated collection architecture: proxy pool, rate limits, blacklisting, fault injection |
//! | [`cache`] | `appstore-cache` | app-delivery cache policies and the Fig. 19 experiments |
//! | [`revenue`] | `appstore-revenue` | pricing, developer income, category shares, break-even ad income |
//! | [`recommend`] | `appstore-recommend` | popularity / item-kNN / category-recency recommenders with temporal hold-out evaluation |
//!
//! ## Quickstart
//!
//! ```
//! use planet_apps::core::{Seed, StoreId};
//! use planet_apps::synth::{generate, StoreProfile};
//! use planet_apps::stats::top_share;
//!
//! // Generate a small calibrated Anzhi-like store…
//! let profile = StoreProfile::anzhi().scaled_down(8);
//! let store = generate(&profile, StoreId(0), Seed::new(7));
//!
//! // …and confirm the paper's Pareto effect on its download curve.
//! let ranked = store.dataset.final_downloads_ranked();
//! let share = top_share(&ranked, 0.10).unwrap();
//! assert!(share > 0.5, "top-10% share {share}");
//! ```

#![forbid(unsafe_code)]

pub use appstore_affinity as affinity;
pub use appstore_cache as cache;
pub use appstore_core as core;
pub use appstore_crawler as crawler;
pub use appstore_models as models;
pub use appstore_recommend as recommend;
pub use appstore_revenue as revenue;
pub use appstore_stats as stats;
pub use appstore_synth as synth;
