//! Domain model for the planet-apps appstore study.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: identifiers for apps, users, developers and categories; the
//! records an appstore exposes about each app; download / comment / update
//! events; daily snapshots as collected by a crawl; and complete datasets
//! (one per monitored appstore) that the analysis crates consume.
//!
//! It also provides two small pieces of infrastructure that the
//! simulators are built on:
//!
//! * [`seed::Seed`] — hierarchical deterministic seeding, so that every
//!   experiment in the repository is bit-reproducible, and
//! * [`par::par_map_indexed`] — deterministic fork/join over seeded work
//!   items, the scheme every parallel experiment path uses to stay
//!   byte-identical across thread counts.
//!
//! Design follows the paper's data model (Section 2 of Petsas et al.,
//! IMC 2013): each app belongs to exactly one category, has one developer,
//! is free or paid, and accumulates downloads, comments and updates that a
//! daily crawl observes as cumulative counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod backoff;
pub mod category;
pub mod dataset;
pub mod developer;
pub mod error;
pub mod event;
pub mod faults;
pub mod ids;
pub mod journal;
pub mod money;
pub mod par;
pub mod quality;
pub mod seed;
pub mod snapshot;
pub mod spill;
pub mod time;

pub use app::{AdLibrary, App, PricingTier, AD_NETWORK_CATALOGUE};
pub use backoff::{backoff_delay_ms, jittered, BackoffSchedule, RetryBudget};
pub use category::{CategoryInfo, CategorySet};
pub use dataset::{Dataset, StoreMeta};
pub use developer::Developer;
pub use error::CoreError;
pub use event::{CommentEvent, DownloadEvent, UpdateEvent};
pub use faults::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultRule, FaultTrigger};
pub use ids::{AppId, CategoryId, DeveloperId, StoreId, UserId};
pub use money::Cents;
pub use par::{effective_threads, par_map_indexed};
pub use quality::{
    assess, assess_span, repair_gaps, DatasetQuality, GapRepair, PartialSnapshot, RepairReport,
};
pub use seed::Seed;
pub use snapshot::{AppObservation, DailySnapshot};
pub use spill::{ShardPlan, SpillHealth, SpillReader, SpillWriter};
pub use time::Day;
