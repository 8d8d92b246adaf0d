//! Synthetic marketplace generator.
//!
//! The paper's raw inputs — daily crawls of four live appstores from
//! 2012 — are gone, so this crate builds their closest synthetic
//! equivalent: a full marketplace whose *users behave the way the paper
//! found real users to behave* (global Zipf preference, fetch-at-most-
//! once, strong category affinity), and whose catalogue, developer,
//! pricing and ad-library structure is calibrated to the paper's reported
//! summary statistics (Table 1 and Figs. 4, 5d, 12, 15, 16).
//!
//! The output is an [`appstore_core::Dataset`]: a daily snapshot series
//! plus raw comment and update event streams, exactly the artifact the
//! analysis crates consume — whether it was assembled here directly
//! ([`generate::generate`]) or harvested through the simulated crawl
//! pipeline in `appstore-crawler`.
//!
//! Module map:
//!
//! * [`profile`] — per-store calibration profiles (Anzhi, AppChina,
//!   1Mobile, SlideMe) with scaled-down sizes and the behavioural knobs;
//! * [`catalog`] — categories, developers (with the "app factory" tail),
//!   apps, prices, ad libraries, creation days, popularity ranks;
//! * [`downloads`] — the day-by-day download process (clustering
//!   behaviour for free apps, selective pure-Zipf for paid apps);
//! * [`events`] — comment emission (including spam accounts) and app
//!   updates;
//! * [`generate`](mod@generate) — orchestration into a validated `Dataset`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod downloads;
pub mod events;
pub mod generate;
pub mod profile;
pub mod stream;

pub use catalog::Catalog;
pub use downloads::{DownloadOutcome, DownloadSink};
pub use events::CommentStream;
pub use generate::{generate, generate_many, GeneratedStore};
pub use profile::{PaidProfile, StoreProfile};
pub use stream::{spill_from_store, spill_generate, StoreSpill};
