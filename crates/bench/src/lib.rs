//! Experiment harness for the planet-apps reproduction.
//!
//! Every table and figure in the paper's evaluation maps to one function
//! in [`experiments`], registered once in the [`EXPERIMENTS`] table with
//! its id, title, optional out-of-core fold and required JSON keys. The
//! `repro` binary looks ids up in that table and prints the regenerated
//! rows/series. Its speed is measured from outside, by `perfbench`
//! and `scripts/ab.sh`.
//!
//! The harness works on the four calibrated synthetic stores from
//! `appstore-synth` (optionally scaled down with `--scale` for quick
//! runs). All randomness descends from a single root seed, so every
//! number printed is reproducible.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod schema;
pub mod stores;
pub mod streaming;

pub use experiments::{
    run_experiment, run_experiments_observed, run_experiments_observed_with, Experiment,
    ExperimentResult, EXPERIMENTS, EXPERIMENT_IDS,
};
pub use stores::{StoreBundle, Stores};
pub use streaming::{fold_comments, fold_downloads, StreamingStores};
