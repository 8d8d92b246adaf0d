//! Statistics substrate for the planet-apps study.
//!
//! The paper leans on a toolbox of empirical statistics — CDFs, Pareto
//! shares, power-law fits, correlation coefficients, a mean-relative-error
//! model distance — none of which exist in the approved dependency set, so
//! this crate implements them from scratch:
//!
//! * [`ecdf`] — empirical CDF / CCDF, quantiles, medians;
//! * [`summary`] — moments, confidence intervals;
//! * [`corr`] — Pearson and Spearman correlation;
//! * [`regression`] — ordinary least squares;
//! * [`powerlaw`] — Zipf/power-law fitting on rank data (log-log least
//!   squares and discrete maximum likelihood), generalized harmonic
//!   numbers;
//! * [`histogram`] — linear binning with per-bin value sums;
//! * [`pareto`] — top-share curves, Gini coefficient;
//! * [`distance`] — the paper's Eq. 6 mean relative error between a
//!   model's and the data's popularity curves;
//! * [`bootstrap`] — nonparametric bootstrap confidence intervals;
//! * [`chisq`] — Pearson chi-squared goodness-of-fit with p-values;
//! * [`sketch`] — mergeable streaming sketches (KLL-style quantiles,
//!   SpaceSaving top-k) with rigorous error-bound accessors, for the
//!   out-of-core analysis path.
//!
//! Numerical conventions: all routines take `&[f64]` or integer-count
//! slices, never consume their input, and document their behaviour on
//! empty input (most return `None` rather than NaN).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod chisq;
pub mod corr;
pub mod distance;
pub mod ecdf;
pub mod histogram;
pub mod kstest;
pub mod multifit;
pub mod pareto;
pub mod powerlaw;
pub mod regression;
pub mod sketch;
pub mod summary;

pub use bootstrap::{bootstrap_ci, BootstrapInterval};
pub use chisq::{chi_squared_gof, chi_squared_survival, ChiSquared};
pub use corr::{pearson, spearman};
pub use distance::mean_relative_error;
pub use ecdf::Ecdf;
pub use histogram::{Histogram, HistogramBin};
pub use kstest::{ks_two_sample, KsTest};
pub use multifit::{ols2, powerlaw_cutoff_fit, CutoffFit, Ols2Fit};
pub use pareto::{gini, top_share, top_share_curve};
pub use powerlaw::{
    generalized_harmonic, zipf_fit_loglog, zipf_fit_mle, zipf_fit_trunk, zipf_pmf, PowerLawFit,
};
pub use regression::{ols, OlsFit};
pub use sketch::{QuantileSketch, SpaceSaving};
pub use summary::{mean, mean_ci95, stddev, variance, Summary};
