//! App-delivery cache simulation (Fig. 19 and the §7 policy ablation).
//!
//! The paper simulates an LRU cache in front of an appstore's APK
//! delivery path and shows that clustering-driven workloads hit
//! significantly less than ZIPF-driven ones — motivating replacement
//! policies that understand the clustering effect. This crate provides:
//!
//! * [`policy`] — replacement policies behind one trait: LRU (the
//!   paper's), FIFO, LFU, segmented LRU, and a category-aware LRU that
//!   protects apps belonging to recently-active categories (the paper's
//!   "new replacement policies" suggestion, built and measured);
//! * [`experiment`] — drives a download trace through a policy, with the
//!   paper's warm start (cache pre-filled with the most popular apps),
//!   and reports hit ratios; includes the full Fig. 19 sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! * [`belady`] — Belady's optimal offline policy (MIN), the upper bound
//!   that quantifies how much hit ratio the clustering effect puts in
//!   play for policy design.

//! * [`prefetch`] — the §7 category-prefetching policy, measured (hit
//!   rate per eligible download and wasted prefetch fraction).

pub mod belady;
pub mod experiment;
mod hash;
pub mod policy;
pub mod prefetch;

pub use belady::{belady_hit_ratio, BeladyRun};
pub use experiment::{hit_ratio, sweep_cache_sizes, sweep_policies_on_trace, CacheRun, Fig19Point};
pub use policy::{CategoryLru, Fifo, Lfu, Lru, PolicyKind, ReplacementPolicy, SegmentedLru};
pub use prefetch::{PrefetchReport, PrefetchSimulator};
