//! Discrete-event simulation of the paper's data-collection architecture
//! (Section 2.2).
//!
//! The paper crawled each store daily through ~100 PlanetLab HTTP proxies
//! to dodge IP blacklisting, with per-store request-rate limits and a
//! China-only policy for the Chinese stores. None of that infrastructure
//! can be re-run, so this crate simulates it end to end:
//!
//! * [`wire`] — the request/response vocabulary: an index endpoint, app
//!   pages and comment pages, serialized to JSON bytes on a simulated
//!   wire (so parsing and corruption are real code paths);
//! * [`server`] — the marketplace frontend: serves ground-truth pages
//!   from a generated store, enforces per-address token-bucket rate
//!   limits, geo-restricts Chinese stores, and blacklists abusive
//!   addresses;
//! * [`proxy`] — the proxy pool (address + region, PlanetLab style);
//! * [`client`] — one crawler instance: proxy rotation, bounded retries
//!   with exponential backoff in virtual time, fault injection (drops and
//!   payload corruption) in the spirit of smoltcp's example harnesses;
//! * [`campaign`] — the daily crawl loop that re-assembles a full
//!   [`appstore_core::Dataset`] from harvested pages and reports crawl
//!   statistics. One day function crawls each day for both entry points:
//!   [`campaign::run_campaign`] collects in memory, and
//!   [`campaign::run_campaign_resumable`] adds per-day checkpointing to a
//!   journal and crash/resume recovery;
//! * [`storage`] — the crawl database: a line-delimited JSON journal,
//!   sealed line by line through [`appstore_core::journal`], with
//!   corruption quarantine ([`storage::read_journal_lossy`]) and
//!   day-complete checkpoint markers.
//!
//! Time is *virtual*: a millisecond counter advanced by request latency
//! and backoff sleeps, which keeps the simulation deterministic and
//! instant while still exercising rate-limit windows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod campaign;
pub mod client;
pub mod proxy;
pub mod server;
pub mod storage;
pub mod wire;

pub use campaign::{
    canonicalize, run_campaign, run_campaign_resumable, CampaignError, CampaignFaultPlan,
    CampaignOutcome, CrawlReport, ResumeOutcome,
};
pub use client::{backoff_delay_ms, CrawlerClient, FaultPlan};
pub use proxy::{Proxy, ProxyHealth, ProxyPool, Region};
pub use server::{MarketplaceServer, ServerPolicy};
pub use storage::{
    read_journal_lossy, write_journal, Checkpoint, JournalHealth, JournalWriter, LineFault,
    QuarantinedLine, Record, StorageError,
};
pub use wire::{Request, Response, WireError};
