//! Out-of-core experiment path: sharded spill generation + one-pass
//! mergeable folds.
//!
//! The in-memory path materializes every store's full event history and
//! snapshot series before any experiment runs — fine at the default
//! scale, impossible at `--scale 4096`-style big-campaign reproductions
//! on a bounded box. This module is the other half of the PR-8 pipeline:
//!
//! * [`StreamingStores`] generates the calibrated stores
//!   straight into per-shard columnar spill files
//!   ([`appstore_synth::stream`]), never holding an event vector;
//! * [`fold_downloads`] / [`fold_comments`] reduce those files shard by
//!   shard into the exact aggregates the fig3/fig5/fig8 kernels consume
//!   (per-app counters, per-user comment profiles), plus mergeable
//!   sketches ([`appstore_stats::sketch`]) for the approximate extras;
//! * `fig3`, `fig5` and `fig8` here are the `fold`s of the matching
//!   [`EXPERIMENTS`](crate::experiments::EXPERIMENTS) entries: they run
//!   the shared kernels, so the printed tables are **bit-identical** to
//!   the in-memory path — the shards partition the user-id space into
//!   ascending ranges, so folding them in order replays users in exactly
//!   the order `build_user_streams` yields.
//!
//! A damaged spill chunk costs only its own rows: the folds count it as
//! quarantined or as a torn tail and never overcount (the `spill_faults`
//! test suite proves this under the fault injector).

use crate::experiments::behavior::fig5_from_profiles;
use crate::experiments::model_fit::{fig8_from_inputs, FitInput, FIT_STORES};
use crate::experiments::popularity::{fig3_from_inputs, PopularityInput};
use crate::experiments::Output;
use appstore_affinity::{build_user_streams, UserCommentProfile};
use appstore_core::spill::fold_spill_file;
use appstore_core::{
    par_map_indexed, AppId, CategoryId, CommentEvent, DatasetQuality, Day, Seed, UserId,
};
use appstore_stats::{QuantileSketch, SpaceSaving};
use appstore_synth::stream::{KIND_COMMENT, KIND_DOWNLOAD};
use appstore_synth::{spill_generate, StoreProfile, StoreSpill};
use serde_json::json;
use std::io;
use std::path::Path;

/// Tracked keys in the per-store heavy-hitter summary.
const HEAVY_CAPACITY: usize = 64;

/// Capacity parameter of the per-user comment-count quantile sketch.
const QUANTILE_K: usize = 256;

/// The four calibrated stores, generated out-of-core: per-store spill
/// files on disk plus O(apps) metadata in memory.
pub struct StreamingStores {
    /// `(scaled profile, spill)` in the paper's Table 1 store order.
    pub spills: Vec<(StoreProfile, StoreSpill)>,
}

impl StreamingStores {
    /// Generates the four stores straight into spill files under `dir`,
    /// never materializing an event vector — the streaming analogue of
    /// [`crate::Stores::generate_all_threaded`]. Takes the same
    /// `stores`-child seed and derives the same per-store name children,
    /// so the events on disk are exactly the events the in-memory path
    /// would hold.
    pub fn generate_pure(
        scale: u32,
        seed: Seed,
        threads: usize,
        dir: &Path,
        shards: usize,
    ) -> io::Result<StreamingStores> {
        let profiles: Vec<StoreProfile> = StoreProfile::all_stores()
            .into_iter()
            .map(|profile| {
                if scale > 1 {
                    profile.scaled_down(scale)
                } else {
                    profile
                }
            })
            .collect();
        let spills = appstore_obs::span(appstore_obs::names::SPAN_STORES_GENERATE, || {
            par_map_indexed(profiles.clone(), threads, |_, profile| {
                appstore_obs::label_track(&profile.name);
                spill_generate(&profile, seed.child(&profile.name), dir, shards)
            })
        });
        let mut out = Vec::with_capacity(profiles.len());
        for (profile, spill) in profiles.into_iter().zip(spills) {
            out.push((profile, spill?));
        }
        Ok(StreamingStores { spills: out })
    }

    /// Looks a store's spill up by name.
    pub fn by_name(&self, name: &str) -> Option<&(StoreProfile, StoreSpill)> {
        self.spills.iter().find(|(p, _)| p.name == name)
    }

    /// Shards per store in this layout.
    pub fn shards(&self) -> usize {
        self.spills
            .first()
            .map_or(1, |(_, s)| s.shard_downloads.len())
    }

    /// Total bytes spilled across every store.
    pub fn bytes_spilled(&self) -> u64 {
        self.spills.iter().map(|(_, s)| s.bytes_spilled).sum()
    }
}

/// Result of folding one store's download spill files: exact per-app
/// counters (what the kernels need) plus an approximate heavy-hitter
/// view (what the streaming telemetry reports).
pub struct DownloadFold {
    /// Free downloads per app (exact; index = app id).
    pub free_counts: Vec<u64>,
    /// Paid purchases per app (exact).
    pub paid_counts: Vec<u64>,
    /// Free download rows folded.
    pub rows: u64,
    /// Chunks quarantined across every file read.
    pub quarantined: u64,
    /// Files that ended in a torn tail.
    pub torn_tails: u64,
    /// SpaceSaving top-app summary over the free download stream.
    pub heavy: SpaceSaving,
}

/// Folds a store's download spill shards (and its paid file) into exact
/// per-app counters, one shard at a time.
pub fn fold_downloads(spill: &StoreSpill) -> io::Result<DownloadFold> {
    appstore_obs::span(appstore_obs::names::SPAN_SPILL_FOLD, || {
        fold_downloads_inner(spill)
    })
}

fn fold_downloads_inner(spill: &StoreSpill) -> io::Result<DownloadFold> {
    let apps = spill.app_category.len();
    let mut free_counts = vec![0u64; apps];
    let mut heavy = SpaceSaving::new(HEAVY_CAPACITY);
    let mut rows = 0u64;
    let mut quarantined = 0u64;
    let mut torn_tails = 0u64;
    for path in &spill.shard_downloads {
        let health = fold_spill_file(path, |kind, cols| {
            if kind != KIND_DOWNLOAD || cols.len() != 3 {
                return;
            }
            for &app in &cols[1] {
                if let Some(slot) = free_counts.get_mut(app as usize) {
                    *slot += 1;
                }
                heavy.offer(app, 1);
            }
            rows += cols[1].len() as u64;
        })?;
        quarantined += health.quarantined;
        torn_tails += u64::from(health.torn_tail);
    }
    let mut paid_counts = vec![0u64; apps];
    let health = fold_spill_file(&spill.paid_downloads, |kind, cols| {
        if kind != KIND_DOWNLOAD || cols.len() != 3 {
            return;
        }
        for &app in &cols[1] {
            if let Some(slot) = paid_counts.get_mut(app as usize) {
                *slot += 1;
            }
        }
    })?;
    quarantined += health.quarantined;
    torn_tails += u64::from(health.torn_tail);
    Ok(DownloadFold {
        free_counts,
        paid_counts,
        rows,
        quarantined,
        torn_tails,
        heavy,
    })
}

/// Result of folding one store's comment spill shards.
pub struct CommentFold {
    /// Per-user Fig. 5 profiles, in ascending user order (the shard
    /// ranges ascend, and users ascend within each shard).
    pub profiles: Vec<UserCommentProfile>,
    /// Mergeable quantile summary of raw comments per user.
    pub comment_quantiles: QuantileSketch,
    /// Chunks quarantined across every file read.
    pub quarantined: u64,
    /// Files that ended in a torn tail.
    pub torn_tails: u64,
}

/// Folds a store's comment spill shards into per-user profiles, one
/// shard at a time — resident memory is bounded by the largest shard,
/// not the full comment log.
pub fn fold_comments(spill: &StoreSpill) -> io::Result<CommentFold> {
    appstore_obs::span(appstore_obs::names::SPAN_SPILL_FOLD, || {
        fold_comments_inner(spill)
    })
}

fn fold_comments_inner(spill: &StoreSpill) -> io::Result<CommentFold> {
    let mut profiles = Vec::new();
    let mut comment_quantiles = QuantileSketch::new(QUANTILE_K);
    let mut quarantined = 0u64;
    let mut torn_tails = 0u64;
    for path in &spill.shard_comments {
        let mut events: Vec<CommentEvent> = Vec::new();
        let health = fold_spill_file(path, |kind, cols| {
            if kind != KIND_COMMENT || cols.len() != 5 {
                return;
            }
            for ((((&user, &app), &day), &seq), &rating) in cols[0]
                .iter()
                .zip(&cols[1])
                .zip(&cols[2])
                .zip(&cols[3])
                .zip(&cols[4])
            {
                events.push(CommentEvent {
                    user: UserId(user as u32),
                    app: AppId(app as u32),
                    day: Day(day as u32),
                    seq: seq as u32,
                    rating: rating as u8,
                });
            }
        })?;
        quarantined += health.quarantined;
        torn_tails += u64::from(health.torn_tail);
        let streams = build_user_streams(&events, |a| {
            CategoryId(spill.app_category.get(a.index()).copied().unwrap_or(0))
        });
        let mut shard_quantiles = QuantileSketch::new(QUANTILE_K);
        for stream in &streams {
            profiles.push(stream.profile());
            shard_quantiles.offer(stream.raw_comments as u64);
        }
        comment_quantiles.merge(&shard_quantiles);
    }
    Ok(CommentFold {
        profiles,
        comment_quantiles,
        quarantined,
        torn_tails,
    })
}

/// The coverage annotation a complete generated campaign earns — the
/// same string [`gap_repaired`](crate::experiments::gap_repaired)
/// produces for the in-memory dataset, reconstructed without snapshots.
fn coverage_note(spill: &StoreSpill) -> String {
    let days = spill.days as usize + 1;
    DatasetQuality {
        first_day: Day(0),
        last_day: Day(spill.days),
        expected_days: days,
        observed_days: days,
        missing_days: Vec::new(),
        partial_snapshots: Vec::new(),
        apps_per_day_hint: spill.app_category.len(),
    }
    .annotation()
}

/// Streaming run telemetry, inserted under the `"streaming"` key of the
/// experiment's JSON. Stdout is untouched — the printed tables stay
/// byte-identical to the in-memory path.
struct StreamingMeta {
    shards: usize,
    spill_bytes: u64,
    quarantined: u64,
    quantile_error_bound: f64,
    extra: Vec<(&'static str, serde_json::Value)>,
}

fn attach_streaming(output: &mut Output, meta: StreamingMeta) {
    let mut streaming = json!({
        "shards": meta.shards,
        "spill_bytes": meta.spill_bytes,
        "quarantined_chunks": meta.quarantined,
        "quantile_error_bound": meta.quantile_error_bound,
    });
    for (key, value) in meta.extra {
        streaming.set(key, value);
    }
    output.json.set("streaming", streaming);
}

/// Fig. 3 over the spilled download shards.
pub(crate) fn fig3(stores: &StreamingStores) -> io::Result<Output> {
    let mut inputs = Vec::new();
    let mut quarantined = 0u64;
    let mut top_apps = serde_json::Value::Object(Vec::new());
    for (profile, spill) in &stores.spills {
        let fold = fold_downloads(spill)?;
        quarantined += fold.quarantined;
        // Free apps present in the final snapshot, exactly the set the
        // in-memory path ranks; zero-download apps included.
        let mut ranked: Vec<u64> = (0..spill.app_category.len())
            .filter(|&i| !spill.app_paid[i] && spill.app_in_final[i])
            .map(|i| fold.free_counts[i])
            .collect();
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        // Approximate top apps (shard-layout dependent): telemetry only.
        top_apps.set(&profile.name, json!(fold.heavy.top(10)));
        inputs.push(PopularityInput {
            name: profile.name.clone(),
            ranked,
            note: coverage_note(spill),
        });
    }
    let mut output = fig3_from_inputs(&inputs);
    attach_streaming(
        &mut output,
        StreamingMeta {
            shards: stores.shards(),
            spill_bytes: stores.bytes_spilled(),
            quarantined,
            quantile_error_bound: 0.0,
            extra: vec![("top_apps", top_apps)],
        },
    );
    Ok(output)
}

/// Fig. 5 over the spilled Anzhi download and comment shards.
pub(crate) fn fig5(stores: &StreamingStores) -> io::Result<Output> {
    let (_, spill) = stores.by_name("anzhi").expect("anzhi store present");
    let downloads = fold_downloads(spill)?;
    let comments = fold_comments(spill)?;
    let mut per_category = vec![0u64; spill.categories];
    for (app, &category) in spill.app_category.iter().enumerate() {
        if let Some(slot) = per_category.get_mut(category as usize) {
            *slot += downloads.free_counts[app] + downloads.paid_counts[app];
        }
    }
    let note = coverage_note(spill);
    let mut output = fig5_from_profiles(&comments.profiles, &per_category, &note);
    let sketch = &comments.comment_quantiles;
    attach_streaming(
        &mut output,
        StreamingMeta {
            shards: stores.shards(),
            spill_bytes: stores.bytes_spilled(),
            quarantined: downloads.quarantined + comments.quarantined,
            quantile_error_bound: sketch.relative_error_bound(),
            extra: vec![(
                "comments_per_user_p90",
                json!(sketch.quantile(0.9).unwrap_or(0)),
            )],
        },
    );
    Ok(output)
}

/// Fig. 8 over the spilled download shards of the fit stores. `seed` is
/// the batch seed the in-memory `fig8` receives, so the fit chain
/// matches it exactly.
pub(crate) fn fig8(stores: &StreamingStores, seed: Seed) -> io::Result<Output> {
    let mut inputs = Vec::new();
    let mut quarantined = 0u64;
    for name in FIT_STORES {
        let (_, spill) = stores.by_name(name).expect("fit store present");
        let fold = fold_downloads(spill)?;
        quarantined += fold.quarantined;
        // All apps in the final snapshot, free + paid downloads — the
        // streaming twin of `final_downloads_ranked`.
        let mut observed: Vec<u64> = (0..spill.app_category.len())
            .filter(|&i| spill.app_in_final[i])
            .map(|i| fold.free_counts[i] + fold.paid_counts[i])
            .collect();
        observed.sort_unstable_by(|a, b| b.cmp(a));
        inputs.push(FitInput {
            name,
            observed,
            clusters: spill.categories,
            note: coverage_note(spill),
        });
    }
    let mut output = fig8_from_inputs(&inputs, seed);
    attach_streaming(
        &mut output,
        StreamingMeta {
            shards: stores.shards(),
            spill_bytes: stores.bytes_spilled(),
            quarantined,
            quantile_error_bound: 0.0,
            extra: Vec::new(),
        },
    );
    Ok(output)
}
