//! Heap allocations per request on the serving path, server and client
//! together.
//!
//! A counting `#[global_allocator]` (this test binary only: the library
//! stays `#![forbid(unsafe_code)]`) counts every allocation any thread
//! makes while one replay runs against `with_server`, after a first
//! replay has warmed the server's metric names, replica page tables and
//! connection buffers. The store, the skewed trace and the serving
//! shape (a `Registry` installed, three replicas, a small edge, so
//! misses route through the tier and fill the edge) mirror the
//! `serve-clustering` benchmark at a test's size.
//!
//! A warm round trip allocates the response's header text on the
//! server; the download endpoint also formats its body. The client
//! reads each body without copying it. This test's replay measures 1.16
//! allocations per request (4,900 over 4,240 requests); it measured
//! 2.16 while the client copied every body, and 11.17 before the
//! request path reused its buffers, when a warm 190,800-request
//! `serve-clustering` replay measured 11.2.

use appstore_core::{
    App, AppId, AppObservation, CategoryId, CategorySet, Cents, DailySnapshot, Dataset, Day,
    Developer, DeveloperId, PricingTier, Seed, StoreId, StoreMeta,
};
use appstore_obs::Registry;
use appstore_serve::{replay, with_server, ReplayConfig, ServeConfig, Workload};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Most heap allocations one request may cost, server and client
/// together.
const BUDGET_PER_REQUEST: f64 = 2.0;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; both are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A one-day store of `apps` apps over 8 categories, app id `i` ranked
/// `i`-th by downloads.
fn store(apps: usize) -> Dataset {
    let category = |i: usize| CategoryId((i % 8) as u32);
    Dataset {
        store: StoreMeta {
            id: StoreId(0),
            name: "alloc-budget".into(),
            has_paid_apps: false,
        },
        categories: CategorySet::anonymous(8),
        apps: (0..apps)
            .map(|i| App {
                id: AppId(i as u32),
                category: category(i),
                developer: DeveloperId(0),
                tier: PricingTier::Free,
                price: Cents::ZERO,
                created: Day(0),
                apk_size: 3_500_000,
                libraries: Vec::new(),
            })
            .collect(),
        developers: vec![Developer::numbered(DeveloperId(0))],
        snapshots: vec![DailySnapshot {
            day: Day(0),
            observations: (0..apps)
                .map(|i| AppObservation {
                    app: AppId(i as u32),
                    category: category(i),
                    developer: DeveloperId(0),
                    downloads: (apps - i) as u64,
                    comments: 0,
                    version: 1,
                    price: Cents::ZERO,
                })
                .collect(),
        }],
        comments: Vec::new(),
        updates: Vec::new(),
    }
}

/// `events` app-page fetches by distinct-ish users, skewed toward the
/// popular apps (the cube of a uniform draw picks the rank).
fn skewed_workload(apps: usize, events: usize) -> Workload {
    let mut rng = Seed::new(2013).child("alloc-budget").rng();
    Workload {
        name: "skewed".to_string(),
        events: (0..events)
            .map(|i| {
                let u: f64 = rng.gen();
                (i as u32 % 1_000, (u * u * u * apps as f64) as u32)
            })
            .collect(),
    }
}

#[test]
fn a_warm_round_trip_stays_within_the_allocation_budget() {
    let apps = 600;
    let dataset = store(apps);
    let workload = skewed_workload(apps, 4_000);
    let config = ServeConfig {
        cache_capacity: 16,
        warm_apps: 16,
        replicas: 3,
        ..ServeConfig::replay_default(Seed::new(2013))
    };
    let replay_config = ReplayConfig::new(Seed::new(2013));
    let registry = Registry::new();
    let (stats, allocations) = appstore_obs::with_registry(&registry, || {
        with_server(&dataset, &config, |handle| {
            let warm = replay(handle.addr(), &workload, &replay_config).expect("warm replay");
            assert_eq!(warm.sheds() + warm.server_errors, 0);
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let stats = replay(handle.addr(), &workload, &replay_config).expect("replay");
            (stats, ALLOCATIONS.load(Ordering::SeqCst) - before)
        })
    });
    assert_eq!(stats.sheds() + stats.server_errors, 0);
    assert!(
        stats.app_backing > 1_000,
        "misses must route through the tier: {stats:?}"
    );
    let per_request = allocations as f64 / stats.requests_sent as f64;
    eprintln!(
        "{allocations} allocations over {} requests: {per_request:.2} per request",
        stats.requests_sent
    );
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.2} allocations per request, over the budget of {BUDGET_PER_REQUEST}"
    );
}
