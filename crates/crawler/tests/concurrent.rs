//! Concurrent crawler instances sharing one marketplace frontend.
//!
//! The paper's architecture runs "several crawler instances" per local
//! host against each store. The simulated server's admission control
//! (token buckets, blacklist) sits behind a `parking_lot::Mutex`, so many
//! client threads can share it; these tests verify that concurrent
//! crawling is correct (every thread harvests exactly the ground truth)
//! and that per-address rate limiting is enforced across threads that
//! share an address.

use appstore_core::{Seed, StoreId};
use appstore_crawler::wire::{decode_response, Request, Response};
use appstore_crawler::{MarketplaceServer, Region, ServerPolicy};
use appstore_synth::{generate, StoreProfile};

fn ground_truth() -> appstore_core::Dataset {
    generate(
        &StoreProfile::anzhi().scaled_down(40),
        StoreId(0),
        Seed::new(41),
    )
    .dataset
}

#[test]
fn parallel_instances_harvest_identical_pages() {
    let truth = ground_truth();
    let server = MarketplaceServer::new(
        &truth,
        ServerPolicy {
            requests_per_second: 100_000.0,
            burst: 100_000,
            ..ServerPolicy::default()
        },
    );
    let day = truth.last().day;
    let apps: Vec<_> = truth.last().observations.iter().map(|o| o.app).collect();
    let workers = 8;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let server = &server;
            let truth = &truth;
            let apps = &apps;
            scope.spawn(move || {
                // Each worker uses its own address (its own proxy).
                for (i, &app) in apps.iter().enumerate() {
                    if i % workers != w {
                        continue;
                    }
                    let (payload, _) = server
                        .handle(
                            w as u32,
                            Region::Europe,
                            i as u64,
                            Request::AppPage { app, day },
                        )
                        .expect("page served");
                    let Response::AppPage { observation } =
                        decode_response(&payload).expect("parse")
                    else {
                        panic!("wrong response kind");
                    };
                    assert_eq!(
                        Some(observation.downloads),
                        truth.last().downloads_of(app),
                        "observation mismatch for {app:?}"
                    );
                }
            });
        }
    });
}

#[test]
fn shared_address_rate_limit_is_enforced_across_threads() {
    let truth = ground_truth();
    let budget = 50u32;
    let server = MarketplaceServer::new(
        &truth,
        ServerPolicy {
            requests_per_second: 0.001, // effectively no refill
            burst: budget,
            violation_budget: u32::MAX,
            ..ServerPolicy::default()
        },
    );
    let day = truth.last().day;
    let successes = std::sync::atomic::AtomicU32::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let server = &server;
            let successes = &successes;
            scope.spawn(move || {
                for i in 0..100u64 {
                    // All threads share address 7 — the bucket is shared.
                    if server
                        .handle(7, Region::Europe, i, Request::Index { day })
                        .is_ok()
                    {
                        successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        successes.load(std::sync::atomic::Ordering::Relaxed),
        budget,
        "exactly the shared bucket budget must pass"
    );
}
