//! The straightforward simulator the kernel in [`super`] must match bit
//! for bit: each user keeps a `Vec` of fetched apps and a `Vec` of their
//! clusters, and every draw scans the fetched list. It consumes the same
//! uniforms in the same order as the kernel and publishes the same
//! `sim.*` counters, so the equivalence tests compare counts, traces and
//! counters directly.

use super::{DownloadTrace, Simulator, MAX_REJECTIONS};
use crate::config::ModelKind;
use appstore_core::{AppId, Day, DownloadEvent, Seed, UserId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Per-user download state: a fetched list with linear membership
/// tests, and the clusters of previous downloads.
#[derive(Debug, Default, Clone)]
struct UserState {
    fetched: Vec<u32>,
    prev_clusters: Vec<u32>,
}

impl UserState {
    fn has(&self, app: u32) -> bool {
        self.fetched.contains(&app)
    }

    fn record(&mut self, app: u32, cluster: u32) {
        self.fetched.push(app);
        self.prev_clusters.push(cluster);
    }
}

fn next_app<R: Rng + ?Sized>(
    sim: &Simulator,
    rng: &mut R,
    user: &UserState,
    draws: &mut u64,
) -> u32 {
    match sim.kind {
        ModelKind::Zipf => {
            *draws += 1;
            sim.global.sample_index(rng) as u32
        }
        ModelKind::ZipfAtMostOnce => draw_global_unfetched(sim, rng, user, draws),
        ModelKind::AppClustering => {
            let params = sim.clustering.as_ref().expect("clustering model");
            let clustering_based = !user.prev_clusters.is_empty() && rng.gen::<f64>() < params.p;
            if clustering_based {
                draw_cluster_unfetched(sim, rng, user, draws)
            } else {
                draw_global_unfetched(sim, rng, user, draws)
            }
        }
    }
}

fn draw_global_unfetched<R: Rng + ?Sized>(
    sim: &Simulator,
    rng: &mut R,
    user: &UserState,
    draws: &mut u64,
) -> u32 {
    for _ in 0..MAX_REJECTIONS {
        *draws += 1;
        let app = sim.global.sample_index(rng) as u32;
        if !user.has(app) {
            return app;
        }
    }
    (0..sim.population.apps as u32)
        .find(|a| !user.has(*a))
        .expect("downloads_per_user <= apps guarantees an unfetched app")
}

fn draw_cluster_unfetched<R: Rng + ?Sized>(
    sim: &Simulator,
    rng: &mut R,
    user: &UserState,
    draws: &mut u64,
) -> u32 {
    let cluster = *user
        .prev_clusters
        .choose(rng)
        .expect("caller checked prev_clusters nonempty") as usize;
    let sampler = &sim.per_cluster[cluster];
    for _ in 0..MAX_REJECTIONS {
        *draws += 1;
        let within = sampler.sample_index(rng);
        let app = sim.app_of(cluster, within) as u32;
        if !user.has(app) {
            return app;
        }
    }
    for within in 0..sampler.len() {
        let app = sim.app_of(cluster, within) as u32;
        if !user.has(app) {
            return app;
        }
    }
    draw_global_unfetched(sim, rng, user, draws)
}

/// The reference `simulate_counts`: users one at a time.
pub(super) fn simulate_counts(sim: &Simulator, seed: Seed) -> Vec<u64> {
    let mut rng = seed.rng();
    let mut counts = vec![0u64; sim.population.apps];
    let mut user = UserState::default();
    let mut draws = 0u64;
    for _ in 0..sim.population.users {
        user.fetched.clear();
        user.prev_clusters.clear();
        for _ in 0..sim.population.downloads_per_user {
            let app = next_app(sim, &mut rng, &user, &mut draws);
            counts[app as usize] += 1;
            user.record(app, sim.cluster_of(app));
        }
    }
    sim.flush_draw_metrics(draws, sim.population.total_downloads());
    counts
}

/// The reference `simulate_trace`: one `UserState` per user, a uniformly
/// random active user per step, day stamps by division.
pub(super) fn simulate_trace(sim: &Simulator, seed: Seed, days: u32) -> DownloadTrace {
    let mut rng = seed.rng();
    let users = sim.population.users;
    let d = sim.population.downloads_per_user;
    let total = sim.population.total_downloads();
    let mut states: Vec<UserState> = vec![UserState::default(); users];
    let mut remaining: Vec<u32> = vec![d; users];
    let mut active: Vec<u32> = (0..users as u32).collect();
    let mut events = Vec::with_capacity(total as usize);
    let mut counts = vec![0u64; sim.population.apps];
    let mut step = 0u64;
    let mut draws = 0u64;
    while !active.is_empty() {
        let slot = rng.gen_range(0..active.len());
        let uid = active[slot];
        let state = &mut states[uid as usize];
        let app = next_app(sim, &mut rng, state, &mut draws);
        state.record(app, sim.cluster_of(app));
        counts[app as usize] += 1;
        let day = if total <= 1 {
            0
        } else {
            ((step * u64::from(days.max(1))) / total) as u32
        };
        events.push(DownloadEvent {
            user: UserId(uid),
            app: AppId(app),
            day: Day(day),
        });
        step += 1;
        remaining[uid as usize] -= 1;
        if remaining[uid as usize] == 0 {
            active.swap_remove(slot);
        }
    }
    sim.flush_draw_metrics(draws, total);
    DownloadTrace { events, counts }
}
