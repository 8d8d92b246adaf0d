//! Monte-Carlo simulators for the three workload models.
//!
//! [`Simulator`] holds the precomputed samplers; each call to
//! [`Simulator::simulate_counts`] or [`Simulator::simulate_trace`] runs an
//! independent replication from a caller-supplied seed.
//!
//! Semantics follow the paper's Section 5.1 step list exactly:
//!
//! 1. a user's first download is drawn from the global Zipf law `Z_G`;
//! 2. each subsequent download is clustering-based with probability `p`:
//!    a cluster is chosen uniformly among the clusters of the user's
//!    previous downloads and an app is drawn from that cluster's Zipf law
//!    `Z_c`, redrawing while the app was already fetched;
//! 3. otherwise (probability `1 − p`) the app is drawn from `Z_G`, again
//!    redrawing while already fetched;
//! 4. every user stops after `d` downloads.
//!
//! The ZIPF model skips fetch-at-most-once entirely; ZIPF-at-most-once
//! applies it to pure global draws.
//!
//! Rejection loops are bounded: after [`MAX_REJECTIONS`] failed draws the
//! simulator falls back to the first not-yet-fetched app in the relevant
//! ranking (cluster or global), which keeps worst-case time finite even
//! for pathological parameters (e.g. `d` close to the cluster size). The
//! fallback is exercised in tests.
//!
//! One set of draw loops serves both modes; they ask a `History` what
//! the current user has fetched. `simulate_counts` runs users one at a
//! time and answers from a per-app stamp array plus *head floors*, the
//! longest run of top ranks (global, and within each cluster) the user
//! has fetched: an inverse-CDF draw whose uniform lands inside that run
//! is rejected by one compare, before any lookup. `simulate_trace`
//! interleaves users, so each user's count, downloads and their
//! clusters live in one flat array with `2d + 1` slots per user. Every
//! draw consumes exactly the uniforms the plain rejection loop would, so
//! both modes return the same bits as the test-only reference in
//! `simulate/oracle.rs`.

use crate::config::{ClusterLayout, ClusteringParams, ModelKind, PopulationParams};
use crate::zipf::{SampleMethod, ZipfSampler};
use appstore_core::{AppId, Day, DownloadEvent, Seed, UserId};
use rand::seq::SliceRandom;
use rand::Rng;

#[cfg(test)]
mod oracle;

/// Bound on consecutive rejected draws before falling back to a
/// deterministic scan for an unfetched app.
pub const MAX_REJECTIONS: usize = 128;

/// A complete simulated download history.
#[derive(Debug, Clone, PartialEq)]
pub struct DownloadTrace {
    /// Events in global arrival order (users interleave as in a live
    /// store: each step advances one uniformly-chosen active user).
    pub events: Vec<DownloadEvent>,
    /// Final per-app download counts, indexed by global app index.
    pub counts: Vec<u64>,
}

/// What the draw loops ask about the current user's downloads so far.
trait History {
    /// True if the user already fetched `app`.
    fn has(&self, app: u32) -> bool;

    /// The clusters of the user's previous downloads, one entry per
    /// download (step 2.1 picks a random previous download's cluster, so
    /// clusters weigh by how many of the user's downloads they hold).
    fn clusters(&self) -> &[u32];

    /// A global rank floor: every app index below it is fetched.
    fn head(&self) -> usize;

    /// The same floor over `cluster`'s within-cluster indexes.
    fn cluster_head(&self, cluster: usize) -> usize;
}

/// The history of users simulated one at a time.
///
/// `stamp[app]` holds the stamp of the last user that fetched `app`, so
/// membership is one load and a new user starts by taking a new stamp.
/// `head` and `cluster_head` are exact floors: the longest prefix of
/// global ranks, and of each cluster's ranks, that the current user has
/// fetched.
struct Stamped {
    stamp: Vec<u32>,
    /// The current user's stamp; 0 marks an app no user has fetched.
    current: u32,
    clusters: Vec<u32>,
    head: usize,
    /// One floor per cluster (clustering model only, else empty).
    cluster_head: Vec<u32>,
}

impl Stamped {
    fn new(apps: usize, clusters: usize) -> Stamped {
        Stamped {
            stamp: vec![0; apps],
            current: 0,
            clusters: Vec::new(),
            head: 0,
            cluster_head: vec![0; clusters],
        }
    }

    /// Starts the next user with an empty history.
    fn next_user(&mut self) {
        if !self.cluster_head.is_empty() {
            for &c in &self.clusters {
                self.cluster_head[c as usize] = 0;
            }
        }
        self.clusters.clear();
        self.head = 0;
        if self.current == u32::MAX {
            // A wrapped stamp would alias a user 2^32 users back: start
            // the stamps over instead.
            self.stamp.fill(0);
            self.current = 0;
        }
        self.current += 1;
    }

    /// Records a download and moves the floors past every fetched rank.
    fn record(&mut self, sim: &Simulator, app: u32) {
        let cluster = sim.cluster_of(app);
        self.stamp[app as usize] = self.current;
        self.clusters.push(cluster);
        while self.head < self.stamp.len() && self.stamp[self.head] == self.current {
            self.head += 1;
        }
        if let Some(sampler) = sim.per_cluster.get(cluster as usize) {
            let c = cluster as usize;
            let mut k = self.cluster_head[c] as usize;
            while k < sampler.len() && self.stamp[sim.app_of(c, k)] == self.current {
                k += 1;
            }
            self.cluster_head[c] = k as u32;
        }
    }
}

impl History for Stamped {
    #[inline]
    fn has(&self, app: u32) -> bool {
        self.stamp[app as usize] == self.current
    }

    fn clusters(&self) -> &[u32] {
        &self.clusters
    }

    fn head(&self) -> usize {
        self.head
    }

    fn cluster_head(&self, cluster: usize) -> usize {
        self.cluster_head[cluster] as usize
    }
}

/// One interleaved user's history: its filled slots of the trace's flat
/// per-user array. At most `d` entries, so membership is a short scan,
/// and the floors stay at 0.
struct Slots<'a> {
    apps: &'a [u32],
    clusters: &'a [u32],
}

impl History for Slots<'_> {
    #[inline]
    fn has(&self, app: u32) -> bool {
        self.apps.contains(&app)
    }

    fn clusters(&self) -> &[u32] {
        self.clusters
    }

    fn head(&self) -> usize {
        0
    }

    fn cluster_head(&self, _cluster: usize) -> usize {
        0
    }
}

/// A reusable simulator for one model kind and parameter set.
///
/// ```
/// use appstore_core::Seed;
/// use appstore_models::{PopulationParams, Simulator};
///
/// let population = PopulationParams {
///     apps: 100,
///     users: 500,
///     downloads_per_user: 4,
///     zipf_exponent: 1.3,
/// };
/// let sim = Simulator::zipf_at_most_once(population);
/// let counts = sim.simulate_counts(Seed::new(1));
/// assert_eq!(counts.iter().sum::<u64>(), 2_000);     // U x d downloads
/// assert!(counts.iter().all(|&c| c <= 500));          // capped at U
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    kind: ModelKind,
    population: PopulationParams,
    clustering: Option<ClusteringParams>,
    global: ZipfSampler,
    /// One sampler per cluster (clustering model only).
    per_cluster: Vec<ZipfSampler>,
    /// Precomputed app → cluster map (clustering model only, else
    /// empty). `cluster_of` runs once per download, so the per-call
    /// `layout.place` arithmetic (a divide/modulo for the blocked
    /// layout) is paid once per app at build instead.
    cluster_map: Vec<u32>,
    /// Precomputed first global app index of each cluster under the
    /// blocked layout (empty otherwise); `app_of` becomes one add.
    block_start: Vec<u32>,
}

impl Simulator {
    /// Builds a ZIPF simulator.
    ///
    /// # Panics
    /// Panics if the parameters fail validation.
    pub fn zipf(population: PopulationParams) -> Simulator {
        population
            .validate()
            .expect("invalid population parameters");
        Simulator {
            kind: ModelKind::Zipf,
            global: ZipfSampler::new(population.apps, population.zipf_exponent),
            population,
            clustering: None,
            per_cluster: Vec::new(),
            cluster_map: Vec::new(),
            block_start: Vec::new(),
        }
    }

    /// Builds a ZIPF-at-most-once simulator.
    ///
    /// # Panics
    /// Panics if the parameters fail validation.
    pub fn zipf_at_most_once(population: PopulationParams) -> Simulator {
        population
            .validate_at_most_once()
            .expect("invalid population parameters");
        Simulator {
            kind: ModelKind::ZipfAtMostOnce,
            global: ZipfSampler::new(population.apps, population.zipf_exponent),
            population,
            clustering: None,
            per_cluster: Vec::new(),
            cluster_map: Vec::new(),
            block_start: Vec::new(),
        }
    }

    /// Builds an APP-CLUSTERING simulator.
    ///
    /// # Panics
    /// Panics if the parameters fail validation.
    pub fn app_clustering(params: ClusteringParams) -> Simulator {
        params.validate().expect("invalid clustering parameters");
        let pop = params.population;
        let per_cluster = (0..params.clusters)
            .map(|c| {
                let size = params.layout.cluster_size(c, pop.apps, params.clusters);
                ZipfSampler::new(size.max(1), params.cluster_exponent)
            })
            .collect();
        let cluster_map: Vec<u32> = (0..pop.apps)
            .map(|app| params.layout.place(app, pop.apps, params.clusters).0 as u32)
            .collect();
        let block_start = match params.layout {
            ClusterLayout::Blocked => {
                let mut starts = Vec::with_capacity(params.clusters);
                let mut next = 0u32;
                for c in 0..params.clusters {
                    starts.push(next);
                    next += params.layout.cluster_size(c, pop.apps, params.clusters) as u32;
                }
                starts
            }
            ClusterLayout::Interleaved => Vec::new(),
        };
        Simulator {
            kind: ModelKind::AppClustering,
            global: ZipfSampler::new(pop.apps, pop.zipf_exponent),
            population: pop,
            clustering: Some(params),
            per_cluster,
            cluster_map,
            block_start,
        }
    }

    /// Builds whichever model `kind` names, using `params` (whose
    /// population field is used alone for the non-clustering models).
    pub fn for_kind(kind: ModelKind, params: ClusteringParams) -> Simulator {
        match kind {
            ModelKind::Zipf => Simulator::zipf(params.population),
            ModelKind::ZipfAtMostOnce => Simulator::zipf_at_most_once(params.population),
            ModelKind::AppClustering => Simulator::app_clustering(params),
        }
    }

    /// The model kind this simulator runs.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The population shape.
    pub fn population(&self) -> &PopulationParams {
        &self.population
    }

    /// Maps a cluster and 0-based within-cluster index back to the global
    /// 0-based app index.
    #[inline]
    fn app_of(&self, cluster: usize, within: usize) -> usize {
        if self.block_start.is_empty() {
            within * self.per_cluster.len() + cluster
        } else {
            self.block_start[cluster] as usize + within
        }
    }

    /// Draws the next app for a user with history `user` according to the
    /// model rules. `draws` tallies sampler invocations (including
    /// rejected redraws) for the observability counters.
    #[inline]
    fn next_app<R: Rng + ?Sized>(&self, rng: &mut R, user: &impl History, draws: &mut u64) -> u32 {
        match self.kind {
            ModelKind::Zipf => {
                *draws += 1;
                self.global.sample_index(rng) as u32
            }
            ModelKind::ZipfAtMostOnce => self.draw_global_unfetched(rng, user, draws),
            ModelKind::AppClustering => {
                let params = self.clustering.as_ref().expect("clustering model");
                let clustering_based = !user.clusters().is_empty() && rng.gen::<f64>() < params.p;
                if clustering_based {
                    self.draw_cluster_unfetched(rng, user, draws)
                } else {
                    self.draw_global_unfetched(rng, user, draws)
                }
            }
        }
    }

    /// Step 2.2: redraw from `Z_G` until unfetched (bounded), then scan.
    /// A draw below the user's head floor is a rejection decided without
    /// a lookup; it still consumes its uniform and counts as a draw.
    fn draw_global_unfetched<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        user: &impl History,
        draws: &mut u64,
    ) -> u32 {
        let head = user.head();
        for _ in 0..MAX_REJECTIONS {
            *draws += 1;
            if let Some(index) = self.global.sample_index_from(rng, head) {
                let app = index as u32;
                if !user.has(app) {
                    return app;
                }
            }
        }
        // Deterministic fallback: most popular app not yet fetched. Every
        // app below the floor is fetched, so the scan starts there.
        (head as u32..self.population.apps as u32)
            .find(|a| !user.has(*a))
            .expect("downloads_per_user <= apps guarantees an unfetched app")
    }

    /// Step 2.1: choose the cluster of a random previous download, then
    /// redraw from `Z_c` until unfetched (bounded). If the chosen cluster
    /// is exhausted for this user, fall back to a global draw, matching
    /// the paper's intent that users never stall.
    fn draw_cluster_unfetched<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        user: &impl History,
        draws: &mut u64,
    ) -> u32 {
        let cluster = *user
            .clusters()
            .choose(rng)
            .expect("caller checked the clusters are nonempty") as usize;
        let sampler = &self.per_cluster[cluster];
        let head = user.cluster_head(cluster);
        for _ in 0..MAX_REJECTIONS {
            *draws += 1;
            if let Some(within) = sampler.sample_index_from(rng, head) {
                let app = self.app_of(cluster, within) as u32;
                if !user.has(app) {
                    return app;
                }
            }
        }
        // Scan the cluster head-first for an unfetched member.
        if let Some(app) = (head..sampler.len())
            .map(|within| self.app_of(cluster, within) as u32)
            .find(|a| !user.has(*a))
        {
            return app;
        }
        // Cluster exhausted for this user: fall back to the global law.
        self.draw_global_unfetched(rng, user, draws)
    }

    /// Publishes a replication's draw tally under the sampling method
    /// that produced it (alias vs inverse-CDF), plus the download total.
    /// Draw counts are a pure function of the seed, so they are
    /// deterministic metrics.
    fn flush_draw_metrics(&self, draws: u64, downloads: u64) {
        let name = match self.global.method() {
            SampleMethod::Alias => appstore_obs::names::SIM_DRAWS_ALIAS,
            SampleMethod::InverseCdf => appstore_obs::names::SIM_DRAWS_INVERSE_CDF,
        };
        appstore_obs::counter(name, draws);
        appstore_obs::counter(appstore_obs::names::SIM_DOWNLOADS, downloads);
    }

    /// The cluster of a global 0-based app index (0 for non-clustering
    /// models, which behave as a single cluster).
    #[inline]
    fn cluster_of(&self, app: u32) -> u32 {
        if self.cluster_map.is_empty() {
            0
        } else {
            self.cluster_map[app as usize]
        }
    }

    /// Runs one replication and returns per-app download counts
    /// (index = global app index; rank `i` = index + 1).
    ///
    /// Users are simulated one at a time — counts do not depend on
    /// arrival interleaving — so memory is O(A + C + d).
    pub fn simulate_counts(&self, seed: Seed) -> Vec<u64> {
        let mut rng = seed.rng();
        let mut counts = vec![0u64; self.population.apps];
        let mut user = Stamped::new(self.population.apps, self.per_cluster.len());
        let mut draws = 0u64;
        for _ in 0..self.population.users {
            user.next_user();
            for _ in 0..self.population.downloads_per_user {
                let app = self.next_app(&mut rng, &user, &mut draws);
                counts[app as usize] += 1;
                user.record(self, app);
            }
        }
        self.flush_draw_metrics(draws, self.population.total_downloads());
        counts
    }

    /// Runs one replication producing the full interleaved event trace.
    ///
    /// Arrival order: at every step a uniformly-random user that still has
    /// download budget advances by one download — the natural "many
    /// concurrent users" interleaving a store's frontend would see, which
    /// is what the LRU cache experiment (Fig. 19) consumes. Events carry a
    /// day stamp spreading arrivals uniformly over `days`: step `s` of
    /// `D` falls on day `⌊s·days/D⌋`.
    pub fn simulate_trace(&self, seed: Seed, days: u32) -> DownloadTrace {
        let mut rng = seed.rng();
        let users = self.population.users;
        let d = self.population.downloads_per_user as usize;
        let total = self.population.total_downloads();
        // User u owns one record of `2d + 1` entries in `history`: its
        // download count, its downloads in the next d slots and their
        // clusters in the last d.
        let stride = 2 * d + 1;
        let mut history = vec![0u32; users * stride];
        // Active user list with swap-remove; holds user indexes.
        let mut active: Vec<u32> = if d == 0 {
            Vec::new()
        } else {
            (0..users as u32).collect()
        };
        let mut events = Vec::with_capacity(total as usize);
        let mut counts = vec![0u64; self.population.apps];
        let mut draws = 0u64;
        // The day advances by comparison: `elapsed` is step·days, and the
        // day moves on while it reaches `next_day` = (day + 1)·total.
        let days = u64::from(days.max(1));
        let mut elapsed = 0u64;
        let mut next_day = total;
        let mut day = 0u32;
        while !active.is_empty() {
            let slot = rng.gen_range(0..active.len());
            let uid = active[slot] as usize;
            let (fetched, slots) = history[stride * uid..stride * (uid + 1)]
                .split_first_mut()
                .expect("a record holds its count");
            let (apps, clusters) = slots.split_at_mut(d);
            let n = *fetched as usize;
            let app = self.next_app(
                &mut rng,
                &Slots {
                    apps: &apps[..n],
                    clusters: &clusters[..n],
                },
                &mut draws,
            );
            apps[n] = app;
            clusters[n] = self.cluster_of(app);
            *fetched += 1;
            counts[app as usize] += 1;
            while elapsed >= next_day {
                day += 1;
                next_day += total;
            }
            elapsed += days;
            events.push(DownloadEvent {
                user: UserId(uid as u32),
                app: AppId(app),
                day: Day(day),
            });
            if *fetched as usize == d {
                active.swap_remove(slot);
            }
        }
        self.flush_draw_metrics(draws, total);
        DownloadTrace { events, counts }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use appstore_core::Seed;
    use proptest::prelude::*;

    fn pop(apps: usize, users: usize, d: u32, z: f64) -> PopulationParams {
        PopulationParams {
            apps,
            users,
            downloads_per_user: d,
            zipf_exponent: z,
        }
    }

    fn clustering(apps: usize, users: usize, d: u32) -> ClusteringParams {
        ClusteringParams {
            population: pop(apps, users, d, 1.5),
            clusters: 10,
            p: 0.9,
            cluster_exponent: 1.3,
            layout: ClusterLayout::Interleaved,
        }
    }

    #[test]
    fn counts_sum_to_total_downloads() {
        for sim in [
            Simulator::zipf(pop(100, 50, 4, 1.2)),
            Simulator::zipf_at_most_once(pop(100, 50, 4, 1.2)),
            Simulator::app_clustering(clustering(100, 50, 4)),
        ] {
            let counts = sim.simulate_counts(Seed::new(1));
            assert_eq!(counts.iter().sum::<u64>(), 200, "{}", sim.kind());
        }
    }

    #[test]
    fn amo_respects_fetch_at_most_once() {
        // With d == apps every user must fetch every app exactly once.
        let sim = Simulator::zipf_at_most_once(pop(16, 10, 16, 1.5));
        let counts = sim.simulate_counts(Seed::new(3));
        assert_eq!(counts, vec![10u64; 16]);
    }

    #[test]
    fn clustering_respects_fetch_at_most_once() {
        let sim = Simulator::app_clustering(ClusteringParams {
            population: pop(20, 8, 20, 1.5),
            clusters: 4,
            p: 0.95,
            cluster_exponent: 1.2,
            layout: ClusterLayout::Interleaved,
        });
        // d == apps forces exhaustion of clusters and the global fallback.
        let counts = sim.simulate_counts(Seed::new(9));
        assert_eq!(counts, vec![8u64; 20]);
    }

    #[test]
    fn pure_zipf_can_repeat_downloads() {
        // One user, many downloads, tiny catalogue: repeats are certain.
        let sim = Simulator::zipf(pop(2, 1, 2, 1.0));
        let total: u64 = sim.simulate_counts(Seed::new(4)).iter().sum();
        assert_eq!(total, 2);
        // Under the AMO ceiling the max per-app count is U; pure ZIPF can
        // exceed the per-user ceiling of 1.
        let sim = Simulator::zipf(pop(2, 1, 2, 8.0));
        let counts = sim.simulate_counts(Seed::new(5));
        assert_eq!(counts[0], 2, "steep Zipf must hit rank 1 twice: {counts:?}");
    }

    #[test]
    fn amo_caps_per_app_at_user_count() {
        let sim = Simulator::zipf_at_most_once(pop(50, 30, 10, 3.0));
        let counts = sim.simulate_counts(Seed::new(6));
        assert!(counts.iter().all(|&c| c <= 30));
        // The steep exponent drives the head to the ceiling.
        assert_eq!(counts[0], 30);
    }

    #[test]
    fn trace_events_match_counts() {
        let sim = Simulator::app_clustering(clustering(60, 40, 5));
        let trace = sim.simulate_trace(Seed::new(7), 10);
        assert_eq!(trace.events.len(), 200);
        let mut recount = vec![0u64; 60];
        for e in &trace.events {
            recount[e.app.index()] += 1;
        }
        assert_eq!(recount, trace.counts);
        // Each user appears exactly d times.
        let mut per_user = [0u32; 40];
        for e in &trace.events {
            per_user[e.user.index()] += 1;
        }
        assert!(per_user.iter().all(|&c| c == 5));
        // Days are nondecreasing and within range.
        assert!(trace.events.windows(2).all(|w| w[0].day <= w[1].day));
        assert!(trace.events.iter().all(|e| e.day.0 < 10));
    }

    #[test]
    fn trace_at_most_once_per_user_app_pair() {
        let sim = Simulator::app_clustering(clustering(60, 40, 5));
        let trace = sim.simulate_trace(Seed::new(8), 5);
        let mut seen = std::collections::HashSet::new();
        for e in &trace.events {
            assert!(seen.insert((e.user, e.app)), "repeat fetch {e:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let sim = Simulator::app_clustering(clustering(80, 30, 4));
        assert_eq!(
            sim.simulate_counts(Seed::new(11)),
            sim.simulate_counts(Seed::new(11))
        );
        assert_ne!(
            sim.simulate_counts(Seed::new(11)),
            sim.simulate_counts(Seed::new(12))
        );
    }

    #[test]
    fn clustering_thins_the_tail_relative_to_amo() {
        // The clustering effect concentrates downloads on cluster heads,
        // so the number of apps with zero downloads must be larger than
        // under ZIPF-at-most-once with the same population.
        let population = pop(2000, 500, 10, 1.0);
        let amo = Simulator::zipf_at_most_once(population);
        let cl = Simulator::app_clustering(ClusteringParams {
            population,
            clusters: 20,
            p: 0.95,
            cluster_exponent: 2.0,
            layout: ClusterLayout::Interleaved,
        });
        let zero_amo = amo
            .simulate_counts(Seed::new(21))
            .iter()
            .filter(|&&c| c == 0)
            .count();
        let zero_cl = cl
            .simulate_counts(Seed::new(21))
            .iter()
            .filter(|&&c| c == 0)
            .count();
        assert!(
            zero_cl > zero_amo,
            "clustering tail ({zero_cl}) should be thinner than AMO tail ({zero_amo})"
        );
    }

    #[test]
    fn for_kind_dispatches() {
        let params = clustering(50, 10, 3);
        for kind in ModelKind::ALL {
            let sim = Simulator::for_kind(kind, params);
            assert_eq!(sim.kind(), kind);
            let counts = sim.simulate_counts(Seed::new(2));
            assert_eq!(counts.iter().sum::<u64>(), 30);
        }
    }

    #[test]
    fn app_of_inverts_place_for_both_layouts() {
        for layout in [ClusterLayout::Interleaved, ClusterLayout::Blocked] {
            let params = ClusteringParams {
                population: pop(23, 5, 2, 1.0),
                clusters: 5,
                p: 0.5,
                cluster_exponent: 1.0,
                layout,
            };
            let sim = Simulator::app_clustering(params);
            for i in 0..23usize {
                let (c, j) = layout.place(i, 23, 5);
                assert_eq!(sim.app_of(c, j), i, "layout {layout:?} app {i}");
            }
        }
    }

    /// The `sim.*` counters one run publishes: inverse-CDF draws, alias
    /// draws and downloads.
    fn with_sim_counters<T>(f: impl FnOnce() -> T) -> (T, [u64; 3]) {
        let registry = appstore_obs::Registry::new();
        let value = appstore_obs::with_registry(&registry, f);
        let counters = [
            appstore_obs::names::SIM_DRAWS_INVERSE_CDF,
            appstore_obs::names::SIM_DRAWS_ALIAS,
            appstore_obs::names::SIM_DOWNLOADS,
        ]
        .map(|name| registry.counter_value(name));
        (value, counters)
    }

    /// The same simulator drawing from alias tables over the same
    /// weights.
    fn with_alias(mut sim: Simulator) -> Simulator {
        fn alias(s: &ZipfSampler) -> ZipfSampler {
            ZipfSampler::with_method(s.len(), s.exponent(), SampleMethod::Alias)
        }
        sim.global = alias(&sim.global);
        sim.per_cluster = sim.per_cluster.iter().map(alias).collect();
        sim
    }

    /// Asserts that the kernel reproduces the reference simulator: the
    /// same counts, the same events with their day stamps, and the same
    /// `sim.*` counters. Returns the counters of the counts run.
    fn assert_matches_oracle(sim: &Simulator, seed: u64, days: u32) -> [u64; 3] {
        let seed = Seed::new(seed);
        let counts = with_sim_counters(|| sim.simulate_counts(seed));
        let expected = with_sim_counters(|| oracle::simulate_counts(sim, seed));
        assert_eq!(counts, expected, "counts, {sim:?}");
        let trace = with_sim_counters(|| sim.simulate_trace(seed, days));
        let expected = with_sim_counters(|| oracle::simulate_trace(sim, seed, days));
        assert_eq!(trace, expected, "trace, days {days}, {sim:?}");
        counts.1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn kernel_matches_the_reference_simulator(
            apps in 1usize..120,
            users in 1usize..40,
            d_pick in 0usize..1_000,
            c_pick in 0usize..1_000,
            kind_pick in 0usize..3,
            p_pick in 0u8..4,
            p_raw in 0.0f64..1.0,
            z_r in 0.0f64..4.0,
            z_c in 0.0f64..4.0,
            blocked in any::<bool>(),
            alias in any::<bool>(),
            seed in any::<u64>(),
            days in 0u32..40,
        ) {
            let kind = ModelKind::ALL[kind_pick];
            // Fetch-at-most-once caps d at the app count; pure ZIPF may
            // go past it and repeat apps.
            let max_d = if kind == ModelKind::Zipf { 2 * apps } else { apps };
            let params = ClusteringParams {
                population: pop(apps, users, 1 + (d_pick % max_d) as u32, z_r),
                clusters: 1 + c_pick % apps,
                p: match p_pick {
                    0 => 0.0,
                    1 => 1.0,
                    _ => p_raw,
                },
                cluster_exponent: z_c,
                layout: if blocked { ClusterLayout::Blocked } else { ClusterLayout::Interleaved },
            };
            let mut sim = Simulator::for_kind(kind, params);
            if alias {
                sim = with_alias(sim);
            }
            assert_matches_oracle(&sim, seed, days);
        }
    }

    #[test]
    fn kernel_matches_the_reference_when_every_fallback_fires() {
        for layout in [ClusterLayout::Interleaved, ClusterLayout::Blocked] {
            for alias in [false, true] {
                // d == apps with a steep law: the last downloads of every
                // user exhaust MAX_REJECTIONS and take the global scan.
                let amo = Simulator::zipf_at_most_once(pop(24, 6, 24, 8.0));
                // Clusters of 3 apps against d = 12 and p = 1: the chosen
                // cluster runs out, so the head-first cluster scan and the
                // global draw after it both fire.
                let small_clusters = Simulator::app_clustering(ClusteringParams {
                    population: pop(30, 6, 12, 6.0),
                    clusters: 10,
                    p: 1.0,
                    cluster_exponent: 8.0,
                    layout,
                });
                let full = Simulator::app_clustering(ClusteringParams {
                    population: pop(24, 5, 24, 8.0),
                    clusters: 5,
                    p: 0.9,
                    cluster_exponent: 8.0,
                    layout,
                });
                for sim in [amo, small_clusters, full] {
                    let users = sim.population().users as u64;
                    let sim = if alias { with_alias(sim) } else { sim };
                    let [inverse, via_alias, _] = assert_matches_oracle(&sim, 41, 7);
                    assert!(
                        inverse + via_alias >= users * MAX_REJECTIONS as u64,
                        "the fallbacks never fired: {sim:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_at_fit_scale() {
        let params = ClusteringParams {
            population: pop(2_000, 300, 47, 1.6),
            clusters: 20,
            p: 0.9,
            cluster_exponent: 1.5,
            layout: ClusterLayout::Interleaved,
        };
        for kind in [ModelKind::ZipfAtMostOnce, ModelKind::AppClustering] {
            let sim = Simulator::for_kind(kind, params);
            let seed = Seed::new(2013);
            let counts = with_sim_counters(|| sim.simulate_counts(seed));
            assert_eq!(
                counts,
                with_sim_counters(|| oracle::simulate_counts(&sim, seed)),
                "{kind}"
            );
        }
    }

    #[test]
    fn stamps_start_over_instead_of_wrapping() {
        let sim = Simulator::zipf_at_most_once(pop(8, 1, 3, 1.0));
        let mut user = Stamped::new(8, 0);
        // App 2 was fetched by the user with stamp 1, 2^32 − 1 users ago.
        user.stamp[2] = 1;
        user.current = u32::MAX - 1;
        user.next_user();
        user.record(&sim, 5);
        assert!(user.has(5) && !user.has(2));
        user.next_user();
        assert_eq!(user.current, 1);
        assert!(
            (0..8).all(|app| !user.has(app)),
            "a new user after the wrap must see an empty history"
        );
    }

    #[test]
    fn head_floors_track_the_fetched_prefix() {
        let sim = Simulator::app_clustering(ClusteringParams {
            population: pop(12, 1, 6, 1.0),
            clusters: 3,
            p: 0.5,
            cluster_exponent: 1.0,
            layout: ClusterLayout::Interleaved,
        });
        let mut user = Stamped::new(12, 3);
        user.next_user();
        // Cluster 0 holds apps 0, 3, 6, 9; cluster 1 holds 1, 4, 7, 10.
        for app in [1, 3, 0] {
            user.record(&sim, app);
        }
        assert_eq!(user.head(), 2);
        assert_eq!(user.cluster_head(0), 2);
        assert_eq!(user.cluster_head(1), 1);
        assert_eq!(user.cluster_head(2), 0);
        user.next_user();
        assert_eq!(
            (user.head(), user.cluster_head(0), user.cluster_head(1)),
            (0, 0, 0)
        );
    }

    #[test]
    fn day_stamps_match_the_division() {
        for (users, d, days) in [
            (1, 1, 30),
            (2, 1, 30),
            (7, 3, 1),
            (5, 4, 0),
            (50, 3, 30),
            (3, 2, 1_000),
            (4, 0, 30),
        ] {
            let sim = Simulator::zipf(pop(10, users, d, 1.0));
            let trace = sim.simulate_trace(Seed::new(3), days);
            let total = trace.events.len() as u64;
            assert_eq!(total, sim.population().total_downloads());
            for (step, event) in trace.events.iter().enumerate() {
                let expected = if total <= 1 {
                    0
                } else {
                    step as u64 * u64::from(days.max(1)) / total
                };
                assert_eq!(
                    u64::from(event.day.0),
                    expected,
                    "users {users} d {d} days {days}"
                );
            }
        }
    }
}
