//! Seeded, deterministic fault injection.
//!
//! Robustness claims are only testable if failure is reproducible. This
//! module provides a [`FaultInjector`] that instrumented code consults at
//! named *sites* ("does a fault fire here?"); which faults fire is a pure
//! function of a [`FaultPlan`] — a seed plus a list of rules — so every
//! chaos run is replayable bit-for-bit and a fault schedule can be
//! committed next to the test that relies on it.
//!
//! A site is identified by a static name (for example
//! [`SITE_PAR_TASK`]) plus the work-item `index` at that site and an
//! `attempt` number (0 for the first try, 1 for a retry). Rules trigger
//! either at one exact index ([`FaultTrigger::AtIndex`], first attempt
//! only, so retry-once semantics clear it) or with a probability drawn
//! from an RNG derived from `(plan seed, site, index, attempt)` — never
//! from global state — which keeps outcomes identical across thread
//! counts and runs.
//!
//! The injector is installed thread-locally with [`with_injector`], the
//! same scoping scheme `appstore_obs` uses for its registry; code under
//! test calls the free [`roll`], which is a no-op returning `None` when
//! no injector is installed. Fired faults are logged as [`FaultEvent`]s
//! retrievable via [`FaultInjector::events`] for assertions and audit
//! artifacts.

use crate::seed::Seed;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Injection site: each task attempt inside `par_map_indexed`.
pub const SITE_PAR_TASK: &str = "core.par.task";

/// What kind of failure a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The operation fails with an I/O-style error.
    IoError,
    /// Only a prefix of the write reaches the medium (torn write).
    PartialWrite,
    /// The operation takes `virtual_ms` of simulated time.
    Delay {
        /// Simulated latency in virtual milliseconds.
        virtual_ms: u64,
    },
    /// The worker executing the task panics.
    WorkerPanic,
    /// The written bytes are silently corrupted.
    Corrupt,
    /// The replica behind this site crashes and stays down until an
    /// explicit rejoin (serving tier only).
    ReplicaCrash,
    /// The replica behind this site is unreachable for `virtual_ms` of
    /// simulated time, then heals on its own (serving tier only).
    ReplicaPartition {
        /// How long the partition lasts in virtual milliseconds.
        virtual_ms: u64,
    },
    /// The replica behind this site answers, but `virtual_ms` late —
    /// the hedging trigger (serving tier only).
    ReplicaSlow {
        /// Extra latency in virtual milliseconds.
        virtual_ms: u64,
    },
    /// The replica behind this site silently diverges from its peers
    /// (a `Corrupt`-style ranking drift), repaired only by an
    /// anti-entropy reconciliation pass (serving tier only).
    ReplicaDrift,
}

impl FaultKind {
    /// Short stable label, used in logs and JSON artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::IoError => "io-error",
            FaultKind::PartialWrite => "partial-write",
            FaultKind::Delay { .. } => "delay",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::Corrupt => "corrupt",
            FaultKind::ReplicaCrash => "replica-crash",
            FaultKind::ReplicaPartition { .. } => "replica-partition",
            FaultKind::ReplicaSlow { .. } => "replica-slow",
            FaultKind::ReplicaDrift => "replica-drift",
        }
    }
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultTrigger {
    /// Fires at exactly this work-item index, first attempt only — a
    /// retry of the same index succeeds, which is what lets
    /// retry-once-then-degrade semantics clear a scheduled fault.
    AtIndex(u64),
    /// Fires with this probability, rolled deterministically per
    /// `(site, index, attempt)` from the plan seed.
    Probability(f64),
}

/// One injection rule: a kind of failure at a site, with a trigger.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Site name the rule applies to (for example [`SITE_PAR_TASK`]).
    pub site: String,
    /// The failure to inject.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: FaultTrigger,
}

/// A replayable chaos schedule: a seed plus the rules drawn from it.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root seed for probabilistic triggers.
    pub seed: u64,
    /// Rules, consulted in order; the first match at a site fires.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with no rules (nothing ever fires).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with the given seed and no rules yet.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn rule(mut self, site: &str, kind: FaultKind, trigger: FaultTrigger) -> FaultPlan {
        self.rules.push(FaultRule {
            site: site.to_string(),
            kind,
            trigger,
        });
        self
    }

    /// True when the plan can never fire.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// One fault that actually fired, for logs and assertions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Site name where the fault fired.
    pub site: String,
    /// Work-item index at the site.
    pub index: u64,
    /// Attempt number (0 = first try, 1 = retry).
    pub attempt: u64,
    /// The injected failure.
    pub kind: FaultKind,
}

/// Consults a [`FaultPlan`] at instrumented sites and logs what fired.
///
/// Cloning shares the plan and the event log, so the injector can be
/// carried onto worker threads and every fired fault still lands in one
/// log.
#[derive(Clone)]
pub struct FaultInjector {
    plan: Arc<FaultPlan>,
    /// The plan's rules grouped by site, each site's in plan order, so
    /// a roll reads only the rules of its own site.
    sites: Arc<HashMap<String, Vec<(FaultTrigger, FaultKind)>>>,
    log: Arc<Mutex<Vec<FaultEvent>>>,
}

impl FaultInjector {
    /// Builds an injector for `plan`, grouping its rules by site once.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let mut sites: HashMap<String, Vec<(FaultTrigger, FaultKind)>> = HashMap::new();
        for rule in &plan.rules {
            sites
                .entry(rule.site.clone())
                .or_default()
                .push((rule.trigger, rule.kind));
        }
        FaultInjector {
            plan: Arc::new(plan),
            sites: Arc::new(sites),
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides whether a fault fires at `(site, index, attempt)`: the
    /// first of the site's rules, in plan order, whose trigger fires.
    ///
    /// Pure in the plan: the same coordinates always give the same
    /// answer. Fired faults are appended to the shared event log.
    pub fn roll(&self, site: &str, index: u64, attempt: u64) -> Option<FaultKind> {
        let fired = self.sites.get(site)?.iter().find_map(|&(trigger, kind)| {
            fires(self.plan.seed, trigger, site, index, attempt).then_some(kind)
        })?;
        let mut log = match self.log.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        log.push(FaultEvent {
            site: site.to_string(),
            index,
            attempt,
            kind: fired,
        });
        drop(log);
        appstore_obs::counter(appstore_obs::names::FAULTS_INJECTED, 1);
        Some(fired)
    }

    /// Every fault that fired so far, sorted by `(site, index, attempt)`
    /// so the log is deterministic regardless of worker interleaving.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut events = match self.log.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        };
        events.sort_by(|a, b| {
            (a.site.as_str(), a.index, a.attempt).cmp(&(b.site.as_str(), b.index, b.attempt))
        });
        events
    }
}

/// Whether `trigger` fires at `(site, index, attempt)` under a plan
/// seeded with `seed`.
fn fires(seed: u64, trigger: FaultTrigger, site: &str, index: u64, attempt: u64) -> bool {
    match trigger {
        FaultTrigger::AtIndex(at) => attempt == 0 && index == at,
        FaultTrigger::Probability(p) => {
            if p <= 0.0 {
                false
            } else if p >= 1.0 {
                true
            } else {
                let mut rng = Seed::new(seed)
                    .child(site)
                    .child_indexed("index", index)
                    .child_indexed("attempt", attempt)
                    .rng();
                let draw = rng.gen::<u64>() as f64 / u64::MAX as f64;
                draw < p
            }
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<FaultInjector>> = const { RefCell::new(None) };
}

/// Restores the previously installed injector on drop (panic-safe).
struct InjectorGuard {
    previous: Option<FaultInjector>,
}

impl Drop for InjectorGuard {
    fn drop(&mut self) {
        ACTIVE.with(|slot| *slot.borrow_mut() = self.previous.take());
    }
}

/// Runs `f` with `injector` installed for the current thread.
///
/// Nested calls shadow the outer injector and restore it on exit, even
/// on panic — the same discipline the observability context uses.
pub fn with_injector<R>(injector: &FaultInjector, f: impl FnOnce() -> R) -> R {
    let previous = ACTIVE.with(|slot| slot.borrow_mut().replace(injector.clone()));
    let _guard = InjectorGuard { previous };
    f()
}

/// The injector installed on the current thread, if any — capture it
/// before spawning workers and re-enter with [`with_injector`].
pub fn capture() -> Option<FaultInjector> {
    ACTIVE.with(|slot| slot.borrow().clone())
}

/// Consults the thread's installed injector; `None` (never a fault)
/// when no injector is installed, so production paths cost one
/// thread-local read.
pub fn roll(site: &str, index: u64, attempt: u64) -> Option<FaultKind> {
    ACTIVE.with(|slot| {
        let borrowed = slot.borrow();
        borrowed
            .as_ref()
            .and_then(|injector| injector.roll(site, index, attempt))
    })
}

/// The payload of a panic that a [`FaultKind::WorkerPanic`] rule raises
/// on purpose, tagged with its site and index so a catch site can tell
/// it from a real bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The injection site that fired.
    pub site: &'static str,
    /// The work-item index at that site.
    pub index: u64,
}

impl std::fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected panic at {} index {}", self.site, self.index)
    }
}

/// Prints one line (`injected panic at {site} index {index}`) to stderr,
/// then unwinds with an [`InjectedPanic`] payload. The unwind goes
/// through [`std::panic::resume_unwind`], which runs no panic hook and
/// captures no backtrace, so an injected panic stays one line in every
/// binary, whatever `RUST_BACKTRACE` says. It unwinds like any other
/// panic, so the isolation under test sees what a real bug would raise.
pub fn inject_panic(site: &'static str, index: u64) -> ! {
    let injected = InjectedPanic { site, index };
    eprintln!("{injected}");
    std::panic::resume_unwind(Box::new(injected))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn injected_panics_carry_their_site_and_index() {
        let payload = std::panic::catch_unwind(|| inject_panic(SITE_PAR_TASK, 7)).unwrap_err();
        let injected = payload.downcast_ref::<InjectedPanic>().unwrap();
        assert_eq!(
            *injected,
            InjectedPanic {
                site: SITE_PAR_TASK,
                index: 7
            }
        );
        assert_eq!(
            injected.to_string(),
            "injected panic at core.par.task index 7"
        );
    }

    #[test]
    fn no_injector_means_no_faults() {
        assert_eq!(roll("anything", 0, 0), None);
    }

    #[test]
    fn at_index_fires_once_per_site_index_and_not_on_retry() {
        let injector = FaultInjector::new(FaultPlan::seeded(7).rule(
            "write",
            FaultKind::IoError,
            FaultTrigger::AtIndex(3),
        ));
        assert_eq!(injector.roll("write", 2, 0), None);
        assert_eq!(injector.roll("write", 3, 0), Some(FaultKind::IoError));
        assert_eq!(injector.roll("write", 3, 1), None, "retry clears it");
        assert_eq!(injector.roll("other", 3, 0), None, "site must match");
    }

    #[test]
    fn probability_rolls_are_deterministic_and_plan_seeded() {
        let plan = FaultPlan::seeded(11).rule(
            "task",
            FaultKind::WorkerPanic,
            FaultTrigger::Probability(0.5),
        );
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let decisions: Vec<Option<FaultKind>> = (0..64).map(|i| a.roll("task", i, 0)).collect();
        let replay: Vec<Option<FaultKind>> = (0..64).map(|i| b.roll("task", i, 0)).collect();
        assert_eq!(decisions, replay, "same plan, same decisions");
        let fired = decisions.iter().filter(|d| d.is_some()).count();
        assert!(fired > 0 && fired < 64, "p=0.5 fires sometimes, not always");
        // A different seed gives a different schedule.
        let c = FaultInjector::new(FaultPlan::seeded(12).rule(
            "task",
            FaultKind::WorkerPanic,
            FaultTrigger::Probability(0.5),
        ));
        let other: Vec<Option<FaultKind>> = (0..64).map(|i| c.roll("task", i, 0)).collect();
        assert_ne!(decisions, other);
    }

    #[test]
    fn probability_extremes() {
        let never = FaultInjector::new(FaultPlan::seeded(1).rule(
            "s",
            FaultKind::Corrupt,
            FaultTrigger::Probability(0.0),
        ));
        let always = FaultInjector::new(FaultPlan::seeded(1).rule(
            "s",
            FaultKind::Corrupt,
            FaultTrigger::Probability(1.0),
        ));
        for i in 0..16 {
            assert_eq!(never.roll("s", i, 0), None);
            assert_eq!(always.roll("s", i, 0), Some(FaultKind::Corrupt));
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let injector = FaultInjector::new(
            FaultPlan::seeded(3)
                .rule("w", FaultKind::IoError, FaultTrigger::AtIndex(5))
                .rule("w", FaultKind::Corrupt, FaultTrigger::AtIndex(5)),
        );
        assert_eq!(injector.roll("w", 5, 0), Some(FaultKind::IoError));
    }

    #[test]
    fn events_are_sorted_and_shared_across_clones() {
        let injector = FaultInjector::new(
            FaultPlan::seeded(5)
                .rule("b", FaultKind::Corrupt, FaultTrigger::AtIndex(1))
                .rule("a", FaultKind::IoError, FaultTrigger::AtIndex(2)),
        );
        let clone = injector.clone();
        assert!(clone.roll("b", 1, 0).is_some());
        assert!(injector.roll("a", 2, 0).is_some());
        let events = injector.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].site, "a");
        assert_eq!(events[1].site, "b");
    }

    #[test]
    fn with_injector_scopes_and_restores() {
        let injector = FaultInjector::new(FaultPlan::seeded(2).rule(
            "s",
            FaultKind::IoError,
            FaultTrigger::AtIndex(0),
        ));
        assert_eq!(roll("s", 0, 0), None);
        with_injector(&injector, || {
            assert_eq!(roll("s", 0, 0), Some(FaultKind::IoError));
        });
        assert_eq!(roll("s", 0, 0), None, "uninstalled after scope");
        assert!(capture().is_none());
    }

    #[test]
    fn with_injector_restores_after_panic() {
        let injector = FaultInjector::new(FaultPlan::none());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_injector(&injector, || panic!("boom"));
        }));
        assert!(result.is_err());
        assert!(capture().is_none(), "guard restored on unwind");
    }

    #[test]
    fn fault_kind_labels_are_stable() {
        assert_eq!(FaultKind::IoError.label(), "io-error");
        assert_eq!(FaultKind::Delay { virtual_ms: 3 }.label(), "delay");
        assert_eq!(FaultKind::ReplicaCrash.label(), "replica-crash");
        assert_eq!(
            FaultKind::ReplicaPartition { virtual_ms: 5 }.label(),
            "replica-partition"
        );
        assert_eq!(
            FaultKind::ReplicaSlow { virtual_ms: 7 }.label(),
            "replica-slow"
        );
        assert_eq!(FaultKind::ReplicaDrift.label(), "replica-drift");
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::seeded(42)
            .rule(
                "w",
                FaultKind::Delay { virtual_ms: 9 },
                FaultTrigger::Probability(0.25),
            )
            .rule("w", FaultKind::PartialWrite, FaultTrigger::AtIndex(7))
            .rule("r", FaultKind::ReplicaCrash, FaultTrigger::AtIndex(3))
            .rule(
                "r",
                FaultKind::ReplicaPartition { virtual_ms: 500 },
                FaultTrigger::AtIndex(4),
            )
            .rule(
                "r",
                FaultKind::ReplicaSlow { virtual_ms: 90 },
                FaultTrigger::Probability(0.5),
            )
            .rule("r", FaultKind::ReplicaDrift, FaultTrigger::AtIndex(9));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    const SITES: [&str; 4] = [
        "serve.backing",
        "serve.handler",
        "serve.replica.0",
        "core.par.task",
    ];

    const KINDS: [FaultKind; 4] = [
        FaultKind::IoError,
        FaultKind::WorkerPanic,
        FaultKind::Delay { virtual_ms: 5 },
        FaultKind::ReplicaDrift,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Grouping rules by site changes nothing: every roll returns
        /// the kind a scan of the whole plan in order would, and the
        /// event log matches that scan's.
        #[test]
        fn grouped_lookup_matches_a_linear_scan(
            seed in 0u64..1_000,
            rules in proptest::collection::vec(
                (0usize..4, 0usize..4, any::<bool>(), 0u64..100),
                0..40,
            ),
        ) {
            let mut plan = FaultPlan::seeded(seed);
            for &(site, kind, at_index, value) in &rules {
                let trigger = if at_index {
                    FaultTrigger::AtIndex(value % 12)
                } else {
                    FaultTrigger::Probability(value as f64 / 100.0)
                };
                plan = plan.rule(SITES[site], KINDS[kind], trigger);
            }
            let injector = FaultInjector::new(plan.clone());
            let mut expected = Vec::new();
            for site in SITES.iter().copied().chain(["unplanned"]) {
                for index in 0..12 {
                    for attempt in 0..2 {
                        let scanned = plan.rules.iter().find_map(|rule| {
                            (rule.site == site
                                && fires(plan.seed, rule.trigger, site, index, attempt))
                            .then_some(rule.kind)
                        });
                        prop_assert_eq!(injector.roll(site, index, attempt), scanned);
                        if let Some(kind) = scanned {
                            expected.push(FaultEvent {
                                site: site.to_string(),
                                index,
                                attempt,
                                kind,
                            });
                        }
                    }
                }
            }
            expected.sort_by(|a, b| {
                (a.site.as_str(), a.index, a.attempt).cmp(&(b.site.as_str(), b.index, b.attempt))
            });
            prop_assert_eq!(injector.events(), expected);
        }
    }
}
