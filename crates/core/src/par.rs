//! Deterministic fork/join parallelism for seeded Monte-Carlo work.
//!
//! Every parallel site in this workspace follows the same scheme, first
//! established by the per-day child seeds of the resumable crawler and
//! extended here to whole experiment pipelines:
//!
//! 1. each work item derives its own child seed (`seed.child_indexed`)
//!    *before* any thread is spawned, so the randomness a worker consumes
//!    never depends on which thread runs it;
//! 2. workers compute results independently and return them tagged with
//!    the item's input index;
//! 3. the caller merges results **in input order**, so floating-point
//!    reductions associate identically no matter how many threads ran.
//!
//! Under this contract [`par_map_indexed`] is observationally equivalent
//! to a sequential `map` — byte-identical output for any thread count —
//! which is what lets `repro --threads N` promise bit-reproducibility.
//!
//! Worker panics are **isolated**: each task runs under `catch_unwind`
//! and a panicking task is retried once on its own cloned input (the
//! retry is `attempt = 1` at the [`faults::SITE_PAR_TASK`] injection
//! site, so a scheduled [`faults::FaultKind::WorkerPanic`] clears on
//! retry). A task that panics twice propagates its original panic from
//! [`par_map_indexed`]. When no panic fires the isolation layer is
//! observationally free and the bit-identical contract is untouched.

use crate::faults;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Resolves a requested thread count: `0` means "one per available CPU".
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// A panic payload carried from an isolated task back to the caller.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// Runs one attempt of one task on its own trace track, catching panics.
///
/// The fault injector is consulted before the task body runs, so an
/// injected [`faults::FaultKind::WorkerPanic`] exercises exactly the
/// unwind path a real bug would take.
fn run_attempt<T, R>(
    f: &(impl Fn(usize, T) -> R + Sync),
    i: usize,
    item: T,
    attempt: u64,
) -> Result<R, PanicPayload> {
    catch_unwind(AssertUnwindSafe(|| {
        // Each item runs on its own trace track named by its input
        // index, so trace attribution is a function of the input alone —
        // identical no matter how many threads ran.
        appstore_obs::with_track(i as u64, || {
            if let Some(faults::FaultKind::WorkerPanic) =
                faults::roll(faults::SITE_PAR_TASK, i as u64, attempt)
            {
                faults::inject_panic(faults::SITE_PAR_TASK, i as u64);
            }
            f(i, item)
        })
    }))
}

/// Runs one task with retry-once panic isolation.
fn run_isolated<T: Clone, R>(
    f: &(impl Fn(usize, T) -> R + Sync),
    i: usize,
    item: T,
) -> Result<R, PanicPayload> {
    let retry = item.clone();
    match run_attempt(f, i, item, 0) {
        Ok(r) => Ok(r),
        Err(_) => {
            appstore_obs::counter(appstore_obs::names::CORE_PAR_PANICS_ISOLATED, 1);
            run_attempt(f, i, retry, 1)
        }
    }
}

/// Applies `f` to every item on up to `threads` worker threads and
/// returns the results **in input order**.
///
/// `f` receives the item's input index alongside the item, so callers can
/// derive per-item child seeds from it. With `threads <= 1` (or a single
/// item) everything runs on the calling thread — same code path a
/// `--threads 1` run takes, and the reference behaviour the parallel path
/// must reproduce byte-for-byte.
///
/// A task that panics is retried once on a clone of its input (isolated
/// via `catch_unwind`; counted under `core.par.panics_isolated`).
///
/// # Panics
/// Re-raises the original panic of any task that panicked twice.
pub fn par_map_indexed<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Clone + Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = effective_threads(threads).min(items.len()).max(1);
    // Call and task counts are functions of the input alone; the
    // per-worker task distribution depends on the worker count, so it is
    // recorded as volatile and zeroed in comparable snapshots.
    appstore_obs::counter(appstore_obs::names::CORE_PAR_CALLS, 1);
    appstore_obs::counter(appstore_obs::names::CORE_PAR_TASKS, items.len() as u64);
    let results: Vec<Result<R, PanicPayload>> = if workers <= 1 {
        appstore_obs::observe_volatile(
            appstore_obs::names::CORE_PAR_WORKER_TASKS,
            items.len() as u64,
        );
        items
            .into_iter()
            .enumerate()
            .map(|(i, t)| run_isolated(&f, i, t))
            .collect()
    } else {
        // Split into contiguous ownership chunks, remembering each chunk's
        // starting index so results can be placed back in input order.
        let chunk_len = items.len().div_ceil(workers);
        let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(workers);
        let mut rest = items;
        let mut start = 0;
        while !rest.is_empty() {
            let take = chunk_len.min(rest.len());
            let tail = rest.split_off(take);
            chunks.push((start, std::mem::replace(&mut rest, tail)));
            start += take;
        }
        let mut out: Vec<Option<Result<R, PanicPayload>>> = Vec::new();
        out.resize_with(start, || None);
        // Carry the caller's observability context and fault injector onto
        // each worker so spans and counters land in the same registry as a
        // sequential run and injected faults fire on the same schedule.
        let obs_ctx = appstore_obs::capture();
        let fault_ctx = faults::capture();
        std::thread::scope(|scope| {
            let f = &f;
            let obs_ctx = &obs_ctx;
            let fault_ctx = &fault_ctx;
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|(base, chunk)| {
                    scope.spawn(move || {
                        let work = || {
                            appstore_obs::observe_volatile(
                                appstore_obs::names::CORE_PAR_WORKER_TASKS,
                                chunk.len() as u64,
                            );
                            chunk
                                .into_iter()
                                .enumerate()
                                .map(|(k, item)| {
                                    let i = base + k;
                                    (i, run_isolated(f, i, item))
                                })
                                .collect::<Vec<(usize, Result<R, PanicPayload>)>>()
                        };
                        let work = || match fault_ctx {
                            Some(injector) => faults::with_injector(injector, work),
                            None => work(),
                        };
                        match obs_ctx {
                            Some(ctx) => ctx.run(work),
                            None => work(),
                        }
                    })
                })
                .collect();
            for handle in handles {
                // Tasks catch their own panics, so a worker thread can only
                // die abnormally outside any task body.
                for (i, r) in handle.join().expect("parallel worker panicked") {
                    out[i] = Some(r);
                }
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("every index produced a result"))
            .collect()
    };
    // Every task has run; the first task in input order that panicked
    // twice re-raises its original panic.
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::faults::{FaultInjector, FaultKind, FaultPlan, FaultTrigger};
    use crate::seed::Seed;
    use rand::Rng;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_indexed(items.clone(), threads, |_, x| x * 2);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<usize> = (0..57).collect();
        let got = par_map_indexed(items, 4, |i, x| (i, x));
        for (i, (idx, item)) in got.into_iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(i, item);
        }
    }

    #[test]
    fn seeded_draws_are_thread_count_invariant() {
        let draw = |i: usize, _: ()| -> u64 {
            let mut rng = Seed::new(9).child_indexed("item", i as u64).rng();
            rng.gen::<u64>()
        };
        let serial = par_map_indexed(vec![(); 40], 1, draw);
        let parallel = par_map_indexed(vec![(); 40], 7, draw);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input() {
        let got: Vec<u32> = par_map_indexed(Vec::<u32>::new(), 4, |_, x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let got = par_map_indexed(vec![1u32, 2, 3], 100, |_, x| x + 1);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(5), 5);
    }

    #[test]
    fn metrics_recorded_on_workers_reach_the_callers_registry() {
        let run = |threads: usize| {
            let registry = appstore_obs::Registry::new();
            appstore_obs::with_registry(&registry, || {
                appstore_obs::span("batch", || {
                    par_map_indexed((0..23).collect::<Vec<u64>>(), threads, |_, x| {
                        appstore_obs::counter("test.items.seen", 1);
                        appstore_obs::span("item", || x * 2)
                    })
                })
            });
            registry
        };
        for threads in [1, 2, 8] {
            let registry = run(threads);
            assert_eq!(
                registry.counter_value("test.items.seen"),
                23,
                "threads = {threads}"
            );
            assert_eq!(registry.counter_value("core.par.tasks"), 23);
            let json = registry.snapshot_json(true);
            assert!(json.contains("\"batch/item\""), "span path crosses threads");
        }
        // The comparable (no-timings) snapshot is thread-count invariant.
        let one = run(1).snapshot_json(true);
        assert_eq!(one, run(2).snapshot_json(true));
        assert_eq!(one, run(8).snapshot_json(true));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        // A task that panics on every attempt re-raises its original
        // panic payload after the retry.
        let _ = par_map_indexed(vec![0u32, 1, 2, 3], 2, |_, x| {
            assert!(x != 3, "boom");
            x
        });
    }

    #[test]
    fn injected_panic_is_isolated_and_output_is_unchanged() {
        let injector = FaultInjector::new(FaultPlan::seeded(17).rule(
            faults::SITE_PAR_TASK,
            FaultKind::WorkerPanic,
            FaultTrigger::AtIndex(5),
        ));
        let items: Vec<u64> = (0..20).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for threads in [1, 4] {
            let registry = appstore_obs::Registry::new();
            let got = appstore_obs::with_registry(&registry, || {
                faults::with_injector(&injector, || {
                    par_map_indexed(items.clone(), threads, |_, x| x * 3)
                })
            });
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(
                registry.counter_value(appstore_obs::names::CORE_PAR_PANICS_ISOLATED),
                1,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn injector_reaches_parallel_workers() {
        // AtIndex targets fire exactly once even when tasks run on
        // spawned workers — the injector context crosses threads.
        let injector = FaultInjector::new(FaultPlan::seeded(29).rule(
            faults::SITE_PAR_TASK,
            FaultKind::WorkerPanic,
            FaultTrigger::AtIndex(13),
        ));
        let got = faults::with_injector(&injector, || {
            par_map_indexed((0..40u64).collect(), 8, |_, x| x)
        });
        assert_eq!(got, (0..40u64).collect::<Vec<_>>());
        let events = injector.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].index, 13);
        assert_eq!(events[0].attempt, 0);
    }
}
