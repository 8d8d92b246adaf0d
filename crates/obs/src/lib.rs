//! Deterministic observability for the planet-apps workspace.
//!
//! Every other crate records what it does — retries, cache hits, grid
//! candidates pruned, span timings — through this facade. Design rules:
//!
//! * **Zero dependencies.** Only `std`; the JSON export is hand-rolled.
//! * **Scoped, not global.** Nothing is recorded unless a [`Registry`]
//!   is installed on the current thread ([`with_registry`]); with no
//!   registry every call is a no-op, so library hot paths stay free when
//!   nobody is listening, and tests never leak metrics into each other.
//!   The active context (registry + tracer + open span path + track)
//!   can be captured and re-entered on worker threads ([`capture`] /
//!   [`Context::run`]), which is how `appstore_core::par_map_indexed`
//!   makes metric attribution identical for every thread count.
//! * **Deterministic export.** [`Registry::snapshot_json`] renders every
//!   metric in stable (sorted) key order. Each metric carries a stability
//!   class: *deterministic* values are functions of the seeds and inputs
//!   alone, while *volatile* values (durations, per-worker task counts,
//!   per-worker cache hit rates) legitimately vary with the machine or
//!   thread count. Snapshots taken in no-timings mode zero every volatile
//!   field, making them **byte-comparable** across `--threads N` and
//!   across hosts — the contract the golden-figure regression suite pins.
//!
//! Metric kinds: monotone counters ([`counter`]), last-write gauges
//! ([`gauge`]), histograms with a fixed power-of-two bucket layout
//! ([`observe`]), and nestable timed spans ([`span`]) whose call counts
//! are deterministic while their accumulated nanoseconds are volatile.
//! [`record`] applies a slice of metric [`Update`]s under one context
//! lookup and one registry lock; every one-call facade is a one-element
//! `record`, so all metrics are recorded one way.
//!
//! Beyond aggregate metrics, a [`Tracer`] (installed with
//! [`with_tracer`], orthogonal to the registry) records an event-level
//! timeline: span begin/end pairs, [`instant`] markers, and
//! deterministic counter samples, attributed to per-task *tracks* (see
//! [`with_track`]) whose identity is stable across thread counts. The
//! [`trace`] module documents the model and the two exporters (Chrome
//! trace-event JSON and collapsed-stack text). All metric and span names
//! live in [`names`] as constants so misspellings fail to compile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod hdr;
pub mod names;
mod registry;
pub mod trace;

pub use flight::FlightRecorder;
pub use hdr::LogLinearHistogram;
pub use registry::{prometheus_escape, prometheus_name, Registry, Update, POW2_BUCKET_BOUNDS};
pub use trace::{TimeBase, Tracer, DEFAULT_TRACE_CAPACITY};

use std::cell::RefCell;

thread_local! {
    static CURRENT: RefCell<Option<Context>> = const { RefCell::new(None) };
}

/// The active collection context of a thread: the registry metrics go
/// to (if any), the tracer events go to (if any), the stack of open
/// span names (joined with `/` to form the exported span path), and the
/// current track — the path of task indices identifying this logical
/// thread of execution in a trace.
#[derive(Clone)]
pub struct Context {
    registry: Option<Registry>,
    tracer: Option<Tracer>,
    span_path: Vec<String>,
    track: Vec<u64>,
}

impl Context {
    fn empty() -> Context {
        Context {
            registry: None,
            tracer: None,
            span_path: Vec::new(),
            track: Vec::new(),
        }
    }

    /// Runs `f` with this context installed on the current thread,
    /// restoring whatever was installed before once `f` returns.
    ///
    /// Used to carry the caller's context onto worker threads so a
    /// parallel run attributes metrics exactly like a sequential one.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = ContextGuard::install(Some(self.clone()));
        f()
    }
}

/// Restores the previous thread context on drop (panic-safe).
struct ContextGuard {
    previous: Option<Context>,
}

impl ContextGuard {
    fn install(next: Option<Context>) -> ContextGuard {
        let previous = CURRENT.with(|c| c.replace(next));
        ContextGuard { previous }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.previous.take();
        });
    }
}

/// Runs `f` with `registry` collecting on the current thread (fresh span
/// path), restoring the previous context afterwards. Nestable: the inner
/// registry shadows the outer one for the duration of `f`. An installed
/// [`Tracer`] and the current track are inherited — tracing is
/// orthogonal to metric scoping.
pub fn with_registry<R>(registry: &Registry, f: impl FnOnce() -> R) -> R {
    let (tracer, track) = CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (ctx.tracer.clone(), ctx.track.clone()))
            .unwrap_or((None, Vec::new()))
    });
    let _guard = ContextGuard::install(Some(Context {
        registry: Some(registry.clone()),
        tracer,
        span_path: Vec::new(),
        track,
    }));
    f()
}

/// Runs `f` with `tracer` collecting trace events on the current thread,
/// restoring the previous context afterwards. The registry, span path,
/// and track of an already-installed context are inherited, so a tracer
/// can wrap a whole pipeline while registries come and go inside it.
pub fn with_tracer<R>(tracer: &Tracer, f: impl FnOnce() -> R) -> R {
    let mut ctx = capture().unwrap_or_else(Context::empty);
    ctx.tracer = Some(tracer.clone());
    let _guard = ContextGuard::install(Some(ctx));
    f()
}

/// Captures the current thread's context (registry + tracer + open span
/// path + track) for re-entry on another thread, or `None` when nothing
/// is installed.
pub fn capture() -> Option<Context> {
    CURRENT.with(|c| c.borrow().clone())
}

/// True when a registry is installed on the current thread.
pub fn enabled() -> bool {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|ctx| ctx.registry.is_some())
    })
}

/// The registry installed on the current thread, if any — a cheap
/// shared handle. Lets long-lived components (like the serve telemetry
/// endpoints) capture the registry once and render snapshots from other
/// threads later.
pub fn current_registry() -> Option<Registry> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(|ctx| ctx.registry.clone()))
}

/// The names-drift guard: true when recording under `name` may proceed.
/// A registry runs it on a name's first record only; after that the
/// name is known (see the [`registry`] module).
///
/// Undeclared names (not in [`names::ALL_METRICS`], not a declared
/// `cache.*` family member, not `test.*`) panic in debug/test builds so
/// drift is caught at the call site; in release builds the emission is
/// dropped and the volatile counter [`names::OBS_UNDECLARED`] is
/// incremented instead, keeping production snapshots clean. An
/// undeclared name is never inserted, so every call under it counts.
fn declared(name: &str, registry: Option<&Registry>) -> bool {
    if names::is_declared_metric(name) {
        return true;
    }
    if cfg!(debug_assertions) {
        panic!(
            "undeclared metric name {name:?} — declare it in appstore_obs::names \
             (unit tests may use the `test.` prefix)"
        );
    }
    if let Some(registry) = registry {
        registry.apply(
            &[Update::CounterVolatile(names::OBS_UNDECLARED, 1)],
            |_, _| {},
        );
    }
    false
}

/// Records `updates` in slice order, under one lookup of the thread's
/// context and one registry lock (a name's first record releases it for
/// the declared-name guard). Each update records exactly what its
/// one-call facade records ([`Update::Counter`] what [`counter`] does,
/// and so on), and a volatile update flags its metric volatile. With a
/// tracer installed, each recorded deterministic counter is also a
/// timeline counter sample on the current track, in slice order; with a
/// tracer but no registry, only those samples are recorded. With
/// neither, this is a no-op.
pub fn record(updates: &[Update<'_>]) {
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let Some(ctx) = borrow.as_ref() else {
            return;
        };
        let sample = |name: &str, delta: u64| {
            if let Some(tracer) = &ctx.tracer {
                tracer.counter_sample(&ctx.track, name, delta);
            }
        };
        match &ctx.registry {
            Some(registry) => registry.apply(updates, sample),
            None if ctx.tracer.is_some() => {
                for update in updates {
                    if let Update::Counter(name, delta) = *update {
                        if declared(name, None) {
                            sample(name, delta);
                        }
                    }
                }
            }
            None => {}
        }
    });
}

/// Adds `delta` to the deterministic counter `name`. With a tracer
/// installed the increment is also recorded as a timeline counter
/// sample on the current track.
pub fn counter(name: &str, delta: u64) {
    record(&[Update::Counter(name, delta)]);
}

/// Adds `delta` to the volatile counter `name` (zeroed in no-timings
/// snapshots; use for values that depend on worker count or machine).
/// Never traced: its call placement is scheduler-dependent.
pub fn counter_volatile(name: &str, delta: u64) {
    record(&[Update::CounterVolatile(name, delta)]);
}

/// Sets the deterministic gauge `name` to `value` (last write wins).
pub fn gauge(name: &str, value: i64) {
    record(&[Update::Gauge(name, value)]);
}

/// Sets the volatile gauge `name` to `value` (zeroed in no-timings
/// snapshots).
pub fn gauge_volatile(name: &str, value: i64) {
    record(&[Update::GaugeVolatile(name, value)]);
}

/// Records `value` into the deterministic histogram `name` (fixed
/// power-of-two bucket layout, see [`POW2_BUCKET_BOUNDS`]).
pub fn observe(name: &str, value: u64) {
    record(&[Update::Observe(name, value)]);
}

/// Records `value` into the volatile histogram `name` (all fields zeroed
/// in no-timings snapshots).
pub fn observe_volatile(name: &str, value: u64) {
    record(&[Update::ObserveVolatile(name, value)]);
}

/// Records `value` into the deterministic log-linear histogram `name`
/// (HDR-style buckets, see [`LogLinearHistogram`]) with exact
/// p50/p90/p99/p999 accessors in snapshots and via
/// [`Registry::hdr_quantile`].
pub fn observe_hdr(name: &str, value: u64) {
    record(&[Update::ObserveHdr(name, value)]);
}

/// Records `value` into the volatile log-linear histogram `name` (all
/// fields zeroed in no-timings snapshots).
pub fn observe_hdr_volatile(name: &str, value: u64) {
    record(&[Update::ObserveHdrVolatile(name, value)]);
}

/// Records an instant event named `name` on the current track. Trace
/// timeline only — instants never appear in metric snapshots, so they
/// are free to mark high-frequency moments (a screened candidate, a
/// breaker trip) without touching the golden metric surface.
pub fn instant(name: &str) {
    instant_args(name, &[]);
}

/// Like [`instant`], but annotates the event with key/value args that
/// render into the Chrome export's `args` object. The deterministic
/// collapsed export ignores args, so annotating never perturbs the
/// logical-timestamp golden surface.
pub fn instant_args(name: &str, args: &[(&str, &str)]) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            if let Some(tracer) = &ctx.tracer {
                tracer.instant_event_args(&ctx.track, name, args);
            }
        }
    });
}

/// Labels the current track in trace exports (e.g. with an experiment
/// id or store name). Last write wins; trace timeline only.
pub fn label_track(name: &str) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            if let Some(tracer) = &ctx.tracer {
                tracer.label(&ctx.track, name);
            }
        }
    });
}

/// Runs `f` on the child track `index` of the current track.
///
/// `par_map_indexed` wraps every task in this with the task's input
/// index, so each task's trace events land on a track whose identity —
/// the path of task indices from the root — is a pure function of the
/// input, never of the scheduler. On entry the spans currently open are
/// replayed onto the child track as *synthetic* begin events (closed
/// again on exit), so child stacks stay rooted under their parent's
/// frames in flame graphs; synthetic frames carry no logical weight.
///
/// With no context installed this is a plain call to `f`.
pub fn with_track<R>(index: u64, f: impl FnOnce() -> R) -> R {
    let entered = CURRENT.with(|c| {
        let mut borrow = c.borrow_mut();
        match borrow.as_mut() {
            Some(ctx) => {
                ctx.track.push(index);
                if let Some(tracer) = &ctx.tracer {
                    for frame in &ctx.span_path {
                        tracer.begin(&ctx.track, frame, true);
                    }
                }
                Some(ctx.span_path.len())
            }
            None => None,
        }
    });
    match entered {
        None => f(),
        Some(frames) => {
            let _guard = TrackGuard { frames };
            f()
        }
    }
}

/// Pops the current track on drop (panic-safe), closing the synthetic
/// frames that rooted it.
struct TrackGuard {
    frames: usize,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            let mut borrow = c.borrow_mut();
            if let Some(ctx) = borrow.as_mut() {
                if let Some(tracer) = &ctx.tracer {
                    for frame in ctx.span_path[..self.frames].iter().rev() {
                        tracer.end(&ctx.track, frame, true);
                    }
                }
                ctx.track.pop();
            }
        });
    }
}

/// Runs `f` inside a timed span called `name`.
///
/// Spans nest: a span opened while another is running is exported under
/// the joined path (`outer/inner`). The span's call count is
/// deterministic; its accumulated wall-clock nanoseconds are volatile
/// and zeroed in no-timings snapshots. With a tracer installed the span
/// additionally emits begin/end timeline events on the current track.
/// With no registry or tracer installed, `f` runs untimed with zero
/// overhead.
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    span_args(name, &[], f)
}

/// Like [`span`], but annotates the begin event with key/value args
/// that render into the Chrome export's `args` object (shed reasons,
/// degradation classes, deadline burn). The deterministic collapsed
/// export ignores args.
pub fn span_args<R>(name: &str, args: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    let entered = CURRENT.with(|c| {
        let mut borrow = c.borrow_mut();
        match borrow.as_mut() {
            Some(ctx) => {
                ctx.span_path.push(name.to_string());
                if let Some(tracer) = &ctx.tracer {
                    tracer.begin_args(&ctx.track, name, false, args);
                }
                true
            }
            None => false,
        }
    });
    if !entered {
        return f();
    }
    let span_guard = SpanGuard {
        started: std::time::Instant::now(),
    };
    let result = f();
    drop(span_guard); // records and pops the span, in drop order
    result
}

/// Closes the innermost span on drop, recording its duration — also on
/// unwind, so a panicking span still pops its path entry.
struct SpanGuard {
    started: std::time::Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed_ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        CURRENT.with(|c| {
            let mut borrow = c.borrow_mut();
            if let Some(ctx) = borrow.as_mut() {
                if let Some(registry) = &ctx.registry {
                    let path = ctx.span_path.join("/");
                    registry.span_record(&path, elapsed_ns);
                }
                let name = ctx.span_path.pop();
                if let (Some(tracer), Some(name)) = (&ctx.tracer, name) {
                    tracer.end(&ctx.track, &name, false);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_registry_means_no_op() {
        assert!(!enabled());
        counter("c", 1);
        gauge("g", 2);
        observe("h", 3);
        instant("i");
        label_track("t");
        let out = span("s", || 7);
        assert_eq!(out, 7);
        let tracked = with_track(3, || 11);
        assert_eq!(tracked, 11);
        assert!(capture().is_none());
    }

    #[test]
    fn counters_gauges_and_histograms_export_sorted() {
        let registry = Registry::new();
        with_registry(&registry, || {
            counter("test.b.count", 2);
            counter("test.a.count", 1);
            counter("test.b.count", 3);
            gauge("test.z.level", -4);
            observe("test.sizes", 5);
            observe("test.sizes", 100);
        });
        let json = registry.snapshot_json(false);
        let a = json.find("\"test.a.count\": 1").expect("test.a.count");
        let b = json.find("\"test.b.count\": 5").expect("test.b.count");
        assert!(a < b, "keys must sort");
        assert!(json.contains("\"test.z.level\": -4"));
        assert!(json.contains("\"test.sizes\""));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"sum\": 105"));
    }

    #[test]
    fn volatile_metrics_zero_under_no_timings() {
        let registry = Registry::new();
        with_registry(&registry, || {
            counter("test.det", 7);
            counter_volatile("test.vol", 9);
            gauge_volatile("test.vg", 11);
            observe_volatile("test.vh", 13);
            span("work", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let timed = registry.snapshot_json(false);
        assert!(timed.contains("\"test.vol\": 9"));
        let zeroed = registry.snapshot_json(true);
        assert!(zeroed.contains("\"test.det\": 7"), "deterministic survives");
        assert!(zeroed.contains("\"test.vol\": 0"), "volatile zeroed");
        assert!(zeroed.contains("\"test.vg\": 0"));
        assert!(zeroed.contains("\"calls\": 1"), "span calls survive");
        assert!(zeroed.contains("\"total_ns\": 0"), "span time zeroed");
        assert!(!zeroed.contains("\"total_ns\": 0,\n"), "stable tail");
    }

    #[test]
    fn no_timings_snapshot_is_stable_across_repeats() {
        let run = || {
            let registry = Registry::new();
            with_registry(&registry, || {
                span("outer", || {
                    span("inner", || {
                        counter("test.n", 3);
                    });
                });
                observe("test.h", 42);
            });
            registry.snapshot_json(true)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spans_nest_into_paths() {
        let registry = Registry::new();
        with_registry(&registry, || {
            span("outer", || {
                span("inner", || {});
            });
            span("outer", || {});
        });
        let json = registry.snapshot_json(true);
        assert!(json.contains("\"outer\""));
        assert!(json.contains("\"outer/inner\""));
    }

    #[test]
    fn capture_carries_registry_and_span_path_across_threads() {
        let registry = Registry::new();
        with_registry(&registry, || {
            span("job", || {
                let ctx = capture().expect("context installed");
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        ctx.run(|| {
                            span("task", || counter("test.done", 1));
                        });
                    });
                });
            });
        });
        let json = registry.snapshot_json(true);
        assert!(json.contains("\"job/task\""), "worker inherits span path");
        assert!(json.contains("\"test.done\": 1"));
    }

    #[test]
    fn nested_with_registry_shadows_outer() {
        let outer = Registry::new();
        let inner = Registry::new();
        with_registry(&outer, || {
            counter("test.outer.only", 1);
            with_registry(&inner, || counter("test.inner.only", 1));
            counter("test.outer.only", 1);
        });
        assert!(outer.snapshot_json(true).contains("\"test.outer.only\": 2"));
        assert!(!outer.snapshot_json(true).contains("inner.only"));
        assert!(inner.snapshot_json(true).contains("\"test.inner.only\": 1"));
    }

    #[test]
    fn snapshot_indent_embeds_cleanly() {
        let registry = Registry::new();
        with_registry(&registry, || counter("test.k", 1));
        let embedded = registry.snapshot_json_indented(true, 2);
        assert!(embedded.starts_with('{'));
        assert!(embedded.ends_with("    }"), "closing brace at level 2");
    }

    #[test]
    fn tracer_records_spans_instants_and_counter_samples() {
        let tracer = Tracer::new();
        with_tracer(&tracer, || {
            span("work", || {
                instant("mark");
                counter("test.n", 2);
            });
        });
        let folded = tracer.export_collapsed(TimeBase::Logical);
        assert_eq!(folded, "work 1\nwork;mark 1\nwork;test.n 1\n");
    }

    #[test]
    fn with_registry_inherits_tracer() {
        let tracer = Tracer::new();
        let registry = Registry::new();
        with_tracer(&tracer, || {
            with_registry(&registry, || {
                span("inside", || counter("test.c", 1));
            });
        });
        assert_eq!(registry.counter_value("test.c"), 1);
        let folded = tracer.export_collapsed(TimeBase::Logical);
        assert!(
            folded.contains("inside 1"),
            "trace crossed registry: {folded}"
        );
    }

    #[test]
    fn with_tracer_inherits_registry() {
        let tracer = Tracer::new();
        let registry = Registry::new();
        with_registry(&registry, || {
            with_tracer(&tracer, || counter("test.c", 5));
        });
        assert_eq!(registry.counter_value("test.c"), 5);
        assert_eq!(tracer.len(), 1);
    }

    #[test]
    fn tracks_nest_and_root_synthetic_frames() {
        let tracer = Tracer::new();
        with_tracer(&tracer, || {
            span("batch", || {
                with_track(0, || {
                    span("item", || instant("tick"));
                });
                with_track(1, || instant("tock"));
            });
        });
        let folded = tracer.export_collapsed(TimeBase::Logical);
        // "batch" frames on child tracks are synthetic (weight only from
        // the parent's own begin); children nest underneath.
        assert_eq!(
            folded,
            "batch 1\nbatch;item 1\nbatch;item;tick 1\nbatch;tock 1\n"
        );
    }

    #[test]
    fn volatile_counters_are_not_traced() {
        let tracer = Tracer::new();
        let registry = Registry::new();
        with_tracer(&tracer, || {
            with_registry(&registry, || {
                counter_volatile("test.vol", 3);
                observe_volatile("test.h", 1);
                gauge("test.g", 2);
            });
        });
        assert!(tracer.is_empty(), "only deterministic counters trace");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn undeclared_metric_name_panics_in_debug() {
        let registry = Registry::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_registry(&registry, || counter("definitely.not.declared", 1));
        }));
        assert!(outcome.is_err(), "debug builds must panic on drift");
        // Declared and test-family names record normally.
        with_registry(&registry, || {
            counter(names::SERVE_REQUESTS, 1);
            counter("test.scratch", 2);
        });
        assert_eq!(registry.counter_value(names::SERVE_REQUESTS), 1);
        assert_eq!(registry.counter_value("test.scratch"), 2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn undeclared_metric_name_counts_obs_undeclared_in_release() {
        let registry = Registry::new();
        with_registry(&registry, || {
            counter("definitely.not.declared", 1);
            observe("also.not.declared", 7);
        });
        assert_eq!(registry.counter_value("definitely.not.declared"), 0);
        assert_eq!(registry.counter_value(names::OBS_UNDECLARED), 2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn undeclared_name_counts_on_every_call_not_only_the_first() {
        let registry = Registry::new();
        with_registry(&registry, || {
            for _ in 0..3 {
                counter("definitely.not.declared", 1);
            }
            counter(names::SERVE_REQUESTS, 1);
            counter("definitely.not.declared", 1);
        });
        assert_eq!(registry.counter_value(names::OBS_UNDECLARED), 4);
        assert_eq!(registry.counter_value(names::SERVE_REQUESTS), 1);
        assert!(!registry
            .snapshot_json(false)
            .contains("definitely.not.declared"));
    }

    #[test]
    fn volatile_update_of_a_known_name_flags_it_volatile() {
        let registry = Registry::new();
        with_registry(&registry, || {
            counter("test.mixed", 2);
            // The name is known now, so these updates take the fast
            // path; a later deterministic update keeps the flag set.
            counter_volatile("test.mixed", 3);
            counter("test.mixed", 1);
            observe_hdr("test.mixed.lat", 7);
            observe_hdr_volatile("test.mixed.lat", 9);
            observe_hdr("test.mixed.lat", 8);
        });
        assert_eq!(registry.counter_value("test.mixed"), 6);
        let zeroed = registry.snapshot_json(true);
        assert!(zeroed.contains("\"test.mixed\": 0"), "{zeroed}");
        assert!(
            zeroed.contains("\"test.mixed.lat\": {\"count\": 0"),
            "{zeroed}"
        );
    }

    #[test]
    fn hdr_facade_records_into_registry() {
        let registry = Registry::new();
        with_registry(&registry, || {
            for v in [1u64, 2, 81] {
                observe_hdr("test.lat", v);
            }
            observe_hdr_volatile("test.vlat", 5);
        });
        assert_eq!(registry.hdr_quantile("test.lat", 0.99), Some(81));
        let zeroed = registry.snapshot_json(true);
        assert!(zeroed.contains("\"test.vlat\": {\"count\": 0"), "{zeroed}");
    }

    #[test]
    fn span_args_and_instant_args_annotate_chrome_only() {
        let tracer = Tracer::new();
        with_tracer(&tracer, || {
            span_args("req", &[("route", "/app")], || {
                instant_args("edge", &[("result", "stale")]);
            });
        });
        let chrome = tracer.export_chrome();
        assert!(chrome.contains("\"route\": \"/app\""), "{chrome}");
        assert!(chrome.contains("\"result\": \"stale\""), "{chrome}");
        let folded = tracer.export_collapsed(TimeBase::Logical);
        assert_eq!(folded, "req 1\nreq;edge 1\n");
    }

    #[test]
    fn current_registry_returns_installed_handle() {
        assert!(current_registry().is_none());
        let registry = Registry::new();
        let handle = with_registry(&registry, || current_registry().expect("installed"));
        handle.apply(&[Update::Counter(names::SERVE_REQUESTS, 3)], |_, _| {});
        assert_eq!(registry.counter_value(names::SERVE_REQUESTS), 3);
    }

    #[test]
    fn track_identity_is_thread_count_invariant() {
        let run = |parallel: bool| {
            let tracer = Tracer::new();
            with_tracer(&tracer, || {
                span("job", || {
                    let ctx = capture().expect("installed");
                    if parallel {
                        std::thread::scope(|scope| {
                            for i in 0..4u64 {
                                let ctx = &ctx;
                                scope.spawn(move || {
                                    ctx.run(|| {
                                        with_track(i, || span("task", || instant("t")));
                                    });
                                });
                            }
                        });
                    } else {
                        for i in 0..4u64 {
                            with_track(i, || span("task", || instant("t")));
                        }
                    }
                });
            });
            tracer.export_collapsed(TimeBase::Logical)
        };
        assert_eq!(run(false), run(true));
    }

    /// Every kind of update, with names first seen mid-slice, a name
    /// repeated within one slice, and a deterministic update to a
    /// counter an earlier update flagged volatile.
    const MIXED: [Update<'static>; 12] = [
        Update::Counter("test.a", 2),
        Update::ObserveHdr("test.lat", 81),
        Update::Counter("test.a", 3),
        Update::CounterVolatile("test.vol", 5),
        Update::Gauge("test.g", -4),
        Update::GaugeVolatile("test.vg", 9),
        Update::Observe("test.sizes", 100),
        Update::ObserveVolatile("test.real", 7),
        Update::ObserveHdrVolatile("test.vlat", 3),
        Update::Counter("test.b", 1),
        Update::ObserveHdr("test.lat", 5),
        Update::Counter("test.vol", 1),
    ];

    /// Records one update through its one-call facade.
    fn facade(update: Update<'_>) {
        match update {
            Update::Counter(name, value) => counter(name, value),
            Update::CounterVolatile(name, value) => counter_volatile(name, value),
            Update::Gauge(name, value) => gauge(name, value),
            Update::GaugeVolatile(name, value) => gauge_volatile(name, value),
            Update::Observe(name, value) => observe(name, value),
            Update::ObserveVolatile(name, value) => observe_volatile(name, value),
            Update::ObserveHdr(name, value) => observe_hdr(name, value),
            Update::ObserveHdrVolatile(name, value) => observe_hdr_volatile(name, value),
        }
    }

    /// The Chrome export without its wall-clock `ts` fields: what is
    /// left is each track's events, in order, with logical stamps.
    fn without_wall_time(chrome: &str) -> String {
        chrome
            .lines()
            .map(|line| match line.find("\"ts\": ") {
                Some(at) => {
                    let rest = &line[at..];
                    let end = rest.find(", ").expect("ts is followed by a field");
                    format!("{}{}", &line[..at], &rest[end + 2..])
                }
                None => line.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The four registry renderings and the tracer's ordered events after
    /// two passes over [`MIXED`] (the second finds every name known),
    /// recorded in slices of `chunk` updates; 0 goes through the facades.
    fn rendered(chunk: usize) -> [String; 5] {
        let registry = Registry::new();
        let tracer = Tracer::new();
        with_tracer(&tracer, || {
            with_registry(&registry, || {
                for _ in 0..2 {
                    if chunk == 0 {
                        MIXED.iter().copied().for_each(facade);
                    } else {
                        MIXED.chunks(chunk).for_each(record);
                    }
                }
            })
        });
        [
            registry.snapshot_json(true),
            registry.snapshot_json(false),
            registry.render_prometheus(true),
            registry.render_prometheus(false),
            without_wall_time(&tracer.export_chrome()),
        ]
    }

    #[test]
    fn record_slices_render_like_one_update_at_a_time() {
        let reference = rendered(0);
        assert!(reference[0].contains("\"test.a\": 10"), "{}", reference[0]);
        assert!(reference[0].contains("\"test.vol\": 0"), "{}", reference[0]);
        assert_eq!(reference[4].matches("\"ph\": \"C\"").count(), 8);
        for chunk in [1, 2, 5, MIXED.len()] {
            assert_eq!(rendered(chunk), reference, "slices of {chunk}");
        }
    }

    #[test]
    fn record_without_a_registry_samples_only_declared_counters() {
        let tracer = Tracer::new();
        with_tracer(&tracer, || record(&MIXED));
        let folded = tracer.export_collapsed(TimeBase::Logical);
        assert_eq!(folded, "test.a 2\ntest.b 1\ntest.vol 1\n");
        record(&MIXED);
    }
}
