//! Metric storage and deterministic JSON export.
//!
//! All state lives behind one mutex in `BTreeMap`s, so export order is
//! the lexicographic key order regardless of insertion or thread
//! interleaving. Exported values are integers only — no floats — so the
//! rendered JSON is byte-stable.
//!
//! Recording is cheapest for a name seen before: its cell is updated in
//! place under the lock, with no name check and no allocation. Only a
//! name's first record runs the declared-name guard and allocates the
//! key, so a registry only ever holds declared names. Every update goes
//! through [`Registry::apply`], which takes a slice of them under one
//! lock.

use crate::hdr::LogLinearHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Upper bounds of the fixed histogram bucket layout: powers of two from
/// 1 to 2^40, plus an implicit overflow bucket. Fixed so histograms from
/// different runs always have comparable shapes.
pub const POW2_BUCKET_BOUNDS: [u64; 41] = {
    let mut bounds = [0u64; 41];
    let mut i = 0;
    while i < 41 {
        bounds[i] = 1u64 << i;
        i += 1;
    }
    bounds
};

/// Index of the pow2 bucket holding `value`: the first bound at or above
/// it, or the overflow slot past the last bound. `value - 1` has its
/// highest set bit just below the bound's, so the leading zeros find it
/// without scanning the bounds.
#[inline]
fn pow2_bucket(value: u64) -> usize {
    let bits = u64::BITS - value.saturating_sub(1).leading_zeros();
    (bits as usize).min(POW2_BUCKET_BOUNDS.len())
}

/// One metric update, as [`crate::record`] takes them in a slice. Each
/// kind records exactly what its one-call facade does (`Counter` is
/// [`crate::counter`], `ObserveHdr` is [`crate::observe_hdr`], and so
/// on); the volatile kinds flag their metric volatile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update<'a> {
    /// Adds to a deterministic counter.
    Counter(&'a str, u64),
    /// Adds to a volatile counter.
    CounterVolatile(&'a str, u64),
    /// Sets a deterministic gauge.
    Gauge(&'a str, i64),
    /// Sets a volatile gauge.
    GaugeVolatile(&'a str, i64),
    /// Records into a deterministic power-of-two histogram.
    Observe(&'a str, u64),
    /// Records into a volatile power-of-two histogram.
    ObserveVolatile(&'a str, u64),
    /// Records into a deterministic log-linear histogram.
    ObserveHdr(&'a str, u64),
    /// Records into a volatile log-linear histogram.
    ObserveHdrVolatile(&'a str, u64),
}

impl Update<'_> {
    /// The metric the update records into.
    fn name(&self) -> &str {
        match *self {
            Update::Counter(name, _)
            | Update::CounterVolatile(name, _)
            | Update::Gauge(name, _)
            | Update::GaugeVolatile(name, _)
            | Update::Observe(name, _)
            | Update::ObserveVolatile(name, _)
            | Update::ObserveHdr(name, _)
            | Update::ObserveHdrVolatile(name, _) => name,
        }
    }
}

#[derive(Clone, Default)]
struct Counter {
    value: u64,
    volatile: bool,
}

#[derive(Clone, Default)]
struct Gauge {
    value: i64,
    volatile: bool,
}

#[derive(Clone)]
struct Histogram {
    /// `counts[i]` is the number of observations `<= POW2_BUCKET_BOUNDS[i]`
    /// and greater than the previous bound; the last slot is overflow.
    counts: [u64; POW2_BUCKET_BOUNDS.len() + 1],
    count: u64,
    sum: u64,
    volatile: bool,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; POW2_BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            volatile: false,
        }
    }
}

#[derive(Clone, Default)]
struct Span {
    calls: u64,
    total_ns: u64,
}

#[derive(Clone, Default)]
struct HdrCell {
    hist: LogLinearHistogram,
    volatile: bool,
}

#[derive(Default)]
struct State {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    hdr: BTreeMap<String, HdrCell>,
    spans: BTreeMap<String, Span>,
}

/// `name`'s cell in `section`: the existing one, or with `create` a new
/// default cell. `None` when the name has no cell and `create` is off.
fn cell<'s, T: Default>(
    section: &'s mut BTreeMap<String, T>,
    name: &str,
    create: bool,
) -> Option<&'s mut T> {
    if create {
        return Some(section.entry(name.to_string()).or_default());
    }
    section.get_mut(name)
}

impl State {
    /// Applies `update` to its cell. A name without a cell is left alone
    /// and reads `false`, unless `create` makes the cell first.
    fn apply(&mut self, update: &Update<'_>, create: bool) -> bool {
        let volatile = matches!(
            update,
            Update::CounterVolatile(..)
                | Update::GaugeVolatile(..)
                | Update::ObserveVolatile(..)
                | Update::ObserveHdrVolatile(..)
        );
        match *update {
            Update::Counter(name, delta) | Update::CounterVolatile(name, delta) => {
                let Some(cell) = cell(&mut self.counters, name, create) else {
                    return false;
                };
                cell.value = cell.value.saturating_add(delta);
                cell.volatile |= volatile;
            }
            Update::Gauge(name, value) | Update::GaugeVolatile(name, value) => {
                let Some(cell) = cell(&mut self.gauges, name, create) else {
                    return false;
                };
                cell.value = value;
                cell.volatile |= volatile;
            }
            Update::Observe(name, value) | Update::ObserveVolatile(name, value) => {
                let Some(cell) = cell(&mut self.histograms, name, create) else {
                    return false;
                };
                cell.counts[pow2_bucket(value)] += 1;
                cell.count += 1;
                cell.sum = cell.sum.saturating_add(value);
                cell.volatile |= volatile;
            }
            Update::ObserveHdr(name, value) | Update::ObserveHdrVolatile(name, value) => {
                let Some(cell) = cell(&mut self.hdr, name, create) else {
                    return false;
                };
                cell.hist.record(value);
                cell.volatile |= volatile;
            }
        }
        true
    }
}

/// A metric registry. Cheap to clone (shared handle); safe to record
/// into from many threads at once.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<State>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Applies `updates` in slice order under one lock. A name recorded
    /// before is updated in place. The first record of a name runs the
    /// declared-name guard with the lock released (in debug builds the
    /// guard panics), then inserts it; an undeclared name is skipped.
    /// `recorded_counter` sees every deterministic counter update that
    /// was recorded, in slice order, with the lock held.
    pub(crate) fn apply(
        &self,
        updates: &[Update<'_>],
        mut recorded_counter: impl FnMut(&str, u64),
    ) {
        let mut state = self.inner.lock().unwrap();
        for update in updates {
            if !state.apply(update, false) {
                drop(state);
                let declared = crate::declared(update.name(), Some(self));
                state = self.inner.lock().unwrap();
                if !declared {
                    continue;
                }
                state.apply(update, true);
            }
            if let Update::Counter(name, delta) = *update {
                recorded_counter(name, delta);
            }
        }
    }

    pub(crate) fn span_record(&self, path: &str, elapsed_ns: u64) {
        let mut state = self.inner.lock().unwrap();
        let cell = state.spans.entry(path.to_string()).or_default();
        cell.calls += 1;
        cell.total_ns = cell.total_ns.saturating_add(elapsed_ns);
    }

    /// Reads a counter's current value (0 if never recorded). For tests
    /// and in-process assertions; exports should go through snapshots.
    pub fn counter_value(&self, name: &str) -> u64 {
        let state = self.inner.lock().unwrap();
        state.counters.get(name).map_or(0, |c| c.value)
    }

    /// Reads a quantile of a log-linear histogram previously fed through
    /// [`crate::observe_hdr`]. `None` if the histogram was never recorded.
    pub fn hdr_quantile(&self, name: &str, q: f64) -> Option<u64> {
        let state = self.inner.lock().unwrap();
        state.hdr.get(name).map(|cell| cell.hist.quantile(q))
    }

    /// Renders the registry as pretty-printed JSON with stable key order.
    ///
    /// With `no_timings`, every volatile field — span durations, volatile
    /// counters/gauges/histograms — renders as zero while its key stays
    /// in place, so two snapshots from runs that differ only in timing or
    /// worker scheduling are byte-identical.
    pub fn snapshot_json(&self, no_timings: bool) -> String {
        self.snapshot_json_indented(no_timings, 0)
    }

    /// Like [`Registry::snapshot_json`] but indented `level` steps (two
    /// spaces each) past the first line, for embedding inside a larger
    /// hand-built JSON document.
    pub fn snapshot_json_indented(&self, no_timings: bool, level: usize) -> String {
        let state = self.inner.lock().unwrap();
        let pad = "  ".repeat(level);
        let mut out = String::new();
        out.push_str("{\n");

        let render_u64 = |vol: bool, v: u64| if no_timings && vol { 0 } else { v };

        write!(out, "{pad}  \"counters\": {{").unwrap();
        for (i, (name, c)) in state.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n{pad}    {}: {}",
                json_string(name),
                render_u64(c.volatile, c.value)
            )
            .unwrap();
        }
        if state.counters.is_empty() {
            out.push_str("},\n");
        } else {
            write!(out, "\n{pad}  }},\n").unwrap();
        }

        write!(out, "{pad}  \"gauges\": {{").unwrap();
        for (i, (name, g)) in state.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = if no_timings && g.volatile { 0 } else { g.value };
            write!(out, "{sep}\n{pad}    {}: {}", json_string(name), value).unwrap();
        }
        if state.gauges.is_empty() {
            out.push_str("},\n");
        } else {
            write!(out, "\n{pad}  }},\n").unwrap();
        }

        write!(out, "{pad}  \"histograms\": {{").unwrap();
        for (i, (name, h)) in state.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let zero = no_timings && h.volatile;
            write!(
                out,
                "{sep}\n{pad}    {}: {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json_string(name),
                render_u64(zero, h.count),
                render_u64(zero, h.sum)
            )
            .unwrap();
            if !zero {
                // Only non-empty buckets, as [upper_bound, count] pairs;
                // the overflow bucket uses bound 0 as a sentinel.
                let mut first = true;
                for (b, &count) in h.counts.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    let bound = POW2_BUCKET_BOUNDS.get(b).copied().unwrap_or(0);
                    if !first {
                        out.push_str(", ");
                    }
                    write!(out, "[{bound}, {count}]").unwrap();
                    first = false;
                }
            }
            out.push_str("]}");
        }
        if state.histograms.is_empty() {
            out.push_str("},\n");
        } else {
            write!(out, "\n{pad}  }},\n").unwrap();
        }

        write!(out, "{pad}  \"hdr\": {{").unwrap();
        for (i, (name, cell)) in state.hdr.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let zero = no_timings && cell.volatile;
            write!(
                out,
                "{sep}\n{pad}    {}: {{\"count\": {}, \"sum\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"buckets\": [",
                json_string(name),
                render_u64(zero, cell.hist.count()),
                render_u64(zero, cell.hist.sum()),
                render_u64(zero, cell.hist.p50()),
                render_u64(zero, cell.hist.p90()),
                render_u64(zero, cell.hist.p99()),
                render_u64(zero, cell.hist.p999()),
            )
            .unwrap();
            if !zero {
                for (b, (upper, count)) in cell.hist.buckets().enumerate() {
                    if b > 0 {
                        out.push_str(", ");
                    }
                    write!(out, "[{upper}, {count}]").unwrap();
                }
            }
            out.push_str("]}");
        }
        if state.hdr.is_empty() {
            out.push_str("},\n");
        } else {
            write!(out, "\n{pad}  }},\n").unwrap();
        }

        write!(out, "{pad}  \"spans\": {{").unwrap();
        for (i, (path, s)) in state.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n{pad}    {}: {{\"calls\": {}, \"total_ns\": {}}}",
                json_string(path),
                s.calls,
                render_u64(true, s.total_ns)
            )
            .unwrap();
        }
        if state.spans.is_empty() {
            out.push('}');
        } else {
            write!(out, "\n{pad}  }}").unwrap();
        }

        write!(out, "\n{pad}}}").unwrap();
        out
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4).
    ///
    /// Guarantees:
    /// * **Deterministic ordering** — sections render counters, gauges,
    ///   pow-2 histograms, log-linear histograms, spans; metric names
    ///   within a section come out in `BTreeMap` (lexicographic) order.
    /// * **Volatility flagging** — every volatile metric carries a
    ///   `# CLASS <name> volatile` comment line so scrapers can tell
    ///   timing-dependent series from deterministic ones.
    /// * **Cumulative histograms** — `_bucket{le="..."}` counts are
    ///   cumulative and the `le="+Inf"` sample always equals `_count`.
    ///
    /// With `no_timings`, volatile values render as zero (keys stay), so
    /// the exposition is byte-identical across thread counts and runs.
    pub fn render_prometheus(&self, no_timings: bool) -> String {
        let state = self.inner.lock().unwrap();
        let mut out = String::new();
        let render_u64 = |vol: bool, v: u64| if no_timings && vol { 0 } else { v };

        for (name, c) in &state.counters {
            let pname = prometheus_name(name);
            writeln!(out, "# TYPE {pname} counter").unwrap();
            if c.volatile {
                writeln!(out, "# CLASS {pname} volatile").unwrap();
            }
            writeln!(out, "{pname} {}", render_u64(c.volatile, c.value)).unwrap();
        }

        for (name, g) in &state.gauges {
            let pname = prometheus_name(name);
            writeln!(out, "# TYPE {pname} gauge").unwrap();
            if g.volatile {
                writeln!(out, "# CLASS {pname} volatile").unwrap();
            }
            let value = if no_timings && g.volatile { 0 } else { g.value };
            writeln!(out, "{pname} {value}").unwrap();
        }

        for (name, h) in &state.histograms {
            let pname = prometheus_name(name);
            let zero = no_timings && h.volatile;
            writeln!(out, "# TYPE {pname} histogram").unwrap();
            if h.volatile {
                writeln!(out, "# CLASS {pname} volatile").unwrap();
            }
            let mut running = 0u64;
            if !zero {
                for (b, &count) in h.counts.iter().enumerate() {
                    if count == 0 || b >= POW2_BUCKET_BOUNDS.len() {
                        continue; // overflow folds into +Inf below
                    }
                    running += count;
                    writeln!(
                        out,
                        "{pname}_bucket{{le=\"{}\"}} {running}",
                        POW2_BUCKET_BOUNDS[b]
                    )
                    .unwrap();
                }
            }
            let total = render_u64(zero, h.count);
            writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {total}").unwrap();
            writeln!(out, "{pname}_sum {}", render_u64(zero, h.sum)).unwrap();
            writeln!(out, "{pname}_count {total}").unwrap();
        }

        for (name, cell) in &state.hdr {
            let pname = prometheus_name(name);
            let zero = no_timings && cell.volatile;
            writeln!(out, "# TYPE {pname} histogram").unwrap();
            if cell.volatile {
                writeln!(out, "# CLASS {pname} volatile").unwrap();
            }
            let mut running = 0u64;
            if !zero {
                for (upper, count) in cell.hist.buckets() {
                    running += count;
                    writeln!(out, "{pname}_bucket{{le=\"{upper}\"}} {running}").unwrap();
                }
            }
            let total = render_u64(zero, cell.hist.count());
            writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {total}").unwrap();
            writeln!(out, "{pname}_sum {}", render_u64(zero, cell.hist.sum())).unwrap();
            writeln!(out, "{pname}_count {total}").unwrap();
        }

        for (path, s) in &state.spans {
            let pname = prometheus_name(path);
            writeln!(out, "# TYPE {pname}_calls counter").unwrap();
            writeln!(out, "{pname}_calls {}", s.calls).unwrap();
            // Wall-clock span time is inherently volatile.
            writeln!(out, "# TYPE {pname}_ns counter").unwrap();
            writeln!(out, "# CLASS {pname}_ns volatile").unwrap();
            writeln!(out, "{pname}_ns {}", render_u64(true, s.total_ns)).unwrap();
        }

        out
    }
}

/// Maps a metric name onto the Prometheus identifier charset
/// `[a-zA-Z0-9_:]`: every other character (dots, slashes, dashes)
/// becomes `_`, and a leading digit gains a `_` prefix.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let valid = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if valid { ch } else { '_' });
    }
    out
}

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline per the text exposition format.
pub fn prometheus_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a JSON string literal (quotes + escapes).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies one update, as the one-call facades do.
    fn rec(registry: &Registry, update: Update<'_>) {
        registry.apply(&[update], |_, _| {});
    }

    #[test]
    fn pow2_bucket_matches_the_bound_scan() {
        let scan = |value: u64| {
            POW2_BUCKET_BOUNDS
                .iter()
                .position(|&bound| value <= bound)
                .unwrap_or(POW2_BUCKET_BOUNDS.len())
        };
        let mut values = vec![0, 1, u64::MAX];
        for k in 0..=41 {
            let power = 1u64 << k;
            values.extend([power - 1, power, power + 1]);
        }
        for value in values {
            assert_eq!(pow2_bucket(value), scan(value), "value {value}");
        }
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(POW2_BUCKET_BOUNDS[0], 1);
        assert_eq!(POW2_BUCKET_BOUNDS[10], 1024);
        assert_eq!(POW2_BUCKET_BOUNDS[40], 1u64 << 40);
    }

    #[test]
    fn histogram_buckets_values() {
        let r = Registry::new();
        rec(&r, Update::Observe("test.h", 0)); // <= 1
        rec(&r, Update::Observe("test.h", 1)); // <= 1
        rec(&r, Update::Observe("test.h", 2)); // <= 2
        rec(&r, Update::Observe("test.h", 3)); // <= 4
        rec(&r, Update::Observe("test.h", u64::MAX)); // overflow
        let json = r.snapshot_json(false);
        assert!(json.contains("[1, 2]"), "two obs in first bucket: {json}");
        assert!(json.contains("[2, 1]"));
        assert!(json.contains("[4, 1]"));
        assert!(json.contains("[0, 1]"), "overflow sentinel bound 0");
        assert!(json.contains("\"count\": 5"));
    }

    #[test]
    fn empty_registry_renders_valid_skeleton() {
        let json = Registry::new().snapshot_json(true);
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"spans\": {}"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn counter_value_reads_back() {
        let r = Registry::new();
        rec(&r, Update::Counter("test.x", 3));
        rec(&r, Update::Counter("test.x", 4));
        assert_eq!(r.counter_value("test.x"), 7);
        assert_eq!(r.counter_value("missing"), 0);
    }

    #[test]
    fn hdr_section_renders_quantiles_and_buckets() {
        let r = Registry::new();
        for v in [1u64, 2, 3, 81] {
            rec(&r, Update::ObserveHdr("test.lat", v));
        }
        let json = r.snapshot_json(false);
        assert!(json.contains("\"hdr\": {"), "{json}");
        assert!(json.contains("\"p99\": 81"), "{json}");
        assert!(json.contains("[81, 1]"), "{json}");
        assert_eq!(r.hdr_quantile("test.lat", 0.5), Some(2));
        assert_eq!(r.hdr_quantile("missing", 0.5), None);
    }

    #[test]
    fn hdr_volatile_zeroes_under_no_timings() {
        let r = Registry::new();
        rec(&r, Update::ObserveHdrVolatile("test.vlat", 100));
        let json = r.snapshot_json(true);
        assert!(
            json.contains("\"test.vlat\": {\"count\": 0, \"sum\": 0"),
            "{json}"
        );
        assert!(json.contains("\"buckets\": []"), "{json}");
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("serve.latency.p99"), "serve_latency_p99");
        assert_eq!(prometheus_name("a/b-c"), "a_b_c");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:x"), "ok_name:x");
    }

    #[test]
    fn prometheus_escape_handles_backslash_quote_newline() {
        assert_eq!(prometheus_escape(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(prometheus_escape("line\nbreak"), "line\\nbreak");
        assert_eq!(prometheus_escape("plain"), "plain");
    }

    #[test]
    fn prometheus_exposition_orders_sections_and_flags_volatile() {
        let r = Registry::new();
        rec(&r, Update::Counter("test.b.count", 2));
        rec(&r, Update::CounterVolatile("test.a.count", 1));
        rec(&r, Update::Gauge("test.depth", 7));
        rec(&r, Update::Observe("test.h.sizes", 3));
        rec(&r, Update::ObserveHdr("test.lat", 81));
        r.span_record("outer/inner", 999);
        let text = r.render_prometheus(false);
        // Lexicographic within a section, counters before gauges before
        // histograms before hdr before spans.
        let order = [
            "test_a_count 1",
            "test_b_count 2",
            "test_depth 7",
            "test_h_sizes_count 1",
            "test_lat_count 1",
            "outer_inner_calls 1",
        ];
        let mut at = 0;
        for needle in order {
            let pos = text[at..]
                .find(needle)
                .unwrap_or_else(|| panic!("{needle} missing or out of order:\n{text}"));
            at += pos;
        }
        assert!(text.contains("# CLASS test_a_count volatile"), "{text}");
        assert!(
            !text.contains("# CLASS test_b_count"),
            "deterministic metrics carry no CLASS line:\n{text}"
        );
        assert!(text.contains("# TYPE test_depth gauge"), "{text}");
        assert!(text.contains("# CLASS outer_inner_ns volatile"), "{text}");
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_inf_matches_count() {
        let r = Registry::new();
        for v in [1u64, 1, 2, 3, 100, u64::MAX] {
            rec(&r, Update::Observe("test.h", v));
            rec(&r, Update::ObserveHdr("test.lat", v));
        }
        let text = r.render_prometheus(false);
        for metric in ["test_h", "test_lat"] {
            let mut last = 0u64;
            let mut inf = None;
            let mut count = None;
            for line in text.lines() {
                if let Some(rest) = line.strip_prefix(&format!("{metric}_bucket{{le=\"")) {
                    let (le, tail) = rest.split_once("\"} ").expect("bucket line shape");
                    let v: u64 = tail.trim().parse().expect("bucket count");
                    if le == "+Inf" {
                        inf = Some(v);
                    } else {
                        assert!(v >= last, "non-monotone cumulative bucket in {metric}");
                        last = v;
                    }
                } else if let Some(rest) = line.strip_prefix(&format!("{metric}_count ")) {
                    count = Some(rest.trim().parse::<u64>().expect("count"));
                }
            }
            assert_eq!(inf, Some(6), "{metric} +Inf must cover overflow too");
            assert_eq!(inf, count, "{metric} le=+Inf must equal _count");
        }
    }

    #[test]
    fn prometheus_no_timings_is_byte_identical_across_interleavings() {
        // Record the same multiset of metrics from different thread
        // interleavings; with no_timings the exposition must come out
        // byte-identical (volatile values zeroed, order lexicographic).
        let run = |threads: usize| {
            let r = Registry::new();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let r = r.clone();
                    scope.spawn(move || {
                        for i in 0..100u64 {
                            if i % threads as u64 == t as u64 {
                                rec(&r, Update::Counter("test.det", 1));
                                rec(&r, Update::CounterVolatile("test.vol", i));
                                rec(&r, Update::ObserveHdr("test.lat", i));
                                rec(&r, Update::Observe("test.sizes", i));
                            }
                        }
                    });
                }
            });
            r.render_prometheus(true)
        };
        let reference = run(1);
        assert_eq!(reference, run(2));
        assert_eq!(reference, run(8));
        assert!(reference.contains("test_vol 0"), "{reference}");
        assert!(reference.contains("test_det 100"), "{reference}");
    }
}
