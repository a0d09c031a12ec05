//! Process-wide instrumentation: spans, counters and log-scale duration
//! histograms for the trial pipeline and everything built on top of it.
//!
//! The collector is a single process-global singleton guarded by one
//! atomic `enabled` flag. **When disabled — the default — instrumentation
//! is overhead-free**: every entry point performs one relaxed atomic load
//! and returns without allocating, locking or reading the clock. Spans on
//! the disabled path are inert zero-sized guards.
//!
//! When enabled (via [`set_enabled`]), the collector records:
//!
//! * **spans** — named monotonic timings aggregated per name into count /
//!   total / min / max plus a log₂-nanosecond histogram (40 buckets cover
//!   1 ns … ~9 minutes), and
//! * **trace events** — the individual span intervals, exportable as a
//!   Chrome trace-event JSON file loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev) (capped; the cap is reported as
//!   a dropped-event count, never an error), and
//! * **counters** — named monotonically increasing totals.
//!
//! Telemetry never touches experiment outputs: wall-clock data lives only
//! in the metrics / trace exports produced from [`snapshot`], never in
//! archived reports, so every byte-identity guarantee holds with
//! telemetry on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{u64_to_json, JsonValue};

/// Format tag written into the `--metrics` summary document.
pub const METRICS_FORMAT: &str = "ivc-metrics-v1";

/// Span covering one whole Prepare stage (cell-invariant work).
pub const SPAN_STAGE_PREPARE: &str = "stage.prepare";
/// Span covering one whole Perturb stage (per-trial randomness).
pub const SPAN_STAGE_PERTURB: &str = "stage.perturb";
/// Span covering one whole Evaluate stage (recognition + defense).
pub const SPAN_STAGE_EVALUATE: &str = "stage.evaluate";

/// Number of log₂-ns histogram buckets: bucket `i` holds durations with
/// `floor(log2(ns)) == i`, so bucket 39 starts at 2³⁹ ns ≈ 9.2 minutes.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Cap on buffered trace events; beyond it events are counted as dropped
/// rather than stored, bounding memory on long campaigns.
const MAX_TRACE_EVENTS: usize = 262_144;

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// How many spans closed under this name.
    pub count: u64,
    /// Sum of all span durations, in nanoseconds.
    pub total_ns: u64,
    /// Shortest observed duration, in nanoseconds.
    pub min_ns: u64,
    /// Longest observed duration, in nanoseconds.
    pub max_ns: u64,
    /// Log₂-nanosecond histogram of durations (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl SpanStat {
    fn new() -> SpanStat {
        SpanStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_index(ns)] += 1;
    }

    /// Mean duration in nanoseconds (0 when no spans were recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Fold another aggregate into this one: counts and totals add
    /// (saturating, so two accepted documents never overflow), min/max
    /// widen, histograms add bucket-wise. This is the span half of
    /// [`Snapshot::merge`].
    pub fn absorb(&mut self, other: &SpanStat) {
        self.count = self.count.saturating_add(other.count);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the log₂ histogram:
    /// the bucket holding the rank-`⌈q·count⌉` duration, linearly
    /// interpolated across the bucket's `[2^i, 2^(i+1))` range and clamped
    /// to the observed min/max. Returns 0 when nothing was recorded.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            if seen.saturating_add(in_bucket) >= target {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = (1u64 << (i + 1)) - 1;
                let frac = (target - seen) as f64 / in_bucket as f64;
                let estimate = (lo as f64 + frac * (hi - lo) as f64) as u64;
                return estimate.clamp(self.min_ns, self.max_ns);
            }
            seen = seen.saturating_add(in_bucket);
        }
        self.max_ns
    }

    /// Median estimate from the histogram (see [`SpanStat::percentile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(0.50)
    }

    /// 90th-percentile estimate from the histogram.
    pub fn p90_ns(&self) -> u64 {
        self.percentile_ns(0.90)
    }

    /// 99th-percentile estimate from the histogram.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(0.99)
    }
}

/// Histogram bucket for a duration: `floor(log2(ns))`, clamped so that
/// sub-nanosecond readings land in bucket 0 and everything above ~9
/// minutes lands in the last bucket.
pub fn bucket_index(ns: u64) -> usize {
    let bits = 63 - ns.max(1).leading_zeros() as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// One closed span interval, kept for trace export.
#[derive(Debug, Clone)]
struct TraceEvent {
    name: &'static str,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Everything the collector accumulates while enabled.
struct Inner {
    /// Time origin for trace timestamps; reset with the collector.
    epoch: Instant,
    /// Per-name aggregates, small enough for a linear scan.
    spans: Vec<(&'static str, SpanStat)>,
    /// Named counters.
    counters: Vec<(&'static str, u64)>,
    /// Individual intervals for trace export, capped.
    events: Vec<TraceEvent>,
    /// Events discarded once `events` hit [`MAX_TRACE_EVENTS`].
    dropped_events: u64,
}

impl Inner {
    fn new() -> Inner {
        Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
            events: Vec::new(),
            dropped_events: 0,
        }
    }
}

struct Collector {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        enabled: AtomicBool::new(false),
        inner: Mutex::new(Inner::new()),
    })
}

/// Monotonic per-thread identifier for trace lanes (thread 1, 2, ...
/// in order of first instrumentation touch).
fn thread_lane() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LANE: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|lane| *lane)
}

/// Turn collection on or off. Disabling does not clear accumulated data;
/// use [`reset`] for that.
pub fn set_enabled(enabled: bool) {
    collector().enabled.store(enabled, Ordering::Relaxed);
}

/// Whether the collector is currently recording.
pub fn is_enabled() -> bool {
    collector().enabled.load(Ordering::Relaxed)
}

/// Clear all accumulated spans, counters and trace events and restart the
/// trace clock at zero.
pub fn reset() {
    let mut inner = collector().inner.lock().expect("telemetry poisoned");
    *inner = Inner::new();
}

/// Start a span. Records its duration (and a trace interval) when the
/// returned guard drops. On the disabled path this performs one relaxed
/// atomic load and allocates nothing.
#[must_use = "a span measures until it is dropped"]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span { active: None };
    }
    Span {
        active: Some(ActiveSpan {
            name,
            start: Instant::now(),
        }),
    }
}

/// Add `n` to the named counter. A single relaxed load and no work when
/// disabled.
pub fn add_count(name: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    let mut inner = collector().inner.lock().expect("telemetry poisoned");
    match inner.counters.iter_mut().find(|(k, _)| *k == name) {
        Some((_, v)) => *v += n,
        None => inner.counters.push((name, n)),
    }
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
}

/// Guard returned by [`span`]; measures from creation to drop.
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end = Instant::now();
        let dur_ns = end.duration_since(active.start).as_nanos() as u64;
        let tid = thread_lane();
        let mut inner = collector().inner.lock().expect("telemetry poisoned");
        let start_ns = active.start.duration_since(inner.epoch).as_nanos() as u64;
        match inner.spans.iter_mut().find(|(k, _)| *k == active.name) {
            Some((_, stat)) => stat.record(dur_ns),
            None => {
                let mut stat = SpanStat::new();
                stat.record(dur_ns);
                inner.spans.push((active.name, stat));
            }
        }
        if inner.events.len() < MAX_TRACE_EVENTS {
            inner.events.push(TraceEvent {
                name: active.name,
                tid,
                start_ns,
                dur_ns,
            });
        } else {
            inner.dropped_events += 1;
        }
    }
}

/// A point-in-time copy of everything the collector has accumulated,
/// with spans and counters sorted by name for deterministic export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-name span aggregates, sorted by name.
    pub spans: Vec<(String, SpanStat)>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Trace intervals `(name, thread lane, start ns, duration ns)` in
    /// completion order.
    pub events: Vec<(String, u64, u64, u64)>,
    /// Trace intervals discarded after the buffer cap was reached.
    pub dropped_events: u64,
    /// Provenance of a merged fleet document: `(source label, spans
    /// contributed)` per process, sorted by label. Empty for a plain
    /// single-process snapshot; [`Snapshot::with_source`] seeds it and
    /// [`Snapshot::merge`] unions it.
    pub sources: Vec<(String, u64)>,
}

/// Copy out the collector's current contents.
pub fn snapshot() -> Snapshot {
    let inner = collector().inner.lock().expect("telemetry poisoned");
    let mut spans: Vec<(String, SpanStat)> = inner
        .spans
        .iter()
        .map(|(name, stat)| (name.to_string(), stat.clone()))
        .collect();
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    let mut counters: Vec<(String, u64)> = inner
        .counters
        .iter()
        .map(|(name, v)| (name.to_string(), *v))
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    let events = inner
        .events
        .iter()
        .map(|e| (e.name.to_string(), e.tid, e.start_ns, e.dur_ns))
        .collect();
    Snapshot {
        spans,
        counters,
        events,
        dropped_events: inner.dropped_events,
        sources: Vec::new(),
    }
}

impl Snapshot {
    /// Look up one span aggregate by name.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, stat)| stat)
    }

    /// Look up one counter by name (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The `ivc-metrics-v1` summary document: per-span aggregates with
    /// histograms, counters, and the measured wall clock.
    pub fn metrics_json(&self, wall_s: f64) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|(name, stat)| {
                let first = stat.buckets.iter().position(|&b| b != 0).unwrap_or(0);
                let last = stat
                    .buckets
                    .iter()
                    .rposition(|&b| b != 0)
                    .unwrap_or_else(|| first.saturating_sub(1));
                let buckets: Vec<JsonValue> = stat.buckets[first..=last.max(first)]
                    .iter()
                    .map(|&b| u64_to_json(b))
                    .collect();
                JsonValue::Object(vec![
                    ("name".to_string(), JsonValue::string(name.clone())),
                    ("count".to_string(), u64_to_json(stat.count)),
                    ("total_ns".to_string(), u64_to_json(stat.total_ns)),
                    ("mean_ns".to_string(), u64_to_json(stat.mean_ns())),
                    ("min_ns".to_string(), u64_to_json(stat.min_ns)),
                    ("max_ns".to_string(), u64_to_json(stat.max_ns)),
                    ("p50_ns".to_string(), u64_to_json(stat.p50_ns())),
                    ("p90_ns".to_string(), u64_to_json(stat.p90_ns())),
                    ("p99_ns".to_string(), u64_to_json(stat.p99_ns())),
                    (
                        "histogram_log2_ns_offset".to_string(),
                        u64_to_json(first as u64),
                    ),
                    ("histogram_log2_ns".to_string(), JsonValue::Array(buckets)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| {
                JsonValue::Object(vec![
                    ("name".to_string(), JsonValue::string(name.clone())),
                    ("value".to_string(), u64_to_json(*v)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("format".to_string(), JsonValue::string(METRICS_FORMAT)),
            ("wall_s".to_string(), JsonValue::number(wall_s)),
            ("spans".to_string(), JsonValue::Array(spans)),
            ("counters".to_string(), JsonValue::Array(counters)),
        ];
        if !self.sources.is_empty() {
            let sources = self
                .sources
                .iter()
                .map(|(name, spans)| {
                    JsonValue::Object(vec![
                        ("name".to_string(), JsonValue::string(name.clone())),
                        ("spans".to_string(), u64_to_json(*spans)),
                    ])
                })
                .collect();
            fields.push(("sources".to_string(), JsonValue::Array(sources)));
        }
        fields.push((
            "dropped_trace_events".to_string(),
            u64_to_json(self.dropped_events),
        ));
        JsonValue::Object(fields)
    }

    /// Parse an `ivc-metrics-v1` document back into a snapshot, inverting
    /// [`Snapshot::metrics_json`]: trimmed histograms are re-expanded to
    /// the full [`HISTOGRAM_BUCKETS`] width and validated against the span
    /// count. Trace events are process-local and are not part of the
    /// metrics document, so the parsed snapshot has none.
    pub fn from_metrics_json(doc: &JsonValue) -> crate::Result<Snapshot> {
        let format = doc.get("format").and_then(JsonValue::as_str);
        if format != Some(METRICS_FORMAT) {
            return Err(format!(
                "not an {METRICS_FORMAT} document (format: {})",
                format.unwrap_or("missing")
            )
            .into());
        }
        let need_u64 = |entry: &JsonValue, field: &str| -> crate::Result<u64> {
            entry
                .get(field)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("metrics span missing {field}").into())
        };
        let mut spans = Vec::new();
        for entry in doc
            .get("spans")
            .and_then(JsonValue::as_array)
            .ok_or("metrics document has no spans array")?
        {
            let name = entry
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metrics span missing name")?
                .to_string();
            let mut stat = SpanStat {
                count: need_u64(entry, "count")?,
                total_ns: need_u64(entry, "total_ns")?,
                min_ns: need_u64(entry, "min_ns")?,
                max_ns: need_u64(entry, "max_ns")?,
                buckets: [0; HISTOGRAM_BUCKETS],
            };
            let offset = need_u64(entry, "histogram_log2_ns_offset")?;
            let hist = entry
                .get("histogram_log2_ns")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("span '{name}' missing histogram_log2_ns"))?;
            let offset = usize::try_from(offset)
                .ok()
                .filter(|o| {
                    o.checked_add(hist.len())
                        .is_some_and(|end| end <= HISTOGRAM_BUCKETS)
                })
                .ok_or_else(|| {
                    format!("span '{name}' histogram spills past bucket {HISTOGRAM_BUCKETS}")
                })?;
            for (i, value) in hist.iter().enumerate() {
                stat.buckets[offset + i] = value
                    .as_u64()
                    .ok_or_else(|| format!("span '{name}' has a non-integer histogram bucket"))?;
            }
            let mass = stat
                .buckets
                .iter()
                .try_fold(0u64, |sum, &bucket| sum.checked_add(bucket));
            if mass != Some(stat.count) {
                return Err(
                    format!("span '{name}' histogram mass does not match its count").into(),
                );
            }
            spans.push((name, stat));
        }
        let mut counters = Vec::new();
        for entry in doc
            .get("counters")
            .and_then(JsonValue::as_array)
            .ok_or("metrics document has no counters array")?
        {
            let name = entry
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metrics counter missing name")?;
            let value = entry
                .get("value")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("counter '{name}' missing value"))?;
            counters.push((name.to_string(), value));
        }
        let mut sources = Vec::new();
        if let Some(entries) = doc.get("sources").and_then(JsonValue::as_array) {
            for entry in entries {
                let name = entry
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("metrics source missing name")?;
                let spans = entry
                    .get("spans")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("source '{name}' missing spans"))?;
                sources.push((name.to_string(), spans));
            }
        }
        Ok(Snapshot {
            spans,
            counters,
            events: Vec::new(),
            dropped_events: doc
                .get("dropped_trace_events")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            sources,
        })
    }

    /// Parse `ivc-metrics-v1` text (see [`Snapshot::from_metrics_json`]).
    pub fn parse_metrics(text: &str) -> crate::Result<Snapshot> {
        let doc = JsonValue::parse(text).map_err(|e| format!("metrics JSON: {e}"))?;
        Snapshot::from_metrics_json(&doc)
    }

    /// Seed provenance on a snapshot that has none: record `label` as the
    /// single source of every span so far. A snapshot that already carries
    /// provenance (a parsed or merged fleet document) is unchanged.
    pub fn with_source(mut self, label: &str) -> Snapshot {
        if self.sources.is_empty() {
            let spans = self
                .spans
                .iter()
                .fold(0, |sum: u64, (_, stat)| sum.saturating_add(stat.count));
            self.sources.push((label.to_string(), spans));
        }
        self
    }

    /// Fold another snapshot into this one, CRDT-style: span aggregates
    /// absorb name-wise ([`SpanStat::absorb`]), counters and per-source
    /// span counts sum name-wise, dropped-event counts add, and the result
    /// stays sorted — so merging is associative and commutative and
    /// preserves total span counts and histogram mass. Every sum saturates
    /// at `u64::MAX`, so no pair of parsed documents can overflow it.
    /// Trace events are process-local and do not merge: the merged
    /// snapshot is a metrics-level document with no events (export any
    /// trace *before* merging).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, stat) in &other.spans {
            match self.spans.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => mine.absorb(stat),
                None => self.spans.push((name.clone(), stat.clone())),
            }
        }
        self.spans.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, value) in &other.counters {
            match self.counters.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => *mine = mine.saturating_add(*value),
                None => self.counters.push((name.clone(), *value)),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, spans) in &other.sources {
            match self.sources.iter_mut().find(|(k, _)| k == name) {
                Some((_, mine)) => *mine = mine.saturating_add(*spans),
                None => self.sources.push((name.clone(), *spans)),
            }
        }
        self.sources.sort_by(|a, b| a.0.cmp(&b.0));
        self.dropped_events = self.dropped_events.saturating_add(other.dropped_events);
        self.events.clear();
    }

    /// A Chrome trace-event document (the `{"traceEvents": [...]}` shape
    /// understood by `chrome://tracing` and Perfetto): one complete
    /// (`"ph": "X"`) event per recorded span interval, timestamps and
    /// durations in microseconds.
    pub fn trace_json(&self) -> JsonValue {
        let events = self
            .events
            .iter()
            .map(|(name, tid, start_ns, dur_ns)| {
                JsonValue::Object(vec![
                    ("name".to_string(), JsonValue::string(name.clone())),
                    ("cat".to_string(), JsonValue::string("ivc")),
                    ("ph".to_string(), JsonValue::string("X")),
                    ("pid".to_string(), u64_to_json(1)),
                    ("tid".to_string(), u64_to_json(*tid)),
                    ("ts".to_string(), JsonValue::number(*start_ns as f64 / 1e3)),
                    ("dur".to_string(), JsonValue::number(*dur_ns as f64 / 1e3)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("traceEvents".to_string(), JsonValue::Array(events)),
            ("displayTimeUnit".to_string(), JsonValue::string("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is process-global; tests that enable it must not
    /// interleave, and stage/executor tests running concurrently may add
    /// their own span names — so these tests use `test.`-prefixed names
    /// and assert only on those.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bucket_index_is_floor_log2_clamped() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_and_stats_accumulate() {
        let mut stat = SpanStat::new();
        for ns in [1, 2, 3, 1024, 1_000_000] {
            stat.record(ns);
        }
        assert_eq!(stat.count, 5);
        assert_eq!(stat.total_ns, 1 + 2 + 3 + 1024 + 1_000_000);
        assert_eq!(stat.min_ns, 1);
        assert_eq!(stat.max_ns, 1_000_000);
        assert_eq!(stat.buckets[0], 1); // 1 ns
        assert_eq!(stat.buckets[1], 2); // 2 and 3 ns
        assert_eq!(stat.buckets[10], 1); // 1024 ns
        assert_eq!(stat.buckets[19], 1); // 1e6 ns in [2^19, 2^20)
        assert_eq!(stat.mean_ns(), stat.total_ns / 5);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let _gate = lock();
        set_enabled(false);
        reset();
        {
            let _span = span("test.disabled");
            add_count("test.disabled_counter", 3);
        }
        let snap = snapshot();
        assert!(snap.span("test.disabled").is_none());
        assert_eq!(snap.counter("test.disabled_counter"), 0);
        assert!(snap.events.iter().all(|(name, ..)| name != "test.disabled"));
    }

    #[test]
    fn enabled_collector_aggregates_spans_and_counters() {
        let _gate = lock();
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _span = span("test.work");
        }
        add_count("test.items", 2);
        add_count("test.items", 5);
        set_enabled(false);
        let snap = snapshot();
        let stat = snap.span("test.work").expect("span recorded");
        assert_eq!(stat.count, 3);
        assert!(stat.min_ns <= stat.max_ns);
        assert_eq!(stat.buckets.iter().sum::<u64>(), 3);
        assert_eq!(snap.counter("test.items"), 7);
        let test_events: Vec<_> = snap
            .events
            .iter()
            .filter(|(name, ..)| name == "test.work")
            .collect();
        assert_eq!(test_events.len(), 3);
    }

    #[test]
    fn metrics_json_round_trips_and_names_spans() {
        let _gate = lock();
        reset();
        set_enabled(true);
        {
            let _span = span("test.metrics");
        }
        add_count("test.metrics_counter", 4);
        set_enabled(false);
        let doc = snapshot().metrics_json(1.5);
        let text = doc.to_json_string_pretty();
        let parsed = JsonValue::parse(&text).expect("metrics JSON parses");
        assert_eq!(
            parsed.get("format").and_then(JsonValue::as_str),
            Some(METRICS_FORMAT)
        );
        assert_eq!(parsed.get("wall_s").and_then(JsonValue::as_f64), Some(1.5));
        let spans = parsed
            .get("spans")
            .and_then(JsonValue::as_array)
            .expect("spans array");
        let entry = spans
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some("test.metrics"))
            .expect("named span present");
        assert_eq!(entry.get("count").and_then(JsonValue::as_u64), Some(1));
        let hist = entry
            .get("histogram_log2_ns")
            .and_then(JsonValue::as_array)
            .expect("histogram present");
        assert_eq!(
            hist.iter().filter_map(JsonValue::as_u64).sum::<u64>(),
            1,
            "histogram holds exactly the one recorded span"
        );
        let counters = parsed
            .get("counters")
            .and_then(JsonValue::as_array)
            .expect("counters array");
        assert!(counters
            .iter()
            .any(
                |c| c.get("name").and_then(JsonValue::as_str) == Some("test.metrics_counter")
                    && c.get("value").and_then(JsonValue::as_u64) == Some(4)
            ));
    }

    #[test]
    fn trace_json_matches_the_chrome_trace_shape() {
        let _gate = lock();
        reset();
        set_enabled(true);
        {
            let _outer = span("test.trace_outer");
            let _inner = span("test.trace_inner");
        }
        set_enabled(false);
        let doc = snapshot().trace_json();
        let parsed = JsonValue::parse(&doc.to_json_string()).expect("trace JSON parses");
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(JsonValue::as_str),
            Some("ms")
        );
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        let ours: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("name")
                    .and_then(JsonValue::as_str)
                    .is_some_and(|n| n.starts_with("test.trace_"))
            })
            .collect();
        assert_eq!(ours.len(), 2);
        for event in ours {
            assert_eq!(event.get("ph").and_then(JsonValue::as_str), Some("X"));
            assert_eq!(event.get("cat").and_then(JsonValue::as_str), Some("ivc"));
            assert_eq!(event.get("pid").and_then(JsonValue::as_u64), Some(1));
            assert!(event.get("tid").and_then(JsonValue::as_u64).is_some());
            assert!(event.get("ts").and_then(JsonValue::as_f64).is_some());
            assert!(event
                .get("dur")
                .and_then(JsonValue::as_f64)
                .is_some_and(|d| d >= 0.0));
        }
    }

    #[test]
    fn percentiles_track_the_histogram() {
        let mut stat = SpanStat::new();
        for _ in 0..99 {
            stat.record(1_000); // bucket 9
        }
        stat.record(1_000_000); // bucket 19
        let p50 = stat.p50_ns();
        assert!(
            (512..2048).contains(&p50),
            "p50 must land in the dominant bucket, got {p50}"
        );
        assert!(stat.p90_ns() < 1_000_000);
        assert_eq!(
            stat.p99_ns(),
            stat.percentile_ns(0.99),
            "p99 helper matches the generic estimator"
        );
        // The single outlier is the 100th value: p100 == max.
        assert_eq!(stat.percentile_ns(1.0), 1_000_000);
        // A constant distribution estimates exactly, at every quantile.
        let mut constant = SpanStat::new();
        for _ in 0..7 {
            constant.record(4_096);
        }
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(constant.percentile_ns(q), 4_096);
        }
        assert_eq!(SpanStat::new().p50_ns(), 0, "empty stat estimates 0");
    }

    /// Hand-build an eventless snapshot for merge/parse tests.
    fn synthetic_snapshot(spans: &[(&str, &[u64])], counters: &[(&str, u64)]) -> Snapshot {
        let mut built: Vec<(String, SpanStat)> = Vec::new();
        for (name, durations) in spans {
            let mut stat = SpanStat::new();
            for &ns in *durations {
                stat.record(ns);
            }
            built.push((name.to_string(), stat));
        }
        built.sort_by(|a, b| a.0.cmp(&b.0));
        let mut counters: Vec<(String, u64)> = counters
            .iter()
            .map(|(name, v)| (name.to_string(), *v))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            spans: built,
            counters,
            events: Vec::new(),
            dropped_events: 0,
            sources: Vec::new(),
        }
    }

    #[test]
    fn merge_sums_spans_counters_and_provenance() {
        let mut left = synthetic_snapshot(
            &[("test.shared", &[10, 20]), ("test.left", &[5])],
            &[("test.counter", 3)],
        )
        .with_source("worker-a");
        let right = synthetic_snapshot(
            &[("test.shared", &[30]), ("test.right", &[7])],
            &[("test.counter", 4), ("test.other", 1)],
        )
        .with_source("worker-b");
        left.merge(&right);
        let shared = left.span("test.shared").expect("merged span");
        assert_eq!(shared.count, 3);
        assert_eq!(shared.total_ns, 60);
        assert_eq!(shared.min_ns, 10);
        assert_eq!(shared.max_ns, 30);
        assert_eq!(shared.buckets.iter().sum::<u64>(), 3);
        assert!(left.span("test.left").is_some());
        assert!(left.span("test.right").is_some());
        assert_eq!(left.counter("test.counter"), 7);
        assert_eq!(left.counter("test.other"), 1);
        assert_eq!(
            left.sources,
            vec![("worker-a".to_string(), 3), ("worker-b".to_string(), 2)]
        );
    }

    #[test]
    fn metrics_document_parses_back_to_the_same_snapshot() {
        let snap = synthetic_snapshot(
            &[("test.a", &[1, 2, 3, 1024]), ("test.b", &[1_000_000])],
            &[("test.n", 9)],
        )
        .with_source("worker-0");
        let text = snap.metrics_json(2.0).to_json_string_pretty();
        let parsed = Snapshot::parse_metrics(&text).expect("parses");
        assert_eq!(parsed, snap, "parse inverts metrics_json");

        // Two sidecars whose counters and span totals sit at u64::MAX
        // merge by saturating, never by panicking or wrapping.
        let mut huge = synthetic_snapshot(&[("test.a", &[1])], &[("test.n", u64::MAX)]);
        huge.spans[0].1.total_ns = u64::MAX;
        let text = huge.metrics_json(1.0).to_json_string();
        let mut fleet = Snapshot::parse_metrics(&text).expect("sidecar 0 parses");
        fleet.merge(&Snapshot::parse_metrics(&text).expect("sidecar 1 parses"));
        assert_eq!(fleet.counter("test.n"), u64::MAX);
        let span = fleet.span("test.a").expect("merged span");
        assert_eq!((span.count, span.total_ns), (2, u64::MAX));
    }

    #[test]
    fn metrics_parser_rejects_corrupt_documents() {
        let snap = synthetic_snapshot(&[("test.a", &[1, 2])], &[]);
        let doc = snap.metrics_json(1.0).to_json_string();
        assert!(
            Snapshot::parse_metrics("{}").is_err(),
            "format tag required"
        );
        let lying = doc.replace("\"count\":2", "\"count\":5");
        let err = Snapshot::parse_metrics(&lying).expect_err("mass mismatch");
        assert!(err.to_string().contains("histogram mass"), "{err}");

        // Hostile sidecars: an offset that overflows `offset + len`, and
        // buckets whose mass overflows u64 (it must not wrap to `count`).
        let hostile = |count: &str, offset: &str, buckets: &str| {
            format!(
                r#"{{"format":"{METRICS_FORMAT}","wall_s":1,"counters":[],"spans":[{{
                "name":"test.h","count":{count},"total_ns":1,"min_ns":1,"max_ns":1,
                "histogram_log2_ns_offset":{offset},"histogram_log2_ns":{buckets}}}]}}"#
            )
        };
        for (doc, needle) in [
            (
                hostile("1", r#""18446744073709551615""#, "[1]"),
                "spills past",
            ),
            (hostile("1", "40", "[1]"), "spills past"),
            (
                hostile("0", "0", r#"["18446744073709551615", 1]"#),
                "histogram mass",
            ),
        ] {
            let err = Snapshot::parse_metrics(&doc).expect_err("hostile sidecar");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn reset_clears_accumulated_data() {
        let _gate = lock();
        reset();
        set_enabled(true);
        {
            let _span = span("test.reset");
        }
        add_count("test.reset_counter", 1);
        reset();
        set_enabled(false);
        let snap = snapshot();
        assert!(snap.span("test.reset").is_none());
        assert_eq!(snap.counter("test.reset_counter"), 0);
    }
}
