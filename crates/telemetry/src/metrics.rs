//! The static metrics registry: atomic counters, gauges and fixed
//! log-bucket histograms, rendered as Prometheus text exposition
//! (`GET /metrics` on `cuba serve`) and snapshotted into the
//! `telemetry` block of `verify --json`.
//!
//! Everything is always on: an update is one relaxed atomic RMW, far
//! off the analysis decision paths, so observation can never move a
//! verdict. Labeled families (endpoint, stage) are fixed small
//! arrays — no allocation, no label interning.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const so the registry is a plain static).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A value that can go up and down (occupancy, in-flight work).
#[derive(Debug)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }
    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }
    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Power-of-two bucket bounds: `le = 1, 2, 4, …, 2^(BUCKETS-1)`,
/// plus the implicit `+Inf`. 28 buckets cover one microsecond to
/// ~134 seconds (or 1 to ~134M edges) — plenty for every family here.
pub const BUCKETS: usize = 28;

/// A fixed log-bucket histogram (count, sum, per-bucket counts).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// A zeroed histogram.
    pub const fn new() -> Self {
        // Repeat-of-const-item: each array slot gets a fresh atomic.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            count: ZERO,
            sum: ZERO,
            buckets: [ZERO; BUCKETS],
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // Index of the smallest bound >= value; values above the top
        // bound land only in +Inf (derived from `count` at render).
        let idx = if value <= 1 {
            0
        } else {
            (u64::BITS - (value - 1).leading_zeros()) as usize
        };
        if idx < BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Renders the `_bucket`/`_sum`/`_count` sample lines, cumulative
    /// per the exposition format, with `labels` spliced in (either
    /// empty or `key="value",` fragments — see [`render_label`]).
    fn render_into(&self, out: &mut String, name: &str, labels: &str) {
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = 1u64 << i;
            out.push_str(&format!(
                "{name}_bucket{{{labels}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{{{labels}le=\"+Inf\"}} {}\n",
            self.count()
        ));
        let trimmed = labels.trim_end_matches(',');
        let braces = if trimmed.is_empty() {
            String::new()
        } else {
            format!("{{{trimmed}}}")
        };
        out.push_str(&format!("{name}_sum{braces} {}\n", self.sum()));
        out.push_str(&format!("{name}_count{braces} {}\n", self.count()));
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The service endpoints with per-endpoint request metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /analyze`.
    Analyze,
    /// `POST /suite`.
    Suite,
    /// `GET /systems`.
    Systems,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /shutdown`.
    Shutdown,
    /// Anything else (404s, bad methods).
    Other,
}

/// How many endpoint labels exist.
pub const ENDPOINTS: usize = 7;

impl Endpoint {
    /// The label value in the exposition output.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Analyze => "analyze",
            Endpoint::Suite => "suite",
            Endpoint::Systems => "systems",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    /// Classifies a request path.
    pub fn from_path(path: &str) -> Endpoint {
        match path {
            "/analyze" => Endpoint::Analyze,
            "/suite" => Endpoint::Suite,
            "/systems" => Endpoint::Systems,
            "/healthz" => Endpoint::Healthz,
            "/metrics" => Endpoint::Metrics,
            "/shutdown" => Endpoint::Shutdown,
            _ => Endpoint::Other,
        }
    }

    const ALL: [Endpoint; ENDPOINTS] = [
        Endpoint::Analyze,
        Endpoint::Suite,
        Endpoint::Systems,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    fn index(self) -> usize {
        Endpoint::ALL
            .iter()
            .position(|e| *e == self)
            .expect("listed")
    }
}

/// The analysis stages with per-stage wall-time histograms. The
/// `saturate` window (time inside shared-exploration advances)
/// *contains* `merge` (the explicit engine's layer commits within it);
/// `check` is the remainder of a portfolio round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Saturation work: `SharedExplorer::ensure_layer` advances.
    Saturate,
    /// Everything else in a round: membership/convergence checks.
    Check,
    /// The explicit engine's layer commits.
    Merge,
}

/// How many stage labels exist.
pub const STAGES: usize = 3;

impl Stage {
    /// The label value in the exposition output.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Saturate => "saturate",
            Stage::Check => "check",
            Stage::Merge => "merge",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Every metric family of the process — one plain `static`, zero
/// initialization cost, no registration step.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Portfolio rounds that explored a fresh layer.
    pub rounds_explored: Counter,
    /// Portfolio rounds replayed from a shared exploration.
    pub rounds_replayed: Counter,
    /// Saturation waves: `post*` worklist runs, `pre*` fixpoint
    /// passes, and explicit layer rounds.
    pub waves: Counter,
    /// Never incremented: saturation is sequential. Kept because the
    /// `perfbench/` harness reads it; not exported to `/metrics`.
    pub steals: Counter,
    /// Frontier size (edges) per saturation wave.
    pub frontier_edges: Histogram,
    /// Suite-cache lookups that found the system.
    pub cache_hits: Counter,
    /// Suite-cache lookups that created a fresh entry.
    pub cache_misses: Counter,
    /// Static pre-analysis (reduce) passes run.
    pub reduce_passes: Counter,
    /// Trace events shed by a full thread buffer.
    pub trace_events_dropped: Counter,
    /// Layer-store snapshots written to disk.
    pub snapshot_saves: Counter,
    /// Layer-store snapshots restored from disk.
    pub snapshot_loads: Counter,
    /// Systems spilled to disk under `max_systems` pressure.
    pub snapshot_spills: Counter,
    /// Streaming sessions in flight right now.
    pub sessions_active: Gauge,
    /// Analysis worker slots currently occupied (`cuba serve`).
    pub workers_busy: Gauge,
    /// Requests served, per endpoint.
    pub http_requests: [Counter; ENDPOINTS],
    /// Request wall time in microseconds, per endpoint.
    pub http_duration_us: [Histogram; ENDPOINTS],
    /// Per-stage wall time in microseconds, per round.
    pub stage_duration_us: [Histogram; STAGES],
}

impl Metrics {
    const fn new() -> Self {
        // Repeat-of-const-item: each array slot gets a fresh metric.
        #[allow(clippy::declare_interior_mutable_const)]
        const C: Counter = Counter::new();
        #[allow(clippy::declare_interior_mutable_const)]
        const H: Histogram = Histogram::new();
        Metrics {
            rounds_explored: C,
            rounds_replayed: C,
            waves: C,
            steals: C,
            frontier_edges: H,
            cache_hits: C,
            cache_misses: C,
            reduce_passes: C,
            trace_events_dropped: C,
            snapshot_saves: C,
            snapshot_loads: C,
            snapshot_spills: C,
            sessions_active: Gauge::new(),
            workers_busy: Gauge::new(),
            http_requests: [C; ENDPOINTS],
            http_duration_us: [H; ENDPOINTS],
            stage_duration_us: [H; STAGES],
        }
    }

    /// The request counter for `endpoint`.
    pub fn http_requests(&self, endpoint: Endpoint) -> &Counter {
        &self.http_requests[endpoint.index()]
    }

    /// The latency histogram for `endpoint`.
    pub fn http_duration_us(&self, endpoint: Endpoint) -> &Histogram {
        &self.http_duration_us[endpoint.index()]
    }

    /// The wall-time histogram for `stage`.
    pub fn stage_duration_us(&self, stage: Stage) -> &Histogram {
        &self.stage_duration_us[stage.index()]
    }
}

/// The process-wide registry.
pub static METRICS: Metrics = Metrics::new();

/// Escapes a Prometheus label value (backslash, quote, newline — the
/// exposition-format rules).
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One `key="value",` label fragment for splicing into a sample line.
pub fn render_label(key: &str, value: &str) -> String {
    format!("{key}=\"{}\",", escape_label_value(value))
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Renders the whole registry in Prometheus text exposition format
/// (the `GET /metrics` response body).
pub fn render_prometheus() -> String {
    let m = &METRICS;
    let mut out = String::with_capacity(8 * 1024);
    let counters: [(&str, &Counter, &str); 10] = [
        (
            "cuba_rounds_explored_total",
            &m.rounds_explored,
            "Portfolio rounds that explored a fresh layer.",
        ),
        (
            "cuba_rounds_replayed_total",
            &m.rounds_replayed,
            "Portfolio rounds replayed from a shared exploration.",
        ),
        (
            "cuba_waves_total",
            &m.waves,
            "Saturation waves (post* runs, pre* passes, explicit layer rounds).",
        ),
        (
            "cuba_cache_hits_total",
            &m.cache_hits,
            "Suite-cache lookups that found the system.",
        ),
        (
            "cuba_cache_misses_total",
            &m.cache_misses,
            "Suite-cache lookups that created a fresh entry.",
        ),
        (
            "cuba_reduce_passes_total",
            &m.reduce_passes,
            "Static pre-analysis (reduce) pipeline runs.",
        ),
        (
            "cuba_trace_events_dropped_total",
            &m.trace_events_dropped,
            "Trace events shed by a full thread buffer.",
        ),
        (
            "cuba_snapshot_saves_total",
            &m.snapshot_saves,
            "Layer-store snapshots written to disk.",
        ),
        (
            "cuba_snapshot_loads_total",
            &m.snapshot_loads,
            "Layer-store snapshots restored from disk.",
        ),
        (
            "cuba_snapshot_spills_total",
            &m.snapshot_spills,
            "Systems spilled to disk under max_systems pressure.",
        ),
    ];
    for (name, counter, help) in &counters {
        family(&mut out, name, "counter", help);
        out.push_str(&format!("{name} {}\n", counter.get()));
    }
    family(
        &mut out,
        "cuba_sessions_active",
        "gauge",
        "Streaming sessions in flight right now.",
    );
    out.push_str(&format!(
        "cuba_sessions_active {}\n",
        m.sessions_active.get()
    ));
    family(
        &mut out,
        "cuba_workers_busy",
        "gauge",
        "Analysis worker slots currently occupied.",
    );
    out.push_str(&format!("cuba_workers_busy {}\n", m.workers_busy.get()));
    family(
        &mut out,
        "cuba_http_requests_total",
        "counter",
        "Requests served, per endpoint.",
    );
    for endpoint in Endpoint::ALL {
        out.push_str(&format!(
            "cuba_http_requests_total{{endpoint=\"{}\"}} {}\n",
            endpoint.label(),
            m.http_requests(endpoint).get()
        ));
    }
    family(
        &mut out,
        "cuba_http_request_duration_us",
        "histogram",
        "Request wall time in microseconds, per endpoint.",
    );
    for endpoint in Endpoint::ALL {
        m.http_duration_us(endpoint).render_into(
            &mut out,
            "cuba_http_request_duration_us",
            &render_label("endpoint", endpoint.label()),
        );
    }
    family(
        &mut out,
        "cuba_stage_duration_us",
        "histogram",
        "Per-round analysis stage wall time in microseconds.",
    );
    for stage in [Stage::Saturate, Stage::Check, Stage::Merge] {
        m.stage_duration_us(stage).render_into(
            &mut out,
            "cuba_stage_duration_us",
            &render_label("stage", stage.label()),
        );
    }
    family(
        &mut out,
        "cuba_frontier_edges",
        "histogram",
        "Frontier size (edges) per saturation wave.",
    );
    m.frontier_edges
        .render_into(&mut out, "cuba_frontier_edges", "");
    out
}

// ---------------------------------------------------------------------------
// Per-round stage accounting. Saturation (shared-explorer advances,
// layer commits) runs on the session's own thread, so a thread-local
// accumulator scoped to one `step_once` collects exactly that round's
// stage split — no channels, no session plumbing through the engine
// traits.

thread_local! {
    static STAGE_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STAGE_ACC: Cell<[u64; STAGES]> = const { Cell::new([0; STAGES]) };
}

/// Records `elapsed` against `stage`: always into the registry
/// histogram, and into the calling thread's open [`round_scope`]
/// accumulator, if any.
pub fn stage_time(stage: Stage, elapsed: Duration) {
    let us = elapsed.as_micros() as u64;
    METRICS.stage_duration_us(stage).observe(us);
    STAGE_ACTIVE.with(|active| {
        if active.get() {
            STAGE_ACC.with(|acc| {
                let mut v = acc.get();
                v[stage.index()] += us;
                acc.set(v);
            });
        }
    });
}

/// Opens a per-round stage accumulation scope on this thread; the
/// guard's [`take`](RoundScope::take) returns the microseconds
/// recorded per stage since the scope opened.
pub fn round_scope() -> RoundScope {
    let prior = STAGE_ACTIVE.with(|active| active.replace(true));
    let prior_acc = STAGE_ACC.with(|acc| acc.replace([0; STAGES]));
    RoundScope {
        prior,
        prior_acc,
        taken: false,
    }
}

/// The guard of one [`round_scope`]; restores the outer scope (if
/// any) on drop, so nested sessions on one thread stay separate.
#[derive(Debug)]
pub struct RoundScope {
    prior: bool,
    prior_acc: [u64; STAGES],
    taken: bool,
}

impl RoundScope {
    /// Closes the scope and returns `[saturate, check, merge]`
    /// microseconds accumulated on this thread while it was open.
    pub fn take(mut self) -> [u64; STAGES] {
        self.taken = true;
        let acc = STAGE_ACC.with(|a| a.replace(self.prior_acc));
        STAGE_ACTIVE.with(|a| a.set(self.prior));
        acc
    }
}

impl Drop for RoundScope {
    fn drop(&mut self) {
        if !self.taken {
            STAGE_ACC.with(|a| a.set(self.prior_acc));
            STAGE_ACTIVE.with(|a| a.set(self.prior));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 900, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        let mut out = String::new();
        h.render_into(&mut out, "t", "");
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in out.lines() {
            if let Some(rest) = line.strip_prefix("t_bucket{le=\"") {
                let count: u64 = rest
                    .split("\"} ")
                    .nth(1)
                    .expect("sample value")
                    .parse()
                    .expect("integer");
                assert!(count >= last, "buckets must be cumulative: {out}");
                last = count;
                bucket_lines += 1;
            }
        }
        assert_eq!(bucket_lines, BUCKETS + 1, "+Inf bucket present");
        assert!(out.ends_with("t_sum 906\nt_count 6\n") || out.contains("t_count 6"));
        // u64::MAX overflows every finite bucket but lands in +Inf.
        assert!(out.contains("t_bucket{le=\"+Inf\"} 6"));
        // 0 and 1 both land in the le="1" bucket; 2 in le="2"; 3 in le="4".
        assert!(
            out.starts_with("t_bucket{le=\"1\"} 2\nt_bucket{le=\"2\"} 3\nt_bucket{le=\"4\"} 4\n")
        );
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(render_label("k", "v\"x"), "k=\"v\\\"x\",");
    }

    #[test]
    fn exposition_contains_every_family_and_is_well_formed() {
        METRICS.waves.inc();
        METRICS.http_requests(Endpoint::Healthz).inc();
        METRICS.http_duration_us(Endpoint::Healthz).observe(120);
        stage_time(Stage::Saturate, Duration::from_micros(5));
        let text = render_prometheus();
        for name in [
            "cuba_rounds_explored_total",
            "cuba_rounds_replayed_total",
            "cuba_waves_total",
            "cuba_cache_hits_total",
            "cuba_cache_misses_total",
            "cuba_reduce_passes_total",
            "cuba_trace_events_dropped_total",
            "cuba_snapshot_saves_total",
            "cuba_snapshot_loads_total",
            "cuba_snapshot_spills_total",
            "cuba_sessions_active",
            "cuba_workers_busy",
            "cuba_http_requests_total",
            "cuba_http_request_duration_us",
            "cuba_stage_duration_us",
            "cuba_frontier_edges",
        ] {
            assert!(text.contains(&format!("# TYPE {name} ")), "missing {name}");
            assert!(text.contains(&format!("# HELP {name} ")), "missing {name}");
        }
        // Every non-comment line is `name{labels}? value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(
                value.parse::<i64>().is_ok(),
                "non-numeric sample value in '{line}'"
            );
        }
        assert!(!text.contains("cuba_steals_total"));
        assert!(text.contains("endpoint=\"healthz\""));
        assert!(text.contains("stage=\"saturate\""));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn counters_are_monotonic_across_scrapes() {
        let before = METRICS.rounds_explored.get();
        let scrape1 = render_prometheus();
        METRICS.rounds_explored.add(3);
        let scrape2 = render_prometheus();
        let value = |text: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with("cuba_rounds_explored_total "))
                .and_then(|l| l.rsplit_once(' '))
                .and_then(|(_, v)| v.parse().ok())
                .expect("counter sample")
        };
        assert!(value(&scrape1) >= before);
        assert_eq!(value(&scrape2), value(&scrape1) + 3);
    }

    #[test]
    fn round_scope_collects_and_restores() {
        let scope = round_scope();
        stage_time(Stage::Saturate, Duration::from_micros(40));
        stage_time(Stage::Merge, Duration::from_micros(7));
        {
            // A nested scope must not leak into the outer one…
            let inner = round_scope();
            stage_time(Stage::Saturate, Duration::from_micros(100));
            let acc = inner.take();
            assert_eq!(acc[Stage::Saturate.index()], 100);
        }
        stage_time(Stage::Saturate, Duration::from_micros(2));
        let acc = scope.take();
        assert_eq!(acc[Stage::Saturate.index()], 42);
        assert_eq!(acc[Stage::Merge.index()], 7);
        assert_eq!(acc[Stage::Check.index()], 0);
        // Outside any scope, stage_time still feeds the histograms
        // but no accumulator.
        stage_time(Stage::Check, Duration::from_micros(1));
        let fresh = round_scope().take();
        assert_eq!(fresh, [0; STAGES]);
    }
}
