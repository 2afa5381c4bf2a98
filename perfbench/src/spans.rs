//! Benchmark-side tracing: spans recorded around each call into a
//! layer, kept in memory and written out once as a Chrome trace-event
//! file when the run ends.
//!
//! Spans are recorded from the benchmark's own code only; the
//! program's in-process recorder stays off, so the traced run times
//! the layers from outside. A span's *self time* is its duration minus
//! the time its direct child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// The cost of one closed span.
#[derive(Debug, Clone)]
struct Closed {
    name: &'static str,
    self_us: f64,
}

/// One `B` or `E` trace event.
#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    begin: bool,
    ts_us: f64,
    req: u64,
}

/// An open span on the current thread's stack.
#[derive(Debug)]
struct Open {
    start: Instant,
    child_us: f64,
}

/// A per-thread span recorder. Disabled tracers run the closures and
/// record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    tid: u32,
    epoch: Instant,
    req: u64,
    stack: Vec<Open>,
    events: Vec<Event>,
    closed: Vec<Closed>,
    mark: usize,
}

fn micros(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e6
}

impl Tracer {
    /// A recorder for one thread's track; `epoch` is shared by every
    /// tracer of the run so their timestamps line up.
    pub fn new(enabled: bool, tid: u32, epoch: Instant) -> Self {
        Tracer {
            enabled,
            tid,
            epoch,
            req: 0,
            stack: Vec::new(),
            events: Vec::new(),
            closed: Vec::new(),
            mark: 0,
        }
    }

    /// Tags the spans opened from now on with a problem or request id,
    /// so all spans of one request share an identifier.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = Instant::now();
        self.events.push(Event {
            name,
            begin: true,
            ts_us: micros(self.epoch, start),
            req: self.req,
        });
        self.stack.push(Open {
            start,
            child_us: 0.0,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("spans close in nesting order");
        let total_us = micros(open.start, end);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_us += total_us;
        }
        self.events.push(Event {
            name,
            begin: false,
            ts_us: micros(self.epoch, end),
            req: self.req,
        });
        self.closed.push(Closed {
            name,
            self_us: total_us - open.child_us,
        });
        out
    }

    /// Self time per span name (µs) of the spans closed since the last
    /// call — one pass's worth when called once per pass.
    pub fn take_self_us(&mut self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for span in &self.closed[self.mark..] {
            *out.entry(span.name).or_insert(0.0) += span.self_us;
        }
        self.mark = self.closed.len();
        out
    }

    /// `(name, spans, self ms)` over every span recorded, by name.
    fn summary(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for span in &self.closed {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.self_us / 1e3;
        }
        out
    }
}

/// The Chrome trace-event document (JSON object format) of every
/// tracer's events, one track per tracer.
pub fn chrome_json(tracers: &[&Tracer]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for tracer in tracers {
        for event in &tracer.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"req\":{}}}}}",
                event.name,
                if event.begin { 'B' } else { 'E' },
                event.ts_us,
                tracer.tid,
                event.req
            ));
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// A human-readable self-time table of every tracer, for stderr.
pub fn self_time_table(tracers: &[&Tracer]) -> String {
    let mut merged: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for tracer in tracers {
        for (name, (count, ms)) in tracer.summary() {
            let entry = merged.entry(name).or_default();
            entry.0 += count;
            entry.1 += ms;
        }
    }
    let mut rows: Vec<_> = merged.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    let mut out = format!("{:<34} {:>8} {:>12}\n", "span", "count", "self_ms");
    for (name, (count, ms)) in rows {
        out.push_str(&format!("{name:<34} {count:>8} {ms:>12.3}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_trace_validates() {
        let mut tracer = Tracer::new(true, 7, Instant::now());
        tracer.set_request(3);
        tracer.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let self_us = tracer.take_self_us();
        assert!(self_us["inner"] >= 20_000.0);
        assert!(
            self_us["outer"] < 10_000.0,
            "outer's self time must not include inner's 20 ms: {self_us:?}"
        );
        assert!(
            tracer.take_self_us().is_empty(),
            "taken spans are not counted twice"
        );

        let json = chrome_json(&[&tracer]);
        let summary = cuba_telemetry::trace::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.span_names["inner"], 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, 1, Instant::now());
        assert_eq!(tracer.span("x", |_| 5), 5);
        assert!(tracer.take_self_us().is_empty());
        assert_eq!(
            chrome_json(&[&tracer]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
