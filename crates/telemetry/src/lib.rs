//! `cuba-telemetry` — the observability layer of the CUBA
//! reproduction: structured tracing spans and a static metrics
//! registry, both dependency-free (hand-rolled like the workspace's
//! JSON emitters) and both designed to never perturb an analysis.
//!
//! # Two halves
//!
//! **Tracing** ([`trace`]): a lock-cheap span/event recorder. Each
//! thread buffers its events in its own registered buffer (one
//! uncontended mutex per thread); a global epoch gives every event a
//! microsecond timestamp; span guards push a `B` event on creation
//! and the matching `E` on drop, so every exported trace nests by
//! construction. [`trace::export_chrome`] drains the buffers into
//! Chrome trace-event JSON (`ph: B/E/i`) loadable in Perfetto or
//! `chrome://tracing`, and [`trace::validate_chrome_trace`] re-parses
//! and checks an exported file (the `cuba trace-check` subcommand).
//!
//! **Metrics** ([`metrics`]): a static registry of atomic counters,
//! gauges and fixed log-bucket histograms — always on (one relaxed
//! atomic per update), exposed as Prometheus text exposition at
//! `GET /metrics` on `cuba serve` and as the `telemetry` block of
//! `verify --json` records.
//!
//! # Observation never perturbs verdicts
//!
//! Tracing is disabled until [`enable_tracing`] is called (by
//! `--trace-out`); a disabled span site costs one relaxed atomic
//! load. Metric updates are relaxed atomics off the decision paths.
//! Nothing in this crate feeds back into scheduling or saturation,
//! so verdicts, bounds and growth logs are byte-identical with
//! telemetry on.

pub mod metrics;
pub mod sink;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turns the span recorder on (idempotent). Until this is called,
/// every span site is a single relaxed load and records nothing.
pub fn enable_tracing() {
    EPOCH.get_or_init(Instant::now);
    TRACING.store(true, Ordering::Release);
}

/// Turns the span recorder back off. Buffered events stay buffered
/// (an export after disabling still sees them).
pub fn disable_tracing() {
    TRACING.store(false, Ordering::Release);
}

/// Whether spans are being recorded — the one relaxed load every
/// span site pays when tracing is off.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Microseconds since the tracing epoch (first `enable_tracing`).
pub(crate) fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Minimal JSON string escaping shared by the Chrome-trace writer and
/// the Prometheus `HELP` renderer — the workspace idiom, re-rolled
/// here because this crate sits below `cuba-bench` in the dependency
/// order.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes tests that touch the process-global tracing state (the
/// enable flag and the thread-buffer registry): cargo's parallel test
/// threads would otherwise race on them.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_disable_round_trip() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable_tracing();
        assert!(tracing_enabled());
        disable_tracing();
        assert!(!tracing_enabled());
    }

    #[test]
    fn json_escape_escapes_controls() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_escape("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }
}
