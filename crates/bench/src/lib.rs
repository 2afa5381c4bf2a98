//! Shared infrastructure for the experiment harness: a counting
//! global allocator (the Table 2 / Fig. 5 memory columns), wall-clock
//! measurement, and machine-readable result records.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; see `DESIGN.md` §3 for the experiment index.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub mod compare;
pub mod harness;
pub mod stats;

/// A wrapper around the system allocator that tracks current and peak
/// heap usage. Install it in a harness binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: cuba_bench::CountingAlloc = cuba_bench::CountingAlloc::new();
/// ```
///
/// The paper's memory columns report process RSS; peak heap bytes is
/// the closest allocator-level analogue (DESIGN.md §2).
pub struct CountingAlloc {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A fresh counting allocator.
    pub const fn new() -> Self {
        CountingAlloc {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Current live heap bytes.
    pub fn current_bytes(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// Peak live heap bytes since the last [`reset_peak`](Self::reset_peak).
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current level (call between benchmarks).
    pub fn reset_peak(&self) {
        self.peak
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates to the system allocator; the counters are
// side-channel bookkeeping only and never affect returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let cur = self.current.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.current.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// One measured run, serializable for EXPERIMENTS.md generation.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Benchmark row label, e.g. `bluetooth-3/2+1`.
    pub label: String,
    /// Whether FCR holds.
    pub fcr: bool,
    /// `"safe"`, `"unsafe"` or `"undetermined"`.
    pub verdict: String,
    /// Convergence bound (safe) or bug bound (unsafe), if any.
    pub k: Option<usize>,
    /// Engine that decided.
    pub engine: String,
    /// States stored by the deciding engine.
    pub states: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Peak heap bytes during the run (0 when the counting allocator
    /// is not installed).
    pub peak_bytes: usize,
}

impl RunRecord {
    /// Serializes the record as one JSON object (the workspace builds
    /// offline, so JSON is emitted by hand instead of through serde).
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.string("label", &self.label);
        obj.bool("fcr", self.fcr);
        obj.string("verdict", &self.verdict);
        match self.k {
            Some(k) => obj.number("k", k as f64),
            None => obj.null("k"),
        };
        obj.string("engine", &self.engine);
        obj.number("states", self.states as f64);
        obj.number("seconds", self.seconds);
        obj.number("peak_bytes", self.peak_bytes as f64);
        obj.finish()
    }
}

/// Serializes a slice of records as a pretty-printed JSON array.
pub fn records_to_json(records: &[RunRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.to_json());
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Minimal JSON object writer: escapes strings, formats numbers the
/// standard way, keeps insertion order.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, json_escape(value));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, value.to_string());
        self
    }

    /// Adds a numeric field (integers render without a fraction).
    pub fn number(&mut self, key: &str, value: f64) -> &mut Self {
        let text = if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{}", value as i64)
        } else {
            format!("{value}")
        };
        self.raw(key, text);
        self
    }

    /// Adds an explicit `null` field.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.raw(key, "null".to_owned());
        self
    }

    /// Adds a field whose value is already rendered JSON.
    pub fn raw(&mut self, key: &str, rendered: String) -> &mut Self {
        self.fields.push((key.to_owned(), rendered));
        self
    }

    /// Renders the object.
    pub fn finish(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{}", json_escape(k), v))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Escapes a string for JSON output (quotes included).
pub fn json_escape(s: &str) -> String {
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

/// Decodes the JSON string literal at the *start* of `input` (the
/// opening quote must be `input`'s first character): the inverse of
/// [`json_escape`], for scanners that read the records the harness
/// binaries write. Returns the decoded contents and the number of
/// input bytes consumed, closing quote included — so a caller can
/// keep scanning the rest of the line. `None` on anything that is not
/// a complete, valid string literal.
pub fn json_unescape(input: &str) -> Option<(String, usize)> {
    let mut chars = input.char_indices();
    if chars.next()? != (0, '"') {
        return None;
    }
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, i + 1)),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{0008}'),
                'f' => out.push('\u{000c}'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c if (c as u32) < 0x20 => return None, // raw control byte
            c => out.push(c),
        }
    }
    None // unterminated
}

/// Runs a closure, measuring wall-clock time and (optionally) peak
/// heap via the given allocator reference.
pub fn measure<T>(alloc: Option<&CountingAlloc>, f: impl FnOnce() -> T) -> (T, f64, usize) {
    if let Some(a) = alloc {
        a.reset_peak();
    }
    let before = alloc.map(|a| a.peak_bytes()).unwrap_or(0);
    let start = Instant::now();
    let value = f();
    let seconds = start.elapsed().as_secs_f64();
    let peak = alloc
        .map(|a| a.peak_bytes().saturating_sub(before))
        .unwrap_or(0);
    (value, seconds, peak)
}

/// Formats a byte count as MB with two decimals (Table 2 style).
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:width$}", cell, width = widths[i]));
        }
        line.trim_end().to_owned()
    };
    out.push_str(&fmt_row(
        headers.iter().map(|h| h.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_time() {
        let (v, secs, _peak) = measure(None, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn fmt_mb_two_decimals() {
        assert_eq!(fmt_mb(1024 * 1024), "1.00");
        assert_eq!(fmt_mb(0), "0.00");
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["id", "k"],
            &[
                vec!["a".to_owned(), "10".to_owned()],
                vec!["longer".to_owned(), "2".to_owned()],
            ],
        );
        assert!(t.contains("id"));
        assert!(t.contains("longer"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn run_record_serializes() {
        let r = RunRecord {
            label: "x/1".into(),
            fcr: true,
            verdict: "safe".into(),
            k: Some(5),
            engine: "Alg3(T(Rk))".into(),
            states: 10,
            seconds: 0.1,
            peak_bytes: 1024,
        };
        let json = r.to_json();
        assert!(json.contains("\"k\":5"));
        assert!(json.contains("\"label\":\"x/1\""));
        assert!(json.contains("\"fcr\":true"));
        let none = RunRecord { k: None, ..r };
        assert!(none.to_json().contains("\"k\":null"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let arr = records_to_json(&[]);
        assert_eq!(arr, "[\n]");
    }

    /// `json_unescape` inverts `json_escape` on every escape class the
    /// writer produces, and reports how far it read.
    #[test]
    fn json_unescape_inverts_escape() {
        for nasty in [
            "plain",
            "",
            "quote\" backslash\\ newline\n tab\t cr\r",
            "control\u{0001}byte",
            "unicode ⟨1|2,6⟩",
        ] {
            let escaped = json_escape(nasty);
            let (decoded, used) = json_unescape(&escaped).expect("round trip");
            assert_eq!(decoded, nasty);
            assert_eq!(used, escaped.len(), "consumed the whole literal");
        }
        // Trailing input is left for the caller.
        let (decoded, used) = json_unescape("\"ab\\\"c\",\"rest\"").unwrap();
        assert_eq!(decoded, "ab\"c");
        assert_eq!(used, 7);
        // Solidus and \uXXXX escapes other writers may emit.
        assert_eq!(json_unescape("\"a\\/b\"").unwrap().0, "a/b");
        assert_eq!(json_unescape("\"\\u2329x\"").unwrap().0, "\u{2329}x");
    }

    #[test]
    fn json_unescape_rejects_malformed_literals() {
        for bad in [
            "no-quote",
            "\"unterminated",
            "\"bad escape \\q\"",
            "\"bad unicode \\u12GZ\"",
            "\"raw control \u{0002}\"",
            "",
        ] {
            assert!(json_unescape(bad).is_none(), "{bad:?} must be rejected");
        }
    }
}
