//! The span/event recorder and its Chrome trace-event JSON exporter.
//!
//! Recording is lock-cheap: each thread owns a registered buffer
//! behind its own mutex (uncontended on the hot path — only the
//! exporter ever locks another thread's buffer), timestamps come from
//! the crate-wide epoch, and a global sequence is not needed because
//! buffers preserve per-thread push order, which is exactly the
//! `B`/`E` nesting order Perfetto's importer expects.
//!
//! Span guards push the `B` event on creation and the matching `E`
//! on drop, so a trace can never contain an unmatched `B` from a
//! completed scope. A bounded buffer (1M events per thread) sheds
//! load instead of growing without limit; shed events are counted in
//! the metrics registry (`cuba_trace_events_dropped_total`).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use crate::{json_escape, metrics::METRICS, now_us, tracing_enabled};

/// Hard cap per thread buffer; beyond it events are dropped and
/// counted, never reallocated.
const BUFFER_CAP: usize = 1 << 20;

/// A recorded argument value.
#[derive(Debug, Clone)]
pub enum ArgValue {
    /// An unsigned counter-like value.
    U64(u64),
    /// A short label (engine name, property spec).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One Chrome trace event (`ph` is `b'B'`, `b'E'` or `b'i'`).
#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    ph: u8,
    ts: u64,
    tid: u32,
    args: Vec<(&'static str, ArgValue)>,
}

/// One thread's event buffer, registered globally so the exporter
/// can drain buffers of threads that have since exited.
#[derive(Debug, Default)]
struct Buffer {
    events: Mutex<Vec<Event>>,
}

static REGISTRY: Mutex<Vec<Arc<Buffer>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static LOCAL: RefCell<Option<Arc<Buffer>>> = const { RefCell::new(None) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// The calling thread's trace track id, allocated on first use.
pub fn thread_tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed).max(1));
        }
        t.get()
    })
}

fn push(event: Event) {
    LOCAL.with(|local| {
        let mut slot = local.borrow_mut();
        let buffer = slot.get_or_insert_with(|| {
            let buffer = Arc::new(Buffer::default());
            REGISTRY
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(buffer.clone());
            buffer
        });
        let mut events = buffer.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() < BUFFER_CAP {
            events.push(event);
        } else {
            METRICS.trace_events_dropped.inc();
        }
    });
}

/// An in-flight span: records `B` on creation, the matching `E` (with
/// any [`arg`](Span::arg)s attached along the way) on drop. When
/// tracing is disabled the constructor returns an inert guard — one
/// relaxed load, no allocation.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    active: bool,
    end_args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// Attaches an argument to the closing `E` event (values known
    /// only at the end of the scope: states found, edges merged).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.active {
            self.end_args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            push(Event {
                name: self.name,
                ph: b'E',
                ts: now_us(),
                tid: thread_tid(),
                args: std::mem::take(&mut self.end_args),
            });
        }
    }
}

/// Opens a span with no start arguments.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_args(name, Vec::new())
}

/// Opens a span whose `B` event carries `args`.
pub fn span_args(name: &'static str, args: Vec<(&'static str, ArgValue)>) -> Span {
    if !tracing_enabled() {
        return Span {
            name,
            active: false,
            end_args: Vec::new(),
        };
    }
    push(Event {
        name,
        ph: b'B',
        ts: now_us(),
        tid: thread_tid(),
        args,
    });
    Span {
        name,
        active: true,
        end_args: Vec::new(),
    }
}

/// Records a point event (`ph: "i"`, thread scope).
pub fn instant(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    if !tracing_enabled() {
        return;
    }
    push(Event {
        name,
        ph: b'i',
        ts: now_us(),
        tid: thread_tid(),
        args,
    });
}

/// Drains every registered buffer (push order per thread preserved).
fn drain() -> Vec<Event> {
    let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut all = Vec::new();
    for buffer in registry.iter() {
        let mut events = buffer.events.lock().unwrap_or_else(|e| e.into_inner());
        all.append(&mut events);
    }
    all
}

fn event_json(event: &Event, pid: u32) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"name\":");
    out.push_str(&json_escape(event.name));
    out.push_str(",\"cat\":\"cuba\",\"ph\":\"");
    out.push(event.ph as char);
    out.push('"');
    if event.ph == b'i' {
        // Instant scope: this thread's track only.
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(&format!(
        ",\"ts\":{},\"pid\":{pid},\"tid\":{}",
        event.ts, event.tid
    ));
    if !event.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (key, value)) in event.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_escape(key));
            out.push(':');
            match value {
                ArgValue::U64(v) => out.push_str(&v.to_string()),
                ArgValue::Str(s) => out.push_str(&json_escape(s)),
            }
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Drains all buffered events into a Chrome trace-event JSON document
/// (the "JSON Object Format": a `traceEvents` array, loadable by
/// Perfetto and `chrome://tracing`). Order is per-thread push order —
/// importers sort by `ts` themselves.
pub fn chrome_trace_json() -> String {
    let pid = std::process::id();
    let events = drain();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&event_json(event, pid));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Writes [`chrome_trace_json`] to `path`.
///
/// # Errors
///
/// The I/O failure message, prefixed with the path.
pub fn export_chrome(path: &str) -> Result<(), String> {
    std::fs::write(path, chrome_trace_json()).map_err(|e| format!("cannot write {path}: {e}"))
}

// ---------------------------------------------------------------------------
// Validation: a minimal JSON reader plus the Perfetto-importer rules
// we guarantee, powering `cuba trace-check`.

/// What a validated trace contains.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Matched `B`/`E` span pairs.
    pub spans: usize,
    /// Point (`i`) events.
    pub instants: usize,
    /// Distinct `tid` tracks.
    pub tracks: usize,
    /// Span count per name, for the catalogue assertions.
    pub span_names: BTreeMap<String, usize>,
}

/// A parsed JSON value (just enough for trace files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// The deepest array/object nesting the scanner accepts. The exporter
/// writes 4 levels (document, event list, event, `args`); the cap keeps
/// the recursive descent from overflowing the stack on hostile input.
const MAX_NESTING: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("json error at byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    /// Parses one array or object, one level deeper than `pos` is.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_NESTING {
            return Err(self.error(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            // Surrogate pairs don't occur in our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through intact. `pos` only
                    // ever advances by whole chars, so the slice is valid.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Parses and validates a Chrome trace-event document against the
/// rules Perfetto's importer relies on (and this crate guarantees):
/// a `traceEvents` array; every event an object with a string `name`,
/// a `ph` in `B`/`E`/`i`/`M`, a non-negative numeric `ts`, numeric
/// `pid` and `tid`; and, per `(pid, tid)` track in file order, strict
/// `B`/`E` stack nesting — every `B` closed by an `E` of the same
/// name at a timestamp no earlier than its opening.
///
/// # Errors
///
/// The first violation found, as a message naming the event index.
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let mut parser = Parser::new(text);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing bytes after the document"));
    }
    let events = match root.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("top level must be an object with a 'traceEvents' array".to_owned()),
    };
    let mut summary = TraceSummary {
        events: events.len(),
        ..TraceSummary::default()
    };
    // Per-(pid,tid) stacks of (name, ts) for B/E matching.
    let mut stacks: BTreeMap<(u64, u64), Vec<(String, f64)>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let at = |what: &str| format!("event {i}: {what}");
        if !matches!(event, Json::Obj(_)) {
            return Err(at("not an object"));
        }
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string 'name'"))?;
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string 'ph'"))?;
        let ts = event
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing numeric 'ts'"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(at("'ts' must be a non-negative number"));
        }
        let pid = event
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing numeric 'pid'"))? as u64;
        let tid = event
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing numeric 'tid'"))? as u64;
        let stack = stacks.entry((pid, tid)).or_default();
        match ph {
            "B" => stack.push((name.to_owned(), ts)),
            "E" => {
                let (open_name, open_ts) = stack
                    .pop()
                    .ok_or_else(|| at("'E' with no open 'B' on this track"))?;
                if open_name != name {
                    return Err(at(&format!(
                        "'E' for '{name}' but the open span is '{open_name}'"
                    )));
                }
                if ts < open_ts {
                    return Err(at("span ends before it begins"));
                }
                summary.spans += 1;
                *summary.span_names.entry(open_name).or_insert(0) += 1;
            }
            "i" => summary.instants += 1,
            "M" => {}
            other => return Err(at(&format!("unsupported ph '{other}'"))),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!(
                "track pid={pid} tid={tid}: span '{name}' is never closed"
            ));
        }
    }
    summary.tracks = stacks.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spans record B/E pairs in nesting order and the exported
    /// document validates, including across threads.
    #[test]
    fn spans_export_and_validate() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::enable_tracing();
        {
            let mut outer = span_args("outer", vec![("k", ArgValue::U64(3))]);
            {
                let _inner = span("inner");
                instant("tick", vec![("n", ArgValue::U64(1))]);
            }
            outer.arg("states", 42u64);
        }
        std::thread::spawn(|| {
            let _worker = span("worker");
        })
        .join()
        .expect("worker");
        crate::disable_tracing();
        let json = chrome_trace_json();
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert!(summary.spans >= 3, "{summary:?}");
        assert!(summary.instants >= 1);
        assert!(summary.tracks >= 2);
        assert!(summary.span_names.contains_key("outer"));
        assert!(summary.span_names.contains_key("worker"));
        assert!(json.contains("\"args\":{\"states\":42}"));
    }

    /// Disabled tracing records nothing — the zero-cost path.
    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::disable_tracing();
        let before = chrome_trace_json();
        {
            let mut s = span("ghost");
            s.arg("x", 1u64);
            instant("ghost-instant", Vec::new());
        }
        let after = chrome_trace_json();
        // Both drains see an empty (or equally drained) buffer set.
        assert_eq!(before.matches("ghost").count(), 0);
        assert_eq!(after.matches("ghost").count(), 0);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("[]").is_err(), "array top level");
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        // Unmatched B.
        let unmatched =
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        let err = validate_chrome_trace(unmatched).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
        // E before B.
        let orphan =
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        assert!(validate_chrome_trace(orphan).is_err());
        // Name mismatch.
        let crossed = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1},\
            {\"name\":\"b\",\"ph\":\"E\",\"ts\":2,\"pid\":1,\"tid\":1}]}";
        let err = validate_chrome_trace(crossed).unwrap_err();
        assert!(err.contains("open span"), "{err}");
        // Negative timestamp.
        let negative =
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\",\"ts\":-1,\"pid\":1,\"tid\":1}]}";
        assert!(validate_chrome_trace(negative).is_err());
    }

    /// Nesting is capped before the recursion can overflow the stack:
    /// 64 levels parse, the 65th is an error at its opening byte.
    #[test]
    fn validator_caps_nesting() {
        let nested = |levels: usize| {
            format!(
                "{{\"traceEvents\":[],\"x\":{}{}}}",
                "[".repeat(levels - 1),
                "]".repeat(levels - 1)
            )
        };
        validate_chrome_trace(&nested(MAX_NESTING)).expect("64 levels parse");
        let err = validate_chrome_trace(&nested(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(err, "json error at byte 85: nesting deeper than 64 levels");
        let err = validate_chrome_trace(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err, "json error at byte 64: nesting deeper than 64 levels");
    }

    #[test]
    fn validator_accepts_escapes_and_interleaved_tracks() {
        let text = "{\"traceEvents\":[\
            {\"name\":\"sp\\u0061n \\\"q\\\"\",\"ph\":\"B\",\"ts\":1.5,\"pid\":1,\"tid\":1},\
            {\"name\":\"other\",\"ph\":\"B\",\"ts\":2,\"pid\":1,\"tid\":2},\
            {\"name\":\"span \\\"q\\\"\",\"ph\":\"E\",\"ts\":3,\"pid\":1,\"tid\":1},\
            {\"name\":\"other\",\"ph\":\"E\",\"ts\":4,\"pid\":1,\"tid\":2}]}";
        let summary = validate_chrome_trace(text).expect("valid");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.tracks, 2);
        assert_eq!(summary.span_names.get("span \"q\""), Some(&1));
    }
}
