//! `cuba-serve` — an event-driven analysis service that multiplexes
//! streaming sessions over shared explorations.
//!
//! The CUBA paper's layered sequences `(Rk)`/`(Sk)` are
//! property-independent, so one live exploration per system can serve
//! any number of concurrent property queries: the first client to
//! need a bound pays for it, every other client replays it, and each
//! stream reads the layers by bound from the shared layer record
//! ([`SharedExplorer::depth`], [`SharedExplorer::view`]), whoever
//! computed them. This crate is that service — a dependency-free
//! (`std::net` only) HTTP/1.1 server with NDJSON event streaming,
//! exposed as the `cuba serve` CLI subcommand.
//!
//! # Endpoints
//!
//! Every endpoint is mounted twice: at its legacy unprefixed path and
//! under the versioned `/v1/` prefix, answering identically. `GET
//! /v1` returns a JSON index of the versioned surface — endpoints,
//! their legacy aliases, and the server's capabilities (workers,
//! `max_systems`, whether a state directory is active).
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `POST /analyze` | Body: a model (`.cpds` text by default, `?format=bp` for Boolean programs). Repeatable `?property=SPEC` (the CLI `--property` grammar). `?engine=auto|explicit|symbolic` and `?max_k=N` override the lineup and round limit per request. Streams NDJSON events per property until the verdict. |
//! | `POST /suite` | Same body/parameters; runs every property through [`Portfolio::run_suite_cached`](cuba_core::Portfolio::run_suite_cached) with bounded parallelism (`?workers=N`) and answers one JSON document. |
//! | `GET /systems` | The shared-exploration registry: per system its fingerprint, residency (`resident` in the registry, or `spilled` — pushed out by `max_systems` but revivable/reloadable), FCR verdict (if decided) and per-backend explorer counters (`rounds_explored`, `depth`), plus service-wide snapshot counters (spills, revives, saves, reloads). |
//! | `GET /healthz` | Liveness + service counters: uptime, build version, analysis-pool occupancy (`workers_busy`/`workers_idle`), the draining flag. |
//! | `GET /metrics` | The process-wide telemetry registry ([`cuba_telemetry::metrics`]) in Prometheus text exposition format — counters, gauges, and latency histograms across every subsystem, plus the per-endpoint HTTP families this crate feeds. |
//! | `POST /shutdown` | `?mode=graceful` (default) drains in-flight sessions; `?mode=abort` additionally fires the service-wide [`CancelToken`](cuba_explore::CancelToken) so explorations stop at their next interrupt poll. |
//!
//! # NDJSON event stream
//!
//! `POST /analyze` answers `200` with `Content-Type:
//! application/x-ndjson` and one JSON object per line, close-
//! delimited. Per property, in order: one `start` line, then
//! interleaved `layer` lines (read from the shared layer record —
//! also for layers a *concurrent* client paid for — each bound once
//! per stream, in bound order), `round` /
//! `engine-concluded` / `engine-failed` lines from the session's arms,
//! an optional `witness` line, the deterministic `verdict` line, and
//! a final `done` line carrying the timing counters. The `verdict`
//! line is free of wall-clock fields on purpose: it is byte-identical
//! to a direct [`Portfolio`](cuba_core::Portfolio) run of the same problem under the same
//! configuration, shared exploration or not.
//!
//! Disconnecting mid-stream cancels that client's session through the
//! session's own [`CancelToken`](cuba_explore::CancelToken); interrupted rounds roll back, so
//! the shared layers stay valid for every other client.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use cuba_bench::JsonObject;
use cuba_core::{
    CubaOutcome, EngineKind, Lineup, Property, SequenceEvent, SessionConfig, SessionEvent, Verdict,
};
use cuba_explore::{LayerView, SharedExplorer};
use cuba_pds::Cpds;

mod broker;
mod http;

pub use broker::{Broker, SessionGuard, ShutdownMode, SlotGuard};
pub use http::{read_request, write_response, write_stream_head, HttpError, Request};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The bind address; port `0` picks an ephemeral port (read it
    /// back from [`Server::local_addr`]).
    pub addr: String,
    /// Size of the bounded analysis pool — the maximum number of
    /// `/analyze`/`/suite` requests doing analysis work at once;
    /// further analysis requests queue for a slot. Control endpoints
    /// (`/healthz`, `/systems`, `/shutdown`) never queue behind it.
    pub workers: usize,
    /// Hard cap on simultaneously open connections (any endpoint);
    /// connections over the cap are answered `503` immediately.
    pub max_connections: usize,
    /// Hard cap on distinct systems kept in the long-lived registry;
    /// beyond it the least recently used system is spilled: in-flight
    /// sessions keep its artifacts, and the next request for it
    /// revives them, reloads its snapshots from the state directory,
    /// or re-explores when neither exists.
    pub max_systems: usize,
    /// Base session configuration; `/analyze` and `/suite` requests
    /// may override `max_k` per request. The `cancel` slot is
    /// reserved for the service's abort token.
    pub session: SessionConfig,
    /// Base engine lineup (requests may override via `?engine=`).
    pub lineup: Lineup,
    /// Snapshot directory (`cuba serve --state-dir`): layer stores are
    /// persisted here — on `max_systems` spills and on graceful
    /// shutdown — and lazily reloaded on the next request for a
    /// system, including across a process restart (warm start).
    /// `None` disables persistence; spilled systems then survive only
    /// while some client still holds their artifacts.
    pub state_dir: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4);
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            // Analysis slots bound the heavy work; allow a healthy
            // margin of cheap/queued connections on top before 503.
            max_connections: workers * 8 + 32,
            max_systems: 64,
            session: SessionConfig::new(),
            lineup: Lineup::Auto,
            state_dir: None,
        }
    }
}

/// The analysis service: a bound listener plus its [`Broker`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    broker: Arc<Broker>,
}

/// A spawned [`Server`], running on a background thread until a
/// `POST /shutdown` request (or a fatal accept error) stops it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to finish shutting down.
    pub fn join(self) -> std::io::Result<()> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked")))
    }
}

impl Server {
    /// Binds the listener. The service does not serve until
    /// [`run`](Self::run) (or [`spawn`](Self::spawn)) is called, but
    /// the port is yours from here on. Concurrency comes from the
    /// `workers` analysis slots alone; each session saturates
    /// sequentially.
    ///
    /// # Errors
    ///
    /// Address parse/bind failures, or an unusable `state_dir`.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        if let Some(dir) = &config.state_dir {
            // Fail the boot on an unusable state directory (the broker
            // re-opens it; create_dir_all is idempotent).
            cuba_core::SnapshotStore::open(dir).map_err(std::io::Error::other)?;
        }
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            broker: Arc::new(Broker::new(config)),
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the OS's `getsockname` failure, if any.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The service's shared state (counters, cache) — mainly for
    /// embedding tests.
    pub fn broker(&self) -> Arc<Broker> {
        self.broker.clone()
    }

    /// Serves until shutdown: each accepted connection gets its own
    /// handler thread (capped by `max_connections`; over-cap
    /// connections are answered `503` from the acceptor), and the
    /// `/analyze`/`/suite` handlers queue for one of the `workers`
    /// analysis slots — so control endpoints (`/healthz`,
    /// `/shutdown`) stay responsive however long the streams run.
    /// `POST /shutdown` stops the accept loop (the handler wakes it
    /// with a loopback connection); in-flight connections then drain
    /// before `run` returns.
    ///
    /// # Errors
    ///
    /// Persistent accept failure (e.g. fd exhaustion): after many
    /// consecutive errors the loop gives up and returns the last one,
    /// rather than spinning unserveable forever.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut consecutive_errors = 0u32;
        loop {
            match self.listener.accept() {
                Ok(stream) => {
                    consecutive_errors = 0;
                    if self.broker.is_draining() {
                        // The shutdown wake-up (or a late client).
                        break;
                    }
                    let (stream, _) = stream;
                    let broker = self.broker.clone();
                    // The count is claimed here (not in the thread) so
                    // the cap can never be overshot by a spawn burst;
                    // the handler thread balances it via a drop guard.
                    if !broker.try_open_connection() {
                        let _ = respond_error(
                            &mut (&stream),
                            503,
                            "Service Unavailable",
                            "connection capacity exhausted, retry later",
                        );
                        continue;
                    }
                    std::thread::spawn(move || {
                        let _closed = ConnectionClosed(&broker);
                        handle_connection(stream, &broker, addr);
                    });
                }
                Err(_) if self.broker.is_draining() => break,
                Err(error) => {
                    consecutive_errors += 1;
                    if consecutive_errors >= 100 {
                        return Err(error);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        self.broker.wait_connections_drained();
        // Flush every resident system's layers before the process
        // exits — the warm-start half of `--state-dir` (no-op without
        // one). Abort shutdowns flush too: interrupted rounds rolled
        // back, so the stores are consistent at their last bound.
        self.broker.flush_snapshots();
        Ok(())
    }

    /// Runs the server on a background thread.
    ///
    /// # Errors
    ///
    /// As for [`local_addr`](Self::local_addr).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, thread })
    }
}

/// Balances the acceptor's `try_open_connection` when the handler
/// thread finishes — panic included, so the drain count never leaks.
struct ConnectionClosed<'a>(&'a Broker);

impl Drop for ConnectionClosed<'_> {
    fn drop(&mut self) {
        self.0.connection_closed();
    }
}

/// Serves one connection: parse, route, answer, close.
fn handle_connection(stream: TcpStream, broker: &Arc<Broker>, addr: SocketAddr) {
    // A hostile or dead peer must not pin its handler thread (and,
    // transitively, an analysis slot) forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(&stream);
    let request = match read_request(&mut reader) {
        Ok(request) => request,
        Err(error) => {
            if let Some((status, reason)) = error.status() {
                let _ = respond_error(&mut (&stream), status, reason, &error.message());
            }
            return;
        }
    };
    drop(reader);
    broker.count_request();
    // The versioned surface: `/v1/<endpoint>` answers identically to
    // the legacy unprefixed path (same handler, same bytes), and bare
    // `/v1` is the API index. Telemetry classifies by the canonical
    // (unprefixed) path so both spellings land in one family.
    let canonical = match request.path.as_str() {
        "/v1" | "/v1/" => "/v1",
        path => path
            .strip_prefix("/v1")
            .filter(|rest| rest.starts_with('/'))
            .unwrap_or(path),
    };
    let endpoint = cuba_telemetry::metrics::Endpoint::from_path(canonical);
    cuba_telemetry::metrics::METRICS
        .http_requests(endpoint)
        .inc();
    let handle_start = std::time::Instant::now();
    let mut out = &stream;
    let result = match (request.method.as_str(), canonical) {
        ("GET", "/v1") => handle_index(&mut out, broker),
        ("POST", "/analyze") => handle_analyze(&mut out, &request, broker),
        ("POST", "/suite") => handle_suite(&mut out, &request, broker),
        ("GET", "/systems") => handle_systems(&mut out, broker),
        ("GET", "/healthz") => handle_healthz(&mut out, broker),
        ("GET", "/metrics") => handle_metrics(&mut out),
        ("POST", "/shutdown") => handle_shutdown(&mut out, &request, broker, addr),
        (_, "/analyze" | "/suite" | "/shutdown") => {
            respond_error(&mut out, 405, "Method Not Allowed", "use POST")
        }
        (_, "/v1" | "/systems" | "/healthz" | "/metrics") => {
            respond_error(&mut out, 405, "Method Not Allowed", "use GET")
        }
        _ => respond_error(
            &mut out,
            404,
            "Not Found",
            &format!("no such endpoint '{}'", request.path),
        ),
    };
    cuba_telemetry::metrics::METRICS
        .http_duration_us(endpoint)
        .observe(handle_start.elapsed().as_micros() as u64);
    // Write errors mean the client went away: nothing left to do.
    let _ = result;
}

/// Writes a JSON error body with the given status.
fn respond_error(
    out: &mut impl Write,
    status: u16,
    reason: &str,
    message: &str,
) -> std::io::Result<()> {
    let mut obj = JsonObject::new();
    obj.string("error", message);
    write_response(
        out,
        status,
        reason,
        "application/json",
        obj.finish().as_bytes(),
    )
}

/// Everything a `/analyze` or `/suite` request resolved to.
#[derive(Debug)]
struct AnalyzeRequest {
    cpds: Cpds,
    /// `(spec, property)` pairs, the file's default when none given.
    properties: Vec<(String, Property)>,
    lineup: Option<Lineup>,
    max_k: Option<usize>,
}

/// Parses the shared `/analyze`–`/suite` request shape.
fn parse_analyze_request(request: &Request) -> Result<AnalyzeRequest, String> {
    let format = request.query_first("format").unwrap_or("cpds");
    let source = request.body_utf8().map_err(|e| e.message())?;
    if source.trim().is_empty() {
        return Err("empty request body: POST the model source".to_owned());
    }
    let (cpds, default_property) = parse_model(format, source)?;
    let mut properties = Vec::new();
    for spec in request.query_all("property") {
        properties.push((spec.to_owned(), Property::parse(spec)?));
    }
    if properties.is_empty() {
        properties.push(("default".to_owned(), default_property));
    }
    let lineup = match request.query_first("engine") {
        None | Some("auto") => None,
        Some("explicit") => Some(Lineup::Fixed(vec![EngineKind::Alg3Explicit])),
        Some("symbolic") => Some(Lineup::Fixed(vec![EngineKind::Alg3Symbolic])),
        Some(other) => return Err(format!("bad engine '{other}'")),
    };
    let max_k = match request.query_first("max_k") {
        None => None,
        Some(raw) => Some(
            raw.parse::<usize>()
                .map_err(|_| format!("bad max_k '{raw}'"))?,
        ),
    };
    Ok(AnalyzeRequest {
        cpds,
        properties,
        lineup,
        max_k,
    })
}

/// Parses a model source by format name: `cpds` (text interchange
/// format) or `bp` (concurrent Boolean program).
///
/// # Errors
///
/// A parse/translation message naming the format.
pub fn parse_model(format: &str, source: &str) -> Result<(Cpds, Property), String> {
    match format {
        "cpds" => {
            let cpds = cuba_benchmarks::textfmt::parse_cpds(source).map_err(|e| e.to_string())?;
            Ok((cpds, Property::True))
        }
        "bp" => {
            let program = cuba_boolprog::parse(source).map_err(|e| e.to_string())?;
            let translated = cuba_boolprog::translate(&program).map_err(|e| e.to_string())?;
            let property = translated.error_free_property();
            Ok((translated.cpds, property))
        }
        other => Err(format!("unknown format '{other}' (expected cpds or bp)")),
    }
}

/// `POST /analyze`: one NDJSON stream, one session per property, all
/// properties of the request (and all concurrent requests for the
/// same system) sharing one exploration per backend.
fn handle_analyze(
    out: &mut impl Write,
    request: &Request,
    broker: &Arc<Broker>,
) -> std::io::Result<()> {
    let parsed = match parse_analyze_request(request) {
        Ok(parsed) => parsed,
        Err(message) => return respond_error(out, 400, "Bad Request", &message),
    };
    // Queue for an analysis slot *before* touching the registry: the
    // bounded pool applies to analysis work only, never to control
    // endpoints.
    let _slot = broker.acquire_slot();
    let portfolio = broker.portfolio(parsed.lineup.clone(), parsed.max_k);
    let artifacts = broker.artifacts_for(&parsed.cpds);
    let fcr = artifacts.fcr(&parsed.cpds).holds();
    // A lineup that cannot field a single arm is a client error;
    // reject it before any explorer gets registered for it.
    if let Some(Lineup::Fixed(kinds)) = &parsed.lineup {
        if !fcr && kinds.iter().all(EngineKind::needs_fcr) {
            return respond_error(
                out,
                400,
                "Bad Request",
                "engine=explicit requires finite context reachability, \
                 which this system violates (use auto or symbolic)",
            );
        }
    }
    // Watch the backend the session will actually drive: `layer`
    // lines are read from its shared layer record, whichever client
    // computed the layers.
    let explicit_backend = match &parsed.lineup {
        None | Some(Lineup::Auto) => fcr,
        Some(Lineup::Fixed(kinds)) => fcr && kinds.iter().any(EngineKind::needs_fcr),
    };
    let config = portfolio.config().clone();
    let explorer: Arc<SharedExplorer> = if explicit_backend {
        artifacts.explicit_explorer(&parsed.cpds, &config.budget)
    } else {
        artifacts.symbolic_explorer(&parsed.cpds, &config.budget, config.subsumption)
    };
    let backend = if explicit_backend {
        "explicit"
    } else {
        "symbolic"
    };
    // The first bound whose `layer` line this stream has not sent yet.
    let mut cursor = 0;

    write_stream_head(out, "application/x-ndjson")?;
    let mut client_gone = false;
    for (spec, property) in parsed.properties {
        if client_gone {
            break;
        }
        let _guard = broker.session_started();
        send_line(out, &start_line(&spec, fcr, backend), &mut client_gone);
        let session = portfolio.session_with(parsed.cpds.clone(), property, &artifacts);
        let mut session = match session {
            Ok(session) => session,
            Err(error) => {
                send_line(
                    out,
                    &error_line(&spec, &error.to_string()),
                    &mut client_gone,
                );
                continue;
            }
        };
        let token = session.cancel_token();
        while let Some(event) = session.next_event() {
            send_layers(out, &explorer, backend, &mut cursor, &mut client_gone);
            for line in event_lines(&spec, &event) {
                send_line(out, &line, &mut client_gone);
            }
            if client_gone {
                // The client hung up: stop this session cooperatively.
                // Interrupted rounds roll back, the shared layers stay
                // valid for everyone else.
                token.cancel();
            }
        }
        send_layers(out, &explorer, backend, &mut cursor, &mut client_gone);
        if let Some(Err(error)) = session.outcome() {
            send_line(
                out,
                &error_line(&spec, &error.to_string()),
                &mut client_gone,
            );
        }
    }
    Ok(())
}

/// Sends a `layer` line per sealed bound from `cursor` on and moves
/// `cursor` past them. The depth is read once, so a layer sealed
/// meanwhile goes out on the next call instead of being skipped.
fn send_layers(
    out: &mut impl Write,
    explorer: &SharedExplorer,
    backend: &str,
    cursor: &mut usize,
    failed: &mut bool,
) {
    let depth = explorer.depth();
    for k in *cursor..=depth {
        send_line(out, &layer_line(backend, &explorer.view(k)), failed);
    }
    *cursor = depth + 1;
}

/// Writes one NDJSON line; flips `failed` on the first write error
/// instead of propagating, so the caller can wind the session down.
fn send_line(out: &mut impl Write, line: &str, failed: &mut bool) {
    if *failed {
        return;
    }
    let write = out
        .write_all(line.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .and_then(|()| out.flush());
    if write.is_err() {
        *failed = true;
    }
}

/// `POST /suite`: batch verification through the broker's long-lived
/// cache, one JSON document as the answer.
fn handle_suite(
    out: &mut impl Write,
    request: &Request,
    broker: &Arc<Broker>,
) -> std::io::Result<()> {
    let parsed = match parse_analyze_request(request) {
        Ok(parsed) => parsed,
        Err(message) => return respond_error(out, 400, "Bad Request", &message),
    };
    let workers = match request.query_first("workers") {
        None => broker.config().workers,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if (1..=64).contains(&n) => n,
            _ => {
                return respond_error(
                    out,
                    400,
                    "Bad Request",
                    &format!("bad workers '{raw}' (expected 1..=64)"),
                )
            }
        },
    };
    // One analysis slot per suite request; the batch's own bounded
    // parallelism runs within it.
    let _slot = broker.acquire_slot();
    broker.count_suite();
    let portfolio = broker.portfolio(parsed.lineup, parsed.max_k);
    // Probe the registry up front so the reported hit/miss reflects
    // this request's arrival, not the in-run lookup race. The
    // broker-level lookup also revives/reloads spilled systems, so a
    // spilled-but-warm system reports `hit` here.
    let (_, cache_hit) = broker.lookup_for(&parsed.cpds);
    let problems: Vec<(Cpds, Property)> = parsed
        .properties
        .iter()
        .map(|(_, property)| (parsed.cpds.clone(), property.clone()))
        .collect();
    let results = portfolio.run_suite_cached(problems, workers, &broker.cache);
    // Re-track after the run: had a concurrent request spilled this
    // system mid-batch, the suite's internal lookup re-created the
    // slot outside the LRU queue — this puts it back under the cap.
    broker.artifacts_for(&parsed.cpds);

    let mut records = Vec::new();
    for ((spec, _), result) in parsed.properties.iter().zip(&results) {
        let mut obj = JsonObject::new();
        obj.string("property", spec);
        match result {
            Ok(outcome) => {
                fill_outcome(&mut obj, outcome);
                obj.number("duration_ms", outcome.duration.as_millis() as f64);
                obj.number("round_wall_us", outcome.round_wall.as_micros() as f64);
                obj.number("rounds_explored", outcome.rounds_explored as f64);
                obj.number("rounds_replayed", outcome.rounds_replayed as f64);
            }
            Err(error) => {
                obj.string("error", &error.to_string());
            }
        }
        records.push(obj.finish());
    }
    let stats = broker.cache.stats();
    let mut body = JsonObject::new();
    body.string("cache", if cache_hit { "hit" } else { "miss" });
    body.raw("results", format!("[{}]", records.join(",")));
    body.number("systems", stats.systems as f64);
    write_response(out, 200, "OK", "application/json", body.finish().as_bytes())
}

/// `GET /v1`: a JSON index of the versioned API — every endpoint with
/// its method and legacy alias, plus the server's capabilities.
fn handle_index(out: &mut impl Write, broker: &Arc<Broker>) -> std::io::Result<()> {
    let endpoints: [(&str, &str, &str); 6] = [
        ("POST", "/v1/analyze", "stream NDJSON verdicts for a model"),
        (
            "POST",
            "/v1/suite",
            "batch-verify every property, one JSON answer",
        ),
        (
            "GET",
            "/v1/systems",
            "the shared-exploration registry with residency",
        ),
        ("GET", "/v1/healthz", "liveness and service counters"),
        ("GET", "/v1/metrics", "Prometheus text exposition"),
        ("POST", "/v1/shutdown", "graceful or abort shutdown"),
    ];
    let rendered: Vec<String> = endpoints
        .iter()
        .map(|(method, path, description)| {
            let mut obj = JsonObject::new();
            obj.string("method", method);
            obj.string("path", path);
            obj.string("legacy", path.strip_prefix("/v1").expect("v1-prefixed"));
            obj.string("description", description);
            obj.finish()
        })
        .collect();
    let mut capabilities = JsonObject::new();
    capabilities.number("workers", broker.config().workers as f64);
    capabilities.number("max_systems", broker.config().max_systems as f64);
    capabilities.bool("state_dir", broker.state_dir_enabled());
    let mut body = JsonObject::new();
    body.string("service", "cuba-serve");
    body.string("version", env!("CARGO_PKG_VERSION"));
    body.raw("api_versions", "[\"v1\"]".to_owned());
    body.raw("endpoints", format!("[{}]", rendered.join(",")));
    body.raw("capabilities", capabilities.finish());
    write_response(out, 200, "OK", "application/json", body.finish().as_bytes())
}

/// `GET /systems`: the shared-exploration registry.
fn handle_systems(out: &mut impl Write, broker: &Arc<Broker>) -> std::io::Result<()> {
    let mut entries: Vec<String> = broker
        .cache
        .entries()
        .iter()
        .map(|entry| {
            let mut obj = JsonObject::new();
            obj.string("fingerprint", &format!("{:016x}", entry.fingerprint));
            obj.string("residency", "resident");
            obj.number("threads", entry.system.num_threads() as f64);
            obj.number("shared_states", entry.system.num_shared() as f64);
            match entry.artifacts.fcr_if_checked() {
                Some(report) => obj.bool("fcr", report.holds()),
                None => obj.null("fcr"),
            };
            explorer_field(
                &mut obj,
                "explicit",
                entry.artifacts.explicit_explorer_if_started(),
            );
            explorer_field(
                &mut obj,
                "symbolic_exact",
                entry
                    .artifacts
                    .symbolic_explorer_if_started(cuba_explore::SubsumptionMode::Exact),
            );
            explorer_field(
                &mut obj,
                "symbolic_pointwise",
                entry
                    .artifacts
                    .symbolic_explorer_if_started(cuba_explore::SubsumptionMode::Pointwise),
            );
            obj.finish()
        })
        .collect();
    // Spilled systems follow the resident ones: pushed out of the
    // registry by `max_systems` but not gone — revivable through a
    // still-live client `Arc` or reloadable from the state directory.
    for (fingerprint, system) in broker.spilled_systems() {
        let mut obj = JsonObject::new();
        obj.string("fingerprint", &format!("{fingerprint:016x}"));
        obj.string("residency", "spilled");
        obj.number("threads", system.num_threads() as f64);
        obj.number("shared_states", system.num_shared() as f64);
        entries.push(obj.finish());
    }
    let stats = broker.cache.stats();
    let mut body = JsonObject::new();
    body.number("systems", stats.systems as f64);
    body.number("cache_hits", stats.hits as f64);
    body.number("cache_misses", stats.misses as f64);
    body.number("spills_total", broker.spills_total() as f64);
    body.number("revives_total", broker.revives_total() as f64);
    body.number("snapshot_saves_total", broker.saves_total() as f64);
    body.number("snapshot_reloads_total", broker.reloads_total() as f64);
    body.raw("entries", format!("[{}]", entries.join(",")));
    write_response(out, 200, "OK", "application/json", body.finish().as_bytes())
}

/// Renders one backend explorer slot (or `null` when never started).
fn explorer_field(obj: &mut JsonObject, key: &str, explorer: Option<Arc<SharedExplorer>>) {
    match explorer {
        Some(explorer) => {
            let mut inner = JsonObject::new();
            inner.number("rounds_explored", explorer.rounds_explored() as f64);
            inner.number("depth", explorer.depth() as f64);
            obj.raw(key, inner.finish());
        }
        None => {
            obj.null(key);
        }
    }
}

/// `GET /metrics`: the process-wide telemetry registry in Prometheus
/// text exposition format. Scrape-ready — every metric family carries
/// `# HELP`/`# TYPE` lines and histograms render cumulatively with a
/// terminal `+Inf` bucket.
fn handle_metrics(out: &mut impl Write) -> std::io::Result<()> {
    let body = cuba_telemetry::metrics::render_prometheus();
    write_response(
        out,
        200,
        "OK",
        "text/plain; version=0.0.4; charset=utf-8",
        body.as_bytes(),
    )
}

/// `GET /healthz`: liveness and service counters.
fn handle_healthz(out: &mut impl Write, broker: &Arc<Broker>) -> std::io::Result<()> {
    let stats = broker.cache.stats();
    let mut body = JsonObject::new();
    body.string(
        "status",
        if broker.is_draining() {
            "draining"
        } else {
            "ok"
        },
    );
    body.string("version", env!("CARGO_PKG_VERSION"));
    body.bool("draining", broker.is_draining());
    body.number("uptime_ms", broker.uptime_ms() as f64);
    body.number("workers", broker.config().workers as f64);
    body.number("workers_busy", broker.workers_busy() as f64);
    body.number("workers_idle", broker.workers_idle() as f64);
    body.number("connections_active", broker.connections_active() as f64);
    body.number("requests_total", broker.requests_total() as f64);
    body.number("sessions_active", broker.sessions_active() as f64);
    body.number("sessions_total", broker.sessions_total() as f64);
    body.number("suites_total", broker.suites_total() as f64);
    body.number("systems", stats.systems as f64);
    body.number("cache_hits", stats.hits as f64);
    body.number("cache_misses", stats.misses as f64);
    write_response(out, 200, "OK", "application/json", body.finish().as_bytes())
}

/// `POST /shutdown`: answer, then stop the service.
fn handle_shutdown(
    out: &mut impl Write,
    request: &Request,
    broker: &Arc<Broker>,
    addr: SocketAddr,
) -> std::io::Result<()> {
    let mode = match request.query_first("mode") {
        None | Some("graceful") => ShutdownMode::Graceful,
        Some("abort") => ShutdownMode::Abort,
        Some(other) => {
            return respond_error(
                out,
                400,
                "Bad Request",
                &format!("bad mode '{other}' (expected graceful or abort)"),
            )
        }
    };
    let mut body = JsonObject::new();
    body.string("status", "shutting-down");
    body.string(
        "mode",
        if mode == ShutdownMode::Abort {
            "abort"
        } else {
            "graceful"
        },
    );
    let answer = write_response(out, 200, "OK", "application/json", body.finish().as_bytes());
    broker.initiate_shutdown(mode);
    // Wake the acceptor so it observes the draining flag.
    let _ = TcpStream::connect(addr);
    answer
}

// ---------------------------------------------------------------------------
// NDJSON serialization. Kept public (and free of wall-clock fields in
// the `verdict` line) so tests and clients can reproduce the exact
// bytes from a direct `Portfolio` run.

/// The per-property `start` line.
pub fn start_line(property: &str, fcr: bool, backend: &str) -> String {
    let mut obj = JsonObject::new();
    obj.string("type", "start");
    obj.string("property", property);
    obj.bool("fcr", fcr);
    obj.string("backend", backend);
    obj.finish()
}

/// One layer of the shared exploration, as read from its layer
/// record: the counts of bound `view.k`.
pub fn layer_line(backend: &str, view: &LayerView) -> String {
    let mut obj = JsonObject::new();
    obj.string("type", "layer");
    obj.string("backend", backend);
    obj.number("k", view.k as f64);
    obj.number("states", view.states as f64);
    obj.number("visible", view.visible as f64);
    obj.number("new_visible", view.new_visible as f64);
    obj.bool("collapsed", view.collapsed);
    obj.finish()
}

/// A mid-stream error (construction failure or hard engine error).
pub fn error_line(property: &str, message: &str) -> String {
    let mut obj = JsonObject::new();
    obj.string("type", "error");
    obj.string("property", property);
    obj.string("message", message);
    obj.finish()
}

/// The NDJSON lines for one [`SessionEvent`], in stream order.
pub fn event_lines(property: &str, event: &SessionEvent) -> Vec<String> {
    match event {
        SessionEvent::RoundCompleted {
            engine,
            k,
            states,
            delta_states,
            elapsed,
            event,
            replayed,
        } => {
            let tag = match event {
                SequenceEvent::Grew => "grew",
                SequenceEvent::NewPlateau => "new-plateau",
                SequenceEvent::OngoingPlateau => "plateau",
            };
            let mut obj = JsonObject::new();
            obj.string("type", "round");
            obj.string("property", property);
            obj.string("engine", &engine.to_string());
            obj.number("k", *k as f64);
            obj.number("states", *states as f64);
            obj.number("delta_states", *delta_states as f64);
            obj.number("elapsed_us", elapsed.as_micros() as f64);
            obj.string("event", tag);
            obj.bool("replayed", *replayed);
            vec![obj.finish()]
        }
        SessionEvent::EngineConcluded {
            engine,
            verdict,
            rounds,
            states,
        } => {
            let mut obj = JsonObject::new();
            obj.string("type", "engine-concluded");
            obj.string("property", property);
            obj.string("engine", &engine.to_string());
            obj.string("verdict", verdict_word(verdict));
            obj.number("rounds", *rounds as f64);
            obj.number("states", *states as f64);
            vec![obj.finish()]
        }
        SessionEvent::EngineFailed { engine, error } => {
            let mut obj = JsonObject::new();
            obj.string("type", "engine-failed");
            obj.string("property", property);
            obj.string("engine", &engine.to_string());
            obj.string("error", &error.to_string());
            vec![obj.finish()]
        }
        SessionEvent::Verdict { outcome } => {
            let mut lines = Vec::new();
            if let Verdict::Unsafe {
                witness: Some(witness),
                ..
            } = &outcome.verdict
            {
                let mut obj = JsonObject::new();
                obj.string("type", "witness");
                obj.string("property", property);
                obj.number("steps", witness.len() as f64);
                obj.number("contexts", witness.num_contexts() as f64);
                lines.push(obj.finish());
            }
            lines.push(verdict_line(property, outcome));
            lines.push(done_line(property, outcome));
            lines
        }
    }
}

/// The word for a verdict.
fn verdict_word(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Safe { .. } => "safe",
        Verdict::Unsafe { .. } => "unsafe",
        Verdict::Undetermined { .. } => "undetermined",
    }
}

/// Adds the deterministic outcome fields shared by the `verdict` line
/// and the `/suite` records.
fn fill_outcome(obj: &mut JsonObject, outcome: &CubaOutcome) {
    obj.string("verdict", verdict_word(&outcome.verdict));
    match &outcome.verdict {
        Verdict::Safe { k, method } => {
            obj.number("k", *k as f64);
            obj.string("method", &method.to_string());
        }
        Verdict::Unsafe { k, .. } => {
            obj.number("k", *k as f64);
        }
        Verdict::Undetermined { reason } => {
            obj.null("k");
            obj.string("reason", reason);
        }
    }
    obj.string("engine", &outcome.engine.to_string());
    obj.number("rounds", outcome.rounds as f64);
    obj.number("states", outcome.states as f64);
    obj.bool("fcr", outcome.fcr_holds);
}

/// The deterministic `verdict` line: every field is a pure function
/// of (system, property, configuration) — no wall-clock, no
/// shared-vs-fresh exploration difference — so a service answer can
/// be byte-compared to a direct [`Portfolio`](cuba_core::Portfolio) run.
pub fn verdict_line(property: &str, outcome: &CubaOutcome) -> String {
    let mut obj = JsonObject::new();
    obj.string("type", "verdict");
    obj.string("property", property);
    fill_outcome(&mut obj, outcome);
    obj.finish()
}

/// The per-property trailer carrying the timing/cost counters.
pub fn done_line(property: &str, outcome: &CubaOutcome) -> String {
    let mut obj = JsonObject::new();
    obj.string("type", "done");
    obj.string("property", property);
    obj.number("duration_ms", outcome.duration.as_millis() as f64);
    obj.number("round_wall_us", outcome.round_wall.as_micros() as f64);
    obj.number("rounds_explored", outcome.rounds_explored as f64);
    obj.number("rounds_replayed", outcome.rounds_replayed as f64);
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_core::{ConvergenceMethod, EngineUsed};

    fn outcome(verdict: Verdict) -> CubaOutcome {
        CubaOutcome {
            verdict,
            fcr_holds: true,
            engine: EngineUsed::Alg3Explicit,
            states: 12,
            rounds: 7,
            duration: Duration::from_millis(3),
            round_wall: Duration::from_micros(250),
            rounds_explored: 6,
            rounds_replayed: 1,
            stages: cuba_core::StageTimes::default(),
        }
    }

    /// The verdict line must be deterministic: no wall-clock fields,
    /// stable field order.
    #[test]
    fn verdict_line_is_timing_free() {
        let safe = outcome(Verdict::Safe {
            k: 5,
            method: ConvergenceMethod::GeneratorTest,
        });
        assert_eq!(
            verdict_line("true", &safe),
            "{\"type\":\"verdict\",\"property\":\"true\",\"verdict\":\"safe\",\"k\":5,\
             \"method\":\"generator test\",\"engine\":\"Alg3(T(Rk))\",\"rounds\":7,\
             \"states\":12,\"fcr\":true}"
        );
        let undetermined = outcome(Verdict::Undetermined {
            reason: "round limit".into(),
        });
        let line = verdict_line("p", &undetermined);
        assert!(line.contains("\"k\":null"));
        assert!(line.contains("\"reason\":\"round limit\""));
        assert!(!line.contains("duration"), "no wall-clock in the verdict");
        let done = done_line("p", &undetermined);
        assert!(done.contains("\"duration_ms\":3"));
        assert!(done.contains("\"rounds_explored\":6"));
    }

    /// Model parsing: both formats and the error paths.
    #[test]
    fn parse_model_formats() {
        let cpds_src = "shared 2\ninit 0\nthread 2\nstack 1\n(0,1) -> (1,1)\n";
        let (cpds, property) = parse_model("cpds", cpds_src).unwrap();
        assert_eq!(cpds.num_threads(), 1);
        assert_eq!(property, Property::True);
        assert!(parse_model("cpds", "not a model").is_err());
        assert!(parse_model("toml", cpds_src).is_err());
    }

    /// The analyze-request parser: defaults, repeats, overrides,
    /// rejections.
    #[test]
    fn analyze_request_parsing() {
        let model = "shared 2\ninit 0\nthread 2\nstack 1\n(0,1) -> (1,1)\n";
        let mut request = Request {
            method: "POST".into(),
            path: "/analyze".into(),
            body: model.as_bytes().to_vec(),
            ..Request::default()
        };
        let parsed = parse_analyze_request(&request).unwrap();
        assert_eq!(parsed.properties, vec![("default".into(), Property::True)]);
        assert_eq!(parsed.lineup, None);
        assert_eq!(parsed.max_k, None);

        request.query = vec![
            ("property".into(), "never-shared:1".into()),
            ("property".into(), "true".into()),
            ("engine".into(), "symbolic".into()),
            ("max_k".into(), "9".into()),
        ];
        let parsed = parse_analyze_request(&request).unwrap();
        assert_eq!(parsed.properties.len(), 2);
        assert_eq!(parsed.properties[0].0, "never-shared:1");
        assert_eq!(parsed.max_k, Some(9));
        // `engine=symbolic` is the one fused symbolic arm.
        assert_eq!(
            parsed.lineup,
            Some(Lineup::Fixed(vec![EngineKind::Alg3Symbolic]))
        );

        request.query = vec![("engine".into(), "quantum".into())];
        assert!(parse_analyze_request(&request).is_err());
        // Unknown parameters are ignored, `reduce` included.
        request.query = vec![("reduce".into(), "maybe".into())];
        assert!(parse_analyze_request(&request).is_ok());
        request.query.clear();
        request.body.clear();
        assert!(parse_analyze_request(&request).is_err(), "empty body");
    }
}
