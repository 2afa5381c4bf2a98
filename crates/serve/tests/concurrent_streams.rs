//! The acceptance test of the serve milestone: four concurrent
//! streaming clients (2 properties × 2 connections) analyze one
//! system through the server, and
//!
//! * every client's `verdict` NDJSON line is **byte-identical** to a
//!   direct `Portfolio` run of the same problem under the same
//!   configuration (fresh, unshared artifacts), and
//! * the server-side backend explored each layer **exactly once**:
//!   `/systems` reports the same `rounds_explored` as one private
//!   shared exploration serving both properties sequentially — not
//!   4 × it.
//!
//! Sessions advance their arms round-robin in lockstep, so winner,
//! rounds, and states are pure functions of (system, property,
//! configuration) and byte comparison is fair.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use cuba_core::{Portfolio, Property, SessionConfig, SystemArtifacts};
use cuba_serve::{parse_model, verdict_line, ServeConfig, Server};

/// The Fig. 1 sample, exactly as a CLI user would POST it.
const MODEL: &str = include_str!("../../../samples/fig1.cpds");

/// `(url spec, decoded spec)` pairs: the bug property needs a percent
/// escape for `|` in the query string.
const PROPERTIES: [(&str, &str); 2] = [
    ("true", "true"),
    ("never-visible:1%7C2,6", "never-visible:1|2,6"),
];

/// One raw HTTP exchange; returns `(status head, body)`.
fn request_raw(addr: std::net::SocketAddr, head: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{head} HTTP/1.1\r\nHost: cuba\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    (head.to_owned(), body.to_owned())
}

/// One raw HTTP exchange that must answer 200; returns the body.
fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> String {
    let (head, body) = request_raw(addr, head, body);
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "expected 200, got: {head}"
    );
    body
}

/// Extracts the single line of the given NDJSON `type` from a body.
fn line_of_type<'a>(body: &'a str, event_type: &str) -> &'a str {
    let marker = format!("{{\"type\":\"{event_type}\"");
    let mut lines = body.lines().filter(|l| l.starts_with(&marker));
    let line = lines
        .next()
        .unwrap_or_else(|| panic!("no '{event_type}' line in:\n{body}"));
    assert!(lines.next().is_none(), "duplicate '{event_type}' line");
    line
}

/// Pulls `"key":NUMBER` out of a JSON line.
fn number_field(line: &str, key: &str) -> usize {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker).expect(key) + marker.len();
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect(key)
}

/// The `k` of every line of the given NDJSON `type`, in stream order.
fn bounds_of_type(body: &str, event_type: &str) -> Vec<usize> {
    let marker = format!("{{\"type\":\"{event_type}\"");
    body.lines()
        .filter(|l| l.starts_with(&marker))
        .map(|l| number_field(l, "k"))
        .collect()
}

/// The layer-line contract: a body's `layer` lines carry `k` = 0, 1,
/// …, d — ascending, contiguous from 0, each exactly once. Returns d.
fn layer_depth(body: &str) -> usize {
    let bounds = bounds_of_type(body, "layer");
    let depth = bounds.len().checked_sub(1).expect("no layer lines");
    assert_eq!(
        bounds,
        (0..=depth).collect::<Vec<_>>(),
        "each bound once, in order:\n{body}"
    );
    depth
}

#[test]
fn four_streaming_clients_share_one_exploration() {
    let server = Server::bind(ServeConfig {
        workers: 4,
        session: SessionConfig::new(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let broker = server.broker();
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // Direct, unshared baseline runs: one fresh Portfolio per
    // property, same configuration as the server's.
    let (cpds, _) = parse_model("cpds", MODEL).expect("sample parses");
    let portfolio = Portfolio::auto().with_config(SessionConfig::new());
    let expected_verdicts: Vec<String> = PROPERTIES
        .iter()
        .map(|(_, spec)| {
            let property = Property::parse(spec).expect("spec parses");
            let outcome = portfolio
                .run(cpds.clone(), property)
                .expect("direct run succeeds");
            verdict_line(spec, &outcome)
        })
        .collect();
    // The exactly-once baseline: one private shared exploration
    // serving both properties sequentially.
    let baseline_artifacts = Arc::new(SystemArtifacts::new());
    for (_, spec) in PROPERTIES {
        let property = Property::parse(spec).expect("spec parses");
        portfolio
            .session_with(cpds.clone(), property, &baseline_artifacts)
            .expect("session opens")
            .run()
            .expect("baseline run succeeds");
    }
    let baseline_explorer = baseline_artifacts
        .explicit_explorer_if_started()
        .expect("explicit backend ran");
    let expected_explored = baseline_explorer.rounds_explored();
    let expected_depth = baseline_explorer.depth();
    assert!(expected_explored > 0, "fig1 needs live exploration");

    // 2 properties × 2 connections, all four in flight at once.
    let barrier = Arc::new(Barrier::new(4));
    let bodies: Vec<(usize, String)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|client| {
                let barrier = barrier.clone();
                scope.spawn(move || {
                    let (url_spec, _) = PROPERTIES[client % 2];
                    barrier.wait();
                    let body = request(
                        addr,
                        &format!("POST /v1/analyze?property={url_spec}"),
                        MODEL,
                    );
                    (client % 2, body)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });

    for (property_index, body) in &bodies {
        // Byte-identical verdicts: shared exploration must not change
        // a single character of the deterministic verdict record.
        assert_eq!(
            line_of_type(body, "verdict"),
            expected_verdicts[*property_index],
            "server verdict differs from the direct run"
        );
        // The stream is live, not a summary: rounds and the final
        // cost trailer are all there.
        assert!(body.lines().any(|l| l.starts_with("{\"type\":\"round\"")));
        line_of_type(body, "start");
        line_of_type(body, "done");
        // Every layer up to the client's last round, whichever client
        // paid for it.
        let last_round = bounds_of_type(body, "round").into_iter().max();
        assert!(layer_depth(body) >= last_round.expect("round lines"));
    }

    // Exactly-once exploration across all four clients: the explicit
    // backend's live-round counter matches the sequential
    // shared-exploration baseline — not 4 × it.
    let systems = request(addr, "GET /v1/systems", "");
    assert!(systems.contains("\"systems\":1"), "one distinct system");
    let explicit = systems
        .split("\"explicit\":{")
        .nth(1)
        .expect("explicit explorer reported")
        .split('}')
        .next()
        .expect("explorer object");
    assert_eq!(
        number_field(explicit, "rounds_explored"),
        expected_explored,
        "each layer must be explored exactly once, whoever pays"
    );
    assert_eq!(number_field(explicit, "depth"), expected_depth);
    // …and the broker agrees (in-process view of the same registry).
    let entry = &broker.cache.entries()[0];
    let server_explorer = entry
        .artifacts
        .explicit_explorer_if_started()
        .expect("server explored explicitly");
    assert_eq!(server_explorer.rounds_explored(), expected_explored);

    // A late client replays the warm layers: the explorer's counter
    // must not move. (The session's own `rounds_explored` stays
    // nonzero — the CBA refuter arm has no shared store — so the
    // shared-backend counter is the meaningful exactly-once witness.)
    let body = request(
        addr,
        &format!("POST /v1/analyze?property={}", PROPERTIES[0].0),
        MODEL,
    );
    assert_eq!(line_of_type(&body, "verdict"), expected_verdicts[0]);
    assert_eq!(layer_depth(&body), expected_depth, "every warm layer");
    let done = line_of_type(&body, "done");
    assert!(
        number_field(done, "rounds_replayed") > 0,
        "a warm property must replay shared layers: {done}"
    );
    assert_eq!(server_explorer.rounds_explored(), expected_explored);

    let health = request(addr, "GET /v1/healthz", "");
    assert_eq!(number_field(&health, "sessions_total"), 5);
    assert_eq!(number_field(&health, "sessions_active"), 0);

    let shutdown = request(addr, "POST /v1/shutdown?mode=graceful", "");
    assert!(shutdown.contains("\"status\":\"shutting-down\""));
    handle.join().expect("clean shutdown");
}

/// One request with two properties streams each layer once across
/// both properties, not once per property: the first property pays
/// for the layers, the second replays them.
#[test]
fn two_properties_stream_each_layer_once() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        session: SessionConfig::new(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let broker = server.broker();
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let url = format!(
        "POST /v1/analyze?property={}&property={}",
        PROPERTIES[0].0, PROPERTIES[1].0
    );
    let body = request(addr, &url, MODEL);
    let verdicts = body
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"verdict\""));
    assert_eq!(verdicts.count(), 2, "{body}");
    let explorer = broker.cache.entries()[0]
        .artifacts
        .explicit_explorer_if_started()
        .expect("explicit backend ran");
    assert_eq!(layer_depth(&body), explorer.depth());

    request(addr, "POST /v1/shutdown", "");
    handle.join().expect("clean shutdown");
}

/// `/suite` over the long-lived cache: correct verdicts, and a repeat
/// batch is a cache hit with no new exploration.
#[test]
fn suite_endpoint_reuses_the_cache() {
    let server = Server::bind(ServeConfig {
        workers: 2,
        session: SessionConfig::new(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();
    let url = "POST /v1/suite?property=true&property=never-visible:1%7C2,6&workers=2";

    let first = request(addr, url, MODEL);
    assert!(first.contains("\"cache\":\"miss\""));
    assert!(first.contains("\"verdict\":\"safe\""));
    assert!(first.contains("\"verdict\":\"unsafe\""));

    let second = request(addr, url, MODEL);
    assert!(second.contains("\"cache\":\"hit\""));
    assert!(second.contains("\"verdict\":\"safe\""));

    // The systems registry shows one system, fully warm.
    let systems = request(addr, "GET /v1/systems", "");
    assert!(systems.contains("\"systems\":1"));

    request(addr, "POST /v1/shutdown", "");
    handle.join().expect("clean shutdown");
}

/// An FCR-violating model is served by the symbolic backend, and an
/// abort-mode shutdown (which fires the service-wide cancel token —
/// covered unit-wise in the broker tests) still answers the request
/// and drains the server cleanly.
#[test]
fn abort_shutdown_drains_cleanly() {
    // A single thread pushing without a context switch: finite
    // context reachability fails, only the symbolic arms apply.
    let unbounded = "\
shared 3
init 0
thread 2
stack 1
(0,1) -> (0,1 1)
(0,1) -> (1,eps)
(1,1) -> (2,eps)
";
    let server = Server::bind(ServeConfig {
        workers: 2,
        session: SessionConfig::new(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // Forcing the explicit lineup onto an FCR-violating system is a
    // clean 400 — and must not register a phantom explorer.
    let (head, body) = request_raw(addr, "POST /v1/analyze?engine=explicit", unbounded);
    assert!(head.starts_with("HTTP/1.1 400"), "got: {head}");
    assert!(body.contains("finite context reachability"));
    let systems = request(addr, "GET /v1/systems", "");
    assert!(systems.contains("\"fcr\":false"));
    assert!(
        systems.contains("\"symbolic_exact\":null"),
        "a rejected request must not register explorers: {systems}"
    );

    // Sanity: the model analyzes fine when left alone.
    let body = request(addr, "POST /v1/analyze?property=true", unbounded);
    assert!(line_of_type(&body, "start").contains("\"backend\":\"symbolic\""));
    line_of_type(&body, "verdict");

    let shutdown = request(addr, "POST /v1/shutdown?mode=abort", "");
    assert!(shutdown.contains("\"mode\":\"abort\""));
    handle.join().expect("clean shutdown");
}

/// Control endpoints never queue behind the bounded analysis pool: a
/// saturated pool delays `/analyze` (no session starts) while
/// `/healthz` and `/systems` keep answering, and the queued analysis
/// completes as soon as a slot frees.
#[test]
fn control_endpoints_bypass_the_analysis_pool() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        session: SessionConfig::new(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let broker = server.broker();
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // Saturate the single analysis slot from outside.
    let slot = broker.acquire_slot();
    let queued = std::thread::spawn(move || request(addr, "POST /v1/analyze?property=true", MODEL));
    // The stream request is parked on the pool: no session starts…
    std::thread::sleep(std::time::Duration::from_millis(150));
    assert_eq!(broker.sessions_total(), 0, "analysis must wait for a slot");
    // …while control endpoints answer immediately, and the pool
    // occupancy shows the saturated slot.
    let health = request(addr, "GET /v1/healthz", "");
    assert!(health.contains("\"status\":\"ok\""));
    assert_eq!(number_field(&health, "workers_busy"), 1);
    assert_eq!(number_field(&health, "workers_idle"), 0);
    request(addr, "GET /v1/systems", "");

    drop(slot);
    let body = queued.join().expect("queued client");
    line_of_type(&body, "verdict");
    assert_eq!(broker.sessions_total(), 1);

    request(addr, "POST /v1/shutdown", "");
    handle.join().expect("clean shutdown");
}

/// `GET /v1/metrics` serves the process-wide registry in Prometheus
/// text format, `/v1/healthz` reports build/version liveness fields,
/// a wrong-method request is a clean 405, and an unprefixed path is a
/// 404 like any unknown one.
#[test]
fn metrics_endpoint_exposes_prometheus_text() {
    let server = Server::bind(ServeConfig {
        workers: 2,
        session: SessionConfig::new(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    // Run one analysis so the analysis-side families carry data.
    let body = request(addr, "POST /v1/analyze?property=true", MODEL);
    line_of_type(&body, "verdict");

    let (head, metrics) = request_raw(addr, "GET /v1/metrics", "");
    assert!(head.starts_with("HTTP/1.1 200"), "got: {head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "Prometheus content type missing: {head}"
    );
    // Required families: analysis counters, stage histograms, and the
    // HTTP families this very scrape feeds.
    for family in [
        "cuba_rounds_explored_total",
        "cuba_waves_total",
        "cuba_cache_hits_total",
        "cuba_sessions_active",
        "cuba_workers_busy",
        "cuba_stage_duration_us",
        "cuba_http_requests_total",
        "cuba_http_request_duration_us",
        "cuba_frontier_edges",
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {family} ")),
            "family '{family}' missing from exposition"
        );
    }
    // The analysis above must be visible in the counters (the registry
    // is process-global, so sibling tests may have added more), and
    // this scrape counted itself as an endpoint hit.
    assert!(metrics.contains("cuba_http_requests_total{endpoint=\"analyze\"}"));
    assert!(metrics.contains("cuba_http_requests_total{endpoint=\"metrics\"}"));
    assert!(
        metrics.lines().any(|l| {
            l.strip_prefix("cuba_waves_total ")
                .and_then(|v| v.parse::<u64>().ok())
                .is_some_and(|v| v > 0)
        }),
        "saturation waves should have been counted:\n{metrics}"
    );

    // Wrong method: GET-only endpoint.
    let (head, _) = request_raw(addr, "POST /v1/metrics", "");
    assert!(head.starts_with("HTTP/1.1 405"), "got: {head}");
    // Only the versioned surface is served.
    let (head, _) = request_raw(addr, "GET /healthz", "");
    assert!(head.starts_with("HTTP/1.1 404"), "got: {head}");

    // Healthz liveness fields ride along.
    let health = request(addr, "GET /v1/healthz", "");
    assert!(health.contains("\"version\":\""));
    assert!(health.contains("\"draining\":false"));

    request(addr, "POST /v1/shutdown", "");
    handle.join().expect("clean shutdown");
}

/// An oversized `.cpds` header is a clean 400 from the decoder rather
/// than a huge allocation that aborts the process, and the server
/// keeps answering afterwards.
#[test]
fn oversized_model_header_is_a_bad_request() {
    let server = Server::bind(ServeConfig {
        workers: 1,
        session: SessionConfig::new(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr = handle.addr();

    let (head, body) = request_raw(addr, "POST /v1/analyze", "shared 4000000000\n");
    assert!(head.starts_with("HTTP/1.1 400"), "got: {head}");
    assert!(body.contains("exceed the limit"), "got: {body}");
    let health = request(addr, "GET /v1/healthz", "");
    assert!(health.contains("\"status\":\"ok\""));

    request(addr, "POST /v1/shutdown", "");
    handle.join().expect("clean shutdown");
}
