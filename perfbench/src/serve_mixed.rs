//! The `serve-mixed` workload: an in-process `cuba_serve` server on
//! loopback with two closed-loop clients POSTing `/v1/analyze`.
//!
//! Ten of every eleven requests are *warm*: rotating property specs
//! over the sample models and `textfmt`-printed bluetooth-3/1+2 and
//! stefan-1/4, all primed during set-up, so they exercise HTTP, the
//! broker, cache lookup, layer replay and model parsing. The eleventh
//! is *cold*: a never-seen seeded `random_cpds` system that inserts
//! into the cache and explores live, so writes sit beside reads.
//! `max_systems` is far above the number of cold systems a run can
//! send, so cold systems never evict the warm set.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cuba_bench::compare::extract_number;
use cuba_bench::harness::bench_config;
use cuba_benchmarks::random::{random_cpds, RandomCpdsConfig};
use cuba_benchmarks::{bluetooth, stefan, textfmt};
use cuba_core::{AnalysisSession, Portfolio, Property, SchedulePolicy, SuiteCache};
use cuba_explore::Interrupt;
use cuba_pds::rng::SplitMix64;
use cuba_serve::{parse_model, verdict_line, ServeConfig, Server, ServerHandle};
use cuba_telemetry::metrics::METRICS;

use crate::spans::Tracer;
use crate::stats::median;
use crate::{end_to_end, Report};

const FIG1: &str = include_str!("../../samples/fig1.cpds");
const TICKET: &str = include_str!("../../samples/ticket.bp");
const FIG2: &str = include_str!("../../samples/fig2.bp");

/// Closed-loop clients, each with one request in flight.
const CLIENTS: usize = 2;
/// Set-ups timed before the window and again after it; `setup_s` is
/// the median of all of them, so it spans drift in host speed.
const SETUPS: usize = 3;
/// Requests per client and traced chunk decomposed into layer calls.
const DECOMPOSE_PER_LOG: usize = 100;

/// One `/v1/analyze` request of the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `cpds` or `bp`.
    pub format: &'static str,
    /// The model source.
    pub body: Arc<str>,
    /// The `property` query value; `None` uses the model's default.
    pub spec: Option<String>,
    /// Index into the warm catalog, `None` for a cold request.
    pub warm: Option<usize>,
}

impl Request {
    /// The property name the server echoes in its `verdict` line.
    fn name(&self) -> &str {
        self.spec.as_deref().unwrap_or("default")
    }

    fn target(&self) -> String {
        let mut target = format!("/v1/analyze?format={}", self.format);
        if let Some(spec) = &self.spec {
            target.push_str("&property=");
            for byte in spec.bytes() {
                if byte.is_ascii_alphanumeric() || matches!(byte, b'-' | b'_' | b'.') {
                    target.push(byte as char);
                } else {
                    target.push_str(&format!("%{byte:02X}"));
                }
            }
        }
        target
    }
}

/// The warm set: every request the script rotates over besides the
/// cold ones.
pub fn warm_catalog() -> Vec<Request> {
    let bluetooth_text: Arc<str> =
        textfmt::print_cpds(&bluetooth::build(bluetooth::Version::V3, 1, 2)).into();
    let stefan_text: Arc<str> = textfmt::print_cpds(&stefan::build(4)).into();
    let cuba_core::Property::NeverShared(errors) = bluetooth::property() else {
        unreachable!("the bluetooth property is a shared-state error set")
    };
    let critical = stefan::CRITICAL.0;
    let (fig1, ticket, fig2): (Arc<str>, Arc<str>, Arc<str>) =
        (FIG1.into(), TICKET.into(), FIG2.into());
    let entries: Vec<(&'static str, &Arc<str>, Option<String>)> = vec![
        ("cpds", &fig1, Some("true".to_owned())),
        ("cpds", &fig1, Some("never-visible:1|2,6".to_owned())),
        ("cpds", &fig1, Some("never-visible:2|1,5".to_owned())),
        ("cpds", &fig1, Some("never-shared:3".to_owned())),
        ("bp", &ticket, None),
        ("bp", &fig2, None),
        (
            "cpds",
            &bluetooth_text,
            Some(format!("never-shared:{}", errors[0].0)),
        ),
        (
            "cpds",
            &bluetooth_text,
            Some(format!("never-shared:{}", errors[errors.len() - 1].0)),
        ),
        (
            "cpds",
            &stefan_text,
            Some(format!("mutex:0@{critical},1@{critical}")),
        ),
        (
            "cpds",
            &stefan_text,
            Some(format!("mutex:1@{critical},3@{critical}")),
        ),
    ];
    entries
        .into_iter()
        .enumerate()
        .map(|(i, (format, body, spec))| Request {
            format,
            body: body.clone(),
            spec,
            warm: Some(i),
        })
        .collect()
}

/// A cold request: a fresh random push-free system (so FCR holds and
/// the explicit engine decides it) with either `true`, which explores
/// to convergence, or a random shared-state property, which usually
/// ends in an early bug.
fn cold_request(seed: u64) -> Request {
    let config = RandomCpdsConfig {
        num_shared: 4,
        num_threads: 3,
        alphabet: 3,
        actions_per_thread: 16,
        push_probability: 0.0,
    };
    let mut rng = SplitMix64::new(seed);
    let cpds = random_cpds(&config, rng.next_u64());
    let spec = if rng.gen_bool() {
        "true".to_owned()
    } else {
        format!("never-shared:{}", 1 + rng.gen_u32(config.num_shared - 1))
    };
    Request {
        format: "cpds",
        body: textfmt::print_cpds(&cpds).into(),
        spec: Some(spec),
        warm: None,
    }
}

/// Request `index` of client `client` under `seed`: a pure function of
/// its arguments, so a seed fixes every client's request sequence. A
/// pass of `warm.len() + 1` requests sends every warm entry once and
/// one cold system, in a seeded order, so every pass does the same mix
/// of work.
pub fn script(seed: u64, client: usize, index: usize, warm: &[Request]) -> Request {
    let block = warm.len() + 1;
    let pass = (index / block) as u64;
    let key = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((client as u64) << 40) ^ pass;
    let mut rng = SplitMix64::new(key);
    let mut order: Vec<usize> = (0..block).collect();
    for i in (1..block).rev() {
        order.swap(i, rng.gen_usize(i + 1));
    }
    match warm.get(order[index % block]) {
        Some(request) => request.clone(),
        None => cold_request(rng.next_u64()),
    }
}

/// The `verdict` line a direct `Portfolio` run produces for `request`,
/// plus the depth of the explorer that run drove.
pub fn expected_line(portfolio: &Portfolio, request: &Request) -> Result<(String, usize), String> {
    let (cpds, default) = parse_model(request.format, &request.body)?;
    let property = match &request.spec {
        Some(spec) => Property::parse(spec)?,
        None => default,
    };
    let cache = SuiteCache::new();
    let artifacts = cache.artifacts(&cpds);
    let outcome = portfolio
        .session_with(cpds, property, &artifacts)
        .and_then(AnalysisSession::run)
        .map_err(|e| format!("{}: {e}", request.name()))?;
    let depth = artifacts
        .explicit_explorer_if_started()
        .or_else(|| artifacts.symbolic_explorer_if_started(portfolio.config().subsumption))
        .map_or(0, |e| e.depth());
    Ok((verdict_line(request.name(), &outcome), depth))
}

/// What the client saw of one response.
#[derive(Debug, Default)]
struct Response {
    status: u16,
    verdicts: Vec<String>,
    error_lines: usize,
    rounds_explored: f64,
    rounds_replayed: f64,
    first_line_ms: f64,
    handler_ms: f64,
    verdict_ms: f64,
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Sends one request and reads the close-delimited answer, timing the
/// first body line, the `verdict` line and the end of the stream.
fn post(addr: SocketAddr, request: &Request, tr: &mut Tracer) -> std::io::Result<Response> {
    let start = Instant::now();
    let (stream, sent) = tr.span("serve.send", |_| -> std::io::Result<_> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let head = format!(
            "POST {} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            request.target(),
            request.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(request.body.as_bytes())?;
        Ok((stream, Instant::now()))
    })?;
    let mut reader = BufReader::new(stream);
    let mut response = Response::default();
    let mut line = String::new();
    tr.span("serve.first_line", |_| -> std::io::Result<()> {
        reader.read_line(&mut line)?;
        response.status = line
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .unwrap_or(0);
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
                return Ok(());
            }
        }
    })?;
    tr.span("serve.stream", |_| -> std::io::Result<()> {
        let mut first = true;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let now = Instant::now();
            if first {
                response.first_line_ms = ms_between(sent, now);
                first = false;
            }
            let text = line.trim_end();
            if text.starts_with("{\"type\":\"verdict\"") {
                response.verdict_ms = ms_between(start, now);
                response.verdicts.push(text.to_owned());
            } else if text.starts_with("{\"type\":\"done\"") {
                response.rounds_explored += extract_number(text, "rounds_explored").unwrap_or(0.0);
                response.rounds_replayed += extract_number(text, "rounds_replayed").unwrap_or(0.0);
            } else if text.starts_with("{\"type\":\"error\"") {
                response.error_lines += 1;
            }
        }
        response.handler_ms = ms_between(sent, Instant::now());
        Ok(())
    })?;
    Ok(response)
}

/// A running server with its warm set primed.
struct Env {
    warm: Vec<Request>,
    oracle: Vec<String>,
    portfolio: Portfolio,
    handle: ServerHandle,
}

impl Env {
    /// The timed set-up: warm catalog, its direct-run oracle, a bound
    /// server, and one priming request per warm entry.
    fn start() -> Result<Env, String> {
        let warm = warm_catalog();
        let config = bench_config(SchedulePolicy::default());
        let portfolio = Portfolio::auto().with_config(config.clone());
        let oracle = warm
            .iter()
            .map(|request| expected_line(&portfolio, request).map(|(line, _)| line))
            .collect::<Result<Vec<_>, _>>()?;
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: CLIENTS,
            max_systems: 1 << 20,
            session: config,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let env = Env {
            warm,
            oracle,
            portfolio,
            handle,
        };
        let mut quiet = Tracer::new(false, 0, Instant::now());
        for (request, expected) in env.warm.iter().zip(&env.oracle) {
            let response = post(env.handle.addr(), request, &mut quiet)
                .map_err(|e| format!("priming {}: {e}", request.name()))?;
            if response.verdicts != [expected.clone()] {
                return Err(format!(
                    "priming {}: got {:?}, expected {expected}",
                    request.name(),
                    response.verdicts
                ));
            }
        }
        Ok(env)
    }

    /// `(cache_hits, cache_misses)` from `GET /v1/healthz`.
    fn cache_counters(&self) -> Result<(f64, f64), String> {
        let mut stream = TcpStream::connect(self.handle.addr()).map_err(|e| e.to_string())?;
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut body = String::new();
        std::io::Read::read_to_string(&mut stream, &mut body).map_err(|e| e.to_string())?;
        let field = |key| extract_number(&body, key).ok_or_else(|| format!("healthz lacks {key}"));
        Ok((field("cache_hits")?, field("cache_misses")?))
    }

    /// Graceful shutdown; waits until the server thread has ended.
    fn stop(self) -> Result<(), String> {
        let mut stream = TcpStream::connect(self.handle.addr()).map_err(|e| e.to_string())?;
        stream
            .write_all(
                b"POST /v1/shutdown HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n",
            )
            .map_err(|e| e.to_string())?;
        let mut answer = String::new();
        let _ = std::io::Read::read_to_string(&mut stream, &mut answer);
        self.handle.join().map_err(|e| format!("server: {e}"))
    }
}

/// One client's record of a phase.
#[derive(Debug, Default)]
struct ClientLog {
    client: usize,
    attempted: u64,
    failed: u64,
    decided: u64,
    http_errors: u64,
    pass_s: Vec<f64>,
    verdict_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    /// `(warm entry, verdict ms)` of every warm request.
    warm_by_entry: Vec<(usize, f64)>,
    cold_ms: Vec<f64>,
    first_line_ms: Vec<f64>,
    handler_ms: Vec<f64>,
    rounds_explored: Vec<f64>,
    rounds_replayed: Vec<f64>,
    /// Cold requests sent, with the verdict line received.
    cold: Vec<(usize, String)>,
    /// Script indices sent, in order.
    sent: Vec<usize>,
}

/// A closed loop of whole passes until `deadline`, starting at script
/// index `next`.
fn client_loop(
    env: &Env,
    seed: u64,
    client: usize,
    mut next: usize,
    deadline: Instant,
    tr: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog {
        client,
        ..ClientLog::default()
    };
    while Instant::now() < deadline {
        let pass = Instant::now();
        let (mut explored, mut replayed) = (0.0, 0.0);
        for _ in 0..=env.warm.len() {
            let request = script(seed, client, next, &env.warm);
            tr.set_request(((client as u64) << 32) | next as u64);
            log.sent.push(next);
            next += 1;
            log.attempted += 1;
            let response = tr.span("serve.request", |tr| post(env.handle.addr(), &request, tr));
            let response = match response {
                Ok(response) if response.status == 200 => response,
                other => {
                    eprintln!("perfbench: {} failed: {other:?}", request.name());
                    log.failed += 1;
                    log.http_errors += 1;
                    continue;
                }
            };
            let [verdict] = response.verdicts.as_slice() else {
                eprintln!(
                    "perfbench: {}: {} verdict lines",
                    request.name(),
                    response.verdicts.len()
                );
                log.failed += 1;
                continue;
            };
            match request.warm {
                Some(i) if *verdict != env.oracle[i] => {
                    eprintln!("perfbench: {verdict} differs from {}", env.oracle[i]);
                    log.failed += 1;
                }
                Some(i) => {
                    log.warm_ms.push(response.verdict_ms);
                    log.warm_by_entry.push((i, response.verdict_ms));
                }
                None => {
                    log.cold_ms.push(response.verdict_ms);
                    log.cold.push((next - 1, verdict.clone()));
                }
            }
            if response.error_lines > 0 {
                log.failed += 1;
            }
            if !verdict.contains("\"verdict\":\"undetermined\"") {
                log.decided += 1;
            }
            log.verdict_ms.push(response.verdict_ms);
            log.first_line_ms.push(response.first_line_ms);
            log.handler_ms.push(response.handler_ms);
            explored += response.rounds_explored;
            replayed += response.rounds_replayed;
        }
        log.pass_s.push(pass.elapsed().as_secs_f64());
        log.rounds_explored.push(explored);
        log.rounds_replayed.push(replayed);
    }
    log
}

/// Both clients for `seconds`; each continues its script at `next`.
fn phase(
    env: &Env,
    seed: u64,
    seconds: f64,
    next: [usize; CLIENTS],
    tracers: &mut [Tracer],
) -> Vec<ClientLog> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(client, tr)| {
                scope.spawn(move || client_loop(env, seed, client, next[client], deadline, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Where each client's script continues after `chunk`.
fn continue_at(chunk: &[ClientLog], next: [usize; CLIENTS]) -> [usize; CLIENTS] {
    std::array::from_fn(|c| chunk[c].sent.last().map_or(next[c], |i| i + 1))
}

fn concat(logs: &[ClientLog], f: impl Fn(&ClientLog) -> &Vec<f64>) -> Vec<f64> {
    logs.iter().flat_map(|log| f(log).iter().copied()).collect()
}

/// Explorer depth of a direct run, by `(client, script index)`.
type ColdDepths = BTreeMap<(usize, usize), usize>;

/// Checks every cold verdict line against a direct run after the
/// window; returns mismatches and each cold request's explorer depth.
fn check_cold(env: &Env, seed: u64, logs: &[ClientLog]) -> Result<(u64, ColdDepths), String> {
    let mut failed = 0;
    let mut depths = BTreeMap::new();
    for log in logs {
        for (index, got) in &log.cold {
            let request = script(seed, log.client, *index, &env.warm);
            let (expected, depth) = expected_line(&env.portfolio, &request)?;
            if *got != expected {
                eprintln!("perfbench: cold {got} differs from {expected}");
                failed += 1;
            }
            depths.insert((log.client, *index), depth);
        }
    }
    Ok((failed, depths))
}

/// Runs serve-mixed for `seconds` and reports its metrics.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..SETUPS {
        if let Some(previous) = env.take() {
            Env::stop(previous)?;
        }
        let timer = Instant::now();
        env = Some(Env::start()?);
        setup_s.push(timer.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    let epoch = Instant::now();
    let mut quiet: Vec<Tracer> = (0..CLIENTS)
        .map(|c| Tracer::new(false, c as u32 + 1, epoch))
        .collect();

    // With --trace 1 the window alternates untraced and traced quarters,
    // so drift in the host's speed affects both alike.
    let chunks: &[bool] = if trace {
        &[false, true, false, true]
    } else {
        &[false]
    };
    let chunk_s = seconds / chunks.len() as f64;
    let mut tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|c| Tracer::new(true, c as u32 + 1, epoch))
        .collect();
    let (mut logs, mut traced_logs) = (Vec::new(), Vec::new());
    let mut next = [0; CLIENTS];
    let (mut hits, mut misses, mut waves, mut steals) = (0.0, 0.0, 0, 0);
    for &traced in chunks {
        if !traced {
            let chunk = phase(&env, seed, chunk_s, next, &mut quiet);
            next = continue_at(&chunk, next);
            logs.extend(chunk);
            continue;
        }
        let (hits0, misses0) = env.cache_counters()?;
        let (waves0, steals0) = (METRICS.waves.get(), METRICS.steals.get());
        let chunk = phase(&env, seed, chunk_s, next, &mut tracers);
        let (hits1, misses1) = env.cache_counters()?;
        (hits, misses) = (hits + hits1 - hits0, misses + misses1 - misses0);
        waves += METRICS.waves.get() - waves0;
        steals += METRICS.steals.get() - steals0;
        next = continue_at(&chunk, next);
        traced_logs.extend(chunk);
    }
    let warm = env.warm.clone();
    let portfolio = env.portfolio.clone();
    let (cold_failed, _) = check_cold(&env, seed, &logs)?;
    let (traced_cold_failed, traced_depths) = check_cold(&env, seed, &traced_logs)?;
    env.stop()?;
    for _ in 0..SETUPS {
        let timer = Instant::now();
        let again = Env::start()?;
        setup_s.push(timer.elapsed().as_secs_f64());
        again.stop()?;
    }

    let all: Vec<&ClientLog> = logs.iter().chain(&traced_logs).collect();
    let attempted: u64 = all.iter().map(|l| l.attempted).sum();
    let failed: u64 = all.iter().map(|l| l.failed).sum::<u64>() + cold_failed + traced_cold_failed;
    let decided: u64 = all.iter().map(|l| l.decided).sum();
    if !trace {
        // As on table2, each warm entry's fastest answer in the window
        // is its steady cost (the host's speed drifts in phases, and
        // contention only adds time); cold systems are all different,
        // so their class costs its median. A pass sends each once.
        let mut kinds = vec![f64::INFINITY; warm.len()];
        for &(entry, ms) in logs.iter().flat_map(|l| &l.warm_by_entry) {
            kinds[entry] = kinds[entry].min(ms);
        }
        kinds.push(median(&concat(&logs, |l| &l.cold_ms)));
        kinds.retain(|ms| ms.is_finite());
        let verdicts = concat(&logs, |l| &l.verdict_ms);
        eprintln!(
            "perfbench: median pass {:.4} s, median verdict {:.4} ms",
            median(&concat(&logs, |l| &l.pass_s)),
            median(&verdicts)
        );
        let metrics = end_to_end(
            &setup_s,
            kinds.iter().sum::<f64>() / 1e3,
            median(&kinds),
            &verdicts,
            decided,
            attempted,
            failed,
        );
        return Ok(Report::new(attempted, failed, metrics));
    }

    let mut m = BTreeMap::new();
    let p50 = |f: &dyn Fn(&ClientLog) -> &Vec<f64>| median(&concat(&traced_logs, f));
    m.insert("serve.first_line_ms_p50", p50(&|l| &l.first_line_ms));
    m.insert("serve.handler_ms_p50", p50(&|l| &l.handler_ms));
    m.insert("serve.warm_verdict_ms_p50", p50(&|l| &l.warm_ms));
    m.insert("serve.cold_verdict_ms_p50", p50(&|l| &l.cold_ms));
    m.insert(
        "serve.http_errors",
        all.iter().map(|l| l.http_errors).sum::<u64>() as f64,
    );
    m.insert("core.rounds_explored", p50(&|l| &l.rounds_explored));
    m.insert("core.rounds_replayed", p50(&|l| &l.rounds_replayed));
    let explored: f64 = concat(&traced_logs, |l| &l.rounds_explored).iter().sum();
    let replayed: f64 = concat(&traced_logs, |l| &l.rounds_replayed).iter().sum();
    m.insert(
        "core.replay_ratio",
        replayed / (explored + replayed).max(1.0),
    );
    m.insert("core.cache_hit_ratio", hits / (hits + misses).max(1.0));
    m.insert("automata.waves", waves as f64);
    m.insert("automata.steals", steals as f64);
    let untraced = median(&concat(&logs, |l| &l.pass_s));
    let traced = median(&concat(&traced_logs, |l| &l.pass_s));
    m.insert("trace_overhead_pct", (traced / untraced - 1.0) * 100.0);

    // Decompose the traced phase's requests into layer calls, one
    // request at a time, on a tracer of its own.
    let mut decomposer = Tracer::new(true, CLIENTS as u32 + 1, epoch);
    let mut per_request: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for log in &traced_logs {
        for &index in log.sent.iter().take(DECOMPOSE_PER_LOG) {
            let request = script(seed, log.client, index, &warm);
            decomposer.set_request(((log.client as u64) << 32) | index as u64);
            let depth = traced_depths.get(&(log.client, index)).copied();
            let states = decompose(&portfolio, &request, depth, &mut decomposer)?;
            for (name, us) in decomposer.take_self_us() {
                per_request.entry(name).or_default().push(us / 1e3);
            }
            if let Some(states) = states {
                per_request.entry("states").or_default().push(states as f64);
            }
        }
    }
    let p50_of = |name: &str| per_request.get(name).map_or(0.0, |v| median(v));
    m.insert(
        "benchmarks.textfmt_parse_ms",
        p50_of("benchmarks.textfmt_parse"),
    );
    m.insert(
        "boolprog.parse_translate_ms",
        p50_of("boolprog.parse_translate"),
    );
    m.insert("core.fcr_ms", p50_of("core.fcr"));
    m.insert("core.precompute_ms", p50_of("core.precompute"));
    m.insert("core.session_ms", p50_of("core.session"));
    m.insert(
        "explore.explicit.layer_ms",
        p50_of("explore.explicit.layer"),
    );
    m.insert("explore.explicit.states", p50_of("states"));
    let layer_ms = p50_of("explore.explicit.layer");
    if layer_ms > 0.0 {
        m.insert(
            "explore.explicit.states_per_s",
            p50_of("states") / (layer_ms / 1e3),
        );
    }
    let mut report = Report::new(attempted, failed, m);
    tracers.push(decomposer);
    report.trace = Some(tracers);
    Ok(report)
}

/// Replays one request's work as direct layer calls: model parsing for
/// every request; for cold ones also FCR, `G ∩ Z`, explicit layers up
/// to the depth the direct run reached, and the session on a fresh
/// cache. Returns the cold system's explored state count.
fn decompose(
    portfolio: &Portfolio,
    request: &Request,
    depth: Option<usize>,
    tr: &mut Tracer,
) -> Result<Option<usize>, String> {
    let (cpds, default) = if request.format == "bp" {
        tr.span("boolprog.parse_translate", |_| {
            let program = cuba_boolprog::parse(&request.body).map_err(|e| e.to_string())?;
            let translated = cuba_boolprog::translate(&program).map_err(|e| e.to_string())?;
            let property = translated.error_free_property();
            Ok::<_, String>((translated.cpds, property))
        })?
    } else {
        let cpds = tr.span("benchmarks.textfmt_parse", |_| {
            textfmt::parse_cpds(&request.body)
        });
        (cpds.map_err(|e| e.to_string())?, Property::True)
    };
    let Some(depth) = depth else {
        return Ok(None);
    };
    let property = match &request.spec {
        Some(spec) => Property::parse(spec)?,
        None => default,
    };
    let cache = SuiteCache::new();
    let config = portfolio.config();
    let artifacts = tr.span("core.cache_lookup", |_| cache.artifacts(&cpds));
    tr.span("core.fcr", |_| artifacts.fcr(&cpds).holds());
    tr.span("core.precompute", |_| artifacts.g_cap_z(&cpds));
    let explorer = artifacts.explicit_explorer(&cpds, &config.budget);
    for k in 1..=depth {
        tr.span("explore.explicit.layer", |_| {
            explorer.ensure_layer(k, &Interrupt::none())
        })
        .map_err(|e| e.to_string())?;
    }
    let states = explorer.view(explorer.depth()).states;
    tr.span("core.session", |_| {
        portfolio
            .session_with(cpds, property, &artifacts)
            .and_then(AnalysisSession::run)
    })
    .map_err(|e| e.to_string())?;
    Ok(Some(states))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64, client: usize, warm: &[Request]) -> Vec<Request> {
        (0..66).map(|i| script(seed, client, i, warm)).collect()
    }

    /// The same seed gives the same request sequence and verdict
    /// lines; another seed gives other cold systems.
    #[test]
    fn seed_fixes_the_script() {
        let warm = warm_catalog();
        let a = sequence(7, 0, &warm);
        assert_eq!(a, sequence(7, 0, &warm));
        assert_ne!(a, sequence(7, 1, &warm), "clients run different scripts");
        let cold: Vec<&Request> = a.iter().filter(|r| r.warm.is_none()).collect();
        assert_eq!(cold.len(), 6, "one cold request per pass of eleven");
        for pass in a.chunks(warm.len() + 1) {
            let mut seen: Vec<Option<usize>> = pass.iter().map(|r| r.warm).collect();
            seen.sort();
            let all: Vec<Option<usize>> = std::iter::once(None)
                .chain((0..warm.len()).map(Some))
                .collect();
            assert_eq!(seen, all, "each pass sends every warm entry once");
        }

        let portfolio = Portfolio::auto().with_config(bench_config(SchedulePolicy::default()));
        for request in cold.iter().take(3) {
            let first = expected_line(&portfolio, request).expect("cold request decides");
            let again = expected_line(&portfolio, request).expect("cold request decides");
            assert_eq!(first, again);
            assert!(!first.0.contains("undetermined"), "{}", first.0);
        }

        let other: Vec<Arc<str>> = sequence(8, 0, &warm)
            .into_iter()
            .filter(|r| r.warm.is_none())
            .map(|r| r.body)
            .collect();
        assert!(
            cold.iter().all(|r| !other.contains(&r.body)),
            "a new seed sends new cold systems"
        );
    }

    #[test]
    fn property_specs_are_percent_encoded() {
        let request = Request {
            format: "cpds",
            body: "".into(),
            spec: Some("never-visible:1|2,6".to_owned()),
            warm: None,
        };
        assert_eq!(
            request.target(),
            "/v1/analyze?format=cpds&property=never-visible%3A1%7C2%2C6"
        );
    }
}
