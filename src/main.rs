//! `cuba` — command-line verifier for concurrent pushdown systems and
//! concurrent Boolean programs.
//!
//! ```text
//! cuba verify <file> [options]
//!     <file>           .bp (Boolean program) or .cpds (text format)
//!     --engine auto|explicit|symbolic    (default: auto = the paper's §6 procedure:
//!                                         the fused explicit arm ∥ CBA refuter
//!                                         under FCR, the fused symbolic arm
//!                                         otherwise; explicit / symbolic run
//!                                         that backend's fused arm alone)
//!     --max-k <n>      round limit (default 64)
//!     --timeout <s>    wall-clock limit in seconds (verdict: undetermined)
//!     --trace          stream per-round events to stderr (line-locked;
//!                      with several properties each line is prefixed
//!                      with its property spec)
//!     --trace-out <f>  record structured spans (rounds, saturation
//!                      waves, explicit layer commits, cache lookups)
//!                      and write a Chrome trace-event JSON file on
//!                      exit — load it in Perfetto (ui.perfetto.dev)
//!                      or chrome://tracing
//!     --json           emit one machine-readable JSON object on stdout
//!                      per property (includes per-arm growth logs with
//!                      per-round state deltas/wall-clock, the
//!                      explored-vs-replayed shared-exploration counters,
//!                      and a "telemetry" block with per-stage wall
//!                      times and registry counters)
//!     --never-shared <q>   property: shared state q unreachable
//!                          (default for .bp: no assertion fails;
//!                           default for .cpds: compute reachability to convergence)
//!     --property <spec>    a property to verify; repeatable — all
//!                          properties of one invocation share a single
//!                          layered exploration per backend ("one
//!                          system, many properties"). Specs:
//!                            true
//!                            never-shared:<q>
//!                            never-visible:<q>|<t1>,<t2>,...   ('-' = empty stack)
//!                            mutex:<thread>@<sym>,<thread>@<sym>
//!     --from-snapshot <f>  warm-start from a `cuba snapshot` file:
//!                      the recorded layers replay (rounds_explored
//!                      drops to the bounds beyond the snapshot's
//!                      depth), verdicts are identical by
//!                      construction, and a file that fails the
//!                      structural-identity check is rejected
//! cuba snapshot <file> --out <f> [options]  explore once, write the
//!     layer store as a compact versioned binary snapshot (header:
//!     format version, CPDS fingerprint, backend kind, checksum) —
//!     the offline produce half of --from-snapshot / --state-dir
//!     --engine auto|explicit|symbolic   backend to record (auto =
//!                      explicit under FCR, symbolic otherwise)
//!     --max-k <n>      explore at most this bound (default 64); the
//!                      exploration stops early at collapse
//! cuba fcr <file>      run only the finite-context-reachability check
//! cuba info <file>     print model statistics
//! cuba trace-check <file>  validate a --trace-out Chrome trace file:
//!     checks it parses, every B span has its matching E, and prints
//!     an event/span/track summary. Exit 2 on a malformed trace.
//! cuba lint <file> [options]  static diagnostics without verifying
//!     --property <spec>    property to check against the model
//!                          (repeatable; grammar as for verify)
//!     --json           one JSON object: {"file", "lints": [{code,
//!                      level, message, line?, col?}], "reduction",
//!                      "deny"/"warn"/"note" counts}
//!
//!     Lints: unknown-state (deny), vacuous-property (note),
//!     unreachable-state / dead-transition (warn, .cpds),
//!     dead-branch / write-only-variable (warn, .bp),
//!     constant-assert (note/warn, .bp). Exit 1 when any deny-level
//!     lint fires, else 0; exit 2 when the model's skeleton exceeds
//!     the lint cap (no partial diagnostics).
//! cuba bench [options] measure the Table 2 suite, statistically
//!     --samples <n>    measured suite iterations (default 5)
//!     --warmup <n>     unmeasured iterations first (default 1)
//!     --workers <n>    problems in flight (default: CPUs)
//!     --compare <file> classify each workload against a recorded baseline as
//!                      improved/regressed/unchanged with noise-aware thresholds
//!                      (medians of IQR-filtered samples; a regression must
//!                      exceed the ratio, the MAD band, AND the absolute floor);
//!                      a changed verdict word or bound k is verdict-changed
//!     --gate           exit 1 on any regression or verdict change (CI mode)
//!     --ratio <r>      required median ratio (default 4.0)
//!     --sigma <s>      required distance in MAD-sigmas (default 8.0)
//!     --floor-ms <m>   absolute floor, milliseconds (default 250)
//!     --from-snapshot <f>  seed every iteration's fresh suite cache
//!                      from a `cuba snapshot` file: the matching
//!                      workload replays the recorded layers (its row
//!                      shows "cache":"hit"); verdicts are identical
//!
//!     The N-sample JSON record (BENCH_*.json format, `samples_us` per
//!     workload, no timing fields on error rows) goes to stdout; the
//!     comparison report and progress go to stderr.
//! cuba serve [options] run the HTTP analysis service (cuba-serve)
//!     --addr <a>       bind address (default 127.0.0.1:0 = ephemeral;
//!                      the bound address is printed on stdout)
//!     --workers <n>    bounded worker pool size (default: CPUs, max 8)
//!     --max-k <n>      default round limit for served sessions
//!     --timeout <s>    default wall-clock limit per served session
//!     --state-dir <d>  persistent layer-store snapshots: systems
//!                      pushed out by max_systems pressure spill to
//!                      <d> instead of being forgotten and reload
//!                      transparently on the next request; on a
//!                      graceful drain every resident system is
//!                      flushed, so a restarted server warm-starts
//!                      (identical verdicts, zero re-exploration)
//!
//!     Endpoints live under /v1 only (GET /v1 returns a JSON index
//!     plus server capabilities; an unprefixed path answers 404):
//!     POST /v1/analyze (NDJSON event stream; repeatable property=
//!     query params, body = model source, format=cpds|bp,
//!     engine=auto|explicit|symbolic, max_k=N), POST /v1/suite,
//!     GET /v1/systems (per-system residency resident|spilled plus
//!     snapshot/spill counters), GET /v1/healthz, GET /v1/metrics,
//!     POST /v1/shutdown (mode=graceful|abort). Concurrent clients
//!     asking about one system share a single layered exploration per
//!     backend.
//! ```
//!
//! With several properties the exit code is the *worst* verdict:
//! any unsafe → 1, else any undetermined → 3, else 0.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cuba::benchmarks::textfmt;
use cuba::boolprog;
use cuba::core::{
    check_fcr, fingerprint, CubaOutcome, EngineKind, Lineup, Portfolio, Property, SessionConfig,
    SessionEvent, SystemArtifacts, Verdict,
};
use cuba::explore::{ExploreBudget, Interrupt, SharedExplorer, SubsumptionMode};
use cuba::pds::{Cpds, SharedState};
use cuba_bench::JsonObject;

/// Prints one line on stdout, as `println!` does, through
/// [`write_line`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_line(format_args!($($arg)*))
    };
}

/// Writes one line to stdout. A reader that went away (`BrokenPipe`,
/// as under `cuba … | head -1`) ends the output: later lines are
/// dropped and the command returns its own exit status, so verdict
/// codes keep their meaning. Any other write error is fatal (exit 2).
fn write_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(2);
        }
        CLOSED.store(true, Ordering::Relaxed);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: cuba <verify|fcr|info> <file.bp|file.cpds> [--engine auto|explicit|symbolic] \
     [--max-k N] [--timeout SECS] [--trace] [--trace-out FILE] [--json] \
     [--never-shared Q] [--property SPEC]... [--from-snapshot FILE]\n   \
     or: cuba lint \
     <file.bp|file.cpds> [--property SPEC]... [--json]\n   or: cuba snapshot \
     <file.bp|file.cpds> --out FILE [--engine auto|explicit|symbolic] [--max-k N]\n   \
     or: cuba serve [--addr ADDR] [--workers N] [--max-k N] [--timeout SECS] \
     [--trace-out FILE] [--state-dir DIR]\n   \
     or: cuba bench [--samples N] [--warmup N] [--workers N] [--compare FILE] \
     [--gate] [--ratio R] [--sigma S] [--floor-ms MS] [--trace-out FILE] \
     [--from-snapshot FILE]\n   \
     or: cuba trace-check <trace.json>"
        .to_owned()
}

/// Options of `cuba verify`.
struct VerifyOptions {
    lineup: Lineup,
    max_k: usize,
    timeout: Option<Duration>,
    trace: bool,
    /// `--trace-out FILE`: record structured spans and export a
    /// Chrome trace-event JSON file on exit.
    trace_out: Option<String>,
    json: bool,
    never_shared: Option<SharedState>,
    /// Repeated `--property` specs, verified in order over one shared
    /// exploration of the system.
    properties: Vec<(String, Property)>,
    /// `--from-snapshot FILE`: seed the invocation's shared
    /// exploration from a `cuba snapshot` file before any property
    /// runs — matching bounds replay instead of exploring live.
    from_snapshot: Option<String>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            lineup: Lineup::Auto,
            max_k: 64,
            timeout: None,
            trace: false,
            trace_out: None,
            json: false,
            never_shared: None,
            properties: Vec::new(),
            from_snapshot: None,
        }
    }
}

/// The flags shared by several subcommands, parsed in exactly one
/// place so the grammar and the error texts cannot drift between
/// `verify`, `bench`, and `serve`. Each subcommand says
/// which of them it accepts; everything else falls through to its own
/// match arm.
#[derive(Default)]
struct CommonOpts {
    /// `--timeout SECS` (fractional seconds).
    timeout: Option<Duration>,
    /// `--trace-out FILE`.
    trace_out: Option<String>,
    /// `--state-dir DIR` (serve only today).
    state_dir: Option<String>,
}

/// The shared flags each subcommand opts into.
const VERIFY_COMMON: &[&str] = &["--timeout", "--trace-out"];
const BENCH_COMMON: &[&str] = &["--trace-out"];
const SERVE_COMMON: &[&str] = &["--timeout", "--trace-out", "--state-dir"];

impl CommonOpts {
    /// Tries to consume `args[*i]` (plus its argument, if any) as one
    /// of the shared flags in `accepted`. `Ok(true)` means consumed,
    /// with `*i` left on the flag's last token — the subcommand loops
    /// all step `i` once more afterwards. `Ok(false)` means the token
    /// is not an accepted shared flag and the caller's own match
    /// handles it.
    fn try_parse(
        &mut self,
        args: &[String],
        i: &mut usize,
        accepted: &[&str],
    ) -> Result<bool, String> {
        let flag = args[*i].clone();
        if !accepted.contains(&flag.as_str()) {
            return Ok(false);
        }
        match flag.as_str() {
            "--timeout" => {
                *i += 1;
                self.timeout = Some(
                    args.get(*i)
                        .and_then(|s| s.parse::<f64>().ok())
                        .and_then(|s| Duration::try_from_secs_f64(s).ok())
                        .ok_or("bad --timeout value (seconds)")?,
                );
            }
            "--trace-out" => {
                *i += 1;
                self.trace_out = Some(
                    args.get(*i)
                        .cloned()
                        .ok_or("--trace-out needs a file argument")?,
                );
            }
            "--state-dir" => {
                *i += 1;
                self.state_dir = Some(
                    args.get(*i)
                        .cloned()
                        .ok_or("--state-dir needs a directory argument")?,
                );
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        Ok(true)
    }
}

/// Parses one `--property` spec (the grammar lives in
/// [`Property::parse`], shared with the serve API).
fn parse_property(spec: &str) -> Result<Property, String> {
    Property::parse(spec).map_err(|message| format!("bad --property: {message}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    // Validate the subcommand (and its options) *before* touching the
    // model file: `cuba bogus file.bp` must not parse the file first,
    // and `cuba info file --bogus` must not silently ignore options.
    match command.as_str() {
        "info" | "fcr" => {
            let path = sole_path(args)?;
            let (cpds, _) = load(path)?;
            if command == "info" {
                print_info(path, &cpds);
            } else {
                print_fcr(&cpds);
            }
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let Some(path) = args.get(1) else {
                return Err(usage());
            };
            let options = parse_verify_options(&args[2..])?;
            let (cpds, default_property) = load(path)?;
            // The property worklist: every `--property`, then the
            // legacy `--never-shared`, then (if nothing was given) the
            // file's default property.
            let mut properties = options.properties.clone();
            if let Some(q) = options.never_shared {
                properties.push((format!("never-shared:{}", q.0), Property::never_shared(q)));
            }
            if properties.is_empty() {
                properties.push(("default".to_owned(), default_property));
            }
            verify(cpds, properties, &options)
        }
        "lint" => lint_cmd(&args[1..]),
        "snapshot" => snapshot_cmd(&args[1..]),
        "serve" => serve(&args[1..]),
        "bench" => bench(&args[1..]),
        "trace-check" => trace_check(args),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

/// `cuba trace-check`: validates a `--trace-out` Chrome trace file —
/// it must parse, every `B` begin event must have its matching `E` on
/// the same track, and timestamps must be sane. Prints a span summary
/// so CI logs show what the trace covers.
fn trace_check(args: &[String]) -> Result<ExitCode, String> {
    let path = sole_path(args)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let summary =
        cuba_telemetry::trace::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    outln!(
        "{path}: valid Chrome trace — {} events ({} spans, {} instants) on {} tracks",
        summary.events,
        summary.spans,
        summary.instants,
        summary.tracks
    );
    for (name, count) in &summary.span_names {
        outln!("  {name}: {count}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Enables span recording when `--trace-out` was given; returns the
/// export path so the caller can flush the trace once the work is
/// done.
fn start_trace_recording(trace_out: Option<&String>) -> Option<&String> {
    if trace_out.is_some() {
        cuba_telemetry::enable_tracing();
    }
    trace_out
}

/// Writes the recorded spans as Chrome trace-event JSON and tells the
/// user where the file went (stderr, like all progress output).
fn finish_trace_recording(trace_out: Option<&String>) -> Result<(), String> {
    let Some(path) = trace_out else {
        return Ok(());
    };
    cuba_telemetry::trace::export_chrome(path)?;
    eprintln!("trace written to {path} (load in ui.perfetto.dev or chrome://tracing)");
    Ok(())
}

/// `cuba snapshot`: explore a model once and write its layer store as
/// a self-contained binary snapshot file — the produce half of the
/// offline ship-layers-between-processes workflow. `verify
/// --from-snapshot`, `bench --from-snapshot`, and the `serve
/// --state-dir` directory consume the same format.
fn snapshot_cmd(args: &[String]) -> Result<ExitCode, String> {
    let Some(path) = args.first() else {
        return Err(usage());
    };
    let mut out: Option<String> = None;
    let mut max_k: usize = 64;
    let mut engine = "auto".to_owned();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().ok_or("--out needs a file argument")?);
            }
            "--max-k" => {
                i += 1;
                max_k = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --max-k value")?;
            }
            "--engine" => {
                i += 1;
                engine = match args.get(i).map(|s| s.as_str()) {
                    Some(e @ ("auto" | "explicit" | "symbolic")) => e.to_owned(),
                    other => return Err(format!("bad --engine {other:?}")),
                };
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    // Options are validated before the model is touched (repo-wide
    // CLI discipline), so a missing --out never costs an exploration.
    let out = out.ok_or("snapshot needs --out FILE")?;

    let (cpds, _) = load(path)?;
    // auto follows the portfolio's backend split: explicit layers
    // under FCR, symbolic (exact subsumption) otherwise.
    let explicit = match engine.as_str() {
        "explicit" => true,
        "symbolic" => false,
        _ => check_fcr(&cpds).holds(),
    };
    let budget = ExploreBudget::default();
    let artifacts = SystemArtifacts::new();
    let explorer = if explicit {
        artifacts.explicit_explorer(&cpds, &budget)
    } else {
        artifacts.symbolic_explorer(&cpds, &budget, SubsumptionMode::Exact)
    };
    let interrupt = Interrupt::none();
    for k in 0..=max_k {
        explorer
            .ensure_layer(k, &interrupt)
            .map_err(|e| format!("explore k={k}: {e}"))?;
        if explorer.view(k).collapsed {
            break;
        }
    }
    let fp = fingerprint(&cpds);
    let bytes = explorer.snapshot(fp);
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    outln!(
        "snapshot written to {out} ({}, depth {}, {} bytes, fingerprint {fp:016x})",
        explorer.snapshot_kind().label(),
        explorer.depth(),
        bytes.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// `cuba serve`: boots the HTTP analysis service and blocks until a
/// `POST /shutdown` request stops it.
fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut config = cuba_serve::ServeConfig::default();
    let mut common = CommonOpts::default();
    let mut i = 0;
    while i < args.len() {
        if common.try_parse(args, &mut i, SERVE_COMMON)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                config.addr = args
                    .get(i)
                    .cloned()
                    .ok_or("--addr needs an address argument")?;
            }
            "--workers" => {
                i += 1;
                config.workers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or("bad --workers value")?;
            }
            "--max-k" => {
                i += 1;
                config.session.max_k = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --max-k value")?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    if common.timeout.is_some() {
        config.session.timeout = common.timeout;
    }
    config.state_dir = common.state_dir.clone();
    let trace_out = start_trace_recording(common.trace_out.as_ref());
    let workers = config.workers;
    let server = cuba_serve::Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts scrape this line for the ephemeral port; keep it stable.
    outln!("cuba-serve listening on http://{addr} ({workers} workers)");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| format!("serve: {e}"))?;
    // run() flushed every resident system's layer snapshots into the
    // state dir before returning (the warm-start half of --state-dir).
    if let Some(dir) = &common.state_dir {
        outln!("state saved to {dir}");
    }
    finish_trace_recording(trace_out)?;
    outln!("cuba-serve drained and shut down");
    Ok(ExitCode::SUCCESS)
}

/// `cuba bench`: the in-tree statistical benchmarking harness —
/// warmup + N measured iterations of the Table 2 suite, an N-sample
/// JSON record on stdout, and (with `--compare`) a noise-aware
/// classification of every workload against a recorded baseline.
fn bench(args: &[String]) -> Result<ExitCode, String> {
    let mut plan = cuba_bench::harness::BenchPlan::default();
    let mut compare_path: Option<String> = None;
    let mut common = CommonOpts::default();
    let mut gate = false;
    let mut thresholds = cuba_bench::compare::Thresholds::default();
    let mut i = 0;
    while i < args.len() {
        if common.try_parse(args, &mut i, BENCH_COMMON)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--samples" => {
                i += 1;
                plan.samples = parse_count(args.get(i), "--samples")?;
            }
            "--warmup" => {
                i += 1;
                plan.warmup = parse_zero_ok(args.get(i), "--warmup")?;
            }
            "--workers" => {
                i += 1;
                plan.workers = parse_count(args.get(i), "--workers")?;
            }
            "--compare" => {
                i += 1;
                compare_path = Some(
                    args.get(i)
                        .cloned()
                        .ok_or("--compare needs a file argument")?,
                );
            }
            "--gate" => gate = true,
            "--ratio" => {
                i += 1;
                thresholds.ratio = parse_float(args.get(i), "--ratio")?;
            }
            "--sigma" => {
                i += 1;
                thresholds.mad_sigmas = parse_float(args.get(i), "--sigma")?;
            }
            "--floor-ms" => {
                i += 1;
                thresholds.abs_floor_us = parse_float(args.get(i), "--floor-ms")? * 1000.0;
            }
            "--from-snapshot" => {
                i += 1;
                let path = args
                    .get(i)
                    .cloned()
                    .ok_or("--from-snapshot needs a file argument")?;
                let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
                let (kind, fingerprint) = cuba::explore::snapshot::peek_header(&bytes)
                    .map_err(|e| format!("{path}: {e}"))?;
                plan.seed = Some(cuba_bench::harness::SnapshotSeed {
                    kind,
                    fingerprint,
                    bytes: Arc::new(bytes),
                });
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    if gate && compare_path.is_none() {
        return Err("--gate needs --compare FILE to compare against".to_owned());
    }

    let trace_out = start_trace_recording(common.trace_out.as_ref());
    let run = cuba_bench::harness::run(&plan);
    finish_trace_recording(trace_out)?;
    let record = cuba_bench::harness::run_to_json(&run);
    outln!("{record}");
    eprintln!(
        "measured {} workloads x {} samples in {:.1}s",
        run.rows.len(),
        plan.samples,
        run.measure_seconds
    );
    if run.rows.iter().any(|row| row.unstable) {
        return Err("verdicts changed between samples (unstable suite)".to_owned());
    }

    let Some(path) = compare_path else {
        return Ok(ExitCode::SUCCESS);
    };
    let baseline_text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let baseline = cuba_bench::compare::parse_records(&baseline_text);
    let current = cuba_bench::compare::parse_records(&record);
    let report = cuba_bench::compare::compare(&baseline, &current, &thresholds);
    eprint!("{}", report.render());
    if report.gate_ok() {
        eprintln!("bench gate OK against {path}");
        Ok(ExitCode::SUCCESS)
    } else if gate {
        eprintln!("bench gate FAILED against {path}");
        Ok(ExitCode::from(1))
    } else {
        eprintln!("differences found against {path} (no --gate: exit 0)");
        Ok(ExitCode::SUCCESS)
    }
}

/// `cuba lint`: static diagnostics without verification. Source-level
/// findings (`.bp`: dead branches, constant asserts, write-only
/// variables) come from the frontend passes; model-level findings
/// (`.cpds`: unreachable states, dead transitions) and property
/// findings (unknown ids, vacuous specs) come from the `cuba-reduce`
/// analysis. Exits 1 when any deny-level lint fires.
fn lint_cmd(args: &[String]) -> Result<ExitCode, String> {
    use cuba::reduce::{Lint, LintLevel};

    let Some(path) = args.first() else {
        return Err(usage());
    };
    let mut json = false;
    let mut property_specs: Vec<(String, Property)> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--property" => {
                i += 1;
                let spec = args.get(i).ok_or("--property needs a spec argument")?;
                property_specs.push((spec.clone(), parse_property(spec)?));
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }

    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lints: Vec<Lint> = Vec::new();
    let is_bp = path.ends_with(".bp");
    let (cpds, default_property) = if is_bp {
        let program = boolprog::parse(&source).map_err(|e| format!("{path}: {e}"))?;
        for lint in boolprog::lint_program(&program) {
            lints.push(from_source_lint(lint));
        }
        let (translated, report) =
            boolprog::translate_simplified(&program).map_err(|e| format!("{path}: {e}"))?;
        for lint in report.lints {
            lints.push(from_source_lint(lint));
        }
        let property = translated.error_free_property();
        (translated.cpds, property)
    } else if path.ends_with(".cpds") {
        let cpds = textfmt::parse_cpds(&source).map_err(|e| format!("{path}: {e}"))?;
        (cpds, Property::True)
    } else {
        return Err(format!("{path}: unknown extension (expected .bp or .cpds)"));
    };

    let properties: Vec<Property> = if property_specs.is_empty() {
        vec![default_property]
    } else {
        property_specs.iter().map(|(_, p)| p.clone()).collect()
    };
    let analysis = cuba::reduce::lint(&cpds, &properties).map_err(|e| format!("{path}: {e}"))?;
    if is_bp {
        // Translated models carry symbol-level diagnostics that name
        // synthetic stack symbols, not source lines — keep only the
        // property-level findings; the counts live in the stats object.
        lints.extend(
            analysis
                .lints
                .into_iter()
                .filter(|l| l.code == "unknown-state" || l.code == "vacuous-property"),
        );
    } else {
        lints.extend(analysis.lints);
    }
    // Spanned lints first, in source order; then model-level findings.
    lints.sort_by_key(|l| (l.line.is_none(), l.line, l.col));

    let count = |level: LintLevel| lints.iter().filter(|l| l.level == level).count();
    let (deny, warn, note) = (
        count(LintLevel::Deny),
        count(LintLevel::Warn),
        count(LintLevel::Note),
    );
    if json {
        let rendered: Vec<String> = lints.iter().map(lint_json).collect();
        let out = JsonObject::new()
            .string("file", path)
            .raw("lints", format!("[{}]", rendered.join(",")))
            .raw("deny", deny.to_string())
            .raw("warn", warn.to_string())
            .raw("note", note.to_string())
            .raw("reduction", stats_json(&analysis.stats))
            .finish();
        outln!("{out}");
    } else {
        for lint in &lints {
            outln!("{lint}");
        }
        if lints.is_empty() {
            outln!("{path}: no diagnostics");
        } else {
            outln!("{path}: {deny} deny, {warn} warn, {note} note");
        }
    }
    Ok(if deny > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Converts a frontend [`boolprog::SourceLint`] to the model-level
/// lint type shared by all diagnostics consumers.
fn from_source_lint(lint: boolprog::SourceLint) -> cuba::reduce::Lint {
    use cuba::reduce::LintLevel;
    let level = match lint.severity {
        boolprog::Severity::Note => LintLevel::Note,
        boolprog::Severity::Warn => LintLevel::Warn,
        boolprog::Severity::Deny => LintLevel::Deny,
    };
    cuba::reduce::Lint::new(lint.code, level, lint.message).with_span(lint.span.line, lint.span.col)
}

/// One lint as a JSON object (`line`/`col` only when present).
fn lint_json(lint: &cuba::reduce::Lint) -> String {
    let mut out = JsonObject::new();
    out.string("code", lint.code)
        .string("level", &lint.level.to_string())
        .string("message", &lint.message);
    if let (Some(line), Some(col)) = (lint.line, lint.col) {
        out.raw("line", line.to_string())
            .raw("col", col.to_string());
    }
    out.finish()
}

fn parse_count(arg: Option<&String>, flag: &str) -> Result<usize, String> {
    arg.and_then(|s| s.parse().ok())
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("bad {flag} value (positive integer)"))
}

fn parse_zero_ok(arg: Option<&String>, flag: &str) -> Result<usize, String> {
    arg.and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad {flag} value (non-negative integer)"))
}

fn parse_float(arg: Option<&String>, flag: &str) -> Result<f64, String> {
    arg.and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("bad {flag} value (non-negative number)"))
}

/// `info`/`fcr` take exactly one argument: the model file.
fn sole_path(args: &[String]) -> Result<&str, String> {
    let Some(path) = args.get(1) else {
        return Err(usage());
    };
    if let Some(extra) = args.get(2) {
        return Err(format!(
            "'{}' takes no options, found '{extra}'\n{}",
            args[0],
            usage()
        ));
    }
    Ok(path)
}

fn parse_verify_options(args: &[String]) -> Result<VerifyOptions, String> {
    let mut options = VerifyOptions::default();
    let mut common = CommonOpts::default();
    let mut i = 0;
    while i < args.len() {
        if common.try_parse(args, &mut i, VERIFY_COMMON)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--engine" => {
                i += 1;
                options.lineup = match args.get(i).map(|s| s.as_str()) {
                    Some("auto") => Lineup::Auto,
                    Some("explicit") => Lineup::Fixed(vec![EngineKind::Alg3Explicit]),
                    Some("symbolic") => Lineup::Fixed(vec![EngineKind::Alg3Symbolic]),
                    other => return Err(format!("bad --engine {other:?}")),
                };
            }
            "--max-k" => {
                i += 1;
                options.max_k = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --max-k value")?;
            }
            "--trace" => options.trace = true,
            "--json" => options.json = true,
            "--never-shared" => {
                i += 1;
                let q: u32 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad --never-shared value")?;
                options.never_shared = Some(SharedState(q));
            }
            "--property" => {
                i += 1;
                let spec = args.get(i).ok_or("--property needs a spec argument")?;
                let property = parse_property(spec)?;
                options.properties.push((spec.clone(), property));
            }
            "--from-snapshot" => {
                i += 1;
                options.from_snapshot = Some(
                    args.get(i)
                        .cloned()
                        .ok_or("--from-snapshot needs a file argument")?,
                );
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    options.timeout = common.timeout;
    options.trace_out = common.trace_out;
    Ok(options)
}

fn verify(
    cpds: Cpds,
    properties: Vec<(String, Property)>,
    options: &VerifyOptions,
) -> Result<ExitCode, String> {
    let config = SessionConfig {
        max_k: options.max_k,
        timeout: options.timeout,
        ..SessionConfig::new()
    };
    let portfolio = match &options.lineup {
        Lineup::Auto => Portfolio::auto(),
        Lineup::Fixed(kinds) => Portfolio::fixed(kinds.clone()),
    }
    .with_config(config.clone());

    // One set of per-system artifacts for the whole invocation: every
    // property replays the same layered exploration per backend ("one
    // system, many properties"); only deeper bounds are computed live.
    let artifacts = Arc::new(SystemArtifacts::new());
    // Warm-start from a `cuba snapshot` file: the restored layers go
    // into this invocation's artifacts, so every property replays the
    // recorded bounds and only deeper ones are computed live. The
    // restore verifies the file against the loaded system before any
    // layer is trusted.
    if let Some(snap_path) = &options.from_snapshot {
        let bytes = std::fs::read(snap_path).map_err(|e| format!("{snap_path}: {e}"))?;
        let (kind, _) = cuba::explore::snapshot::peek_header(&bytes)
            .map_err(|e| format!("{snap_path}: {e}"))?;
        let explorer = SharedExplorer::restore(
            cpds.clone(),
            config.budget.clone(),
            fingerprint(&cpds),
            &bytes,
        )
        .map_err(|e| format!("{snap_path}: {e}"))?;
        if artifacts.seed_explorer(kind, Arc::new(explorer)) {
            eprintln!("snapshot {snap_path}: seeded the {} layers", kind.label());
        }
    }
    let many = properties.len() > 1;
    let trace_out = start_trace_recording(options.trace_out.as_ref());
    let mut exit = ExitCode::SUCCESS;
    let mut saw_unsafe = false;
    let mut saw_undetermined = false;

    for (spec, property) in properties {
        // Stream events: --trace prints them; --json collects the
        // per-round growth log (all arms, not just the winner's)
        // either way.
        let mut round_log: Vec<RoundRecord> = Vec::new();
        let trace = options.trace;
        // With several properties the prefix says which property each
        // trace line belongs to.
        let trace_prefix = if many { spec.clone() } else { String::new() };
        let mut on_event = |event: &SessionEvent| {
            if trace {
                cuba_telemetry::sink::trace_line(&trace_prefix, &event.to_string());
            }
            if let SessionEvent::RoundCompleted {
                engine,
                k,
                states,
                delta_states,
                elapsed,
                event,
                replayed,
            } = event
            {
                let tag = match event {
                    cuba::core::SequenceEvent::Grew => "grew",
                    cuba::core::SequenceEvent::NewPlateau => "new-plateau",
                    cuba::core::SequenceEvent::OngoingPlateau => "plateau",
                };
                round_log.push(RoundRecord {
                    engine: engine.to_string(),
                    k: *k,
                    states: *states,
                    delta_states: *delta_states,
                    elapsed: *elapsed,
                    tag,
                    replayed: *replayed,
                });
            }
        };

        let outcome = portfolio
            .session_with(cpds.clone(), property, &artifacts)
            .and_then(|session| session.run_with(&mut on_event))
            .map_err(|e| e.to_string())?;

        if options.json {
            outln!("{}", outcome_json(&outcome, &round_log, &spec));
        } else {
            if many {
                outln!("property {spec}:");
            }
            print_outcome(&outcome);
        }
        match outcome.verdict {
            Verdict::Safe { .. } => {}
            Verdict::Unsafe { .. } => saw_unsafe = true,
            Verdict::Undetermined { .. } => saw_undetermined = true,
        }
    }
    finish_trace_recording(trace_out)?;
    // The worst verdict decides: any unsafe → 1, else undetermined → 3.
    if saw_unsafe {
        exit = ExitCode::from(1);
    } else if saw_undetermined {
        exit = ExitCode::from(3);
    }
    Ok(exit)
}

fn print_outcome(outcome: &CubaOutcome) {
    outln!("{}", outcome.verdict);
    outln!(
        "engine: {}, rounds: {}, states: {}, fcr: {}, time: {:?}",
        outcome.engine,
        outcome.rounds,
        outcome.states,
        outcome.fcr_holds,
        outcome.duration
    );
    if let Verdict::Unsafe {
        witness: Some(w), ..
    } = &outcome.verdict
    {
        outln!(
            "counterexample ({} steps, {} contexts):",
            w.len(),
            w.num_contexts()
        );
        outln!("  {w}");
    }
}

fn print_info(path: &str, cpds: &Cpds) {
    outln!("file: {path}");
    outln!("threads: {}", cpds.num_threads());
    outln!("shared states: {}", cpds.num_shared());
    for (i, t) in cpds.threads().iter().enumerate() {
        outln!(
            "thread {}: {} actions, {} stack symbols, initial stack {}",
            i,
            t.actions().len(),
            t.used_symbols().len(),
            cpds.initial_stack(i)
        );
    }
    for class in cpds.thread_classes() {
        let members: Vec<String> = class.iter().map(usize::to_string).collect();
        outln!("interchangeable threads: {{{}}}", members.join(", "));
    }
    outln!("initial state: {}", cpds.initial_state());
}

fn print_fcr(cpds: &Cpds) {
    let report = check_fcr(cpds);
    outln!("{report}");
    for (i, v) in report.per_thread.iter().enumerate() {
        outln!("  thread {i}: R(Q x Sigma<=1) is {v}");
    }
}

/// One completed round, as collected from the event stream.
struct RoundRecord {
    engine: String,
    k: usize,
    states: usize,
    delta_states: usize,
    elapsed: Duration,
    tag: &'static str,
    replayed: bool,
}

impl RoundRecord {
    fn to_json(&self) -> String {
        JsonObject::new()
            .string("engine", &self.engine)
            .raw("k", self.k.to_string())
            .raw("states", self.states.to_string())
            .raw("delta_states", self.delta_states.to_string())
            .raw("elapsed_us", self.elapsed.as_micros().to_string())
            .string("event", self.tag)
            .bool("replayed", self.replayed)
            .finish()
    }
}

/// Renders the verify outcome as one JSON object, so benchmark
/// drivers stop scraping the human-readable stdout.
fn outcome_json(outcome: &CubaOutcome, round_log: &[RoundRecord], property: &str) -> String {
    let mut out = JsonObject::new();
    out.string("property", property);
    match &outcome.verdict {
        Verdict::Safe { k, method } => out
            .string("verdict", "safe")
            .raw("k", k.to_string())
            .string("method", &method.to_string()),
        Verdict::Unsafe { k, .. } => out.string("verdict", "unsafe").raw("k", k.to_string()),
        Verdict::Undetermined { reason } => out
            .string("verdict", "undetermined")
            .null("k")
            .string("reason", reason),
    };
    out.string("engine", &outcome.engine.to_string())
        .raw("rounds", outcome.rounds.to_string())
        .raw("states", outcome.states.to_string())
        .bool("fcr", outcome.fcr_holds)
        .raw("duration_ms", outcome.duration.as_millis().to_string())
        .raw("round_wall_us", outcome.round_wall.as_micros().to_string())
        .raw("rounds_explored", outcome.rounds_explored.to_string())
        .raw("rounds_replayed", outcome.rounds_replayed.to_string());
    if let Verdict::Unsafe {
        witness: Some(w), ..
    } = &outcome.verdict
    {
        out.raw("witness_steps", w.len().to_string())
            .raw("witness_contexts", w.num_contexts().to_string());
    }
    let rounds: Vec<String> = round_log.iter().map(RoundRecord::to_json).collect();
    out.raw("growth", format!("[{}]", rounds.join(",")));
    // Per-arm growth logs: the same rounds grouped by engine, so the
    // partial progress of the arm that did not decide (the CBA
    // refuter beside the fused arm) survives in diagnostics.
    let mut arm_order: Vec<&str> = Vec::new();
    for record in round_log {
        if !arm_order.contains(&record.engine.as_str()) {
            arm_order.push(&record.engine);
        }
    }
    let arms: Vec<String> = arm_order
        .iter()
        .map(|engine| {
            let log: Vec<String> = round_log
                .iter()
                .filter(|r| r.engine == *engine)
                .map(RoundRecord::to_json)
                .collect();
            JsonObject::new()
                .string("engine", engine)
                .raw("rounds", log.len().to_string())
                .raw("log", format!("[{}]", log.join(",")))
                .finish()
        })
        .collect();
    out.raw("arms", format!("[{}]", arms.join(",")))
        .raw("telemetry", telemetry_json(outcome))
        .finish()
}

/// The `telemetry` block of the verify `--json` output: this
/// outcome's per-stage wall times plus a snapshot of the process-wide
/// registry counters (cumulative across the invocation — with several
/// properties, later blocks include earlier properties' work).
fn telemetry_json(outcome: &CubaOutcome) -> String {
    use cuba_telemetry::metrics::METRICS;
    let stages = &outcome.stages;
    JsonObject::new()
        .raw("saturate_us", stages.saturate.as_micros().to_string())
        .raw("check_us", stages.check.as_micros().to_string())
        .raw("merge_us", stages.merge.as_micros().to_string())
        .raw("waves", METRICS.waves.get().to_string())
        .raw(
            "contexts_run",
            METRICS.symbolic_contexts_run.get().to_string(),
        )
        .raw(
            "contexts_shared",
            METRICS.symbolic_contexts_shared.get().to_string(),
        )
        .raw("cache_hits", METRICS.cache_hits.get().to_string())
        .raw("cache_misses", METRICS.cache_misses.get().to_string())
        .raw(
            "trace_events_dropped",
            METRICS.trace_events_dropped.get().to_string(),
        )
        .finish()
}

/// Renders [`cuba::reduce::LintStats`] as one JSON object.
fn stats_json(stats: &cuba::reduce::LintStats) -> String {
    JsonObject::new()
        .raw("transitions", stats.transitions.to_string())
        .raw("dead_transitions", stats.dead_transitions.to_string())
        .raw(
            "irrelevant_transitions",
            stats.irrelevant_transitions.to_string(),
        )
        .raw("shared_states", stats.shared_states.to_string())
        .raw("unreachable_shared", stats.unreachable_shared.to_string())
        .raw("skeleton_states", stats.skeleton_states.to_string())
        .raw("vacuous_properties", stats.vacuous_properties.to_string())
        .raw("skeleton_us", stats.skeleton_us.to_string())
        .raw("coi_us", stats.coi_us.to_string())
        .finish()
}

/// Loads a model by extension: `.bp` Boolean program or `.cpds` text,
/// with its per-format default property.
fn load(path: &str) -> Result<(Cpds, Property), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".bp") {
        let program = boolprog::parse(&source).map_err(|e| format!("{path}: {e}"))?;
        let translated = boolprog::translate(&program).map_err(|e| format!("{path}: {e}"))?;
        let property = translated.error_free_property();
        Ok((translated.cpds, property))
    } else if path.ends_with(".cpds") {
        let cpds = textfmt::parse_cpds(&source).map_err(|e| format!("{path}: {e}"))?;
        Ok((cpds, Property::True))
    } else {
        Err(format!("{path}: unknown extension (expected .bp or .cpds)"))
    }
}
