//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2-fcr|table2-symbolic|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` seconds through the public APIs
//! of `cuba-core`, `cuba-serve` and `cuba-benchmarks`, checks every
//! verdict, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced
//! run times the calls into each layer from the benchmark's side,
//! writes the spans as a Chrome trace (checked with the validator
//! behind `cuba trace-check`) and reports the per-layer metrics.
//! `perfbench/README.md` defines every metric.

mod serve_mixed;
mod spans;
mod stats;
mod table2;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::OnceLock;

use spans::Tracer;

/// The workloads, as named on the command line.
const WORKLOADS: &[&str] = &["table2-fcr", "table2-symbolic", "serve-mixed"];

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("decided_share", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload that
/// never enters a layer reports that layer's metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("pds.successors_per_s", "1/s"),
    ("explore.explicit.layer_ms", "ms"),
    ("explore.explicit.states", "count"),
    ("explore.explicit.states_per_s", "1/s"),
    ("explore.symbolic.layer_ms", "ms"),
    ("explore.symbolic.states", "count"),
    ("explore.symbolic.states_per_s", "1/s"),
    ("explore.budget_errors", "count"),
    ("automata.post_star_ms", "ms"),
    ("automata.post_star_transitions", "count"),
    ("automata.pre_star_ms", "ms"),
    ("automata.waves", "count"),
    ("automata.steals", "count"),
    ("core.fcr_ms", "ms"),
    ("core.precompute_ms", "ms"),
    ("core.session_ms", "ms"),
    ("core.stage_saturate_ms", "ms"),
    ("core.stage_check_ms", "ms"),
    ("core.stage_coverage", "ratio"),
    ("core.rounds_explored", "count"),
    ("core.rounds_replayed", "count"),
    ("core.replay_ratio", "ratio"),
    ("core.cache_hit_ratio", "ratio"),
    ("serve.first_line_ms_p50", "ms"),
    ("serve.handler_ms_p50", "ms"),
    ("serve.warm_verdict_ms_p50", "ms"),
    ("serve.cold_verdict_ms_p50", "ms"),
    ("serve.http_errors", "count"),
    ("boolprog.parse_translate_ms", "ms"),
    ("benchmarks.textfmt_parse_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// What a workload run hands back for printing.
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// The traced run's span recorders, one track each.
    trace: Option<Vec<Tracer>>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64, metrics: BTreeMap<&'static str, f64>) -> Report {
        Report {
            attempted,
            failed,
            metrics,
            trace: None,
        }
    }
}

/// The end-to-end metrics every workload shares (`peak_rss_mb` is
/// added by `main`). `verdicts` holds every verdict latency of the
/// run; their p90 goes to stderr when at least ten lie above it.
pub fn end_to_end(
    setup_s: &[f64],
    pass_s: f64,
    verdict_ms_p50: f64,
    verdicts: &[f64],
    decided: u64,
    attempted: u64,
    failed: u64,
) -> BTreeMap<&'static str, f64> {
    let attempted = attempted.max(1) as f64;
    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::median(setup_s));
    m.insert("pass_s", pass_s);
    m.insert("verdict_ms_p50", verdict_ms_p50);
    match stats::p90(verdicts) {
        Some(p90) => eprintln!(
            "perfbench: verdict_ms_p90 {p90:.3} ms over {} verdicts",
            verdicts.len()
        ),
        None => eprintln!(
            "perfbench: verdict_ms_p90 omitted, fewer than 10 of {} verdicts above it",
            verdicts.len()
        ),
    }
    m.insert("decided_share", decided as f64 / attempted);
    m.insert("ok_share", 1.0 - failed as f64 / attempted);
    m
}

/// The process's peak resident set (`VmHWM`) in MiB. Read once per
/// process — at the end of the workload — and cached, so every caller
/// sees the same value.
fn peak_rss_mb() -> f64 {
    static PEAK: OnceLock<f64> = OnceLock::new();
    *PEAK.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <table2-fcr|table2-symbolic|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}' (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Writes the traced run's spans as a Chrome trace next to the
/// benchmark sources and validates the file as `cuba trace-check`
/// does. Prints the self-time table to stderr.
fn export_trace(args: &Args, tracers: &[Tracer]) -> Result<(), String> {
    let refs: Vec<&Tracer> = tracers.iter().collect();
    let json = spans::chrome_json(&refs);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, &json).map_err(|e| format!("{path}: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let summary =
        cuba_telemetry::trace::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "perfbench: {path}: valid Chrome trace, {} spans on {} tracks",
        summary.spans, summary.tracks
    );
    eprintln!("{}", spans::self_time_table(&refs));
    Ok(())
}

/// Renders the result line.
fn render(correct: bool, report: &Report, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|(name, unit)| {
            let value = report.metrics.get(name)?;
            Some(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "table2-fcr" => table2::run(table2::Family::Fcr, args.seed, args.seconds, args.trace),
        "table2-symbolic" => table2::run(
            table2::Family::Symbolic,
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => serve_mixed::run(args.seed, args.seconds, args.trace),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = report.failed == 0;
    let table = if args.trace {
        for (name, _) in PER_LAYER {
            report.metrics.entry(name).or_insert(0.0);
        }
        if let Err(message) = export_trace(&args, report.trace.as_deref().unwrap_or(&[])) {
            eprintln!("perfbench: trace check failed: {message}");
            correct = false;
        }
        PER_LAYER
    } else {
        report.metrics.insert("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    for (name, value) in &report.metrics {
        assert!(
            table.iter().any(|(known, _)| known == name),
            "metric {name} is not declared"
        );
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
        }
    }
    report.metrics.retain(|_, value| value.is_finite());
    println!("{}", render(correct, &report, table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` values of the objects in `BENCHMARK.json`'s array
    /// `key`, in file order.
    fn declared(key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let names = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(name, _)| name.to_string()).collect()
        };
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
        assert_eq!(declared("workloads"), WORKLOADS);
    }

    #[test]
    fn peak_rss_is_read_once() {
        let first = peak_rss_mb();
        let _ballast = vec![1u8; 64 << 20];
        assert!(first > 0.0);
        assert_eq!(
            peak_rss_mb(),
            first,
            "a second read returns the cached value"
        );
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut metrics = BTreeMap::new();
        metrics.insert("pass_s", 1.25);
        let line = render(true, &Report::new(3, 0, metrics), END_TO_END);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"pass_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(str::to_owned).collect() };
        assert!(parse_args(&argv(
            "--workload serve-mixed --seed 3 --seconds 10 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload serve-mixed --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv(
            "--workload serve-mixed --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
    }
}
