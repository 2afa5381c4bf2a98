//! The `table2-fcr` and `table2-symbolic` workloads: closed-loop passes
//! over the Table 2 problems, one problem in flight, a fresh
//! `SuiteCache` per pass and the harness's `bench_config` limits.
//!
//! The untraced loop runs each problem through the `Portfolio` exactly
//! as `run_suite_cached` does with one worker. The traced loop splits
//! the same work at the layer boundaries — FCR, `G ∩ Z`, one
//! `SharedExplorer::ensure_layer` call per bound, then the session over
//! the pre-explored artifacts — and afterwards times fixed
//! micro-workloads against `pds` successor generation and `automata`
//! `post*`/`pre*` on the same systems.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use cuba_automata::{post_star_with, pre_star_with, Psa, RuleTable};
use cuba_bench::compare::{extract_number, extract_string};
use cuba_bench::harness::{bench_config, bench_suite};
use cuba_benchmarks::suite::table2_suite;
use cuba_core::{
    AnalysisSession, CubaError, CubaOutcome, Portfolio, Property, SchedulePolicy, SessionConfig,
    SuiteCache, Verdict,
};
use cuba_explore::{ExploreError, Interrupt, SharedExplorer};
use cuba_pds::rng::SplitMix64;
use cuba_pds::{Cpds, PdsConfig, SharedState};
use cuba_telemetry::metrics::METRICS;

use crate::spans::Tracer;
use crate::stats::median;
use crate::{end_to_end, Report};

/// The verdict contract: one record per Table 2 row.
const BASELINE: &str = include_str!("../../BENCH_baseline.json");

/// Which half of the suite a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The 17 rows with finite context reachability (explicit engine
    /// plus the CBA refuter arm).
    Fcr,
    /// The 5 rows without it (symbolic engine only).
    Symbolic,
}

/// A row's expected outcome, as recorded in `BENCH_baseline.json`.
#[derive(Debug, Clone)]
struct Expected {
    verdict: String,
    k: Option<usize>,
    reason: Option<String>,
}

impl Expected {
    /// Whether `result` matches the recorded verdict word and bound
    /// (or, for error rows, the recorded error).
    fn matches(&self, result: &Result<CubaOutcome, CubaError>) -> bool {
        match result {
            Ok(outcome) => {
                let (word, k) = match &outcome.verdict {
                    Verdict::Safe { k, .. } => ("safe", Some(*k)),
                    Verdict::Unsafe { k, .. } => ("unsafe", Some(*k)),
                    Verdict::Undetermined { .. } => ("undetermined", None),
                };
                word == self.verdict && k == self.k
            }
            Err(error) => {
                self.verdict == "error" && self.reason.as_deref() == Some(&error.to_string())
            }
        }
    }
}

struct Problem {
    label: String,
    cpds: Cpds,
    property: Property,
    expect: Expected,
}

/// Everything a pass needs, built once per set-up.
struct Setup {
    problems: Vec<Problem>,
    portfolio: Portfolio,
    config: SessionConfig,
}

impl Setup {
    fn new(family: Family) -> Result<Setup, String> {
        let fcr_rows: HashMap<String, bool> = table2_suite()
            .iter()
            .map(|b| (b.label(), b.expect.fcr))
            .collect();
        let mut problems = Vec::new();
        for (label, cpds, property) in bench_suite() {
            // The fig1-multi rows are not Table 2 rows; Fig. 1 has FCR.
            let fcr = fcr_rows.get(&label).copied().unwrap_or(true);
            if fcr != (family == Family::Fcr) {
                continue;
            }
            let line = BASELINE
                .lines()
                .find(|line| extract_string(line, "label").as_deref() == Some(label.as_str()))
                .ok_or_else(|| format!("{label}: no record in BENCH_baseline.json"))?;
            let expect = Expected {
                verdict: extract_string(line, "verdict")
                    .ok_or_else(|| format!("{label}: baseline record has no verdict"))?,
                k: extract_number(line, "k").map(|k| k as usize),
                reason: extract_string(line, "reason"),
            };
            problems.push(Problem {
                label,
                cpds,
                property,
                expect,
            });
        }
        let config = bench_config(SchedulePolicy::default());
        Ok(Setup {
            problems,
            portfolio: Portfolio::auto().with_config(config.clone()),
            config,
        })
    }

    /// The seeded problem order of pass `pass` (Fisher–Yates).
    fn order(&self, seed: u64, pass: u64) -> Vec<usize> {
        let mut rng = SplitMix64::new(seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut order: Vec<usize> = (0..self.problems.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_usize(i + 1));
        }
        order
    }
}

/// Per-problem facts gathered by the untraced passes, used by the
/// traced ones and the attribution table.
#[derive(Debug, Clone, Default)]
struct ProblemStats {
    /// Explorer depth after the problem's first untraced run.
    depth: Option<usize>,
    e2e_ms: Vec<f64>,
    fresh_saturate_ms: f64,
    fresh_check_ms: f64,
    explore_ms: Vec<f64>,
    session_ms: Vec<f64>,
    session_saturate_ms: f64,
    session_check_ms: f64,
}

/// End-to-end bookkeeping of the untraced loop.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    decided: u64,
    verdict_ms: Vec<f64>,
    pass_s: Vec<f64>,
    /// Per pass: outcome stage time booked (saturate + check), ms.
    staged_ms: Vec<f64>,
    rounds_explored: Vec<f64>,
    rounds_replayed: Vec<f64>,
    cache_hit_ratio: Vec<f64>,
}

impl Tally {
    fn record(&mut self, expect: &Expected, result: &Result<CubaOutcome, CubaError>) {
        self.attempted += 1;
        if !expect.matches(result) {
            self.failed += 1;
            eprintln!("perfbench: verdict mismatch: expected {expect:?}, got {result:?}");
        }
        if matches!(result, Ok(o) if !matches!(o.verdict, Verdict::Undetermined { .. })) {
            self.decided += 1;
        }
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The shared explorer sessions over `artifacts` drove, if any.
fn started_explorer(
    artifacts: &cuba_core::SystemArtifacts,
    config: &SessionConfig,
) -> Option<Arc<SharedExplorer>> {
    artifacts
        .explicit_explorer_if_started()
        .or_else(|| artifacts.symbolic_explorer_if_started(config.subsumption))
}

/// One untraced pass: every problem in `order`, fresh cache.
fn untraced_pass(setup: &Setup, order: &[usize], tally: &mut Tally, stats: &mut [ProblemStats]) {
    let cache = SuiteCache::new();
    let pass = Instant::now();
    let (mut staged, mut explored, mut replayed) = (0.0, 0usize, 0usize);
    for &i in order {
        let problem = &setup.problems[i];
        let (cpds, property) = (problem.cpds.clone(), problem.property.clone());
        let timer = Instant::now();
        let artifacts = cache.artifacts(&cpds);
        let result = setup
            .portfolio
            .session_with(cpds, property, &artifacts)
            .and_then(AnalysisSession::run);
        let elapsed = ms(timer);
        tally.verdict_ms.push(elapsed);
        tally.record(&problem.expect, &result);
        let stat = &mut stats[i];
        stat.e2e_ms.push(elapsed);
        if let Ok(outcome) = &result {
            let s = outcome.stages;
            staged += (s.saturate + s.check).as_secs_f64() * 1e3;
            explored += outcome.rounds_explored;
            replayed += outcome.rounds_replayed;
        }
        if stat.depth.is_none() {
            stat.depth = Some(started_explorer(&artifacts, &setup.config).map_or(0, |e| e.depth()));
            if let Ok(outcome) = &result {
                stat.fresh_saturate_ms = outcome.stages.saturate.as_secs_f64() * 1e3;
                stat.fresh_check_ms = outcome.stages.check.as_secs_f64() * 1e3;
            }
        }
    }
    tally.pass_s.push(pass.elapsed().as_secs_f64());
    tally.staged_ms.push(staged);
    tally.rounds_explored.push(explored as f64);
    tally.rounds_replayed.push(replayed as f64);
    let lookups = (cache.hits() + cache.misses()).max(1);
    tally
        .cache_hit_ratio
        .push(cache.hits() as f64 / lookups as f64);
}

/// Counts gathered by one traced pass (times come from its spans).
#[derive(Debug, Default)]
struct LayerCounts {
    explicit_states: usize,
    symbolic_states: usize,
    budget_errors: usize,
    successors: usize,
    post_star_transitions: usize,
    stage_saturate_ms: f64,
    stage_check_ms: f64,
    waves: u64,
    steals: u64,
}

/// One traced pass: the untraced pass's work split at the layer
/// boundaries, then the micro-workloads. Returns the pass wall time
/// (micro-workloads excluded) and the pass's counts.
fn traced_pass(
    setup: &Setup,
    order: &[usize],
    tracer: &mut Tracer,
    tally: &mut Tally,
    stats: &mut [ProblemStats],
) -> (f64, LayerCounts) {
    let cache = SuiteCache::new();
    let mut counts = LayerCounts::default();
    let (waves, steals) = (METRICS.waves.get(), METRICS.steals.get());
    let mut explorers: Vec<(usize, Arc<SharedExplorer>)> = Vec::new();
    let budget = &setup.config.budget;
    let pass = Instant::now();
    tracer.span("pass", |tr| {
        for &i in order {
            let problem = &setup.problems[i];
            let depth = stats[i].depth.unwrap_or(0);
            tr.set_request(i as u64);
            tr.span("problem", |tr| {
                let cpds = &problem.cpds;
                let artifacts = tr.span("core.cache_lookup", |_| cache.artifacts(cpds));
                let fcr = tr.span("core.fcr", |_| artifacts.fcr(cpds).holds());
                tr.span("core.precompute", |_| artifacts.g_cap_z(cpds));
                let (explorer, layer) = if fcr {
                    let explorer = artifacts.explicit_explorer(cpds, budget);
                    (explorer, "explore.explicit.layer")
                } else {
                    let mode = setup.config.subsumption;
                    let explorer = artifacts.symbolic_explorer(cpds, budget, mode);
                    (explorer, "explore.symbolic.layer")
                };
                let explore = Instant::now();
                for k in 1..=depth {
                    let step = tr.span(layer, |_| explorer.ensure_layer(k, &Interrupt::none()));
                    if let Err(error) = step {
                        eprintln!("perfbench: {} layer {k}: {error}", problem.label);
                        tally.failed += 1;
                        break;
                    }
                }
                stats[i].explore_ms.push(ms(explore));
                let states = explorer.view(explorer.depth()).states;
                if fcr {
                    counts.explicit_states += states;
                } else {
                    counts.symbolic_states += states;
                }
                let session = Instant::now();
                let result = tr.span("core.session", |_| {
                    setup
                        .portfolio
                        .session_with(cpds.clone(), problem.property.clone(), &artifacts)
                        .and_then(AnalysisSession::run)
                });
                stats[i].session_ms.push(ms(session));
                tally.record(&problem.expect, &result);
                match &result {
                    Ok(outcome) => {
                        let saturate = outcome.stages.saturate.as_secs_f64() * 1e3;
                        let check = outcome.stages.check.as_secs_f64() * 1e3;
                        counts.stage_saturate_ms += saturate;
                        counts.stage_check_ms += check;
                        stats[i].session_saturate_ms = saturate;
                        stats[i].session_check_ms = check;
                    }
                    Err(CubaError::Explore(ExploreError::SymbolicBudgetExceeded { .. })) => {
                        counts.budget_errors += 1;
                    }
                    Err(_) => {}
                }
                explorers.push((i, explorer));
            });
        }
    });
    let wall = pass.elapsed().as_secs_f64();
    tracer.span("micro", |tr| {
        for (i, explorer) in &explorers {
            tr.set_request(*i as u64);
            micro(&setup.problems[*i].cpds, explorer, tr, &mut counts);
        }
    });
    counts.waves = METRICS.waves.get() - waves;
    counts.steals = METRICS.steals.get() - steals;
    (wall, counts)
}

/// Fixed micro-workloads on one system: successor generation over
/// every explicit state explored, and per thread one `post*` from the
/// initial stack under every shared state plus one `pre*` of the FCR
/// set `Q × Σ≤1`.
fn micro(cpds: &Cpds, explorer: &SharedExplorer, tr: &mut Tracer, counts: &mut LayerCounts) {
    if let Some(states) = explorer.with_explicit(|e| e.states().to_vec()) {
        counts.successors += tr.span("pds.successors", |_| {
            states
                .iter()
                .map(|s| std::hint::black_box(cpds.successors(s)).len())
                .sum::<usize>()
        });
    }
    let threads = cuba_explore::ExploreBudget::default().effective_threads();
    for (i, pds) in cpds.threads().iter().enumerate() {
        let table = RuleTable::new(pds);
        let configs: Vec<PdsConfig> = (0..cpds.num_shared())
            .map(|q| PdsConfig::new(SharedState(q), cpds.initial_stack(i).clone()))
            .collect();
        let init = Psa::accepting_configs(cpds.num_shared(), &configs)
            .expect("shared states are in range");
        let post = tr.span("automata.post_star", |_| {
            post_star_with(pds, &table, &init, threads, &|| true)
        });
        if let Ok(psa) = post {
            counts.post_star_transitions += psa.as_nfa().transitions().count();
        }
        let target = Psa::all_stacks_leq1(
            cpds.num_shared(),
            pds.used_symbols().into_iter().map(|s| s.0),
        );
        tr.span("automata.pre_star", |_| {
            std::hint::black_box(pre_star_with(pds, &target, threads, &|| true)).is_ok()
        });
    }
}

/// Runs a table2 workload for `seconds` and reports its metrics.
pub fn run(family: Family, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    // One set-up before the window and one more after every pass, so
    // the median of `setup_s` spans the same drift in host speed as the
    // passes do.
    let timer = Instant::now();
    let setup = Setup::new(family)?;
    let mut setup_s = vec![timer.elapsed().as_secs_f64()];
    let mut stats = vec![ProblemStats::default(); setup.problems.len()];
    let mut tally = Tally::default();

    // With --trace 1 untraced and traced passes alternate, so drift in
    // the host's speed affects both alike; traced passes need the
    // explorer depths the first untraced pass records.
    let window = Instant::now();
    let mut tracer = Tracer::new(trace, 1, window);
    let mut traced_s = Vec::new();
    let mut per_pass: Vec<(BTreeMap<&'static str, f64>, LayerCounts)> = Vec::new();
    let mut pass = 0u64;
    while pass <= u64::from(trace) || window.elapsed().as_secs_f64() < seconds {
        let order = setup.order(seed, pass);
        if trace && pass % 2 == 1 {
            let (wall, counts) = traced_pass(&setup, &order, &mut tracer, &mut tally, &mut stats);
            traced_s.push(wall);
            per_pass.push((tracer.take_self_us(), counts));
        } else {
            untraced_pass(&setup, &order, &mut tally, &mut stats);
        }
        pass += 1;
        let timer = Instant::now();
        std::hint::black_box(Setup::new(family)?);
        setup_s.push(timer.elapsed().as_secs_f64());
    }
    if !trace {
        // The host's speed drifts in phases of seconds, and contention
        // only ever adds time, so each problem's fastest run of the
        // window is its steady cost. A pass costs their sum.
        let best_ms: Vec<f64> = stats
            .iter()
            .map(|s| s.e2e_ms.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        eprintln!(
            "perfbench: {} passes, median pass {:.4} s, median verdict {:.4} ms",
            tally.pass_s.len(),
            median(&tally.pass_s),
            median(&tally.verdict_ms)
        );
        let metrics = end_to_end(
            &setup_s,
            best_ms.iter().sum::<f64>() / 1e3,
            median(&best_ms),
            &tally.verdict_ms,
            tally.decided,
            tally.attempted,
            tally.failed,
        );
        return Ok(Report::new(tally.attempted, tally.failed, metrics));
    }

    eprintln!("{}", attribution_table(&setup, &stats));
    let mut metrics = layer_metrics(&per_pass);
    let untraced = median(&tally.pass_s);
    metrics.insert(
        "trace_overhead_pct",
        (median(&traced_s) / untraced - 1.0) * 100.0,
    );
    metrics.insert("core.rounds_explored", median(&tally.rounds_explored));
    metrics.insert("core.rounds_replayed", median(&tally.rounds_replayed));
    let (explored, replayed): (f64, f64) = (
        tally.rounds_explored.iter().sum(),
        tally.rounds_replayed.iter().sum(),
    );
    metrics.insert(
        "core.replay_ratio",
        replayed / (explored + replayed).max(1.0),
    );
    metrics.insert("core.cache_hit_ratio", median(&tally.cache_hit_ratio));
    let walls: f64 = tally.pass_s.iter().sum::<f64>() * 1e3;
    metrics.insert(
        "core.stage_coverage",
        tally.staged_ms.iter().sum::<f64>() / walls,
    );
    let mut report = Report::new(tally.attempted, tally.failed, metrics);
    report.trace = Some(vec![tracer]);
    Ok(report)
}

/// Per-layer metrics: for each, the median over traced passes of the
/// pass's total.
fn layer_metrics(
    per_pass: &[(BTreeMap<&'static str, f64>, LayerCounts)],
) -> BTreeMap<&'static str, f64> {
    let over = |f: &dyn Fn(&BTreeMap<&'static str, f64>, &LayerCounts) -> f64| -> f64 {
        median(&per_pass.iter().map(|(s, c)| f(s, c)).collect::<Vec<_>>())
    };
    let span_ms = |spans: &BTreeMap<&'static str, f64>, name: &str| {
        spans.get(name).copied().unwrap_or(0.0) / 1e3
    };
    let rate = |count: f64, ms: f64| if ms > 0.0 { count / (ms / 1e3) } else { 0.0 };
    let mut m = BTreeMap::new();
    m.insert(
        "pds.successors_per_s",
        over(&|s, c| rate(c.successors as f64, span_ms(s, "pds.successors"))),
    );
    m.insert(
        "explore.explicit.layer_ms",
        over(&|s, _| span_ms(s, "explore.explicit.layer")),
    );
    m.insert(
        "explore.explicit.states",
        over(&|_, c| c.explicit_states as f64),
    );
    m.insert(
        "explore.explicit.states_per_s",
        over(&|s, c| {
            rate(
                c.explicit_states as f64,
                span_ms(s, "explore.explicit.layer"),
            )
        }),
    );
    m.insert(
        "explore.symbolic.layer_ms",
        over(&|s, _| span_ms(s, "explore.symbolic.layer")),
    );
    m.insert(
        "explore.symbolic.states",
        over(&|_, c| c.symbolic_states as f64),
    );
    m.insert(
        "explore.symbolic.states_per_s",
        over(&|s, c| {
            rate(
                c.symbolic_states as f64,
                span_ms(s, "explore.symbolic.layer"),
            )
        }),
    );
    m.insert(
        "explore.budget_errors",
        over(&|_, c| c.budget_errors as f64),
    );
    m.insert(
        "automata.post_star_ms",
        over(&|s, _| span_ms(s, "automata.post_star")),
    );
    m.insert(
        "automata.post_star_transitions",
        over(&|_, c| c.post_star_transitions as f64),
    );
    m.insert(
        "automata.pre_star_ms",
        over(&|s, _| span_ms(s, "automata.pre_star")),
    );
    m.insert("automata.waves", over(&|_, c| c.waves as f64));
    m.insert("automata.steals", over(&|_, c| c.steals as f64));
    m.insert("core.fcr_ms", over(&|s, _| span_ms(s, "core.fcr")));
    m.insert(
        "core.precompute_ms",
        over(&|s, _| span_ms(s, "core.precompute")),
    );
    m.insert("core.session_ms", over(&|s, _| span_ms(s, "core.session")));
    m.insert("core.stage_saturate_ms", over(&|_, c| c.stage_saturate_ms));
    m.insert("core.stage_check_ms", over(&|_, c| c.stage_check_ms));
    m
}

/// The attribution check: per problem, the untraced wall next to the
/// program's own stage booking and the benchmark-timed layers.
fn attribution_table(setup: &Setup, stats: &[ProblemStats]) -> String {
    let mut out = format!(
        "{:<22} {:>10} {:>10} {:>10} {:>11} {:>11} {:>10} {:>10}\n",
        "problem",
        "e2e_ms",
        "stage_sat",
        "stage_chk",
        "explore_ms",
        "session_ms",
        "sess_sat",
        "sess_chk"
    );
    for (problem, s) in setup.problems.iter().zip(stats) {
        out.push_str(&format!(
            "{:<22} {:>10.3} {:>10.3} {:>10.3} {:>11.3} {:>11.3} {:>10.3} {:>10.3}\n",
            problem.label,
            median(&s.e2e_ms),
            s.fresh_saturate_ms,
            s.fresh_check_ms,
            median(&s.explore_ms),
            median(&s.session_ms),
            s.session_saturate_ms,
            s.session_check_ms,
        ));
    }
    out
}
