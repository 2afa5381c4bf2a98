//! The criterion-style measurement harness behind `cuba bench`.
//!
//! The container builds fully offline, so criterion itself cannot be
//! reinstated; this module supplies the part of it the CI timing gate
//! actually needs — warmup rounds followed by a fixed number of
//! measured iterations over the whole Table 2 suite, capturing each
//! workload's `round_wall_us` once *per sample* instead of once per
//! run. Downstream, [`crate::stats`] summarizes the sample vectors and
//! [`crate::compare`] classifies them against a committed baseline
//! with noise-aware thresholds.
//!
//! Every iteration runs the suite through a **fresh**
//! [`SuiteCache`], so the per-workload cache hit/miss pattern (and
//! with it the explored-vs-replayed round split) is identical across
//! samples — a sample measures the same work every time, which is what
//! makes the sample vectors comparable at all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cuba_benchmarks::fig1;
use cuba_benchmarks::suite::{table2_problems, table2_suite};
use cuba_core::{
    same_system, CubaError, CubaOutcome, Portfolio, Property, SchedulePolicy, SessionConfig,
    SuiteCache, Verdict,
};
use cuba_explore::{ExploreBudget, SharedExplorer, SnapshotKind};
use cuba_pds::{Cpds, SharedState, StackSym, VisibleState};

use crate::stats;
use crate::JsonObject;

/// The measured workload set: every Table 2 row plus the
/// `fig1-multi/*` block (one system, three properties), so the record
/// covers shared-layer replay too. Labels are unique.
pub fn bench_suite() -> Vec<(String, Cpds, Property)> {
    let mut problems: Vec<(String, Cpds, Property)> = table2_suite()
        .iter()
        .map(|b| b.label())
        .zip(table2_problems())
        .map(|(label, (cpds, property))| (label, cpds, property))
        .collect();
    let vis = |q: u32, tops: &[u32]| {
        VisibleState::new(
            SharedState(q),
            tops.iter().map(|&t| Some(StackSym(t))).collect(),
        )
    };
    problems.push((
        "fig1-multi/p0-true".to_owned(),
        fig1::build(),
        Property::True,
    ));
    // ⟨1|2,6⟩ first appears at k = 5 (Fig. 1 table): unsafe@5.
    problems.push((
        "fig1-multi/p1-bug".to_owned(),
        fig1::build(),
        Property::never_visible(vis(1, &[2, 6])),
    ));
    // ⟨2|1,5⟩ is unreachable: safe at the convergence bound.
    problems.push((
        "fig1-multi/p2-unreach".to_owned(),
        fig1::build(),
        Property::never_visible(vis(2, &[1, 5])),
    ));
    problems
}

/// The suite-wide session limits of the harness (identical to the
/// `table2` binary, so records stay comparable): the symbolic state
/// cap keeps the OOM row (`stefan-1/8`) bounded. Sessions always step
/// their arms round-robin; the [`SchedulePolicy`] argument has a
/// single value and is ignored.
pub fn bench_config(_schedule: SchedulePolicy) -> SessionConfig {
    SessionConfig {
        budget: ExploreBudget {
            max_symbolic_states: 20_000,
            ..ExploreBudget::default()
        },
        max_k: 32,
        ..SessionConfig::new()
    }
}

/// How `cuba bench` measures.
#[derive(Debug, Clone)]
pub struct BenchPlan {
    /// Unmeasured suite iterations before sampling starts (cold
    /// caches, page faults, frequency scaling settle here).
    pub warmup: usize,
    /// Measured suite iterations; each contributes one sample per
    /// workload.
    pub samples: usize,
    /// Systems in flight per iteration; the rows of one system run in
    /// one worker, in suite order.
    pub workers: usize,
    /// A `cuba snapshot` file to seed into every iteration's fresh
    /// cache (`--from-snapshot`): the matching workload replays the
    /// recorded layers instead of exploring live, and its hit probe
    /// reports `"cache":"hit"`. The per-iteration restore keeps
    /// samples comparable — every iteration measures the same
    /// replay-from-depth work.
    pub seed: Option<SnapshotSeed>,
}

/// A pre-explored layer store, as read from a `cuba snapshot` file.
#[derive(Debug, Clone)]
pub struct SnapshotSeed {
    /// Which explorer slot the snapshot restores.
    pub kind: SnapshotKind,
    /// The recorded system's fingerprint (from the file header).
    pub fingerprint: u64,
    /// The raw snapshot file.
    pub bytes: std::sync::Arc<Vec<u8>>,
}

impl Default for BenchPlan {
    fn default() -> Self {
        BenchPlan {
            warmup: 1,
            samples: 5,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: None,
        }
    }
}

/// One workload's measured record: the structural outcome (identical
/// across samples by construction) plus the per-sample timing vector.
/// Error rows carry a `reason` and **no** timing fields at all — an
/// errored run has no meaningful `round_wall_us`, and emitting one
/// would invite a comparator to parse it.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Workload label, e.g. `bluetooth-3/2+1`.
    pub label: String,
    /// `safe` / `unsafe` / `undetermined` / `error`.
    pub verdict: String,
    /// Error message, for `verdict == "error"` rows only.
    pub reason: Option<String>,
    /// Whether the workload's system was already in the per-iteration
    /// suite cache when it came up (stable across samples).
    pub cache_hit: bool,
    /// Convergence/bug bound, when decided.
    pub k: Option<usize>,
    /// FCR verdict (absent on error rows).
    pub fcr: Option<bool>,
    /// Winning engine (absent on error rows).
    pub engine: Option<String>,
    /// Rounds of the winning arm.
    pub rounds: usize,
    /// Live exploration rounds across all arms.
    pub rounds_explored: usize,
    /// Replayed (shared-layer) rounds across all arms.
    pub rounds_replayed: usize,
    /// One `round_wall_us` measurement per sample, in iteration order.
    pub samples_us: Vec<f64>,
    /// Per-sample saturation wall (exploration advances), µs.
    pub saturate_samples_us: Vec<f64>,
    /// Per-sample check wall (round remainder), µs.
    pub check_samples_us: Vec<f64>,
    /// Per-sample layer-commit wall (subset of saturate), µs.
    pub merge_samples_us: Vec<f64>,
    /// Whole-outcome duration of the first sample, milliseconds.
    pub duration_ms: u128,
    /// Whether any later sample disagreed with the first on the
    /// structural outcome (verdict) — should never happen; surfaced
    /// loudly instead of silently averaged away.
    pub unstable: bool,
}

impl BenchRow {
    /// The robust point estimate of the row's timing: median of the
    /// samples (`None` on error rows).
    pub fn median_us(&self) -> Option<f64> {
        if self.samples_us.is_empty() {
            None
        } else {
            Some(stats::median(&self.samples_us))
        }
    }
}

/// A finished measurement: per-workload rows plus run-level metadata.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Per-workload records, in suite order.
    pub rows: Vec<BenchRow>,
    /// The plan that produced them.
    pub plan: BenchPlan,
    /// Total wall-clock of the measured iterations, seconds.
    pub measure_seconds: f64,
}

/// The verdict word of one suite result (`error` for hard failures).
pub fn verdict_word(result: &Result<CubaOutcome, CubaError>) -> String {
    match result {
        Ok(o) => match &o.verdict {
            Verdict::Safe { .. } => "safe".to_owned(),
            Verdict::Unsafe { .. } => "unsafe".to_owned(),
            Verdict::Undetermined { .. } => "undetermined".to_owned(),
        },
        Err(_) => "error".to_owned(),
    }
}

/// Runs one suite iteration through a fresh cache, returning the
/// per-problem results and the pre-probed hit pattern.
pub fn run_iteration(
    portfolio: &Portfolio,
    problems: &[(String, Cpds, Property)],
    workers: usize,
) -> (Vec<Result<CubaOutcome, CubaError>>, Vec<bool>) {
    run_iteration_seeded(
        portfolio,
        problems,
        workers,
        None,
        &ExploreBudget::default(),
    )
}

/// As [`run_iteration`], restoring `seed` into the fresh cache first,
/// so the hit probe sees the snapshot-backed system as warm and its
/// sessions replay the recorded bounds.
///
/// Up to `workers` systems run at once, but the rows of one system
/// run in one worker, in suite order: they share the system's
/// explorers, so racing them would make each row's explored/replayed
/// split depend on thread timing. Every record is then the one a
/// single worker gives.
pub fn run_iteration_seeded(
    portfolio: &Portfolio,
    problems: &[(String, Cpds, Property)],
    workers: usize,
    seed: Option<&SnapshotSeed>,
    budget: &ExploreBudget,
) -> (Vec<Result<CubaOutcome, CubaError>>, Vec<bool>) {
    let cache = SuiteCache::new();
    if let Some(seed) = seed {
        seed_cache(&cache, problems, seed, budget);
    }
    // Probe hit/miss in input order before the (parallel) run — the
    // in-run lookup order is nondeterministic under workers > 1.
    let hits: Vec<bool> = problems
        .iter()
        .map(|(_, cpds, _)| cache.lookup(cpds).1)
        .collect();
    let mut systems: Vec<Vec<usize>> = Vec::new();
    for (i, (_, cpds, _)) in problems.iter().enumerate() {
        match systems
            .iter_mut()
            .find(|rows| same_system(&problems[rows[0]].1, cpds))
        {
            Some(rows) => rows.push(i),
            None => systems.push(vec![i]),
        }
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, Result<CubaOutcome, CubaError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, systems.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some(rows) = systems.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let batch = rows
                            .iter()
                            .map(|&i| (problems[i].1.clone(), problems[i].2.clone()))
                            .collect();
                        let outcomes = portfolio.run_suite_cached(batch, 1, &cache);
                        done.extend(rows.iter().copied().zip(outcomes));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("a bench worker panicked"))
            .collect()
    });
    results.sort_by_key(|&(i, _)| i);
    (
        results.into_iter().map(|(_, outcome)| outcome).collect(),
        hits,
    )
}

/// Restores `seed` into `cache` for the first workload whose system
/// matches the recorded fingerprint. A snapshot that matches no
/// workload, or that fails verification, is reported on stderr and
/// skipped — the measurement proceeds cold.
fn seed_cache(
    cache: &SuiteCache,
    problems: &[(String, Cpds, Property)],
    seed: &SnapshotSeed,
    budget: &ExploreBudget,
) {
    for (label, cpds, _) in problems {
        if cuba_core::fingerprint(cpds) != seed.fingerprint {
            continue;
        }
        match SharedExplorer::restore(cpds.clone(), budget.clone(), seed.fingerprint, &seed.bytes) {
            Ok(explorer) => {
                let artifacts =
                    cache.adopt(cpds, std::sync::Arc::new(cuba_core::SystemArtifacts::new()));
                artifacts.seed_explorer(seed.kind, std::sync::Arc::new(explorer));
            }
            Err(e) => eprintln!("snapshot seed {label}: {e} (measuring cold)"),
        }
        return;
    }
    eprintln!(
        "snapshot seed: fingerprint {:016x} matches no workload (measuring cold)",
        seed.fingerprint
    );
}

/// Measures the full bench suite under `plan`: `plan.warmup`
/// unmeasured iterations, then `plan.samples` measured ones. Progress
/// goes to stderr (one line per iteration).
pub fn run(plan: &BenchPlan) -> BenchRun {
    run_problems(plan, bench_suite())
}

/// [`run`] over an explicit workload list (tests measure a small
/// subset; the debug-build suite is seconds per iteration).
pub fn run_problems(plan: &BenchPlan, problems: Vec<(String, Cpds, Property)>) -> BenchRun {
    let config = bench_config(SchedulePolicy::RoundRobin);
    let portfolio = Portfolio::auto().with_config(config.clone());

    for i in 0..plan.warmup {
        let start = Instant::now();
        let _ = run_iteration_seeded(
            &portfolio,
            &problems,
            plan.workers,
            plan.seed.as_ref(),
            &config.budget,
        );
        eprintln!(
            "warmup {}/{}: {:.2}s",
            i + 1,
            plan.warmup,
            start.elapsed().as_secs_f64()
        );
    }

    let mut rows: Vec<BenchRow> = Vec::new();
    let measure_start = Instant::now();
    for sample in 0..plan.samples.max(1) {
        let start = Instant::now();
        let (results, hits) = run_iteration_seeded(
            &portfolio,
            &problems,
            plan.workers,
            plan.seed.as_ref(),
            &config.budget,
        );
        for (i, ((label, _, _), result)) in problems.iter().zip(&results).enumerate() {
            if sample == 0 {
                let mut row = BenchRow {
                    label: label.clone(),
                    verdict: verdict_word(result),
                    reason: None,
                    cache_hit: hits[i],
                    k: None,
                    fcr: None,
                    engine: None,
                    rounds: 0,
                    rounds_explored: 0,
                    rounds_replayed: 0,
                    samples_us: Vec::new(),
                    saturate_samples_us: Vec::new(),
                    check_samples_us: Vec::new(),
                    merge_samples_us: Vec::new(),
                    duration_ms: 0,
                    unstable: false,
                };
                match result {
                    Ok(o) => {
                        row.k = match &o.verdict {
                            Verdict::Safe { k, .. } | Verdict::Unsafe { k, .. } => Some(*k),
                            Verdict::Undetermined { .. } => None,
                        };
                        row.fcr = Some(o.fcr_holds);
                        row.engine = Some(o.engine.to_string());
                        row.rounds = o.rounds;
                        row.rounds_explored = o.rounds_explored;
                        row.rounds_replayed = o.rounds_replayed;
                        row.duration_ms = o.duration.as_millis();
                    }
                    Err(e) => row.reason = Some(e.to_string()),
                }
                rows.push(row);
            } else if rows[i].verdict != verdict_word(result) {
                rows[i].unstable = true;
            }
            // Error rows never accumulate timing samples.
            if let Ok(o) = result {
                if rows[i].verdict != "error" {
                    rows[i].samples_us.push(o.round_wall.as_micros() as f64);
                    rows[i]
                        .saturate_samples_us
                        .push(o.stages.saturate.as_micros() as f64);
                    rows[i]
                        .check_samples_us
                        .push(o.stages.check.as_micros() as f64);
                    rows[i]
                        .merge_samples_us
                        .push(o.stages.merge.as_micros() as f64);
                }
            }
        }
        eprintln!(
            "sample {}/{}: {:.2}s",
            sample + 1,
            plan.samples.max(1),
            start.elapsed().as_secs_f64()
        );
    }

    BenchRun {
        rows,
        plan: plan.clone(),
        measure_seconds: measure_start.elapsed().as_secs_f64(),
    }
}

/// Renders one row as a JSON object. `round_wall_us` is the median
/// of the samples (single-sample records carry only that field, so
/// older readers keep working) and the full sample vector rides in
/// `samples_us`. Error rows get `reason` and no timing
/// fields.
pub fn row_to_json(row: &BenchRow) -> String {
    let mut obj = JsonObject::new();
    obj.string("label", &row.label);
    obj.string("verdict", &row.verdict);
    obj.string("cache", if row.cache_hit { "hit" } else { "miss" });
    if let Some(reason) = &row.reason {
        obj.string("reason", reason);
        if row.unstable {
            obj.bool("unstable", true);
        }
        return obj.finish();
    }
    match row.k {
        Some(k) => obj.number("k", k as f64),
        None => obj.null("k"),
    };
    if let Some(fcr) = row.fcr {
        obj.bool("fcr", fcr);
    }
    if let Some(engine) = &row.engine {
        obj.string("engine", engine);
    }
    obj.number("rounds", row.rounds as f64);
    obj.number("rounds_explored", row.rounds_explored as f64);
    obj.number("rounds_replayed", row.rounds_replayed as f64);
    if let Some(median) = row.median_us() {
        obj.number("round_wall_us", median.round());
    }
    // Additive per-stage medians (µs), sourced from the telemetry
    // registry's stage accumulator. The legacy comparator scanner
    // ignores unknown keys, so these stay invisible to old baselines.
    for (key, samples) in [
        ("saturate_us", &row.saturate_samples_us),
        ("check_us", &row.check_samples_us),
        ("merge_us", &row.merge_samples_us),
    ] {
        if !samples.is_empty() {
            obj.number(key, stats::median(samples).round());
        }
    }
    let samples: Vec<String> = row
        .samples_us
        .iter()
        .map(|s| format!("{}", s.round() as i64))
        .collect();
    obj.raw("samples_us", format!("[{}]", samples.join(",")));
    obj.number("duration_ms", row.duration_ms as f64);
    if row.unstable {
        obj.bool("unstable", true);
    }
    obj.finish()
}

/// Renders a whole run as the `BENCH_*.json` record: a JSON array,
/// one object per line — the line-oriented layout the hand-rolled
/// baseline scanner depends on.
pub fn run_to_json(run: &BenchRun) -> String {
    let mut out = String::from("[\n");
    for (i, row) in run.rows.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&row_to_json(row));
        if i + 1 < run.rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_suite_labels_are_unique_and_cover_table2() {
        let suite = bench_suite();
        let labels: std::collections::HashSet<&str> =
            suite.iter().map(|(l, _, _)| l.as_str()).collect();
        assert_eq!(labels.len(), suite.len());
        // 19 Table 2 rows + the 3-property fig1 block.
        assert_eq!(suite.len(), 22);
        assert!(labels.contains("stefan-1/8"));
        assert!(labels.contains("fig1-multi/p2-unreach"));
    }

    /// Error rows serialize without timing fields; measured rows carry
    /// the full sample vector and the median as `round_wall_us`.
    #[test]
    fn row_json_shapes() {
        let error = BenchRow {
            label: "stefan-1/8".into(),
            verdict: "error".into(),
            reason: Some("budget exceeded".into()),
            cache_hit: false,
            k: None,
            fcr: None,
            engine: None,
            rounds: 0,
            rounds_explored: 0,
            rounds_replayed: 0,
            samples_us: Vec::new(),
            saturate_samples_us: Vec::new(),
            check_samples_us: Vec::new(),
            merge_samples_us: Vec::new(),
            duration_ms: 0,
            unstable: false,
        };
        let json = row_to_json(&error);
        assert!(json.contains("\"verdict\":\"error\""));
        assert!(json.contains("\"reason\":\"budget exceeded\""));
        assert!(!json.contains("round_wall_us"), "no timing on errors");
        assert!(!json.contains("samples_us"), "no samples on errors");

        let measured = BenchRow {
            label: "dekker/2*".into(),
            verdict: "safe".into(),
            reason: None,
            cache_hit: false,
            k: Some(4),
            fcr: Some(true),
            engine: Some("Alg3(T(Rk))".into()),
            rounds: 5,
            rounds_explored: 12,
            rounds_replayed: 4,
            samples_us: vec![1700.0, 1600.0, 1800.0],
            saturate_samples_us: vec![900.0, 850.0, 950.0],
            check_samples_us: vec![800.0, 750.0, 850.0],
            merge_samples_us: vec![40.0, 30.0, 50.0],
            duration_ms: 1,
            unstable: false,
        };
        let json = row_to_json(&measured);
        assert!(json.contains("\"round_wall_us\":1700"), "{json}");
        assert!(json.contains("\"samples_us\":[1700,1600,1800]"));
        assert!(json.contains("\"saturate_us\":900"), "{json}");
        assert!(json.contains("\"check_us\":800"), "{json}");
        assert!(json.contains("\"merge_us\":40"), "{json}");
        assert!(json.contains("\"k\":4"));
    }

    /// `--from-snapshot` seeding: a snapshot of the fig1 system makes
    /// its workloads replay (warm hit probe, fewer live rounds) with
    /// verdicts and bounds identical to the cold run.
    #[test]
    fn snapshot_seed_replays_instead_of_exploring() {
        let problems: Vec<_> = bench_suite()
            .into_iter()
            .filter(|(label, _, _)| label.starts_with("fig1-multi/"))
            .collect();
        let plan = BenchPlan {
            warmup: 0,
            samples: 1,
            ..BenchPlan::default()
        };
        let cold = run_problems(&plan, problems.clone());

        // Produce the snapshot the way `cuba snapshot` does: explore
        // the system once, encode its layer store.
        let cpds = fig1::build();
        let artifacts = cuba_core::SystemArtifacts::new();
        let explorer = artifacts.explicit_explorer(&cpds, &ExploreBudget::default());
        for k in 0..=6 {
            explorer
                .ensure_layer(k, &cuba_explore::Interrupt::none())
                .expect("fig1 explores in budget");
        }
        let fingerprint = cuba_core::fingerprint(&cpds);
        let seed = SnapshotSeed {
            kind: SnapshotKind::Explicit,
            fingerprint,
            bytes: std::sync::Arc::new(explorer.snapshot(fingerprint)),
        };

        let warm = run_problems(
            &BenchPlan {
                seed: Some(seed),
                ..plan
            },
            problems,
        );
        for (a, b) in cold.rows.iter().zip(&warm.rows) {
            assert_eq!(a.verdict, b.verdict, "{}", a.label);
            assert_eq!(a.k, b.k, "{}", a.label);
        }
        // The seeded system probes warm and replays recorded bounds.
        assert!(warm.rows[0].cache_hit, "seeded system probes as warm");
        assert!(
            warm.rows[0].rounds_explored < cold.rows[0].rounds_explored,
            "replay beats exploration: {} vs {}",
            warm.rows[0].rounds_explored,
            cold.rows[0].rounds_explored
        );
        assert!(warm.rows[0].rounds_replayed > 0);
    }

    /// The three fig1-multi rows share one system. However many
    /// workers an iteration has, they run in suite order in one of
    /// them, so every iteration records the single-worker split of
    /// explored and replayed rounds.
    #[test]
    fn rows_of_one_system_record_the_same_split_every_time() {
        let problems: Vec<_> = bench_suite()
            .into_iter()
            .filter(|(label, _, _)| label.starts_with("fig1-multi/"))
            .collect();
        let portfolio = Portfolio::auto().with_config(bench_config(SchedulePolicy::RoundRobin));
        for iteration in 0..50 {
            let (results, _) = run_iteration(&portfolio, &problems, 3);
            let splits: Vec<(usize, usize)> = results
                .iter()
                .map(|result| {
                    let outcome = result.as_ref().expect("fig1 decides");
                    (outcome.rounds_explored, outcome.rounds_replayed)
                })
                .collect();
            assert_eq!(splits, [(13, 0), (6, 5), (7, 6)], "iteration {iteration}");
        }
    }

    /// A tiny real run over the fig1-multi block (the full suite is
    /// seconds per iteration in a debug build; the CI bench job
    /// covers it in release): 2 samples, no warmup — every workload
    /// gets exactly one sample per iteration with stable outcomes.
    #[test]
    fn two_sample_run_captures_per_sample_timings() {
        let plan = BenchPlan {
            warmup: 0,
            samples: 2,
            ..BenchPlan::default()
        };
        let problems: Vec<_> = bench_suite()
            .into_iter()
            .filter(|(label, _, _)| label.starts_with("fig1-multi/"))
            .collect();
        let run = run_problems(&plan, problems.clone());
        assert_eq!(run.rows.len(), problems.len());
        for row in &run.rows {
            assert!(
                !row.unstable,
                "{}: verdict flapped across samples",
                row.label
            );
            assert_eq!(
                row.samples_us.len(),
                2,
                "{}: expected one sample per iteration",
                row.label
            );
            assert!(row.median_us().unwrap() > 0.0);
        }
        // Shared-layer replay shows in the record: the later
        // properties of the shared system hit the per-iteration cache.
        assert!(!run.rows[0].cache_hit);
        assert!(run.rows[1].cache_hit && run.rows[2].cache_hit);
        assert_eq!(run.rows[1].verdict, "unsafe");
        assert_eq!(run.rows[2].verdict, "safe");
        // The emitted record parses back with the full sample vectors.
        let records = crate::compare::parse_records(&run_to_json(&run));
        assert_eq!(records.len(), run.rows.len());
        assert_eq!(records[0].samples_us.len(), 2);
    }
}
