//! Determinism of the sharded parallel saturator across thread counts.
//!
//! The `--threads` knob parallelizes the `post*` waves *inside* a
//! context step; it must never change what the analysis computes. These
//! tests pin that contract end to end: the full bench suite (every
//! Table 2 row plus the fig1-multi block) produces identical structural
//! records at 1, 2 and 4 saturation threads, the symbolic engine's
//! layer growth and first-seen bounds are bitwise equal, and a
//! [`CancelToken`] fired mid-saturation still aborts promptly when the
//! waves are sharded across a worker pool.
//!
//! Sessions step their arms round-robin, which reads no clock, so any
//! divergence here is saturation-level. The CI `determinism` job runs
//! the same comparison on the release binary via `cuba bench --threads
//! N`.

use std::collections::BTreeMap;

use cuba::benchmarks::fig1;
use cuba::benchmarks::suite::table2_suite;
use cuba::explore::{
    CancelToken, ExploreBudget, ExploreError, Interrupt, SubsumptionMode, SymbolicEngine,
};
use cuba::pds::Cpds;
use cuba_bench::harness::{bench_suite, run_problems, BenchPlan, BenchRow};

fn plan(threads: usize) -> BenchPlan {
    BenchPlan {
        warmup: 0,
        samples: 1,
        workers: 4,
        reduce: false,
        threads,
        seed: None,
    }
}

/// Everything in a bench row except the timing fields — the exact
/// complement of what the CI determinism job strips before diffing.
#[allow(clippy::type_complexity)]
fn structural(
    row: &BenchRow,
) -> (
    String,
    String,
    Option<String>,
    bool,
    Option<usize>,
    Option<bool>,
    Option<String>,
    usize,
    usize,
    usize,
    bool,
) {
    (
        row.label.clone(),
        row.verdict.clone(),
        row.reason.clone(),
        row.cache_hit,
        row.k,
        row.fcr,
        row.engine.clone(),
        row.rounds,
        row.rounds_explored,
        row.rounds_replayed,
        row.unstable,
    )
}

/// The full Table 2 suite (plus fig1-multi) at 1, 2 and 4 saturation
/// threads: verdict words, bounds, engines, and the explored/replayed
/// round split must be identical at every thread count.
#[test]
fn full_suite_records_agree_at_every_thread_count() {
    let baseline: Vec<_> = run_problems(&plan(1), bench_suite())
        .rows
        .iter()
        .map(structural)
        .collect();
    assert_eq!(baseline.len(), bench_suite().len());
    for threads in [2, 4] {
        let rows: Vec<_> = run_problems(&plan(threads), bench_suite())
            .rows
            .iter()
            .map(structural)
            .collect();
        assert_eq!(baseline.len(), rows.len());
        for (a, b) in baseline.iter().zip(&rows) {
            assert_eq!(a, b, "{}: threads=1 vs threads={threads} diverged", a.0);
        }
    }
}

/// One engine run's complete structural trace: per-round layer
/// summaries, final state/visible counts, cumulative state counts per
/// bound, and the first-seen bound of every visible state.
#[allow(clippy::type_complexity)]
fn symbolic_fingerprint(
    cpds: &Cpds,
    threads: usize,
) -> (
    Vec<(usize, usize, usize)>,
    usize,
    usize,
    Vec<usize>,
    BTreeMap<String, usize>,
) {
    let budget = ExploreBudget {
        max_symbolic_states: 20_000,
        ..ExploreBudget::default()
    }
    .with_threads(threads);
    let mut engine = SymbolicEngine::new(cpds.clone(), budget, SubsumptionMode::Exact);
    let mut layers = Vec::new();
    while !engine.is_collapsed() && engine.current_k() < 12 {
        match engine.advance() {
            Ok(s) => layers.push((s.k, s.new_symbolic, s.new_visible)),
            // Budget exhaustion is part of the trace: every thread
            // count must give up at the same point.
            Err(_) => {
                layers.push((usize::MAX, 0, 0));
                break;
            }
        }
    }
    let store = engine.store();
    let counts: Vec<usize> = (0..=store.current_k())
        .map(|k| store.state_count_at(k))
        .collect();
    let first_seen: BTreeMap<String, usize> = store
        .visible_iter()
        .map(|v| {
            let bound = store
                .first_seen_bound(v)
                .expect("visible state has a bound");
            (format!("{v:?}"), bound)
        })
        .collect();
    (
        layers,
        engine.num_symbolic_states(),
        engine.num_visible(),
        counts,
        first_seen,
    )
}

/// Layer-by-layer growth and the first-seen map of every visible state
/// are identical whether the saturation waves run sequentially or
/// sharded over 2 or 4 workers.
#[test]
fn first_seen_maps_are_thread_count_invariant() {
    let mut systems: Vec<(String, Cpds)> = vec![("fig1".to_owned(), fig1::build())];
    for id in ["dekker", "bluetooth-1", "bst-insert"] {
        let bench = table2_suite()
            .into_iter()
            .find(|b| b.id == id)
            .unwrap_or_else(|| panic!("suite row {id} missing"));
        systems.push((bench.label(), bench.cpds));
    }
    for (label, cpds) in &systems {
        let baseline = symbolic_fingerprint(cpds, 1);
        assert!(
            !baseline.4.is_empty(),
            "{label}: expected some visible states"
        );
        for threads in [2, 4] {
            let parallel = symbolic_fingerprint(cpds, threads);
            assert_eq!(
                baseline, parallel,
                "{label}: fingerprint diverged at threads={threads}"
            );
        }
    }
}

/// A token cancelled between rounds stops the very next `advance` at
/// every thread count — the sharded path checks the interrupt at the
/// top of every wave, not just at round boundaries.
#[test]
fn cancel_between_rounds_stops_next_advance_at_every_thread_count() {
    let bench = table2_suite()
        .into_iter()
        .find(|b| b.id == "stefan-1" && b.config == "8")
        .expect("stefan-1/8 row");
    for threads in [1, 2, 4] {
        let token = CancelToken::new();
        let budget = ExploreBudget {
            max_symbolic_states: 100_000,
            ..ExploreBudget::default()
        }
        .with_threads(threads)
        .with_interrupt(Interrupt::none().with_cancel(token.clone()));
        let mut engine = SymbolicEngine::new(bench.cpds.clone(), budget, SubsumptionMode::Exact);
        engine.advance().expect("first round runs uncancelled");
        token.cancel();
        assert_eq!(
            engine.advance().unwrap_err(),
            ExploreError::Cancelled,
            "threads={threads}"
        );
    }
}

/// A token fired from another thread *mid-round* interrupts a sharded
/// saturation: every worker polls the interrupt per
/// proposal batch and the merge polls per insertion batch, so the
/// abort lands within one poll interval instead of after the round.
/// stefan-1/8 is the paper's out-of-memory row — without the cancel it
/// would grind toward the (here unreachably large) state budget.
#[test]
fn concurrent_cancel_interrupts_a_sharded_round_promptly() {
    let bench = table2_suite()
        .into_iter()
        .find(|b| b.id == "stefan-1" && b.config == "8")
        .expect("stefan-1/8 row");
    let token = CancelToken::new();
    let budget = ExploreBudget {
        max_symbolic_states: 1_000_000,
        ..ExploreBudget::default()
    }
    .with_threads(4)
    .with_interrupt(Interrupt::none().with_cancel(token.clone()));
    let mut engine = SymbolicEngine::new(bench.cpds, budget, SubsumptionMode::Exact);
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            token.cancel();
        })
    };
    let err = loop {
        match engine.advance() {
            Ok(_) => {
                assert!(
                    !engine.is_collapsed(),
                    "stefan-1/8 must not collapse (paper: OOM row)"
                );
            }
            Err(e) => break e,
        }
    };
    canceller.join().unwrap();
    assert_eq!(err, ExploreError::Cancelled);
}
