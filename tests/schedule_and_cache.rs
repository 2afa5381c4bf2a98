//! Integration tests of round-robin sessions and the suite cache over
//! the full Table 2 suite:
//!
//! * per-round cost accounting: `RoundCompleted` events carry nonzero
//!   wall-clock and consistent state deltas;
//! * a `SuiteCache` reaches the same verdicts as the uncached path
//!   with strictly fewer total live rounds;
//! * the cached path performs fewer FCR checks than the uncached one
//!   (counter-instrumented).
//!
//! The FCR-counter comparisons share a process-global counter, so the
//! counting tests serialize on a local mutex (other test *binaries*
//! run in other processes and cannot interfere).

use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use cuba::benchmarks::fig1;
use cuba::benchmarks::suite::{table2_problems, table2_suite};
use cuba::core::{
    fcr_checks_performed, AnalysisSession, Portfolio, Property, SessionConfig, SessionEvent,
    SuiteCache, Verdict,
};
use cuba::explore::ExploreBudget;

/// Serializes every test of this binary: they all run `check_fcr`
/// somewhere, and two of them assert exact deltas of the
/// process-global FCR counter.
fn counter_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn suite_config() -> SessionConfig {
    SessionConfig {
        budget: ExploreBudget {
            // Keeps the OOM row (stefan-1/8) bounded while every safe
            // row still converges (the bench harness uses a larger 20k
            // cap; the smaller one keeps this debug-mode test fast).
            max_symbolic_states: 10_000,
            ..ExploreBudget::default()
        },
        max_k: 32,
        ..SessionConfig::new()
    }
}

/// A verdict's word and bound.
fn verdict_key(result: &Result<cuba::core::CubaOutcome, cuba::core::CubaError>) -> String {
    match result {
        Ok(o) => match &o.verdict {
            Verdict::Safe { k, .. } => format!("safe@{k}"),
            Verdict::Unsafe { k, .. } => format!("unsafe@{k}"),
            Verdict::Undetermined { .. } => "undetermined".to_owned(),
        },
        Err(e) => format!("error: {e}"),
    }
}

/// Runs the whole suite problem by problem, counting every *live*
/// (non-replayed) `RoundCompleted` across all arms — the rounds that
/// actually paid for exploration; replays are free — optionally
/// through a `SuiteCache`.
fn run_suite_counting(cache: Option<&SuiteCache>) -> (Vec<String>, usize) {
    let portfolio = Portfolio::auto().with_config(suite_config());
    let mut verdicts = Vec::new();
    let mut live_rounds = 0usize;
    // Two passes over the suite: the second pass is where a shared
    // cache replays every layer instead of re-exploring, while the
    // uncached path pays full price twice.
    for (cpds, property) in table2_problems().into_iter().chain(table2_problems()) {
        let session = match cache {
            Some(cache) => {
                let artifacts = cache.artifacts(&cpds);
                portfolio.session_with(cpds, property, &artifacts)
            }
            // The fully uncached assembly (what `run_suite` did before
            // suite caching): the lineup decision and the session each
            // decide FCR for themselves.
            None => {
                let lineup = portfolio.lineup_for(&cpds);
                AnalysisSession::new(cpds, property, &lineup, portfolio.config())
            }
        };
        let result = match session {
            Ok(mut session) => {
                while let Some(event) = session.next_event() {
                    if matches!(
                        event,
                        SessionEvent::RoundCompleted {
                            replayed: false,
                            ..
                        }
                    ) {
                        live_rounds += 1;
                    }
                }
                session.into_outcome()
            }
            Err(e) => Err(e),
        };
        verdicts.push(verdict_key(&result));
    }
    (verdicts, live_rounds)
}

/// Acceptance: over two passes of `table2_problems()`, a suite cache
/// reaches exactly the verdicts of the uncached path while *exploring*
/// strictly fewer live rounds in total — the cached pass replays every
/// already-computed layer instead of re-exploring ("one system, many
/// properties") — and the cache cuts the number of FCR decisions.
#[test]
fn suite_cache_matches_uncached_with_fewer_rounds() {
    let _guard = counter_lock().lock().unwrap();

    let fcr_before_plain = fcr_checks_performed();
    let (plain_verdicts, plain_rounds) = run_suite_counting(None);
    let plain_fcr_checks = fcr_checks_performed() - fcr_before_plain;

    let cache = SuiteCache::new();
    let fcr_before_cached = fcr_checks_performed();
    let (cached_verdicts, cached_rounds) = run_suite_counting(Some(&cache));
    let cached_fcr_checks = fcr_checks_performed() - fcr_before_cached;

    let labels: Vec<String> = table2_suite().iter().map(|b| b.label()).collect();
    let all_labels: Vec<&String> = labels.iter().chain(labels.iter()).collect();
    for ((label, plain), cached) in all_labels.iter().zip(&plain_verdicts).zip(&cached_verdicts) {
        assert_eq!(plain, cached, "{label}: verdict changed through the cache");
    }
    assert!(
        cached_rounds < plain_rounds,
        "the cached suite must explore strictly fewer live rounds: \
         {cached_rounds} vs {plain_rounds}"
    );
    assert!(
        cached_fcr_checks < plain_fcr_checks,
        "the suite cache must cut FCR checks: \
         cached {cached_fcr_checks} vs uncached {plain_fcr_checks}"
    );
    // One FCR decision per distinct system, computed inside the cache.
    assert_eq!(cache.len(), table2_suite().len());
}

/// A warm external cache is shared across `run_suite_cached` calls:
/// the second batch over the same systems decides no new FCR and
/// reaches the same verdicts. (Equivalence with the manual
/// session-by-session path is covered by the acceptance test above —
/// `run_suite_cached` drives the very same `session_with` entry
/// point.)
#[test]
fn run_suite_cached_reuses_a_warm_cache() {
    let _guard = counter_lock().lock().unwrap();

    // The fast explicit rows suffice to exercise cache reuse; the full
    // suite is covered by the acceptance test above.
    let problems = || -> Vec<_> {
        table2_suite()
            .into_iter()
            .filter(|b| b.expect.fcr)
            .map(|b| (b.cpds, b.property))
            .collect()
    };
    let portfolio = Portfolio::auto().with_config(suite_config());
    let cache = SuiteCache::new();
    let first = portfolio.run_suite_cached(problems(), 4, &cache);
    let first_verdicts: Vec<String> = first.iter().map(verdict_key).collect();
    assert_eq!(cache.len(), problems().len());

    // A second batch over the same systems decides no new FCR: every
    // artifact lookup hits the warm cache.
    let fcr_before = fcr_checks_performed();
    let second = portfolio.run_suite_cached(problems(), 4, &cache);
    assert_eq!(fcr_checks_performed() - fcr_before, 0);
    let second_verdicts: Vec<String> = second.iter().map(verdict_key).collect();
    assert_eq!(first_verdicts, second_verdicts);
    assert!(cache.hits() >= problems().len());
}

/// Cost accounting: every `RoundCompleted` carries a nonzero
/// `elapsed`, replayed rounds carry zero `delta_states`, the *live*
/// deltas of the arms sharing one backend sum to that backend's final
/// state count (each layer is paid for exactly once, whichever arm got
/// there first), and the cumulative wall-clock of the stream is
/// monotone.
#[test]
fn round_events_carry_costs() {
    let _guard = counter_lock().lock().unwrap();
    let mut session = Portfolio::auto()
        .session(fig1::build(), Property::True)
        .unwrap();
    let mut cumulative = Duration::ZERO;
    // The fused arm drives the `(Rk)` explorer; CBA explores on its
    // own. Key by backend: per-bound delta (each layer is paid for
    // once) and the largest observed cumulative state count.
    let mut deltas: std::collections::HashMap<(&str, usize), usize> = Default::default();
    let mut totals: std::collections::HashMap<&str, usize> = Default::default();
    let mut rounds = 0;
    for event in &mut session {
        if let SessionEvent::RoundCompleted {
            engine,
            k,
            states,
            delta_states,
            elapsed,
            replayed,
            ..
        } = &event
        {
            rounds += 1;
            assert!(*elapsed > Duration::ZERO, "round without wall-clock cost");
            if *replayed {
                assert_eq!(*delta_states, 0, "replays compute nothing");
            }
            let previous = cumulative;
            cumulative += *elapsed;
            assert!(cumulative > previous, "cumulative cost must be monotone");
            let backend = match engine.to_string().as_str() {
                "CBA" => "cba",
                _ => "explicit",
            };
            let slot = deltas.entry((backend, *k)).or_insert(0);
            *slot = (*delta_states).max(*slot);
            let total = totals.entry(backend).or_insert(0);
            *total = (*states).max(*total);
        }
    }
    assert!(rounds >= 7, "the fused arm computes bounds 0..=6");
    for (backend, total) in totals {
        let delta_sum: usize = deltas
            .iter()
            .filter(|((b, _), _)| *b == backend)
            .map(|(_, d)| d)
            .sum();
        assert_eq!(
            delta_sum, total,
            "{backend}: per-bound deltas must sum to the backend's state count"
        );
    }
    let outcome = session.into_outcome().unwrap();
    assert!(
        outcome.round_wall >= cumulative,
        "outcome round_wall covers the stream"
    );
    assert!(outcome.rounds_explored > 0, "a cold run explores live");
    assert!(outcome.verdict.is_safe());
}
