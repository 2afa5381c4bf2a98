//! Concurrency coverage for `SuiteCache`/`run_suite_cached` — the
//! invariants the serve broker's long-lived cache rests on:
//!
//! * N threads hammering `lookup` on the same and distinct CPDS
//!   fingerprints get one slot per distinct system (`Arc`-identical
//!   across threads, misses counted exactly once);
//! * a concurrent `run_suite_cached` batch over two systems and many
//!   duplicated properties performs **exactly one FCR check per
//!   system** and leaves each system's shared explorer with the same
//!   `rounds_explored` as an unshared sequential baseline — layers
//!   are explored exactly once, whichever worker pays.
//!
//! The FCR comparison reads a process-global counter, so the tests
//! that touch it serialize on a local lock (same pattern as
//! `schedule_and_cache.rs`).

use std::sync::{Arc, Mutex, OnceLock};

use cuba::benchmarks::{fig1, fig2};
use cuba::core::{
    fcr_checks_performed, Portfolio, Property, SessionConfig, SuiteCache, SystemArtifacts, Verdict,
};
use cuba::explore::SubsumptionMode;
use cuba::pds::{Cpds, SharedState, StackSym, VisibleState};

fn counter_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn vis(q: u32, tops: &[u32]) -> VisibleState {
    VisibleState::new(
        SharedState(q),
        tops.iter().map(|&t| Some(StackSym(t))).collect(),
    )
}

/// Sessions step arms in lockstep, so per-arm progress is a pure
/// function of the problem and explorer counters are comparable
/// across runs.
fn portfolio() -> Portfolio {
    Portfolio::auto().with_config(SessionConfig {
        max_k: 32,
        ..SessionConfig::new()
    })
}

/// The fig1 property mix: a shallow bug, a deep bug, full
/// convergence — so concurrent sessions demand different depths.
fn fig1_properties() -> Vec<Property> {
    vec![
        Property::never_visible(vis(3, &[2, 4])), // unsafe@2
        Property::never_visible(vis(1, &[2, 6])), // unsafe@5
        Property::True,                           // safe@5
    ]
}

/// Eight threads, many lookups, two distinct systems: one slot each,
/// counted exactly once, shared by pointer across every thread.
#[test]
fn concurrent_lookups_share_slots_exactly() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    let cache = SuiteCache::new();
    let witnesses: Vec<(Arc<SystemArtifacts>, Arc<SystemArtifacts>)> =
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut last = None;
                        for _ in 0..ROUNDS {
                            let a1 = cache.artifacts(&fig1::build());
                            let a2 = cache.artifacts(&fig2::build());
                            last = Some((a1, a2));
                        }
                        last.expect("ran at least one round")
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("lookup thread"))
                .collect()
        });

    assert_eq!(cache.len(), 2, "two distinct systems, two slots");
    assert_eq!(cache.misses(), 2, "each slot created exactly once");
    assert_eq!(cache.hits(), THREADS * ROUNDS * 2 - 2);
    let (first1, first2) = &witnesses[0];
    for (a1, a2) in &witnesses {
        assert!(Arc::ptr_eq(a1, first1), "same fig1 slot on every thread");
        assert!(Arc::ptr_eq(a2, first2), "same fig2 slot on every thread");
        assert!(!Arc::ptr_eq(a1, a2), "distinct systems stay distinct");
    }
}

/// A concurrent batch over two systems × duplicated properties:
/// verdicts are correct, FCR runs once per system, and each system's
/// shared explorer ends with the sequential baseline's
/// `rounds_explored` — not `workers ×` it.
#[test]
fn concurrent_suite_explores_and_checks_each_system_once() {
    let _guard = counter_lock().lock().unwrap();
    let portfolio = portfolio();

    // Unshared sequential baseline: one system, all its properties,
    // fresh artifacts — records the exactly-once expectations.
    let baseline = |cpds: Cpds, properties: &[Property]| {
        let artifacts = Arc::new(SystemArtifacts::new());
        for property in properties {
            portfolio
                .session_with(cpds.clone(), property.clone(), &artifacts)
                .expect("session opens")
                .run()
                .expect("baseline run succeeds");
        }
        artifacts
    };
    let fig1_baseline = baseline(fig1::build(), &fig1_properties());
    let fig1_explored = fig1_baseline
        .explicit_explorer_if_started()
        .expect("fig1 is explicit")
        .rounds_explored();
    let fig2_baseline = baseline(fig2::build(), &[Property::True]);
    let fig2_explored = fig2_baseline
        .symbolic_explorer_if_started(SubsumptionMode::Exact)
        .expect("fig2 is symbolic")
        .rounds_explored();
    assert!(fig1_explored > 0 && fig2_explored > 0);

    // The hammering batch: every fig1 property three times, fig2
    // three times — 12 problems, 8 workers, one shared cache.
    let mut problems: Vec<(Cpds, Property)> = Vec::new();
    for _ in 0..3 {
        for property in fig1_properties() {
            problems.push((fig1::build(), property));
        }
        problems.push((fig2::build(), Property::True));
    }
    let expected: Vec<&str> = problems
        .iter()
        .map(|(cpds, property)| {
            match (cpds.num_shared() == 4, property) {
                (true, Property::True) => "safe",
                (true, _) => "unsafe",
                (false, _) => "safe", // fig2 converges safely
            }
        })
        .collect();

    let cache = SuiteCache::new();
    let fcr_before = fcr_checks_performed();
    let results = portfolio.run_suite_cached(problems, 8, &cache);
    let fcr_delta = fcr_checks_performed() - fcr_before;

    assert_eq!(
        fcr_delta, 2,
        "exactly one FCR check per distinct system, however many workers"
    );
    for (result, want) in results.iter().zip(&expected) {
        let verdict = &result.as_ref().expect("suite run succeeds").verdict;
        let got = match verdict {
            Verdict::Safe { .. } => "safe",
            Verdict::Unsafe { .. } => "unsafe",
            Verdict::Undetermined { .. } => "undetermined",
        };
        assert_eq!(&got, want, "verdict drift under concurrency: {verdict}");
    }

    assert_eq!(cache.len(), 2);
    let entries = cache.entries();
    let entry_for = |shared: u32| {
        entries
            .iter()
            .find(|e| e.system.num_shared() == shared)
            .expect("system cached")
    };
    let fig1_shared = entry_for(4)
        .artifacts
        .explicit_explorer_if_started()
        .expect("fig1 explored explicitly");
    assert_eq!(
        fig1_shared.rounds_explored(),
        fig1_explored,
        "nine fig1 sessions must explore each layer exactly once"
    );
    let fig2_shared = entry_for(3)
        .artifacts
        .symbolic_explorer_if_started(SubsumptionMode::Exact)
        .expect("fig2 explored symbolically");
    assert_eq!(
        fig2_shared.rounds_explored(),
        fig2_explored,
        "three fig2 sessions must explore each layer exactly once"
    );
}
