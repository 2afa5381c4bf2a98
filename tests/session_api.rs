//! Integration tests of the public API: stepping an `Engine` must
//! reproduce the paper's runs, sessions must
//! stream one round event per computed bound, cancellation and
//! deadlines must stop work cooperatively, and the portfolio must
//! decide both running examples as the paper does.

use std::sync::Arc;
use std::time::Duration;

use cuba::benchmarks::suite::table2_suite;
use cuba::benchmarks::{fig1, fig2, stefan};
use cuba::core::{
    build_engine, AnalysisSession, ConvergenceMethod, EngineKind, EngineParams, EngineUsed,
    Portfolio, Property, RoundCtx, RoundOutcome, SessionConfig, SessionEvent, SystemArtifacts,
    Verdict,
};
use cuba::explore::{
    CancelToken, ExploreBudget, ExploreError, Interrupt, SubsumptionMode, SymbolicEngine,
};
use cuba::pds::{Cpds, CpdsBuilder, PdsBuilder, SharedState, StackSym, VisibleState};

fn vis(q: u32, tops: &[Option<u32>]) -> VisibleState {
    VisibleState::new(
        SharedState(q),
        tops.iter().map(|t| t.map(StackSym)).collect(),
    )
}

/// Drives any engine kind to conclusion through the stepping surface,
/// returning (verdict, rounds, states, growth sizes).
fn drive(
    kind: EngineKind,
    cpds: &cuba::pds::Cpds,
    property: &Property,
) -> (Verdict, usize, usize, Vec<usize>) {
    let mut engine = build_engine(kind, cpds, property, &EngineParams::default());
    let mut ctx = RoundCtx::new();
    let verdict = loop {
        if let RoundOutcome::Concluded { verdict, .. } = engine.step(&mut ctx).unwrap() {
            break verdict;
        }
    };
    (
        verdict,
        engine.rounds(),
        engine.states(),
        engine.growth().sizes().to_vec(),
    )
}

/// Stepping Alg. 3 reproduces the Fig. 1 run: safe at k = 5 by the
/// generator test after 6 rounds over 17 global states, with
/// `|T(Rk)|` = 1,3,6,6,7,8,8.
#[test]
fn alg3_stepping_reproduces_the_fig1_run() {
    let (verdict, rounds, states, growth) =
        drive(EngineKind::Alg3Explicit, &fig1::build(), &Property::True);
    assert_eq!(
        verdict,
        Verdict::Safe {
            k: 5,
            method: ConvergenceMethod::GeneratorTest
        }
    );
    assert_eq!(rounds, 6);
    assert_eq!(states, 17);
    assert_eq!(growth, [1, 3, 6, 6, 7, 8, 8]);
}

/// Without a generator test nothing stops early on Fig. 1: `(Rk)`
/// never collapses, so Scheme 1 over `(Rk)` and the refuter both run
/// to the round limit. Both log `|Rk|` (resp. `|Sk|`, the same
/// numbers), not the plateau of `T(Rk)` at 8.
#[test]
fn scheme1_and_refuter_stepping_run_fig1_to_the_round_limit() {
    for (kind, reason) in [
        (
            EngineKind::Scheme1Explicit,
            "no collapse of (Rk) within 64 rounds",
        ),
        (
            EngineKind::CbaRefuter,
            "no violation within 64 contexts (context-bounded analysis cannot prove safety)",
        ),
    ] {
        let (verdict, rounds, states, growth) = drive(kind, &fig1::build(), &Property::True);
        assert_eq!(
            verdict,
            Verdict::Undetermined {
                reason: reason.to_owned()
            },
            "{kind}"
        );
        assert_eq!((rounds, states), (64, 191), "{kind}");
        assert_eq!(growth.len(), 65, "{kind}");
        assert_eq!(growth[..8], [1, 3, 6, 8, 11, 14, 17, 20], "{kind}");
        assert_eq!(growth.last(), Some(&191), "{kind}");
    }
}

/// The same for the symbolic engines on Fig. 2 (where the explicit
/// ones are inapplicable): Alg. 3 over `(T(Sk))` concludes by the
/// generator test, Scheme 1 over `(Sk)` by the collapse two bounds
/// later.
#[test]
fn symbolic_stepping_reproduces_the_fig2_run() {
    let cpds = fig2::build();
    let (verdict, rounds, states, growth) = drive(EngineKind::Alg3Symbolic, &cpds, &Property::True);
    assert_eq!(
        verdict,
        Verdict::Safe {
            k: 2,
            method: ConvergenceMethod::GeneratorTest
        }
    );
    assert_eq!(rounds, 3);
    assert_eq!(states, 21);
    assert_eq!(growth, [1, 15, 37, 37]);

    let (verdict, rounds, states, growth) =
        drive(EngineKind::Scheme1Symbolic, &cpds, &Property::True);
    assert_eq!(
        verdict,
        Verdict::Safe {
            k: 4,
            method: ConvergenceMethod::SkCollapse
        }
    );
    assert_eq!(rounds, 5);
    assert_eq!(states, 23);
    assert_eq!(growth, [1, 5, 13, 21, 23, 23]);
}

/// An unsafe problem concludes with the same bound through the
/// stepped engine and through a portfolio session, witness included.
#[test]
fn unsafe_equivalence_on_fig1() {
    let cpds = fig1::build();
    let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
    let (verdict, ..) = drive(EngineKind::Alg3Explicit, &cpds, &property);
    let outcome = Portfolio::auto().run(cpds.clone(), property).unwrap();
    for verdict in [verdict, outcome.verdict] {
        match verdict {
            Verdict::Unsafe {
                k: 5,
                witness: Some(w),
            } => assert!(w.replay(&cpds)),
            other => panic!("expected Unsafe at 5 with a witness, got {other:?}"),
        }
    }
}

/// The session streams at least one RoundCompleted per computed bound
/// `k` (the acceptance criterion), for every arm in the lineup.
#[test]
fn session_streams_one_event_per_bound_per_arm() {
    let portfolio = Portfolio::auto();
    let mut session = portfolio.session(fig1::build(), Property::True).unwrap();
    let mut per_engine: std::collections::HashMap<String, Vec<usize>> = Default::default();
    for event in &mut session {
        if let SessionEvent::RoundCompleted { engine, k, .. } = &event {
            per_engine.entry(engine.to_string()).or_default().push(*k);
        }
    }
    let outcome = session.outcome().unwrap().as_ref().unwrap().clone();
    assert!(matches!(outcome.verdict, Verdict::Safe { k: 5, .. }));
    // The winning Alg. 3 arm computed bounds 0..=6; every arm's
    // per-bound sequence is gapless from 0.
    assert_eq!(per_engine["Alg3(T(Rk))"], vec![0, 1, 2, 3, 4, 5, 6]);
    for (engine, rounds) in &per_engine {
        let expected: Vec<usize> = (0..rounds.len()).collect();
        assert_eq!(rounds, &expected, "gapless rounds for {engine}");
    }
    assert!(per_engine.len() >= 2, "the race has multiple arms");
}

/// Cancelling the session token from "outside" (between events) stops
/// the race promptly with an Undetermined verdict.
#[test]
fn cancellation_stops_the_session() {
    let mut session = AnalysisSession::new(
        fig1::build(),
        Property::True,
        &[EngineKind::Alg3Explicit, EngineKind::Scheme1Explicit],
        &SessionConfig::new(),
    )
    .unwrap();
    let token = session.cancel_token();
    let mut rounds_after_cancel = 0;
    let mut cancelled = false;
    while let Some(event) = session.next_event() {
        if let SessionEvent::RoundCompleted { k, .. } = &event {
            if cancelled {
                rounds_after_cancel += 1;
            }
            if *k == 2 && !cancelled {
                token.cancel();
                cancelled = true;
            }
        }
    }
    // In-flight arms may each finish the round they were on, but no
    // new rounds start after the cancel is observed.
    assert!(
        rounds_after_cancel <= 2,
        "{rounds_after_cancel} rounds ran on"
    );
    let outcome = session.outcome().unwrap().as_ref().unwrap().clone();
    assert!(matches!(outcome.verdict, Verdict::Undetermined { .. }));
}

/// A deadline interrupts a *single round* that would otherwise run far
/// past it: Fig. 2's first explicit context closure diverges, so
/// between-round checks alone would never fire.
#[test]
fn deadline_is_honored_mid_round() {
    let budget = ExploreBudget {
        max_states: usize::MAX / 2,
        max_states_per_context: usize::MAX / 2,
        max_stack_depth: usize::MAX / 2,
        ..ExploreBudget::default()
    }
    .with_interrupt(Interrupt::none().with_timeout(Duration::from_millis(50)));
    let start = std::time::Instant::now();
    let mut engine = cuba::explore::ExplicitEngine::new(fig2::build(), budget);
    let err = engine.advance().unwrap_err();
    assert_eq!(err, ExploreError::DeadlineExceeded);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "mid-round deadline ignored for {:?}",
        start.elapsed()
    );
}

/// `n` identical threads over one shared state, each running
/// `1 → 2 → 3 → ε` in a single context. Every round is made of tiny
/// closures, and `Z` has `4^n` visible states.
fn wide(n: usize) -> Cpds {
    chains(n, 3)
}

/// `n` identical threads over one shared state, each running
/// `1 → 2 → … → m → ε` in a single context.
fn chains(n: usize, m: u32) -> Cpds {
    let (q, s) = (SharedState(0), StackSym);
    let mut pds = PdsBuilder::new(1, m + 1);
    for sym in 1..m {
        pds.overwrite(q, s(sym), q, s(sym + 1)).unwrap();
    }
    pds.pop(q, s(m), q).unwrap();
    CpdsBuilder::new(1, q)
        .threads(&pds.build().unwrap(), [s(1)], n)
        .build()
        .unwrap()
}

/// A session's deadline covers everything it does, including the
/// `G ∩ Z` search (`Z` has `4^16` visible states here) and rounds made
/// of many short context closures.
#[test]
fn deadline_covers_the_generator_search() {
    let start = std::time::Instant::now();
    let outcome = Portfolio::auto()
        .with_config(SessionConfig {
            timeout: Some(Duration::from_millis(200)),
            ..SessionConfig::new()
        })
        .run(wide(16), Property::True)
        .expect("an interrupted session still answers");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "deadline ignored for {:?}",
        start.elapsed()
    );
    match &outcome.verdict {
        Verdict::Undetermined { reason } => assert!(reason.contains("deadline"), "{reason}"),
        other => panic!("expected the deadline to decide, got {other:?}"),
    }
    assert!(outcome.duration >= Duration::from_millis(200));
}

/// One symbolic state's visible states can number millions: on
/// `wide(n)`, round `k` stores the one state whose `k` threads hold
/// `{1, 2, 3, ε}`, and enumerates the `4^k` visible keys of that
/// representative (262,144 at `k = 9`), which fall into few visible
/// orbits. The recording polls the interrupt, so a deadline armed
/// after round `k − 1` stops round `k` long before it would end. The
/// round rolls back, and a retry without the interrupt reproduces an
/// uninterrupted engine's counts and stored visible keys.
#[test]
fn a_deadline_interrupts_a_symbolic_visible_orbit_promptly() {
    let (n, k) = (10, 9);
    let engine_at = |bound: usize| {
        let mut engine =
            SymbolicEngine::new(wide(n), ExploreBudget::default(), SubsumptionMode::Exact);
        for _ in 0..bound {
            engine.advance().expect("an unarmed round completes");
        }
        engine
    };
    let mut reference = engine_at(k - 1);
    let start = std::time::Instant::now();
    reference.advance().unwrap();
    let full_round = start.elapsed();

    let mut engine = engine_at(k - 1);
    let visible_before = engine.num_visible();
    engine.set_interrupt(Interrupt::none().with_timeout(Duration::from_millis(5)));
    let start = std::time::Instant::now();
    assert_eq!(
        engine.advance().unwrap_err(),
        ExploreError::DeadlineExceeded
    );
    let interrupted = start.elapsed();
    assert!(
        interrupted < full_round / 2,
        "the deadline took {interrupted:?} to stop a round that takes {full_round:?}"
    );
    assert_eq!(engine.current_k(), k - 1);
    assert_eq!(engine.num_visible(), visible_before);

    engine.set_interrupt(Interrupt::none());
    engine.advance().expect("the retried round completes");
    let (store, expected) = (engine.store(), reference.store());
    for bound in 0..=k {
        assert_eq!(store.state_count_at(bound), expected.state_count_at(bound));
        assert!(
            store
                .visible_layer_keys(bound)
                .eq(expected.visible_layer_keys(bound)),
            "visible layer {bound} differs"
        );
    }
    assert_eq!(store.visible_count_at(k), expected.visible_count_at(k));
}

/// An explicit round can be long too, even though it records one
/// visible key per new representative: on `chains(8, 12)`, round 6
/// stores 12,376 new representatives (orbits of 83,607,552 states, so
/// the state budget is lifted). The engine polls the interrupt every
/// 64 expanded states, so a deadline armed after round `k − 1` stops
/// round `k` long before it would end. The round rolls back, and a
/// retry without the interrupt reproduces an uninterrupted engine's
/// counts and stored visible keys.
#[test]
fn a_deadline_interrupts_an_explicit_visible_orbit_promptly() {
    let k = 6;
    let budget = ExploreBudget {
        max_states: usize::MAX,
        ..ExploreBudget::default()
    };
    let engine_at = |bound: usize| {
        let mut engine = cuba::explore::ExplicitEngine::new(chains(8, 12), budget.clone());
        for _ in 0..bound {
            engine.advance().expect("an unarmed round completes");
        }
        engine
    };
    let mut reference = engine_at(k - 1);
    let start = std::time::Instant::now();
    reference.advance().unwrap();
    let full_round = start.elapsed();

    let mut engine = engine_at(k - 1);
    let (states_before, visible_before) = (engine.num_states(), engine.num_visible());
    engine.set_interrupt(Interrupt::none().with_timeout(Duration::from_millis(5)));
    let start = std::time::Instant::now();
    assert_eq!(
        engine.advance().unwrap_err(),
        ExploreError::DeadlineExceeded
    );
    let interrupted = start.elapsed();
    assert!(
        interrupted < full_round / 2,
        "the deadline took {interrupted:?} to stop a round that takes {full_round:?}"
    );
    assert_eq!(engine.current_k(), k - 1);
    assert_eq!(engine.num_states(), states_before);
    assert_eq!(engine.num_visible(), visible_before);

    engine.set_interrupt(Interrupt::none());
    engine.advance().expect("the retried round completes");
    let (store, expected) = (engine.store(), reference.store());
    for bound in 0..=k {
        assert_eq!(store.state_count_at(bound), expected.state_count_at(bound));
        assert!(
            store
                .visible_layer_keys(bound)
                .eq(expected.visible_layer_keys(bound)),
            "visible layer {bound} differs"
        );
    }
    assert_eq!(store.visible_count_at(k), expected.visible_count_at(k));
}

/// Alg. 3 searches `G ∩ Z` inside the round that first needs it, under
/// that round's interrupt: here each of 16 threads can pop once and
/// then nothing moves, so `T(Rk)` plateaus at `k = 2`, but a pop may
/// guess the emerging symbol 2, so `Z` spans `{1, ε, 2, 3}` per
/// thread. The deadline stops the search, the arm fails with it, and
/// the cut-off `Z` is not cached.
#[test]
fn an_interrupted_generator_search_fails_the_round_and_caches_nothing() {
    let s = StackSym;
    let mut pds = PdsBuilder::new(3, 8);
    pds.pop(SharedState(0), s(1), SharedState(1)).unwrap();
    pds.overwrite(SharedState(1), s(2), SharedState(0), s(3))
        .unwrap();
    // Unreachable (q = 2 never occurs); makes 2 an emerging symbol.
    pds.push(SharedState(2), s(7), SharedState(2), s(7), s(2))
        .unwrap();
    let cpds = CpdsBuilder::new(3, SharedState(0))
        .threads(&pds.build().unwrap(), [s(1)], 16)
        .build()
        .unwrap();
    let artifacts = Arc::new(SystemArtifacts::new());
    let params = EngineParams {
        artifacts: Some(artifacts.clone()),
        ..EngineParams::default()
    };
    let mut engine = build_engine(EngineKind::Alg3Explicit, &cpds, &Property::True, &params);
    let deadline = Interrupt::none().with_timeout(Duration::from_millis(300));
    let mut ctx = RoundCtx::with_interrupt(deadline);
    let start = std::time::Instant::now();
    let error = loop {
        match engine.step(&mut ctx) {
            Ok(RoundOutcome::Continue(info)) => assert!(info.k < 2, "k={}", info.k),
            Ok(other) => panic!("the plateau cannot conclude without G∩Z: {other:?}"),
            Err(error) => break error,
        }
    };
    assert!(start.elapsed() < Duration::from_secs(10));
    assert_eq!(engine.rounds(), 1, "rounds 0 and 1 completed");
    assert!(matches!(
        error,
        cuba::core::CubaError::Explore(ExploreError::DeadlineExceeded)
    ));
    // Nothing cached: a fresh search under a fired token fails at once.
    let fired = CancelToken::new();
    fired.cancel();
    assert_eq!(
        artifacts.g_cap_z_within(&cpds, &Interrupt::none().with_cancel(fired)),
        Err(ExploreError::Cancelled)
    );
}

/// A cancel token interrupts a diverging round the same way.
#[test]
fn cancel_token_is_honored_mid_round() {
    let token = CancelToken::new();
    let budget = ExploreBudget {
        max_states: usize::MAX / 2,
        max_states_per_context: usize::MAX / 2,
        max_stack_depth: usize::MAX / 2,
        ..ExploreBudget::default()
    }
    .with_interrupt(Interrupt::none().with_cancel(token.clone()));
    let mut engine = cuba::explore::ExplicitEngine::new(fig2::build(), budget);
    // Cancel from a watchdog thread while advance() is spinning.
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
    });
    let err = engine.advance().unwrap_err();
    handle.join().unwrap();
    assert_eq!(err, ExploreError::Cancelled);
}

/// The stefan-1/8 row: the paper's out-of-memory case, which does not
/// collapse within any budget these tests set.
fn stefan_1_8() -> cuba::pds::Cpds {
    table2_suite()
        .into_iter()
        .find(|b| b.id == "stefan-1" && b.config == "8")
        .expect("stefan-1/8 row")
        .cpds
}

/// A token cancelled between rounds stops the very next symbolic
/// `advance` on stefan-1/8.
#[test]
fn cancel_between_rounds_stops_the_next_symbolic_advance() {
    let token = CancelToken::new();
    let budget = ExploreBudget {
        max_symbolic_states: 100_000,
        ..ExploreBudget::default()
    }
    .with_interrupt(Interrupt::none().with_cancel(token.clone()));
    let mut engine = SymbolicEngine::new(stefan_1_8(), budget, SubsumptionMode::Exact);
    engine.advance().expect("first round runs uncancelled");
    token.cancel();
    assert_eq!(engine.advance().unwrap_err(), ExploreError::Cancelled);
}

/// A token fired from another thread *mid-round* interrupts the
/// symbolic engine: every `post*` saturation polls the interrupt every
/// few insertions, so the abort lands within one poll interval instead
/// of after the round. Without the cancel, stefan-1/10 would explore
/// 12 rounds and 253,834 symbolic states (about 0.2 s in release)
/// before it collapses, far below the state budget (stefan-1/8
/// collapses at k = 10 within about 20 ms in release, before the
/// cancel fires).
#[test]
fn concurrent_cancel_interrupts_a_symbolic_round_promptly() {
    let token = CancelToken::new();
    let budget = ExploreBudget {
        max_symbolic_states: 1_000_000,
        ..ExploreBudget::default()
    }
    .with_interrupt(Interrupt::none().with_cancel(token.clone()));
    let mut engine = SymbolicEngine::new(stefan::build(10), budget, SubsumptionMode::Exact);
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
    });
    let err = loop {
        match engine.advance() {
            Ok(_) => {
                assert!(
                    !engine.is_collapsed(),
                    "stefan-1/10 must still be exploring when the cancel fires"
                );
            }
            Err(e) => break e,
        }
    };
    canceller.join().unwrap();
    assert_eq!(err, ExploreError::Cancelled);
}

/// The portfolio decides both running examples with the §6 lineup:
/// the fused explicit arm on Fig. 1 (FCR holds), the fused symbolic
/// arm on Fig. 2 (it does not).
#[test]
fn portfolio_decides_the_running_examples() {
    for (cpds, k, engine, fcr) in [
        (fig1::build(), 5, EngineUsed::Alg3Explicit, true),
        (fig2::build(), 2, EngineUsed::Alg3Symbolic, false),
    ] {
        let outcome = Portfolio::auto().run(cpds, Property::True).unwrap();
        assert_eq!(
            outcome.verdict,
            Verdict::Safe {
                k,
                method: ConvergenceMethod::GeneratorTest
            }
        );
        assert_eq!(outcome.engine, engine);
        assert_eq!(outcome.fcr_holds, fcr);
    }
}

/// `run_suite` verifies a mixed batch with bounded parallelism and
/// preserves input order.
#[test]
fn run_suite_handles_mixed_batch() {
    let problems = vec![
        (fig1::build(), Property::True),
        (fig2::build(), Property::True),
        (
            fig1::build(),
            Property::never_visible(vis(1, &[Some(2), Some(6)])),
        ),
    ];
    for parallelism in [1, 2, 8] {
        let results = Portfolio::auto().run_suite(problems.clone(), parallelism);
        assert_eq!(results.len(), 3);
        assert!(matches!(
            results[0].as_ref().unwrap().verdict,
            Verdict::Safe { k: 5, .. }
        ));
        assert!(results[1].as_ref().unwrap().verdict.is_safe());
        assert!(matches!(
            results[2].as_ref().unwrap().verdict,
            Verdict::Unsafe { k: 5, .. }
        ));
    }
}

/// The CBA refuter advances a private symbolic explorer, not the
/// system's shared one; its advances book as saturation like any
/// other. On bluetooth-3/1+2
/// (safe at k = 13, so the refuter runs to its bound) a refuter-only
/// session spends most of its round time saturating.
#[test]
fn cba_refuter_books_its_advances_as_saturation() {
    let bench = table2_suite()
        .into_iter()
        .find(|b| b.label() == "bluetooth-3/1+2")
        .expect("suite row");
    let outcome = Portfolio::fixed(vec![EngineKind::CbaRefuter])
        .with_config(SessionConfig {
            max_k: 14,
            ..SessionConfig::new()
        })
        .run(bench.cpds, bench.property)
        .unwrap();
    assert!(matches!(outcome.verdict, Verdict::Undetermined { .. }));
    let stages = outcome.stages;
    assert!(
        stages.saturate > stages.check,
        "saturate {:?} vs check {:?}",
        stages.saturate,
        stages.check
    );
}
