//! Integration tests of the public API: stepping an `Engine` through
//! the trait object must reproduce the paper's runs, sessions must
//! stream one round event per computed bound, cancellation and
//! deadlines must stop work cooperatively, and the portfolio must
//! decide both running examples as the paper does.

use std::sync::Arc;
use std::time::Duration;

use cuba::benchmarks::suite::table2_suite;
use cuba::benchmarks::{fig1, fig2};
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

/// Drives any engine kind to conclusion through the trait object
/// surface, returning (verdict, rounds, states, growth sizes).
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

/// Stepping Alg. 3 through the trait object reproduces the Fig. 1
/// run: safe at k = 5 by the generator test after 6 rounds over 17
/// global states, with `|T(Rk)|` = 1,3,6,6,7,8,8.
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
    let (q, s) = (SharedState(0), StackSym);
    let mut pds = PdsBuilder::new(1, 4);
    pds.overwrite(q, s(1), q, s(2)).unwrap();
    pds.overwrite(q, s(2), q, s(3)).unwrap();
    pds.pop(q, s(3), q).unwrap();
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
/// of after the round. Without the cancel, stefan-1/8 would grind
/// toward the (here unreachably large) state budget.
#[test]
fn concurrent_cancel_interrupts_a_symbolic_round_promptly() {
    let token = CancelToken::new();
    let budget = ExploreBudget {
        max_symbolic_states: 1_000_000,
        ..ExploreBudget::default()
    }
    .with_interrupt(Interrupt::none().with_cancel(token.clone()));
    let mut engine = SymbolicEngine::new(stefan_1_8(), budget, SubsumptionMode::Exact);
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
    });
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

/// The CBA refuter advances a private symbolic engine, not a shared
/// explorer; its advances still book as saturation. On bluetooth-3/1+2
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
