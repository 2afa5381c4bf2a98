//! Integration tests of the redesigned public API: the `Engine`
//! trait's round-stepping must be observationally equivalent to the
//! classic monolithic loops, sessions must stream one round event per
//! computed bound, cancellation and deadlines must stop work
//! cooperatively, and the portfolio must agree with the fused driver
//! on both running examples.

use std::time::Duration;

use cuba::benchmarks::suite::table2_suite;
use cuba::benchmarks::{fig1, fig2};
use cuba::core::{
    alg3_explicit, alg3_symbolic, build_engine, scheme1_symbolic, Alg3Config, AnalysisSession,
    Cuba, CubaConfig, EngineKind, EngineParams, Portfolio, Property, RoundCtx, RoundOutcome,
    Scheme1Config, SessionConfig, SessionEvent, Verdict,
};
use cuba::explore::{CancelToken, ExploreBudget, Interrupt};
use cuba::pds::{SharedState, StackSym, VisibleState};

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
    fuse: bool,
) -> (Verdict, usize, usize, Vec<usize>) {
    let params = EngineParams {
        fuse_collapse: fuse,
        ..EngineParams::default()
    };
    let mut engine = build_engine(kind, cpds, property, &params).unwrap();
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

/// Equivalence on Fig. 1: stepping Alg. 3 through the trait matches
/// the monolithic `alg3_explicit` (verdict, rounds, states, growth).
#[test]
fn alg3_stepping_matches_monolithic_on_fig1() {
    let cpds = fig1::build();
    let report = alg3_explicit(&cpds, &Property::True, &Alg3Config::default()).unwrap();
    let (verdict, rounds, states, growth) =
        drive(EngineKind::Alg3Explicit, &cpds, &Property::True, true);
    assert_eq!(verdict, report.verdict);
    assert_eq!(rounds, report.rounds);
    assert_eq!(states, report.states);
    assert_eq!(growth, report.visible_growth.sizes());
}

/// The same equivalence for the symbolic engines on Fig. 2 (where the
/// explicit ones are inapplicable).
#[test]
fn symbolic_stepping_matches_monolithic_on_fig2() {
    let cpds = fig2::build();
    let a3 = alg3_symbolic(&cpds, &Property::True, &Alg3Config::default()).unwrap();
    let (verdict, rounds, states, growth) =
        drive(EngineKind::Alg3Symbolic, &cpds, &Property::True, true);
    assert_eq!(verdict, a3.verdict);
    assert_eq!(rounds, a3.rounds);
    assert_eq!(states, a3.states);
    assert_eq!(growth, a3.visible_growth.sizes());

    let s1 = scheme1_symbolic(&cpds, &Property::True, &Scheme1Config::default()).unwrap();
    let (verdict, rounds, states, growth) =
        drive(EngineKind::Scheme1Symbolic, &cpds, &Property::True, true);
    assert_eq!(verdict, s1.verdict);
    assert_eq!(rounds, s1.rounds);
    assert_eq!(states, s1.states);
    assert_eq!(growth, s1.growth.sizes());
}

/// An unsafe problem concludes with the same bound through the
/// stepped engine and the monolithic loop, witness included.
#[test]
fn unsafe_equivalence_on_fig1() {
    let cpds = fig1::build();
    let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
    let report = alg3_explicit(&cpds, &property, &Alg3Config::default()).unwrap();
    let (verdict, ..) = drive(EngineKind::Alg3Explicit, &cpds, &property, true);
    match (&report.verdict, &verdict) {
        (Verdict::Unsafe { k: k1, witness: w1 }, Verdict::Unsafe { k: k2, witness: w2 }) => {
            assert_eq!(k1, k2);
            assert!(w1.is_some() && w2.is_some());
            assert!(w2.as_ref().unwrap().replay(&cpds));
        }
        other => panic!("expected two Unsafe verdicts, got {other:?}"),
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
    assert_eq!(err, cuba::explore::ExploreError::DeadlineExceeded);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "mid-round deadline ignored for {:?}",
        start.elapsed()
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
    assert_eq!(err, cuba::explore::ExploreError::Cancelled);
}

/// The portfolio agrees with the classic fused driver on both running
/// examples: same verdict, bound, and deciding engine.
#[test]
fn portfolio_agrees_with_fused_driver() {
    for (cpds, label) in [(fig1::build(), "fig1"), (fig2::build(), "fig2")] {
        let fused = Cuba::new(cpds.clone(), Property::True)
            .run(&CubaConfig::default())
            .unwrap();
        let portfolio = Portfolio::auto().run(cpds, Property::True).unwrap();
        assert_eq!(fused.verdict, portfolio.verdict, "{label}");
        assert_eq!(fused.engine, portfolio.engine, "{label}");
        assert_eq!(fused.fcr_holds, portfolio.fcr_holds, "{label}");
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
