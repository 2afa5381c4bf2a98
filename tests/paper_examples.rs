//! End-to-end integration tests pinning the paper's concrete numbers:
//! the Fig. 1 reachability table, Ex. 8's context bounds, Ex. 13's Z,
//! Ex. 14's generator run, Fig. 4's FCR verdicts, Fig. 7's PSA.

use std::collections::HashSet;

use cuba::automata::{bounded_reach, post_star_from_config};
use cuba::benchmarks::{fig1, fig2, fig7};
use cuba::core::{
    build_engine, check_fcr, compute_z, ConvergenceMethod, CubaError, EngineKind, EngineParams,
    GeneratorSet, Portfolio, Property, RoundOutcome, SequenceEvent, SystemArtifacts, Verdict,
};
use cuba::explore::{ExplicitEngine, ExploreBudget, Interrupt, SubsumptionMode, SymbolicEngine};
use cuba::pds::{SharedState, StackSym, VisibleState};

fn vis(q: u32, tops: &[Option<u32>]) -> VisibleState {
    VisibleState::new(
        SharedState(q),
        tops.iter().map(|t| t.map(StackSym)).collect(),
    )
}

/// Fig. 1 (right): the exact per-bound visible-state table.
#[test]
fn fig1_visible_state_table() {
    let mut engine = ExplicitEngine::new(fig1::build(), ExploreBudget::default());
    for _ in 0..6 {
        engine.advance(&Interrupt::none()).unwrap();
    }
    let layer = |k: usize| -> HashSet<String> {
        engine
            .visible_layer(k)
            .iter()
            .map(|v| v.to_string())
            .collect()
    };
    assert_eq!(layer(0), HashSet::from(["<0|1,4>".to_owned()]));
    assert_eq!(
        layer(1),
        HashSet::from(["<1|2,4>".to_owned(), "<0|1,eps>".to_owned()])
    );
    assert_eq!(
        layer(2),
        HashSet::from([
            "<2|2,5>".to_owned(),
            "<3|2,4>".to_owned(),
            "<1|2,eps>".to_owned()
        ])
    );
    assert!(layer(3).is_empty(), "plateau at k = 2 (Ex. 9)");
    assert_eq!(layer(4), HashSet::from(["<0|1,6>".to_owned()]));
    assert_eq!(layer(5), HashSet::from(["<1|2,6>".to_owned()]));
    assert!(layer(6).is_empty(), "collapse at k = 5");
}

/// Ex. 13: the 8-state context-insensitive overapproximation Z.
#[test]
fn fig1_z_has_exactly_eight_states() {
    let z = compute_z(&fig1::build());
    assert_eq!(z.len(), 8);
    assert!(z.contains(&vis(0, &[Some(1), Some(6)])));
    assert!(z.contains(&vis(1, &[Some(2), None])));
    assert!(!z.contains(&vis(2, &[Some(1), Some(5)])));
}

/// Ex. 14: G∩Z, the rejected plateau at 2, the collapse at 5. `(Rk)`
/// never collapses on Fig. 1, so the generator test decides, and a
/// new plateau that does not conclude failed it.
#[test]
fn fig1_example14_run() {
    let cpds = fig1::build();
    let mut engine = build_engine(
        EngineKind::Alg3Explicit,
        &cpds,
        &Property::True,
        &EngineParams::default(),
    );
    let mut rejected_plateaus = Vec::new();
    let verdict = loop {
        match engine.step(&Interrupt::none()).unwrap() {
            RoundOutcome::Continue(info) => {
                if info.event == SequenceEvent::NewPlateau {
                    rejected_plateaus.push(info.k - 1);
                }
            }
            RoundOutcome::Concluded { verdict, .. } => break verdict,
        }
    };
    assert_eq!(
        *SystemArtifacts::new().g_cap_z(&cpds),
        vec![vis(0, &[Some(1), None]), vis(0, &[Some(1), Some(6)])]
    );
    assert_eq!(rejected_plateaus, vec![2]);
    assert_eq!(engine.growth().sizes(), &[1, 3, 6, 6, 7, 8, 8]);
    assert_eq!(
        verdict,
        Verdict::Safe {
            k: 5,
            method: ConvergenceMethod::GeneratorTest
        }
    );
}

/// The generator set predicate of Ex. 14, spot-checked.
#[test]
fn fig1_generator_set() {
    let g = GeneratorSet::from_cpds(&fig1::build());
    for v in [
        vis(0, &[Some(1), None]),
        vis(0, &[Some(1), Some(6)]),
        vis(0, &[Some(2), None]),
        vis(0, &[Some(2), Some(6)]),
    ] {
        assert!(g.contains(&v), "{v} must be a generator");
    }
    assert!(!g.contains(&vis(1, &[Some(1), Some(6)])));
    assert!(!g.contains(&vis(0, &[Some(1), Some(4)])));
}

/// Fig. 4: FCR verdicts for both running examples.
#[test]
fn fig4_fcr_verdicts() {
    assert!(check_fcr(&fig1::build()).holds());
    let report = check_fcr(&fig2::build());
    assert!(!report.holds());
    assert_eq!(report.offending_threads(), vec![0, 1]);
}

/// Ex. 8: ⟨1|4,9⟩ reachable within 2 contexts, not within 1; the
/// symbolic (Rk) sequence collapses at a small bound; the explicit
/// algorithms refuse the program.
#[test]
fn fig2_example8() {
    let cpds = fig2::build();
    let target = fig2::example8_state();

    let mut engine = SymbolicEngine::new(
        cpds.clone(),
        ExploreBudget::default(),
        SubsumptionMode::Exact,
    );
    engine.advance(&Interrupt::none()).unwrap();
    assert!(!engine.covers(&target), "not reachable with one context");
    engine.advance(&Interrupt::none()).unwrap();
    assert!(engine.covers(&target), "reachable with two contexts");

    let outcome = Portfolio::fixed(vec![EngineKind::Scheme1Symbolic])
        .run(cpds.clone(), Property::True)
        .unwrap();
    match outcome.verdict {
        Verdict::Safe { k, method } => {
            assert_eq!(method, ConvergenceMethod::SkCollapse);
            assert!(
                k <= 6,
                "paper reports R2 = R3; allow slack for the encoding, got {k}"
            );
        }
        other => panic!("expected collapse, got {other:?}"),
    }

    assert_eq!(
        Portfolio::fixed(vec![EngineKind::Scheme1Explicit])
            .run(cpds, Property::True)
            .unwrap_err(),
        CubaError::FcrRequired
    );
}

/// Alg. 3 over T(Sk) proves the Fig. 2 program safe (Table 2 row 6).
#[test]
fn fig2_symbolic_alg3_proves_safety() {
    let cpds = fig2::build();
    let property = Property::never_visible(fig2::unreachable_visible());
    let outcome = Portfolio::fixed(vec![EngineKind::Alg3Symbolic])
        .run(cpds, property)
        .unwrap();
    assert!(outcome.verdict.is_safe(), "{:?}", outcome.verdict);
}

/// Fig. 7 (App. C): the PSA of the example PDS agrees with explicit
/// bounded search in both directions (on bounded stacks).
#[test]
fn fig7_psa_is_exact_on_short_stacks() {
    let pds = fig7::build();
    let init = fig7::initial_config();
    let psa = post_star_from_config(&pds, fig7::NUM_SHARED, &init).unwrap();
    let explicit: HashSet<_> = bounded_reach(&pds, &init, 16).into_iter().collect();
    for c in &explicit {
        assert!(psa.accepts_config(c), "missing {c}");
    }
    for q in 0..fig7::NUM_SHARED {
        let lang = psa.stack_language(SharedState(q));
        for word in lang.sample_words(10) {
            if word.len() <= 5 {
                let c = cuba::pds::PdsConfig::new(
                    SharedState(q),
                    cuba::pds::Stack::from_top_down(word.iter().map(|&x| StackSym(x))),
                );
                assert!(explicit.contains(&c), "PSA overapproximates: {c}");
            }
        }
    }
}

/// The two running examples' witness paths replay under the CPDS
/// semantics (the Ex. 8 path shape: 2 contexts to the target).
#[test]
fn witnesses_replay() {
    let cpds = fig1::build();
    let property = Property::never_visible(fig1::deep_visible());
    let outcome = Portfolio::fixed(vec![EngineKind::Alg3Explicit])
        .run(cpds.clone(), property)
        .unwrap();
    match outcome.verdict {
        Verdict::Unsafe { k, witness } => {
            assert_eq!(k, 5);
            let w = witness.expect("explicit engines yield witnesses");
            assert!(w.replay(&cpds));
            assert!(w.num_contexts() <= 5);
            assert_eq!(w.end().visible(), fig1::deep_visible());
        }
        other => panic!("expected Unsafe, got {other:?}"),
    }
}
