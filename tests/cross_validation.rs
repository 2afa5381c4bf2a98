//! Property-based cross-validation of the independent engines and
//! the paper's lemmas on randomly generated systems:
//!
//! * explicit `T(Rk)` = symbolic `T(Sk)` at every bound,
//! * Lemma 12: `T(Rk) ⊆ Z`,
//! * layered monotonicity and stutter-freeness of `(Rk)` (Lemma 7),
//! * witnesses replay and respect their layer's context bound,
//! * Scheme 1 and Alg. 3 agree whenever both conclude,
//! * the default lineup (one fused arm per backend) decides exactly
//!   like the split lineup with a separate Scheme 1 arm.
//!
//! Systems come from the seeded generator in
//! `cuba::benchmarks::random`; each test sweeps a fixed seed range so
//! failures are directly reproducible.

use std::collections::HashSet;

use cuba::benchmarks::random::{random_cpds, RandomCpdsConfig};
use cuba::core::{
    check_fcr, compute_z, CubaError, CubaOutcome, EngineKind, Portfolio, Property, SessionConfig,
    Verdict,
};
use cuba::explore::{ExplicitEngine, ExploreBudget, SubsumptionMode, SymbolicEngine};
use cuba::pds::rng::{shrink, shrink_usize};
use cuba::pds::SharedState;

fn small_budget() -> ExploreBudget {
    ExploreBudget {
        max_states: 60_000,
        max_stack_depth: 40,
        max_states_per_context: 30_000,
        max_symbolic_states: 4_000,
        ..ExploreBudget::default()
    }
}

/// The central cross-validation: two independent engines must see the
/// same visible states at every context bound.
#[test]
fn explicit_and_symbolic_visible_sets_agree() {
    for seed in 0..24u64 {
        let cfg = RandomCpdsConfig::shrinking();
        let cpds = random_cpds(&cfg, seed);
        let mut explicit = ExplicitEngine::new(cpds.clone(), small_budget());
        let mut symbolic = SymbolicEngine::new(cpds, small_budget(), SubsumptionMode::Exact);
        for _ in 0..4 {
            if explicit.advance().is_err() || symbolic.advance().is_err() {
                break;
            }
            let ev: HashSet<_> = explicit.visible_total().cloned().collect();
            let sv: HashSet<_> = symbolic.visible_total().cloned().collect();
            assert_eq!(ev, sv, "seed {seed}");
        }
    }
}

/// Lemma 12: every reachable visible state lies in Z.
#[test]
fn visible_reachability_is_inside_z() {
    for seed in 0..24u64 {
        let cfg = if seed % 2 == 0 {
            RandomCpdsConfig {
                push_probability: 0.2,
                ..RandomCpdsConfig::default()
            }
        } else {
            RandomCpdsConfig::shrinking()
        };
        let cpds = random_cpds(&cfg, seed);
        let z = compute_z(&cpds);
        let mut engine = ExplicitEngine::new(cpds, small_budget());
        for _ in 0..4 {
            if engine.advance().is_err() {
                break; // FCR violation hit the budget — fine, Z was
                       // still an overapproximation of what we saw.
            }
        }
        for v in engine.visible_total() {
            assert!(z.states.contains(v), "seed {seed}: Z misses {v}");
        }
    }
}

/// Monotone layers; collapse is permanent (Lemma 7's consequence).
#[test]
fn layers_are_monotone_and_collapse_sticks() {
    for seed in 0..24u64 {
        let cpds = random_cpds(&RandomCpdsConfig::shrinking(), seed);
        let mut engine = ExplicitEngine::new(cpds, small_budget());
        let mut collapsed_at = None;
        let mut previous = 1usize;
        for k in 1..=6 {
            let summary = engine.advance().unwrap();
            assert!(engine.num_states() >= previous, "seed {seed}");
            previous = engine.num_states();
            if summary.new_states == 0 && collapsed_at.is_none() {
                collapsed_at = Some(k);
            }
            if let Some(c) = collapsed_at {
                if k > c {
                    assert_eq!(
                        summary.new_states, 0,
                        "seed {seed}: collapse must be permanent"
                    );
                }
            }
        }
    }
}

/// Witness paths replay and use no more contexts than their layer.
#[test]
fn witnesses_replay_within_bounds() {
    for seed in 0..24u64 {
        let cpds = random_cpds(&RandomCpdsConfig::shrinking(), seed);
        let mut engine = ExplicitEngine::new(cpds.clone(), small_budget());
        for _ in 0..3 {
            engine.advance().unwrap();
        }
        for k in 0..=3usize {
            for state in engine.layer(k).cloned().collect::<Vec<_>>() {
                let id = engine.find(&state).unwrap();
                let w = engine.witness(id);
                assert!(w.replay(&cpds), "seed {seed}: invalid witness for {state}");
                assert!(w.num_contexts() <= k, "seed {seed}");
            }
        }
    }
}

/// When both explicit algorithms conclude, they agree on safety.
#[test]
fn scheme1_and_alg3_agree() {
    let mut checked = 0;
    for seed in 0..60u64 {
        let cpds = random_cpds(&RandomCpdsConfig::shrinking(), seed);
        if !check_fcr(&cpds).holds() {
            continue;
        }
        // Pick a target from the finite visible domain: reachable for
        // some seeds, unreachable for others.
        let target = cpds.all_visible_states().into_iter().last().unwrap();
        let property = Property::never_visible(target);
        let run = |kind| {
            Portfolio::fixed(vec![kind])
                .with_config(SessionConfig {
                    budget: small_budget(),
                    max_k: 12,
                    ..SessionConfig::new()
                })
                .run(cpds.clone(), property.clone())
        };
        let (Ok(s1), Ok(a3)) = (
            run(EngineKind::Scheme1Explicit),
            run(EngineKind::Alg3Explicit),
        ) else {
            continue;
        };
        checked += 1;
        match (&s1.verdict, &a3.verdict) {
            (Verdict::Safe { .. }, Verdict::Unsafe { .. })
            | (Verdict::Unsafe { .. }, Verdict::Safe { .. }) => {
                panic!(
                    "seed {seed}: conflicting verdicts: {:?} vs {:?}",
                    s1.verdict, a3.verdict
                );
            }
            (Verdict::Unsafe { k: k1, .. }, Verdict::Unsafe { k: k2, .. }) => {
                // Both tight: the minimal bug bound is unique.
                assert_eq!(k1, k2, "seed {seed}");
            }
            _ => {}
        }
    }
    assert!(checked >= 10, "too few conclusive runs: {checked}");
}

/// The symbolic engine covers exactly the explicitly reached global
/// states (sampled), not more, on shrink-only systems.
#[test]
fn symbolic_covers_explicit_states() {
    for seed in 0..16u64 {
        let cpds = random_cpds(&RandomCpdsConfig::shrinking(), seed);
        let mut explicit = ExplicitEngine::new(cpds.clone(), small_budget());
        let mut symbolic = SymbolicEngine::new(cpds, small_budget(), SubsumptionMode::Exact);
        for _ in 0..3 {
            explicit.advance().unwrap();
            symbolic.advance().unwrap();
        }
        for state in explicit.states().iter().take(200) {
            assert!(
                symbolic.covers(state),
                "seed {seed}: symbolic misses {state}"
            );
        }
    }
}

/// Deterministic companion: visible sets also agree on a pushy system
/// that the explicit engine can still handle (no FCR guarantee, tiny
/// depth) — exercises pushes through both pipelines.
#[test]
fn pushy_agreement_specific_seeds() {
    let cfg = RandomCpdsConfig {
        push_probability: 0.25,
        actions_per_thread: 5,
        ..RandomCpdsConfig::default()
    };
    let mut checked = 0;
    for seed in 0..40u64 {
        let cpds = random_cpds(&cfg, seed);
        if !check_fcr(&cpds).holds() {
            continue;
        }
        let mut explicit = ExplicitEngine::new(cpds.clone(), small_budget());
        let mut symbolic = SymbolicEngine::new(cpds, small_budget(), SubsumptionMode::Exact);
        let mut ok = true;
        for _ in 0..4 {
            if explicit.advance().is_err() || symbolic.advance().is_err() {
                ok = false;
                break;
            }
            let e: HashSet<_> = explicit.visible_total().cloned().collect();
            let s: HashSet<_> = symbolic.visible_total().cloned().collect();
            assert_eq!(e, s, "divergence at seed {seed}");
        }
        if ok {
            checked += 1;
        }
    }
    assert!(
        checked >= 5,
        "need enough FCR systems with pushes, got {checked}"
    );
}

/// What the lineup comparison checks: the verdict word, the bound, the
/// convergence method and the deciding engine (errors by message). An
/// undetermined outcome names no engine: which arm gives it depends on
/// the arms a lineup has and how far each got.
fn decision(result: &Result<CubaOutcome, CubaError>) -> String {
    match result {
        Ok(o) => match &o.verdict {
            Verdict::Safe { k, method } => format!("safe k={k} ({method}) by {}", o.engine),
            Verdict::Unsafe { k, .. } => format!("unsafe k={k} by {}", o.engine),
            Verdict::Undetermined { .. } => "undetermined".to_owned(),
        },
        Err(e) => format!("error: {e}"),
    }
}

/// The lineup with a separate Scheme 1 arm that the fused arm replaced:
/// the Alg. 3 arm then runs without the collapse test and steps first.
fn split_lineup(fcr: bool) -> Vec<EngineKind> {
    if fcr {
        vec![
            EngineKind::Alg3Explicit,
            EngineKind::Scheme1Explicit,
            EngineKind::CbaRefuter,
        ]
    } else {
        vec![EngineKind::Alg3Symbolic, EngineKind::Scheme1Symbolic]
    }
}

/// `(fused, split)` decisions for one random system under `property`.
fn both_lineups(cpds: &cuba::pds::Cpds, property: &Property) -> (String, String) {
    let config = SessionConfig {
        budget: small_budget(),
        max_k: 12,
        ..SessionConfig::new()
    };
    let fcr = check_fcr(cpds).holds();
    let fused = Portfolio::auto()
        .with_config(config.clone())
        .run(cpds.clone(), property.clone());
    let split = Portfolio::fixed(split_lineup(fcr))
        .with_config(config)
        .run(cpds.clone(), property.clone());
    (decision(&fused), decision(&split))
}

/// The properties checked per system: full convergence, the last
/// visible state of the finite domain, and the last shared state.
fn properties(cpds: &cuba::pds::Cpds) -> [Property; 3] {
    let target = cpds.all_visible_states().into_iter().last().unwrap();
    [
        Property::True,
        Property::never_visible(target),
        Property::never_shared(SharedState(cpds.num_shared() - 1)),
    ]
}

/// Smaller shapes to try when a system disagrees: fewer actions,
/// threads, stack symbols or shared states (each at least 1, except
/// actions).
fn smaller_shapes(shape: &RandomCpdsConfig) -> Vec<RandomCpdsConfig> {
    let mut out: Vec<RandomCpdsConfig> = shrink_usize(shape.actions_per_thread)
        .into_iter()
        .map(|actions_per_thread| RandomCpdsConfig {
            actions_per_thread,
            ..shape.clone()
        })
        .collect();
    for num_threads in shrink_usize(shape.num_threads) {
        if num_threads >= 1 {
            out.push(RandomCpdsConfig {
                num_threads,
                ..shape.clone()
            });
        }
    }
    for n in shrink_usize(shape.alphabet as usize) {
        if n >= 1 {
            out.push(RandomCpdsConfig {
                alphabet: n as u32,
                ..shape.clone()
            });
        }
    }
    for n in shrink_usize(shape.num_shared as usize) {
        if n >= 1 {
            out.push(RandomCpdsConfig {
                num_shared: n as u32,
                ..shape.clone()
            });
        }
    }
    out
}

/// Differential oracle for the default lineup: on random systems with
/// and without FCR, `Portfolio::auto()` (one fused arm per backend,
/// plus CBA under FCR) decides exactly like the split lineup, for a
/// full-convergence property, a visible-state target and a
/// shared-state target. A disagreement is shrunk to a minimal shape
/// before it is reported.
#[test]
fn fused_lineup_matches_the_split_lineup() {
    let (mut fcr_systems, mut other_systems, mut decided) = (0, 0, 0);
    for (shape, seeds) in [
        (RandomCpdsConfig::shrinking(), 0..24u64),
        (RandomCpdsConfig::default(), 0..24u64),
    ] {
        for seed in seeds {
            let cpds = random_cpds(&shape, seed);
            if check_fcr(&cpds).holds() {
                fcr_systems += 1;
            } else {
                other_systems += 1;
            }
            for (i, property) in properties(&cpds).into_iter().enumerate() {
                let (fused, split) = both_lineups(&cpds, &property);
                if fused == split {
                    decided +=
                        usize::from(fused.starts_with("safe") || fused.starts_with("unsafe"));
                    continue;
                }
                let disagrees = |shape: &RandomCpdsConfig| {
                    let cpds = random_cpds(shape, seed);
                    let (fused, split) = both_lineups(&cpds, &properties(&cpds)[i]);
                    fused != split
                };
                let minimal = shrink(shape.clone(), smaller_shapes, disagrees);
                panic!(
                    "seed {seed}, {property:?}: fused {fused} vs split {split}; \
                     minimal failing shape {minimal:?}"
                );
            }
        }
    }
    assert!(
        fcr_systems >= 24 && other_systems >= 5,
        "{fcr_systems} / {other_systems}"
    );
    assert!(decided >= 100, "too few decided runs: {decided}");
}
