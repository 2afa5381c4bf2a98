//! Property-based cross-validation of the independent engines and
//! the paper's lemmas on randomly generated systems:
//!
//! * explicit `T(Rk)` = symbolic `T(Sk)` at every bound,
//! * Lemma 12: `T(Rk) ⊆ Z`, and Eq. 2's completeness: every state a
//!   pop reaches is in `G`, also for initial stacks deeper than one
//!   symbol,
//! * layered monotonicity and stutter-freeness of `(Rk)` (Lemma 7),
//! * witnesses replay and respect their layer's context bound,
//! * Scheme 1 and Alg. 3 agree whenever both conclude,
//! * every engine kind, and the default lineup, decide exactly like
//!   the paper's rules applied to reference rounds,
//! * the interned engines and `G ∩ Z` search reproduce reference
//!   copies of the clone-per-step originals exactly: state order,
//!   layers, visible layers, and budget errors,
//! * on systems with interchangeable threads, the explicit engine's
//!   representatives expand to the reference layers, with the same
//!   counts, visible layers, failing rounds, witnesses and restores,
//!   and the symbolic engine, whose twin threads share context steps,
//!   reproduces the reference rounds exactly,
//! * every engine's first-seen record of visible states matches a
//!   plain `HashMap` kept by the reference rounds, also after a
//!   failed round,
//! * the flattened property check answers as the recursive
//!   definition, per visible state and, on a canonical key of a system
//!   with interchangeable threads, per visible orbit,
//! * the layer records of those systems keep one canonical key per
//!   visible orbit, and the orbits expand to exactly the layer's
//!   visible states.
//!
//! Systems come from the seeded generator in
//! `cuba::benchmarks::random`; each test sweeps a fixed seed range so
//! failures are directly reproducible.

use std::collections::{HashMap, HashSet, VecDeque};

use cuba::automata::{post_star_table, CanonicalDfa, Psa, RuleTable};
use cuba::benchmarks::random::{random_cpds, RandomCpdsConfig};
use cuba::benchmarks::textfmt;
use cuba::core::{
    check_fcr, compute_z, generators_in_z, thread_abstraction, ConvergenceMethod, CubaError,
    CubaOutcome, EngineKind, EngineUsed, GeneratorSet, Portfolio, Property, PropertyCheck,
    SessionConfig, SystemArtifacts, Verdict,
};
use cuba::explore::{
    ExplicitEngine, ExploreBudget, ExploreError, Interrupt, LayerStore, SharedExplorer,
    SubsumptionMode, SymbolicEngine, SymbolicState,
};
use cuba::pds::rng::{shrink, shrink_usize, SplitMix64};
use cuba::pds::{Cpds, CpdsBuilder, GlobalState, SharedState, StackSym, VisibleState};

fn small_budget() -> ExploreBudget {
    ExploreBudget {
        max_states: 60_000,
        max_stack_depth: 40,
        max_states_per_context: 30_000,
        max_symbolic_states: 4_000,
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
            if explicit.advance(&Interrupt::none()).is_err()
                || symbolic.advance(&Interrupt::none()).is_err()
            {
                break;
            }
            let ev: HashSet<_> = explicit.visible_total().collect();
            let sv: HashSet<_> = symbolic.visible_total().collect();
            assert_eq!(ev, sv, "seed {seed}");
        }
    }
}

/// How a random system is built from a shape and a seed:
/// [`random_cpds`], or [`deepened`].
type Build = fn(&RandomCpdsConfig, u64) -> Cpds;

/// `random_cpds(shape, seed)` with initial stacks of one to three
/// symbols: each thread keeps its program and its top symbol, and
/// gets up to two more below it, drawn from a [`SplitMix64`] seeded
/// from `seed`. A pop can reveal those symbols though no push writes
/// them.
fn deepened(shape: &RandomCpdsConfig, seed: u64) -> Cpds {
    let base = random_cpds(shape, seed);
    let mut rng = SplitMix64::new(seed ^ 0xDEE9_57AC);
    let mut builder = CpdsBuilder::new(base.num_shared(), base.q_init());
    for i in 0..base.num_threads() {
        let pds = base.thread(i);
        let mut stack: Vec<StackSym> = base.initial_stack(i).iter_top_down().collect();
        for _ in 0..rng.gen_usize(3) {
            stack.push(StackSym(rng.gen_u32(pds.alphabet_size())));
        }
        builder = builder.thread(pds.clone(), stack);
    }
    builder.build().expect("a random system with deeper stacks")
}

/// The systems of the overapproximation oracles: push-light and
/// push-free shapes, and [`deepened`] default-shape systems under FCR.
fn overapproximation_systems() -> Vec<(RandomCpdsConfig, u64, Build)> {
    let push_light = RandomCpdsConfig {
        push_probability: 0.2,
        ..RandomCpdsConfig::default()
    };
    let mut systems: Vec<(RandomCpdsConfig, u64, Build)> = (0..24u64)
        .map(|seed| {
            let shape = if seed % 2 == 0 {
                push_light.clone()
            } else {
                RandomCpdsConfig::shrinking()
            };
            (shape, seed, random_cpds as Build)
        })
        .collect();
    let shape = RandomCpdsConfig::default();
    let deep: Vec<u64> = (0..200u64)
        .filter(|&seed| check_fcr(&deepened(&shape, seed)).holds())
        .collect();
    assert!(
        deep.len() >= 100,
        "too few deepened FCR systems: {}",
        deep.len()
    );
    systems.extend(
        deep.into_iter()
            .map(|seed| (shape.clone(), seed, deepened as Build)),
    );
    systems
}

/// Runs `gap` on every [`overapproximation_systems`] entry, explored
/// explicitly for four rounds, and shrinks the first failure to a
/// minimal shape.
///
/// These oracles check `Z` and `G` against explicit exploration, not
/// against [`reference::g_cap_z`]: that shares `thread_abstraction`
/// and `GeneratorSet` with the code under test, so it cannot catch a
/// wrong abstraction.
fn check_overapproximation(gap: fn(&Cpds, &ExplicitEngine) -> Option<String>) {
    let run = |cpds: &Cpds| {
        let mut engine = ExplicitEngine::new(cpds.clone(), small_budget());
        for _ in 0..4 {
            if engine.advance(&Interrupt::none()).is_err() {
                break; // A budget error: what was seen must still be covered.
            }
        }
        gap(cpds, &engine)
    };
    for (shape, seed, build) in overapproximation_systems() {
        if let Some(gap) = run(&build(&shape, seed)) {
            let minimal = shrink(shape, smaller_shapes, |s| run(&build(s, seed)).is_some());
            panic!(
                "seed {seed}: {gap}; minimal failing shape {minimal:?}: {:?}",
                run(&build(&minimal, seed))
            );
        }
    }
}

/// Lemma 12: every reachable visible state lies in Z.
#[test]
fn visible_reachability_is_inside_z() {
    check_overapproximation(|cpds, engine| {
        let z = compute_z(cpds);
        engine
            .visible_total()
            .find(|v| !z.contains(v))
            .map(|v| format!("Z misses {v}"))
    });
}

/// Eq. 2's completeness: every successor a pop produces from a
/// reachable state is a generator. (Representatives suffice: `G` is
/// closed under swapping interchangeable threads.)
#[test]
fn pop_successors_are_generators() {
    check_overapproximation(|cpds, engine| {
        let generators = GeneratorSet::from_cpds(cpds);
        engine.states().iter().find_map(|state| {
            (0..cpds.num_threads()).find_map(|i| {
                cpds.successors_of_thread(state, i)
                    .into_iter()
                    .find(|next| {
                        next.stacks[i].len() < state.stacks[i].len()
                            && !generators.contains(&next.visible())
                    })
                    .map(|next| format!("G misses {}, popped from {state}", next.visible()))
            })
        })
    });
}

/// Regression: a pop can reveal a symbol its thread started with
/// below the top. `G` and `Z` once left such symbols out, so the
/// generator test proved this model (shrunk from a random search)
/// safe at k = 4: thread 1's first pop reveals `2`, a symbol no push
/// writes, and `⟨1|0,0⟩` is reachable with six contexts.
#[test]
fn deep_initial_stack_bug_is_found() {
    const MODEL: &str = "
shared 2
init 0
thread 3
stack 1
(0,1) -> (1,2)
(1,0) -> (1,2)
(0,2) -> (1,0)
thread 3
stack 0 2
(1,0) -> (1,eps)
(1,1) -> (1,eps)
(1,1) -> (0,1 0)
(1,2) -> (0,1)
";
    let cpds = textfmt::parse_cpds(MODEL).unwrap();
    let property = Property::parse("never-visible:1|0,0").unwrap();
    for (name, portfolio) in [
        ("auto", Portfolio::auto()),
        ("explicit", Portfolio::fixed([EngineKind::Alg3Explicit])),
        ("symbolic", Portfolio::fixed([EngineKind::Alg3Symbolic])),
    ] {
        let outcome = portfolio.run(cpds.clone(), property.clone()).unwrap();
        let Verdict::Unsafe {
            k: 6,
            witness: Some(w),
        } = &outcome.verdict
        else {
            panic!("{name}: {:?}", outcome.verdict);
        };
        assert!(w.replay(&cpds), "{name}: {w}");
        assert!(property.violated_by(&w.end().visible()), "{name}: {w}");
        assert_eq!(w.num_contexts(), 6, "{name}: {w}");
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
            engine.advance(&Interrupt::none()).unwrap();
            assert!(engine.num_states() >= previous, "seed {seed}");
            previous = engine.num_states();
            let store = engine.store();
            let new_states = store.state_count_at(k) - store.state_count_at(k - 1);
            if new_states == 0 && collapsed_at.is_none() {
                collapsed_at = Some(k);
            }
            if let Some(c) = collapsed_at {
                if k > c {
                    assert_eq!(new_states, 0, "seed {seed}: collapse must be permanent");
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
            engine.advance(&Interrupt::none()).unwrap();
        }
        for k in 0..=3usize {
            for state in engine.layer(k) {
                let id = engine.find(&state).unwrap();
                let w = engine.witness(id);
                assert!(w.replay(&cpds), "seed {seed}: invalid witness for {state}");
                assert!(w.num_contexts() <= k, "seed {seed}");
            }
        }
    }
}

/// Regression: the witness search once continued through states of
/// older layers, where the round's closure stops. It could then run
/// past the per-context budget the closure had kept to, find no path,
/// and panic. Every stored state of a sweep with tight per-context
/// budgets now gets a witness, including the state that exposed it.
#[test]
fn witness_search_keeps_to_the_closure() {
    let three_threads = RandomCpdsConfig {
        num_threads: 3,
        ..RandomCpdsConfig::shrinking()
    };
    let engine_for = |cpds: &Cpds, cap: usize| {
        let budget = ExploreBudget {
            max_states_per_context: cap,
            ..ExploreBudget::default()
        };
        let mut engine = ExplicitEngine::new(cpds.clone(), budget);
        for _ in 0..5 {
            if engine.advance(&Interrupt::none()).is_err() {
                break;
            }
        }
        engine
    };
    let cpds = random_cpds(&three_threads, 182);
    let engine = engine_for(&cpds, 3);
    assert_eq!(engine.layer_of(18), 4);
    let w = engine.witness(18);
    assert!(w.replay(&cpds));
    assert_eq!(w.end(), &engine.states()[18]);
    assert!(w.num_contexts() <= 4);

    for shape in [RandomCpdsConfig::shrinking(), three_threads] {
        for seed in 0..40u64 {
            let cpds = random_cpds(&shape, seed);
            for cap in [2, 3, 4, 6] {
                let engine = engine_for(&cpds, cap);
                for (id, state) in engine.states().iter().enumerate() {
                    let w = engine.witness(id as u32);
                    assert!(
                        w.replay(&cpds) && w.end() == state,
                        "seed {seed}, cap {cap}"
                    );
                    assert!(w.num_contexts() <= engine.layer_of(id as u32));
                }
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
            explicit.advance(&Interrupt::none()).unwrap();
            symbolic.advance(&Interrupt::none()).unwrap();
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
            if explicit.advance(&Interrupt::none()).is_err()
                || symbolic.advance(&Interrupt::none()).is_err()
            {
                ok = false;
                break;
            }
            let e: HashSet<_> = explicit.visible_total().collect();
            let s: HashSet<_> = symbolic.visible_total().collect();
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

/// What the oracle compares: the verdict word, the bound, the
/// convergence method and the deciding engine (errors by message). An
/// undetermined outcome names no engine: which arm gives it depends on
/// the arms a lineup has and how far each got.
fn decision(result: &Result<CubaOutcome, CubaError>) -> String {
    match result {
        Ok(o) => describe(&o.verdict, o.engine),
        Err(e) => format!("error: {e}"),
    }
}

/// [`decision`]'s text for a verdict given by `engine`.
fn describe(verdict: &Verdict, engine: EngineUsed) -> String {
    match verdict {
        Verdict::Safe { k, method } => format!("safe k={k} ({method}) by {engine}"),
        Verdict::Unsafe { k, .. } => format!("unsafe k={k} by {engine}"),
        Verdict::Undetermined { .. } => "undetermined".to_owned(),
    }
}

/// The configuration every oracle run uses.
fn oracle_config() -> SessionConfig {
    SessionConfig {
        budget: small_budget(),
        max_k: 12,
        ..SessionConfig::new()
    }
}

/// The kinds that apply to a system: all five under FCR, the symbolic
/// ones otherwise.
fn applicable_kinds(fcr: bool) -> Vec<EngineKind> {
    [
        EngineKind::Alg3Explicit,
        EngineKind::Scheme1Explicit,
        EngineKind::Alg3Symbolic,
        EngineKind::Scheme1Symbolic,
        EngineKind::CbaRefuter,
    ]
    .into_iter()
    .filter(|kind| fcr || !kind.needs_fcr())
    .collect()
}

/// The first difference between the portfolio and the reference rules
/// on one system and property: each applicable kind run alone, then
/// `Portfolio::auto()` against its first arm's conclusive reference
/// decision. Also returns how many lone runs were conclusive.
fn reference_difference(cpds: &Cpds, property: &Property) -> (Option<String>, usize) {
    let fcr = check_fcr(cpds).holds();
    let mut conclusive = 0;
    for kind in applicable_kinds(fcr) {
        let got = decision(
            &Portfolio::fixed([kind])
                .with_config(oracle_config())
                .run(cpds.clone(), property.clone()),
        );
        let want = reference::decide(kind, cpds, property, &oracle_config());
        if got != want {
            return (
                Some(format!("{kind}: {got} vs reference {want}")),
                conclusive,
            );
        }
        conclusive += usize::from(got.starts_with("safe") || got.starts_with("unsafe"));
    }
    let first = Portfolio::auto().lineup_for(cpds)[0];
    let want = reference::decide(first, cpds, property, &oracle_config());
    if want.starts_with("safe") || want.starts_with("unsafe") {
        let got = decision(
            &Portfolio::auto()
                .with_config(oracle_config())
                .run(cpds.clone(), property.clone()),
        );
        if got != want {
            return (Some(format!("auto: {got} vs reference {want}")), conclusive);
        }
    }
    (None, conclusive)
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

/// Differential oracle for every rule setting of the stepper: on
/// random systems with and without FCR, each engine kind run alone
/// decides exactly like [`reference::decide`], the paper's rules
/// applied to the reference rounds, for a full-convergence property, a
/// visible-state target and a shared-state target; so does
/// `Portfolio::auto()` whenever its first arm's reference decision is
/// conclusive. A difference is shrunk to a minimal shape before it is
/// reported.
#[test]
fn every_kind_matches_the_reference_decision() {
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
                let (difference, conclusive) = reference_difference(&cpds, &property);
                decided += conclusive;
                let Some(difference) = difference else {
                    continue;
                };
                let differs = |shape: &RandomCpdsConfig| {
                    let cpds = random_cpds(shape, seed);
                    reference_difference(&cpds, &properties(&cpds)[i])
                        .0
                        .is_some()
                };
                let minimal = shrink(shape.clone(), smaller_shapes, differs);
                panic!(
                    "seed {seed}, {property:?}: {difference}; minimal failing shape {minimal:?}"
                );
            }
        }
    }
    assert!(
        fcr_systems >= 24 && other_systems >= 5,
        "{fcr_systems} / {other_systems}"
    );
    assert!(decided >= 300, "too few decided runs: {decided}");
}

/// Reference copies of the engines' rounds from before state
/// interning: every step clones and hashes whole global states resp.
/// symbolic states, exactly as the engines originally did, and runs
/// every thread's context step itself. The interned engines must
/// reproduce them state for state. Each reference also keeps its own
/// per-layer id lists and first-seen record of visible states, which
/// share no code with [`LayerStore`].
mod reference {
    use super::*;

    /// The first bound whose layer of `layers` came up empty, if any.
    fn first_empty(layers: &[Vec<u32>]) -> Option<usize> {
        (1..layers.len()).find(|&k| layers[k].is_empty())
    }

    /// The explicit round: a `GlobalState` BFS per frontier state and
    /// thread through `Cpds::successors_of_thread_into`.
    pub struct Explicit {
        cpds: Cpds,
        budget: ExploreBudget,
        pub states: Vec<GlobalState>,
        index: HashMap<GlobalState, u32>,
        pub store: LayerStore,
        /// `layers[k]`: the ids of the states first reached at bound
        /// `k`, in discovery order.
        pub layers: Vec<Vec<u32>>,
        /// The bound each visible state was first seen at, including
        /// those of a failed round.
        pub first_seen: HashMap<VisibleState, usize>,
    }

    impl Explicit {
        pub fn new(cpds: Cpds, budget: ExploreBudget) -> Self {
            let init = cpds.initial_state();
            let store = LayerStore::new(init.visible());
            Explicit {
                cpds,
                budget,
                first_seen: HashMap::from([(init.visible(), 0)]),
                index: HashMap::from([(init.clone(), 0)]),
                states: vec![init],
                store,
                layers: vec![vec![0]],
            }
        }

        /// The first bound whose layer came up empty, by the
        /// reference's own record.
        pub fn collapsed_at(&self) -> Option<usize> {
            first_empty(&self.layers)
        }

        pub fn advance(&mut self) -> Result<(), ExploreError> {
            let frontier = self.layers.last().expect("layer 0").clone();
            let round_start = self.states.len() as u32;
            let mut new_layer = Vec::new();
            let mut new_visible = Vec::new();
            for &start in &frontier {
                for thread in 0..self.cpds.num_threads() {
                    self.closure(start, thread, round_start, &mut new_layer, &mut new_visible)?;
                }
            }
            let stored = self.states.len();
            self.store
                .push_layer(stored as u32, new_visible.len(), stored);
            self.layers.push(new_layer);
            Ok(())
        }

        fn closure(
            &mut self,
            start: u32,
            thread: usize,
            round_start: u32,
            new_layer: &mut Vec<u32>,
            new_visible: &mut Vec<VisibleState>,
        ) -> Result<(), ExploreError> {
            let mut queue = VecDeque::from([start]);
            let mut in_context = HashSet::from([start]);
            let mut explored = 0usize;
            while let Some(id) = queue.pop_front() {
                explored += 1;
                if explored > self.budget.max_states_per_context {
                    return Err(ExploreError::ContextBudgetExceeded {
                        limit: self.budget.max_states_per_context,
                        thread,
                    });
                }
                let current = self.states[id as usize].clone();
                let mut discovered = Vec::new();
                self.cpds
                    .successors_of_thread_into(&current, thread, &mut |succ, _| {
                        discovered.push(succ)
                    });
                for succ in discovered {
                    if succ.stacks[thread].len() > self.budget.max_stack_depth {
                        return Err(ExploreError::StackDepthExceeded {
                            limit: self.budget.max_stack_depth,
                            thread,
                        });
                    }
                    let succ_id = match self.index.get(&succ) {
                        Some(&existing) => existing,
                        None => {
                            if self.states.len() >= self.budget.max_states {
                                return Err(ExploreError::StateBudgetExceeded {
                                    limit: self.budget.max_states,
                                });
                            }
                            let new_id = self.states.len() as u32;
                            let visible = succ.visible();
                            self.index.insert(succ.clone(), new_id);
                            self.states.push(succ);
                            new_layer.push(new_id);
                            let k = self.store.current_k() + 1;
                            self.first_seen.entry(visible.clone()).or_insert(k);
                            if self.store.record_visible(&visible) == 1 {
                                new_visible.push(visible);
                            }
                            new_id
                        }
                    };
                    if in_context.insert(succ_id) && succ_id >= round_start {
                        queue.push_back(succ_id);
                    }
                }
            }
            Ok(())
        }
    }

    /// The symbolic round: `post*`, canonicalize, and register whole
    /// `SymbolicState`s.
    pub struct Symbolic {
        cpds: Cpds,
        budget: ExploreBudget,
        mode: SubsumptionMode,
        pub states: Vec<SymbolicState>,
        index: HashMap<SymbolicState, u32>,
        by_shared: HashMap<SharedState, Vec<u32>>,
        pub store: LayerStore,
        tables: Vec<RuleTable>,
        /// As [`Explicit::layers`].
        pub layers: Vec<Vec<u32>>,
        /// As [`Explicit::first_seen`].
        pub first_seen: HashMap<VisibleState, usize>,
    }

    impl Symbolic {
        pub fn new(cpds: Cpds, budget: ExploreBudget, mode: SubsumptionMode) -> Self {
            let init = SymbolicState::singleton(&cpds.initial_state());
            let store = LayerStore::new(cpds.initial_state().visible());
            let tables = cpds.threads().iter().map(RuleTable::new).collect();
            Symbolic {
                first_seen: HashMap::from([(cpds.initial_state().visible(), 0)]),
                by_shared: HashMap::from([(init.q, vec![0])]),
                index: HashMap::from([(init.clone(), 0)]),
                states: vec![init],
                cpds,
                budget,
                mode,
                store,
                tables,
                layers: vec![vec![0]],
            }
        }

        /// As [`Explicit::collapsed_at`].
        pub fn collapsed_at(&self) -> Option<usize> {
            first_empty(&self.layers)
        }

        pub fn advance(&mut self) -> Result<(), ExploreError> {
            let frontier = self.layers.last().expect("layer 0").clone();
            let mut new_layer = Vec::new();
            let mut new_visible = Vec::new();
            for &tau in &frontier {
                for thread in 0..self.cpds.num_threads() {
                    for succ in self.context_post(tau, thread) {
                        self.register(succ, &mut new_layer, &mut new_visible)?;
                    }
                }
            }
            let stored = self.states.len();
            self.store
                .push_layer(stored as u32, new_visible.len(), stored);
            self.layers.push(new_layer);
            Ok(())
        }

        fn context_post(&self, tau: u32, thread: usize) -> Vec<SymbolicState> {
            let tau = &self.states[tau as usize];
            let stack_nfa = tau.stacks[thread].to_nfa();
            let Ok(init) = Psa::from_stack_nfa(self.cpds.num_shared(), tau.q, &stack_nfa) else {
                return Vec::new();
            };
            let saturated = post_star_table(
                self.cpds.thread(thread),
                &self.tables[thread],
                &init,
                &mut || true,
            )
            .expect("never interrupted");
            let mut out = Vec::new();
            for q2 in saturated.nonempty_controls() {
                let canon = CanonicalDfa::from_nfa(&saturated.stack_language(q2));
                if canon.is_empty_language() {
                    continue;
                }
                let mut stacks = tau.stacks.clone();
                stacks[thread] = canon;
                out.push(SymbolicState { q: q2, stacks });
            }
            out
        }

        fn register(
            &mut self,
            tau: SymbolicState,
            new_layer: &mut Vec<u32>,
            new_visible: &mut Vec<VisibleState>,
        ) -> Result<(), ExploreError> {
            if tau.is_empty() || self.index.contains_key(&tau) {
                return Ok(());
            }
            if self.mode == SubsumptionMode::Pointwise {
                let ids = self.by_shared.get(&tau.q).map_or(&[][..], |v| v.as_slice());
                if ids
                    .iter()
                    .any(|&id| tau.subsumed_by(&self.states[id as usize]))
                {
                    return Ok(());
                }
            }
            if self.states.len() >= self.budget.max_symbolic_states {
                return Err(ExploreError::SymbolicBudgetExceeded {
                    limit: self.budget.max_symbolic_states,
                });
            }
            let id = self.states.len() as u32;
            let k = self.store.current_k() + 1;
            for v in visible_states(&tau) {
                self.first_seen.entry(v.clone()).or_insert(k);
                if self.store.record_visible(&v) == 1 {
                    new_visible.push(v);
                }
            }
            self.index.insert(tau.clone(), id);
            self.by_shared.entry(tau.q).or_default().push(id);
            self.states.push(tau);
            new_layer.push(id);
            Ok(())
        }
    }

    /// `T(τ)` by recursion over the per-thread top sets, thread 0
    /// outermost.
    fn visible_states(tau: &SymbolicState) -> Vec<VisibleState> {
        fn rec(
            domains: &[Vec<Option<StackSym>>],
            q: SharedState,
            tuple: &mut Vec<Option<StackSym>>,
            out: &mut Vec<VisibleState>,
        ) {
            match domains.split_first() {
                None => out.push(VisibleState::new(q, tuple.clone())),
                Some((first, rest)) => {
                    for &top in first {
                        tuple.push(top);
                        rec(rest, q, tuple, out);
                        tuple.pop();
                    }
                }
            }
        }
        let domains: Vec<Vec<Option<StackSym>>> = tau
            .stacks
            .iter()
            .map(|a| {
                let (firsts, eps) = a.first_symbols();
                let mut tops = if eps { vec![None] } else { Vec::new() };
                tops.extend(firsts.into_iter().map(|s| Some(StackSym(s))));
                tops
            })
            .collect();
        let mut out = Vec::new();
        rec(&domains, tau.q, &mut Vec::new(), &mut out);
        out
    }

    /// `G ∩ Z` by the naive BFS over materialized visible states, then
    /// `GeneratorSet::intersect`; `None` once `Z` outgrows `cap`.
    pub fn g_cap_z(cpds: &Cpds, cap: usize) -> Option<(HashSet<VisibleState>, Vec<VisibleState>)> {
        let abstractions: Vec<_> = (0..cpds.num_threads())
            .map(|i| thread_abstraction(cpds, i))
            .collect();
        let start = cpds.initial_state().visible();
        let mut z = HashSet::from([start.clone()]);
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for (i, trans) in abstractions.iter().enumerate() {
                let tv = v.thread_visible(i);
                for t in trans.iter().filter(|t| t.from == tv) {
                    let mut next = v.clone();
                    next.q = t.to.q;
                    next.tops[i] = t.to.top;
                    if z.insert(next.clone()) {
                        if z.len() > cap {
                            return None;
                        }
                        queue.push_back(next);
                    }
                }
            }
        }
        let gz = GeneratorSet::from_cpds(cpds).intersect(z.iter());
        Some((z, gz))
    }

    /// Either reference round, behind one interface.
    enum Rounds {
        Explicit(Explicit),
        Symbolic(Symbolic),
    }

    impl Rounds {
        fn advance(&mut self) -> Result<(), ExploreError> {
            match self {
                Rounds::Explicit(r) => r.advance(),
                Rounds::Symbolic(r) => r.advance(),
            }
        }

        fn store(&self) -> &LayerStore {
            match self {
                Rounds::Explicit(r) => &r.store,
                Rounds::Symbolic(r) => &r.store,
            }
        }

        fn states(&self) -> usize {
            match self {
                Rounds::Explicit(r) => r.states.len(),
                Rounds::Symbolic(r) => r.states.len(),
            }
        }
    }

    /// The decision of a lone `kind` arm under `config`, as
    /// [`decision`](super::decision) prints it: the reference rounds
    /// `k = 0..=max_k`, and after each, in this order, (1) a violation
    /// among the new visible states is a bug at `k`; (2) Alg. 3 kinds
    /// only: a new plateau of the visible counts at `k ≥ 1` with all of
    /// `G ∩ Z` seen is safety at `k − 1` by the generator test;
    /// (3) Alg. 3 and Scheme 1 kinds: a round that adds no state is a
    /// collapse, safety at `k − 1` credited to Scheme 1. The refuter
    /// applies neither (2) nor (3). A failed round is an error; past
    /// `max_k` the decision is undetermined.
    pub fn decide(
        kind: EngineKind,
        cpds: &Cpds,
        property: &Property,
        config: &SessionConfig,
    ) -> String {
        let budget = config.budget.clone();
        let (explicit, alg3, collapse) = match kind {
            EngineKind::Alg3Explicit => (true, true, true),
            EngineKind::Scheme1Explicit => (true, false, true),
            EngineKind::Alg3Symbolic => (false, true, true),
            EngineKind::Scheme1Symbolic => (false, false, true),
            EngineKind::CbaRefuter => (false, false, false),
        };
        let (alg3_used, scheme1_used, rule) = if explicit {
            (
                EngineUsed::Alg3Explicit,
                EngineUsed::Scheme1Explicit,
                ConvergenceMethod::RkCollapse,
            )
        } else {
            (
                EngineUsed::Alg3Symbolic,
                EngineUsed::Scheme1Symbolic,
                ConvergenceMethod::SkCollapse,
            )
        };
        let own = match kind {
            EngineKind::CbaRefuter => EngineUsed::CbaBaseline,
            _ if alg3 => alg3_used,
            _ => scheme1_used,
        };
        let mut rounds = if explicit {
            Rounds::Explicit(Explicit::new(cpds.clone(), budget))
        } else {
            Rounds::Symbolic(Symbolic::new(cpds.clone(), budget, SubsumptionMode::Exact))
        };
        let (mut visible, mut states) = (Vec::new(), Vec::new());
        for k in 0..=config.max_k {
            if k > 0 {
                if let Err(e) = rounds.advance() {
                    return format!("error: {}", CubaError::Explore(e));
                }
            }
            let store = rounds.store();
            visible.push(store.num_visible());
            states.push(rounds.states());
            if store
                .visible_layer(k)
                .iter()
                .any(|v| property.violated_by(v))
            {
                return describe(&Verdict::Unsafe { k, witness: None }, own);
            }
            let new_plateau = k >= 1
                && visible[k] == visible[k - 1]
                && (k == 1 || visible[k - 1] != visible[k - 2]);
            if alg3 && new_plateau {
                let (_, gz) = g_cap_z(cpds, usize::MAX).expect("no cap");
                if gz.iter().all(|v| store.seen_by(v, k)) {
                    let method = ConvergenceMethod::GeneratorTest;
                    return describe(&Verdict::Safe { k: k - 1, method }, alg3_used);
                }
            }
            if collapse && k >= 1 && states[k] == states[k - 1] {
                let method = rule;
                return describe(&Verdict::Safe { k: k - 1, method }, scheme1_used);
            }
        }
        "undetermined".to_owned()
    }
}

/// Budgets of the differential oracles: the usual small one, and a
/// starved one that runs out mid-round on most systems (each limit
/// binds on some of them).
fn oracle_budgets() -> [ExploreBudget; 2] {
    let starved = ExploreBudget {
        max_states: 8,
        max_stack_depth: 2,
        max_states_per_context: 3,
        max_symbolic_states: 8,
    };
    [small_budget(), starved]
}

/// Compares an engine's layer record at its current bound `k` with a
/// reference's first-seen map: the first difference, if any. A state
/// the reference first saw past `k`, in a round that failed, must be
/// unseen after the rollback. Checked: each reference state's
/// first-seen bound, every cumulative visible count, and probes the
/// reference never saw by `k` — each state with one top switched
/// between `ε` and symbol 0 or the shared state moved up by one, and
/// with an extra thread.
fn record_difference(
    store: &LayerStore,
    first_seen: &HashMap<VisibleState, usize>,
) -> Option<String> {
    let k = store.current_k();
    let want = |v: &VisibleState| first_seen.get(v).copied().filter(|&b| b <= k);
    for v in first_seen.keys() {
        let mut probes = vec![
            v.clone(),
            VisibleState::new(SharedState(v.q.0 + 1), v.tops.clone()),
        ];
        for i in 0..v.num_threads() {
            let mut probe = v.clone();
            probe.tops[i] = match v.tops[i] {
                None => Some(StackSym(0)),
                Some(StackSym(0)) => None,
                Some(_) => continue,
            };
            probes.push(probe);
        }
        for probe in probes {
            if store.first_seen_bound(&probe) != want(&probe) {
                return Some(format!(
                    "{probe} first seen at {:?}, reference {:?}",
                    store.first_seen_bound(&probe),
                    want(&probe)
                ));
            }
        }
        let mut wider = v.clone();
        wider.tops.push(None);
        if store.seen(&wider) {
            return Some(format!("{wider} of another width is seen"));
        }
    }
    for j in 0..=k {
        let count = first_seen.values().filter(|&&b| b <= j).count();
        if store.visible_count_at(j) != count {
            return Some(format!(
                "|T{j}| = {}, reference {count}",
                store.visible_count_at(j)
            ));
        }
    }
    (store.num_visible() != store.visible_count_at(k))
        .then(|| "the record keeps unsealed visible states".to_owned())
}

/// Runs the interned explicit engine beside the reference for four
/// rounds; the first difference, if any.
fn explicit_difference(cpds: &Cpds, budget: &ExploreBudget) -> Option<String> {
    let mut engine = ExplicitEngine::new(cpds.clone(), budget.clone());
    let mut reference = reference::Explicit::new(cpds.clone(), budget.clone());
    for round in 1..=4 {
        let (got, want) = (engine.advance(&Interrupt::none()), reference.advance());
        if got != want {
            return Some(format!("round {round}: {got:?} vs reference {want:?}"));
        }
        if let Some(d) = record_difference(engine.store(), &reference.first_seen) {
            return Some(format!("round {round}: {d}"));
        }
        if got.is_err() {
            // The failed round rolled back to the previous bound.
            let k = engine.current_k();
            return (engine.num_states() != engine.store().state_count_at(k))
                .then(|| format!("round {round}: rollback left stray states"));
        }
        if engine.states() != reference.states.as_slice() {
            return Some(format!("round {round}: state sequences differ"));
        }
        for k in 0..=round {
            if !engine
                .store()
                .layer_ids(k)
                .eq(reference.layers[k].iter().copied())
                || engine.visible_layer(k) != reference.store.visible_layer(k)
            {
                return Some(format!("round {round}: layer {k} differs"));
            }
            if let Some(&id) = reference.layers[k]
                .iter()
                .find(|&&id| engine.layer_of(id) != k)
            {
                return Some(format!(
                    "round {round}: state {id} of layer {k} has layer_of {}",
                    engine.layer_of(id)
                ));
            }
        }
        if engine.store().collapsed_at() != reference.collapsed_at() {
            return Some(format!("round {round}: collapse bounds differ"));
        }
    }
    None
}

/// Runs the symbolic engine in `mode` beside the reference rounds,
/// which store every state and run every thread's step themselves, for
/// four rounds; the first difference, if any. Per round: the same
/// `Ok`/`Err`, no stray state after a rollback, the concrete `|Sk|` per
/// bound, the first-seen record and the collapse bound all match the
/// reference, and the stored visible keys pass [`stored_key_difference`]. Without interchangeable threads the engine must store
/// exactly the reference's states, layers and visible layers, in the
/// same order. With them, each stored key must be canonical, no two
/// stored keys may share an orbit, the orbits of each stored layer
/// (expanded by [`thread_symmetries`], and by the engine's own
/// [`SymbolicEngine::orbit`]) must make up the reference layer, and
/// each visible layer must equal the reference's as a set.
fn symbolic_difference(
    cpds: &Cpds,
    budget: &ExploreBudget,
    mode: SubsumptionMode,
) -> Option<String> {
    let classes = cpds.thread_classes();
    let symmetries = thread_symmetries(cpds);
    let mut engine = SymbolicEngine::new(cpds.clone(), budget.clone(), mode);
    let mut reference = reference::Symbolic::new(cpds.clone(), budget.clone(), mode);
    for round in 1..=4 {
        let (got, want) = (engine.advance(&Interrupt::none()), reference.advance());
        if got != want {
            return Some(format!("round {round}: {got:?} vs reference {want:?}"));
        }
        if let Some(d) = record_difference(engine.store(), &reference.first_seen)
            .or_else(|| stored_key_difference(engine.store(), cpds, &symmetries))
        {
            return Some(format!("round {round}: {d}"));
        }
        if got.is_err() {
            let k = engine.current_k();
            return (engine.num_symbolic_states() != engine.store().state_count_at(k)
                || engine.num_stored() != engine.store().layer_ids(k).end as usize)
                .then(|| format!("round {round}: rollback left stray states"));
        }
        if engine.num_symbolic_states() != reference.states.len() {
            return Some(format!("round {round}: state counts differ"));
        }
        let mut stored_orbits: HashSet<SymbolicState> = HashSet::new();
        for k in 0..=round {
            let layer: Vec<SymbolicState> = engine.layer(k).collect();
            let want: Vec<&SymbolicState> = reference.layers[k]
                .iter()
                .map(|&id| &reference.states[id as usize])
                .collect();
            if engine.store().state_count_at(k) != reference.store.state_count_at(k) {
                return Some(format!("round {round}: |S{k}| differs"));
            }
            if classes.is_empty() {
                if layer.iter().collect::<Vec<_>>() != want
                    || !engine
                        .store()
                        .layer_ids(k)
                        .eq(reference.layers[k].iter().copied())
                    || engine.visible_layer(k) != reference.store.visible_layer(k)
                {
                    return Some(format!("round {round}: layer {k} differs"));
                }
                continue;
            }
            let mut expanded: HashSet<SymbolicState> = HashSet::new();
            for state in &layer {
                let canonical = classes.iter().all(|class| {
                    class
                        .windows(2)
                        .all(|pair| state.stacks[pair[0]] <= state.stacks[pair[1]])
                });
                if !canonical {
                    return Some(format!(
                        "round {round}: layer {k} stores a non-canonical key"
                    ));
                }
                let orbit: HashSet<SymbolicState> = symmetries
                    .iter()
                    .map(|p| SymbolicState {
                        q: state.q,
                        stacks: permuted(p, &state.stacks),
                    })
                    .collect();
                if engine.orbit(state).into_iter().collect::<HashSet<_>>() != orbit {
                    return Some(format!(
                        "round {round}: orbit() of a layer {k} state differs"
                    ));
                }
                for member in orbit {
                    if !stored_orbits.insert(member.clone()) {
                        return Some(format!("round {round}: two stored keys share an orbit"));
                    }
                    expanded.insert(member);
                }
            }
            if expanded != want.into_iter().cloned().collect::<HashSet<_>>() {
                return Some(format!("round {round}: layer {k} differs"));
            }
            let visible: HashSet<VisibleState> = engine.visible_layer(k).into_iter().collect();
            let want: HashSet<VisibleState> =
                reference.store.visible_layer(k).into_iter().collect();
            if visible != want || engine.store().new_visible_at(k) != want.len() {
                return Some(format!("round {round}: visible layer {k} differs"));
            }
        }
        if engine.store().collapsed_at() != reference.collapsed_at() {
            return Some(format!("round {round}: collapse bounds differ"));
        }
    }
    None
}

/// The random shapes of the engine oracles: push-free systems with two
/// and three threads, and a push-carrying shape whose instances are
/// kept only under FCR.
fn oracle_systems() -> Vec<(RandomCpdsConfig, u64)> {
    let pushy = RandomCpdsConfig {
        push_probability: 0.25,
        actions_per_thread: 5,
        ..RandomCpdsConfig::default()
    };
    let three_threads = RandomCpdsConfig {
        num_threads: 3,
        ..RandomCpdsConfig::shrinking()
    };
    let mut systems: Vec<(RandomCpdsConfig, u64)> = (0..16u64)
        .flat_map(|seed| {
            [
                (RandomCpdsConfig::shrinking(), seed),
                (three_threads.clone(), seed),
            ]
        })
        .collect();
    systems.extend(
        (0..40u64)
            .filter(|&seed| check_fcr(&random_cpds(&pushy, seed)).holds())
            .map(|seed| (pushy.clone(), seed)),
    );
    systems
}

/// Differential oracle for state interning: on random systems, under
/// two budgets and (symbolic) both subsumption modes, the interned
/// engines produce exactly the reference engines' state sequences,
/// layers and visible layers, and fail with the same error in the
/// same round. A difference is shrunk to a minimal shape.
#[test]
fn interned_engines_match_the_reference_rounds() {
    let systems = oracle_systems();
    assert!(systems.len() >= 24, "too few systems: {}", systems.len());
    let mut errors = HashMap::new();
    for (shape, seed) in systems {
        for budget in oracle_budgets() {
            let check = |shape: &RandomCpdsConfig| {
                let cpds = random_cpds(shape, seed);
                explicit_difference(&cpds, &budget)
                    .map(|d| format!("explicit: {d}"))
                    .or_else(|| {
                        [SubsumptionMode::Exact, SubsumptionMode::Pointwise]
                            .into_iter()
                            .find_map(|mode| {
                                symbolic_difference(&cpds, &budget, mode)
                                    .map(|d| format!("symbolic {mode:?}: {d}"))
                            })
                    })
            };
            if let Some(difference) = check(&shape) {
                let minimal = shrink(shape.clone(), smaller_shapes, |s| check(s).is_some());
                panic!(
                    "seed {seed}: {difference}; minimal failing shape {minimal:?}: {:?}",
                    check(&minimal)
                );
            }
            let cpds = random_cpds(&shape, seed);
            let mut explicit = ExplicitEngine::new(cpds.clone(), budget.clone());
            let mut symbolic = SymbolicEngine::new(cpds, budget.clone(), SubsumptionMode::Exact);
            for error in (0..4)
                .find_map(|_| explicit.advance(&Interrupt::none()).err())
                .into_iter()
                .chain((0..4).find_map(|_| symbolic.advance(&Interrupt::none()).err()))
            {
                *errors.entry(std::mem::discriminant(&error)).or_insert(0) += 1;
            }
        }
    }
    // Every budget kind ran out somewhere, so the error paths and
    // their rollbacks were compared too.
    assert_eq!(errors.len(), 4, "budget errors seen: {errors:?}");
}

/// Differential oracle for the key-based `G ∩ Z` search: it equals the
/// naive BFS plus intersection, as does the cached artifact, and
/// `compute_z` still returns all of `Z` — including systems with more
/// than 16 threads and [`deepened`] systems.
#[test]
fn generator_search_matches_the_naive_bfs() {
    let wide = RandomCpdsConfig {
        num_shared: 2,
        num_threads: 17,
        alphabet: 2,
        actions_per_thread: 1,
        push_probability: 0.25,
    };
    let mut checked_wide = 0;
    for (shape, seeds, build) in [
        (RandomCpdsConfig::default(), 0..24u64, random_cpds as Build),
        (RandomCpdsConfig::shrinking(), 0..24u64, random_cpds),
        (wide.clone(), 0..24u64, random_cpds),
        (RandomCpdsConfig::default(), 0..200u64, deepened),
    ] {
        for seed in seeds {
            // `None` when `Z` is too large for the naive search.
            let differs = |shape: &RandomCpdsConfig| {
                let cpds = build(shape, seed);
                reference::g_cap_z(&cpds, 20_000).map(|(z, gz)| {
                    generators_in_z(&cpds, &Interrupt::none()).as_ref() != Ok(&gz)
                        || *SystemArtifacts::new().g_cap_z(&cpds) != gz
                        || compute_z(&cpds) != z
                })
            };
            match differs(&shape) {
                None => continue,
                Some(true) => {
                    let minimal =
                        shrink(shape.clone(), smaller_shapes, |s| differs(s) == Some(true));
                    panic!("seed {seed}: G∩Z differs; minimal failing shape {minimal:?}");
                }
                Some(false) => checked_wide += usize::from(shape.num_threads > 16),
            }
        }
    }
    assert!(checked_wide >= 8, "too few wide systems: {checked_wide}");
}

/// Duplication patterns of the symmetry oracle: thread `i` of a system
/// copies thread `pattern[i]` of a random system.
const PATTERNS: [&[usize]; 5] = [&[0, 0], &[0, 0, 1], &[0, 1, 0], &[0, 0, 0], &[0, 1, 0, 1]];

/// A system whose threads copy those of a random system of `shape`
/// (with as many threads as `pattern` names) by `pattern`.
fn duplicated(shape: &RandomCpdsConfig, seed: u64, pattern: &[usize]) -> Cpds {
    let distinct = pattern.iter().max().expect("non-empty pattern") + 1;
    let base = random_cpds(
        &RandomCpdsConfig {
            num_threads: distinct,
            ..shape.clone()
        },
        seed,
    );
    let mut builder = CpdsBuilder::new(base.num_shared(), base.q_init());
    for &j in pattern {
        builder = builder.thread(
            base.thread(j).clone(),
            base.initial_stack(j).iter_top_down(),
        );
    }
    builder.build().expect("copies of a valid system")
}

/// Every permutation `p` of the threads that sends each thread to one
/// with an equal program and initial stack.
fn thread_symmetries(cpds: &Cpds) -> Vec<Vec<usize>> {
    fn extend(cpds: &Cpds, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let i = prefix.len();
        if i == cpds.num_threads() {
            out.push(prefix.clone());
            return;
        }
        for j in 0..cpds.num_threads() {
            if !prefix.contains(&j)
                && cpds.thread(j) == cpds.thread(i)
                && cpds.initial_stack(j) == cpds.initial_stack(i)
            {
                prefix.push(j);
                extend(cpds, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(cpds, &mut Vec::new(), &mut out);
    out
}

/// `stacks` with thread `i`'s stack moved to thread `p[i]`.
fn permuted<T: Clone>(p: &[usize], stacks: &[T]) -> Vec<T> {
    let mut out = stacks.to_vec();
    for (i, stack) in stacks.iter().enumerate() {
        out[p[i]] = stack.clone();
    }
    out
}

/// The visible key `(q, [top code; n])` with its tops moved by the
/// permutation `p` of the threads.
fn permuted_key(p: &[usize], key: &[u32]) -> Vec<u32> {
    std::iter::once(key[0])
        .chain(permuted(p, &key[1..]))
        .collect()
}

/// Checks a layer record's stored visible keys at every computed bound:
/// each must be canonical (its tops ascending within each class of
/// interchangeable threads), no two may lie in one orbit under
/// `symmetries` (those of `cpds`), and the orbits of a bound's keys
/// must hold exactly `new_visible_at(k)` visible states. The first
/// difference, if any.
fn stored_key_difference(
    store: &LayerStore,
    cpds: &Cpds,
    symmetries: &[Vec<usize>],
) -> Option<String> {
    let classes = cpds.thread_classes();
    let mut stored_orbits: HashSet<Vec<u32>> = HashSet::new();
    for k in 0..=store.current_k() {
        let mut members = 0;
        for key in store.visible_layer_keys(k) {
            let canonical = classes.iter().all(|class| {
                class
                    .windows(2)
                    .all(|pair| key[pair[0] + 1] <= key[pair[1] + 1])
            });
            if !canonical {
                return Some(format!(
                    "layer {k}: stored visible key {key:?} is not canonical"
                ));
            }
            let orbit: HashSet<Vec<u32>> =
                symmetries.iter().map(|p| permuted_key(p, key)).collect();
            members += orbit.len();
            for member in orbit {
                if !stored_orbits.insert(member) {
                    return Some(format!("layer {k}: two stored visible keys share an orbit"));
                }
            }
        }
        if members != store.new_visible_at(k) {
            return Some(format!(
                "layer {k}: stored visible orbits hold {members} states, new_visible_at {}",
                store.new_visible_at(k)
            ));
        }
    }
    None
}

/// The states `state` maps to under `symmetries`.
fn orbit_of(symmetries: &[Vec<usize>], state: &GlobalState) -> Vec<GlobalState> {
    symmetries
        .iter()
        .map(|p| GlobalState::new(state.q, permuted(p, &state.stacks)))
        .collect()
}

/// Runs the explicit engine beside the reference rounds for four
/// rounds on a system with interchangeable threads; the first
/// difference, if any. Per round: the orbits of each stored layer make
/// up the reference layer, the stored visible keys pass
/// [`stored_key_difference`], visible layers are equal as sets, so are
/// the concrete state counts and the collapse bound, a round fails in
/// both or in neither, each stored representative's `layer_of` is the
/// reference layer of that state, and every state of the new reference
/// layer gets a witness that replays, ends at it and keeps to its
/// bound.
fn symmetry_difference(cpds: &Cpds, budget: &ExploreBudget) -> Option<String> {
    let symmetries = thread_symmetries(cpds);
    let mut engine = ExplicitEngine::new(cpds.clone(), budget.clone());
    let mut reference = reference::Explicit::new(cpds.clone(), budget.clone());
    for round in 1..=4 {
        let (got, want) = (engine.advance(&Interrupt::none()), reference.advance());
        if got.is_ok() != want.is_ok() {
            return Some(format!("round {round}: {got:?} vs reference {want:?}"));
        }
        if let Some(d) = record_difference(engine.store(), &reference.first_seen)
            .or_else(|| stored_key_difference(engine.store(), cpds, &symmetries))
        {
            return Some(format!("round {round}: {d}"));
        }
        if got.is_err() {
            let k = engine.current_k();
            return (engine.num_states() != engine.store().state_count_at(k))
                .then(|| format!("round {round}: rollback left stray states"));
        }
        for k in 0..=round {
            let expanded: HashSet<GlobalState> = engine
                .layer(k)
                .flat_map(|s| orbit_of(&symmetries, &s))
                .collect();
            let layer: HashSet<GlobalState> = reference.layers[k]
                .iter()
                .map(|&id| reference.states[id as usize].clone())
                .collect();
            if expanded != layer {
                return Some(format!("round {round}: layer {k} differs"));
            }
            let visible: HashSet<VisibleState> = engine.visible_layer(k).into_iter().collect();
            let want: HashSet<VisibleState> =
                reference.store.visible_layer(k).into_iter().collect();
            if visible != want || engine.store().new_visible_at(k) != want.len() {
                return Some(format!("round {round}: visible layer {k} differs"));
            }
            if engine.store().state_count_at(k) != reference.store.state_count_at(k) {
                return Some(format!("round {round}: |R{k}| differs"));
            }
        }
        if engine.store().collapsed_at() != reference.collapsed_at() {
            return Some(format!("round {round}: collapse bounds differ"));
        }
        let states = &reference.states;
        let reference_layer: HashMap<&GlobalState, usize> = reference
            .layers
            .iter()
            .enumerate()
            .flat_map(|(k, ids)| ids.iter().map(move |&id| (&states[id as usize], k)))
            .collect();
        for (id, state) in engine.states().iter().enumerate() {
            if reference_layer.get(state) != Some(&engine.layer_of(id as u32)) {
                return Some(format!("round {round}: layer_of({id}) differs for {state}"));
            }
        }
        for &id in &reference.layers[round] {
            let state = &reference.states[id as usize];
            let Some(w) = engine.witness_to(state) else {
                return Some(format!("round {round}: no witness for {state}"));
            };
            if !w.replay(cpds) || w.end() != state || w.num_contexts() > round {
                return Some(format!("round {round}: bad witness for {state}: {w}"));
            }
        }
    }
    None
}

/// Snapshots an explorer after round 2, restores it, and drives both
/// to round 4: the first difference between the restored explorer and
/// the live one, if any.
fn restore_difference(cpds: &Cpds, budget: &ExploreBudget) -> Option<String> {
    let none = Interrupt::none();
    let live = SharedExplorer::explicit(cpds.clone(), budget.clone());
    if live.ensure_layer(2, &none).is_err() {
        return None;
    }
    let restored = match SharedExplorer::restore(cpds.clone(), budget.clone(), 7, &live.snapshot(7))
    {
        Ok(restored) => restored,
        Err(e) => return Some(format!("restore failed: {e}")),
    };
    for k in 0..=4 {
        let (got, want) = (restored.ensure_layer(k, &none), live.ensure_layer(k, &none));
        if got.is_ok() != want.is_ok() || got.as_ref().err() != want.as_ref().err() {
            return Some(format!("bound {k}: {got:?} vs live {want:?}"));
        }
        if got.is_err() {
            break;
        }
        let layer = |e: &SharedExplorer| e.with_store(|store| store.visible_layer(k));
        if restored.view(k) != live.view(k) || layer(&restored) != layer(&live) {
            return Some(format!("bound {k}: views differ"));
        }
    }
    (restored.snapshot(7) != live.snapshot(7)).then(|| "snapshots differ".to_owned())
}

/// The symmetry oracle's budgets: both oracle budgets, and per-context
/// caps tight enough that a closure exploring more or fewer
/// representatives than the unreduced closure has states fails in a
/// different round.
fn symmetry_budgets() -> Vec<ExploreBudget> {
    let mut budgets = oracle_budgets().to_vec();
    budgets.extend([2, 4, 8].map(|cap| ExploreBudget {
        max_states_per_context: cap,
        ..small_budget()
    }));
    budgets
}

/// Differential oracle for thread-symmetry reduction: systems built by
/// duplicating random threads (push-free, and pushy under FCR), under
/// [`symmetry_budgets`], match the reference rounds up to symmetry
/// ([`symmetry_difference`]) and restore from a snapshot exactly
/// ([`restore_difference`]). A difference is shrunk to a minimal shape.
#[test]
fn symmetric_systems_match_the_reference_rounds() {
    let pushy = RandomCpdsConfig {
        push_probability: 0.25,
        actions_per_thread: 5,
        ..RandomCpdsConfig::default()
    };
    let (mut systems, mut reduced, mut errors) = (0, 0, 0);
    for (shape, seeds) in [(RandomCpdsConfig::shrinking(), 0..32u64), (pushy, 0..48u64)] {
        for seed in seeds {
            for pattern in PATTERNS {
                let cpds = duplicated(&shape, seed, pattern);
                if !check_fcr(&cpds).holds() {
                    continue;
                }
                systems += 1;
                for budget in symmetry_budgets() {
                    let check = |shape: &RandomCpdsConfig| {
                        let cpds = duplicated(shape, seed, pattern);
                        symmetry_difference(&cpds, &budget)
                            .or_else(|| restore_difference(&cpds, &budget))
                    };
                    if let Some(difference) = check(&shape) {
                        let minimal = shrink(shape.clone(), smaller_shapes, |s| check(s).is_some());
                        panic!(
                            "seed {seed}, pattern {pattern:?}: {difference}; minimal failing shape {minimal:?}: {:?}",
                            check(&minimal)
                        );
                    }
                    let mut engine = ExplicitEngine::new(cpds.clone(), budget.clone());
                    errors +=
                        usize::from((0..4).any(|_| engine.advance(&Interrupt::none()).is_err()));
                    reduced += usize::from(engine.states().len() < engine.num_states());
                }
            }
        }
    }
    assert!(systems >= 300, "too few systems: {systems}");
    assert!(reduced >= 250, "too few reduced explorations: {reduced}");
    assert!(errors >= 60, "too few failing rounds: {errors}");
}

/// The pointwise case that a slot-wise subsumption test on stored
/// representatives gets wrong, shrunk from
/// [`symbolic_twin_threads_match_the_reference_rounds`]: a new state
/// lies inside a member of a stored orbit other than its
/// representative, so a slot-wise test keeps a state the unreduced
/// engine drops, and `|S2|` exceeds the reference's.
#[test]
fn pointwise_subsumption_looks_inside_whole_orbits() {
    let shape = RandomCpdsConfig {
        num_shared: 3,
        alphabet: 1,
        actions_per_thread: 5,
        push_probability: 0.0,
        ..RandomCpdsConfig::shrinking()
    };
    let cpds = duplicated(&shape, 12, &[0, 0, 1]);
    assert_eq!(cpds.thread_classes(), vec![vec![0, 1]]);
    assert_eq!(
        symbolic_difference(&cpds, &small_budget(), SubsumptionMode::Pointwise),
        None
    );
}

/// The symbolic twin oracle's budgets: both oracle budgets, and
/// symbolic caps that let a round or two succeed before one fails.
fn symbolic_budgets() -> Vec<ExploreBudget> {
    let mut budgets = oracle_budgets().to_vec();
    budgets.extend([4, 12].map(|cap| ExploreBudget {
        max_symbolic_states: cap,
        ..small_budget()
    }));
    budgets
}

/// Differential oracle for thread-symmetry reduction in the symbolic
/// engine: on systems whose threads copy those of a random system by
/// [`PATTERNS`] (FCR or not), under [`symbolic_budgets`], the symbolic
/// engine in both subsumption modes reproduces the reference rounds,
/// which store every state and run every thread's step themselves, up
/// to symmetry — failing rounds and their rollback included
/// ([`symbolic_difference`]). A difference is shrunk to a minimal
/// shape.
#[test]
fn symbolic_twin_threads_match_the_reference_rounds() {
    let pushy = RandomCpdsConfig {
        push_probability: 0.25,
        actions_per_thread: 5,
        ..RandomCpdsConfig::default()
    };
    let mut errors = 0;
    for (shape, seeds) in [(RandomCpdsConfig::shrinking(), 0..12u64), (pushy, 0..12u64)] {
        for seed in seeds {
            for pattern in PATTERNS {
                for budget in symbolic_budgets() {
                    let check = |shape: &RandomCpdsConfig| {
                        let cpds = duplicated(shape, seed, pattern);
                        [SubsumptionMode::Exact, SubsumptionMode::Pointwise]
                            .into_iter()
                            .find_map(|mode| {
                                symbolic_difference(&cpds, &budget, mode)
                                    .map(|d| format!("{mode:?}: {d}"))
                            })
                    };
                    if let Some(difference) = check(&shape) {
                        let minimal = shrink(shape.clone(), smaller_shapes, |s| check(s).is_some());
                        panic!(
                            "seed {seed}, pattern {pattern:?}: {difference}; minimal failing shape {minimal:?}: {:?}",
                            check(&minimal)
                        );
                    }
                    let cpds = duplicated(&shape, seed, pattern);
                    let mut engine =
                        SymbolicEngine::new(cpds, budget.clone(), SubsumptionMode::Exact);
                    errors +=
                        usize::from((0..4).any(|_| engine.advance(&Interrupt::none()).is_err()));
                }
            }
        }
    }
    assert!(errors >= 80, "too few failing rounds: {errors}");
}

/// A random property over `cpds`, nested at most `depth` `All`s deep:
/// `True`, empty and nested `All`s, `NeverShared` states (also ones
/// the model lacks), `NeverVisible` targets of the model's width and of
/// others, and mutex clauses of one to three pins that may repeat a
/// pin, pin one thread to two symbols, or name a thread or symbol the
/// model lacks.
fn random_property(rng: &mut SplitMix64, cpds: &Cpds, depth: usize) -> Property {
    let n = cpds.num_threads();
    let num_shared = cpds.num_shared();
    // A symbol of `thread`'s alphabet or one past it.
    let sym = |rng: &mut SplitMix64, thread: usize| {
        let alphabet = if thread < n {
            cpds.thread(thread).alphabet_size()
        } else {
            2
        };
        StackSym(rng.gen_u32(alphabet + 1))
    };
    match rng.gen_usize(if depth == 0 { 4 } else { 5 }) {
        0 => Property::True,
        1 => Property::NeverShared(
            (0..1 + rng.gen_usize(3))
                .map(|_| SharedState(rng.gen_u32(num_shared + 2)))
                .collect(),
        ),
        2 => Property::NeverVisible(
            (0..1 + rng.gen_usize(3))
                .map(|_| {
                    let width = match rng.gen_usize(6) {
                        0 => n + 1,
                        1 => n - 1,
                        _ => n,
                    };
                    let q = SharedState(rng.gen_u32(num_shared + 1));
                    let tops = (0..width)
                        .map(|t| rng.gen_bool().then(|| sym(rng, t)))
                        .collect();
                    VisibleState::new(q, tops)
                })
                .collect(),
        ),
        3 => {
            let mut pins: Vec<(usize, StackSym)> = Vec::new();
            for _ in 0..1 + rng.gen_usize(3) {
                let pin = match (pins.last().copied(), rng.gen_usize(4)) {
                    // A repeated pin.
                    (Some(last), 0) => last,
                    // The same thread, another symbol (or the same).
                    (Some((thread, _)), 1) => (thread, sym(rng, thread)),
                    // Any thread, one past the model's included.
                    _ => {
                        let thread = rng.gen_usize(n + 1);
                        (thread, sym(rng, thread))
                    }
                };
                pins.push(pin);
            }
            Property::MutualExclusion(pins)
        }
        _ => Property::All(
            (0..rng.gen_usize(4))
                .map(|_| random_property(rng, cpds, depth - 1))
                .collect(),
        ),
    }
}

/// The flattened per-state [`PropertyCheck`] that the witness searches
/// and the lint run answers exactly as the recursive definition, on
/// random properties (validated or not) and random visible keys within
/// each model's ranges.
#[test]
fn flattened_property_checks_match_the_definition() {
    let three_threads = RandomCpdsConfig {
        num_threads: 3,
        alphabet: 4,
        ..RandomCpdsConfig::default()
    };
    let mut rng = SplitMix64::new(24);
    let (mut checked, mut violated) = (0usize, 0usize);
    for seed in 0..3u64 {
        for shape in [RandomCpdsConfig::default(), three_threads.clone()] {
            let cpds = random_cpds(&shape, seed);
            let keys: Vec<Vec<u32>> = (0..1_000)
                .map(|_| {
                    std::iter::once(rng.gen_u32(cpds.num_shared()))
                        .chain((0..cpds.num_threads()).map(|t| {
                            // A top code: 0 for ε, σ + 1 for a symbol σ.
                            rng.gen_u32(cpds.thread(t).alphabet_size() + 1)
                        }))
                        .collect()
                })
                .collect();
            for _ in 0..200 {
                let property = random_property(&mut rng, &cpds, 2);
                let check = PropertyCheck::per_state(&property, &cpds);
                for key in &keys {
                    let expected = property.violated_by_key(key);
                    assert_eq!(
                        check.violated_by_key(key),
                        expected,
                        "seed {seed}: {property} on {key:?}"
                    );
                    checked += 1;
                    violated += usize::from(expected);
                }
            }
        }
    }
    assert!(
        violated * 20 > checked && violated * 2 < checked,
        "{violated} of {checked} keys violate"
    );
}

/// Whether some member of the orbit of the visible key `key` under
/// `symmetries` violates `property`, by the recursive definition.
fn violated_in_orbit(property: &Property, symmetries: &[Vec<usize>], key: &[u32]) -> bool {
    symmetries
        .iter()
        .any(|p| property.violated_by_key(&permuted_key(p, key)))
}

/// Draws 200 random canonical visible keys of `cpds` and 40 random
/// properties (validated or not) from `case`, and compares
/// [`PropertyCheck::violated_by_key`] on every pair with the
/// definition applied to every orbit member: the numbers of pairs
/// checked and violated, or the first difference.
fn orbit_check_difference(cpds: &Cpds, case: u64) -> Result<(usize, usize), String> {
    let mut rng = SplitMix64::new(case);
    let classes = cpds.thread_classes();
    let symmetries = thread_symmetries(cpds);
    let keys: Vec<Vec<u32>> = (0..200)
        .map(|_| {
            let mut key: Vec<u32> = std::iter::once(rng.gen_u32(cpds.num_shared()))
                .chain((0..cpds.num_threads()).map(|t| {
                    // A top code: 0 for ε, σ + 1 for a symbol σ.
                    rng.gen_u32(cpds.thread(t).alphabet_size() + 1)
                }))
                .collect();
            for class in &classes {
                let mut codes: Vec<u32> = class.iter().map(|&t| key[t + 1]).collect();
                codes.sort_unstable();
                for (&t, code) in class.iter().zip(codes) {
                    key[t + 1] = code;
                }
            }
            key
        })
        .collect();
    let (mut checked, mut violated) = (0, 0);
    for _ in 0..40 {
        let property = random_property(&mut rng, cpds, 2);
        let check = PropertyCheck::new(&property, cpds);
        for key in &keys {
            let expected = violated_in_orbit(&property, &symmetries, key);
            if check.violated_by_key(key) != expected {
                return Err(format!("{property} on {key:?}: expected {expected}"));
            }
            checked += 1;
            violated += usize::from(expected);
        }
    }
    Ok((checked, violated))
}

/// The orbit check that `Engine::round` runs on a layer record's stored
/// keys answers as "some member of the key's orbit violates the
/// property" by the recursive definition, on systems whose threads
/// copy those of random systems by [`PATTERNS`], random properties
/// (validated or not) and random canonical keys. A difference is
/// shrunk to a minimal shape.
#[test]
fn orbit_property_checks_match_the_definition() {
    let small = RandomCpdsConfig {
        alphabet: 2,
        ..RandomCpdsConfig::shrinking()
    };
    let (mut checked, mut violated) = (0usize, 0usize);
    for (s, shape) in [RandomCpdsConfig::default(), small].iter().enumerate() {
        for seed in 0..4u64 {
            for (p, pattern) in PATTERNS.iter().enumerate() {
                let case = (seed * 2 + s as u64) * 8 + p as u64;
                let check = |shape: &RandomCpdsConfig| {
                    orbit_check_difference(&duplicated(shape, seed, pattern), case)
                };
                match check(shape) {
                    Ok((c, v)) => {
                        checked += c;
                        violated += v;
                    }
                    Err(difference) => {
                        let minimal = shrink(shape.clone(), smaller_shapes, |s| check(s).is_err());
                        panic!(
                            "seed {seed}, pattern {pattern:?}: {difference}; minimal failing shape {minimal:?}: {:?}",
                            check(&minimal)
                        );
                    }
                }
            }
        }
    }
    assert!(
        violated * 20 > checked && violated * 2 < checked,
        "{violated} of {checked} orbits violate"
    );
}
