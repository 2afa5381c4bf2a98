//! Property-based cross-validation of the independent engines and
//! the paper's lemmas on randomly generated systems:
//!
//! * explicit `T(Rk)` = symbolic `T(Sk)` at every bound,
//! * Lemma 12: `T(Rk) ⊆ Z`,
//! * layered monotonicity and stutter-freeness of `(Rk)` (Lemma 7),
//! * witnesses replay and respect their layer's context bound,
//! * Scheme 1 and Alg. 3 agree whenever both conclude,
//! * the default lineup (one fused arm per backend) decides exactly
//!   like the split lineup with a separate Scheme 1 arm,
//! * the interned engines and `G ∩ Z` search reproduce reference
//!   copies of the clone-per-step originals exactly: state order,
//!   layers, visible layers, and budget errors.
//!
//! Systems come from the seeded generator in
//! `cuba::benchmarks::random`; each test sweeps a fixed seed range so
//! failures are directly reproducible.

use std::collections::{HashMap, HashSet, VecDeque};

use cuba::automata::{post_star_table, CanonicalDfa, Psa, RuleTable};
use cuba::benchmarks::random::{random_cpds, RandomCpdsConfig};
use cuba::core::{
    check_fcr, compute_z, generators_in_z, thread_abstraction, CubaError, CubaOutcome, EngineKind,
    GeneratorSet, Portfolio, Property, SessionConfig, SystemArtifacts, Verdict,
};
use cuba::explore::{
    ExplicitEngine, ExploreBudget, ExploreError, Interrupt, LayerStore, SubsumptionMode,
    SymbolicEngine, SymbolicState,
};
use cuba::pds::rng::{shrink, shrink_usize};
use cuba::pds::{Cpds, GlobalState, SharedState, StackSym, VisibleState};

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

/// Reference copies of the engines' rounds from before state
/// interning: every step clones and hashes whole global states resp.
/// symbolic states, exactly as the engines originally did. The
/// interned engines must reproduce them state for state.
mod reference {
    use super::*;

    /// The explicit round: a `GlobalState` BFS per frontier state and
    /// thread through `Cpds::successors_of_thread_into`.
    pub struct Explicit {
        cpds: Cpds,
        budget: ExploreBudget,
        pub states: Vec<GlobalState>,
        index: HashMap<GlobalState, u32>,
        pub store: LayerStore,
    }

    impl Explicit {
        pub fn new(cpds: Cpds, budget: ExploreBudget) -> Self {
            let init = cpds.initial_state();
            let store = LayerStore::new(init.visible());
            Explicit {
                cpds,
                budget,
                index: HashMap::from([(init.clone(), 0)]),
                states: vec![init],
                store,
            }
        }

        pub fn advance(&mut self) -> Result<(), ExploreError> {
            if self.store.is_collapsed() {
                self.store
                    .push_layer(Vec::new(), Vec::new(), self.states.len());
                return Ok(());
            }
            let frontier = self.store.layer_ids(self.store.current_k()).to_vec();
            let round_start = self.states.len() as u32;
            let mut new_layer = Vec::new();
            let mut new_visible = Vec::new();
            for &start in &frontier {
                for thread in 0..self.cpds.num_threads() {
                    self.closure(start, thread, round_start, &mut new_layer, &mut new_visible)?;
                }
            }
            self.store
                .push_layer(new_layer, new_visible, self.states.len());
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
                            if self.store.record_visible(visible.clone()) {
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
    }

    impl Symbolic {
        pub fn new(cpds: Cpds, budget: ExploreBudget, mode: SubsumptionMode) -> Self {
            let init = SymbolicState::singleton(&cpds.initial_state());
            let store = LayerStore::new(cpds.initial_state().visible());
            let tables = cpds.threads().iter().map(RuleTable::new).collect();
            Symbolic {
                by_shared: HashMap::from([(init.q, vec![0])]),
                index: HashMap::from([(init.clone(), 0)]),
                states: vec![init],
                cpds,
                budget,
                mode,
                store,
                tables,
            }
        }

        pub fn advance(&mut self) -> Result<(), ExploreError> {
            if self.store.is_collapsed() {
                self.store
                    .push_layer(Vec::new(), Vec::new(), self.states.len());
                return Ok(());
            }
            let frontier = self.store.layer_ids(self.store.current_k()).to_vec();
            let mut new_layer = Vec::new();
            let mut new_visible = Vec::new();
            for &tau in &frontier {
                for thread in 0..self.cpds.num_threads() {
                    for succ in self.context_post(tau, thread) {
                        self.register(succ, &mut new_layer, &mut new_visible)?;
                    }
                }
            }
            self.store
                .push_layer(new_layer, new_visible, self.states.len());
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
            for v in visible_states(&tau) {
                if self.store.record_visible(v.clone()) {
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
        let abstractions: Vec<_> = cpds.threads().iter().map(thread_abstraction).collect();
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
        ..ExploreBudget::default()
    };
    [small_budget(), starved]
}

/// Runs the interned explicit engine beside the reference for four
/// rounds; the first difference, if any.
fn explicit_difference(cpds: &Cpds, budget: &ExploreBudget) -> Option<String> {
    let mut engine = ExplicitEngine::new(cpds.clone(), budget.clone());
    let mut reference = reference::Explicit::new(cpds.clone(), budget.clone());
    for round in 1..=4 {
        let (got, want) = (engine.advance().map(|_| ()), reference.advance());
        if got != want {
            return Some(format!("round {round}: {got:?} vs reference {want:?}"));
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
            if engine.store().layer_ids(k) != reference.store.layer_ids(k)
                || engine.visible_layer(k) != reference.store.visible_layer(k)
            {
                return Some(format!("round {round}: layer {k} differs"));
            }
        }
    }
    None
}

/// As [`explicit_difference`], for the symbolic engine in `mode`.
fn symbolic_difference(
    cpds: &Cpds,
    budget: &ExploreBudget,
    mode: SubsumptionMode,
) -> Option<String> {
    let mut engine = SymbolicEngine::new(cpds.clone(), budget.clone(), mode);
    let mut reference = reference::Symbolic::new(cpds.clone(), budget.clone(), mode);
    for round in 1..=4 {
        let (got, want) = (engine.advance().map(|_| ()), reference.advance());
        if got != want {
            return Some(format!("round {round}: {got:?} vs reference {want:?}"));
        }
        if got.is_err() {
            let k = engine.current_k();
            return (engine.num_symbolic_states() != engine.store().state_count_at(k))
                .then(|| format!("round {round}: rollback left stray states"));
        }
        if engine.num_symbolic_states() != reference.states.len() {
            return Some(format!("round {round}: state counts differ"));
        }
        for k in 0..=round {
            let layer: Vec<SymbolicState> = engine.layer(k).collect();
            let want: Vec<&SymbolicState> = reference
                .store
                .layer_ids(k)
                .iter()
                .map(|&id| &reference.states[id as usize])
                .collect();
            if layer.iter().collect::<Vec<_>>() != want
                || engine.store().layer_ids(k) != reference.store.layer_ids(k)
                || engine.visible_layer(k) != reference.store.visible_layer(k)
            {
                return Some(format!("round {round}: layer {k} differs"));
            }
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
                .find_map(|_| explicit.advance().err())
                .into_iter()
                .chain((0..4).find_map(|_| symbolic.advance().err()))
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
/// than 16 threads.
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
    for (shape, seeds) in [
        (RandomCpdsConfig::default(), 0..24u64),
        (RandomCpdsConfig::shrinking(), 0..24u64),
        (wide.clone(), 0..24u64),
    ] {
        for seed in seeds {
            // `None` when `Z` is too large for the naive search.
            let differs = |shape: &RandomCpdsConfig| {
                let cpds = random_cpds(shape, seed);
                reference::g_cap_z(&cpds, 20_000).map(|(z, gz)| {
                    generators_in_z(&cpds, &Interrupt::none()).as_ref() != Ok(&gz)
                        || *SystemArtifacts::new().g_cap_z(&cpds) != gz
                        || compute_z(&cpds).states != z
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
