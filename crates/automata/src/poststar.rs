use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use cuba_pds::{Pds, Rhs, SharedState, StackSym};
use cuba_telemetry::metrics::METRICS;
use cuba_telemetry::trace;

use crate::rules::RuleTable;
use crate::{Label, Nfa, Psa, SaturationInterrupted, StateId};

/// How many transition insertions a saturation loop performs between
/// two invocations of the caller's poll callback. Small enough that a
/// deadline is observed promptly even inside one pathological `post*`
/// call, large enough that polling cost (an atomic load or two plus an
/// `Instant::now`) stays invisible next to the insertion work.
pub(crate) const SATURATION_POLL_EVERY: usize = 64;

/// The mutable saturation state: the automaton under construction, the
/// worklist, and the cooperative-interruption bookkeeping shared by
/// `post*` and `pre*`.
struct Saturator<'a> {
    psa: Psa,
    work: VecDeque<(StateId, Label, StateId)>,
    inserted: usize,
    poll: &'a mut dyn FnMut() -> bool,
    interrupted: bool,
}

impl Saturator<'_> {
    /// Inserts a transition, enqueues it when new, and polls the
    /// interruption callback every [`SATURATION_POLL_EVERY`]
    /// insertions.
    fn add(&mut self, src: StateId, label: Label, dst: StateId) {
        if self.psa.nfa.add_transition(src, label, dst) {
            self.work.push_back((src, label, dst));
            self.inserted += 1;
            if self.inserted.is_multiple_of(SATURATION_POLL_EVERY) && !(self.poll)() {
                self.interrupted = true;
            }
        }
    }
}

/// Computes `post*(L(init))`: the PSA accepting all configurations
/// reachable in `pds` from a configuration accepted by `init`
/// (saturation procedure of Bouajjani–Esparza–Maler / Schwoon; paper
/// App. C, Thm. 8).
///
/// Extensions over the textbook algorithm, needed by the paper's model
/// (§2.1):
///
/// * ε-transitions may already exist in `init` (they encode acceptance
///   of empty-stack configurations `⟨q|ε⟩`); the saturation keeps an
///   ε-elimination closure so rule triggering stays complete, and
/// * empty-stack actions `(q,ε) → (q',w')` fire whenever `⟨q|ε⟩`
///   becomes accepted.
///
/// # Panics
///
/// Panics if `init` violates the PSA invariants (debug builds check
/// [`Psa::validate`]).
pub fn post_star(pds: &Pds, init: &Psa) -> Psa {
    match post_star_guarded(pds, init, &mut || true) {
        Ok(psa) => psa,
        Err(SaturationInterrupted) => unreachable!("an always-true poll never interrupts"),
    }
}

/// As [`post_star`], but polls `poll` every few transition insertions
/// and aborts the saturation when it returns `false`.
///
/// This is the cooperative-interruption hook for callers with
/// deadlines or cancellation tokens (the symbolic engine's context
/// steps): a single pathological `post*` call performs work bounded
/// only by the automaton size, which can dwarf any per-round deadline
/// check made *between* saturations.
///
/// Builds a throwaway [`RuleTable`] per call; repeated saturations
/// over the same PDS should build the table once and use
/// [`post_star_table`].
///
/// # Errors
///
/// [`SaturationInterrupted`] when `poll` returned `false`; the
/// partially saturated automaton is discarded.
pub fn post_star_guarded(
    pds: &Pds,
    init: &Psa,
    poll: &mut dyn FnMut() -> bool,
) -> Result<Psa, SaturationInterrupted> {
    post_star_table(pds, &RuleTable::new(pds), init, poll)
}

/// As [`post_star_table`], with a shared-reference poll. The `threads`
/// argument is ignored: saturation is always the sequential worklist.
/// It stays in the signature because the `perfbench/` harness passes
/// it.
///
/// # Errors
///
/// [`SaturationInterrupted`] when `poll` returned `false`.
pub fn post_star_with(
    pds: &Pds,
    table: &RuleTable,
    init: &Psa,
    _threads: usize,
    poll: &(dyn Fn() -> bool + Sync),
) -> Result<Psa, SaturationInterrupted> {
    post_star_table(pds, table, init, &mut || poll())
}

/// As [`post_star_guarded`], but over a caller-built [`RuleTable`]:
/// the sequential saturation worklist, with CSR rule lookups.
///
/// # Errors
///
/// [`SaturationInterrupted`] when `poll` returned `false`; the
/// partially saturated automaton is discarded.
pub fn post_star_table(
    pds: &Pds,
    table: &RuleTable,
    init: &Psa,
    poll: &mut dyn FnMut() -> bool,
) -> Result<Psa, SaturationInterrupted> {
    debug_assert!(
        init.validate().is_ok(),
        "post_star input must be a valid PSA"
    );
    let mut sat = Saturator {
        psa: init.clone(),
        work: init.nfa.transitions().collect(),
        inserted: 0,
        poll,
        interrupted: false,
    };
    let sink = sat.psa.sink();
    // The whole worklist run is one telemetry wave.
    METRICS.waves.inc();
    METRICS.frontier_edges.observe(sat.work.len() as u64);
    let mut wave_span = trace::span_args("wave", vec![("frontier", sat.work.len().into())]);

    // Fresh middle states, one per (target control, pushed symbol).
    let mut mid: HashMap<(u32, u32), StateId> = HashMap::new();

    // ε-predecessors: eps_preds[s] = controls/states p with (p, ε, s).
    let mut eps_preds: HashMap<u32, HashSet<u32>> = HashMap::new();

    // Which empty-stack triggers already fired, to avoid re-firing.
    let mut fired_empty: HashSet<u32> = HashSet::new();

    while let Some((src, label, dst)) = sat.work.pop_front() {
        if sat.interrupted {
            return Err(SaturationInterrupted);
        }
        // Backward ε-propagation: anything src can do, its
        // ε-predecessors can do.
        if let Some(preds) = eps_preds.get(&src.0) {
            for &p in &preds.clone() {
                sat.add(StateId(p), label, dst);
            }
        }
        match label {
            Label::Sym(gamma) if sat.psa.is_control(src) => {
                for &ri in table.rules(src.0, gamma) {
                    let a = &pds.actions()[ri as usize];
                    let p2 = StateId(a.q_post.0);
                    match a.rhs {
                        Rhs::Empty => {
                            sat.add(p2, Label::Eps, dst);
                        }
                        Rhs::One(sym2) => {
                            sat.add(p2, Label::Sym(sym2.0), dst);
                        }
                        Rhs::Two { top, below } => {
                            let m = *mid
                                .entry((a.q_post.0, top.0))
                                .or_insert_with(|| sat.psa.nfa.add_state());
                            sat.add(p2, Label::Sym(top.0), m);
                            sat.add(m, Label::Sym(below.0), dst);
                        }
                    }
                }
            }
            Label::Eps => {
                eps_preds.entry(dst.0).or_default().insert(src.0);
                // Forward ε-elimination: copy dst's current out-edges.
                let outs: Vec<(Label, StateId)> = sat.psa.nfa.transitions_from(dst).collect();
                for (l, t) in outs {
                    sat.add(src, l, t);
                }
                // Empty-stack rules fire once ⟨q|ε⟩ is accepted.
                if dst == sink && sat.psa.is_control(src) && fired_empty.insert(src.0) {
                    for &ri in table.empty_rules(src.0) {
                        let a = &pds.actions()[ri as usize];
                        let p2 = StateId(a.q_post.0);
                        match a.rhs {
                            Rhs::Empty => sat.add(p2, Label::Eps, sink),
                            Rhs::One(sym2) => sat.add(p2, Label::Sym(sym2.0), sink),
                            Rhs::Two { .. } => {
                                unreachable!("empty-stack pushes of two symbols are rejected")
                            }
                        }
                    }
                }
            }
            Label::Sym(_) => {
                // Non-control source: no rule can fire; ε-propagation
                // above already handled it.
            }
        }
    }
    if sat.interrupted {
        return Err(SaturationInterrupted);
    }
    wave_span.arg("inserted", sat.inserted);
    drop(wave_span);
    debug_assert!(
        sat.psa.validate().is_ok(),
        "post_star must preserve PSA invariants"
    );
    Ok(sat.psa)
}

/// Convenience: the `post*` PSA from a single configuration.
///
/// # Errors
///
/// Returns an error if the configuration's control state is out of
/// range for `num_controls`.
pub fn post_star_from_config(
    pds: &Pds,
    num_controls: u32,
    config: &cuba_pds::PdsConfig,
) -> Result<Psa, crate::AutomataError> {
    let init = Psa::accepting_configs(num_controls, [config])?;
    Ok(post_star(pds, &init))
}

/// Enumerates, by explicit BFS, all configurations reachable from
/// `config` within `max_steps` PDS steps (no context notion — a single
/// thread). Used to cross-validate saturation in tests and exposed for
/// diagnostics. The sweep dedupes into an ordered set directly, so the
/// returned `Vec` is sorted without a second pass.
pub fn bounded_reach(
    pds: &Pds,
    config: &cuba_pds::PdsConfig,
    max_steps: usize,
) -> Vec<cuba_pds::PdsConfig> {
    let mut seen: BTreeSet<cuba_pds::PdsConfig> = BTreeSet::new();
    seen.insert(config.clone());
    let mut frontier = vec![config.clone()];
    for _ in 0..max_steps {
        let mut next = Vec::new();
        for c in &frontier {
            for succ in pds.successors(c) {
                if seen.insert(succ.clone()) {
                    next.push(succ);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    seen.into_iter().collect()
}

#[allow(unused_imports)]
use cuba_pds::PdsConfig; // referenced in doc comments

#[allow(dead_code)]
fn _type_assertions(_q: SharedState, _s: StackSym, _n: Nfa) {}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{PdsBuilder, PdsConfig, Stack};

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    /// The PDS of the paper's Fig. 7 (App. C).
    fn fig7() -> Pds {
        let mut b = PdsBuilder::new(3, 3);
        b.push(q(0), s(0), q(1), s(1), s(0)).unwrap();
        b.push(q(1), s(1), q(2), s(2), s(0)).unwrap();
        b.overwrite(q(2), s(2), q(0), s(1)).unwrap();
        b.pop(q(0), s(1), q(0)).unwrap();
        b.build().unwrap()
    }

    fn cfg(qq: u32, word: &[u32]) -> PdsConfig {
        PdsConfig::new(q(qq), Stack::from_top_down(word.iter().map(|&x| s(x))))
    }

    #[test]
    fn fig7_post_star_agrees_with_explicit_bfs() {
        let pds = fig7();
        let init = cfg(0, &[0]);
        let psa = post_star_from_config(&pds, 3, &init).unwrap();
        // Everything found by bounded explicit search is accepted.
        for c in bounded_reach(&pds, &init, 8) {
            assert!(psa.accepts_config(&c), "post* must accept reachable {c}");
        }
        // Spot-check unreachable configurations.
        assert!(!psa.accepts_config(&cfg(2, &[0])));
        assert!(!psa.accepts_config(&cfg(1, &[0])));
        assert!(!psa.accepts_config(&cfg(0, &[2])));
    }

    #[test]
    fn fig7_sampled_psa_configs_are_truly_reachable() {
        let pds = fig7();
        let init = cfg(0, &[0]);
        let psa = post_star_from_config(&pds, 3, &init).unwrap();
        let explicit: std::collections::HashSet<_> =
            bounded_reach(&pds, &init, 14).into_iter().collect();
        // Every accepted config with a short stack must appear in a
        // sufficiently deep explicit search (completeness direction).
        for qq in 0..3 {
            let lang = psa.stack_language(q(qq));
            for word in lang.sample_words(12) {
                if word.len() <= 4 {
                    let c = cfg(qq, &word);
                    assert!(explicit.contains(&c), "PSA accepts unreachable {c}");
                }
            }
        }
    }

    #[test]
    fn pop_makes_stack_empty_and_empty_rules_fire() {
        // (0,a) -> (1,ε); (1,ε) -> (2,b)
        let mut b = PdsBuilder::new(3, 2);
        b.pop(q(0), s(0), q(1)).unwrap();
        b.from_empty(q(1), q(2), Some(s(1))).unwrap();
        let pds = b.build().unwrap();
        let psa = post_star_from_config(&pds, 3, &cfg(0, &[0])).unwrap();
        assert!(psa.accepts_config(&cfg(1, &[])));
        assert!(psa.accepts_config(&cfg(2, &[1])));
        assert!(!psa.accepts_config(&cfg(2, &[0])));
    }

    #[test]
    fn empty_rule_chain() {
        // Start from ⟨0|ε⟩: (0,ε)->(1,ε), (1,ε)->(2,a)
        let mut b = PdsBuilder::new(3, 1);
        b.from_empty(q(0), q(1), None).unwrap();
        b.from_empty(q(1), q(2), Some(s(0))).unwrap();
        let pds = b.build().unwrap();
        let psa = post_star_from_config(&pds, 3, &cfg(0, &[])).unwrap();
        assert!(psa.accepts_config(&cfg(0, &[])));
        assert!(psa.accepts_config(&cfg(1, &[])));
        assert!(psa.accepts_config(&cfg(2, &[0])));
        assert!(!psa.accepts_config(&cfg(1, &[0])));
    }

    #[test]
    fn recursion_yields_infinite_language() {
        // (0,a) -> (0,aa): unbounded pushes of `a`.
        let mut b = PdsBuilder::new(1, 1);
        b.push(q(0), s(0), q(0), s(0), s(0)).unwrap();
        let pds = b.build().unwrap();
        let psa = post_star_from_config(&pds, 1, &cfg(0, &[0])).unwrap();
        for depth in 1..6 {
            let word = vec![0u32; depth];
            assert!(psa.accepts(q(0), &word), "depth {depth}");
        }
        assert!(!psa.accepts(q(0), &[]));
    }

    #[test]
    fn post_star_of_empty_set_is_empty() {
        let pds = fig7();
        let psa = post_star(&pds, &Psa::empty(3));
        assert!(psa.as_nfa().is_language_empty());
    }

    #[test]
    fn post_star_keeps_initial_configs() {
        let pds = fig7();
        let init = cfg(0, &[0]);
        let psa = post_star_from_config(&pds, 3, &init).unwrap();
        assert!(psa.accepts_config(&init));
    }

    /// A saturation large enough to cross the poll interval: a long
    /// overwrite chain fanned out from every shared state.
    fn wide_pds(controls: u32, chain: u32) -> Pds {
        let mut b = PdsBuilder::new(controls, chain + 1);
        for qq in 0..controls {
            for i in 0..chain {
                b.overwrite(q(qq), s(i), q((qq + 1) % controls), s(i + 1))
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    /// The guarded saturation polls at least once on a big input, and a
    /// poll answering `false` aborts the loop early instead of running
    /// the saturation to completion.
    #[test]
    fn guarded_post_star_polls_and_aborts() {
        let pds = wide_pds(4, 200);
        // Seed with symbol 0 only, so the chain rules insert ~200
        // genuinely new transitions (seeding all symbols would make
        // every rule conclusion a duplicate and nothing would poll).
        let init = Psa::all_stacks_leq1(4, [0]);

        let mut polls = 0usize;
        let full = post_star_guarded(&pds, &init, &mut || {
            polls += 1;
            true
        })
        .unwrap();
        assert!(polls > 0, "saturation never polled");
        assert_eq!(
            full.as_nfa().transitions().count(),
            post_star(&pds, &init).as_nfa().transitions().count()
        );

        // Abort on the very first poll: far fewer insertions happen
        // than the full saturation performs.
        let mut calls = 0usize;
        let err = post_star_guarded(&pds, &init, &mut || {
            calls += 1;
            false
        })
        .unwrap_err();
        assert_eq!(err, SaturationInterrupted);
        assert_eq!(calls, 1, "aborts on the first refusing poll");
    }

    /// `pre_star_guarded` honors the same protocol.
    #[test]
    fn guarded_pre_star_polls_and_aborts() {
        let pds = wide_pds(4, 200);
        let target = Psa::all_stacks_leq1(4, [199]);
        let mut polls = 0usize;
        let ok = crate::pre_star_guarded(&pds, &target, &mut || {
            polls += 1;
            true
        });
        assert!(ok.is_ok());
        assert!(polls > 0);
        let err = crate::pre_star_guarded(&pds, &target, &mut || false).unwrap_err();
        assert_eq!(err, SaturationInterrupted);
    }

    #[test]
    fn post_star_from_all_short_stacks() {
        let pds = fig7();
        let init = Psa::all_stacks_leq1(3, [0, 1, 2]);
        let psa = post_star(&pds, &init);
        psa.validate().unwrap();
        // ⟨2|2⟩ ∈ Q×Σ≤1 steps to ⟨0|1⟩ then pops to ⟨0|ε⟩.
        assert!(psa.accepts_config(&cfg(0, &[])));
        // Pushing from ⟨0|0⟩ still works.
        assert!(psa.accepts_config(&cfg(1, &[1, 0])));
    }

    /// `post_star_with` and `pre_star_with` ignore their thread
    /// argument: every count computes the language of the sequential
    /// entry points.
    #[test]
    fn with_variants_ignore_the_thread_count() {
        let pds = wide_pds(4, 200);
        let table = RuleTable::new(&pds);
        let init = Psa::all_stacks_leq1(4, [0]);
        let target = Psa::all_stacks_leq1(4, [199]);
        let post = post_star(&pds, &init);
        let pre = crate::pre_star(&pds, &target);
        for threads in [0, 1, 2, 4] {
            let got = post_star_with(&pds, &table, &init, threads, &|| true).unwrap();
            assert!(
                crate::language_equal(post.as_nfa(), got.as_nfa()),
                "post* threads={threads}"
            );
            let got = crate::pre_star_with(&pds, &target, threads, &|| true).unwrap();
            assert!(
                crate::language_equal(pre.as_nfa(), got.as_nfa()),
                "pre* threads={threads}"
            );
        }
    }
}
