use std::collections::{HashMap, HashSet};

use cuba_explore::{ExploreError, Interrupt};
use cuba_pds::{Cpds, KeyTable, Pds, Rhs, SharedState, StackSym, ThreadVisible, VisibleState};

use crate::GeneratorSet;

/// A transition of the context-insensitive finite-state abstraction
/// `M` (Alg. 2): `(q,σ) ↦ (q',σ')` over thread-visible states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbstractTransition {
    /// Source thread-visible state.
    pub from: ThreadVisible,
    /// Target thread-visible state.
    pub to: ThreadVisible,
}

impl std::fmt::Display for AbstractTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} |-> {}", self.from, self.to)
    }
}

/// Builds thread `i`'s finite-state abstraction `Mi` (paper Alg. 2):
/// the stack is cut off at size 1; each action becomes a transition on
/// `(q, T(w'))`, and each pop action additionally guesses every
/// *emerging symbol* (any `ρ1` written under a push) as well as `ε`.
pub fn thread_abstraction(pds: &Pds) -> Vec<AbstractTransition> {
    // Lines 2–3: collect emerging symbols E.
    let emerging = pds.emerging_symbols();
    let mut out: Vec<AbstractTransition> = Vec::new();
    let mut seen: HashSet<AbstractTransition> = HashSet::new();
    let mut push = |t: AbstractTransition, out: &mut Vec<AbstractTransition>| {
        if seen.insert(t) {
            out.push(t);
        }
    };
    for a in pds.actions() {
        let from = ThreadVisible { q: a.q, top: a.top };
        // Line 6: the action itself, with the stack cut at one symbol.
        let to_top = match a.rhs {
            Rhs::Empty => None,
            Rhs::One(s) => Some(s),
            Rhs::Two { top, .. } => Some(top),
        };
        push(
            AbstractTransition {
                from,
                to: ThreadVisible {
                    q: a.q_post,
                    top: to_top,
                },
            },
            &mut out,
        );
        // Lines 7–9: pops context-insensitively guess what emerges.
        if a.rhs.is_empty() && a.top.is_some() {
            for &rho in &emerging {
                push(
                    AbstractTransition {
                        from,
                        to: ThreadVisible {
                            q: a.q_post,
                            top: Some(rho),
                        },
                    },
                    &mut out,
                );
            }
        }
    }
    out
}

/// The result of the `Z` computation (Lemma 12: `T(R) ⊆ Z`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZReport {
    /// The reachable visible states of the abstraction `Mn`.
    pub states: HashSet<VisibleState>,
    /// Per thread, the abstraction's transitions (for diagnostics and
    /// the Fig. 3 reproduction).
    pub abstractions: Vec<Vec<AbstractTransition>>,
}

/// Computes the context-insensitive overapproximation
/// `Z ⊇ T(R)` (paper §4.1.3): builds `Mi` for each thread with
/// [`thread_abstraction`] and explores the asynchronous product `Mn`
/// exhaustively from `T(initial state)`.
///
/// The tighter this set, the weaker the Alg. 3 line-4 test and the
/// better the odds of termination. `Z` can be exponential in the
/// number of threads; Algorithm 3 itself only needs its generators,
/// which [`generators_in_z`] computes without materializing the rest.
pub fn compute_z(cpds: &Cpds) -> ZReport {
    let abstractions: Vec<Vec<AbstractTransition>> =
        cpds.threads().iter().map(thread_abstraction).collect();
    let z = explore_z(cpds, &abstractions, &Interrupt::none())
        .expect("an unarmed interrupt never fires");
    let states = (0..z.len() as u32)
        .map(|id| decode_visible(z.key(id)))
        .collect();
    ZReport {
        states,
        abstractions,
    }
}

/// The generator intersection `G ∩ Z` (Def. 10 with Lemma 12), sorted
/// — the convergence certificate candidates of Algorithm 3. Equal to
/// `GeneratorSet::from_cpds(cpds).intersect(&compute_z(cpds).states)`,
/// but only the generators are materialized as [`VisibleState`]s.
///
/// `Z` can be exponential in the number of threads, so the search
/// polls `interrupt` as it goes.
///
/// # Errors
///
/// The interrupt's error when it fires; nothing partial is returned,
/// since a cut-off `Z` would make the generator test vacuous.
pub fn generators_in_z(
    cpds: &Cpds,
    interrupt: &Interrupt,
) -> Result<Vec<VisibleState>, ExploreError> {
    let abstractions: Vec<Vec<AbstractTransition>> =
        cpds.threads().iter().map(thread_abstraction).collect();
    let z = explore_z(cpds, &abstractions, interrupt)?;
    let generators = GeneratorSet::from_cpds(cpds);
    let mut ids: Vec<u32> = (0..z.len() as u32)
        .filter(|&id| generators.contains_key(z.key(id)))
        .collect();
    // Key order is `VisibleState` order: `q` first, then the tops with
    // `ε` (code 0) below every symbol.
    ids.sort_unstable_by(|&a, &b| z.key(a).cmp(z.key(b)));
    Ok(ids
        .into_iter()
        .map(|id| decode_visible(z.key(id)))
        .collect())
}

/// How often (in visited states) the `Z` search polls its interrupt.
const Z_POLL_PERIOD: u32 = 256;

/// The key code of a visible top: `ε` ↦ 0, `σ` ↦ `σ + 1`.
fn top_code(top: Option<StackSym>) -> u32 {
    top.map_or(0, |s| s.0 + 1)
}

/// The visible state `⟨q|σ1,…,σn⟩` of a key `(q, [top code; n])`.
fn decode_visible(key: &[u32]) -> VisibleState {
    VisibleState::new(
        SharedState(key[0]),
        key[1..]
            .iter()
            .map(|&code| code.checked_sub(1).map(StackSym))
            .collect(),
    )
}

/// One thread's abstract moves `(q, code) ↦ [(q', code')]`.
type MovesBySource = HashMap<(u32, u32), Vec<(u32, u32)>>;

/// Explores `Mn` from `T(initial state)` breadth-first over visible
/// keys `(q, [top code; n])` (see [`top_code`]). The returned table
/// holds exactly `Z`; its insertion order is the BFS order, so the
/// table doubles as the queue and nothing is allocated per state.
fn explore_z(
    cpds: &Cpds,
    abstractions: &[Vec<AbstractTransition>],
    interrupt: &Interrupt,
) -> Result<KeyTable, ExploreError> {
    // Per thread: abstract moves keyed by their source `(q, code)`.
    let moves: Vec<MovesBySource> = abstractions
        .iter()
        .map(|trans| {
            let mut by_source = MovesBySource::new();
            for t in trans {
                by_source
                    .entry((t.from.q.0, top_code(t.from.top)))
                    .or_default()
                    .push((t.to.q.0, top_code(t.to.top)));
            }
            by_source
        })
        .collect();
    let init = cpds.initial_state();
    let mut key: Vec<u32> = std::iter::once(init.q.0)
        .chain(init.stacks.iter().map(|w| top_code(w.top())))
        .collect();
    let mut z = KeyTable::new(key.len());
    z.insert(&key);
    let mut next = 0u32;
    while (next as usize) < z.len() {
        if next.is_multiple_of(Z_POLL_PERIOD) {
            interrupt.check()?;
        }
        key.clear();
        key.extend_from_slice(z.key(next));
        let q = key[0];
        for (i, by_source) in moves.iter().enumerate() {
            let code = key[i + 1];
            if let Some(targets) = by_source.get(&(q, code)) {
                for &(q2, code2) in targets {
                    key[0] = q2;
                    key[i + 1] = code2;
                    z.insert(&key);
                }
                key[0] = q;
                key[i + 1] = code;
            }
        }
        next += 1;
    }
    Ok(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym};

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }
    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(q(qq), tops.iter().map(|t| t.map(StackSym)).collect())
    }

    /// The CPDS of Fig. 1.
    fn fig1() -> Cpds {
        let mut p1 = PdsBuilder::new(4, 3);
        p1.overwrite(q(0), s(1), q(1), s(2)).unwrap();
        p1.overwrite(q(3), s(2), q(0), s(1)).unwrap();
        let mut p2 = PdsBuilder::new(4, 7);
        p2.pop(q(0), s(4), q(0)).unwrap();
        p2.overwrite(q(1), s(4), q(2), s(5)).unwrap();
        p2.push(q(2), s(5), q(3), s(4), s(6)).unwrap();
        CpdsBuilder::new(4, q(0))
            .thread(p1.build().unwrap(), [s(1)])
            .thread(p2.build().unwrap(), [s(4)])
            .build()
            .unwrap()
    }

    /// Fig. 3 top: the abstractions T1 and T2 of the Fig. 1 threads.
    #[test]
    fn fig3_thread_abstractions() {
        let cpds = fig1();
        let t1 = thread_abstraction(cpds.thread(0));
        // e1: (0,1) ↦ (1,2); e2: (3,2) ↦ (0,1)
        assert_eq!(t1.len(), 2);
        let t2 = thread_abstraction(cpds.thread(1));
        // f1: (0,4) ↦ (0,ε); f2: (0,4) ↦ (0,6); f3: (1,4) ↦ (2,5);
        // f4: (2,5) ↦ (3,4)
        let strings: HashSet<String> = t2.iter().map(|t| t.to_string()).collect();
        assert_eq!(
            strings,
            HashSet::from([
                "(0,4) |-> (0,eps)".to_owned(),
                "(0,4) |-> (0,6)".to_owned(),
                "(1,4) |-> (2,5)".to_owned(),
                "(2,5) |-> (3,4)".to_owned(),
            ])
        );
    }

    /// Fig. 3 bottom / Ex. 13: the 8-state set Z.
    #[test]
    fn fig3_z_set() {
        let z = compute_z(&fig1());
        let expected: HashSet<VisibleState> = [
            vis(0, &[Some(1), Some(4)]),
            vis(1, &[Some(2), Some(4)]),
            vis(2, &[Some(2), Some(5)]),
            vis(3, &[Some(2), Some(4)]),
            vis(0, &[Some(1), None]),
            vis(1, &[Some(2), None]),
            vis(0, &[Some(1), Some(6)]),
            vis(1, &[Some(2), Some(6)]),
        ]
        .into_iter()
        .collect();
        assert_eq!(z.states, expected);
    }

    /// Lemma 12 on Fig. 1: every reachable visible state is in Z.
    #[test]
    fn z_overapproximates_visible_reachability() {
        let cpds = fig1();
        let z = compute_z(&cpds);
        let mut engine =
            cuba_explore::ExplicitEngine::new(cpds, cuba_explore::ExploreBudget::default());
        for _ in 0..8 {
            engine.advance().unwrap();
        }
        for v in engine.visible_total() {
            assert!(z.states.contains(v), "Z misses reachable visible {v}");
        }
    }

    /// The key-based `G ∩ Z` equals the intersection of the
    /// materialized sets, in sorted order (Ex. 14 on Fig. 1).
    #[test]
    fn generators_in_z_is_the_sorted_intersection() {
        let cpds = fig1();
        let gz = generators_in_z(&cpds, &Interrupt::none()).unwrap();
        let expected = GeneratorSet::from_cpds(&cpds).intersect(compute_z(&cpds).states.iter());
        assert_eq!(gz, expected);
        assert_eq!(
            gz,
            vec![vis(0, &[Some(1), None]), vis(0, &[Some(1), Some(6)])]
        );
    }

    /// A fired interrupt stops the search and yields no partial set.
    #[test]
    fn generators_in_z_honours_the_interrupt() {
        let token = cuba_explore::CancelToken::new();
        token.cancel();
        let interrupt = Interrupt::none().with_cancel(token);
        assert_eq!(
            generators_in_z(&fig1(), &interrupt),
            Err(ExploreError::Cancelled)
        );
    }

    #[test]
    fn pop_guesses_every_emerging_symbol() {
        // Two pushes with distinct below-symbols, one pop.
        let mut b = PdsBuilder::new(2, 4);
        b.push(q(0), s(0), q(0), s(1), s(2)).unwrap();
        b.push(q(0), s(1), q(0), s(0), s(3)).unwrap();
        b.pop(q(1), s(0), q(1)).unwrap();
        let pds = b.build().unwrap();
        let trans = thread_abstraction(&pds);
        let pops: Vec<&AbstractTransition> = trans
            .iter()
            .filter(|t| {
                t.from
                    == ThreadVisible {
                        q: q(1),
                        top: Some(s(0)),
                    }
            })
            .collect();
        // ε + the two emerging symbols {2, 3}.
        assert_eq!(pops.len(), 3);
        let tops: HashSet<Option<StackSym>> = pops.iter().map(|t| t.to.top).collect();
        assert_eq!(tops, HashSet::from([None, Some(s(2)), Some(s(3))]));
    }

    #[test]
    fn empty_stack_actions_abstracted() {
        let mut b = PdsBuilder::new(2, 1);
        b.from_empty(q(0), q(1), Some(s(0))).unwrap();
        b.from_empty(q(1), q(0), None).unwrap();
        let pds = b.build().unwrap();
        let trans = thread_abstraction(&pds);
        let strings: HashSet<String> = trans.iter().map(|t| t.to_string()).collect();
        assert_eq!(
            strings,
            HashSet::from([
                "(0,eps) |-> (1,0)".to_owned(),
                "(1,eps) |-> (0,eps)".to_owned(),
            ])
        );
    }
}
