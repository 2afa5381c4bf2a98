use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use cuba_explore::{ExploreError, Interrupt};
use cuba_pds::{top_code, Cpds, KeyTable, Rhs, ThreadVisible, VisibleState};

use crate::GeneratorSet;

/// A transition of the context-insensitive finite-state abstraction
/// `M` (Alg. 2): firing the owning thread's action `action` takes
/// `(q,σ)` to `(q',σ')` over thread-visible states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbstractTransition {
    /// Source thread-visible state.
    pub from: ThreadVisible,
    /// Target thread-visible state.
    pub to: ThreadVisible,
    /// Index of the thread's action that induces the transition.
    pub action: usize,
}

impl std::fmt::Display for AbstractTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} |-> {}", self.from, self.to)
    }
}

/// Builds thread `i`'s finite-state abstraction `Mi` (paper Alg. 2):
/// the stack is cut off at size 1; each action becomes a transition on
/// `(q, T(w'))`, and each pop action, besides revealing `ε`, guesses
/// every symbol a pop can reveal ([`Cpds::emerging_symbols`]).
/// Transitions come in action order, each `(from, to, action)` once.
///
/// # Panics
///
/// Panics if `i` is out of range.
pub fn thread_abstraction(cpds: &Cpds, i: usize) -> Vec<AbstractTransition> {
    // Lines 2–3: collect emerging symbols E.
    let emerging = cpds.emerging_symbols(i);
    let mut out: Vec<AbstractTransition> = Vec::new();
    for (action, a) in cpds.thread(i).actions().iter().enumerate() {
        let from = ThreadVisible { q: a.q, top: a.top };
        // Line 6: the action itself, with the stack cut at one symbol.
        let top = match a.rhs {
            Rhs::Empty => None,
            Rhs::One(s) => Some(s),
            Rhs::Two { top, .. } => Some(top),
        };
        // Lines 7–9: pops context-insensitively guess what emerges.
        let guesses: &[_] = if a.is_pop() { &emerging } else { &[] };
        for top in std::iter::once(top).chain(guesses.iter().map(|&rho| Some(rho))) {
            out.push(AbstractTransition {
                from,
                to: ThreadVisible { q: a.q_post, top },
                action,
            });
        }
    }
    out
}

/// The context-insensitive overapproximation `Z ⊇ T(R)` (paper
/// §4.1.3, Lemma 12): the visible states [`explore_z`] reaches.
/// Algorithm 3 only needs its generators, which [`generators_in_z`]
/// computes without materializing the rest.
pub fn compute_z(cpds: &Cpds) -> HashSet<VisibleState> {
    let z = z_table(cpds, &Interrupt::none()).expect("an unarmed interrupt never fires");
    (0..z.len() as u32)
        .map(|id| VisibleState::from_key(z.key(id)))
        .collect()
}

/// The generator intersection `G ∩ Z` (Def. 10 with Lemma 12), sorted
/// — the convergence certificate candidates of Algorithm 3. Equal to
/// `GeneratorSet::from_cpds(cpds).intersect(&compute_z(cpds))`, but
/// only the generators are materialized as [`VisibleState`]s.
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
    let z = z_table(cpds, interrupt)?;
    let generators = GeneratorSet::from_cpds(cpds);
    let mut ids: Vec<u32> = (0..z.len() as u32)
        .filter(|&id| generators.contains_key(z.key(id)))
        .collect();
    // Key order is `VisibleState` order.
    ids.sort_unstable_by(|&a, &b| z.key(a).cmp(z.key(b)));
    Ok(ids
        .into_iter()
        .map(|id| VisibleState::from_key(z.key(id)))
        .collect())
}

/// How often (in visited states) the `Z` search polls its interrupt.
const Z_POLL_PERIOD: u32 = 256;

/// One thread's abstract moves `(q, code) ↦ [(q', code', action)]`.
type MovesBySource = HashMap<(u32, u32), Vec<(u32, u32, u32)>>;

/// Explores `Mn`, the asynchronous product of the
/// [`thread_abstraction`]s, breadth-first from `T(initial state)` over
/// visible keys `(q, [top code; n])` (see [`VisibleState::key`]). The
/// returned table holds exactly `Z`; its insertion order is the BFS
/// order, so the table doubles as the queue and nothing is allocated
/// per state.
///
/// Every edge walked, to a new state or not, goes to `visit` in walk
/// order as `(from, to, thread, action)`: the ids of its two states in
/// the table, the moving thread, and the index of its action. When
/// `visit` breaks, the search stops and returns `Ok(None)`: no partial
/// table.
///
/// # Errors
///
/// The interrupt's error when it fires (polled every 256 states);
/// nothing partial is returned.
pub fn explore_z(
    cpds: &Cpds,
    interrupt: &Interrupt,
    mut visit: impl FnMut(u32, u32, usize, usize) -> ControlFlow<()>,
) -> Result<Option<KeyTable>, ExploreError> {
    let moves: Vec<MovesBySource> = (0..cpds.num_threads())
        .map(|i| {
            let mut by_source = MovesBySource::new();
            for t in thread_abstraction(cpds, i) {
                by_source
                    .entry((t.from.q.0, top_code(t.from.top)))
                    .or_default()
                    .push((t.to.q.0, top_code(t.to.top), t.action as u32));
            }
            by_source
        })
        .collect();
    let mut key = cpds.initial_state().visible().key();
    let mut z = KeyTable::new(key.len());
    z.insert(&key);
    let mut from = 0u32;
    while (from as usize) < z.len() {
        if from.is_multiple_of(Z_POLL_PERIOD) {
            interrupt.check()?;
        }
        key.clear();
        key.extend_from_slice(z.key(from));
        let q = key[0];
        for (thread, by_source) in moves.iter().enumerate() {
            let code = key[thread + 1];
            if let Some(targets) = by_source.get(&(q, code)) {
                for &(q2, code2, action) in targets {
                    key[0] = q2;
                    key[thread + 1] = code2;
                    let (to, _) = z.insert(&key);
                    if visit(from, to, thread, action as usize).is_break() {
                        return Ok(None);
                    }
                }
                key[0] = q;
                key[thread + 1] = code;
            }
        }
        from += 1;
    }
    Ok(Some(z))
}

/// [`explore_z`] with a visitor that never stops it.
fn z_table(cpds: &Cpds, interrupt: &Interrupt) -> Result<KeyTable, ExploreError> {
    explore_z(cpds, interrupt, |_, _, _, _| ControlFlow::Continue(()))
        .map(|z| z.expect("only the visitor stops the search"))
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
        let t1 = thread_abstraction(&cpds, 0);
        // e1: (0,1) ↦ (1,2); e2: (3,2) ↦ (0,1)
        assert_eq!(t1.len(), 2);
        let t2 = thread_abstraction(&cpds, 1);
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
        assert_eq!(z, expected);
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
            assert!(z.contains(&v), "Z misses reachable visible {v}");
        }
    }

    /// The key-based `G ∩ Z` equals the intersection of the
    /// materialized sets, in sorted order (Ex. 14 on Fig. 1).
    #[test]
    fn generators_in_z_is_the_sorted_intersection() {
        let cpds = fig1();
        let gz = generators_in_z(&cpds, &Interrupt::none()).unwrap();
        let expected = GeneratorSet::from_cpds(&cpds).intersect(&compute_z(&cpds));
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

    /// A one-thread system running `pds` from `stack` (top first).
    fn single(pds: cuba_pds::Pds, stack: &[u32]) -> Cpds {
        CpdsBuilder::new(pds.num_shared(), q(0))
            .thread(pds, stack.iter().map(|&n| s(n)))
            .build()
            .unwrap()
    }

    #[test]
    fn pop_guesses_every_emerging_symbol() {
        // Two pushes with distinct below-symbols, one pop.
        let mut b = PdsBuilder::new(2, 4);
        b.push(q(0), s(0), q(0), s(1), s(2)).unwrap();
        b.push(q(0), s(1), q(0), s(0), s(3)).unwrap();
        b.pop(q(1), s(0), q(1)).unwrap();
        let trans = thread_abstraction(&single(b.build().unwrap(), &[0]), 0);
        let pops: Vec<&AbstractTransition> = trans.iter().filter(|t| t.action == 2).collect();
        // ε + the two emerging symbols {2, 3}.
        assert_eq!(pops.len(), 3);
        let tops: HashSet<Option<StackSym>> = pops.iter().map(|t| t.to.top).collect();
        assert_eq!(tops, HashSet::from([None, Some(s(2)), Some(s(3))]));
    }

    /// Pops also guess the symbols below the top of the initial stack:
    /// the first pop reveals them, though no push writes them.
    #[test]
    fn pop_guesses_the_initial_stack_below_its_top() {
        let mut b = PdsBuilder::new(2, 3);
        b.pop(q(0), s(0), q(1)).unwrap();
        b.overwrite(q(1), s(2), q(0), s(1)).unwrap();
        let cpds = single(b.build().unwrap(), &[0, 2]);
        let strings: HashSet<String> = thread_abstraction(&cpds, 0)
            .iter()
            .map(|t| t.to_string())
            .collect();
        assert_eq!(
            strings,
            HashSet::from([
                "(0,0) |-> (1,eps)".to_owned(),
                "(0,0) |-> (1,2)".to_owned(),
                "(1,2) |-> (0,1)".to_owned(),
            ])
        );
        let z = compute_z(&cpds);
        assert!(z.contains(&vis(0, &[Some(1)])), "{z:?}");
        assert_eq!(
            generators_in_z(&cpds, &Interrupt::none()).unwrap(),
            vec![vis(1, &[None]), vis(1, &[Some(2)])]
        );
    }

    #[test]
    fn empty_stack_actions_abstracted() {
        let mut b = PdsBuilder::new(2, 1);
        b.from_empty(q(0), q(1), Some(s(0))).unwrap();
        b.from_empty(q(1), q(0), None).unwrap();
        let trans = thread_abstraction(&single(b.build().unwrap(), &[]), 0);
        let strings: HashSet<String> = trans.iter().map(|t| t.to_string()).collect();
        assert_eq!(
            strings,
            HashSet::from([
                "(0,eps) |-> (1,0)".to_owned(),
                "(1,eps) |-> (0,eps)".to_owned(),
            ])
        );
    }

    /// The search reports every edge it walks, revisits included, and
    /// a visitor that breaks stops it without a table.
    #[test]
    fn explore_z_reports_every_edge_and_stops_on_request() {
        let cpds = fig1();
        let mut edges = Vec::new();
        let z = explore_z(&cpds, &Interrupt::none(), |from, to, thread, action| {
            edges.push((from, to, thread, action));
            ControlFlow::Continue(())
        })
        .unwrap()
        .unwrap();
        assert_eq!(z.len(), 8);
        assert_eq!(edges.len(), 8);
        // ⟨0|1,4⟩ → ⟨1|2,4⟩ by thread 1's first action, Fig. 1's e1.
        assert_eq!(edges[0], (0, 1, 0, 0));
        assert!(edges.iter().all(|&(from, to, _, _)| from < 8 && to < 8));
        let mut seen = 0;
        let stopped = explore_z(&cpds, &Interrupt::none(), |_, _, _, _| {
            seen += 1;
            if seen == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(matches!(stopped, Ok(None)));
        assert_eq!(seen, 3);
    }
}
