//! Bounded witness search: reconstructs a concrete counterexample path
//! for refutations produced by the *symbolic* engines, which track
//! language-level state sets and therefore have no parent links.
//!
//! Once a violation is known to exist within `max_contexts` contexts,
//! a witness is a finite path, so an iterative-deepening search over
//! the number of steps per context is complete: for some finite step
//! budget the witness fits. Each probe is a plain BFS over
//! `(state, contexts used, steps left, active thread)` tuples, bounded
//! by the exploration budget.

use std::collections::{HashSet, VecDeque};

use cuba_pds::{Cpds, GlobalState, ThreadId, VisibleState};

use crate::{ExploreBudget, Interrupt, Witness, WitnessStep};

/// Step budgets tried by the iterative deepening.
const DEEPENING: [usize; 5] = [4, 8, 16, 32, 64];

/// Searches for a path of at most `max_contexts` contexts from the
/// initial state to a state whose visible projection satisfies
/// `violates`. Returns `None` when no witness is found within the
/// iterative-deepening step limits or the exploration budget, or when
/// `interrupt` fires — the refutation itself remains valid, only the
/// path reconstruction gave up.
pub fn bounded_witness_search(
    cpds: &Cpds,
    violates: &dyn Fn(&VisibleState) -> bool,
    max_contexts: usize,
    budget: &ExploreBudget,
    interrupt: &Interrupt,
) -> Option<Witness> {
    let init = cpds.initial_state();
    if violates(&init.visible()) {
        return Some(Witness {
            start: init,
            steps: Vec::new(),
        });
    }
    DEEPENING
        .iter()
        .find_map(|&steps| probe(cpds, violates, max_contexts, steps, budget, interrupt))
}

/// One BFS probe with a fixed per-context step budget.
fn probe(
    cpds: &Cpds,
    violates: &dyn Fn(&VisibleState) -> bool,
    max_contexts: usize,
    steps_per_context: usize,
    budget: &ExploreBudget,
    interrupt: &Interrupt,
) -> Option<Witness> {
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Key {
        state: GlobalState,
        contexts: usize,
        steps_left: usize,
        thread: usize,
    }

    let init = cpds.initial_state();
    let mut arena: Vec<Node> = vec![Node {
        state: init,
        contexts: 0,
        steps_left: 0,
        thread: usize::MAX,
        parent: usize::MAX,
        action_idx: 0,
    }];
    let mut seen: HashSet<Key> = HashSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);

    while let Some(node_idx) = queue.pop_front() {
        if arena.len() > budget.max_states {
            return None;
        }
        // Interruption makes the reconstruction give up; the
        // refutation it decorates remains valid without a path.
        if node_idx.is_multiple_of(crate::explicit::INTERRUPT_POLL_PERIOD)
            && interrupt.check().is_err()
        {
            return None;
        }
        let (state, contexts, steps_left, active) = {
            let n = &arena[node_idx];
            (n.state.clone(), n.contexts, n.steps_left, n.thread)
        };
        for thread in 0..cpds.num_threads() {
            // Either continue the active context or open a new one.
            let (next_contexts, next_steps) = if thread == active && steps_left > 0 {
                (contexts, steps_left - 1)
            } else if contexts < max_contexts {
                (contexts + 1, steps_per_context - 1)
            } else {
                continue;
            };
            let mut successors: Vec<(GlobalState, usize)> = Vec::new();
            cpds.successors_of_thread_into(&state, thread, &mut |succ, action_idx| {
                successors.push((succ, action_idx));
            });
            for (succ, action_idx) in successors {
                if succ.max_stack_len() > budget.max_stack_depth {
                    continue;
                }
                let hit = violates(&succ.visible());
                let key = Key {
                    state: succ.clone(),
                    contexts: next_contexts,
                    steps_left: next_steps,
                    thread,
                };
                if !hit && !seen.insert(key) {
                    continue;
                }
                arena.push(Node {
                    state: succ,
                    contexts: next_contexts,
                    steps_left: next_steps,
                    thread,
                    parent: node_idx,
                    action_idx,
                });
                let new_idx = arena.len() - 1;
                if hit {
                    return Some(reconstruct(&arena, new_idx));
                }
                queue.push_back(new_idx);
            }
        }
    }
    None
}

/// A search-tree node; `parent == usize::MAX` marks the root.
struct Node {
    state: GlobalState,
    contexts: usize,
    steps_left: usize,
    thread: usize,
    parent: usize,
    action_idx: usize,
}

fn reconstruct(arena: &[Node], end: usize) -> Witness {
    let mut rev = Vec::new();
    let mut cur = end;
    while arena[cur].parent != usize::MAX {
        rev.push(WitnessStep {
            thread: ThreadId(arena[cur].thread),
            action_idx: arena[cur].action_idx,
            state: arena[cur].state.clone(),
        });
        cur = arena[cur].parent;
    }
    rev.reverse();
    Witness {
        start: arena[cur].state.clone(),
        steps: rev,
    }
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

    /// Fig. 1 again: find ⟨1|2,6⟩, known to need 5 contexts.
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

    #[test]
    fn finds_deep_target_within_bound() {
        let cpds = fig1();
        let target = cuba_pds::VisibleState::new(q(1), vec![Some(s(2)), Some(s(6))]);
        let w = bounded_witness_search(
            &cpds,
            &|v| v == &target,
            5,
            &ExploreBudget::default(),
            &Interrupt::none(),
        )
        .expect("reachable within 5 contexts");
        assert!(w.replay(&cpds));
        assert!(w.num_contexts() <= 5);
        assert_eq!(w.end().visible(), target);
    }

    #[test]
    fn respects_context_bound() {
        let cpds = fig1();
        let target = cuba_pds::VisibleState::new(q(1), vec![Some(s(2)), Some(s(6))]);
        // The target needs 5 contexts; with 4 it must not be found.
        assert!(bounded_witness_search(
            &cpds,
            &|v| v == &target,
            4,
            &ExploreBudget::default(),
            &Interrupt::none()
        )
        .is_none());
    }

    #[test]
    fn initial_violation_yields_empty_witness() {
        let cpds = fig1();
        let init_visible = cpds.initial_state().visible();
        let w = bounded_witness_search(
            &cpds,
            &|v| v == &init_visible,
            0,
            &ExploreBudget::default(),
            &Interrupt::none(),
        )
        .unwrap();
        assert!(w.is_empty());
    }

    /// Works on a system without FCR (the whole point: symbolic
    /// refutations on Fig. 2-like programs get concrete paths).
    #[test]
    fn works_without_fcr() {
        let mut p = PdsBuilder::new(2, 2);
        p.push(q(0), s(0), q(0), s(0), s(1)).unwrap(); // unbounded pushes
        p.overwrite(q(0), s(0), q(1), s(0)).unwrap();
        let cpds = CpdsBuilder::new(2, q(0))
            .thread(p.build().unwrap(), [s(0)])
            .build()
            .unwrap();
        let w = bounded_witness_search(
            &cpds,
            &|v| v.q == q(1),
            1,
            &ExploreBudget::default(),
            &Interrupt::none(),
        )
        .expect("one overwrite reaches q1");
        assert!(w.replay(&cpds));
        assert_eq!(w.len(), 1);
    }
}
