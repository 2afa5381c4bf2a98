//! The lint skeleton: `Z`'s search, with its edges kept.
//!
//! The skeleton is the context-insensitive stack-cut-at-one product
//! `Mn` of Alg. 2, walked by [`cuba_core::explore_z`]: the same
//! abstraction and the same search that build `Z` for Algorithm 3's
//! generator test. Its states are `Z`'s visible keys
//! `(q, [top code; n])`. The lint adds what the generator test does
//! not need:
//!
//! * every walked edge, reversed and labeled with the concrete action
//!   that induced it, so a backward pass can name the transitions
//!   lying on some path into a property violation (cone of influence);
//! * per action, whether its left-hand side `(q, σ)` occurs in any
//!   skeleton state, and per shared state, whether any state carries
//!   it.
//!
//! Everything flagged unreachable here is unreachable in the concrete
//! semantics (the skeleton is a superset of the reachable visible
//! states, Lemma 12), which is what makes the unreachable-state and
//! dead-transition lints sound.
//!
//! The product grows exponentially with the thread count, so
//! [`explore`] walks at most [`MAX_SKELETON_EDGES`] edges and fails
//! beyond that rather than return a truncated skeleton.

use std::ops::ControlFlow;

use cuba_core::{explore_z, PropertyCheck};
use cuba_explore::Interrupt;
use cuba_pds::{code_top, Cpds, KeyTable, SharedState};

/// The most skeleton edges one analysis walks. Every edge is one BFS
/// step and one stored predecessor, and a BFS discovers at most
/// edges + 1 states, so this bounds both time and memory. The largest
/// skeleton among the bench suite and the shipped samples, stefan-1/8
/// (196,608 states, 1,703,936 edges), stays well below it.
pub(crate) const MAX_SKELETON_EDGES: usize = 1 << 22;

/// The skeleton has more edges than the cap allows. No partial
/// skeleton is returned: a truncated one would make the unreachable
/// and dead lints false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkeletonTooLarge {
    /// The cap that was exceeded.
    pub max_edges: usize,
}

impl std::fmt::Display for SkeletonTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "context-insensitive skeleton exceeds the lint cap of {} edges; \
             no diagnostics reported",
            self.max_edges
        )
    }
}

impl std::error::Error for SkeletonTooLarge {}

/// The explored skeleton: the overapproximated visible-state space with
/// labeled reverse edges, plus the per-action firability verdicts.
pub(crate) struct Skeleton {
    /// The product's visible states as keys `(q, [top code; n])` (see
    /// [`VisibleState::key`](cuba_pds::VisibleState::key)); a key's id
    /// is its state id.
    pub states: KeyTable,
    /// Reverse adjacency: `preds[v]` lists `(u, thread, action)` for
    /// every abstract edge `u → v`.
    pub preds: Vec<Vec<(u32, u32, u32)>>,
    /// Per thread, per action index: can the action's left-hand side
    /// `(q, top)` occur in any skeleton state?
    pub firable: Vec<Vec<bool>>,
    /// Per shared state: does any skeleton state carry it?
    pub reachable_shared: Vec<bool>,
}

impl Skeleton {
    /// Number of product states explored (`|Z|`).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }
}

/// Explores the skeleton from the initial visible state, walking at
/// most `max_edges` edges.
pub(crate) fn explore(cpds: &Cpds, max_edges: usize) -> Result<Skeleton, SkeletonTooLarge> {
    let mut preds: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new()];
    let mut edges = 0usize;
    let states = explore_z(cpds, &Interrupt::none(), |from, to, thread, action| {
        if edges == max_edges {
            return ControlFlow::Break(());
        }
        edges += 1;
        // Ids count up in discovery order, and a new state's first
        // edge comes right after its discovery.
        if to as usize == preds.len() {
            preds.push(Vec::new());
        }
        preds[to as usize].push((from, thread as u32, action as u32));
        ControlFlow::Continue(())
    })
    .expect("an unarmed interrupt never fires")
    .ok_or(SkeletonTooLarge { max_edges })?;

    let mut reachable_shared = vec![false; cpds.num_shared() as usize];
    let mut firable: Vec<Vec<bool>> = cpds
        .threads()
        .iter()
        .map(|pds| vec![false; pds.actions().len()])
        .collect();
    for id in 0..states.len() as u32 {
        let key = states.key(id);
        let q = SharedState(key[0]);
        reachable_shared[q.0 as usize] = true;
        for (i, pds) in cpds.threads().iter().enumerate() {
            for &idx in pds.actions_from(q, code_top(key[i + 1])) {
                firable[i][idx] = true;
            }
        }
    }
    Ok(Skeleton {
        states,
        preds,
        firable,
        reachable_shared,
    })
}

/// The property-directed backward closure (cone of influence).
pub(crate) struct Relevance {
    /// Per thread, per action index: does the action label some
    /// skeleton edge on a path into a violation of *any* of the checked
    /// properties?
    pub relevant: Vec<Vec<bool>>,
    /// Per property: is the violation unreachable even in the skeleton
    /// (the property holds trivially)?
    pub vacuous: Vec<bool>,
}

/// Walks the skeleton backward from every state violating one of
/// `checks`, one per checked property (`None` for a property that
/// failed validation, which checks nothing), marking the actions that
/// can still influence a violation. Actions left unmarked are
/// property-irrelevant: a cone-of-influence slice could drop them, at
/// the price of changing the convergence bound — see the crate docs
/// for why the default pipeline reports them instead of removing them.
pub(crate) fn relevance(
    cpds: &Cpds,
    skel: &Skeleton,
    checks: &[Option<PropertyCheck>],
) -> Relevance {
    let mut relevant: Vec<Vec<bool>> = cpds
        .threads()
        .iter()
        .map(|pds| vec![false; pds.actions().len()])
        .collect();
    let mut vacuous = vec![true; checks.len()];
    let mut in_cone = vec![false; skel.num_states()];
    let mut stack: Vec<u32> = Vec::new();
    for id in 0..skel.num_states() as u32 {
        let key = skel.states.key(id);
        for (p, check) in checks.iter().enumerate() {
            if check
                .as_ref()
                .is_some_and(|check| check.violated_by_key(key))
            {
                vacuous[p] = false;
                if !in_cone[id as usize] {
                    in_cone[id as usize] = true;
                    stack.push(id);
                }
            }
        }
    }
    // One shared closure over the union of all targets: an edge is
    // relevant as soon as its target can reach any violation.
    while let Some(v) = stack.pop() {
        for &(u, thread, action) in &skel.preds[v as usize] {
            relevant[thread as usize][action as usize] = true;
            if !in_cone[u as usize] {
                in_cone[u as usize] = true;
                stack.push(u);
            }
        }
    }
    Relevance { relevant, vacuous }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_core::Property;
    use cuba_pds::{CpdsBuilder, PdsBuilder, StackSym, VisibleState};

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    /// Fig. 1 of the paper, with names for readability.
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
    fn fig1_everything_firable() {
        let cpds = fig1();
        let skel = explore(&cpds, MAX_SKELETON_EDGES).unwrap();
        assert!(skel.firable.iter().flatten().all(|&f| f));
        assert!(skel.reachable_shared.iter().all(|&r| r));
        // Matches the Fig. 3 Z set: eight visible states.
        assert_eq!(skel.num_states(), 8);
    }

    #[test]
    fn dead_action_detected() {
        // Shared state 9 is never produced, so an action reading it can
        // never fire.
        let mut p1 = PdsBuilder::new(10, 3);
        p1.overwrite(q(0), s(1), q(1), s(2)).unwrap();
        p1.overwrite(q(9), s(1), q(0), s(1)).unwrap(); // dead
        let cpds = CpdsBuilder::new(10, q(0))
            .thread(p1.build().unwrap(), [s(1)])
            .build()
            .unwrap();
        let skel = explore(&cpds, MAX_SKELETON_EDGES).unwrap();
        assert_eq!(skel.firable[0], vec![true, false]);
        assert!(!skel.reachable_shared[9]);
        assert!(skel.reachable_shared[0] && skel.reachable_shared[1]);
    }

    #[test]
    fn deep_initial_stack_symbols_emerge() {
        // Thread starts with stack [0, 1] (0 on top); popping 0 reveals
        // 1, which is not written under any push. The skeleton must
        // still see (1, top 1) so the second action stays firable.
        let mut p = PdsBuilder::new(2, 2);
        p.pop(q(0), s(0), q(1)).unwrap();
        p.overwrite(q(1), s(1), q(0), s(1)).unwrap();
        let cpds = CpdsBuilder::new(2, q(0))
            .thread(p.build().unwrap(), [s(0), s(1)])
            .build()
            .unwrap();
        let skel = explore(&cpds, MAX_SKELETON_EDGES).unwrap();
        assert!(skel.firable[0].iter().all(|&f| f));
    }

    #[test]
    fn edge_cap_fails_instead_of_truncating() {
        // Fig. 1's skeleton: 8 states joined by 8 edges.
        let cpds = fig1();
        let skel = explore(&cpds, 8).unwrap();
        assert_eq!(skel.num_states(), 8);
        assert_eq!(skel.preds.iter().map(Vec::len).sum::<usize>(), 8);
        assert_eq!(
            explore(&cpds, 7).err(),
            Some(SkeletonTooLarge { max_edges: 7 })
        );
        let message = SkeletonTooLarge { max_edges: 7 }.to_string();
        assert!(message.contains("cap of 7 edges"), "{message}");
    }

    #[test]
    fn relevance_follows_paths_to_violation() {
        let cpds = fig1();
        let skel = explore(&cpds, MAX_SKELETON_EDGES).unwrap();
        // ⟨2|·⟩ is reachable; every action can sit on a path to it
        // except nothing — in Fig. 1 all actions feed the loop.
        let check = PropertyCheck::new(&Property::never_shared(q(2)), &cpds);
        let rel = relevance(&cpds, &skel, &[Some(check)]);
        assert_eq!(rel.vacuous, vec![false]);
        assert!(rel.relevant[0]
            .iter()
            .chain(rel.relevant[1].iter())
            .any(|&r| r));
    }

    #[test]
    fn vacuous_property_has_empty_cone() {
        let cpds = fig1();
        let skel = explore(&cpds, MAX_SKELETON_EDGES).unwrap();
        // ⟨2|1,5⟩ is outside Z (Ex. 14): statically safe.
        let target = VisibleState::new(q(2), vec![Some(s(1)), Some(s(5))]);
        let check = PropertyCheck::new(&Property::never_visible(target), &cpds);
        let rel = relevance(&cpds, &skel, &[Some(check)]);
        assert_eq!(rel.vacuous, vec![true]);
        assert!(rel.relevant.iter().flatten().all(|&r| !r));
    }
}
