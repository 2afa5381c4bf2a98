use std::collections::BTreeSet;

use cuba_pds::{code_top, Cpds, SharedState, StackSym, VisibleState};

/// The syntactic generator set `G` of Eq. 2 (Thm. 11).
///
/// A visible state `⟨q|σ1,…,σn⟩` is a *generator* if for some thread
/// `i`, `(q,ε)` is the target of a pop edge in `Δi` and `σi` is either
/// `ε` or a symbol a pop of thread `i` can reveal: one that some push
/// of `Δi` writes directly underneath the pushed symbol (an *emerging
/// symbol*), or one below the top of the thread's initial stack
/// ([`Cpds::emerging_symbols`]). Intuition: after a plateau of
/// `(T(Rk))`, the first genuinely new visible state must have been
/// produced by a pop — pushes and overwrites are determined by the
/// visible state alone and would have fired one plateau earlier (the
/// contradiction in the proof of Thm. 11).
///
/// `G` leaves threads `j ≠ i` unconstrained, so the set is huge; it is
/// kept as a predicate and only ever *intersected* with the finite
/// overapproximation `Z` ([`compute_z`](crate::compute_z)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorSet {
    /// Per thread: shared states that pop edges can move to.
    pop_targets: Vec<BTreeSet<SharedState>>,
    /// Per thread: the symbols a pop can reveal.
    emerging: Vec<BTreeSet<StackSym>>,
}

impl GeneratorSet {
    /// Computes the generator predicate for a CPDS — purely syntactic,
    /// one pass over each thread's program.
    pub fn from_cpds(cpds: &Cpds) -> Self {
        let mut pop_targets = Vec::with_capacity(cpds.num_threads());
        let mut emerging = Vec::with_capacity(cpds.num_threads());
        for (i, pds) in cpds.threads().iter().enumerate() {
            pop_targets.push(pds.pop_targets().into_iter().collect());
            emerging.push(cpds.emerging_symbols(i).into_iter().collect());
        }
        GeneratorSet {
            pop_targets,
            emerging,
        }
    }

    /// Whether `v ∈ G` per Eq. 2.
    pub fn contains(&self, v: &VisibleState) -> bool {
        self.contains_key(&v.key())
    }

    /// Whether the visible state keyed `(q, [top code; n])` (see
    /// [`VisibleState::key`]) is in `G`.
    pub(crate) fn contains_key(&self, key: &[u32]) -> bool {
        let q = SharedState(key[0]);
        key[1..].iter().enumerate().any(|(i, &code)| {
            self.pop_targets[i].contains(&q)
                && code_top(code).is_none_or(|sym| self.emerging[i].contains(&sym))
        })
    }

    /// The intersection `G ∩ Z`, the finite set the Alg. 3 convergence
    /// test compares against `T(Rk)`.
    pub fn intersect<'a, I>(&self, z: I) -> Vec<VisibleState>
    where
        I: IntoIterator<Item = &'a VisibleState>,
    {
        let mut out: Vec<VisibleState> = z
            .into_iter()
            .filter(|v| self.contains(v))
            .cloned()
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{CpdsBuilder, PdsBuilder};

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

    /// Ex. 14: G for Fig. 1 contains exactly the visible states with
    /// q = 0 and thread 2's top ∈ {ε, 6} (thread 1 unconstrained).
    #[test]
    fn fig1_generator_predicate() {
        let g = GeneratorSet::from_cpds(&fig1());
        assert!(g.contains(&vis(0, &[Some(1), None])));
        assert!(g.contains(&vis(0, &[Some(1), Some(6)])));
        assert!(g.contains(&vis(0, &[Some(2), None])));
        assert!(g.contains(&vis(0, &[Some(2), Some(6)])));
        // ε for thread 1 is allowed by Eq. 2 (unconstrained):
        assert!(g.contains(&vis(0, &[None, Some(6)])));
        // Wrong shared state or non-emerging top:
        assert!(!g.contains(&vis(1, &[Some(1), Some(6)])));
        assert!(!g.contains(&vis(0, &[Some(1), Some(4)])));
        assert!(!g.contains(&vis(0, &[Some(1), Some(5)])));
    }

    /// Ex. 14's intersection with the Fig. 3 Z set.
    #[test]
    fn fig1_g_cap_z() {
        let g = GeneratorSet::from_cpds(&fig1());
        let z = [
            vis(0, &[Some(1), Some(4)]),
            vis(1, &[Some(2), Some(4)]),
            vis(2, &[Some(2), Some(5)]),
            vis(3, &[Some(2), Some(4)]),
            vis(0, &[Some(1), None]),
            vis(1, &[Some(2), None]),
            vis(0, &[Some(1), Some(6)]),
            vis(1, &[Some(2), Some(6)]),
        ];
        let gz = g.intersect(z.iter());
        assert_eq!(
            gz,
            vec![vis(0, &[Some(1), None]), vis(0, &[Some(1), Some(6)])]
        );
    }

    #[test]
    fn thread_without_pops_contributes_nothing() {
        let g = GeneratorSet::from_cpds(&fig1());
        // Thread 1 (index 0) has no pop edges, so thread 2 alone
        // decides: its pops target 0 and reveal ε or 6.
        for q1 in 0..4 {
            for top1 in [None, Some(1), Some(2)] {
                for top2 in [None, Some(4), Some(5), Some(6)] {
                    let want = q1 == 0 && matches!(top2, None | Some(6));
                    assert_eq!(g.contains(&vis(q1, &[top1, top2])), want);
                }
            }
        }
    }

    /// A pop can reveal a symbol the thread started with below its
    /// top, so such a symbol makes a generator too.
    #[test]
    fn deep_initial_stack_symbols_are_generators() {
        let mut p = PdsBuilder::new(2, 3);
        p.pop(q(0), s(0), q(1)).unwrap();
        let cpds = CpdsBuilder::new(2, q(0))
            .thread(p.build().unwrap(), [s(0), s(2)])
            .build()
            .unwrap();
        let g = GeneratorSet::from_cpds(&cpds);
        assert!(g.contains(&vis(1, &[Some(2)])));
        assert!(g.contains(&vis(1, &[None])));
        assert!(!g.contains(&vis(1, &[Some(0)])));
    }

    #[test]
    fn upward_closure_sanity() {
        // Generator-ness only depends on (q, σi) for a popping thread;
        // flipping another thread's top keeps membership.
        let g = GeneratorSet::from_cpds(&fig1());
        let base = vis(0, &[Some(1), Some(6)]);
        let flipped = vis(0, &[Some(2), Some(6)]);
        assert_eq!(g.contains(&base), g.contains(&flipped));
    }
}
