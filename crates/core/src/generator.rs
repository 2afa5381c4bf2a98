use std::collections::BTreeSet;

use cuba_pds::{Cpds, SharedState, StackSym, VisibleState};

/// The syntactic generator set `G` of Eq. 2 (Thm. 11).
///
/// A visible state `⟨q|σ1,…,σn⟩` is a *generator* if for some thread
/// `i`, `(q,ε)` is the target of a pop edge in `Δi` and `σi` is either
/// `ε` or a symbol that some push of `Δi` writes directly underneath
/// the pushed symbol (an *emerging symbol*). Intuition: after a
/// plateau of `(T(Rk))`, the first genuinely new visible state must
/// have been produced by a pop — pushes and overwrites are determined
/// by the visible state alone and would have fired one plateau
/// earlier (the contradiction in the proof of Thm. 11).
///
/// `G` leaves threads `j ≠ i` unconstrained, so the set is huge; it is
/// kept as a predicate and only ever *intersected* with the finite
/// overapproximation `Z` ([`compute_z`](crate::compute_z)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorSet {
    /// Per thread: shared states that pop edges can move to.
    pop_targets: Vec<BTreeSet<SharedState>>,
    /// Per thread: the emerging symbols `E` of Alg. 2.
    emerging: Vec<BTreeSet<StackSym>>,
}

impl GeneratorSet {
    /// Computes the generator predicate for a CPDS — purely syntactic,
    /// one pass over each thread's program.
    pub fn from_cpds(cpds: &Cpds) -> Self {
        let mut pop_targets = Vec::with_capacity(cpds.num_threads());
        let mut emerging = Vec::with_capacity(cpds.num_threads());
        for pds in cpds.threads() {
            pop_targets.push(pds.pop_targets().into_iter().collect());
            emerging.push(pds.emerging_symbols().into_iter().collect());
        }
        GeneratorSet {
            pop_targets,
            emerging,
        }
    }

    /// Whether `v ∈ G` per Eq. 2.
    pub fn contains(&self, v: &VisibleState) -> bool {
        v.tops.iter().enumerate().any(|(i, top)| {
            self.pop_targets[i].contains(&v.q)
                && match top {
                    None => true,
                    Some(sym) => self.emerging[i].contains(sym),
                }
        })
    }

    /// Whether the visible state keyed `(q, [top code; n])` is in `G`
    /// (codes as in `overapprox::top_code`: `ε` ↦ 0, `σ` ↦ `σ + 1`).
    pub(crate) fn contains_key(&self, key: &[u32]) -> bool {
        let q = SharedState(key[0]);
        key[1..].iter().enumerate().any(|(i, &code)| {
            self.pop_targets[i].contains(&q)
                && (code == 0 || self.emerging[i].contains(&StackSym(code - 1)))
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

    /// Per-thread pop-target sets (diagnostics).
    pub fn pop_targets(&self, thread: usize) -> impl Iterator<Item = SharedState> + '_ {
        self.pop_targets[thread].iter().copied()
    }

    /// Per-thread emerging-symbol sets (diagnostics).
    pub fn emerging_symbols(&self, thread: usize) -> impl Iterator<Item = StackSym> + '_ {
        self.emerging[thread].iter().copied()
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
        // Thread 1 (index 0) has no pop edges:
        assert_eq!(g.pop_targets(0).count(), 0);
        assert_eq!(g.pop_targets(1).collect::<Vec<_>>(), vec![q(0)]);
        assert_eq!(g.emerging_symbols(1).collect::<Vec<_>>(), vec![s(6)]);
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
