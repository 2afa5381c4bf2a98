use cuba_explore::{ExplicitEngine, ExploreBudget, LayerView, Witness};
use cuba_pds::Cpds;

use crate::engine::{Backend, Engine, EngineParams, RoundCtx, RoundInfo, RoundOutcome};
use crate::{ConvergenceMethod, CubaError, EngineUsed, GrowthLog, Property, Verdict};

/// Scheme 1 as a resumable round-stepper over the stutter-free state
/// sequence `(Rk)` (explicit backend, the paper's `Scheme 1(Rk)`, §4)
/// or `(Sk)` (symbolic backend): compute rounds until a violation
/// appears or a plateau is observed; by Lemma 7 a plateau of `(Rk)`
/// *is* a collapse, so "safe" answers are sound.
///
/// The symbolic variant is usable when FCR fails, e.g. the Fig. 2
/// program of Ex. 8 where `R1 ⊊ R2 = R3` and every `Rk` is infinite:
/// a round that produces no new symbolic state soundly implies
/// `Rk+1 ⊆ Rk`, and stutter-freeness of `(Rk)` then gives
/// convergence.
#[derive(Debug)]
pub(crate) struct Scheme1Engine {
    cpds: Cpds,
    property: Property,
    budget: ExploreBudget,
    max_k: usize,
    backend: Backend,
    growth: GrowthLog,
    next_k: usize,
    /// `states` at the last computed bound (bound-indexed). Doubles as
    /// the previous round's count when computing `delta_states`.
    states: usize,
    verdict: Option<Verdict>,
}

impl Scheme1Engine {
    /// Scheme 1 over the layers of `backend`.
    pub(crate) fn new(
        cpds: &Cpds,
        property: &Property,
        params: &EngineParams,
        backend: Backend,
    ) -> Self {
        Scheme1Engine {
            cpds: cpds.clone(),
            property: property.clone(),
            budget: params.budget.clone(),
            max_k: params.max_k,
            backend,
            growth: GrowthLog::new(),
            next_k: 0,
            states: 0,
            verdict: None,
        }
    }

    fn conclude(&mut self, round: Option<RoundInfo>, verdict: Verdict) -> RoundOutcome {
        self.verdict = Some(verdict.clone());
        RoundOutcome::Concluded { round, verdict }
    }

    /// The violation verdict for layer `k`, if any, with a witness
    /// (parent links for the explicit backend, bounded search for the
    /// symbolic one).
    fn violation_at(&self, view: &LayerView) -> Option<Verdict> {
        let k = view.k;
        if self.backend.is_symbolic() {
            self.property.find_violation(view.new_visible.iter())?;
            Some(crate::alg3::attach_symbolic_witness(
                Verdict::Unsafe { k, witness: None },
                &self.cpds,
                &self.property,
                &self.budget,
            ))
        } else {
            let witness = self
                .backend
                .with_explicit(|e| explicit_violation_witness(e, &self.property, k))??;
            Some(Verdict::Unsafe {
                k,
                witness: Some(witness),
            })
        }
    }
}

impl Engine for Scheme1Engine {
    fn id(&self) -> EngineUsed {
        if self.backend.is_symbolic() {
            EngineUsed::Scheme1Symbolic
        } else {
            EngineUsed::Scheme1Explicit
        }
    }

    fn step(&mut self, ctx: &mut RoundCtx) -> Result<RoundOutcome, CubaError> {
        if let Some(verdict) = &self.verdict {
            return Ok(RoundOutcome::Concluded {
                round: None,
                verdict: verdict.clone(),
            });
        }
        ctx.interrupt.check().map_err(CubaError::Explore)?;
        let (sequence, collapse_rule) = if self.backend.is_symbolic() {
            ("(Sk)", ConvergenceMethod::SkCollapse)
        } else {
            ("(Rk)", ConvergenceMethod::RkCollapse)
        };
        if self.next_k > self.max_k {
            let verdict = Verdict::Undetermined {
                reason: format!("no collapse of {sequence} within {} rounds", self.max_k),
            };
            return Ok(self.conclude(None, verdict));
        }
        let started = std::time::Instant::now();
        let k = self.next_k;
        let interrupt = self.budget.interrupt.merged(&ctx.interrupt);
        let live = self.backend.ensure(k, &interrupt)?;
        let view = self.backend.view(k);
        let replayed = k > 0 && !live;
        let event = self.growth.push(view.states);
        self.next_k += 1;
        let states = view.states;
        let info = RoundInfo {
            k,
            states,
            delta_states: if replayed {
                0
            } else {
                states.saturating_sub(self.states)
            },
            elapsed: started.elapsed().max(std::time::Duration::from_nanos(1)),
            event,
            replayed,
        };
        self.states = states;
        if let Some(verdict) = self.violation_at(&view) {
            return Ok(self.conclude(Some(info), verdict));
        }
        if view.collapsed {
            let verdict = Verdict::Safe {
                k: k - 1,
                method: collapse_rule,
            };
            return Ok(self.conclude(Some(info), verdict));
        }
        Ok(RoundOutcome::Continue(info))
    }

    fn rounds(&self) -> usize {
        self.next_k.saturating_sub(1).min(self.max_k)
    }

    fn states(&self) -> usize {
        self.states
    }

    fn growth(&self) -> &GrowthLog {
        &self.growth
    }

    fn verdict(&self) -> Option<&Verdict> {
        self.verdict.as_ref()
    }
}

/// Finds a state in layer `k` whose visible projection violates the
/// property, and reconstructs its witness path.
fn explicit_violation_witness(
    engine: &ExplicitEngine,
    property: &Property,
    k: usize,
) -> Option<Witness> {
    for state in engine.layer(k) {
        if property.violated_by(&state.visible()) {
            let id = engine.find(state).expect("layer states are stored");
            return Some(engine.witness(id));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1, fig2, run_engine};
    use crate::{EngineKind, SequenceEvent};
    use cuba_pds::{SharedState, StackSym, VisibleState};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    /// The verdict of a Scheme 1 run with default parameters.
    fn scheme1(kind: EngineKind, cpds: &Cpds, property: &Property) -> Verdict {
        run_engine(kind, cpds, property, &EngineParams::default())
            .unwrap()
            .1
    }

    /// Ex. 8 shape on Fig. 2: symbolic Scheme 1 proves convergence even
    /// though every `Rk` is infinite.
    #[test]
    fn fig2_symbolic_scheme1_converges() {
        match scheme1(EngineKind::Scheme1Symbolic, &fig2(), &Property::True) {
            Verdict::Safe { k, method } => {
                assert_eq!(method, ConvergenceMethod::SkCollapse);
                assert!(k <= 6, "collapse too late: k={k}");
            }
            other => panic!("expected Safe, got {other:?}"),
        }
    }

    /// On Fig. 1, (Rk) diverges; Scheme 1(Rk) must come back
    /// undetermined at the round limit (this is why Alg. 3 exists).
    #[test]
    fn fig1_explicit_scheme1_diverges() {
        let params = EngineParams {
            max_k: 10,
            ..EngineParams::default()
        };
        let (engine, verdict, _) = run_engine(
            EngineKind::Scheme1Explicit,
            &fig1(),
            &Property::True,
            &params,
        )
        .unwrap();
        assert!(matches!(verdict, Verdict::Undetermined { .. }));
        assert_eq!(engine.rounds(), 10);
        // |Rk| strictly grows every round on Fig. 1.
        let sizes = engine.growth().sizes();
        for w in sizes.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    /// Unsafe property on Fig. 1: ⟨3|2,4⟩ is reachable at k = 2, and
    /// Scheme 1 finds it with a replayable witness.
    #[test]
    fn fig1_unsafe_with_witness() {
        let cpds = fig1();
        let property = Property::never_visible(vis(3, &[Some(2), Some(4)]));
        match scheme1(EngineKind::Scheme1Explicit, &cpds, &property) {
            Verdict::Unsafe { k, witness } => {
                assert_eq!(k, 2);
                let w = witness.expect("explicit engine yields witnesses");
                assert!(w.replay(&cpds));
                assert!(property.violated_by(&w.end().visible()));
                assert!(w.num_contexts() <= 2);
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    /// The same bug is found symbolically at the same bound — and the
    /// bounded witness search attaches a concrete, replayable path.
    #[test]
    fn fig1_unsafe_symbolic_same_bound_with_witness() {
        let cpds = fig1();
        let property = Property::never_visible(vis(3, &[Some(2), Some(4)]));
        match scheme1(EngineKind::Scheme1Symbolic, &cpds, &property) {
            Verdict::Unsafe { k, witness } => {
                assert_eq!(k, 2);
                let w = witness.expect("bounded search reconstructs the path");
                assert!(w.replay(&cpds));
                assert!(w.num_contexts() <= 2);
                assert!(property.violated_by(&w.end().visible()));
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    /// Symbolic refutations on FCR-violating programs also get
    /// witnesses: an assertion-style target inside Fig. 2.
    #[test]
    fn fig2_symbolic_refutation_carries_witness() {
        let cpds = fig2();
        // ⟨x=1|4,9⟩ is the Ex. 8 state, reachable within 2 contexts.
        let property = Property::never_visible(vis(2, &[Some(4), Some(9)]));
        match scheme1(EngineKind::Scheme1Symbolic, &cpds, &property) {
            Verdict::Unsafe { k, witness } => {
                assert_eq!(k, 2);
                let w = witness.expect("witness search works without FCR");
                assert!(w.replay(&cpds));
                assert!(w.num_contexts() <= 2);
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    /// Violation already in the initial state is reported at k = 0.
    #[test]
    fn initial_violation_is_k0() {
        let cpds = fig1();
        let property = Property::never_visible(vis(0, &[Some(1), Some(4)]));
        for kind in [EngineKind::Scheme1Explicit, EngineKind::Scheme1Symbolic] {
            assert!(matches!(
                scheme1(kind, &cpds, &property),
                Verdict::Unsafe { k: 0, .. }
            ));
        }
    }

    /// Round-stepping surface: the diverging Fig. 1 run yields one
    /// `Continue` per bound, then concludes Undetermined exactly at
    /// the round limit (with no final round computed).
    #[test]
    fn engine_steps_until_round_limit() {
        let params = EngineParams {
            max_k: 4,
            ..EngineParams::default()
        };
        let mut engine = crate::build_engine(
            EngineKind::Scheme1Explicit,
            &fig1(),
            &Property::True,
            &params,
        );
        let mut ctx = RoundCtx::new();
        for expected_k in 0..=4usize {
            match engine.step(&mut ctx).unwrap() {
                RoundOutcome::Continue(info) => {
                    assert_eq!(info.k, expected_k);
                    assert_eq!(info.event, SequenceEvent::Grew);
                }
                other => panic!("expected Continue at k={expected_k}, got {other:?}"),
            }
        }
        match engine.step(&mut ctx).unwrap() {
            RoundOutcome::Concluded {
                round: None,
                verdict: Verdict::Undetermined { .. },
            } => {}
            other => panic!("expected Undetermined conclusion, got {other:?}"),
        }
        assert_eq!(engine.rounds(), 4);
    }
}
