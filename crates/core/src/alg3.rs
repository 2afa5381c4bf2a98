use std::sync::Arc;

use cuba_explore::{ExplicitEngine, ExploreBudget, ExploreError, Interrupt, LayerView};
use cuba_pds::Cpds;

use crate::engine::{Backend, Engine, EngineParams, RoundCtx, RoundInfo, RoundOutcome};
use crate::{
    ConvergenceMethod, CubaError, EngineUsed, GrowthLog, Property, SequenceEvent, SystemArtifacts,
    Verdict,
};

/// The round logic of Alg. 3, independent of how rounds are produced.
/// Each round supplies the new visible states; the driver checks the
/// property, the plateau condition
/// `|T(Rk−2)| < |T(Rk−1)| = |T(Rk)|`, and the generator condition
/// `G∩Z ⊆ T(Rk)`.
#[derive(Debug)]
struct Alg3Driver {
    property: Property,
    /// Holds `G∩Z`: the system's shared artifacts when a suite cache
    /// is in play, private ones otherwise. The set is computed on the
    /// first plateau that needs it, under that round's interrupt.
    artifacts: Arc<SystemArtifacts>,
    visible_growth: GrowthLog,
    fuse_collapse: bool,
}

impl Alg3Driver {
    fn new(property: &Property, params: &EngineParams) -> Self {
        Alg3Driver {
            property: property.clone(),
            artifacts: params.artifacts.clone().unwrap_or_default(),
            visible_growth: GrowthLog::new(),
            fuse_collapse: params.fuse_collapse,
        }
    }

    /// Processes round `k` from its bound-indexed [`LayerView`]: the
    /// newly seen visible states, the cumulative `|T(Rk)|`, and
    /// whether the state sequence had collapsed by `k`. Returns the
    /// sequence event and the verdict, if any. All queries are
    /// bound-indexed, so a replayed round produces byte-identical
    /// results to a live one.
    ///
    /// # Errors
    ///
    /// The interrupt's error when it fires while `G∩Z` is computed.
    fn round(
        &mut self,
        view: &LayerView,
        backend: &Backend,
        cpds: &Cpds,
        interrupt: &Interrupt,
    ) -> Result<(SequenceEvent, Option<Verdict>), ExploreError> {
        let k = view.k;
        let event = self.visible_growth.push(view.visible);
        if let Some(_v) = self.property.find_violation(view.new_visible.iter()) {
            return Ok((event, Some(Verdict::Unsafe { k, witness: None })));
        }
        // Line 4: a *new* plateau at k−1 triggers the generator test
        // `G∩Z ⊆ T(Rk)`, evaluated against the first-seen bounds so it
        // stays exact when the shared layers run deeper than `k`. It
        // runs before the collapse test, so a round where both rules
        // fire concludes with Alg. 3's own rule. A plateau that fails
        // the test is a stutter (Ex. 14's k = 2): the run skips ahead.
        if k >= 1 && event == SequenceEvent::NewPlateau {
            let g_cap_z = self.artifacts.g_cap_z_within(cpds, interrupt)?;
            if backend.all_seen_by(&g_cap_z, k) {
                return Ok((
                    event,
                    Some(Verdict::Safe {
                        k: k - 1,
                        method: ConvergenceMethod::GeneratorTest,
                    }),
                ));
            }
        }
        if self.fuse_collapse && view.collapsed {
            return Ok((
                event,
                Some(Verdict::Safe {
                    k: k - 1,
                    method: ConvergenceMethod::RkCollapse,
                }),
            ));
        }
        Ok((event, None))
    }
}

/// Algorithm 3 as a resumable round-stepper, one struct for both
/// state representations: over `(T(Rk))` on an explicit backend
/// (paper §4.1.4), over `(T(Sk))` on a symbolic one (the fallback
/// when FCR fails, App. E).
///
/// Each [`step`](Engine::step) computes one more bound and applies the
/// paper's plateau + generator tests.
#[derive(Debug)]
pub(crate) struct Alg3Engine {
    cpds: Cpds,
    property: Property,
    budget: ExploreBudget,
    max_k: usize,
    backend: Backend,
    driver: Alg3Driver,
    next_k: usize,
    /// `states` at the last computed bound (bound-indexed, so shared
    /// layers running deeper do not inflate this engine's report).
    /// Doubles as the previous round's count when computing
    /// `delta_states`.
    states: usize,
    verdict: Option<Verdict>,
}

impl Alg3Engine {
    /// Algorithm 3 over the layers of `backend`.
    pub(crate) fn new(
        cpds: &Cpds,
        property: &Property,
        params: &EngineParams,
        backend: Backend,
    ) -> Self {
        Alg3Engine {
            cpds: cpds.clone(),
            property: property.clone(),
            budget: params.budget.clone(),
            max_k: params.max_k,
            driver: Alg3Driver::new(property, params),
            backend,
            next_k: 0,
            states: 0,
            verdict: None,
        }
    }

    fn conclude(&mut self, round: Option<RoundInfo>, verdict: Verdict) -> RoundOutcome {
        self.verdict = Some(verdict.clone());
        RoundOutcome::Concluded { round, verdict }
    }
}

impl Engine for Alg3Engine {
    fn id(&self) -> EngineUsed {
        // The fused variant attributes an Rk/Sk-collapse conclusion to
        // the Scheme 1 rule it borrowed.
        let collapse = matches!(
            &self.verdict,
            Some(Verdict::Safe {
                method: ConvergenceMethod::RkCollapse | ConvergenceMethod::SkCollapse,
                ..
            })
        );
        match (self.backend.is_symbolic(), collapse) {
            (false, false) => EngineUsed::Alg3Explicit,
            (false, true) => EngineUsed::Scheme1Explicit,
            (true, false) => EngineUsed::Alg3Symbolic,
            (true, true) => EngineUsed::Scheme1Symbolic,
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
        if self.next_k > self.max_k {
            let verdict = Verdict::Undetermined {
                reason: format!("no convergence within {} rounds", self.max_k),
            };
            return Ok(self.conclude(None, verdict));
        }
        let started = std::time::Instant::now();
        let k = self.next_k;
        let interrupt = self.budget.interrupt.merged(&ctx.interrupt);
        let live = self.backend.ensure(k, &interrupt)?;
        let view = self.backend.view(k);
        let replayed = k > 0 && !live;
        let (event, maybe_verdict) =
            self.driver
                .round(&view, &self.backend, &self.cpds, &interrupt)?;
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
        match maybe_verdict {
            None => Ok(RoundOutcome::Continue(info)),
            Some(mut verdict) => {
                if self.backend.is_symbolic() {
                    if let Verdict::Safe { method, .. } = &mut verdict {
                        if *method == ConvergenceMethod::RkCollapse {
                            *method = ConvergenceMethod::SkCollapse;
                        }
                    }
                    verdict =
                        attach_symbolic_witness(verdict, &self.cpds, &self.property, &self.budget);
                } else {
                    verdict = self
                        .backend
                        .with_explicit(|e| attach_witness(verdict.clone(), e, &self.property))
                        .unwrap_or(verdict);
                }
                Ok(self.conclude(Some(info), verdict))
            }
        }
    }

    fn rounds(&self) -> usize {
        self.next_k.saturating_sub(1).min(self.max_k)
    }

    fn states(&self) -> usize {
        self.states
    }

    fn growth(&self) -> &GrowthLog {
        &self.driver.visible_growth
    }

    fn verdict(&self) -> Option<&Verdict> {
        self.verdict.as_ref()
    }
}

/// Reconstructs a concrete path for a symbolic refutation with the
/// bounded witness search (best effort: the refutation stands even
/// when the reconstruction gives up).
pub(crate) fn attach_symbolic_witness(
    verdict: Verdict,
    cpds: &Cpds,
    property: &Property,
    budget: &cuba_explore::ExploreBudget,
) -> Verdict {
    match verdict {
        Verdict::Unsafe { k, witness: None } => {
            let witness =
                cuba_explore::bounded_witness_search(cpds, &|v| property.violated_by(v), k, budget);
            Verdict::Unsafe { k, witness }
        }
        other => other,
    }
}

pub(crate) fn attach_witness(
    verdict: Verdict,
    engine: &ExplicitEngine,
    property: &Property,
) -> Verdict {
    match verdict {
        Verdict::Unsafe { k, witness: None } => {
            let witness = engine
                .layer(k)
                .find(|s| property.violated_by(&s.visible()))
                .and_then(|s| engine.find(s))
                .map(|id| engine.witness(id));
            Verdict::Unsafe { k, witness }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1, fig2, rejected_plateaus, run_engine, unfused};
    use crate::EngineKind;
    use cuba_pds::{SharedState, StackSym, VisibleState};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    /// Ex. 14 end-to-end: Alg. 3 rejects the fake plateau at k = 2 and
    /// concludes safety at the real collapse k = 5 via the generator
    /// test. The collapse test is off to exercise the pure paper
    /// algorithm ((Rk) diverges on Fig. 1, so collapse can't trigger).
    #[test]
    fn fig1_example14_collapse_at_5() {
        let cpds = fig1();
        let (engine, verdict, steps) =
            run_engine(EngineKind::Alg3Explicit, &cpds, &Property::True, &unfused()).unwrap();
        assert_eq!(
            verdict,
            Verdict::Safe {
                k: 5,
                method: ConvergenceMethod::GeneratorTest
            }
        );
        // The fake plateau at k = 2 was rejected.
        assert_eq!(rejected_plateaus(&steps), vec![2]);
        // G∩Z as computed in Ex. 14.
        assert_eq!(
            *crate::SystemArtifacts::new().g_cap_z(&cpds),
            vec![vis(0, &[Some(1), None]), vis(0, &[Some(1), Some(6)])]
        );
        // |T(R0..6)| = 1,3,6,6,7,8,8 (Fig. 1 table).
        assert_eq!(engine.growth().sizes(), &[1, 3, 6, 6, 7, 8, 8]);
    }

    /// The symbolic variant reproduces the same Fig. 1 run.
    #[test]
    fn fig1_symbolic_matches_explicit() {
        let (engine, verdict, steps) = run_engine(
            EngineKind::Alg3Symbolic,
            &fig1(),
            &Property::True,
            &unfused(),
        )
        .unwrap();
        assert_eq!(
            verdict,
            Verdict::Safe {
                k: 5,
                method: ConvergenceMethod::GeneratorTest
            }
        );
        assert_eq!(rejected_plateaus(&steps), vec![2]);
        assert_eq!(engine.growth().sizes(), &[1, 3, 6, 6, 7, 8, 8]);
    }

    /// Alg. 3 over T(Sk) handles the FCR-violating Fig. 2.
    #[test]
    fn fig2_symbolic_proves_safety() {
        let (_, verdict, _) = run_engine(
            EngineKind::Alg3Symbolic,
            &fig2(),
            &Property::True,
            &EngineParams::default(),
        )
        .unwrap();
        match verdict {
            Verdict::Safe { k, .. } => assert!(k <= 6),
            other => panic!("expected Safe, got {other:?}"),
        }
    }

    /// Bug finding: ⟨1|2,6⟩ first appears at k = 5 (Fig. 1 table), and
    /// Alg. 3 reports exactly that bound with a replayable witness.
    #[test]
    fn fig1_unsafe_at_5_with_witness() {
        let cpds = fig1();
        let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        let (_, verdict, _) = run_engine(
            EngineKind::Alg3Explicit,
            &cpds,
            &property,
            &EngineParams::default(),
        )
        .unwrap();
        match verdict {
            Verdict::Unsafe { k, witness } => {
                assert_eq!(k, 5);
                let w = witness.expect("witness available");
                assert!(w.replay(&cpds));
                assert!(property.violated_by(&w.end().visible()));
            }
            other => panic!("expected Unsafe at 5, got {other:?}"),
        }
    }

    /// Alg. 3 is *tight*: for an unreachable target it still stops at
    /// the minimal convergence bound (k = 5 for Fig. 1), not earlier.
    #[test]
    fn alg3_is_tight() {
        let property = Property::never_visible(vis(2, &[Some(1), Some(5)]));
        let (_, verdict, _) =
            run_engine(EngineKind::Alg3Explicit, &fig1(), &property, &unfused()).unwrap();
        assert!(matches!(verdict, Verdict::Safe { k: 5, .. }));
    }

    /// With the state-collapse extension on, Fig. 2's symbolic run may
    /// conclude via Sk collapse; the verdict must still be Safe.
    #[test]
    fn fig2_sk_collapse_extension() {
        let (_, verdict, _) = run_engine(
            EngineKind::Alg3Symbolic,
            &fig2(),
            &Property::True,
            &EngineParams::default(),
        )
        .unwrap();
        assert!(verdict.is_safe());
    }

    /// Round-stepping surface: the engine yields one RoundOutcome per
    /// bound with the Fig. 1 event pattern and repeats its verdict
    /// after conclusion.
    #[test]
    fn engine_steps_match_fig1_events() {
        let (mut engine, verdict, steps) = run_engine(
            EngineKind::Alg3Explicit,
            &fig1(),
            &Property::True,
            &unfused(),
        )
        .unwrap();
        assert!(matches!(verdict, Verdict::Safe { k: 5, .. }));
        let events: Vec<(usize, SequenceEvent)> = steps
            .iter()
            .map(|step| {
                let info = step.round().expect("every step computed a round");
                (info.k, info.event)
            })
            .collect();
        assert_eq!(
            events,
            vec![
                (0, SequenceEvent::Grew),
                (1, SequenceEvent::Grew),
                (2, SequenceEvent::Grew),
                (3, SequenceEvent::NewPlateau), // the fake plateau (Ex. 14)
                (4, SequenceEvent::Grew),
                (5, SequenceEvent::Grew),
                (6, SequenceEvent::NewPlateau), // the real collapse
            ]
        );
        // Stepping a concluded engine repeats the verdict, computes
        // nothing, and stays side-effect free.
        let rounds = engine.rounds();
        match engine.step(&mut RoundCtx::new()).unwrap() {
            RoundOutcome::Concluded { round: None, .. } => {}
            other => panic!("expected repeated conclusion, got {other:?}"),
        }
        assert_eq!(engine.rounds(), rounds);
    }
}
