//! The round-stepper. The paper's three procedures share one loop:
//! compute layer `k` of an observation sequence, check the property
//! on what is new, then apply a convergence rule. They differ only in
//! that rule, so each [`EngineKind`] is a rule setting of one
//! [`Engine`]:
//!
//! * Alg. 3 kinds watch `|T(Rk)|` resp. `|T(Sk)|` and run the
//!   generator test on a new plateau (Thm. 11), then the collapse
//!   test;
//! * Scheme 1 kinds watch `|Rk|` resp. `|Sk|` and run the collapse
//!   test alone (Lemma 7);
//! * the context-bounded refuter watches `|Sk|` and runs no
//!   convergence rule: it can refute, never prove.

use std::sync::Arc;

use cuba_explore::{
    ExplicitEngine, ExploreBudget, ExploreError, Interrupt, LayerView, SharedExplorer,
};
use cuba_pds::Cpds;

use crate::engine::{EngineKind, EngineParams, RoundCtx, RoundInfo, RoundOutcome};
use crate::{
    ConvergenceMethod, CubaError, EngineUsed, GrowthLog, Property, PropertyCheck, SequenceEvent,
    SystemArtifacts, Verdict,
};

/// A resumable CUBA analysis engine: one observation-sequence
/// algorithm, advanced one context bound per [`step`](Engine::step).
///
/// The [`EngineKind`] it was built for picks the backend (explicit
/// `(Rk)` or symbolic `(Sk)` layers), the sequence it observes and
/// the convergence rules it applies (see [`EngineKind`]). Engines
/// are `Send` so sessions can run on any thread (the
/// [`Portfolio::run_suite`](crate::Portfolio::run_suite) workers).
/// `step` after a conclusion is a cheap no-op repeating the verdict,
/// so callers need no extra bookkeeping.
#[derive(Debug)]
pub struct Engine {
    kind: EngineKind,
    cpds: Cpds,
    /// The property, flattened once for this system's visible keys.
    check: PropertyCheck,
    budget: ExploreBudget,
    max_k: usize,
    /// The layers this engine observes: explicit `(Rk)` or symbolic
    /// `(Sk)`, possibly shared with other engines and sessions.
    explorer: Arc<SharedExplorer>,
    /// Holds `G∩Z`: the system's shared artifacts when a suite cache
    /// is in play, private ones otherwise. Alg. 3 kinds compute the
    /// set on the first plateau that needs it, under that round's
    /// interrupt; no other kind asks for it.
    artifacts: Arc<SystemArtifacts>,
    /// The observation log: `|T(Rk)|` resp. `|T(Sk)|` for Alg. 3
    /// kinds, `|Rk|` resp. `|Sk|` otherwise.
    growth: GrowthLog,
    next_k: usize,
    /// `states` at the last computed bound (bound-indexed, so shared
    /// layers running deeper do not inflate this engine's report).
    /// Doubles as the previous round's count when computing
    /// `delta_states`.
    states: usize,
    verdict: Option<Verdict>,
}

impl Engine {
    /// An engine of `kind` over the layers of `explorer`.
    pub(crate) fn new(
        kind: EngineKind,
        cpds: &Cpds,
        property: &Property,
        params: &EngineParams,
        explorer: Arc<SharedExplorer>,
    ) -> Self {
        Engine {
            kind,
            cpds: cpds.clone(),
            check: PropertyCheck::new(property, cpds),
            budget: params.budget.clone(),
            max_k: params.max_k,
            explorer,
            artifacts: params.artifacts.clone().unwrap_or_default(),
            growth: GrowthLog::new(),
            next_k: 0,
            states: 0,
            verdict: None,
        }
    }

    /// Whether the kind runs Alg. 3's generator test.
    fn is_alg3(&self) -> bool {
        matches!(
            self.kind,
            EngineKind::Alg3Explicit | EngineKind::Alg3Symbolic
        )
    }

    /// Which algorithm/representation this engine runs. An Alg. 3
    /// engine that concluded by collapse reports the Scheme 1 rule it
    /// borrowed.
    pub fn id(&self) -> EngineUsed {
        let collapse = matches!(
            &self.verdict,
            Some(Verdict::Safe {
                method: ConvergenceMethod::RkCollapse | ConvergenceMethod::SkCollapse,
                ..
            })
        );
        match (self.kind, collapse) {
            (EngineKind::CbaRefuter, _) => EngineUsed::CbaBaseline,
            (EngineKind::Alg3Explicit, false) => EngineUsed::Alg3Explicit,
            (EngineKind::Alg3Symbolic, false) => EngineUsed::Alg3Symbolic,
            (EngineKind::Alg3Explicit | EngineKind::Scheme1Explicit, _) => {
                EngineUsed::Scheme1Explicit
            }
            (EngineKind::Alg3Symbolic | EngineKind::Scheme1Symbolic, _) => {
                EngineUsed::Scheme1Symbolic
            }
        }
    }

    /// Computes the next round of the engine's observation sequence.
    ///
    /// # Errors
    ///
    /// Budget exhaustion or interruption, as [`CubaError::Explore`].
    /// An errored engine must not be stepped again.
    pub fn step(&mut self, ctx: &mut RoundCtx) -> Result<RoundOutcome, CubaError> {
        if let Some(verdict) = &self.verdict {
            return Ok(RoundOutcome::Concluded {
                round: None,
                verdict: verdict.clone(),
            });
        }
        ctx.interrupt.check().map_err(CubaError::Explore)?;
        if self.next_k > self.max_k {
            let verdict = Verdict::Undetermined {
                reason: self.exhausted(),
            };
            return Ok(self.conclude(None, verdict));
        }
        let started = std::time::Instant::now();
        let k = self.next_k;
        let interrupt = self.budget.interrupt.merged(&ctx.interrupt);
        let live = self.explorer.ensure_layer(k, &interrupt)?;
        let view = self.explorer.view(k);
        let replayed = k > 0 && !live;
        let event = self.growth.push(if self.is_alg3() {
            view.visible
        } else {
            view.states
        });
        let maybe_verdict = self.round(&view, event, &interrupt)?;
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
            Some(verdict) => {
                let verdict = if self.explorer.is_symbolic() {
                    attach_symbolic_witness(verdict, &self.cpds, &self.check, &self.budget)
                } else {
                    self.explorer
                        .with_explicit(|e| attach_witness(verdict.clone(), e, &self.check))
                        .unwrap_or(verdict)
                };
                Ok(self.conclude(Some(info), verdict))
            }
        }
    }

    /// Applies the kind's rules to round `k` from its bound-indexed
    /// [`LayerView`], in this order: the property check on the newly
    /// seen visible states, the generator test (Alg. 3 kinds), the
    /// collapse test (all but the refuter). Both state queries read
    /// the layer record in place, and all are bound-indexed, so a
    /// replayed round produces byte-identical results to a live one.
    ///
    /// # Errors
    ///
    /// The interrupt's error when it fires while `G∩Z` is computed.
    fn round(
        &self,
        view: &LayerView,
        event: SequenceEvent,
        interrupt: &Interrupt,
    ) -> Result<Option<Verdict>, ExploreError> {
        let k = view.k;
        // One stored key per visible orbit: a violation by any member
        // counts.
        if self.explorer.with_store(|store| {
            store
                .visible_layer_keys(k)
                .any(|key| self.check.violated_by_orbit(key))
        }) {
            return Ok(Some(Verdict::Unsafe { k, witness: None }));
        }
        // Line 4 of Alg. 3: a *new* plateau at k−1 triggers the
        // generator test `G∩Z ⊆ T(Rk)`, evaluated against the
        // first-seen bounds so it stays exact when the shared layers
        // run deeper than `k`. It runs before the collapse test, so a
        // round where both rules fire concludes with Alg. 3's own
        // rule. A plateau that fails the test is a stutter (Ex. 14's
        // k = 2): the run skips ahead.
        if self.is_alg3() && k >= 1 && event == SequenceEvent::NewPlateau {
            let g_cap_z = self.artifacts.g_cap_z_within(&self.cpds, interrupt)?;
            if self
                .explorer
                .with_store(|store| g_cap_z.iter().all(|v| store.seen_by(v, k)))
            {
                return Ok(Some(Verdict::Safe {
                    k: k - 1,
                    method: ConvergenceMethod::GeneratorTest,
                }));
            }
        }
        if self.kind != EngineKind::CbaRefuter && view.collapsed {
            let method = if self.explorer.is_symbolic() {
                ConvergenceMethod::SkCollapse
            } else {
                ConvergenceMethod::RkCollapse
            };
            return Ok(Some(Verdict::Safe { k: k - 1, method }));
        }
        Ok(None)
    }

    /// Why the round limit leaves the kind undetermined.
    fn exhausted(&self) -> String {
        let max_k = self.max_k;
        match self.kind {
            EngineKind::Alg3Explicit | EngineKind::Alg3Symbolic => {
                format!("no convergence within {max_k} rounds")
            }
            EngineKind::Scheme1Explicit => format!("no collapse of (Rk) within {max_k} rounds"),
            EngineKind::Scheme1Symbolic => format!("no collapse of (Sk) within {max_k} rounds"),
            EngineKind::CbaRefuter => format!(
                "no violation within {max_k} contexts (context-bounded analysis cannot prove safety)"
            ),
        }
    }

    fn conclude(&mut self, round: Option<RoundInfo>, verdict: Verdict) -> RoundOutcome {
        self.verdict = Some(verdict.clone());
        RoundOutcome::Concluded { round, verdict }
    }

    /// Rounds computed so far (the largest processed `k`).
    pub fn rounds(&self) -> usize {
        self.next_k.saturating_sub(1).min(self.max_k)
    }

    /// States stored at the last computed bound (global or symbolic).
    pub fn states(&self) -> usize {
        self.states
    }

    /// The engine's observation log (sizes per bound).
    pub fn growth(&self) -> &GrowthLog {
        &self.growth
    }

    /// The verdict, once concluded.
    pub fn verdict(&self) -> Option<&Verdict> {
        self.verdict.as_ref()
    }
}

/// Reconstructs a concrete path for a symbolic refutation with the
/// bounded witness search (best effort: the refutation stands even
/// when the reconstruction gives up).
fn attach_symbolic_witness(
    verdict: Verdict,
    cpds: &Cpds,
    check: &PropertyCheck,
    budget: &cuba_explore::ExploreBudget,
) -> Verdict {
    match verdict {
        Verdict::Unsafe { k, witness: None } => {
            let witness =
                cuba_explore::bounded_witness_search(cpds, &|v| check.violated_by(v), k, budget);
            Verdict::Unsafe { k, witness }
        }
        other => other,
    }
}

/// Reconstructs the path to a state of layer `k` that violates the
/// property: the first member, in orbit order, of the first stored
/// orbit of layer `k` that has a violating member.
fn attach_witness(verdict: Verdict, engine: &ExplicitEngine, check: &PropertyCheck) -> Verdict {
    match verdict {
        Verdict::Unsafe { k, witness: None } => {
            let witness = engine
                .find_in_layer(k, |key| check.violated_by_key(key))
                .and_then(|member| engine.witness_to(&member));
            Verdict::Unsafe { k, witness }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_engine;
    use crate::testutil::{fig1, fig2, rejected_plateaus, run_engine};
    use cuba_pds::{SharedState, StackSym, VisibleState};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    /// Ex. 14 end-to-end: Alg. 3 rejects the fake plateau at k = 2 and
    /// concludes safety at the real collapse k = 5 via the generator
    /// test. `(Rk)` never collapses on Fig. 1, so the generator test
    /// decides.
    #[test]
    fn fig1_example14_collapse_at_5() {
        let cpds = fig1();
        let (engine, verdict, steps) = run_engine(
            EngineKind::Alg3Explicit,
            &cpds,
            &Property::True,
            &EngineParams::default(),
        )
        .unwrap();
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
            &EngineParams::default(),
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
        let (_, verdict, _) = run_engine(
            EngineKind::Alg3Explicit,
            &fig1(),
            &property,
            &EngineParams::default(),
        )
        .unwrap();
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
            &EngineParams::default(),
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

    // Scheme 1 kinds: the collapse test alone, over the stutter-free
    // `(Rk)` (Lemma 7) or `(Sk)`.

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
        let mut engine = build_engine(
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

    // The context-bounded refuter (Qadeer–Rehof style, Fig. 5's
    // comparator): the property check alone, so it can refute but
    // never prove.

    /// Runs the refuter on Fig. 1 up to `bound`: the verdict and the
    /// rounds explored.
    fn cba_up_to(property: &Property, bound: usize) -> (Verdict, usize) {
        let params = EngineParams {
            max_k: bound,
            ..EngineParams::default()
        };
        let (engine, verdict, _) =
            run_engine(EngineKind::CbaRefuter, &fig1(), property, &params).unwrap();
        (verdict, engine.rounds())
    }

    #[test]
    fn finds_bug_at_right_bound() {
        let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        assert!(matches!(
            cba_up_to(&property, 8),
            (Verdict::Unsafe { k: 5, .. }, 5)
        ));
    }

    #[test]
    fn cannot_prove_safety() {
        // Unreachable target: the baseline only reports that no bug
        // exists up to the bound it explored.
        let property = Property::never_visible(vis(2, &[Some(1), Some(5)]));
        assert!(matches!(
            cba_up_to(&property, 6),
            (Verdict::Undetermined { .. }, 6)
        ));
    }

    #[test]
    fn misses_bug_beyond_bound() {
        // The ⟨1|2,6⟩ bug needs k = 5; a bound of 3 misses it — the
        // "slips through" failure mode of CBA the paper fixes.
        let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        assert!(matches!(
            cba_up_to(&property, 3),
            (Verdict::Undetermined { .. }, 3)
        ));
    }

    #[test]
    fn initial_state_bug() {
        let property = Property::never_visible(vis(0, &[Some(1), Some(4)]));
        assert!(matches!(
            cba_up_to(&property, 2),
            (Verdict::Unsafe { k: 0, .. }, 0)
        ));
    }

    /// As an engine, the baseline's exhaustion is `Undetermined`: a
    /// portfolio never lets plain CBA claim safety. As a refuter it
    /// attaches a witness when it wins.
    #[test]
    fn engine_exhaustion_is_undetermined() {
        let property = Property::never_visible(vis(2, &[Some(1), Some(5)]));
        let (verdict, _) = cba_up_to(&property, 3);
        match verdict {
            Verdict::Undetermined { reason } => {
                assert!(
                    reason.contains("no violation within 3 contexts"),
                    "{reason}"
                );
            }
            other => panic!("expected Undetermined, got {other:?}"),
        }
        let buggy = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        match cba_up_to(&buggy, 8).0 {
            Verdict::Unsafe { k: 5, witness } => {
                let w = witness.expect("refuter reconstructs a path");
                assert!(w.replay(&fig1()));
            }
            other => panic!("expected Unsafe at 5, got {other:?}"),
        }
    }
}
