use cuba_explore::{ExplicitEngine, ExploreBudget, LayerView, SubsumptionMode, Witness};
use cuba_pds::Cpds;

use crate::engine::{Applicability, Backend, Engine, RoundCtx, RoundInfo, RoundOutcome};
use crate::{check_fcr, ConvergenceMethod, CubaError, EngineUsed, GrowthLog, Property, Verdict};

/// Configuration for Scheme 1 runs.
#[derive(Debug, Clone)]
pub struct Scheme1Config {
    /// Exploration budgets.
    pub budget: ExploreBudget,
    /// Give up (Undetermined) after this many rounds.
    pub max_k: usize,
    /// Skip the FCR pre-check (callers that already checked).
    pub skip_fcr_check: bool,
    /// Subsumption mode for the symbolic variant.
    pub subsumption: SubsumptionMode,
}

impl Default for Scheme1Config {
    fn default() -> Self {
        Scheme1Config {
            budget: ExploreBudget::default(),
            max_k: 64,
            skip_fcr_check: false,
            subsumption: SubsumptionMode::Exact,
        }
    }
}

/// Result of a Scheme 1 run.
#[derive(Debug, Clone)]
pub struct Scheme1Report {
    /// The verdict.
    pub verdict: Verdict,
    /// Rounds computed (largest `k` with `Rk` explored).
    pub rounds: usize,
    /// Total states stored (global states for the explicit variant,
    /// symbolic states for the symbolic one).
    pub states: usize,
    /// Sizes `|Rk|` (or `|Sk|`) per bound — the observation log.
    pub growth: GrowthLog,
}

/// Scheme 1 as a resumable round-stepper over the stutter-free state
/// sequence `(Rk)` (explicit) or `(Sk)` (symbolic): compute rounds
/// until a violation appears or a plateau is observed; by Lemma 7 a
/// plateau of `(Rk)` *is* a collapse, so "safe" answers are sound.
///
/// The monolithic [`scheme1_explicit`]/[`scheme1_symbolic`] loops
/// delegate here.
#[derive(Debug)]
pub struct Scheme1Engine {
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
    /// Scheme 1 over `(Rk)` with explicit state sets (the paper's
    /// `Scheme 1(Rk)`, §4), on a private explorer. Performs the FCR
    /// pre-check unless the config skips it.
    ///
    /// # Errors
    ///
    /// [`CubaError::FcrRequired`] when the system fails the FCR check
    /// (the explicit sets may be infinite per round).
    pub fn explicit(
        cpds: &Cpds,
        property: &Property,
        config: &Scheme1Config,
    ) -> Result<Self, CubaError> {
        Self::explicit_with(cpds, property, config, || {
            Backend::explicit(cpds, config.budget.clone())
        })
    }

    /// Scheme 1 over symbolic state sets `(Sk)` (PSA-backed): usable
    /// when FCR fails, e.g. the Fig. 2 program of Ex. 8 where
    /// `R1 ⊊ R2 = R3` and every `Rk` is infinite. A round that
    /// produces no new symbolic state soundly implies `Rk+1 ⊆ Rk`;
    /// stutter-freeness of `(Rk)` (Lemma 7) then gives convergence.
    pub fn symbolic(cpds: &Cpds, property: &Property, config: &Scheme1Config) -> Self {
        Self::symbolic_with(
            cpds,
            property,
            config,
            Backend::symbolic(cpds, config.budget.clone(), config.subsumption),
        )
    }

    /// As [`explicit`](Self::explicit), borrowing a (possibly shared)
    /// explicit backend. The backend is supplied lazily so a failing
    /// FCR pre-check never constructs (or caches) an explorer for a
    /// system the engine refuses to analyze.
    pub(crate) fn explicit_with(
        cpds: &Cpds,
        property: &Property,
        config: &Scheme1Config,
        backend: impl FnOnce() -> Backend,
    ) -> Result<Self, CubaError> {
        if !config.skip_fcr_check && !check_fcr(cpds).holds() {
            return Err(CubaError::FcrRequired);
        }
        Ok(Self::with_backend(cpds, property, config, backend()))
    }

    /// As [`symbolic`](Self::symbolic), borrowing a (possibly shared)
    /// symbolic backend.
    pub(crate) fn symbolic_with(
        cpds: &Cpds,
        property: &Property,
        config: &Scheme1Config,
        backend: Backend,
    ) -> Self {
        Self::with_backend(cpds, property, config, backend)
    }

    fn with_backend(
        cpds: &Cpds,
        property: &Property,
        config: &Scheme1Config,
        backend: Backend,
    ) -> Self {
        Scheme1Engine {
            cpds: cpds.clone(),
            property: property.clone(),
            budget: config.budget.clone(),
            max_k: config.max_k,
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

    /// Consumes the engine into the classic report.
    pub fn into_report(self) -> Scheme1Report {
        let rounds = self.rounds();
        Scheme1Report {
            verdict: self.verdict.unwrap_or_else(|| Verdict::Undetermined {
                reason: "engine not run to conclusion".to_owned(),
            }),
            rounds,
            states: self.states,
            growth: self.growth,
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

    fn applicability(&self, cpds: &Cpds) -> Applicability {
        if self.backend.is_symbolic() || check_fcr(cpds).holds() {
            Applicability::Applicable
        } else {
            Applicability::Inapplicable(
                "explicit-state Scheme 1 requires finite context reachability",
            )
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

/// Drives a [`Scheme1Engine`] to conclusion.
fn run_to_conclusion(mut engine: Scheme1Engine) -> Result<Scheme1Report, CubaError> {
    let mut ctx = RoundCtx::new();
    loop {
        if let RoundOutcome::Concluded { .. } = engine.step(&mut ctx)? {
            return Ok(engine.into_report());
        }
    }
}

/// Scheme 1 over the stutter-free sequence `(Rk)` with explicit state
/// sets (the paper's `Scheme 1(Rk)`, §4): compute `R1, R2, …` until a
/// violation appears or a plateau is observed; by Lemma 7 a plateau of
/// `(Rk)` *is* a collapse, so "safe" answers are sound. Delegates to
/// [`Scheme1Engine`].
///
/// # Errors
///
/// Returns [`CubaError::FcrRequired`] when the system fails the FCR
/// check (the explicit sets may be infinite per round), or a budget
/// error from the engine.
pub fn scheme1_explicit(
    cpds: &Cpds,
    property: &Property,
    config: &Scheme1Config,
) -> Result<Scheme1Report, CubaError> {
    run_to_conclusion(Scheme1Engine::explicit(cpds, property, config)?)
}

/// Scheme 1 over symbolic state sets `(Sk)` (PSA-backed): usable when
/// FCR fails. Delegates to [`Scheme1Engine`].
///
/// # Errors
///
/// Returns a budget error when the symbolic state set explodes.
pub fn scheme1_symbolic(
    cpds: &Cpds,
    property: &Property,
    config: &Scheme1Config,
) -> Result<Scheme1Report, CubaError> {
    run_to_conclusion(Scheme1Engine::symbolic(cpds, property, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1, fig2};
    use crate::SequenceEvent;
    use cuba_pds::{SharedState, StackSym, VisibleState};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    /// Ex. 8 shape on Fig. 2: symbolic Scheme 1 proves convergence even
    /// though every `Rk` is infinite.
    #[test]
    fn fig2_symbolic_scheme1_converges() {
        let report = scheme1_symbolic(&fig2(), &Property::True, &Scheme1Config::default()).unwrap();
        match report.verdict {
            Verdict::Safe { k, method } => {
                assert_eq!(method, crate::ConvergenceMethod::SkCollapse);
                assert!(k <= 6, "collapse too late: k={k}");
            }
            other => panic!("expected Safe, got {other:?}"),
        }
    }

    /// Fig. 2 rejected by the explicit variant: FCR fails.
    #[test]
    fn fig2_explicit_scheme1_requires_fcr() {
        let err =
            scheme1_explicit(&fig2(), &Property::True, &Scheme1Config::default()).unwrap_err();
        assert_eq!(err, CubaError::FcrRequired);
    }

    /// On Fig. 1, (Rk) diverges; Scheme 1(Rk) must come back
    /// undetermined at the round limit (this is why Alg. 3 exists).
    #[test]
    fn fig1_explicit_scheme1_diverges() {
        let config = Scheme1Config {
            max_k: 10,
            ..Scheme1Config::default()
        };
        let report = scheme1_explicit(&fig1(), &Property::True, &config).unwrap();
        assert!(matches!(report.verdict, Verdict::Undetermined { .. }));
        assert_eq!(report.rounds, 10);
        // |Rk| strictly grows every round on Fig. 1.
        let sizes = report.growth.sizes();
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
        let report = scheme1_explicit(&cpds, &property, &Scheme1Config::default()).unwrap();
        match report.verdict {
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
        let report = scheme1_symbolic(&cpds, &property, &Scheme1Config::default()).unwrap();
        match report.verdict {
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
        let report = scheme1_symbolic(&cpds, &property, &Scheme1Config::default()).unwrap();
        match report.verdict {
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
        let report = scheme1_explicit(&cpds, &property, &Scheme1Config::default()).unwrap();
        assert!(matches!(report.verdict, Verdict::Unsafe { k: 0, .. }));
        let report = scheme1_symbolic(&cpds, &property, &Scheme1Config::default()).unwrap();
        assert!(matches!(report.verdict, Verdict::Unsafe { k: 0, .. }));
    }

    /// Round-stepping surface: the diverging Fig. 1 run yields one
    /// `Continue` per bound, then concludes Undetermined exactly at
    /// the round limit (with no final round computed).
    #[test]
    fn engine_steps_until_round_limit() {
        let config = Scheme1Config {
            max_k: 4,
            ..Scheme1Config::default()
        };
        let mut engine = Scheme1Engine::explicit(&fig1(), &Property::True, &config).unwrap();
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
