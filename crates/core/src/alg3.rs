use cuba_explore::{ExplicitEngine, ExploreBudget, LayerView, SubsumptionMode};
use cuba_pds::{Cpds, VisibleState};

use crate::engine::{Applicability, Backend, Engine, RoundCtx, RoundInfo, RoundOutcome};
use crate::{
    check_fcr, compute_z, ConvergenceMethod, CubaError, EngineUsed, GeneratorSet, GrowthLog,
    Property, SequenceEvent, Verdict,
};

/// Configuration for Algorithm 3 runs.
#[derive(Debug, Clone)]
pub struct Alg3Config {
    /// Exploration budgets.
    pub budget: ExploreBudget,
    /// Give up (Undetermined) after this many rounds.
    pub max_k: usize,
    /// Skip the FCR pre-check (explicit variant only).
    pub skip_fcr_check: bool,
    /// Subsumption mode for the symbolic variant.
    pub subsumption: SubsumptionMode,
    /// Also conclude from a collapse of the underlying state sequence
    /// (`Rk = Rk+1` / no new symbolic states). An extension beyond the
    /// paper's Alg. 3 that is trivially sound (Lemma 7); disable to
    /// benchmark the pure generator test.
    pub use_state_collapse: bool,
    /// A precomputed `G ∩ Z` for this system, shared by a
    /// [`SuiteCache`](crate::SuiteCache) across the problems of a
    /// suite ("one system, many properties"). `None` computes it from
    /// scratch; `G ∩ Z` depends only on the CPDS, never the property.
    pub g_cap_z: Option<std::sync::Arc<Vec<VisibleState>>>,
}

impl Default for Alg3Config {
    fn default() -> Self {
        Alg3Config {
            budget: ExploreBudget::default(),
            max_k: 64,
            skip_fcr_check: false,
            subsumption: SubsumptionMode::Exact,
            use_state_collapse: true,
            g_cap_z: None,
        }
    }
}

/// Result of an Algorithm 3 run.
#[derive(Debug, Clone)]
pub struct Alg3Report {
    /// The verdict.
    pub verdict: Verdict,
    /// Rounds computed.
    pub rounds: usize,
    /// Total stored states (global or symbolic).
    pub states: usize,
    /// `|T(Rk)|` per bound.
    pub visible_growth: GrowthLog,
    /// The precomputed `G ∩ Z` (diagnostics; Ex. 14 prints it).
    pub g_cap_z: Vec<VisibleState>,
    /// Plateaus whose generator test failed (bounds `k−1` where the
    /// algorithm "skipped forward", as in Ex. 14's k = 2).
    pub rejected_plateaus: Vec<usize>,
}

/// The round logic of Alg. 3, independent of how rounds are produced.
/// Each round supplies the new visible states; the driver checks the
/// property, the plateau condition
/// `|T(Rk−2)| < |T(Rk−1)| = |T(Rk)|`, and the generator condition
/// `G∩Z ⊆ T(Rk)`.
#[derive(Debug)]
struct Alg3Driver {
    property: Property,
    /// Shared with the suite cache when one is in play — iterated
    /// only, so the share is zero-copy.
    g_cap_z: std::sync::Arc<Vec<VisibleState>>,
    visible_growth: GrowthLog,
    rejected_plateaus: Vec<usize>,
    use_state_collapse: bool,
}

impl Alg3Driver {
    fn new(cpds: &Cpds, property: &Property, config: &Alg3Config) -> Self {
        let g_cap_z = match &config.g_cap_z {
            Some(shared) => shared.clone(),
            None => {
                let generators = GeneratorSet::from_cpds(cpds);
                let z = compute_z(cpds);
                std::sync::Arc::new(generators.intersect(z.states.iter()))
            }
        };
        Alg3Driver {
            property: property.clone(),
            g_cap_z,
            visible_growth: GrowthLog::new(),
            rejected_plateaus: Vec::new(),
            use_state_collapse: config.use_state_collapse,
        }
    }

    /// Processes round `k` from its bound-indexed [`LayerView`]: the
    /// newly seen visible states, the cumulative `|T(Rk)|`, and
    /// whether the state sequence had collapsed by `k`. Returns the
    /// sequence event and the verdict, if any. All queries are
    /// bound-indexed, so a replayed round produces byte-identical
    /// results to a live one.
    fn round(&mut self, view: &LayerView, backend: &Backend) -> (SequenceEvent, Option<Verdict>) {
        let k = view.k;
        let event = self.visible_growth.push(view.visible);
        if let Some(_v) = self.property.find_violation(view.new_visible.iter()) {
            return (event, Some(Verdict::Unsafe { k, witness: None }));
        }
        // Line 4: a *new* plateau at k−1 triggers the generator test
        // `G∩Z ⊆ T(Rk)`, evaluated against the first-seen bounds so it
        // stays exact when the shared layers run deeper than `k`. It
        // runs before the collapse test, so a round where both rules
        // fire concludes with Alg. 3's own rule.
        if k >= 1 && event == SequenceEvent::NewPlateau {
            if backend.missing_by(&self.g_cap_z, k).is_empty() {
                return (
                    event,
                    Some(Verdict::Safe {
                        k: k - 1,
                        method: ConvergenceMethod::GeneratorTest,
                    }),
                );
            }
            self.rejected_plateaus.push(k - 1);
        }
        if self.use_state_collapse && view.collapsed {
            return (
                event,
                Some(Verdict::Safe {
                    k: k - 1,
                    method: ConvergenceMethod::RkCollapse,
                }),
            );
        }
        (event, None)
    }
}

/// Algorithm 3 as a resumable round-stepper (one struct for both
/// state representations — see [`Alg3Engine::explicit`] and
/// [`Alg3Engine::symbolic`]).
///
/// Each [`step`](Engine::step) computes one more bound of `(T(Rk))`
/// (resp. `(T(Sk))`) and applies the paper's plateau + generator
/// tests; the monolithic [`alg3_explicit`]/[`alg3_symbolic`] loops
/// delegate here.
#[derive(Debug)]
pub struct Alg3Engine {
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
    /// Algorithm 3 over `(T(Rk))` with explicit state sets (paper
    /// §4.1.4), on a private explorer. Performs the FCR pre-check
    /// unless the config skips it.
    ///
    /// # Errors
    ///
    /// [`CubaError::FcrRequired`] when the FCR check fails.
    pub fn explicit(
        cpds: &Cpds,
        property: &Property,
        config: &Alg3Config,
    ) -> Result<Self, CubaError> {
        Self::explicit_with(cpds, property, config, || {
            Backend::explicit(cpds, config.budget.clone())
        })
    }

    /// Algorithm 3 over `(T(Sk))` with PSA-backed symbolic state sets
    /// (the paper's fallback when FCR fails, App. E), on a private
    /// explorer.
    pub fn symbolic(cpds: &Cpds, property: &Property, config: &Alg3Config) -> Self {
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
        config: &Alg3Config,
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
        config: &Alg3Config,
        backend: Backend,
    ) -> Self {
        Self::with_backend(cpds, property, config, backend)
    }

    fn with_backend(
        cpds: &Cpds,
        property: &Property,
        config: &Alg3Config,
        backend: Backend,
    ) -> Self {
        Alg3Engine {
            cpds: cpds.clone(),
            property: property.clone(),
            budget: config.budget.clone(),
            max_k: config.max_k,
            driver: Alg3Driver::new(cpds, property, config),
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

    /// Consumes the engine into the classic report.
    pub fn into_report(self) -> Alg3Report {
        let rounds = self.rounds();
        Alg3Report {
            verdict: self.verdict.unwrap_or_else(|| Verdict::Undetermined {
                reason: "engine not run to conclusion".to_owned(),
            }),
            rounds,
            states: self.states,
            visible_growth: self.driver.visible_growth,
            g_cap_z: self.driver.g_cap_z.as_ref().clone(),
            rejected_plateaus: self.driver.rejected_plateaus,
        }
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

    fn applicability(&self, cpds: &Cpds) -> Applicability {
        if self.backend.is_symbolic() || check_fcr(cpds).holds() {
            Applicability::Applicable
        } else {
            Applicability::Inapplicable(
                "explicit-state Algorithm 3 requires finite context reachability",
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
        let (event, maybe_verdict) = self.driver.round(&view, &self.backend);
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

/// Drives an [`Alg3Engine`] to conclusion.
fn run_to_conclusion(mut engine: Alg3Engine) -> Result<Alg3Report, CubaError> {
    let mut ctx = RoundCtx::new();
    loop {
        if let RoundOutcome::Concluded { .. } = engine.step(&mut ctx)? {
            return Ok(engine.into_report());
        }
    }
}

/// Algorithm 3 over `(T(Rk))` with explicit state sets (needs FCR):
/// visible-state reachability with stuttering detection via generator
/// sets (paper §4.1.4). Delegates to [`Alg3Engine`].
///
/// # Errors
///
/// Returns [`CubaError::FcrRequired`] when the FCR check fails, or a
/// budget error from the engine.
pub fn alg3_explicit(
    cpds: &Cpds,
    property: &Property,
    config: &Alg3Config,
) -> Result<Alg3Report, CubaError> {
    run_to_conclusion(Alg3Engine::explicit(cpds, property, config)?)
}

/// Algorithm 3 over `(T(Sk))` with PSA-backed symbolic state sets (the
/// paper's fallback when FCR fails, App. E). Delegates to
/// [`Alg3Engine`].
///
/// # Errors
///
/// Returns a budget error when the symbolic state set explodes — the
/// analogue of the paper's OOM on Stefan-1×8.
pub fn alg3_symbolic(
    cpds: &Cpds,
    property: &Property,
    config: &Alg3Config,
) -> Result<Alg3Report, CubaError> {
    run_to_conclusion(Alg3Engine::symbolic(cpds, property, config))
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
    use crate::testutil::{fig1, fig2};
    use cuba_pds::{SharedState, StackSym};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    /// Ex. 14 end-to-end: Alg. 3 rejects the fake plateau at k = 2 and
    /// concludes safety at the real collapse k = 5 via the generator
    /// test. `use_state_collapse` is off to exercise the pure paper
    /// algorithm ((Rk) diverges on Fig. 1, so collapse can't trigger).
    #[test]
    fn fig1_example14_collapse_at_5() {
        let config = Alg3Config {
            use_state_collapse: false,
            ..Alg3Config::default()
        };
        let report = alg3_explicit(&fig1(), &Property::True, &config).unwrap();
        match &report.verdict {
            Verdict::Safe { k, method } => {
                assert_eq!(*k, 5);
                assert_eq!(*method, ConvergenceMethod::GeneratorTest);
            }
            other => panic!("expected Safe at 5, got {other:?}"),
        }
        // The fake plateau at k = 2 was rejected.
        assert_eq!(report.rejected_plateaus, vec![2]);
        // G∩Z as computed in Ex. 14.
        assert_eq!(
            report.g_cap_z,
            vec![vis(0, &[Some(1), None]), vis(0, &[Some(1), Some(6)])]
        );
        // |T(R0..6)| = 1,3,6,6,7,8,8 (Fig. 1 table).
        assert_eq!(report.visible_growth.sizes(), &[1, 3, 6, 6, 7, 8, 8]);
    }

    /// The symbolic variant reproduces the same Fig. 1 run.
    #[test]
    fn fig1_symbolic_matches_explicit() {
        let config = Alg3Config {
            use_state_collapse: false,
            ..Alg3Config::default()
        };
        let report = alg3_symbolic(&fig1(), &Property::True, &config).unwrap();
        match &report.verdict {
            Verdict::Safe { k, method } => {
                assert_eq!(*k, 5);
                assert_eq!(*method, ConvergenceMethod::GeneratorTest);
            }
            other => panic!("expected Safe at 5, got {other:?}"),
        }
        assert_eq!(report.visible_growth.sizes(), &[1, 3, 6, 6, 7, 8, 8]);
    }

    /// Alg. 3 over T(Sk) handles the FCR-violating Fig. 2.
    #[test]
    fn fig2_symbolic_proves_safety() {
        let report = alg3_symbolic(&fig2(), &Property::True, &Alg3Config::default()).unwrap();
        match &report.verdict {
            Verdict::Safe { k, .. } => assert!(*k <= 6),
            other => panic!("expected Safe, got {other:?}"),
        }
    }

    /// Explicit Alg. 3 refuses Fig. 2 (no FCR).
    #[test]
    fn fig2_explicit_requires_fcr() {
        let err = alg3_explicit(&fig2(), &Property::True, &Alg3Config::default()).unwrap_err();
        assert_eq!(err, CubaError::FcrRequired);
    }

    /// Bug finding: ⟨1|2,6⟩ first appears at k = 5 (Fig. 1 table), and
    /// Alg. 3 reports exactly that bound with a replayable witness.
    #[test]
    fn fig1_unsafe_at_5_with_witness() {
        let cpds = fig1();
        let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        let report = alg3_explicit(&cpds, &property, &Alg3Config::default()).unwrap();
        match report.verdict {
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
        let config = Alg3Config {
            use_state_collapse: false,
            ..Alg3Config::default()
        };
        let property = Property::never_visible(vis(2, &[Some(1), Some(5)]));
        let report = alg3_explicit(&fig1(), &property, &config).unwrap();
        assert!(matches!(report.verdict, Verdict::Safe { k: 5, .. }));
    }

    /// With the state-collapse extension on, Fig. 2's symbolic run may
    /// conclude via Sk collapse; the verdict must still be Safe.
    #[test]
    fn fig2_sk_collapse_extension() {
        let config = Alg3Config {
            use_state_collapse: true,
            ..Alg3Config::default()
        };
        let report = alg3_symbolic(&fig2(), &Property::True, &config).unwrap();
        assert!(report.verdict.is_safe());
    }

    /// Round-stepping surface: the engine yields one RoundOutcome per
    /// bound with the Fig. 1 event pattern, repeats its verdict after
    /// conclusion, and reports the same data as the monolithic run.
    #[test]
    fn engine_steps_match_fig1_events() {
        let config = Alg3Config {
            use_state_collapse: false,
            ..Alg3Config::default()
        };
        let mut engine = Alg3Engine::explicit(&fig1(), &Property::True, &config).unwrap();
        let mut ctx = RoundCtx::new();
        let mut events = Vec::new();
        let verdict = loop {
            match engine.step(&mut ctx).unwrap() {
                RoundOutcome::Continue(info) => events.push((info.k, info.event)),
                RoundOutcome::Concluded { round, verdict } => {
                    let info = round.expect("concluded on a computed round");
                    events.push((info.k, info.event));
                    break verdict;
                }
            }
        };
        assert!(matches!(verdict, Verdict::Safe { k: 5, .. }));
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
        match engine.step(&mut ctx).unwrap() {
            RoundOutcome::Concluded { round: None, .. } => {}
            other => panic!("expected repeated conclusion, got {other:?}"),
        }
        assert_eq!(engine.rounds(), rounds);
    }
}
