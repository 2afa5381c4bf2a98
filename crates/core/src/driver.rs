use std::time::{Duration, Instant};

use cuba_explore::{CancelToken, ExploreBudget, SubsumptionMode};
use cuba_pds::Cpds;

use crate::{
    check_fcr, AnalysisSession, CubaError, EngineKind, Property, SessionConfig, SessionEvent,
    Verdict,
};

/// How the driver picks engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverMode {
    /// The paper's overall procedure (§6): if FCR holds, run visible
    /// state reachability and global state reachability over the same
    /// layers (one fused arm applying both convergence tests);
    /// otherwise run the symbolic visible-state analysis.
    #[default]
    Auto,
    /// Force `Alg 3(T(Rk)) ∥ Scheme 1(Rk)` (errors without FCR).
    ExplicitOnly,
    /// Force `Alg 3(T(Sk))` (always applicable).
    SymbolicOnly,
}

/// Which engine produced the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineUsed {
    /// Explicit-state `Alg 3(T(Rk))`.
    Alg3Explicit,
    /// Explicit-state `Scheme 1(Rk)`.
    Scheme1Explicit,
    /// Symbolic `Alg 3(T(Sk))`.
    Alg3Symbolic,
    /// Symbolic `Scheme 1(Sk)` (extension).
    Scheme1Symbolic,
    /// The context-bounded baseline refuter (Qadeer–Rehof style).
    CbaBaseline,
}

impl std::fmt::Display for EngineUsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineUsed::Alg3Explicit => write!(f, "Alg3(T(Rk))"),
            EngineUsed::Scheme1Explicit => write!(f, "Scheme1(Rk)"),
            EngineUsed::Alg3Symbolic => write!(f, "Alg3(T(Sk))"),
            EngineUsed::Scheme1Symbolic => write!(f, "Scheme1(Sk)"),
            EngineUsed::CbaBaseline => write!(f, "CBA"),
        }
    }
}

/// Configuration of the [`Cuba`] driver.
#[derive(Debug, Clone)]
pub struct CubaConfig {
    /// Engine selection.
    pub mode: DriverMode,
    /// Exploration budgets.
    pub budget: ExploreBudget,
    /// Round limit per engine.
    pub max_k: usize,
    /// Subsumption mode for symbolic engines.
    pub subsumption: SubsumptionMode,
    /// Wall-clock limit for the whole run; long rounds abort
    /// cooperatively (the verdict becomes `Undetermined`).
    pub timeout: Option<Duration>,
    /// External cancellation token, if the caller wants to stop the
    /// run from another thread.
    pub cancel: Option<CancelToken>,
}

impl Default for CubaConfig {
    fn default() -> Self {
        CubaConfig {
            mode: DriverMode::Auto,
            budget: ExploreBudget::default(),
            max_k: 64,
            subsumption: SubsumptionMode::Exact,
            timeout: None,
            cancel: None,
        }
    }
}

/// Wall-clock split of a run across the analysis stages, summed over
/// completed rounds of all arms. Every exploration advance books as
/// `saturate`, the CBA refuter's private one included. `saturate`
/// *contains* `merge` (the explicit engine's layer commits happen
/// inside exploration advances); `check` is the round remainder
/// (membership and convergence tests), so `saturate + check ≈
/// round_wall`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Time inside exploration advances (`ensure_layer`).
    pub saturate: Duration,
    /// Round time outside exploration: membership and convergence.
    pub check: Duration,
    /// Time inside explicit layer commits (a subset of `saturate`).
    pub merge: Duration,
}

impl StageTimes {
    /// Component-wise sum.
    pub fn add(&mut self, other: &StageTimes) {
        self.saturate += other.saturate;
        self.check += other.check;
        self.merge += other.merge;
    }
}

/// Outcome of a [`Cuba`] run.
#[derive(Debug, Clone)]
pub struct CubaOutcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Whether FCR holds for the input (drives engine choice and is
    /// itself a Table 2 column).
    pub fcr_holds: bool,
    /// The engine that produced the verdict.
    pub engine: EngineUsed,
    /// Number of stored states in the deciding engine.
    pub states: usize,
    /// Rounds computed by the deciding engine.
    pub rounds: usize,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Wall-clock spent inside completed rounds, summed over *all*
    /// arms — the cost-accounting view of the session (FCR/G∩Z
    /// precomputation excluded).
    pub round_wall: Duration,
    /// Rounds whose layer was explored *live* by this run, summed over
    /// all arms. With layer sharing ("one system, many properties") a
    /// warm run replays instead of exploring.
    pub rounds_explored: usize,
    /// Rounds replayed from a shared explorer's existing layers.
    pub rounds_replayed: usize,
    /// Per-stage wall-clock split of the completed rounds, summed
    /// over all arms (see [`StageTimes`]).
    pub stages: StageTimes,
}

/// The Cuba verifier: the paper's overall procedure (§6), as a thin
/// compatibility wrapper over [`AnalysisSession`].
///
/// ```text
/// Input: a CPDS Pn and a property C
/// 1: if Pn satisfies FCR then
/// 2:     Alg 3(T(Rk)) ∥ Scheme 1(Rk)      ▷ one fused arm
/// 3: else
/// 4:     Alg 3(T(Sk))
/// ```
///
/// New code that wants round streaming, cancellation, extra engines
/// (e.g. the CBA refuter arm) or batch verification should use
/// [`AnalysisSession`] / [`Portfolio`](crate::Portfolio) directly.
#[derive(Debug, Clone)]
pub struct Cuba {
    cpds: Cpds,
    property: Property,
}

impl Cuba {
    /// Creates a verifier for the given system and property.
    pub fn new(cpds: Cpds, property: Property) -> Self {
        Cuba { cpds, property }
    }

    /// The system under analysis.
    pub fn cpds(&self) -> &Cpds {
        &self.cpds
    }

    /// The property under analysis.
    pub fn property(&self) -> &Property {
        &self.property
    }

    /// The engine lineup implied by a [`DriverMode`] for this system.
    ///
    /// # Errors
    ///
    /// [`CubaError::FcrRequired`] for `ExplicitOnly` without FCR.
    fn lineup(&self, config: &CubaConfig, fcr: bool) -> Result<Vec<EngineKind>, CubaError> {
        let use_explicit = match config.mode {
            DriverMode::Auto => fcr,
            DriverMode::ExplicitOnly => {
                if !fcr {
                    return Err(CubaError::FcrRequired);
                }
                true
            }
            DriverMode::SymbolicOnly => false,
        };
        // One fused arm: the shared layers feed both convergence tests
        // (the Scheme 1 collapse test is folded into Algorithm 3).
        Ok(if use_explicit {
            vec![EngineKind::Alg3Explicit]
        } else {
            vec![EngineKind::Alg3Symbolic]
        })
    }

    fn session_config(&self, config: &CubaConfig) -> SessionConfig {
        SessionConfig {
            budget: config.budget.clone(),
            max_k: config.max_k,
            subsumption: config.subsumption,
            timeout: config.timeout,
            cancel: config.cancel.clone(),
        }
    }

    /// Opens a streaming session for this problem under the driver's
    /// engine-selection rules.
    ///
    /// # Errors
    ///
    /// [`CubaError::FcrRequired`] for `ExplicitOnly` without FCR.
    pub fn session(&self, config: &CubaConfig) -> Result<AnalysisSession, CubaError> {
        let fcr = check_fcr(&self.cpds).holds();
        let lineup = self.lineup(config, fcr)?;
        AnalysisSession::new(
            self.cpds.clone(),
            self.property.clone(),
            &lineup,
            &self.session_config(config),
        )
    }

    /// Runs the overall procedure.
    ///
    /// # Errors
    ///
    /// Propagates budget exhaustion ([`CubaError::Explore`]); an FCR
    /// mismatch cannot happen in `Auto` mode since the driver picks
    /// engines by the FCR check itself.
    pub fn run(&self, config: &CubaConfig) -> Result<CubaOutcome, CubaError> {
        self.run_with(config, |_| {})
    }

    /// Runs the overall procedure, streaming [`SessionEvent`]s to the
    /// callback (round completions, engine conclusions, the verdict).
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_with(
        &self,
        config: &CubaConfig,
        on_event: impl FnMut(&SessionEvent),
    ) -> Result<CubaOutcome, CubaError> {
        let start = Instant::now();
        let fcr = check_fcr(&self.cpds).holds();
        let lineup = self.lineup(config, fcr)?;
        let mut outcome = AnalysisSession::new(
            self.cpds.clone(),
            self.property.clone(),
            &lineup,
            &self.session_config(config),
        )?
        .run_with(on_event)?;
        outcome.duration = start.elapsed();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1, fig2};
    use cuba_pds::{SharedState, StackSym, VisibleState};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    #[test]
    fn auto_picks_explicit_for_fig1() {
        let cuba = Cuba::new(fig1(), Property::True);
        let outcome = cuba.run(&CubaConfig::default()).unwrap();
        assert!(outcome.fcr_holds);
        assert!(outcome.verdict.is_safe());
        assert!(matches!(
            outcome.engine,
            EngineUsed::Alg3Explicit | EngineUsed::Scheme1Explicit
        ));
    }

    #[test]
    fn auto_picks_symbolic_for_fig2() {
        let cuba = Cuba::new(fig2(), Property::True);
        let outcome = cuba.run(&CubaConfig::default()).unwrap();
        assert!(!outcome.fcr_holds);
        assert!(outcome.verdict.is_safe());
        assert!(matches!(
            outcome.engine,
            EngineUsed::Alg3Symbolic | EngineUsed::Scheme1Symbolic
        ));
    }

    #[test]
    fn explicit_only_rejects_fig2() {
        let cuba = Cuba::new(fig2(), Property::True);
        let err = cuba
            .run(&CubaConfig {
                mode: DriverMode::ExplicitOnly,
                ..CubaConfig::default()
            })
            .unwrap_err();
        assert_eq!(err, CubaError::FcrRequired);
    }

    #[test]
    fn symbolic_only_works_for_fig1() {
        let cuba = Cuba::new(fig1(), Property::True);
        let outcome = cuba
            .run(&CubaConfig {
                mode: DriverMode::SymbolicOnly,
                ..CubaConfig::default()
            })
            .unwrap();
        assert!(outcome.verdict.is_safe());
    }

    #[test]
    fn unsafe_property_detected_with_bound() {
        let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        let cuba = Cuba::new(fig1(), property);
        let outcome = cuba.run(&CubaConfig::default()).unwrap();
        assert!(matches!(outcome.verdict, Verdict::Unsafe { k: 5, .. }));
    }

    #[test]
    fn outcome_records_duration_and_rounds() {
        let cuba = Cuba::new(fig1(), Property::True);
        let outcome = cuba.run(&CubaConfig::default()).unwrap();
        assert!(outcome.rounds >= 5);
        assert!(outcome.states > 0);
    }

    /// The wrapper streams events: one RoundCompleted per bound from
    /// the fused arm, then the conclusion and the verdict.
    #[test]
    fn run_with_streams_rounds() {
        let cuba = Cuba::new(fig1(), Property::True);
        let mut rounds = Vec::new();
        let mut saw_verdict = false;
        let outcome = cuba
            .run_with(&CubaConfig::default(), |event| match event {
                SessionEvent::RoundCompleted { k, .. } => rounds.push(*k),
                SessionEvent::Verdict { .. } => saw_verdict = true,
                _ => {}
            })
            .unwrap();
        assert!(outcome.verdict.is_safe());
        assert_eq!(rounds, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(saw_verdict);
    }

    /// A driver-level timeout turns the verdict Undetermined instead
    /// of erroring out.
    #[test]
    fn timeout_yields_undetermined() {
        let cuba = Cuba::new(fig2(), Property::True);
        let outcome = cuba
            .run(&CubaConfig {
                timeout: Some(Duration::ZERO),
                ..CubaConfig::default()
            })
            .unwrap();
        match outcome.verdict {
            Verdict::Undetermined { reason } => assert!(reason.contains("deadline")),
            other => panic!("expected Undetermined, got {other:?}"),
        }
    }
}
