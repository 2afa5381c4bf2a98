use cuba_explore::{ExploreBudget, SubsumptionMode, SymbolicEngine};
use cuba_pds::Cpds;
use cuba_telemetry::metrics::{stage_time, Stage};

use crate::engine::{Applicability, Engine, RoundCtx, RoundInfo, RoundOutcome};
use crate::{CubaError, EngineUsed, GrowthLog, Property, Verdict};

/// Configuration of the context-bounded baseline.
#[derive(Debug, Clone)]
pub struct CbaConfig {
    /// The fixed context bound `k` to explore to.
    pub k: usize,
    /// Exploration budgets.
    pub budget: ExploreBudget,
}

impl CbaConfig {
    /// Baseline run up to bound `k` with default budgets.
    pub fn up_to(k: usize) -> Self {
        CbaConfig {
            k,
            budget: ExploreBudget::default(),
        }
    }
}

/// What the baseline can conclude — note the asymmetry: it can refute
/// but never prove (the paper's central criticism of plain CBA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CbaVerdict {
    /// A violation exists within `k` contexts.
    BugFound {
        /// The bound at which the bug appeared.
        k: usize,
    },
    /// No violation within the explored bound — **not** a proof.
    NoBugUpTo {
        /// The explored bound.
        k: usize,
    },
}

/// Report of a baseline run.
#[derive(Debug, Clone)]
pub struct CbaReport {
    /// The (one-sided) verdict.
    pub verdict: CbaVerdict,
    /// Symbolic states stored.
    pub states: usize,
    /// Visible states seen.
    pub visible: usize,
}

/// Plain context-bounded analysis in the style of Qadeer–Rehof (the
/// algorithm JMoped builds on) as a resumable round-stepper: explore
/// `S0 … Sk` symbolically for a *fixed* bound `k`, checking the
/// property on the way, with no convergence detection whatsoever.
///
/// As a portfolio arm this is the *refuter* beside the fused explicit
/// arm: it can conclude with `Unsafe`, and "concludes" `Undetermined`
/// once the bound is exhausted — CBA proves nothing (Fig. 5's
/// comparator).
#[derive(Debug)]
pub struct CbaEngine {
    cpds: Cpds,
    property: Property,
    budget: ExploreBudget,
    bound: usize,
    backend: SymbolicEngine,
    growth: GrowthLog,
    next_k: usize,
    /// Symbolic states after the previous round, for `delta_states`.
    prev_states: usize,
    verdict: Option<Verdict>,
}

impl CbaEngine {
    /// A baseline engine exploring up to `config.k` contexts.
    pub fn new(cpds: &Cpds, property: &Property, config: &CbaConfig) -> Self {
        CbaEngine {
            cpds: cpds.clone(),
            property: property.clone(),
            budget: config.budget.clone(),
            bound: config.k,
            backend: SymbolicEngine::new(
                cpds.clone(),
                config.budget.clone(),
                SubsumptionMode::Exact,
            ),
            growth: GrowthLog::new(),
            next_k: 0,
            prev_states: 0,
            verdict: None,
        }
    }

    fn conclude(&mut self, round: Option<RoundInfo>, verdict: Verdict) -> RoundOutcome {
        self.verdict = Some(verdict.clone());
        RoundOutcome::Concluded { round, verdict }
    }

    /// The system under analysis.
    pub fn cpds(&self) -> &Cpds {
        &self.cpds
    }

    /// Visible states seen so far.
    pub fn num_visible(&self) -> usize {
        self.backend.num_visible()
    }

    /// Consumes the engine into the classic report. An engine that
    /// did not run to conclusion reports `NoBugUpTo` only for the
    /// rounds it actually explored — never for the configured bound.
    pub fn into_report(self) -> CbaReport {
        let explored = self.rounds();
        let verdict = match &self.verdict {
            Some(Verdict::Unsafe { k, .. }) => CbaVerdict::BugFound { k: *k },
            _ => CbaVerdict::NoBugUpTo { k: explored },
        };
        CbaReport {
            verdict,
            states: self.backend.num_symbolic_states(),
            visible: self.backend.num_visible(),
        }
    }
}

impl Engine for CbaEngine {
    fn id(&self) -> EngineUsed {
        EngineUsed::CbaBaseline
    }

    fn applicability(&self, _cpds: &Cpds) -> Applicability {
        Applicability::Applicable
    }

    fn step(&mut self, ctx: &mut RoundCtx) -> Result<RoundOutcome, CubaError> {
        if let Some(verdict) = &self.verdict {
            return Ok(RoundOutcome::Concluded {
                round: None,
                verdict: verdict.clone(),
            });
        }
        ctx.interrupt.check().map_err(CubaError::Explore)?;
        if self.next_k > self.bound {
            let verdict = Verdict::Undetermined {
                reason: format!(
                    "no violation within {} contexts (context-bounded analysis cannot prove safety)",
                    self.bound
                ),
            };
            return Ok(self.conclude(None, verdict));
        }
        let started = std::time::Instant::now();
        let k = self.next_k;
        if k > 0 {
            // The refuter's exploration is private (not a shared
            // explorer), so it books its own saturation time.
            let advance = std::time::Instant::now();
            let result = self.backend.advance();
            stage_time(Stage::Saturate, advance.elapsed());
            result?;
        }
        let event = self.growth.push(self.backend.num_symbolic_states());
        self.next_k += 1;
        let states = self.backend.num_symbolic_states();
        let info = RoundInfo {
            k,
            states,
            delta_states: states.saturating_sub(self.prev_states),
            elapsed: started.elapsed().max(std::time::Duration::from_nanos(1)),
            event,
            // The refuter owns its exploration; nothing is replayed.
            replayed: false,
        };
        self.prev_states = states;
        if self
            .property
            .find_violation(self.backend.visible_layer(k).iter())
            .is_some()
        {
            let verdict = crate::alg3::attach_symbolic_witness(
                Verdict::Unsafe { k, witness: None },
                &self.cpds,
                &self.property,
                &self.budget,
            );
            return Ok(self.conclude(Some(info), verdict));
        }
        Ok(RoundOutcome::Continue(info))
    }

    fn rounds(&self) -> usize {
        self.next_k.saturating_sub(1).min(self.bound)
    }

    fn states(&self) -> usize {
        self.backend.num_symbolic_states()
    }

    fn growth(&self) -> &GrowthLog {
        &self.growth
    }

    fn verdict(&self) -> Option<&Verdict> {
        self.verdict.as_ref()
    }
}

/// Plain context-bounded analysis for a fixed bound (the Fig. 5
/// comparator; run it "with the same context bound at which Cuba
/// terminates", as the paper's evaluation does). Delegates to
/// [`CbaEngine`].
///
/// # Errors
///
/// Returns a budget error when the symbolic state set explodes.
pub fn cba_baseline(
    cpds: &Cpds,
    property: &Property,
    config: &CbaConfig,
) -> Result<CbaReport, CubaError> {
    let mut engine = CbaEngine::new(cpds, property, config);
    let mut ctx = RoundCtx::new();
    loop {
        if let RoundOutcome::Concluded { .. } = engine.step(&mut ctx)? {
            return Ok(engine.into_report());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig1;
    use cuba_pds::{SharedState, StackSym, VisibleState};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    #[test]
    fn finds_bug_at_right_bound() {
        let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        let report = cba_baseline(&fig1(), &property, &CbaConfig::up_to(8)).unwrap();
        assert_eq!(report.verdict, CbaVerdict::BugFound { k: 5 });
    }

    #[test]
    fn cannot_prove_safety() {
        // Unreachable target: the baseline only reports NoBugUpTo.
        let property = Property::never_visible(vis(2, &[Some(1), Some(5)]));
        let report = cba_baseline(&fig1(), &property, &CbaConfig::up_to(6)).unwrap();
        assert_eq!(report.verdict, CbaVerdict::NoBugUpTo { k: 6 });
    }

    #[test]
    fn misses_bug_beyond_bound() {
        // The ⟨1|2,6⟩ bug needs k = 5; a bound of 3 misses it — the
        // "slips through" failure mode of CBA the paper fixes.
        let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        let report = cba_baseline(&fig1(), &property, &CbaConfig::up_to(3)).unwrap();
        assert_eq!(report.verdict, CbaVerdict::NoBugUpTo { k: 3 });
    }

    #[test]
    fn initial_state_bug() {
        let property = Property::never_visible(vis(0, &[Some(1), Some(4)]));
        let report = cba_baseline(&fig1(), &property, &CbaConfig::up_to(2)).unwrap();
        assert_eq!(report.verdict, CbaVerdict::BugFound { k: 0 });
    }

    /// As an engine, the baseline's exhaustion is `Undetermined`: a
    /// portfolio never lets plain CBA claim safety.
    #[test]
    fn engine_exhaustion_is_undetermined() {
        let property = Property::never_visible(vis(2, &[Some(1), Some(5)]));
        let mut engine = CbaEngine::new(&fig1(), &property, &CbaConfig::up_to(3));
        let mut ctx = RoundCtx::new();
        let verdict = loop {
            if let RoundOutcome::Concluded { verdict, .. } = engine.step(&mut ctx).unwrap() {
                break verdict;
            }
        };
        assert!(matches!(verdict, Verdict::Undetermined { .. }));
        // And as a refuter it attaches a witness when it wins.
        let buggy = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        let mut engine = CbaEngine::new(&fig1(), &buggy, &CbaConfig::up_to(8));
        let verdict = loop {
            if let RoundOutcome::Concluded { verdict, .. } = engine.step(&mut ctx).unwrap() {
                break verdict;
            }
        };
        match verdict {
            Verdict::Unsafe { k: 5, witness } => {
                let w = witness.expect("refuter reconstructs a path");
                assert!(w.replay(engine.cpds()));
            }
            other => panic!("expected Unsafe at 5, got {other:?}"),
        }
    }
}
