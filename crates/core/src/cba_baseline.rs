use cuba_explore::{ExploreBudget, SubsumptionMode, SymbolicEngine};
use cuba_pds::Cpds;
use cuba_telemetry::metrics::{stage_time, Stage};

use crate::engine::{Engine, EngineParams, RoundCtx, RoundInfo, RoundOutcome};
use crate::{CubaError, EngineUsed, GrowthLog, Property, Verdict};

/// Plain context-bounded analysis in the style of Qadeer–Rehof (the
/// algorithm JMoped builds on) as a resumable round-stepper: explore
/// `S0 … Sk` symbolically for a *fixed* bound `k`, checking the
/// property on the way, with no convergence detection whatsoever.
///
/// It can conclude with `Unsafe { k }` (a bug at `k`), and
/// "concludes" `Undetermined` once the bound is exhausted, with
/// `rounds` equal to the bound: no bug up to it. CBA proves nothing —
/// the paper's central criticism, and Fig. 5's comparator. As a
/// portfolio arm it is the *refuter* beside the fused explicit arm.
#[derive(Debug)]
pub(crate) struct CbaEngine {
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
    /// A baseline engine exploring up to `params.max_k` contexts on a
    /// private symbolic explorer.
    pub(crate) fn new(cpds: &Cpds, property: &Property, params: &EngineParams) -> Self {
        CbaEngine {
            cpds: cpds.clone(),
            property: property.clone(),
            budget: params.budget.clone(),
            bound: params.max_k,
            backend: SymbolicEngine::new(
                cpds.clone(),
                params.budget.clone(),
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
}

impl Engine for CbaEngine {
    fn id(&self) -> EngineUsed {
        EngineUsed::CbaBaseline
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1, run_engine};
    use crate::EngineKind;
    use cuba_pds::{SharedState, StackSym, VisibleState};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    /// Runs the baseline on Fig. 1 up to `bound`: the verdict and the
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
