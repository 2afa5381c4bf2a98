//! The portfolio: the paper's §6 procedure as a first-class,
//! configurable object, plus batch verification.
//!
//! ```text
//! Input: a CPDS Pn and a property C
//! 1: if Pn satisfies FCR then
//! 2:     Alg 3(T(Rk)) ∥ Scheme 1(Rk)
//! 3: else
//! 4:     Alg 3(T(Sk))
//! ```
//!
//! Both procedures of line 2 read the same layers `(Rk)`, so the
//! default lineup runs them as *one fused arm* per backend: the Alg. 3
//! kinds of the one round-stepper apply Alg. 3's generator test, then
//! Scheme 1's collapse test, in every round.
//! Under FCR a CBA refuter arm (Fig. 5's Qadeer–Rehof-style
//! comparator) runs alongside; it can only conclude with a bug, never
//! with a proof. [`Portfolio::run`] steps a problem's arms round-robin
//! on the current thread; [`Portfolio::run_suite`] verifies many
//! problems with bounded parallelism — the service-shaped entry point
//! the benchmark harnesses build on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cuba_pds::Cpds;

use crate::engine::EngineKind;
use crate::{
    AnalysisSession, CubaError, CubaOutcome, Property, SessionConfig, SessionEvent, SuiteCache,
    SystemArtifacts,
};

/// How a portfolio picks its engine lineup for a problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lineup {
    /// The paper's §6 policy, decided per problem by the FCR check:
    /// the fused explicit arm plus a CBA refuter under FCR, the fused
    /// symbolic arm otherwise.
    Auto,
    /// A fixed lineup (arms needing FCR are dropped per problem when
    /// the system lacks it).
    Fixed(Vec<EngineKind>),
}

/// A reusable analysis portfolio: a lineup policy plus a
/// [`SessionConfig`].
#[derive(Debug, Clone)]
pub struct Portfolio {
    lineup: Lineup,
    config: SessionConfig,
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio::auto()
    }
}

impl Portfolio {
    /// The paper's §6 portfolio with default configuration.
    pub fn auto() -> Self {
        Portfolio {
            lineup: Lineup::Auto,
            config: SessionConfig::new(),
        }
    }

    /// A portfolio with a fixed engine lineup.
    pub fn fixed(kinds: impl Into<Vec<EngineKind>>) -> Self {
        Portfolio {
            lineup: Lineup::Fixed(kinds.into()),
            config: SessionConfig::new(),
        }
    }

    /// Replaces the session configuration.
    pub fn with_config(mut self, config: SessionConfig) -> Self {
        self.config = config;
        self
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The concrete lineup this portfolio fields for a system.
    pub fn lineup_for(&self, cpds: &Cpds) -> Vec<EngineKind> {
        self.lineup_with(cpds, &SystemArtifacts::new())
    }

    /// As [`lineup_for`](Self::lineup_for), but reusing a cached FCR
    /// verdict instead of re-deciding it.
    fn lineup_with(&self, cpds: &Cpds, artifacts: &SystemArtifacts) -> Vec<EngineKind> {
        match &self.lineup {
            Lineup::Auto => {
                if artifacts.fcr(cpds).holds() {
                    vec![EngineKind::Alg3Explicit, EngineKind::CbaRefuter]
                } else {
                    vec![EngineKind::Alg3Symbolic]
                }
            }
            Lineup::Fixed(kinds) => kinds.clone(),
        }
    }

    /// Opens a streaming session for one problem.
    ///
    /// # Errors
    ///
    /// [`CubaError::FcrRequired`] when no arm applies to the system.
    pub fn session(&self, cpds: Cpds, property: Property) -> Result<AnalysisSession, CubaError> {
        self.session_with(cpds, property, &Arc::new(SystemArtifacts::new()))
    }

    /// Opens a streaming session reusing cached per-system artifacts
    /// (FCR verdict, `G ∩ Z`) — see [`SuiteCache`].
    ///
    /// # Errors
    ///
    /// As for [`session`](Self::session), plus
    /// [`CubaError::InvalidProperty`] when the property names states,
    /// threads or symbols the model does not have — such a property
    /// could never be violated, so the session would report a vacuous
    /// `safe`.
    pub fn session_with(
        &self,
        cpds: Cpds,
        property: Property,
        artifacts: &Arc<SystemArtifacts>,
    ) -> Result<AnalysisSession, CubaError> {
        property
            .validate(&cpds)
            .map_err(CubaError::InvalidProperty)?;
        let lineup = self.lineup_with(&cpds, artifacts);
        AnalysisSession::with_artifacts(cpds, property, &lineup, &self.config, artifacts)
    }

    /// Runs the lineup round-robin on the current thread.
    ///
    /// # Errors
    ///
    /// The first hard engine error when no arm produced an answer.
    pub fn run(&self, cpds: Cpds, property: Property) -> Result<CubaOutcome, CubaError> {
        self.session(cpds, property)?.run()
    }

    /// Runs the lineup round-robin, streaming events to a callback.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_with(
        &self,
        cpds: Cpds,
        property: Property,
        on_event: impl FnMut(&SessionEvent),
    ) -> Result<CubaOutcome, CubaError> {
        self.session(cpds, property)?.run_with(on_event)
    }

    /// Batch verification: runs the portfolio over every problem with
    /// at most `parallelism` problems in flight (each problem's arms
    /// step round-robin within its worker). Results come back in input
    /// order.
    ///
    /// Problems sharing a system (same CPDS, many properties) share
    /// the FCR verdict and the built `G ∩ Z` through a fresh
    /// [`SuiteCache`]; use
    /// [`run_suite_cached`](Self::run_suite_cached) to keep the cache
    /// warm across calls.
    pub fn run_suite(
        &self,
        problems: Vec<(Cpds, Property)>,
        parallelism: usize,
    ) -> Vec<Result<CubaOutcome, CubaError>> {
        self.run_suite_cached(problems, parallelism, &SuiteCache::new())
    }

    /// As [`run_suite`](Self::run_suite), with a caller-owned
    /// [`SuiteCache`] — the service-shaped entry point: a long-lived
    /// cache turns repeated batches over the same systems into
    /// lookups instead of recomputation.
    pub fn run_suite_cached(
        &self,
        problems: Vec<(Cpds, Property)>,
        parallelism: usize,
        cache: &SuiteCache,
    ) -> Vec<Result<CubaOutcome, CubaError>> {
        let n = problems.len();
        let workers = parallelism.max(1).min(n.max(1));
        let next = AtomicUsize::new(0);
        let problems: Vec<Mutex<Option<(Cpds, Property)>>> =
            problems.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let results: Vec<Mutex<Option<Result<CubaOutcome, CubaError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let (cpds, property) = problems[index]
                        .lock()
                        .expect("problem slot")
                        .take()
                        .expect("each slot is claimed once");
                    let artifacts = cache.artifacts(&cpds);
                    let result = self
                        .session_with(cpds, property, &artifacts)
                        .and_then(AnalysisSession::run);
                    *results[index].lock().expect("result slot") = Some(result);
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("workers joined")
                    .expect("every index was processed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1, fig2};
    use crate::{ConvergenceMethod, EngineUsed, Verdict};
    use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym, VisibleState};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    /// The §6 lineup: the fused explicit arm + CBA refuter under FCR,
    /// the fused symbolic arm otherwise.
    #[test]
    fn auto_lineup_follows_fcr() {
        let portfolio = Portfolio::auto();
        assert_eq!(
            portfolio.lineup_for(&fig1()),
            vec![EngineKind::Alg3Explicit, EngineKind::CbaRefuter]
        );
        assert_eq!(
            portfolio.lineup_for(&fig2()),
            vec![EngineKind::Alg3Symbolic]
        );
    }

    /// One overwrite and no pops: `(Rk)` collapses in the round where
    /// `T(Rk)` first plateaus, and `G ∩ Z` is empty, so both
    /// convergence rules fire at k = 2. The Alg. 3 arm runs the
    /// generator test first and reports it, also when a Scheme 1 arm
    /// steps after it.
    #[test]
    fn same_round_tie_reports_the_generator_test() {
        let mut p = PdsBuilder::new(2, 2);
        p.overwrite(SharedState(0), StackSym(1), SharedState(1), StackSym(1))
            .unwrap();
        let cpds = CpdsBuilder::new(2, SharedState(0))
            .thread(p.build().unwrap(), [StackSym(1)])
            .build()
            .unwrap();
        let fused = Portfolio::auto().run(cpds.clone(), Property::True).unwrap();
        let split = Portfolio::fixed(vec![
            EngineKind::Alg3Explicit,
            EngineKind::Scheme1Explicit,
            EngineKind::CbaRefuter,
        ])
        .run(cpds, Property::True)
        .unwrap();
        for outcome in [fused, split] {
            assert_eq!(
                outcome.verdict,
                Verdict::Safe {
                    k: 1,
                    method: ConvergenceMethod::GeneratorTest
                }
            );
            assert_eq!(outcome.engine, EngineUsed::Alg3Explicit);
        }
    }

    /// Acceptance: the portfolio path reproduces the seed verdicts on
    /// both running examples (Safe k=5 behavior preserved on Fig. 1).
    #[test]
    fn portfolio_reproduces_seed_verdicts() {
        let outcome = Portfolio::auto().run(fig1(), Property::True).unwrap();
        assert_eq!(
            outcome.verdict,
            Verdict::Safe {
                k: 5,
                method: ConvergenceMethod::GeneratorTest
            }
        );
        assert_eq!(outcome.engine, EngineUsed::Alg3Explicit);
        assert_eq!(outcome.rounds, 6);
        assert_eq!(outcome.states, 17);
        assert!(outcome.fcr_holds);

        let outcome = Portfolio::auto().run(fig2(), Property::True).unwrap();
        assert_eq!(
            outcome.verdict,
            Verdict::Safe {
                k: 2,
                method: ConvergenceMethod::GeneratorTest
            }
        );
        assert_eq!(outcome.engine, EngineUsed::Alg3Symbolic);
        assert!(!outcome.fcr_holds);
    }

    /// The fused symbolic arm alone also proves Fig. 1, at the same
    /// bound as the explicit one.
    #[test]
    fn symbolic_lineup_proves_fig1() {
        let outcome = Portfolio::fixed(vec![EngineKind::Alg3Symbolic])
            .run(fig1(), Property::True)
            .unwrap();
        assert!(matches!(outcome.verdict, Verdict::Safe { k: 5, .. }));
        assert_eq!(outcome.engine, EngineUsed::Alg3Symbolic);
    }

    /// `run_with` streams events: one RoundCompleted per bound from
    /// the fused arm, then the conclusion and the verdict.
    #[test]
    fn run_with_streams_rounds() {
        let mut rounds = Vec::new();
        let mut saw_verdict = false;
        let outcome = Portfolio::auto()
            .run_with(fig1(), Property::True, |event| match event {
                SessionEvent::RoundCompleted {
                    engine: EngineUsed::Alg3Explicit,
                    k,
                    ..
                } => rounds.push(*k),
                SessionEvent::Verdict { .. } => saw_verdict = true,
                _ => {}
            })
            .unwrap();
        assert!(outcome.verdict.is_safe());
        assert_eq!(rounds, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(saw_verdict);
    }

    /// The CBA refuter can conclude with a bug but never decides a
    /// safe run (its exhaustion is Undetermined).
    #[test]
    fn cba_arm_never_proves() {
        let portfolio = Portfolio::fixed(vec![EngineKind::CbaRefuter]);
        let safe = portfolio.run(fig1(), Property::True).unwrap();
        assert!(matches!(safe.verdict, Verdict::Undetermined { .. }));
        assert_eq!(safe.engine, EngineUsed::CbaBaseline);

        let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        let unsafe_outcome = portfolio.run(fig1(), property).unwrap();
        assert!(matches!(
            unsafe_outcome.verdict,
            Verdict::Unsafe { k: 5, .. }
        ));
    }

    /// Batch verification over both running examples with parallelism.
    #[test]
    fn run_suite_preserves_order_and_verdicts() {
        let problems = vec![
            (fig1(), Property::True),
            (fig2(), Property::True),
            (fig1(), Property::never_visible(vis(1, &[Some(2), Some(6)]))),
            (fig1(), Property::never_visible(vis(2, &[Some(1), Some(5)]))),
        ];
        let results = Portfolio::auto().run_suite(problems, 3);
        assert_eq!(results.len(), 4);
        assert!(matches!(
            results[0].as_ref().unwrap().verdict,
            Verdict::Safe { k: 5, .. }
        ));
        assert!(results[1].as_ref().unwrap().verdict.is_safe());
        assert!(matches!(
            results[2].as_ref().unwrap().verdict,
            Verdict::Unsafe { k: 5, .. }
        ));
        assert!(matches!(
            results[3].as_ref().unwrap().verdict,
            Verdict::Safe { k: 5, .. }
        ));
    }

    /// A property naming ids outside the model is rejected at session
    /// start instead of verifying vacuously.
    #[test]
    fn invalid_property_rejected_at_session_start() {
        let portfolio = Portfolio::auto();
        let bad = Property::never_shared(SharedState(99));
        match portfolio.run(fig1(), bad) {
            Err(CubaError::InvalidProperty(msg)) => {
                assert!(msg.contains("shared state 99"), "{msg}");
            }
            other => panic!("expected InvalidProperty, got {other:?}"),
        }
    }

    /// run_suite with parallelism 1 degrades to a plain loop.
    #[test]
    fn run_suite_sequential_fallback() {
        let results = Portfolio::auto().run_suite(vec![(fig1(), Property::True)], 1);
        assert_eq!(results.len(), 1);
        assert!(results[0].as_ref().unwrap().verdict.is_safe());
    }
}
