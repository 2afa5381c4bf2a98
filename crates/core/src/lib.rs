//! The CUBA verification algorithms (Liu & Wahl, PLDI 2018).
//!
//! Context-unbounded reachability for concurrent pushdown systems is
//! undecidable; CUBA is a *partial* method that can both refute and
//! prove safety by watching how the sets of reachable states evolve as
//! the permitted number of thread contexts `k` grows — the
//! *observation sequence* paradigm (§3).
//!
//! [`Portfolio`] / [`AnalysisSession`] are the entry point. They
//! implement the top-level procedure of §6 with *one fused arm per
//! backend*:
//!
//! * under finite context reachability ([`check_fcr`], §5), Algorithm 3
//!   over the finite-domain sequence `(T(Rk))` of *visible* states,
//!   separating stuttering from convergence with *generator sets*
//!   (Def. 10, Thm. 11) intersected with the context-insensitive
//!   overapproximation `Z` (Alg. 2, Lemma 12), fused with Scheme 1's
//!   collapse test over the stutter-free `(Rk)` (Lemma 7). Both read
//!   the same layers in one pass, beside a plain context-bounded
//!   refuter arm (Qadeer–Rehof style, bug-finding only — the
//!   JMoped-shaped comparator of Fig. 5);
//! * otherwise the same fused arm over PSA-backed symbolic state sets
//!   `(Sk)`, which also covers programs without FCR (Ex. 8).
//!
//! Sessions step their arms round-robin and stream per-round
//! [`SessionEvent`]s (with per-round cost accounting), with
//! cooperative cancellation and wall-clock deadlines; batches share
//! per-system artifacts through a [`SuiteCache`]. Exploration is
//! decoupled from property checking: the layers `(Rk)`/`(Sk)` live in
//! shared, demand-driven explorers
//! ([`SharedExplorer`](cuba_explore::SharedExplorer), held by
//! [`SystemArtifacts`]), so any number of properties of one system
//! replay a single saturation and only deeper bounds are computed live
//! ("one system, many properties"). [`Portfolio::fixed`] runs any
//! lineup of [`EngineKind`]s, e.g. Scheme 1 or the refuter alone.
//!
//! [`build_engine`] is the engine-level entry point: it builds an
//! [`Engine`], the one resumable round-stepper, whose
//! [`step`](Engine::step) computes one more bound and reports it as a
//! [`RoundOutcome`]. Every [`EngineKind`] is a rule setting of it: each
//! round checks the property on the new layer, then the Alg. 3 kinds
//! run the generator test and the collapse test, the Scheme 1 kinds the
//! collapse test alone, and the refuter neither.
//!
//! # Example
//!
//! Prove the Fig. 1 system safe for *any* number of contexts, watching
//! the observation sequence round by round:
//!
//! ```
//! use cuba_core::{Portfolio, Property, SessionEvent, Verdict};
//! use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym, VisibleState};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let q = |n| SharedState(n);
//! let s = |n| StackSym(n);
//! let mut p1 = PdsBuilder::new(4, 3);
//! p1.overwrite(q(0), s(1), q(1), s(2))?;
//! p1.overwrite(q(3), s(2), q(0), s(1))?;
//! let mut p2 = PdsBuilder::new(4, 7);
//! p2.pop(q(0), s(4), q(0))?;
//! p2.overwrite(q(1), s(4), q(2), s(5))?;
//! p2.push(q(2), s(5), q(3), s(4), s(6))?;
//! let cpds = CpdsBuilder::new(4, q(0))
//!     .thread(p1.build()?, [s(1)])
//!     .thread(p2.build()?, [s(4)])
//!     .build()?;
//!
//! // ⟨2|1,5⟩ is never reachable; the §6 procedure proves it at k = 5.
//! let target = VisibleState::new(q(2), vec![Some(s(1)), Some(s(5))]);
//! let property = Property::never_visible(target);
//!
//! // Stream the session: one RoundCompleted per arm per bound.
//! let mut session = Portfolio::auto().session(cpds, property)?;
//! let mut rounds = 0;
//! for event in &mut session {
//!     if let SessionEvent::RoundCompleted { .. } = event {
//!         rounds += 1;
//!     }
//! }
//! let outcome = session.into_outcome()?;
//! assert!(matches!(outcome.verdict, Verdict::Safe { k: 5, .. }));
//! assert!(rounds >= 7); // the fused arm computed bounds 0..=6
//! # Ok(())
//! # }
//! ```
//!
//! Sessions take a [`SessionConfig`] with a wall-clock `timeout` and a
//! [`CancelToken`](cuba_explore::CancelToken), both honored *inside*
//! long rounds; [`Portfolio::run_suite`] verifies a batch of problems
//! with bounded parallelism.

mod alg3;
mod cache;
mod engine;
mod error;
mod events;
mod fcr;
mod generator;
mod overapprox;
mod portfolio;
mod property;
mod sequence;
mod session;
mod snapshot_store;
#[cfg(test)]
mod testutil;

pub use alg3::Engine;
pub use cache::{fingerprint, same_system, CacheEntry, CacheStats, SuiteCache, SystemArtifacts};
pub use engine::{build_engine, EngineKind, EngineParams, RoundInfo, RoundOutcome};
pub use error::CubaError;
pub use events::SessionEvent;
pub use fcr::{check_fcr, fcr_checks_performed, fcr_psa, FcrReport};
pub use generator::GeneratorSet;
pub use overapprox::{
    compute_z, explore_z, generators_in_z, thread_abstraction, AbstractTransition,
};
pub use portfolio::{Lineup, Portfolio};
pub use property::{Property, PropertyCheck};
pub use sequence::{GrowthLog, SequenceEvent};
pub use session::{
    AnalysisSession, CubaOutcome, EngineUsed, SchedulePolicy, SessionConfig, StageTimes,
};
pub use snapshot_store::SnapshotStore;

/// The answer of a CUBA analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds for *every* context bound: the observation
    /// sequence converged at bound `k` with no violation observed.
    Safe {
        /// The collapse bound `kmax` (Table 2's `kmax` columns).
        k: usize,
        /// Which convergence rule fired.
        method: ConvergenceMethod,
    },
    /// The property is violated within `k` contexts.
    Unsafe {
        /// The context bound revealing the bug (the parenthesized
        /// numbers in Table 2).
        k: usize,
        /// A replayable counterexample, when the engine tracks paths.
        witness: Option<cuba_explore::Witness>,
    },
    /// Neither a violation nor convergence within the round limit.
    Undetermined {
        /// Human-readable reason (round limit, budget, …).
        reason: String,
    },
}

impl Verdict {
    /// Whether this verdict proves the property.
    pub fn is_safe(&self) -> bool {
        matches!(self, Verdict::Safe { .. })
    }

    /// Whether this verdict refutes the property.
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Safe { k, method } => {
                write!(
                    f,
                    "safe for any resource amount (converged at k={k}, {method})"
                )
            }
            Verdict::Unsafe { k, .. } => {
                write!(f, "error reachable with resource amount {k}")
            }
            Verdict::Undetermined { reason } => write!(f, "undetermined: {reason}"),
        }
    }
}

/// Which rule concluded convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceMethod {
    /// `Rk = Rk+1` (Scheme 1 over the stutter-free `(Rk)`, Lemma 7).
    RkCollapse,
    /// Plateau of `T(Rk)` plus the generator test `G∩Z ⊆ T(Rk)`
    /// (Algorithm 3, Thm. 11).
    GeneratorTest,
    /// No new symbolic states in a round (`Sk+1` adds nothing), the
    /// symbolic analogue of `Rk = Rk+1`.
    SkCollapse,
}

impl std::fmt::Display for ConvergenceMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvergenceMethod::RkCollapse => write!(f, "Rk collapse"),
            ConvergenceMethod::GeneratorTest => write!(f, "generator test"),
            ConvergenceMethod::SkCollapse => write!(f, "Sk collapse"),
        }
    }
}
