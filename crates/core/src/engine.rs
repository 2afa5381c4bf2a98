//! The pluggable [`Engine`] abstraction.
//!
//! CUBA's §6 procedure runs `Alg 3(T(Rk))` and `Scheme 1(Rk)` under
//! FCR and falls back to the symbolic engines otherwise; a
//! context-bounded refuter can hunt for bugs on the side. To pause
//! engines, interleave them, or stream their per-round observations,
//! each algorithm is a *resumable round-stepper* instead of a
//! monolithic `for k in 0..max_k` loop. This module defines the common
//! trait and [`build_engine`], the one way to construct an engine from
//! an [`EngineKind`] and [`EngineParams`]; the concrete engines live
//! with their algorithms and are handed out as `Box<dyn Engine>`.

use cuba_explore::{Interrupt, SubsumptionMode};
use cuba_pds::Cpds;

use crate::alg3::Alg3Engine;
use crate::cba_baseline::CbaEngine;
use crate::scheme1::Scheme1Engine;
use crate::{CubaError, EngineUsed, GrowthLog, SequenceEvent, Verdict};

/// Per-step context handed to [`Engine::step`] by the stepping loop:
/// carries the cooperative interruption sources so a session can stop
/// an engine *between* rounds even when the engine's own budget has no
/// interrupt wired in (mid-round interruption goes through
/// [`ExploreBudget::interrupt`](cuba_explore::ExploreBudget)).
#[derive(Debug, Clone, Default)]
pub struct RoundCtx {
    /// Polled at the start of every step.
    pub interrupt: Interrupt,
}

impl RoundCtx {
    /// A context that never interrupts.
    pub fn new() -> Self {
        RoundCtx::default()
    }

    /// A context polling the given interruption sources.
    pub fn with_interrupt(interrupt: Interrupt) -> Self {
        RoundCtx { interrupt }
    }
}

/// What one computed round looked like, including its cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundInfo {
    /// The context bound `k` of the round.
    pub k: usize,
    /// Total states stored at bound `k` (global states for explicit
    /// engines, symbolic states otherwise).
    pub states: usize,
    /// States added by this round (`states` minus the previous
    /// round's; the whole initial frontier for `k = 0`). Zero for
    /// replayed rounds — the shared explorer already held the
    /// layer, so this engine computed nothing.
    pub delta_states: usize,
    /// Wall-clock time the engine spent computing this round. Always
    /// nonzero (clamped to ≥ 1 ns so downstream rates are finite);
    /// ≈ 0 for replayed rounds.
    pub elapsed: std::time::Duration,
    /// How the engine's observation sequence moved (§3, Table 1).
    pub event: SequenceEvent,
    /// Whether the layer was *replayed* from a shared explorer that
    /// had already computed it (for a prior property, or for a sibling
    /// arm of the same session) instead of explored live.
    pub replayed: bool,
}

/// Result of one [`Engine::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundOutcome {
    /// A round was computed; the engine can step again.
    Continue(RoundInfo),
    /// The engine is done. `round` is the final computed round, or
    /// `None` when the engine concluded without computing one (round
    /// limit hit, or `step` called after a previous conclusion).
    Concluded {
        /// The final round, if this step computed one.
        round: Option<RoundInfo>,
        /// The verdict. `Undetermined` marks exhaustion (round limit,
        /// or a refuter that ran out of bounds) — a session treats it
        /// as "this arm is done", not as an answer.
        verdict: Verdict,
    },
}

impl RoundOutcome {
    /// The verdict, when this outcome concluded the engine.
    pub fn verdict(&self) -> Option<&Verdict> {
        match self {
            RoundOutcome::Continue(_) => None,
            RoundOutcome::Concluded { verdict, .. } => Some(verdict),
        }
    }

    /// The round info, when a round was computed.
    pub fn round(&self) -> Option<&RoundInfo> {
        match self {
            RoundOutcome::Continue(info) => Some(info),
            RoundOutcome::Concluded { round, .. } => round.as_ref(),
        }
    }
}

/// A resumable CUBA analysis engine: one observation-sequence
/// algorithm, advanced one context bound per [`step`](Engine::step).
///
/// Engines are `Send` so sessions can run on any thread (the
/// [`Portfolio::run_suite`](crate::Portfolio::run_suite) workers).
/// `step` after a conclusion is a cheap no-op repeating the verdict, so
/// callers need no extra bookkeeping.
pub trait Engine: Send {
    /// Which algorithm/representation this engine runs. May depend on
    /// the conclusion: the fused explicit engine reports
    /// `Scheme1Explicit` when the `Rk`-collapse rule fired, the rule
    /// the paper's Scheme 1 contributes.
    fn id(&self) -> EngineUsed;

    /// Computes the next round of the engine's observation sequence.
    ///
    /// # Errors
    ///
    /// Budget exhaustion or interruption, as [`CubaError::Explore`].
    /// An errored engine must not be stepped again.
    fn step(&mut self, ctx: &mut RoundCtx) -> Result<RoundOutcome, CubaError>;

    /// Rounds computed so far (the largest processed `k`).
    fn rounds(&self) -> usize;

    /// States stored by the engine (global or symbolic).
    fn states(&self) -> usize;

    /// The engine's observation log (sizes per bound).
    fn growth(&self) -> &GrowthLog;

    /// The verdict, once concluded.
    fn verdict(&self) -> Option<&Verdict>;
}

/// Shared backend handle of the concrete engines: an `Arc`-shared
/// [`SharedExplorer`](cuba_explore::SharedExplorer) over the explicit
/// `(Rk)` or symbolic `(Sk)` layers, under one interface so each
/// algorithm is written once — and so any number of property checkers
/// can consume one exploration.
#[derive(Debug, Clone)]
pub(crate) struct Backend {
    shared: std::sync::Arc<cuba_explore::SharedExplorer>,
}

impl Backend {
    /// A handle over an existing (possibly suite-shared) explorer.
    pub(crate) fn new(shared: std::sync::Arc<cuba_explore::SharedExplorer>) -> Self {
        Backend { shared }
    }

    /// A private explicit explorer (no shared artifacts).
    pub(crate) fn explicit(cpds: &Cpds, budget: cuba_explore::ExploreBudget) -> Self {
        Backend::new(std::sync::Arc::new(cuba_explore::SharedExplorer::explicit(
            cpds.clone(),
            budget,
        )))
    }

    /// A private symbolic explorer (no shared artifacts).
    pub(crate) fn symbolic(
        cpds: &Cpds,
        budget: cuba_explore::ExploreBudget,
        mode: SubsumptionMode,
    ) -> Self {
        Backend::new(std::sync::Arc::new(cuba_explore::SharedExplorer::symbolic(
            cpds.clone(),
            budget,
            mode,
        )))
    }

    /// Makes layer `k` available under the caller's interrupt; `true`
    /// when this call computed at least one new layer (live round).
    pub(crate) fn ensure(
        &self,
        k: usize,
        interrupt: &Interrupt,
    ) -> Result<bool, cuba_explore::ExploreError> {
        self.shared.ensure_layer(k, interrupt)
    }

    /// The bound-indexed snapshot of layer `k`.
    pub(crate) fn view(&self, k: usize) -> cuba_explore::LayerView {
        self.shared.view(k)
    }

    /// Whether every one of `targets` was seen by bound `k` — the
    /// membership test `G∩Z ⊆ T(Rk)`, evaluated bound-indexed so it
    /// stays exact when the shared layers run deeper than `k`. Stops
    /// at the first unseen target.
    pub(crate) fn all_seen_by(&self, targets: &[cuba_pds::VisibleState], k: usize) -> bool {
        self.shared
            .with_store(|store| targets.iter().all(|v| store.seen_by(v, k)))
    }

    pub(crate) fn is_symbolic(&self) -> bool {
        self.shared.is_symbolic()
    }

    /// Runs a closure over the explicit engine (witness
    /// reconstruction); `None` for symbolic backends.
    pub(crate) fn with_explicit<R>(
        &self,
        f: impl FnOnce(&cuba_explore::ExplicitEngine) -> R,
    ) -> Option<R> {
        self.shared.with_explicit(f)
    }
}

/// The engine lineup vocabulary: which algorithm over which state
/// representation. A [`Portfolio`](crate::Portfolio) is described as a
/// list of kinds; [`build_engine`] instantiates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Algorithm 3 over `(T(Rk))` — explicit, needs FCR.
    Alg3Explicit,
    /// Scheme 1 over `(Rk)` — explicit, needs FCR.
    Scheme1Explicit,
    /// Algorithm 3 over `(T(Sk))` — symbolic, always applicable.
    Alg3Symbolic,
    /// Scheme 1 over `(Sk)` — symbolic, always applicable.
    Scheme1Symbolic,
    /// Context-bounded refuter (Qadeer–Rehof-style CBA): explores up
    /// to the session's round limit, can refute but never prove.
    CbaRefuter,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            EngineKind::Alg3Explicit => "alg3-explicit",
            EngineKind::Scheme1Explicit => "scheme1-explicit",
            EngineKind::Alg3Symbolic => "alg3-symbolic",
            EngineKind::Scheme1Symbolic => "scheme1-symbolic",
            EngineKind::CbaRefuter => "cba-refuter",
        };
        write!(f, "{name}")
    }
}

impl EngineKind {
    /// Whether the kind requires finite context reachability.
    pub fn needs_fcr(&self) -> bool {
        matches!(self, EngineKind::Alg3Explicit | EngineKind::Scheme1Explicit)
    }
}

/// Build parameters shared by every engine in a session.
#[derive(Debug, Clone)]
pub struct EngineParams {
    /// Exploration budget (its interrupt is the session's).
    pub budget: cuba_explore::ExploreBudget,
    /// Round limit per engine (the bound of a CBA refuter).
    pub max_k: usize,
    /// Subsumption mode for symbolic engines.
    pub subsumption: SubsumptionMode,
    /// Fuse the state-collapse test (`Rk = Rk+1`, resp. no new
    /// symbolic states) into Algorithm 3 engines. An extension beyond
    /// the paper's Alg. 3 that is trivially sound (Lemma 7). Sessions
    /// disable it when a dedicated Scheme 1 arm of the same
    /// representation runs alongside, so a collapse is never concluded
    /// twice; disable it by hand to run the pure generator test.
    pub fuse_collapse: bool,
    /// Per-system artifacts holding the *shared explorers* and the
    /// cached `G ∩ Z`: when set, engines of matching backend borrow
    /// the system's layered exploration instead of starting their own
    /// — the "one system, many properties" hinge — and Algorithm 3
    /// engines share one generator set. `None` gives every engine a
    /// private explorer and generator set.
    pub artifacts: Option<std::sync::Arc<crate::SystemArtifacts>>,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            budget: cuba_explore::ExploreBudget::default(),
            max_k: 64,
            subsumption: SubsumptionMode::Exact,
            fuse_collapse: true,
            artifacts: None,
        }
    }
}

/// Instantiates an engine of the given kind for a problem.
///
/// Explicit kinds ([`EngineKind::needs_fcr`]) are built whether or not
/// the system has finite context reachability: without it their rounds
/// may never close, and only the budget or an interrupt stops them.
/// Sessions check FCR once and drop such kinds from their lineup.
pub fn build_engine(
    kind: EngineKind,
    cpds: &Cpds,
    property: &crate::Property,
    params: &EngineParams,
) -> Box<dyn Engine> {
    // With artifacts in play every engine of a backend borrows the
    // system's shared explorer; without, each engine explores alone.
    let explicit = || match &params.artifacts {
        Some(artifacts) => Backend::new(artifacts.explicit_explorer(cpds, &params.budget)),
        None => Backend::explicit(cpds, params.budget.clone()),
    };
    let symbolic = || match &params.artifacts {
        Some(artifacts) => {
            Backend::new(artifacts.symbolic_explorer(cpds, &params.budget, params.subsumption))
        }
        None => Backend::symbolic(cpds, params.budget.clone(), params.subsumption),
    };
    match kind {
        EngineKind::Alg3Explicit => Box::new(Alg3Engine::new(cpds, property, params, explicit())),
        EngineKind::Scheme1Explicit => {
            Box::new(Scheme1Engine::new(cpds, property, params, explicit()))
        }
        EngineKind::Alg3Symbolic => Box::new(Alg3Engine::new(cpds, property, params, symbolic())),
        EngineKind::Scheme1Symbolic => {
            Box::new(Scheme1Engine::new(cpds, property, params, symbolic()))
        }
        EngineKind::CbaRefuter => Box::new(CbaEngine::new(cpds, property, params)),
    }
}
