//! Streaming analysis sessions: a lineup of [`Engine`]s stepped
//! round-robin over one problem, yielding [`SessionEvent`]s.
//!
//! A session owns its engines and advances them one round at a time,
//! in lineup order. The first *conclusive* verdict (Safe/Unsafe)
//! decides the session and cancels the remaining arms via the shared
//! [`CancelToken`]; `Undetermined` conclusions and engine failures
//! merely retire an arm. Every arm advances through the same bounds in
//! lockstep, so the lineup order decides ties: an arm listed first
//! wins a round in which several arms conclude, and when no arm
//! decides, the undetermined answer comes from the first-listed arm
//! among those that got furthest.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cuba_explore::{CancelToken, ExploreBudget, Interrupt, SubsumptionMode};
use cuba_pds::Cpds;
use cuba_telemetry::metrics::{round_scope, Stage, METRICS};
use cuba_telemetry::trace;

use crate::engine::{build_engine, EngineKind, EngineParams, RoundCtx, RoundOutcome};
use crate::{CubaError, Engine, Property, SessionEvent, SystemArtifacts, Verdict};

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

/// Wall-clock split of a run across the analysis stages, summed over
/// completed rounds of all arms. Every exploration advance books as
/// `saturate`, on a shared explorer or a private one (the CBA
/// refuter's). `saturate` *contains* `merge` (the explicit engine's
/// layer commits happen inside exploration advances); `check` is the
/// round remainder (membership and convergence tests), so
/// `saturate + check ≈ round_wall`.
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

/// Outcome of an [`AnalysisSession`].
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
    /// Wall-clock duration of the run, from session construction (the
    /// FCR check included) to the verdict.
    pub duration: Duration,
    /// Wall-clock spent inside completed rounds, summed over *all*
    /// arms — the cost-accounting view of the session (the FCR check
    /// excluded; a `G∩Z` search counts toward the round that needed
    /// it).
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

/// The arm scheduling policy. Sessions always step their arms
/// round-robin in lineup order, so the policy has exactly one value.
/// The type remains because callers such as the benchmark harness
/// (`perfbench/`) pass it to `cuba_bench::harness::bench_config`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Every active arm advances through the same bounds in lineup
    /// order.
    #[default]
    RoundRobin,
}

/// Configuration of an [`AnalysisSession`] (and of the
/// [`Portfolio`](crate::Portfolio) built on top of it).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Exploration budget handed to every engine.
    pub budget: ExploreBudget,
    /// Round limit per engine (also the bound of CBA refuter arms).
    pub max_k: usize,
    /// Subsumption mode for symbolic engines.
    pub subsumption: SubsumptionMode,
    /// Wall-clock limit for the whole session. Checked between rounds
    /// *and* inside long rounds (threaded into the engines'
    /// [`ExploreBudget::interrupt`]).
    pub timeout: Option<Duration>,
    /// External cancellation. The session always creates a token; when
    /// one is supplied here it is used directly, so the caller can
    /// cancel from another thread.
    pub cancel: Option<CancelToken>,
}

impl SessionConfig {
    /// The defaults: generous budget, 64 rounds, exact subsumption, no
    /// timeout (the same as [`SessionConfig::default`]).
    pub fn new() -> Self {
        SessionConfig::default()
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            budget: ExploreBudget::default(),
            max_k: 64,
            subsumption: SubsumptionMode::Exact,
            timeout: None,
            cancel: None,
        }
    }
}

/// One arm of a session.
struct Arm {
    engine: Engine,
    /// Set once the arm concluded (any verdict) or failed.
    retired: bool,
    /// The error that retired the arm, if it failed.
    error: Option<CubaError>,
}

/// A streaming analysis of one `(Cpds, Property)` problem by a lineup
/// of engines.
///
/// Use it as an iterator of [`SessionEvent`]s (then read
/// [`outcome`](Self::outcome)), or call [`run`](Self::run) /
/// [`run_with`](Self::run_with) to drain it in one go.
pub struct AnalysisSession {
    arms: Vec<Arm>,
    ctx: RoundCtx,
    cancel: CancelToken,
    fcr_holds: bool,
    start: Instant,
    /// The arm after the last one stepped: the round-robin cursor.
    cursor: usize,
    /// Total wall-clock spent inside completed rounds, all arms.
    round_wall: Duration,
    /// Rounds computed live (layers explored by this session's arms).
    rounds_explored: usize,
    /// Rounds replayed from layers a shared explorer already held.
    rounds_replayed: usize,
    /// Per-stage wall-clock split of the session's steps.
    stages: StageTimes,
    pending: VecDeque<SessionEvent>,
    outcome: Option<Result<CubaOutcome, CubaError>>,
    /// Set once the final `Verdict` event has been queued.
    decided: bool,
}

impl AnalysisSession {
    /// Builds a session stepping the given engine lineup.
    ///
    /// Arms whose kind requires FCR are dropped when the system lacks
    /// it; if that empties the lineup the session refuses to start.
    ///
    /// # Errors
    ///
    /// [`CubaError::FcrRequired`] when no arm is applicable.
    pub fn new(
        cpds: Cpds,
        property: Property,
        lineup: &[EngineKind],
        config: &SessionConfig,
    ) -> Result<Self, CubaError> {
        let artifacts = Arc::new(SystemArtifacts::new());
        Self::with_artifacts(cpds, property, lineup, config, &artifacts)
    }

    /// As [`new`](Self::new), but reusing cached per-system artifacts
    /// (FCR verdict, `G ∩ Z`) from a
    /// [`SuiteCache`](crate::SuiteCache) — the "one system, many
    /// properties" entry point.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new).
    pub fn with_artifacts(
        cpds: Cpds,
        property: Property,
        lineup: &[EngineKind],
        config: &SessionConfig,
        artifacts: &Arc<SystemArtifacts>,
    ) -> Result<Self, CubaError> {
        // The session's clock covers the FCR check and, through the
        // arms' rounds, the `G ∩ Z` search.
        let start = Instant::now();
        let fcr_holds = artifacts.fcr(&cpds).holds();
        let kinds: Vec<EngineKind> = lineup
            .iter()
            .copied()
            .filter(|kind| fcr_holds || !kind.needs_fcr())
            .collect();
        if kinds.is_empty() {
            return Err(CubaError::FcrRequired);
        }

        // The session's own token (fired on a conclusive verdict)
        // plus, separately, the caller's external token: the session
        // must never fire a token it does not own — callers share
        // theirs across independent sessions.
        let cancel = CancelToken::new();
        let mut interrupt = Interrupt::none().with_cancel(cancel.clone());
        if let Some(external) = &config.cancel {
            interrupt = interrupt.with_cancel(external.clone());
        }
        if let Some(timeout) = config.timeout {
            interrupt = interrupt.with_timeout(timeout);
        }
        let params = EngineParams {
            budget: config.budget.clone().with_interrupt(interrupt.clone()),
            max_k: config.max_k,
            subsumption: config.subsumption,
            // Arms borrow the system's shared explorers: one `(Rk)`
            // and/or `(Sk)` exploration per system, however many arms,
            // sessions, and properties consume it. Alg. 3 arms also
            // share its `G ∩ Z`, computed inside the first round that
            // needs it, where the session's interrupt applies.
            artifacts: Some(artifacts.clone()),
        };
        let arms = kinds
            .iter()
            .map(|kind| Arm {
                engine: build_engine(*kind, &cpds, &property, &params),
                retired: false,
                error: None,
            })
            .collect();
        Ok(AnalysisSession {
            arms,
            ctx: RoundCtx::with_interrupt(interrupt),
            cancel,
            fcr_holds,
            start,
            cursor: 0,
            round_wall: Duration::ZERO,
            rounds_explored: 0,
            rounds_replayed: 0,
            stages: StageTimes::default(),
            pending: VecDeque::new(),
            outcome: None,
            decided: false,
        })
    }

    /// The session's cancellation token: cancel it (from any thread)
    /// to stop this session cooperatively, mid-round included. The
    /// session fires it itself when an arm concludes conclusively; an
    /// external token passed via [`SessionConfig::cancel`] is polled
    /// too but never fired by the session.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether FCR holds for the problem under analysis.
    pub fn fcr_holds(&self) -> bool {
        self.fcr_holds
    }

    /// The session outcome, once the event stream is drained.
    pub fn outcome(&self) -> Option<&Result<CubaOutcome, CubaError>> {
        self.outcome.as_ref()
    }

    /// Takes the outcome out of a drained session.
    pub fn into_outcome(self) -> Result<CubaOutcome, CubaError> {
        self.outcome.unwrap_or(Err(CubaError::Explore(
            cuba_explore::ExploreError::Cancelled,
        )))
    }

    /// Produces the next event, stepping one engine if none is queued.
    /// `None` once the stream is exhausted (outcome available).
    pub fn next_event(&mut self) -> Option<SessionEvent> {
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            if self.decided {
                return None;
            }
            self.step_once();
        }
    }

    /// Steps the next active arm after the last one stepped (lineup
    /// order, wrapping), queueing the resulting events, or finalizes
    /// the session when every arm has retired.
    fn step_once(&mut self) {
        let n = self.arms.len();
        let Some(index) = (0..n)
            .map(|offset| (self.cursor + offset) % n)
            .find(|&i| !self.arms[i].retired)
        else {
            self.finalize();
            return;
        };
        self.cursor = index + 1;
        let arm = &mut self.arms[index];
        let id = arm.engine.id();
        let mut round_span = trace::span_args("round", vec![("engine", id.to_string().into())]);
        let scope = round_scope();
        let step_start = Instant::now();
        let result = arm.engine.step(&mut self.ctx);
        let wall = step_start.elapsed();
        let [sat_us, _, merge_us] = scope.take();
        let step_stages = StageTimes {
            saturate: Duration::from_micros(sat_us),
            check: wall.saturating_sub(Duration::from_micros(sat_us)),
            merge: Duration::from_micros(merge_us),
        };
        METRICS
            .stage_duration_us(Stage::Check)
            .observe(step_stages.check.as_micros() as u64);
        self.stages.add(&step_stages);
        if let Ok(RoundOutcome::Continue(info))
        | Ok(RoundOutcome::Concluded {
            round: Some(info), ..
        }) = &result
        {
            round_span.arg("k", info.k);
            round_span.arg("states", info.states);
        }
        drop(round_span);
        match result {
            Ok(RoundOutcome::Continue(info)) => {
                self.note_round(id, &info);
            }
            Ok(RoundOutcome::Concluded { round, verdict }) => {
                arm.retired = true;
                // `id()` may change with the conclusion (the fused
                // engine attributes collapses to Scheme 1).
                let id = arm.engine.id();
                let rounds = arm.engine.rounds();
                let states = arm.engine.states();
                if let Some(info) = round {
                    self.note_round(id, &info);
                }
                self.pending.push_back(SessionEvent::EngineConcluded {
                    engine: id,
                    verdict: verdict.clone(),
                    rounds,
                    states,
                });
                if !matches!(verdict, Verdict::Undetermined { .. }) {
                    self.decide(Ok(CubaOutcome {
                        verdict,
                        fcr_holds: self.fcr_holds,
                        engine: id,
                        states,
                        rounds,
                        duration: self.start.elapsed(),
                        round_wall: self.round_wall,
                        rounds_explored: self.rounds_explored,
                        rounds_replayed: self.rounds_replayed,
                        stages: self.stages,
                    }));
                }
            }
            Err(error) => {
                arm.retired = true;
                arm.error = Some(error.clone());
                self.pending
                    .push_back(SessionEvent::EngineFailed { engine: id, error });
            }
        }
    }

    /// Books a completed round: cost accounting, the explored/replayed
    /// counters, and the streamed event.
    fn note_round(&mut self, id: EngineUsed, info: &crate::RoundInfo) {
        self.round_wall += info.elapsed;
        if info.replayed {
            self.rounds_replayed += 1;
            METRICS.rounds_replayed.inc();
        } else {
            self.rounds_explored += 1;
            METRICS.rounds_explored.inc();
        }
        self.pending.push_back(round_event(id, info));
    }

    /// All arms are retired: pick the best available answer.
    ///
    /// Preference order: a conclusive verdict (handled in
    /// `step_once`), then an `Undetermined` conclusion, then
    /// interruption, then the first hard error. Among arms that got
    /// equally far, the first-listed one answers.
    fn finalize(&mut self) {
        // An Undetermined conclusion from the arm that got furthest.
        let undetermined = furthest(
            self.arms
                .iter()
                .filter(|arm| arm.error.is_none())
                .filter(|arm| arm.engine.verdict().is_some()),
        );
        if let Some(arm) = undetermined {
            let verdict = arm.engine.verdict().expect("filtered above").clone();
            let outcome = CubaOutcome {
                verdict,
                fcr_holds: self.fcr_holds,
                engine: arm.engine.id(),
                states: arm.engine.states(),
                rounds: arm.engine.rounds(),
                duration: self.start.elapsed(),
                round_wall: self.round_wall,
                rounds_explored: self.rounds_explored,
                rounds_replayed: self.rounds_replayed,
                stages: self.stages,
            };
            self.decide(Ok(outcome));
            return;
        }
        // Interruption beats hard errors: the session was told to
        // stop, which is an Undetermined answer, not a failure.
        let interrupted = self.arms.iter().find_map(|arm| match &arm.error {
            Some(CubaError::Explore(e)) if e.is_interruption() => Some(e.clone()),
            _ => None,
        });
        if let Some(reason) = interrupted {
            let best = furthest(self.arms.iter()).expect("sessions have at least one arm");
            let outcome = CubaOutcome {
                verdict: Verdict::Undetermined {
                    reason: reason.to_string(),
                },
                fcr_holds: self.fcr_holds,
                engine: best.engine.id(),
                states: best.engine.states(),
                rounds: best.engine.rounds(),
                duration: self.start.elapsed(),
                round_wall: self.round_wall,
                rounds_explored: self.rounds_explored,
                rounds_replayed: self.rounds_replayed,
                stages: self.stages,
            };
            self.decide(Ok(outcome));
            return;
        }
        let error = self
            .arms
            .iter()
            .find_map(|arm| arm.error.clone())
            .unwrap_or(CubaError::Explore(cuba_explore::ExploreError::Cancelled));
        self.outcome = Some(Err(error));
        self.decided = true;
    }

    /// Records the outcome and queues the final event. A *conclusive*
    /// verdict also fires the session's cancel token. Undetermined
    /// outcomes leave the token alone so a retiring refuter cannot
    /// stop the session.
    fn decide(&mut self, outcome: Result<CubaOutcome, CubaError>) {
        if let Ok(o) = &outcome {
            self.pending
                .push_back(SessionEvent::Verdict { outcome: o.clone() });
            if !matches!(o.verdict, Verdict::Undetermined { .. }) {
                self.cancel.cancel();
            }
        }
        self.outcome = Some(outcome);
        self.decided = true;
    }

    /// Drains the stream, discarding events.
    ///
    /// # Errors
    ///
    /// The first hard engine error when no arm produced an answer.
    pub fn run(mut self) -> Result<CubaOutcome, CubaError> {
        while self.next_event().is_some() {}
        self.into_outcome()
    }

    /// Drains the stream through a callback.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_with(
        mut self,
        mut on_event: impl FnMut(&SessionEvent),
    ) -> Result<CubaOutcome, CubaError> {
        while let Some(event) = self.next_event() {
            on_event(&event);
        }
        self.into_outcome()
    }
}

/// The arm that computed the most rounds; the first-listed one on a
/// tie (`max_by_key` would pick the last).
fn furthest<'a>(arms: impl Iterator<Item = &'a Arm>) -> Option<&'a Arm> {
    arms.min_by_key(|arm| std::cmp::Reverse(arm.engine.rounds()))
}

/// Builds the `RoundCompleted` event for a computed round.
fn round_event(engine: EngineUsed, info: &crate::RoundInfo) -> SessionEvent {
    SessionEvent::RoundCompleted {
        engine,
        k: info.k,
        states: info.states,
        delta_states: info.delta_states,
        elapsed: info.elapsed,
        event: info.event,
        replayed: info.replayed,
    }
}

impl Iterator for AnalysisSession {
    type Item = SessionEvent;

    fn next(&mut self) -> Option<SessionEvent> {
        self.next_event()
    }
}

impl std::fmt::Debug for AnalysisSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisSession")
            .field("arms", &self.arms.len())
            .field("decided", &self.decided)
            .field("fcr_holds", &self.fcr_holds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1, fig2};
    use crate::{ConvergenceMethod, EngineUsed};
    use cuba_pds::{SharedState, StackSym, VisibleState};

    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(
            SharedState(qq),
            tops.iter().map(|t| t.map(StackSym)).collect(),
        )
    }

    /// The default lineup under FCR: the fused explicit arm plus the
    /// CBA refuter.
    fn fcr_lineup() -> Vec<EngineKind> {
        vec![EngineKind::Alg3Explicit, EngineKind::CbaRefuter]
    }

    /// The streaming acceptance shape: at least one RoundCompleted per
    /// bound 0..=5 for the winning engine, and a final Verdict event
    /// agreeing with the outcome.
    #[test]
    fn fig1_streams_rounds_and_verdict() {
        let mut session =
            AnalysisSession::new(fig1(), Property::True, &fcr_lineup(), &SessionConfig::new())
                .unwrap();
        let mut alg3_rounds = Vec::new();
        let mut last = None;
        for event in &mut session {
            if let SessionEvent::RoundCompleted {
                engine: EngineUsed::Alg3Explicit,
                k,
                ..
            } = &event
            {
                alg3_rounds.push(*k);
            }
            last = Some(event);
        }
        assert_eq!(alg3_rounds, vec![0, 1, 2, 3, 4, 5, 6]);
        let outcome = session.outcome().unwrap().as_ref().unwrap();
        assert!(matches!(
            outcome.verdict,
            Verdict::Safe {
                k: 5,
                method: ConvergenceMethod::GeneratorTest
            }
        ));
        assert_eq!(outcome.engine, EngineUsed::Alg3Explicit);
        assert!(outcome.fcr_holds);
        match last {
            Some(SessionEvent::Verdict { outcome: o }) => {
                assert_eq!(o.verdict, outcome.verdict);
            }
            other => panic!("expected final Verdict event, got {other:?}"),
        }
    }

    /// Explicit-only lineups refuse FCR-violating systems.
    #[test]
    fn explicit_lineup_requires_fcr() {
        for lineup in [
            &[EngineKind::Alg3Explicit][..],
            &[EngineKind::Scheme1Explicit],
            &[EngineKind::Alg3Explicit, EngineKind::Scheme1Explicit],
        ] {
            let err = AnalysisSession::new(fig2(), Property::True, lineup, &SessionConfig::new())
                .unwrap_err();
            assert_eq!(err, CubaError::FcrRequired, "{lineup:?}");
        }
    }

    /// Inapplicable arms are dropped, applicable ones keep running.
    #[test]
    fn mixed_lineup_drops_explicit_arms_without_fcr() {
        let lineup = [
            EngineKind::Alg3Explicit,
            EngineKind::Alg3Symbolic,
            EngineKind::Scheme1Symbolic,
        ];
        let session =
            AnalysisSession::new(fig2(), Property::True, &lineup, &SessionConfig::new()).unwrap();
        let outcome = session.run().unwrap();
        assert!(outcome.verdict.is_safe());
        assert!(!outcome.fcr_holds);
    }

    /// A pre-cancelled token stops the session before any round; the
    /// outcome is Undetermined, not an error.
    #[test]
    fn cancellation_before_first_round() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let config = SessionConfig {
            cancel: Some(cancel),
            ..SessionConfig::new()
        };
        let session = AnalysisSession::new(fig1(), Property::True, &fcr_lineup(), &config).unwrap();
        let outcome = session.run().unwrap();
        match outcome.verdict {
            Verdict::Undetermined { reason } => assert!(reason.contains("cancelled")),
            other => panic!("expected Undetermined, got {other:?}"),
        }
    }

    /// An expired deadline interrupts *mid-round*: Fig. 2's first
    /// explicit context closure diverges, so without the in-loop poll
    /// this test would spin until the budget, not the deadline.
    #[test]
    fn deadline_interrupts_mid_round() {
        let params = EngineParams {
            // A budget big enough that Fig. 2's diverging closure
            // would outlive the deadline many times over.
            budget: ExploreBudget {
                max_states: 50_000_000,
                max_states_per_context: 50_000_000,
                max_stack_depth: 1_000_000,
                ..ExploreBudget::default()
            }
            .with_interrupt(Interrupt::none().with_timeout(Duration::from_millis(30))),
            ..EngineParams::default()
        };
        // Force the *explicit* engine onto the FCR-violating system by
        // building it directly (the session would drop it).
        let start = Instant::now();
        let mut engine = build_engine(EngineKind::Alg3Explicit, &fig2(), &Property::True, &params);
        let mut ctx = RoundCtx::new();
        // Round 0 is the initial state; round 1 diverges.
        engine.step(&mut ctx).unwrap();
        let err = loop {
            match engine.step(&mut ctx) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(
            err,
            CubaError::Explore(cuba_explore::ExploreError::DeadlineExceeded)
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline was not honored promptly: {:?}",
            start.elapsed()
        );
    }

    /// Session-level deadline: all arms retire with DeadlineExceeded
    /// and the session reports Undetermined.
    #[test]
    fn session_deadline_yields_undetermined() {
        // A zero timeout: the deadline (set at session construction)
        // has passed by the first poll, whatever the build profile —
        // in release mode even a few-millisecond deadline can lose
        // the race against Fig. 1's microsecond rounds.
        let config = SessionConfig {
            timeout: Some(Duration::ZERO),
            ..SessionConfig::new()
        };
        let session = AnalysisSession::new(fig1(), Property::True, &fcr_lineup(), &config).unwrap();
        let outcome = session.run().unwrap();
        match outcome.verdict {
            Verdict::Undetermined { reason } => assert!(reason.contains("deadline")),
            other => panic!("expected Undetermined, got {other:?}"),
        }
    }

    /// An unsafe problem is refuted through the session with the same
    /// bound and a replayable witness, whichever arm wins.
    #[test]
    fn unsafe_verdict_with_witness_through_session() {
        let cpds = fig1();
        let property = Property::never_visible(vis(1, &[Some(2), Some(6)]));
        let session =
            AnalysisSession::new(cpds.clone(), property, &fcr_lineup(), &SessionConfig::new())
                .unwrap();
        let outcome = session.run().unwrap();
        match outcome.verdict {
            Verdict::Unsafe { k, witness } => {
                assert_eq!(k, 5);
                let w = witness.expect("witness attached");
                assert!(w.replay(&cpds));
            }
            other => panic!("expected Unsafe at 5, got {other:?}"),
        }
    }

    /// `SessionConfig::default()` and `SessionConfig::new()` are the
    /// same configuration, so a default session proves Fig. 1 safe at
    /// k = 5 instead of giving up within zero contexts.
    #[test]
    fn default_config_proves_fig1() {
        let session = AnalysisSession::new(
            fig1(),
            Property::True,
            &fcr_lineup(),
            &SessionConfig::default(),
        )
        .unwrap();
        let outcome = session.run().unwrap();
        assert_eq!(
            outcome.verdict,
            Verdict::Safe {
                k: 5,
                method: ConvergenceMethod::GeneratorTest
            }
        );
        assert_eq!(SessionConfig::default().max_k, SessionConfig::new().max_k);
    }

    /// When no arm decides, lineup order breaks the tie: both arms of
    /// the FCR lineup compute 3 rounds on Fig. 1, and the fused arm,
    /// listed first, gives the answer.
    #[test]
    fn undetermined_answer_comes_from_the_first_listed_arm() {
        let config = SessionConfig {
            max_k: 3,
            ..SessionConfig::new()
        };
        let session = AnalysisSession::new(fig1(), Property::True, &fcr_lineup(), &config).unwrap();
        let outcome = session.run().unwrap();
        assert_eq!(outcome.engine, EngineUsed::Alg3Explicit);
        assert_eq!(outcome.rounds, 3);
        assert_eq!(
            outcome.verdict,
            Verdict::Undetermined {
                reason: "no convergence within 3 rounds".to_owned()
            }
        );
    }

    /// The same rule holds for interrupted sessions: every arm is
    /// stopped before its first round, and the first-listed one
    /// answers.
    #[test]
    fn interrupted_answer_comes_from_the_first_listed_arm() {
        let config = SessionConfig {
            timeout: Some(Duration::ZERO),
            ..SessionConfig::new()
        };
        let session = AnalysisSession::new(fig1(), Property::True, &fcr_lineup(), &config).unwrap();
        let outcome = session.run().unwrap();
        assert_eq!(outcome.engine, EngineUsed::Alg3Explicit);
    }
}
