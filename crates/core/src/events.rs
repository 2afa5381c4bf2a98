//! Typed events streamed by an [`AnalysisSession`](crate::AnalysisSession).
//!
//! The observation-sequence paradigm (§3) is about *watching* how
//! reachability sets evolve round by round — grow, plateau, collapse.
//! Sessions surface exactly that: one [`SessionEvent::RoundCompleted`]
//! per computed bound per engine, engine conclusions, arm failures,
//! and the final verdict.

use crate::{CubaError, CubaOutcome, EngineUsed, SequenceEvent, Verdict};

/// One event in a session's stream.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// An engine finished computing bound `k`.
    RoundCompleted {
        /// The engine that computed the round.
        engine: EngineUsed,
        /// The context bound of the round.
        k: usize,
        /// States stored by that engine after the round.
        states: usize,
        /// States the round added (zero for replayed rounds).
        delta_states: usize,
        /// Wall-clock cost of the round (nonzero; ≈ 0 for replays).
        elapsed: std::time::Duration,
        /// How the engine's observation sequence moved (Table 1).
        event: SequenceEvent,
        /// Whether the round replayed a layer a shared explorer had
        /// already computed (for an earlier property or a sibling arm)
        /// instead of exploring it live.
        replayed: bool,
    },
    /// An engine reached a verdict (possibly `Undetermined` — for a
    /// refuter arm or a round-limited run, that just means "this arm
    /// is done").
    EngineConcluded {
        /// The engine that concluded.
        engine: EngineUsed,
        /// Its verdict.
        verdict: Verdict,
        /// Rounds it computed.
        rounds: usize,
        /// States it stored.
        states: usize,
    },
    /// An engine died (budget exhaustion, cancellation, deadline).
    /// The session keeps stepping the remaining arms.
    EngineFailed {
        /// The engine that failed.
        engine: EngineUsed,
        /// Why.
        error: CubaError,
    },
    /// The session is decided; always the final event of a stream that
    /// produced an outcome (absent when every arm failed hard).
    Verdict {
        /// The session-level outcome.
        outcome: CubaOutcome,
    },
}

impl std::fmt::Display for SessionEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionEvent::RoundCompleted {
                engine,
                k,
                states,
                delta_states,
                elapsed,
                event,
                replayed,
            } => {
                let tag = match event {
                    SequenceEvent::Grew => "grew",
                    SequenceEvent::NewPlateau => "new plateau",
                    SequenceEvent::OngoingPlateau => "plateau",
                };
                let mode = if *replayed { ", replayed" } else { "" };
                write!(
                    f,
                    "{engine}: round k={k} done, {states} states (+{delta_states}, {tag}, {elapsed:?}{mode})"
                )
            }
            SessionEvent::EngineConcluded {
                engine,
                verdict,
                rounds,
                ..
            } => {
                write!(f, "{engine}: concluded after {rounds} rounds: {verdict}")
            }
            SessionEvent::EngineFailed { engine, error } => {
                write!(f, "{engine}: failed: {error}")
            }
            SessionEvent::Verdict { outcome } => {
                write!(f, "verdict by {}: {}", outcome.engine, outcome.verdict)
            }
        }
    }
}
