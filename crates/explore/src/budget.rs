use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, cloneable cancellation flag.
///
/// Cloned handles observe the same flag, so a session (or a portfolio
/// arm that has already concluded) can ask every other engine to stop
/// *mid-round*: the exploration engines poll the token from their
/// inner loops and abort with [`ExploreError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; wakes nobody — engines
    /// observe the flag at their next poll point.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Cooperative interruption: any number of [`CancelToken`]s plus an
/// optional wall-clock deadline.
///
/// A runtime value, never configuration: every exploring call takes
/// the caller's interrupt as an argument (an engine's `advance`, a
/// [`SharedExplorer::ensure_layer`](crate::SharedExplorer::ensure_layer),
/// a witness search) and polls it from its inner loops, so even a
/// single exploding context closure stops promptly.
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    /// Any fired token interrupts; multiple sources compose (e.g. a
    /// session-internal token plus a caller's ctrl-C token).
    cancels: Vec<CancelToken>,
    deadline: Option<Instant>,
}

impl Interrupt {
    /// No interruption: engines run to completion or budget.
    pub fn none() -> Self {
        Interrupt::default()
    }

    /// Additionally interrupt when `token` is cancelled.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancels.push(token);
        self
    }

    /// Interrupt when the wall clock passes `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Interrupt `timeout` from now. A timeout that reaches past what
    /// the clock can represent sets no deadline.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.with_deadline(deadline),
            None => self,
        }
    }

    /// Polls every source.
    ///
    /// # Errors
    ///
    /// [`ExploreError::Cancelled`] when a token fired,
    /// [`ExploreError::DeadlineExceeded`] when the wall clock passed
    /// the deadline.
    pub fn check(&self) -> Result<(), ExploreError> {
        if self.cancels.iter().any(CancelToken::is_cancelled) {
            return Err(ExploreError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(ExploreError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// Resource limits for exploration.
///
/// A single context of one thread can reach infinitely many states
/// when finite context reachability (paper §5) fails — e.g. the Fig. 2
/// program pushes unboundedly without a context switch — so every
/// explicit search is bounded and exhaustion is reported as
/// [`ExploreError`] instead of diverging. Cancellation and deadlines
/// are not limits: each exploring call takes an [`Interrupt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreBudget {
    /// Maximum number of distinct global states stored overall.
    pub max_states: usize,
    /// Maximum stack depth of any single thread in any stored state.
    pub max_stack_depth: usize,
    /// Maximum number of states explored within one context closure.
    pub max_states_per_context: usize,
    /// Maximum number of symbolic states stored overall (symbolic
    /// engine only).
    pub max_symbolic_states: usize,
}

impl Default for ExploreBudget {
    /// Generous defaults suitable for the paper's benchmark sizes.
    fn default() -> Self {
        ExploreBudget::generous()
    }
}

impl ExploreBudget {
    /// Generous defaults suitable for the paper's benchmark sizes.
    pub fn generous() -> Self {
        ExploreBudget {
            max_states: 2_000_000,
            max_stack_depth: 512,
            max_states_per_context: 1_000_000,
            max_symbolic_states: 200_000,
        }
    }

    /// A small budget for tests that exercise budget exhaustion.
    pub fn tiny() -> Self {
        ExploreBudget {
            max_states: 200,
            max_stack_depth: 16,
            max_states_per_context: 200,
            max_symbolic_states: 64,
        }
    }

    /// Always 1: saturation is sequential. Kept for the `perfbench/`
    /// harness, which passes it to
    /// [`post_star_with`](cuba_automata::post_star_with) and
    /// [`pre_star_with`](cuba_automata::pre_star_with); both ignore it.
    pub fn effective_threads(&self) -> usize {
        1
    }
}

/// Exploration failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The total state budget was exhausted.
    StateBudgetExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A stack grew past the depth budget — the typical signature of a
    /// thread that violates finite context reachability.
    StackDepthExceeded {
        /// The configured limit.
        limit: usize,
        /// The thread whose stack overflowed the budget.
        thread: usize,
    },
    /// A single context closure exceeded its state budget.
    ContextBudgetExceeded {
        /// The configured limit.
        limit: usize,
        /// The thread being closed over.
        thread: usize,
    },
    /// The symbolic state budget was exhausted (the paper's
    /// out-of-memory case for Stefan-1 with 8 threads).
    SymbolicBudgetExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A [`CancelToken`] fired: another portfolio arm concluded, or
    /// the caller gave up.
    Cancelled,
    /// The wall-clock deadline passed mid-exploration.
    DeadlineExceeded,
}

impl ExploreError {
    /// Whether the error is a cooperative interruption (cancellation
    /// or deadline) rather than a genuine resource exhaustion.
    pub fn is_interruption(&self) -> bool {
        matches!(
            self,
            ExploreError::Cancelled | ExploreError::DeadlineExceeded
        )
    }
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::StateBudgetExceeded { limit } => {
                write!(f, "state budget of {limit} states exceeded")
            }
            ExploreError::StackDepthExceeded { limit, thread } => write!(
                f,
                "stack depth budget of {limit} exceeded by thread {thread} (likely FCR violation)"
            ),
            ExploreError::ContextBudgetExceeded { limit, thread } => write!(
                f,
                "per-context budget of {limit} states exceeded by thread {thread} (likely FCR violation)"
            ),
            ExploreError::SymbolicBudgetExceeded { limit } => {
                write!(f, "symbolic state budget of {limit} exceeded")
            }
            ExploreError::Cancelled => write!(f, "exploration cancelled"),
            ExploreError::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

impl std::error::Error for ExploreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_generous() {
        let b = ExploreBudget::default();
        assert!(b.max_states >= 1_000_000);
        assert!(b.max_stack_depth >= 256);
    }

    #[test]
    fn tiny_budget_is_tiny() {
        let b = ExploreBudget::tiny();
        assert!(b.max_states <= 1000);
    }

    #[test]
    fn errors_display() {
        for e in [
            ExploreError::StateBudgetExceeded { limit: 5 },
            ExploreError::StackDepthExceeded {
                limit: 5,
                thread: 1,
            },
            ExploreError::ContextBudgetExceeded {
                limit: 5,
                thread: 0,
            },
            ExploreError::SymbolicBudgetExceeded { limit: 5 },
        ] {
            assert!(e.to_string().contains('5'));
        }
        assert!(ExploreError::Cancelled.to_string().contains("cancelled"));
        assert!(ExploreError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());

        let interrupt = Interrupt::none().with_cancel(token);
        assert_eq!(interrupt.check(), Err(ExploreError::Cancelled));
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let interrupt = Interrupt::none().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(interrupt.check(), Err(ExploreError::DeadlineExceeded));
        let future = Interrupt::none().with_timeout(Duration::from_secs(3600));
        assert_eq!(future.check(), Ok(()));
    }

    /// A timeout past the clock's range sets no deadline instead of
    /// overflowing the addition.
    #[test]
    fn an_unrepresentable_timeout_never_fires() {
        let endless = Interrupt::none().with_timeout(Duration::MAX);
        assert_eq!(endless.check(), Ok(()));
        let token = CancelToken::new();
        let cancellable = Interrupt::none()
            .with_cancel(token.clone())
            .with_timeout(Duration::MAX);
        assert_eq!(cancellable.check(), Ok(()));
        token.cancel();
        assert_eq!(cancellable.check(), Err(ExploreError::Cancelled));
    }
}
