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

    /// Whether two handles share the same underlying flag.
    pub fn same_as(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// Cooperative interruption: an optional [`CancelToken`] plus an
/// optional wall-clock deadline.
///
/// Threaded through [`ExploreBudget`] into the engines so that *long
/// rounds* abort cooperatively — previously a caller could only give
/// up between rounds, which is useless exactly when a single context
/// closure explodes.
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

    /// Interrupt `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// The registered cancellation tokens.
    pub fn cancel_tokens(&self) -> &[CancelToken] {
        &self.cancels
    }

    /// The deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether any interruption source is configured.
    pub fn is_armed(&self) -> bool {
        !self.cancels.is_empty() || self.deadline.is_some()
    }

    /// Composes two interrupts: any token of either fires, and the
    /// earlier of the two deadlines wins. Used by a
    /// [`SharedExplorer`](crate::SharedExplorer) to layer a caller's
    /// interrupt on top of the explorer's own baseline.
    pub fn merged(&self, other: &Interrupt) -> Interrupt {
        let mut cancels = self.cancels.clone();
        for token in &other.cancels {
            if !cancels.iter().any(|t| t.same_as(token)) {
                cancels.push(token.clone());
            }
        }
        let deadline = match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Interrupt { cancels, deadline }
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

/// Resource limits for exploration, plus the cooperative
/// [`Interrupt`].
///
/// A single context of one thread can reach infinitely many states
/// when finite context reachability (paper §5) fails — e.g. the Fig. 2
/// program pushes unboundedly without a context switch — so every
/// explicit search is bounded and exhaustion is reported as
/// [`ExploreError`] instead of diverging.
///
/// Equality compares the numeric limits only; the interrupt handle
/// and the saturation thread count are runtime wiring, not
/// configuration — any thread count yields identical results, so two
/// budgets differing only in `threads` are interchangeable (and cached
/// artifacts are shared across thread counts).
#[derive(Debug, Clone)]
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
    /// Worker threads for the sharded saturation backend: `0` asks for
    /// the machine's available parallelism, `1` runs the exact
    /// sequential code path. Any value yields the same verdicts,
    /// witnesses, and layer growth — saturation is a fixpoint, so
    /// insertion order may differ but the fixed point may not.
    pub threads: usize,
    /// Cooperative cancellation/deadline, polled from the engines'
    /// inner loops so even a diverging round stops promptly.
    pub interrupt: Interrupt,
}

impl PartialEq for ExploreBudget {
    fn eq(&self, other: &Self) -> bool {
        self.max_states == other.max_states
            && self.max_stack_depth == other.max_stack_depth
            && self.max_states_per_context == other.max_states_per_context
            && self.max_symbolic_states == other.max_symbolic_states
    }
}

impl Eq for ExploreBudget {}

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
            threads: 0,
            interrupt: Interrupt::none(),
        }
    }

    /// A small budget for tests that exercise budget exhaustion.
    pub fn tiny() -> Self {
        ExploreBudget {
            max_states: 200,
            max_stack_depth: 16,
            max_states_per_context: 200,
            max_symbolic_states: 64,
            threads: 0,
            interrupt: Interrupt::none(),
        }
    }

    /// Replaces the interrupt wiring, keeping the numeric limits.
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> Self {
        self.interrupt = interrupt;
        self
    }

    /// Replaces the saturation thread count, keeping everything else.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The saturation worker count after resolving `0` to the
    /// machine's available parallelism.
    ///
    /// The lookup is cached process-wide: `available_parallelism` reads
    /// cgroup files on Linux, and this resolver runs once per context
    /// step on the saturation hot path.
    pub fn effective_threads(&self) -> usize {
        static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        if self.threads == 0 {
            *AVAILABLE.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
        } else {
            self.threads
        }
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
    fn equality_ignores_interrupt() {
        let plain = ExploreBudget::default();
        let wired = ExploreBudget::default()
            .with_interrupt(Interrupt::none().with_cancel(CancelToken::new()));
        assert_eq!(plain, wired);
    }

    #[test]
    fn equality_ignores_threads() {
        let auto = ExploreBudget::default();
        let forced = ExploreBudget::default().with_threads(8);
        assert_eq!(auto, forced);
        assert_eq!(forced.effective_threads(), 8);
        assert!(auto.effective_threads() >= 1);
        assert_eq!(
            ExploreBudget::default().with_threads(1).effective_threads(),
            1
        );
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(token.same_as(&clone));
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
        assert!(future.is_armed());
        assert!(!Interrupt::none().is_armed());
    }
}
