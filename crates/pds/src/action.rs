use crate::{SharedState, StackEdit, StackSym};

/// Right-hand side `w' ∈ Σ≤2` of an action `(q, w) → (q', w')`.
///
/// The paper writes a two-symbol right-hand side as `ρ0ρ1` where `ρ0`
/// becomes the new top of the stack and `ρ1` overwrites the old top
/// (modelling a procedure call where the *callee* frame `ρ0` is pushed
/// and the caller's program counter advances to `ρ1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rhs {
    /// `w' = ε`: pop the top symbol (procedure return).
    Empty,
    /// `w' = σ'`: overwrite the top symbol (intraprocedural step).
    One(StackSym),
    /// `w' = ρ0ρ1`: push `top` (= `ρ0`) above `below` (= `ρ1`), which
    /// replaces the old top (procedure call).
    Two {
        /// The new top of the stack (`ρ0`, the callee entry).
        top: StackSym,
        /// The symbol written directly underneath (`ρ1`, the return site).
        below: StackSym,
    },
}

impl Rhs {
    /// Number of symbols written, `|w'|`.
    pub fn len(&self) -> usize {
        match self {
            Rhs::Empty => 0,
            Rhs::One(_) => 1,
            Rhs::Two { .. } => 2,
        }
    }

    /// Whether `w' = ε`.
    pub fn is_empty(&self) -> bool {
        matches!(self, Rhs::Empty)
    }

    /// The symbols of `w'` bottom-up, the order in which a step pushes
    /// them: `ρ1` before `ρ0` for a two-symbol right-hand side.
    pub fn bottom_up(&self) -> impl Iterator<Item = StackSym> {
        let (syms, n) = match *self {
            Rhs::Empty => ([StackSym(0); 2], 0),
            Rhs::One(s) => ([s, s], 1),
            Rhs::Two { top, below } => ([below, top], 2),
        };
        syms.into_iter().take(n)
    }
}

/// Classification of an action by its stack effect (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// `(q,σ) → (q',ε)`: pops `σ` (a terminating procedure).
    Pop,
    /// `(q,σ) → (q',σ')`: overwrites `σ` by `σ'`.
    Overwrite,
    /// `(q,σ) → (q',ρ0ρ1)`: pushes `ρ0`, overwrites `σ` by `ρ1`.
    Push,
    /// `(q,ε) → (q',ε)`: fires on the empty stack, changes only `q`.
    EmptyOverwrite,
    /// `(q,ε) → (q',σ)`: fires on the empty stack, pushes one symbol.
    EmptyPush,
}

/// A single action `(q, w) → (q', w')` with `w ∈ Σ≤1`, `w' ∈ Σ≤2` of a
/// [`Pds`](crate::Pds) program `Δ`.
///
/// Construct actions through [`PdsBuilder`](crate::PdsBuilder), which
/// validates ranges, or directly when ids are known to be in range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Action {
    /// Source shared state `q`.
    pub q: SharedState,
    /// Required top-of-stack `w` (`None` means the stack must be empty).
    pub top: Option<StackSym>,
    /// Target shared state `q'`.
    pub q_post: SharedState,
    /// Stack effect `w'`.
    pub rhs: Rhs,
}

impl Action {
    /// A pop action `(q,σ) → (q',ε)`.
    pub fn pop(q: SharedState, sym: StackSym, q_post: SharedState) -> Self {
        Action {
            q,
            top: Some(sym),
            q_post,
            rhs: Rhs::Empty,
        }
    }

    /// An overwrite action `(q,σ) → (q',σ')`.
    pub fn overwrite(
        q: SharedState,
        sym: StackSym,
        q_post: SharedState,
        sym_post: StackSym,
    ) -> Self {
        Action {
            q,
            top: Some(sym),
            q_post,
            rhs: Rhs::One(sym_post),
        }
    }

    /// A push action `(q,σ) → (q',ρ0ρ1)`.
    pub fn push(
        q: SharedState,
        sym: StackSym,
        q_post: SharedState,
        rho0: StackSym,
        rho1: StackSym,
    ) -> Self {
        Action {
            q,
            top: Some(sym),
            q_post,
            rhs: Rhs::Two {
                top: rho0,
                below: rho1,
            },
        }
    }

    /// An empty-stack action `(q,ε) → (q',w')` with `w' ∈ Σ≤1`.
    ///
    /// # Panics
    ///
    /// Does not panic; two-symbol right-hand sides from the empty stack
    /// are rejected by [`PdsBuilder`](crate::PdsBuilder) instead.
    pub fn from_empty(q: SharedState, q_post: SharedState, sym_post: Option<StackSym>) -> Self {
        Action {
            q,
            top: None,
            q_post,
            rhs: match sym_post {
                None => Rhs::Empty,
                Some(s) => Rhs::One(s),
            },
        }
    }

    /// The action's [`ActionKind`].
    pub fn kind(&self) -> ActionKind {
        match (self.top, &self.rhs) {
            (Some(_), Rhs::Empty) => ActionKind::Pop,
            (Some(_), Rhs::One(_)) => ActionKind::Overwrite,
            (Some(_), Rhs::Two { .. }) => ActionKind::Push,
            (None, Rhs::Empty) => ActionKind::EmptyOverwrite,
            (None, Rhs::One(_)) => ActionKind::EmptyPush,
            (None, Rhs::Two { .. }) => {
                unreachable!("two-symbol rhs from empty stack is rejected at construction")
            }
        }
    }

    /// The step rule of §2.1 on one thread's stack, the single
    /// definition every stack representation uses: pop the matched
    /// top (when the action reads one), then push `w'` bottom-up. An
    /// overwrite is thus a pop and a push, a call `(q,σ) → (q',ρ0ρ1)`
    /// a pop and two pushes.
    ///
    /// The caller checks enabledness: `stack`'s top must be
    /// [`top`](Self::top).
    pub fn apply_to<S: StackEdit + ?Sized>(&self, stack: &mut S) {
        if self.top.is_some() {
            stack.pop_top();
        }
        for sym in self.rhs.bottom_up() {
            stack.push_top(sym);
        }
    }

    /// Whether this is a pop action `(·,·) → (·,ε)` with a non-empty
    /// left-hand side. Used by the generator-set construction (Eq. 2).
    pub fn is_pop(&self) -> bool {
        self.kind() == ActionKind::Pop
    }

    /// Whether this is a push action. For a push, returns `(ρ0, ρ1)`.
    pub fn push_symbols(&self) -> Option<(StackSym, StackSym)> {
        match self.rhs {
            Rhs::Two { top, below } => Some((top, below)),
            _ => None,
        }
    }
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},", self.q)?;
        match self.top {
            Some(s) => write!(f, "{s}")?,
            None => write!(f, "eps")?,
        }
        write!(f, ") -> ({},", self.q_post)?;
        match self.rhs {
            Rhs::Empty => write!(f, "eps")?,
            Rhs::One(s) => write!(f, "{s}")?,
            Rhs::Two { top, below } => write!(f, "{top}{below}")?,
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    #[test]
    fn kinds_classify_all_action_shapes() {
        assert_eq!(Action::pop(q(0), s(1), q(2)).kind(), ActionKind::Pop);
        assert_eq!(
            Action::overwrite(q(0), s(1), q(2), s(3)).kind(),
            ActionKind::Overwrite
        );
        assert_eq!(
            Action::push(q(0), s(1), q(2), s(3), s(4)).kind(),
            ActionKind::Push
        );
        assert_eq!(
            Action::from_empty(q(0), q(1), None).kind(),
            ActionKind::EmptyOverwrite
        );
        assert_eq!(
            Action::from_empty(q(0), q(1), Some(s(2))).kind(),
            ActionKind::EmptyPush
        );
    }

    #[test]
    fn push_symbols_only_for_pushes() {
        assert_eq!(
            Action::push(q(0), s(1), q(2), s(3), s(4)).push_symbols(),
            Some((s(3), s(4)))
        );
        assert_eq!(Action::pop(q(0), s(1), q(2)).push_symbols(), None);
        assert_eq!(
            Action::overwrite(q(0), s(1), q(2), s(3)).push_symbols(),
            None
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        let a = Action::push(q(2), s(5), q(3), s(4), s(6));
        assert_eq!(a.to_string(), "(2,5) -> (3,46)");
        let b = Action::pop(q(0), s(4), q(0));
        assert_eq!(b.to_string(), "(0,4) -> (0,eps)");
        let c = Action::from_empty(q(1), q(2), None);
        assert_eq!(c.to_string(), "(1,eps) -> (2,eps)");
    }

    #[test]
    fn rhs_pushes_bottom_up() {
        assert_eq!(Rhs::Empty.bottom_up().count(), 0);
        assert_eq!(Rhs::One(s(1)).bottom_up().collect::<Vec<_>>(), [s(1)]);
        let call = Rhs::Two {
            top: s(1),
            below: s(2),
        };
        assert_eq!(call.bottom_up().collect::<Vec<_>>(), [s(2), s(1)]);
    }

    #[test]
    fn rhs_len() {
        assert_eq!(Rhs::Empty.len(), 0);
        assert!(Rhs::Empty.is_empty());
        assert_eq!(Rhs::One(s(1)).len(), 1);
        assert_eq!(
            Rhs::Two {
                top: s(1),
                below: s(2)
            }
            .len(),
            2
        );
    }
}
