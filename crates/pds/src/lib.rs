//! Pushdown systems (PDS) and concurrent pushdown systems (CPDS): the
//! program model underlying CUBA (Liu & Wahl, PLDI 2018, §2).
//!
//! A *pushdown system* is a tuple `(Q, Σ, Δ, qI)` of shared states,
//! stack alphabet, actions and an initial shared state. A *concurrent*
//! pushdown system is a fixed number of PDSs that share `Q` and `qI`
//! but have individual stack alphabets and actions; threads interleave
//! asynchronously and communicate only through the shared state.
//!
//! The step rule of §2.1 lives in one place, [`Action::apply_to`],
//! over any [`StackEdit`] stack representation: the plain [`Stack`]
//! and the hash-consed stacks of a [`StackTable`]. With a
//! [`KeyTable`] of fixed-width `u32` keys, those are the interned
//! state representation of the exploration engines. Visible states
//! have one key coding too, `(q, [top code; n])`
//! ([`VisibleState::key`], [`top_code`]), shared by the layer store,
//! the symbolic engine and the `G ∩ Z` search.
//!
//! # Example
//!
//! The two-thread CPDS of Fig. 1 of the paper:
//!
//! ```
//! use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym};
//!
//! # fn main() -> Result<(), cuba_pds::PdsError> {
//! let q = |n| SharedState(n);
//! let s = |n| StackSym(n);
//!
//! let mut p1 = PdsBuilder::new(4, 3); // 4 shared states, symbols {0,1,2}
//! p1.overwrite(q(0), s(1), q(1), s(2))?; // f1
//! p1.overwrite(q(3), s(2), q(0), s(1))?; // f2
//!
//! let mut p2 = PdsBuilder::new(4, 7);
//! p2.pop(q(0), s(4), q(0))?; // b1
//! p2.overwrite(q(1), s(4), q(2), s(5))?; // b2
//! p2.push(q(2), s(5), q(3), s(4), s(6))?; // b3
//!
//! let cpds = CpdsBuilder::new(4, q(0))
//!     .thread(p1.build()?, [s(1)])
//!     .thread(p2.build()?, [s(4)])
//!     .build()?;
//! assert_eq!(cpds.num_threads(), 2);
//! assert_eq!(format!("{}", cpds.initial_state()), "<0|1,4>");
//! # Ok(())
//! # }
//! ```

mod action;
mod cpds;
mod error;
mod intern;
mod pds;
pub mod rng;
mod stack;
mod state;

pub use action::{Action, ActionKind, Rhs};
pub use cpds::{Cpds, CpdsBuilder};
pub use error::PdsError;
pub use intern::{KeyTable, StackEdit, StackId, StackTable};
pub use pds::{Pds, PdsBuilder};
pub use stack::Stack;
pub use state::{
    canonicalize_visible_key, code_top, top_code, GlobalState, PdsConfig, ThreadVisible,
    VisibleState,
};

/// Identifier of a shared (global) state, an element of `Q`.
///
/// Shared states are dense integers `0..num_shared` of the owning
/// [`Pds`]/[`Cpds`]; human-readable names, when present, live in the
/// system's name tables rather than in the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SharedState(pub u32);

/// Identifier of a stack symbol, an element of some thread's alphabet `Σi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StackSym(pub u32);

/// Index of a thread within a [`Cpds`] (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl std::fmt::Display for SharedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::fmt::Display for StackSym {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for SharedState {
    fn from(v: u32) -> Self {
        SharedState(v)
    }
}

impl From<u32> for StackSym {
    fn from(v: u32) -> Self {
        StackSym(v)
    }
}

impl From<usize> for ThreadId {
    fn from(v: usize) -> Self {
        ThreadId(v)
    }
}
