//! Finite-automata substrate for CUBA: NFAs with ε-edges, DFAs,
//! determinization, Hopcroft minimization, canonical minimal DFAs, and
//! *pushdown store automata* (PSA) with `post*`/`pre*` saturation
//! (Bouajjani–Esparza–Maler 1997, Schwoon 2000; paper App. C).
//!
//! A PSA represents a regular — typically infinite — set of pushdown
//! configurations `⟨q|w⟩`: starting from the control state `q` and
//! reading the stack word `w` (top first) must lead to the accepting
//! sink. The saturation procedures close such a set under the action
//! relation of a [`Pds`](cuba_pds::Pds), forwards (`post*`) or
//! backwards (`pre*`).
//!
//! # Example
//!
//! The PDS of the paper's Fig. 7 and its `post*` automaton:
//!
//! ```
//! use cuba_automata::{post_star, Psa};
//! use cuba_pds::{PdsBuilder, PdsConfig, SharedState, Stack, StackSym};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let q = |n| SharedState(n);
//! let s = |n| StackSym(n);
//! let mut b = PdsBuilder::new(3, 3);
//! b.push(q(0), s(0), q(1), s(1), s(0))?;
//! b.push(q(1), s(1), q(2), s(2), s(0))?;
//! b.overwrite(q(2), s(2), q(0), s(1))?;
//! b.pop(q(0), s(1), q(0))?;
//! let pds = b.build()?;
//!
//! let init = Psa::accepting_configs(3, [&PdsConfig::new(q(0), Stack::from_top_down([s(0)]))])?;
//! let reach = post_star(&pds, &init);
//! assert!(reach.accepts_config(&PdsConfig::new(q(1), Stack::from_top_down([s(1), s(0)]))));
//! assert!(!reach.accepts_config(&PdsConfig::new(q(2), Stack::from_top_down([s(0)]))));
//! # Ok(())
//! # }
//! ```

mod canonical;
mod dfa;
mod dot;
mod error;
mod finiteness;
mod minimize;
mod nfa;
mod ops;
mod poststar;
mod prestar;
mod psa;
mod rules;

pub use canonical::CanonicalDfa;
pub use dfa::Dfa;
pub use dot::{nfa_to_dot, psa_to_dot};
pub use error::{AutomataError, SaturationInterrupted};
pub use finiteness::{is_language_finite, Finiteness};
pub use minimize::minimize;
pub use nfa::{Label, Nfa, StateId};
pub use ops::{intersect, language_equal, language_subset};
pub use poststar::{
    bounded_reach, post_star, post_star_from_config, post_star_guarded, post_star_table,
    post_star_with,
};
pub use prestar::{pre_star, pre_star_guarded, pre_star_with};
pub use psa::Psa;
pub use rules::RuleTable;
