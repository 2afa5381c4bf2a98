//! CUBA: Context-UnBounded Analysis of concurrent pushdown systems.
//!
//! This is a from-scratch reproduction of *CUBA: Interprocedural
//! Context-UnBounded Analysis of Concurrent Programs* (Liu & Wahl,
//! PLDI 2018). It is a facade crate that re-exports the workspace:
//!
//! * [`pds`] — pushdown systems and concurrent pushdown systems (§2)
//! * [`automata`] — finite automata, pushdown store automata, `post*`/`pre*`
//! * [`explore`] — explicit and symbolic context-bounded reachability
//! * [`core`] — observation sequences, Scheme 1, Algorithm 3, FCR, the portfolio
//! * [`boolprog`] — the concurrent Boolean program frontend (App. B)
//! * [`reduce`] — static model diagnostics behind `cuba lint`
//! * [`benchmarks`] — the paper's running examples and benchmark suite
//!
//! # Quickstart
//!
//! Verify the paper's Fig. 1 example for an unbounded number of thread
//! contexts through the §6 engine portfolio (the fused explicit arm ∥
//! CBA refuter under FCR, the fused symbolic arm otherwise):
//!
//! ```
//! use cuba::benchmarks::fig1;
//! use cuba::core::{Portfolio, Property, Verdict};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cpds = fig1::build();
//! // "error" state 3 paired with thread 1 back at its initial symbol
//! // is unreachable; pick any property expressible over visible states.
//! let property = Property::never_visible(fig1::unreachable_visible());
//! let outcome = Portfolio::auto().run(cpds, property)?;
//! assert!(matches!(outcome.verdict, Verdict::Safe { .. }));
//! # Ok(())
//! # }
//! ```
//!
//! For round-by-round streaming, cancellation, deadlines and batch
//! verification, open an [`AnalysisSession`](core::AnalysisSession)
//! via [`Portfolio::session`](core::Portfolio::session) or use
//! [`Portfolio::run_suite`](core::Portfolio::run_suite).

pub use cuba_automata as automata;
pub use cuba_benchmarks as benchmarks;
pub use cuba_boolprog as boolprog;
pub use cuba_core as core;
pub use cuba_explore as explore;
pub use cuba_pds as pds;
pub use cuba_reduce as reduce;
