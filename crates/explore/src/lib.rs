//! Context-bounded reachability engines for concurrent pushdown
//! systems (paper §2.3, §4, §6, App. E).
//!
//! Two engines compute the layered observation sequences that CUBA's
//! algorithms consume:
//!
//! * [`ExplicitEngine`] stores the sets `Rk` of global states
//!   reachable within `k` contexts extensionally, one representative
//!   per orbit of interchangeable threads, with concrete counts. It
//!   requires finite context reachability (FCR, §5) to terminate per
//!   round and takes an [`ExploreBudget`] that turns divergence into a
//!   typed error.
//! * [`SymbolicEngine`] stores `Sk` as sets of *symbolic states*
//!   `⟨q|A1,…,An⟩` whose per-thread stack languages are canonical
//!   minimal DFAs ([`CanonicalDfa`](cuba_automata::CanonicalDfa)); a
//!   context of thread `i` is one `post*` saturation (App. E). It
//!   handles infinite `Rk`, at the cost the paper describes.
//!
//! Both engines expose the per-layer *new* states and new *visible*
//! states, which is exactly the data in the paper's Fig. 1 table, and
//! both detect collapse (`Rk = Rk+1`, Lemma 7).
//!
//! Both engines keep their states *interned*, as fixed-width `u32`
//! keys in a [`KeyTable`](cuba_pds::KeyTable) whose dense ids are the
//! state ids: a global state is `(q, [StackId; n])` over hash-consed
//! stacks ([`StackTable`](cuba_pds::StackTable)), a symbolic state
//! `(q, [DfaId; n])` over interned canonical DFAs. A context step
//! rewrites one slot of its frontier state's key and probes the table,
//! so hits clone and allocate nothing. The public surface still speaks
//! [`GlobalState`](cuba_pds::GlobalState) and [`SymbolicState`]: the
//! explicit engine materializes each *new* state once, the symbolic
//! engine on demand. The exploration order does not depend on the
//! representation: state ids, layers, witnesses and snapshot bytes are
//! pinned in the repository's tests.
//!
//! # Example
//!
//! ```
//! use cuba_explore::{ExplicitEngine, ExploreBudget};
//! use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym};
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
//! let mut engine = ExplicitEngine::new(cpds, ExploreBudget::default());
//! let layer1 = engine.advance()?; // computes R1 \ R0
//! assert_eq!(layer1.new_states, 2); // <1|2,4> and <0|1,eps>
//! # Ok(())
//! # }
//! ```

mod budget;
mod explicit;
mod layers;
mod search;
mod shared;
pub mod snapshot;
mod symbolic;
mod symmetry;
mod witness;

pub use budget::{CancelToken, ExploreBudget, ExploreError, Interrupt};
pub use explicit::{ExplicitEngine, LayerSummary};
pub use layers::LayerStore;
pub use search::bounded_witness_search;
pub use shared::{LayerView, SharedExplorer};
pub use snapshot::{SnapshotKind, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use symbolic::{SubsumptionMode, SymbolicEngine, SymbolicState};
pub use witness::{Witness, WitnessStep};
