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
//!   handles infinite `Rk`, at the cost the paper describes. It too
//!   stores one representative per orbit of interchangeable threads,
//!   with concrete counts.
//!
//! Both engines expose the per-layer *new* states and new *visible*
//! states, which is exactly the data in the paper's Fig. 1 table, and
//! both detect collapse (`Rk = Rk+1`, Lemma 7). A layer (`layer(k)`,
//! explicit `states()`) lists orbit representatives; every count,
//! every visible layer, every budget and every verdict is that of an
//! engine that stores each state. The visible layers are kept in the
//! [`LayerStore`] as one interned canonical key per visible orbit,
//! checked per orbit, and expanded and decoded on read.
//!
//! Both engines keep their states *interned*, as fixed-width `u32`
//! keys in a [`KeyTable`](cuba_pds::KeyTable) whose dense ids are the
//! state ids: a global state is `(q, [StackId; n])` over hash-consed
//! stacks ([`StackTable`](cuba_pds::StackTable)), a symbolic state
//! `(q, [DfaId; n])` over interned canonical DFAs. A context step
//! rewrites one slot of its frontier state's key and probes the table,
//! so hits clone and allocate nothing. The key is the only record of a
//! stored state, and a layer is a range of state ids. The public
//! surface still speaks [`GlobalState`](cuba_pds::GlobalState) and
//! [`SymbolicState`], decoded from the keys on read. The exploration
//! order does not depend on the representation: state ids, layers,
//! witnesses and snapshot bytes are pinned in the repository's tests.
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
//! engine.advance()?; // computes R1 \ R0 = {<1|2,4>, <0|1,eps>}
//! assert_eq!(engine.store().state_count_at(1), 1 + 2);
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
pub use explicit::ExplicitEngine;
pub use layers::LayerStore;
pub use search::bounded_witness_search;
pub use shared::{LayerView, SharedExplorer};
pub use snapshot::{SnapshotKind, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use symbolic::{SubsumptionMode, SymbolicEngine, SymbolicState};
pub use witness::{Witness, WitnessStep};
