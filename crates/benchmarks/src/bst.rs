//! Concurrent binary search tree (Table 2, program 4), after
//! Kung/Lehman's concurrent BST manipulation (TODS 1980).
//!
//! *Inserters* descend the tree recursively and splice a node in under
//! a writer lock; *searchers* descend and read under the same lock.
//! The abstraction tracks the remaining descent height in the stack
//! symbols (the predicate abstraction of a tree bounds the tracked
//! depth), so descents genuinely push and pop but are finite per
//! context — FCR holds. The safety property is that no reader observes
//! a torn write: an inserter in its write window and a searcher in its
//! read window are mutually exclusive.

use cuba_core::Property;
use cuba_pds::{Cpds, CpdsBuilder, Pds, PdsBuilder, SharedState, StackSym};

use crate::FieldEnc;

/// Tracked descent height.
pub const HEIGHT: u32 = 3;

/// Shared fields: `lock ∈ {0,1}`.
pub fn encoder() -> FieldEnc {
    FieldEnc::new(&[2])
}

// Stack symbol ids (shared layout for both templates):
// 0..=HEIGHT: descent frames D_h (h = remaining height);
const ACQ: u32 = HEIGHT + 1; // waiting for the lock
const MID: u32 = HEIGHT + 2; // critical window (write resp. read)
const REL: u32 = HEIGHT + 3; // releasing
const UNWIND: u32 = HEIGHT + 4; // popping back up

/// The critical-window stack symbol (used by the mutex property).
pub const CRITICAL: StackSym = StackSym(MID);

fn template() -> Pds {
    let enc = encoder();
    let unlocked = SharedState(enc.encode(&[0]));
    let locked = SharedState(enc.encode(&[1]));
    let mut b = PdsBuilder::new(enc.total(), HEIGHT + 5);
    for q in [unlocked, locked] {
        for h in 1..=HEIGHT {
            // Descend one level: push the child frame.
            b.push(q, StackSym(h), q, StackSym(h - 1), StackSym(h))
                .expect("static");
            // Or stop here and operate on this node.
            b.overwrite(q, StackSym(h), q, StackSym(ACQ))
                .expect("static");
        }
        // Leaves must operate.
        b.overwrite(q, StackSym(0), q, StackSym(ACQ))
            .expect("static");
        // The critical window itself takes one step.
        b.overwrite(q, StackSym(MID), q, StackSym(REL))
            .expect("static");
        // Unwind: pop the current frame; the exposed frame may operate
        // again (another insert/search on the way up).
        b.pop(q, StackSym(UNWIND), q).expect("static");
    }
    // Lock handshake.
    b.overwrite(unlocked, StackSym(ACQ), locked, StackSym(MID))
        .expect("static");
    b.overwrite(locked, StackSym(REL), unlocked, StackSym(UNWIND))
        .expect("static");
    b.build().expect("static")
}

/// Builds the BST benchmark with the given numbers of inserters and
/// searchers (both use the same locked descent skeleton; the property
/// distinguishes them only by thread index).
pub fn build(num_inserters: usize, num_searchers: usize) -> Cpds {
    let enc = encoder();
    let init = SharedState(enc.encode(&[0]));
    let t = template();
    CpdsBuilder::new(enc.total(), init)
        .threads(&t, [StackSym(HEIGHT)], num_inserters + num_searchers)
        .build()
        .expect("static")
}

/// Pairwise mutual exclusion of the critical window across all thread
/// pairs: no two tree operations overlap their lock-protected windows.
pub fn property(num_threads: usize) -> Property {
    let mut pairs = Vec::new();
    for i in 0..num_threads {
        for j in i + 1..num_threads {
            pairs.push(Property::MutualExclusion(vec![
                (i, CRITICAL),
                (j, CRITICAL),
            ]));
        }
    }
    Property::All(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_core::{check_fcr, Portfolio};

    #[test]
    fn satisfies_fcr() {
        assert!(check_fcr(&build(1, 1)).holds());
    }

    #[test]
    fn one_plus_one_is_safe() {
        let cpds = build(1, 1);
        let outcome = Portfolio::auto().run(cpds, property(2)).unwrap();
        assert!(outcome.verdict.is_safe(), "{:?}", outcome.verdict);
    }

    #[test]
    fn without_lock_the_property_would_fail() {
        // Sanity check that the property is not vacuous: two threads
        // *can* reach ACQ simultaneously; only the lock serializes MID.
        let cpds = build(1, 1);
        let bogus = Property::MutualExclusion(vec![(0, StackSym(ACQ)), (1, StackSym(ACQ))]);
        let outcome = Portfolio::auto().run(cpds, bogus).unwrap();
        assert!(outcome.verdict.is_unsafe());
    }
}
