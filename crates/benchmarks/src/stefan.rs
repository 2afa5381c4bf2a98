//! Stefan-1 (Table 2, program 8), standing in for the recursive
//! example from Schwoon's thesis: `n` identical threads, each
//! recursing freely and entering a token-guarded critical section.
//!
//! Recursion is unguarded, so FCR fails; the symbolic state set grows
//! steeply with the thread count — the 8-thread instance exhausts the
//! symbolic budget, reproducing the paper's out-of-memory entry.

use cuba_core::Property;
use cuba_pds::{Cpds, CpdsBuilder, Pds, PdsBuilder, SharedState, StackSym};

// Stack symbols.
const E: u32 = 0; // entry / main loop
const CRIT: u32 = 1; // critical section
const DONE: u32 = 2; // after the critical section
const RET: u32 = 3; // return pc of a recursive call

/// The critical-section stack symbol (for the mutex property).
pub const CRITICAL: StackSym = StackSym(CRIT);

fn template() -> Pds {
    let free = SharedState(0);
    let held = SharedState(1);
    let mut b = PdsBuilder::new(2, 4);
    for q in [free, held] {
        // Unguarded recursion (breaks FCR).
        b.push(q, StackSym(E), q, StackSym(E), StackSym(RET))
            .expect("static");
        // Return path.
        b.pop(q, StackSym(DONE), q).expect("static");
        b.overwrite(q, StackSym(RET), q, StackSym(E))
            .expect("static");
    }
    // Token-guarded critical section.
    b.overwrite(free, StackSym(E), held, StackSym(CRIT))
        .expect("static");
    b.overwrite(held, StackSym(CRIT), free, StackSym(DONE))
        .expect("static");
    b.build().expect("static")
}

/// Builds Stefan-1 with `n` identical threads.
pub fn build(n: usize) -> Cpds {
    let t = template();
    CpdsBuilder::new(2, SharedState(0))
        .threads(&t, [StackSym(E)], n)
        .build()
        .expect("static")
}

/// Pairwise mutual exclusion of the critical section.
pub fn property(n: usize) -> Property {
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
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
    fn violates_fcr() {
        assert!(!check_fcr(&build(2)).holds());
    }

    #[test]
    fn two_threads_safe() {
        let outcome = Portfolio::auto().run(build(2), property(2)).unwrap();
        assert!(outcome.verdict.is_safe(), "{:?}", outcome.verdict);
    }

    #[test]
    fn critical_section_is_reachable() {
        // The property is not vacuous: a single thread reaches CRIT.
        let reach = Property::MutualExclusion(vec![(0, CRITICAL)]);
        let outcome = Portfolio::auto().run(build(2), reach).unwrap();
        assert!(outcome.verdict.is_unsafe());
    }
}
