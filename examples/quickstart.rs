//! Quickstart: build the paper's Fig. 1 system with the public API,
//! prove a safety property for an unbounded number of thread contexts,
//! and find a bug with a replayable counterexample.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cuba::core::{Portfolio, Property, Verdict};
use cuba::pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym, VisibleState};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let q = SharedState;
    let s = StackSym;

    // Thread 1: two overwrites cycling the shared state (Fig. 1, Δ1).
    let mut p1 = PdsBuilder::new(4, 3);
    p1.overwrite(q(0), s(1), q(1), s(2))?;
    p1.overwrite(q(3), s(2), q(0), s(1))?;

    // Thread 2: pop / overwrite / push — a growing call stack (Δ2).
    let mut p2 = PdsBuilder::new(4, 7);
    p2.pop(q(0), s(4), q(0))?;
    p2.overwrite(q(1), s(4), q(2), s(5))?;
    p2.push(q(2), s(5), q(3), s(4), s(6))?;

    let cpds = CpdsBuilder::new(4, q(0))
        .thread(p1.build()?, [s(1)])
        .thread(p2.build()?, [s(4)])
        .build()?;
    println!(
        "system: {} threads, initial state {}",
        cpds.num_threads(),
        cpds.initial_state()
    );

    // 1. Prove: the visible state ⟨2|1,5⟩ is unreachable for ANY
    //    number of contexts. Context-bounded tools cannot conclude
    //    this; CUBA detects convergence of (T(Rk)) at k = 5.
    let safe_target = VisibleState::new(q(2), vec![Some(s(1)), Some(s(5))]);
    let outcome =
        Portfolio::auto().run(cpds.clone(), Property::never_visible(safe_target.clone()))?;
    println!("\nproperty never({safe_target}): {}", outcome.verdict);
    println!(
        "  engine: {}, rounds: {}, states: {}",
        outcome.engine, outcome.rounds, outcome.states
    );
    assert!(outcome.verdict.is_safe());

    // 2. Refute: ⟨1|2,6⟩ IS reachable — first at context bound 5.
    let bug_target = VisibleState::new(q(1), vec![Some(s(2)), Some(s(6))]);
    let outcome =
        Portfolio::auto().run(cpds.clone(), Property::never_visible(bug_target.clone()))?;
    println!("\nproperty never({bug_target}): {}", outcome.verdict);
    if let Verdict::Unsafe {
        k,
        witness: Some(w),
    } = &outcome.verdict
    {
        println!("  bug found at context bound {k}; counterexample path:");
        println!("  {w}");
        assert!(w.replay(&cpds), "witness must replay");
    }
    Ok(())
}
