//! Prove mutual exclusion of Dekker's protocol (Table 2, program 9)
//! for an unbounded number of context switches, then show the proof is
//! not vacuous by refuting a stronger claim.
//!
//! ```text
//! cargo run --example dekker
//! ```

use cuba::benchmarks::dekker;
use cuba::core::{Portfolio, Property, Verdict};
use cuba::pds::StackSym;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cpds = dekker::build();
    println!("Dekker's protocol: {} shared states", cpds.num_shared());

    // Mutual exclusion of the two critical sections, context-unbounded.
    let outcome = Portfolio::auto().run(cpds.clone(), dekker::property())?;
    println!("mutual exclusion: {}", outcome.verdict);
    assert!(outcome.verdict.is_safe());

    // Not vacuous: each thread really enters its critical section.
    for thread in 0..2 {
        let reach = Property::MutualExclusion(vec![(thread, dekker::CRITICAL)]);
        let outcome = Portfolio::auto().run(cpds.clone(), reach)?;
        match outcome.verdict {
            Verdict::Unsafe { k, .. } => {
                println!("thread {thread} reaches its critical section within {k} contexts")
            }
            other => println!("unexpected: {other}"),
        }
    }

    // And the contention point is genuinely concurrent: both threads
    // can sit at the flag check simultaneously.
    let both_checking = Property::mutex(0, StackSym(1), 1, StackSym(1));
    let outcome = Portfolio::auto().run(cpds, both_checking)?;
    println!("both threads at the flag check: {}", outcome.verdict);
    Ok(())
}
