//! The §6 engine portfolio, live: stream per-round events from an
//! [`AnalysisSession`], run a buggy problem where the CBA refuter
//! steps beside the fused convergence arm, enforce a deadline, and
//! batch-verify a small suite with `Portfolio::run_suite`.
//!
//! ```text
//! cargo run --release --example portfolio_race
//! ```

use std::time::Duration;

use cuba::benchmarks::{fig1, fig2};
use cuba::core::{Portfolio, Property, SessionConfig, SessionEvent, Verdict};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Watch the observation sequences evolve: one RoundCompleted
    //    per arm per bound, then the conclusion and the verdict.
    println!("== Fig. 1: streaming the session ==");
    let mut session = Portfolio::auto().session(fig1::build(), Property::True)?;
    for event in &mut session {
        println!("  {event}");
    }
    let outcome = session.into_outcome()?;
    println!("  => {} (by {})\n", outcome.verdict, outcome.engine);

    // 2. A buggy problem: the refuter arm steps beside the fused
    //    arm; the first arm (in lineup order) to hit the violation
    //    wins, and the witness replays.
    println!("== Fig. 1 with a reachable target: fused arm and refuter ==");
    let property = Property::never_visible(fig1::deep_visible());
    let outcome = Portfolio::auto().run(fig1::build(), property)?;
    println!("  => {} (by {})", outcome.verdict, outcome.engine);
    if let Verdict::Unsafe {
        witness: Some(w), ..
    } = &outcome.verdict
    {
        println!(
            "  counterexample: {} steps, {} contexts\n",
            w.len(),
            w.num_contexts()
        );
    }

    // 3. Deadlines are honored *mid-round*: Fig. 2's explicit closure
    //    would diverge, the fused symbolic arm converges quickly — and
    //    with a tiny timeout even it gives up cooperatively.
    println!("== Fig. 2 under a 1µs deadline ==");
    let strict = Portfolio::auto().with_config(SessionConfig {
        timeout: Some(Duration::from_micros(1)),
        ..SessionConfig::new()
    });
    let outcome = strict.run(fig2::build(), Property::True)?;
    println!("  => {}\n", outcome.verdict);

    // 4. Batch verification: a small suite, two problems in flight.
    println!("== run_suite: batch verification ==");
    let problems = vec![
        (fig1::build(), Property::True),
        (fig2::build(), Property::True),
        (fig1::build(), Property::never_visible(fig1::deep_visible())),
    ];
    let results = Portfolio::auto().run_suite(problems, 2);
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(o) => println!("  problem {i}: {} (by {})", o.verdict, o.engine),
            Err(e) => println!("  problem {i}: error: {e}"),
        }
    }

    // Demonstrate event filtering: count how many rounds each engine
    // contributed on a fresh streaming run.
    println!("\n== per-engine round counts on Fig. 1 ==");
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    Portfolio::auto().run_with(fig1::build(), Property::True, |event| {
        if let SessionEvent::RoundCompleted { engine, .. } = event {
            *counts.entry(engine.to_string()).or_default() += 1;
        }
    })?;
    for (engine, rounds) in counts {
        println!("  {engine}: {rounds} rounds");
    }
    Ok(())
}
