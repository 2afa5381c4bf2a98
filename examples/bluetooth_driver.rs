//! The Windows NT Bluetooth driver scenario from the paper's
//! evaluation (Table 2, programs 1–3): find the historical races in
//! versions 1 and 2, prove version 3 correct for unboundedly many
//! context switches.
//!
//! ```text
//! cargo run --release --example bluetooth_driver
//! ```

use cuba::benchmarks::bluetooth::{build, property, Version};
use cuba::core::{check_fcr, Portfolio, Verdict};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for (version, name) in [
        (Version::V1, "v1 (original driver)"),
        (Version::V2, "v2 (first fix attempt)"),
        (Version::V3, "v3 (fully fixed)"),
    ] {
        println!("== Bluetooth {name}, 1 stopper + 1 adder + counter thread ==");
        let cpds = build(version, 1, 1);
        println!("   FCR: {}", check_fcr(&cpds));
        let outcome = Portfolio::auto().run(cpds, property())?;
        match &outcome.verdict {
            Verdict::Unsafe { k, witness } => {
                println!("   UNSAFE: driver assertion fails within {k} contexts");
                if let Some(w) = witness {
                    println!(
                        "   counterexample: {} steps, {} contexts",
                        w.len(),
                        w.num_contexts()
                    );
                }
            }
            Verdict::Safe { k, method } => {
                println!("   SAFE for any context bound (converged at k = {k} via {method})");
            }
            Verdict::Undetermined { reason } => println!("   undetermined: {reason}"),
        }
        println!(
            "   engine: {}, stored states: {}, time: {:?}\n",
            outcome.engine, outcome.states, outcome.duration
        );
    }
    Ok(())
}
