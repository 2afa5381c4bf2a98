//! Regenerates **Fig. 3 / Ex. 13**: the finite-state abstractions
//! `M1, M2` (Alg. 2) of the Fig. 1 threads and the reachable set `Z`.
//!
//! ```text
//! cargo run --release -p cuba-bench --bin fig3_z
//! ```

use cuba_benchmarks::fig1;
use cuba_core::{compute_z, thread_abstraction};

fn main() {
    let cpds = fig1::build();

    for i in 0..cpds.num_threads() {
        println!("T{} (abstraction of thread {}):", i + 1, i + 1);
        for t in thread_abstraction(&cpds, i) {
            println!("  {t}");
        }
    }

    let mut states: Vec<String> = compute_z(&cpds).iter().map(|v| v.to_string()).collect();
    states.sort();
    println!("\nZ (reachable states of M2), {} states:", states.len());
    for s in &states {
        println!("  {s}");
    }
    assert_eq!(states.len(), 8, "Ex. 13 reports exactly 8 states");
}
