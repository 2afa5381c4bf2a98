//! Explore finite context reachability (paper §5): run the FCR check
//! on every benchmark, show the witnessing pushdown store automata,
//! and demonstrate what goes wrong when explicit exploration is
//! attempted without FCR.
//!
//! ```text
//! cargo run --release --example fcr_explorer
//! ```

use cuba::automata::psa_to_dot;
use cuba::benchmarks::suite::table2_suite;
use cuba::benchmarks::{fig1, fig2};
use cuba::core::{check_fcr, fcr_psa};
use cuba::explore::{ExplicitEngine, ExploreBudget, Interrupt};

fn main() {
    println!("FCR verdicts across the Table 2 suite:");
    for bench in table2_suite() {
        let report = check_fcr(&bench.cpds);
        println!("  {:<18} {}", bench.label(), report);
    }

    // The witnessing automata for the running examples (Fig. 4).
    println!("\nFig. 4 automata (dot):");
    let fig1 = fig1::build();
    let psa = fcr_psa(fig1.thread(1), fig1.num_shared());
    println!("{}", psa_to_dot(&psa, "fig1_thread2"));

    // What happens without FCR: budgets catch the divergence.
    let fig2 = fig2::build();
    let mut engine = ExplicitEngine::new(fig2, ExploreBudget::tiny());
    match engine.advance(&Interrupt::none()) {
        Err(e) => println!("explicit exploration of Fig. 2 fails as expected: {e}"),
        Ok(_) => println!("unexpected success"),
    }
}
