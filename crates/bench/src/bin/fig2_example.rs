//! Regenerates **Fig. 2 / Ex. 8**: the foo/bar program whose stacks
//! grow unboundedly within one context. Shows that `⟨1|4,9⟩` is
//! reachable within 2 contexts but not 1, that explicit exploration
//! is impossible (FCR fails), and that the symbolic sequence collapses
//! at a small bound (`R2 = R3` in the paper).
//!
//! ```text
//! cargo run --release -p cuba-bench --bin fig2_example
//! ```

use cuba_benchmarks::fig2;
use cuba_core::check_fcr;
use cuba_explore::{ExploreBudget, Interrupt, SubsumptionMode, SymbolicEngine};

fn main() {
    let cpds = fig2::build();
    println!("Fig. 2 (foo/bar): initial state {}", cpds.initial_state());

    let fcr = check_fcr(&cpds);
    println!("FCR check: {fcr} — explicit-state (Rk) sets are infinite");

    let target = fig2::example8_state();
    let mut engine = SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Exact);
    println!("\nEx. 8 target state c = {target} (x=1, foo spinning, bar done):");
    let mut collapse_at = None;
    for k in 1..=8usize {
        engine
            .advance(&Interrupt::none())
            .expect("symbolic rounds are budget-free here");
        let covered = engine.covers(&target);
        println!(
            "  k = {k}: |Sk| = {:>3} symbolic states, |T(Sk)| = {:>2}, c reachable: {}",
            engine.num_symbolic_states(),
            engine.num_visible(),
            covered
        );
        if k == 1 {
            assert!(!covered, "c must not be reachable within one context");
        }
        if k == 2 {
            assert!(covered, "c must be reachable within two contexts");
        }
        if engine.is_collapsed() {
            collapse_at = Some(k - 1);
            break;
        }
    }
    match collapse_at {
        Some(k) => println!(
            "\n(Sk) collapsed at k = {k}: R{k} = R{} — matching Ex. 8's R2 = R3",
            k + 1
        ),
        None => println!("\nno collapse within 8 rounds"),
    }
}
