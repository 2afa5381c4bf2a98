//! Regenerates the **Fig. 1 (right)** reachability table: the new
//! global states `Rk \ Rk−1` and new visible states `T(Rk) \ T(Rk−1)`
//! per context bound, plus the Ex. 14 data (G∩Z, plateaus, collapse).
//!
//! ```text
//! cargo run --release -p cuba-bench --bin fig1_table
//! ```

use cuba_benchmarks::fig1;
use cuba_core::{
    build_engine, EngineKind, EngineParams, Property, RoundCtx, RoundOutcome, SequenceEvent,
    SystemArtifacts, Verdict,
};
use cuba_explore::{ExplicitEngine, ExploreBudget};

fn main() {
    let cpds = fig1::build();
    let mut engine = ExplicitEngine::new(cpds.clone(), ExploreBudget::default());
    for _ in 0..6 {
        engine.advance().expect("Fig. 1 satisfies FCR");
    }

    println!("Fig. 1 reachability table (new states per bound k):\n");
    println!("{:>2}  {:<40}  T(Rk) \\ T(Rk-1)", "k", "Rk \\ Rk-1");
    println!("{}", "-".repeat(80));
    for k in 0..=6usize {
        let mut states: Vec<String> = engine.layer(k).map(|s| s.to_string()).collect();
        states.sort();
        let mut visible: Vec<String> = engine
            .visible_layer(k)
            .iter()
            .map(|v| v.to_string())
            .collect();
        visible.sort();
        println!(
            "{k:>2}  {:<40}  {}",
            states.join(" "),
            if visible.is_empty() {
                "(plateau)".to_owned()
            } else {
                visible.join(" ")
            }
        );
    }

    // The Ex. 14 run: Alg 3 stepped round by round. `(Rk)` never
    // collapses on Fig. 1, so the generator test decides.
    let mut alg3 = build_engine(
        EngineKind::Alg3Explicit,
        &cpds,
        &Property::True,
        &EngineParams::default(),
    );
    let mut ctx = RoundCtx::new();
    let mut rejected_plateaus = Vec::new();
    let verdict = loop {
        match alg3.step(&mut ctx).expect("Fig. 1 satisfies FCR") {
            // A new plateau that did not conclude failed the generator
            // test: a stutter at k − 1.
            RoundOutcome::Continue(info) => {
                if info.event == SequenceEvent::NewPlateau {
                    rejected_plateaus.push(info.k - 1);
                }
            }
            RoundOutcome::Concluded { verdict, .. } => break verdict,
        }
    };
    println!("\nAlg. 3 over (T(Rk)) with stuttering detection:");
    let gz: Vec<String> = SystemArtifacts::new()
        .g_cap_z(&cpds)
        .iter()
        .map(|v| v.to_string())
        .collect();
    println!("  G ∩ Z = {{{}}}", gz.join(", "));
    println!("  rejected (stuttering) plateaus at k = {rejected_plateaus:?}");
    println!("  |T(Rk)| per k: {:?}", alg3.growth().sizes());
    match verdict {
        Verdict::Safe { k, method } => {
            println!("  collapse detected at k = {k} (via {method})")
        }
        other => println!("  unexpected verdict: {other}"),
    }
}
