//! Regenerates **Fig. 5**: Cuba vs the context-bounded baseline
//! ("JMoped-shaped": Qadeer–Rehof symbolic CBA, bug-finding only) on
//! benchmark suites 1–5 and 9, comparing runtime and memory.
//!
//! Protocol as in the paper: the baseline runs with the same context
//! bound at which Cuba terminates; for unsafe rows both stop at the
//! bug, for safe rows the baseline explores the full bound but proves
//! nothing. Cuba runs the §6 procedure without the refuter arm: the
//! fused explicit arm under FCR, the fused symbolic arm otherwise.
//!
//! ```text
//! cargo run --release -p cuba-bench --bin fig5
//! ```
//!
//! Writes scatter data to `results/fig5.csv`.

use cuba_bench::{fmt_mb, measure, render_table, CountingAlloc};
use cuba_benchmarks::suite::fig5_suite;
use cuba_core::{check_fcr, EngineKind, Portfolio, SessionConfig, Verdict};
use cuba_explore::ExploreBudget;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() {
    let mut rows = Vec::new();
    let mut csv = String::from("label,status,cuba_s,jmoped_s,cuba_mb,jmoped_mb\n");
    for bench in fig5_suite() {
        let label = bench.label();
        let config = SessionConfig {
            budget: ExploreBudget::default(),
            max_k: 32,
            ..SessionConfig::new()
        };
        let (outcome, cuba_s, cuba_peak) = measure(Some(&ALLOC), || {
            let arm = if check_fcr(&bench.cpds).holds() {
                EngineKind::Alg3Explicit
            } else {
                EngineKind::Alg3Symbolic
            };
            Portfolio::fixed(vec![arm])
                .with_config(config.clone())
                .run(bench.cpds.clone(), bench.property.clone())
        });
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{label}: cuba failed: {e}");
                continue;
            }
        };
        let (status, k) = match &outcome.verdict {
            Verdict::Safe { k, .. } => ("safe", *k),
            Verdict::Unsafe { k, .. } => ("unsafe", *k),
            Verdict::Undetermined { .. } => ("undet", 0),
        };

        // Baseline at the same bound (k+1 for safe rows: it needs one
        // more round than the collapse bound to match Cuba's work).
        let baseline = Portfolio::fixed(vec![EngineKind::CbaRefuter]).with_config(SessionConfig {
            max_k: k + 1,
            ..config
        });
        let (baseline, jm_s, jm_peak) = measure(Some(&ALLOC), || {
            baseline.run(bench.cpds.clone(), bench.property.clone())
        });
        // CBA refutes or gives up: an undetermined answer means no bug
        // within the bounds it explored.
        let jm_text = match baseline {
            Ok(o) => match o.verdict {
                Verdict::Unsafe { k, .. } => format!("bug at {k}"),
                _ => format!("no bug up to {}", o.rounds),
            },
            Err(e) => format!("error: {e}"),
        };

        rows.push(vec![
            label.clone(),
            status.to_owned(),
            format!("{cuba_s:.3}"),
            format!("{jm_s:.3}"),
            fmt_mb(cuba_peak),
            fmt_mb(jm_peak),
            jm_text,
        ]);
        csv.push_str(&format!(
            "{label},{status},{cuba_s:.4},{jm_s:.4},{},{}\n",
            fmt_mb(cuba_peak),
            fmt_mb(jm_peak)
        ));
    }

    println!("Fig. 5: Cuba vs context-bounded baseline (JMoped-shaped)\n");
    print!(
        "{}",
        render_table(
            &[
                "program/threads",
                "status",
                "cuba(s)",
                "cba(s)",
                "cuba(MB)",
                "cba(MB)",
                "cba verdict"
            ],
            &rows
        )
    );
    println!("\nNote: with comparable resources, only Cuba proves the safe rows;");
    println!("the baseline can merely report the absence of bugs up to the bound.");

    std::fs::create_dir_all("results").ok();
    std::fs::write("results/fig5.csv", csv).ok();
    println!("wrote results/fig5.csv");
}
