//! Regenerates **Table 2** of the paper: for every benchmark row, the
//! FCR verdict, safety verdict, convergence bounds of `(Rk)` and
//! `(T(Rk))`, runtime and peak memory.
//!
//! ```text
//! cargo run --release -p cuba-bench --bin table2
//! ```
//!
//! Also writes machine-readable records to `results/table2.json`.

use cuba_bench::{fmt_mb, measure, render_table, CountingAlloc, RunRecord};
use cuba_benchmarks::suite::table2_suite;
use cuba_core::{check_fcr, EngineKind, Portfolio, SessionConfig, Verdict};
use cuba_explore::ExploreBudget;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn harness_budget() -> ExploreBudget {
    ExploreBudget {
        // Keep the OOM row (stefan-1/8) from running for minutes: the
        // paper's 4 GB memory limit maps to a symbolic state cap here.
        max_symbolic_states: 20_000,
        ..ExploreBudget::default()
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut records = Vec::new();
    // The §6 portfolio: the fused explicit arm ∥ CBA refuter under
    // FCR, the fused symbolic arm otherwise. Rows run one at a time so
    // the counting allocator attributes peak memory per row.
    let portfolio = Portfolio::auto().with_config(SessionConfig {
        budget: harness_budget(),
        max_k: 32,
        ..SessionConfig::new()
    });
    for bench in table2_suite() {
        let label = bench.label();
        let fcr = check_fcr(&bench.cpds).holds();

        // Main run: the portfolio (visible-state convergence).
        let (outcome, seconds, peak) = measure(Some(&ALLOC), || {
            portfolio.run(bench.cpds.clone(), bench.property.clone())
        });

        // Secondary run: Scheme 1 for the (Rk) kmax column, bounded by
        // the bound the main run needed (the paper interrupts the
        // slower method once the faster concludes — the "≥" marks).
        let (safe_text, k_text, k_opt, engine_text, states) = match &outcome {
            Ok(o) => {
                let (verdict_text, k) = match &o.verdict {
                    Verdict::Safe { k, .. } => ("yes".to_owned(), Some(*k)),
                    Verdict::Unsafe { k, .. } => (format!("no ({k})"), Some(*k)),
                    Verdict::Undetermined { .. } => ("?".to_owned(), None),
                };
                (
                    verdict_text,
                    k.map(|k| k.to_string()).unwrap_or_else(|| "-".into()),
                    k,
                    o.engine.to_string(),
                    o.states,
                )
            }
            Err(e) => (format!("OOM ({e})"), "-".into(), None, "-".into(), 0),
        };

        let rk_cap = k_opt.unwrap_or(8) + 2;
        let scheme1 = if fcr {
            EngineKind::Scheme1Explicit
        } else {
            EngineKind::Scheme1Symbolic
        };
        let rk_kmax = Portfolio::fixed(vec![scheme1])
            .with_config(SessionConfig {
                budget: harness_budget(),
                max_k: rk_cap,
                ..SessionConfig::new()
            })
            .run(bench.cpds.clone(), bench.property.clone());
        let rk_text = match rk_kmax {
            Ok(r) => match r.verdict {
                Verdict::Safe { k, .. } => k.to_string(),
                Verdict::Unsafe { k, .. } => format!("(bug {k})"),
                Verdict::Undetermined { .. } => format!(">={rk_cap}"),
            },
            Err(_) => "OOM".into(),
        };

        let paper_k = bench
            .expect
            .paper_kmax_visible
            .map(|k| k.to_string())
            .unwrap_or_else(|| "OOM".into());
        rows.push(vec![
            label.clone(),
            if fcr { "yes" } else { "no" }.to_owned(),
            safe_text.clone(),
            rk_text,
            k_text,
            paper_k,
            format!("{seconds:.2}"),
            fmt_mb(peak),
            engine_text.clone(),
        ]);
        records.push(RunRecord {
            label,
            fcr,
            verdict: match &outcome {
                Ok(o) if o.verdict.is_safe() => "safe".into(),
                Ok(o) if o.verdict.is_unsafe() => "unsafe".into(),
                Ok(_) => "undetermined".into(),
                Err(_) => "oom".into(),
            },
            k: k_opt,
            engine: engine_text,
            states,
            seconds,
            peak_bytes: peak,
        });
    }

    println!("Table 2: CUBA results on the benchmark suite");
    println!("(paper-k = kmax of (T(Rk)) reported in the paper)\n");
    print!(
        "{}",
        render_table(
            &[
                "program/threads",
                "FCR?",
                "Safe?",
                "kmax(Rk)",
                "kmax(T)",
                "paper-k",
                "time(s)",
                "mem(MB)",
                "engine"
            ],
            &rows
        )
    );

    std::fs::create_dir_all("results").ok();
    let json = cuba_bench::records_to_json(&records);
    std::fs::write("results/table2.json", json).ok();
    println!("\nwrote results/table2.json");
}
