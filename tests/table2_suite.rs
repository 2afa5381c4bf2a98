//! Integration test over the full Table 2 suite: every row's FCR and
//! safety verdict must match the paper's, the convergence/bug bounds
//! must be small (the paper's headline observation) and grow with the
//! thread count within a family, and the OOM row must exhaust its
//! budget rather than lie.

use cuba::benchmarks::suite::table2_suite;
use cuba::core::{check_fcr, EngineKind, Portfolio, SessionConfig, Verdict};
use cuba::explore::ExploreBudget;

fn config() -> SessionConfig {
    SessionConfig {
        budget: ExploreBudget {
            max_symbolic_states: 10_000,
            ..ExploreBudget::default()
        },
        max_k: 24,
        ..SessionConfig::new()
    }
}

/// One pass over the suite checks every row against the paper, then
/// the kmax ordering the paper reports: more threads, larger
/// convergence bounds within a family.
#[test]
fn every_row_matches_the_paper() {
    let portfolio = Portfolio::auto().with_config(config());
    let mut bst_bounds = Vec::new();
    let mut stefan_bounds = Vec::new();
    for bench in table2_suite() {
        let label = bench.label();
        let fcr = check_fcr(&bench.cpds).holds();
        assert_eq!(fcr, bench.expect.fcr, "{label}: FCR mismatch");

        let result = portfolio.run(bench.cpds.clone(), bench.property.clone());
        match bench.expect.safe {
            Some(true) => {
                let outcome = result.unwrap_or_else(|e| panic!("{label}: {e}"));
                match &outcome.verdict {
                    Verdict::Safe { k, .. } => {
                        assert!(
                            *k <= 16,
                            "{label}: converged but only at k = {k} (paper: small bounds)"
                        );
                        match bench.id {
                            "bst-insert" => bst_bounds.push(*k),
                            "stefan-1" => stefan_bounds.push(*k),
                            _ => {}
                        }
                    }
                    other => panic!("{label}: expected Safe, got {other:?}"),
                }
            }
            Some(false) => {
                let outcome = result.unwrap_or_else(|e| panic!("{label}: {e}"));
                match &outcome.verdict {
                    Verdict::Unsafe { k, witness } => {
                        assert!(*k <= 10, "{label}: bug too deep at k = {k}");
                        if let Some(w) = witness {
                            assert!(w.replay(&bench.cpds), "{label}: witness must replay");
                            assert!(w.num_contexts() <= *k);
                        }
                    }
                    other => panic!("{label}: expected Unsafe, got {other:?}"),
                }
            }
            None => {
                // The paper ran out of memory here (stefan-1/8); we
                // must exhaust the symbolic budget, not conclude.
                assert!(
                    result.is_err(),
                    "{label}: expected budget exhaustion, got {:?}",
                    result.map(|o| o.verdict)
                );
            }
        }
    }
    assert_eq!(bst_bounds.len(), 3);
    assert!(
        bst_bounds.windows(2).all(|w| w[0] <= w[1]),
        "{bst_bounds:?}"
    );
    assert_eq!(stefan_bounds.len(), 2);
    assert!(stefan_bounds[0] <= stefan_bounds[1], "{stefan_bounds:?}");
}

/// Bug bounds for the unsafe Bluetooth rows are reported tightly: the
/// same bound is found by the fused symbolic arm alone.
#[test]
fn bluetooth_bug_bounds_are_engine_independent() {
    for bench in table2_suite()
        .into_iter()
        .filter(|b| b.id == "bluetooth-1" && b.config == "1+1")
    {
        let explicit = Portfolio::auto()
            .with_config(config())
            .run(bench.cpds.clone(), bench.property.clone())
            .unwrap();
        let symbolic = Portfolio::fixed(vec![EngineKind::Alg3Symbolic])
            .with_config(config())
            .run(bench.cpds.clone(), bench.property.clone())
            .unwrap();
        match (&explicit.verdict, &symbolic.verdict) {
            (Verdict::Unsafe { k: k1, .. }, Verdict::Unsafe { k: k2, .. }) => {
                assert_eq!(k1, k2, "bug bound must not depend on the engine")
            }
            other => panic!("expected two Unsafe verdicts, got {other:?}"),
        }
    }
}
