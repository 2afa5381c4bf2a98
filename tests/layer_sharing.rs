//! Integration tests of the shared-explorer architecture — the
//! acceptance criteria of the "one system, many properties"
//! milestone:
//!
//! * a multi-property suite over one CPDS reaches verdicts identical
//!   to the per-property baseline with strictly fewer total
//!   exploration (live) rounds;
//! * each backend's explorer runs its exploration exactly once up to
//!   the deepest bound any property required (counter-instrumented);
//! * a property demanding a deeper bound extends the shared layers
//!   past an earlier property's stopping point instead of restarting;
//! * a fully warm run replays every layer (replays carry their own
//!   flag and are excluded from cost accounting);
//! * a session stopped mid-run leaves the shared layers it computed
//!   reusable, since no explorer holds a session's interrupt.

use std::sync::Arc;

use cuba::benchmarks::{fig1, fig2};
use cuba::core::{
    ConvergenceMethod, CubaOutcome, EngineKind, Portfolio, Property, SessionConfig, SessionEvent,
    SystemArtifacts, Verdict,
};
use cuba::explore::{CancelToken, SubsumptionMode};
use cuba::pds::{SharedState, StackSym, VisibleState};

fn vis(q: u32, tops: &[Option<u32>]) -> VisibleState {
    VisibleState::new(
        SharedState(q),
        tops.iter().map(|t| t.map(StackSym)).collect(),
    )
}

/// The three Fig. 1 properties of the acceptance criterion, in
/// shallow-to-deep order of the bound they need: a bug at k = 2, a bug
/// at k = 5, and full convergence (k = 6 computed).
fn fig1_properties() -> Vec<Property> {
    vec![
        Property::never_visible(vis(3, &[Some(2), Some(4)])), // unsafe@2
        Property::never_visible(vis(1, &[Some(2), Some(6)])), // unsafe@5
        Property::True,                                       // safe@5 (computes k = 6)
    ]
}

/// Runs one property, returning the outcome and the number of *live*
/// (non-replayed) rounds its session computed.
fn run_one(
    portfolio: &Portfolio,
    cpds: cuba::pds::Cpds,
    property: Property,
    artifacts: &Arc<SystemArtifacts>,
) -> (CubaOutcome, usize) {
    let mut live = 0usize;
    let outcome = portfolio
        .session_with(cpds, property, artifacts)
        .unwrap()
        .run_with(|event| {
            if matches!(
                event,
                SessionEvent::RoundCompleted {
                    replayed: false,
                    ..
                }
            ) {
                live += 1;
            }
        })
        .unwrap();
    (outcome, live)
}

fn verdict_repr(outcome: &CubaOutcome) -> String {
    format!("{:?}", outcome.verdict)
}

/// Acceptance: N = 3 properties over Fig. 1 under a single-arm
/// portfolio. The shared run reaches byte-identical verdicts to the
/// per-property baseline, explores each layer exactly once up to the
/// deepest demanded bound, and computes strictly fewer live rounds in
/// total.
#[test]
fn multi_property_suite_explores_once_with_identical_verdicts() {
    let portfolio = Portfolio::fixed(vec![EngineKind::Alg3Explicit]);

    // Per-property baseline: fresh artifacts (hence a fresh explorer)
    // for every property — the pre-refactor behavior.
    let mut baseline_verdicts = Vec::new();
    let mut baseline_live = 0usize;
    for property in fig1_properties() {
        let artifacts = Arc::new(SystemArtifacts::new());
        let (outcome, live) = run_one(&portfolio, fig1::build(), property, &artifacts);
        baseline_verdicts.push(verdict_repr(&outcome));
        baseline_live += live;
    }

    // Shared run: one set of artifacts for all three properties.
    let artifacts = Arc::new(SystemArtifacts::new());
    let mut shared_verdicts = Vec::new();
    let mut shared_live = 0usize;
    for property in fig1_properties() {
        let (outcome, live) = run_one(&portfolio, fig1::build(), property, &artifacts);
        shared_verdicts.push(verdict_repr(&outcome));
        shared_live += live;
    }

    assert_eq!(
        baseline_verdicts, shared_verdicts,
        "sharing must not change any verdict"
    );
    assert!(
        shared_live < baseline_live,
        "sharing must cut total live rounds: shared {shared_live} vs baseline {baseline_live}"
    );

    // The explorer ran its exploration exactly once up to the deepest
    // bound any property required: layers 1..=6 (Property::True
    // computes bound 6 to see the plateau), each computed once.
    let explorer = artifacts
        .explicit_explorer_if_started()
        .expect("the explicit explorer was started");
    assert_eq!(explorer.depth(), 6, "deepest demanded bound");
    assert_eq!(
        explorer.rounds_explored(),
        6,
        "each layer explored exactly once"
    );
}

/// A deeper-bound demand extends the shared layers: the first property
/// concludes at k = 2, the second forces exploration past that point.
/// Nothing below the first stopping point is ever recomputed.
#[test]
fn deeper_bound_demand_extends_shared_layers() {
    let portfolio = Portfolio::fixed(vec![EngineKind::Alg3Explicit]);
    let artifacts = Arc::new(SystemArtifacts::new());

    let shallow = Property::never_visible(vis(3, &[Some(2), Some(4)]));
    let (outcome, _) = run_one(&portfolio, fig1::build(), shallow, &artifacts);
    assert!(matches!(outcome.verdict, Verdict::Unsafe { k: 2, .. }));
    let explorer = artifacts.explicit_explorer_if_started().unwrap();
    let depth_after_shallow = explorer.depth();
    assert_eq!(depth_after_shallow, 2, "shallow property stopped early");
    assert_eq!(explorer.rounds_explored(), 2);

    // The deep property pushes past the first property's convergence
    // point; only the missing layers are computed.
    let (outcome, live) = run_one(&portfolio, fig1::build(), Property::True, &artifacts);
    assert!(matches!(outcome.verdict, Verdict::Safe { k: 5, .. }));
    assert_eq!(explorer.depth(), 6);
    assert_eq!(
        explorer.rounds_explored(),
        6,
        "layers 1..=2 were replayed, 3..=6 explored — never recomputed"
    );
    assert_eq!(outcome.rounds_replayed, 2, "bounds 1..=2 replayed");
    assert_eq!(live, outcome.rounds_explored);
    assert_eq!(
        outcome.rounds_explored, 5,
        "bound 0 plus bounds 3..=6 were this session's live rounds"
    );
}

/// A fully warm run replays everything: zero live exploration and the
/// same verdict, for both arms of a two-arm lineup over one explorer.
#[test]
fn warm_artifacts_replay_everything() {
    let portfolio = Portfolio::fixed(vec![EngineKind::Alg3Explicit, EngineKind::Scheme1Explicit]);
    let artifacts = Arc::new(SystemArtifacts::new());

    let (cold, cold_live) = run_one(&portfolio, fig1::build(), Property::True, &artifacts);
    assert!(cold.verdict.is_safe());
    assert!(cold_live > 0);
    let explored_after_cold = artifacts
        .explicit_explorer_if_started()
        .unwrap()
        .rounds_explored();

    let (warm, _) = run_one(&portfolio, fig1::build(), Property::True, &artifacts);
    assert_eq!(verdict_repr(&cold), verdict_repr(&warm));
    // k = 0 rounds are always attributed as live (the initial layer
    // exists from construction and costs nothing); every bound k ≥ 1
    // replays.
    assert_eq!(warm.rounds_explored, 2, "one k = 0 round per arm");
    assert!(warm.rounds_replayed > 0);
    assert_eq!(
        artifacts
            .explicit_explorer_if_started()
            .unwrap()
            .rounds_explored(),
        explored_after_cold,
        "a warm run must not re-explore any layer"
    );
}

/// The symbolic backend shares its `(Sk)` layers the same way: two
/// properties over the FCR-violating Fig. 2, identical verdicts to the
/// per-property baseline, exploration run once.
#[test]
fn symbolic_layers_shared_on_fig2() {
    let portfolio = Portfolio::auto(); // fig2 → the fused symbolic arm
    let properties = || {
        vec![
            // ⟨x=1|4,9⟩ (Ex. 8) is reachable within 2 contexts.
            Property::never_visible(vis(2, &[Some(4), Some(9)])),
            Property::True,
        ]
    };

    let mut baseline = Vec::new();
    for property in properties() {
        let artifacts = Arc::new(SystemArtifacts::new());
        let (outcome, _) = run_one(&portfolio, fig2::build(), property, &artifacts);
        baseline.push(verdict_repr(&outcome));
    }

    let artifacts = Arc::new(SystemArtifacts::new());
    let mut shared = Vec::new();
    for property in properties() {
        let (outcome, _) = run_one(&portfolio, fig2::build(), property, &artifacts);
        shared.push(verdict_repr(&outcome));
    }
    assert_eq!(baseline, shared);

    let explorer = artifacts
        .symbolic_explorer_if_started(SubsumptionMode::Exact)
        .expect("the symbolic explorer was started");
    assert!(explorer.is_symbolic());
    assert_eq!(
        explorer.rounds_explored(),
        explorer.depth().min(explorer.rounds_explored()),
        "no symbolic layer explored twice"
    );
    // Fig. 2 collapses by a small bound; pre-collapse layers were
    // explored exactly once however many properties consumed them.
    assert!(explorer.rounds_explored() <= explorer.depth());
}

/// The §6 auto lineup (the fused arm plus the CBA refuter) keeps the
/// exactly-once guarantee: the shared store never recomputes a layer.
#[test]
fn auto_race_never_recomputes_layers() {
    let portfolio = Portfolio::auto();
    let artifacts = Arc::new(SystemArtifacts::new());
    for property in fig1_properties() {
        let (outcome, _) = run_one(&portfolio, fig1::build(), property, &artifacts);
        assert!(!matches!(outcome.verdict, Verdict::Undetermined { .. }));
    }
    let explorer = artifacts.explicit_explorer_if_started().unwrap();
    // Fig. 1's (Rk) never collapses, so every stored bound was
    // explored live exactly once — by whichever arm got there first.
    assert_eq!(explorer.rounds_explored(), explorer.depth());
    // The refuter explores privately: no exact `(Sk)` explorer joins
    // the system's artifacts (a server would keep and snapshot it).
    assert!(artifacts
        .symbolic_explorer_if_started(SubsumptionMode::Exact)
        .is_none());
}

/// A session cancelled after its round 3 leaves the system's explicit
/// layers at depth 3. The explorers hold no interrupt, so a second
/// session on the same artifacts, with no token, replays those layers
/// and answers exactly as a cold run does.
#[test]
fn a_stopped_session_leaves_the_shared_layers_reusable() {
    let cancel = CancelToken::new();
    let stopping = Portfolio::auto().with_config(SessionConfig {
        cancel: Some(cancel.clone()),
        ..SessionConfig::new()
    });
    let artifacts = Arc::new(SystemArtifacts::new());
    let stopped = stopping
        .session_with(fig1::build(), Property::True, &artifacts)
        .unwrap()
        .run_with(|event| {
            if matches!(event, SessionEvent::RoundCompleted { k: 3, .. }) {
                cancel.cancel();
            }
        })
        .unwrap();
    assert_eq!(
        stopped.verdict.to_string(),
        "undetermined: exploration cancelled"
    );
    assert_eq!(stopped.rounds, 3);
    let explorer = artifacts
        .explicit_explorer_if_started()
        .expect("the explicit explorer was started");
    assert_eq!(explorer.depth(), 3);

    let cold = Portfolio::auto()
        .run(fig1::build(), Property::True)
        .unwrap();
    let warm = Portfolio::auto()
        .session_with(fig1::build(), Property::True, &artifacts)
        .unwrap()
        .run()
        .unwrap();
    for outcome in [&cold, &warm] {
        assert_eq!(
            outcome.verdict,
            Verdict::Safe {
                k: 5,
                method: ConvergenceMethod::GeneratorTest
            }
        );
        assert_eq!((outcome.rounds, outcome.states), (6, 17));
    }
    assert_eq!((cold.rounds_explored, cold.rounds_replayed), (13, 0));
    assert_eq!((warm.rounds_explored, warm.rounds_replayed), (10, 3));
}
