//! Shared constructions of the paper's running examples for unit
//! tests (the benchmark crate re-builds them for public consumption).

use cuba_pds::{Cpds, CpdsBuilder, PdsBuilder, SharedState, StackSym};

use crate::{
    build_engine, CubaError, Engine, EngineKind, EngineParams, Property, RoundCtx, RoundOutcome,
    SequenceEvent, Verdict,
};

fn q(n: u32) -> SharedState {
    SharedState(n)
}
fn s(n: u32) -> StackSym {
    StackSym(n)
}

/// The two-thread CPDS of Fig. 1.
pub fn fig1() -> Cpds {
    let mut p1 = PdsBuilder::new(4, 3);
    p1.overwrite(q(0), s(1), q(1), s(2)).unwrap();
    p1.overwrite(q(3), s(2), q(0), s(1)).unwrap();
    let mut p2 = PdsBuilder::new(4, 7);
    p2.pop(q(0), s(4), q(0)).unwrap();
    p2.overwrite(q(1), s(4), q(2), s(5)).unwrap();
    p2.push(q(2), s(5), q(3), s(4), s(6)).unwrap();
    CpdsBuilder::new(4, q(0))
        .thread(p1.build().unwrap(), [s(1)])
        .thread(p2.build().unwrap(), [s(4)])
        .build()
        .unwrap()
}

/// The foo/bar CPDS of Fig. 2 (violates FCR).
/// Q = {⊥,0,1} encoded as {0,1,2}; Σ1 = {2,3,4,5}, Σ2 = {6,7,8,9}.
pub fn fig2() -> Cpds {
    let (bot, x0, x1) = (q(0), q(1), q(2));
    let mut p1 = PdsBuilder::new(3, 6);
    p1.overwrite(bot, s(2), x0, s(2)).unwrap(); // f0
    p1.overwrite(bot, s(2), x1, s(2)).unwrap();
    for x in [x0, x1] {
        p1.overwrite(x, s(2), x, s(3)).unwrap(); // f2a
        p1.overwrite(x, s(2), x, s(4)).unwrap(); // f2b
        p1.push(x, s(3), x, s(2), s(4)).unwrap(); // f3
        p1.pop(x, s(5), x1).unwrap(); // f5
    }
    p1.overwrite(x1, s(4), x1, s(4)).unwrap(); // f4a
    p1.overwrite(x0, s(4), x0, s(5)).unwrap(); // f4b
    let mut p2 = PdsBuilder::new(3, 10);
    p2.overwrite(bot, s(6), x0, s(6)).unwrap(); // b0
    p2.overwrite(bot, s(6), x1, s(6)).unwrap();
    for x in [x0, x1] {
        p2.overwrite(x, s(6), x, s(7)).unwrap(); // b6a
        p2.overwrite(x, s(6), x, s(8)).unwrap(); // b6b
        p2.push(x, s(7), x, s(6), s(8)).unwrap(); // b7
        p2.pop(x, s(9), x0).unwrap(); // b9
    }
    p2.overwrite(x0, s(8), x0, s(8)).unwrap(); // b8a
    p2.overwrite(x1, s(8), x1, s(9)).unwrap(); // b8b
    CpdsBuilder::new(3, bot)
        .thread(p1.build().unwrap(), [s(2)])
        .thread(p2.build().unwrap(), [s(6)])
        .build()
        .unwrap()
}

/// A concluded engine (for its rounds, states and growth log), its
/// verdict, and every step's outcome, the concluding one last.
pub type Run = (Engine, Verdict, Vec<RoundOutcome>);

/// Steps a freshly built engine to its conclusion.
pub fn run_engine(
    kind: EngineKind,
    cpds: &Cpds,
    property: &Property,
    params: &EngineParams,
) -> Result<Run, CubaError> {
    let mut engine = build_engine(kind, cpds, property, params);
    let mut ctx = RoundCtx::new();
    let mut steps = Vec::new();
    loop {
        let outcome = engine.step(&mut ctx)?;
        if let Some(verdict) = outcome.verdict().cloned() {
            steps.push(outcome);
            return Ok((engine, verdict, steps));
        }
        steps.push(outcome);
    }
}

/// The plateaus an Algorithm 3 run rejected (Ex. 14): the bounds
/// `k − 1` of rounds that continued although `T(Rk)` had just
/// plateaued.
pub fn rejected_plateaus(steps: &[RoundOutcome]) -> Vec<usize> {
    steps
        .iter()
        .filter_map(|step| match step {
            RoundOutcome::Continue(info) if info.event == SequenceEvent::NewPlateau => {
                Some(info.k - 1)
            }
            _ => None,
        })
        .collect()
}
