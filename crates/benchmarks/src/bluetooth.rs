//! The Windows NT Bluetooth driver benchmark (Table 2, programs 1–3),
//! after Qadeer/Wu (KISS, PLDI 2004) and Chaki et al. (TACAS 2006).
//!
//! Two thread templates — *stoppers*, which halt the driver, and
//! *adders*, which perform I/O — synchronize through a pending-I/O
//! counter, a stopping flag, a stopping event and a stopped bit. As in
//! the paper, the counter is modeled by a *recursive procedure*: a
//! dedicated counter thread whose stack depth mirrors `pendingIo`,
//! driven through a shared request channel. Because every push of the
//! counter consumes a request that only another thread can issue, the
//! per-context stack growth is bounded and FCR holds, while the stack
//! itself is unbounded across contexts — exactly the regime CUBA
//! targets.
//!
//! Three versions, as in the paper's evaluation:
//!
//! * **V1** — the original driver: the adder checks `stoppingFlag`
//!   *before* registering its I/O, so a stop can slip in between and
//!   the adder later performs I/O on a stopped driver
//!   (`assert(!stopped)` fails).
//! * **V2** — the historical "fix": the adder increments first and
//!   re-checks, but the stopper may declare the driver stopped without
//!   the stopping event having fired (a stop-without-wait race kept
//!   from the driver's history, reconstructed; see DESIGN.md §2).
//!   Still unsafe.
//! * **V3** — both fixes applied; safe for any number of contexts.

use cuba_pds::{Action, Cpds, CpdsBuilder, Pds, PdsBuilder, SharedState, StackSym};

use cuba_core::Property;

use crate::FieldEnc;

/// Which historical version of the driver to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// Original driver (check-then-increment race).
    V1,
    /// First fix (increment-then-check) with the stop-without-wait
    /// stopper race.
    V2,
    /// Fully fixed driver.
    V3,
}

/// Field layout of the shared state:
/// `req ∈ {none, inc, dec}`, `flag`, `event`, `stopped`, `err`.
pub fn encoder() -> FieldEnc {
    FieldEnc::new(&[3, 2, 2, 2, 2])
}

const REQ: usize = 0;
const FLAG: usize = 1;
const EVENT: usize = 2;
const STOPPED: usize = 3;
const ERR: usize = 4;

const REQ_NONE: u32 = 0;
const REQ_INC: u32 = 1;
const REQ_DEC: u32 = 2;

// Counter thread stack symbols.
const Z: u32 = 0; // bottom sentinel: pendingIo == 0
const C: u32 = 1; // one unit of pendingIo

// Adder program counters.
const A0: u32 = 0;
const A1: u32 = 1;
const A2: u32 = 2;
const A3: u32 = 3;
const A4: u32 = 4;
const A5: u32 = 5;
const A6: u32 = 6;
const A7: u32 = 7;

// Stopper program counters.
const S0: u32 = 0;
const S1: u32 = 1;
const S2: u32 = 2;
const S3: u32 = 3;
const S4: u32 = 4;

fn q(enc: &FieldEnc, vals: &[u32]) -> SharedState {
    SharedState(enc.encode(vals))
}

/// Builds the counter thread: a recursive procedure whose stack depth
/// is the current `pendingIo`. Consumes `inc`/`dec` requests; fires
/// the stopping event when the count reaches zero under a raised flag;
/// a `dec` at zero is a counter underflow and raises `err`.
fn counter_pds(enc: &FieldEnc) -> Pds {
    let mut b = PdsBuilder::new(enc.total(), 2);
    b.name_symbol(StackSym(Z), "Z");
    b.name_symbol(StackSym(C), "C");
    for vals in enc.iter_all() {
        if vals[ERR] == 1 {
            continue;
        }
        // inc: push one unit, acknowledge by clearing the channel.
        if vals[REQ] == REQ_INC {
            let post = q(enc, &{
                let mut v = vals.clone();
                v[REQ] = REQ_NONE;
                v
            });
            for top in [Z, C] {
                b.action(Action::push(
                    q(enc, &vals),
                    StackSym(top),
                    post,
                    StackSym(C),
                    StackSym(top),
                ))
                .expect("static model");
            }
        }
        // dec: pop one unit; at the sentinel it is an underflow.
        if vals[REQ] == REQ_DEC {
            let post = q(enc, &{
                let mut v = vals.clone();
                v[REQ] = REQ_NONE;
                v
            });
            b.action(Action::pop(q(enc, &vals), StackSym(C), post))
                .expect("static model");
            let err_post = q(enc, &{
                let mut v = vals.clone();
                v[ERR] = 1;
                v
            });
            b.action(Action::overwrite(
                q(enc, &vals),
                StackSym(Z),
                err_post,
                StackSym(Z),
            ))
            .expect("static model");
        }
        // Zero detection: count == 0 (sentinel on top) with the flag
        // raised fires the stopping event.
        if vals[REQ] == REQ_NONE && vals[FLAG] == 1 && vals[EVENT] == 0 {
            let post = q(enc, &{
                let mut v = vals.clone();
                v[EVENT] = 1;
                v
            });
            b.action(Action::overwrite(
                q(enc, &vals),
                StackSym(Z),
                post,
                StackSym(Z),
            ))
            .expect("static model");
        }
    }
    b.build().expect("static model")
}

/// Builds the adder template for `version`.
fn adder_pds(enc: &FieldEnc, version: Version) -> Pds {
    let mut b = PdsBuilder::new(enc.total(), 8);
    for vals in enc.iter_all() {
        if vals[ERR] == 1 {
            continue;
        }
        let here = q(enc, &vals);
        let with = |field: usize, v: u32| -> SharedState {
            let mut copy = vals.clone();
            copy[field] = v;
            q(enc, &copy)
        };
        match version {
            Version::V1 => {
                // A0: check flag, then register I/O — the race.
                if vals[FLAG] == 0 {
                    b.overwrite(here, StackSym(A0), here, StackSym(A1))
                        .expect("static");
                } else {
                    b.pop(here, StackSym(A0), here).expect("static");
                }
                // A1: issue inc (channel must be free).
                if vals[REQ] == REQ_NONE {
                    b.overwrite(here, StackSym(A1), with(REQ, REQ_INC), StackSym(A2))
                        .expect("static");
                    // A2: await acknowledgement.
                    b.overwrite(here, StackSym(A2), here, StackSym(A3))
                        .expect("static");
                    // A4: issue dec.
                    b.overwrite(here, StackSym(A4), with(REQ, REQ_DEC), StackSym(A5))
                        .expect("static");
                    // A5: await acknowledgement, then return.
                    b.pop(here, StackSym(A5), here).expect("static");
                }
                // A3: the work step with the driver assertion.
                if vals[STOPPED] == 1 {
                    b.overwrite(here, StackSym(A3), with(ERR, 1), StackSym(A3))
                        .expect("static");
                } else {
                    b.overwrite(here, StackSym(A3), here, StackSym(A4))
                        .expect("static");
                }
            }
            Version::V2 | Version::V3 => {
                // A0: register I/O first.
                if vals[REQ] == REQ_NONE {
                    b.overwrite(here, StackSym(A0), with(REQ, REQ_INC), StackSym(A1))
                        .expect("static");
                    // A1: await acknowledgement.
                    b.overwrite(here, StackSym(A1), here, StackSym(A2))
                        .expect("static");
                    // A4: issue dec after work.
                    b.overwrite(here, StackSym(A4), with(REQ, REQ_DEC), StackSym(A5))
                        .expect("static");
                    b.pop(here, StackSym(A5), here).expect("static");
                    // A6: abort path — undo the registration.
                    b.overwrite(here, StackSym(A6), with(REQ, REQ_DEC), StackSym(A7))
                        .expect("static");
                    b.pop(here, StackSym(A7), here).expect("static");
                }
                // A2: re-check the flag after registering.
                if vals[FLAG] == 1 {
                    b.overwrite(here, StackSym(A2), here, StackSym(A6))
                        .expect("static");
                } else {
                    b.overwrite(here, StackSym(A2), here, StackSym(A3))
                        .expect("static");
                }
                // A3: the work step with the driver assertion.
                if vals[STOPPED] == 1 {
                    b.overwrite(here, StackSym(A3), with(ERR, 1), StackSym(A3))
                        .expect("static");
                } else {
                    b.overwrite(here, StackSym(A3), here, StackSym(A4))
                        .expect("static");
                }
            }
        }
    }
    b.build().expect("static model")
}

/// Builds the stopper template for `version`.
fn stopper_pds(enc: &FieldEnc, version: Version) -> Pds {
    let mut b = PdsBuilder::new(enc.total(), 5);
    for vals in enc.iter_all() {
        if vals[ERR] == 1 {
            continue;
        }
        let here = q(enc, &vals);
        let with = |field: usize, v: u32| -> SharedState {
            let mut copy = vals.clone();
            copy[field] = v;
            q(enc, &copy)
        };
        // S0: claim the stop (only the first stopper proceeds).
        if vals[FLAG] == 0 {
            b.overwrite(here, StackSym(S0), with(FLAG, 1), StackSym(S1))
                .expect("static");
        } else {
            b.pop(here, StackSym(S0), here).expect("static");
        }
        // S1: release the driver's own token (issue dec).
        if vals[REQ] == REQ_NONE {
            b.overwrite(here, StackSym(S1), with(REQ, REQ_DEC), StackSym(S2))
                .expect("static");
            // S2: await acknowledgement.
            b.overwrite(here, StackSym(S2), here, StackSym(S3))
                .expect("static");
        }
        // S3: wait for the stopping event …
        if vals[EVENT] == 1 {
            b.overwrite(here, StackSym(S3), here, StackSym(S4))
                .expect("static");
        }
        // … except V2's stop-without-wait race: the stopper may give
        // up waiting and declare the driver stopped anyway.
        if version == Version::V2 && vals[EVENT] == 0 {
            b.overwrite(here, StackSym(S3), here, StackSym(S4))
                .expect("static");
        }
        // S4: mark stopped and return.
        b.action(Action::pop(here, StackSym(S4), with(STOPPED, 1)))
            .expect("static");
    }
    b.build().expect("static model")
}

/// Builds the Bluetooth CPDS: `num_stoppers` stoppers, `num_adders`
/// adders, plus the recursive counter thread (thread index 0) with
/// `pendingIo` initialized to 1 (the driver's own token).
pub fn build(version: Version, num_stoppers: usize, num_adders: usize) -> Cpds {
    let enc = encoder();
    let init = q(&enc, &[REQ_NONE, 0, 0, 0, 0]);
    let counter = counter_pds(&enc);
    let stopper = stopper_pds(&enc, version);
    let adder = adder_pds(&enc, version);
    let mut builder = CpdsBuilder::new(enc.total(), init)
        // Counter starts with one pending unit above the sentinel.
        .thread(counter, [StackSym(C), StackSym(Z)]);
    builder = builder.threads(&stopper, [StackSym(S0)], num_stoppers);
    builder = builder.threads(&adder, [StackSym(A0)], num_adders);
    builder.build().expect("static model")
}

/// The safety property: no error state is ever entered (covers both
/// the `assert(!stopped)` in the adder and counter underflow).
pub fn property() -> Property {
    let enc = encoder();
    let err_states = enc
        .iter_all()
        .filter(|v| v[ERR] == 1)
        .map(|v| q(&enc, &v))
        .collect();
    Property::NeverShared(err_states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_core::{check_fcr, Portfolio, Verdict};

    #[test]
    fn all_versions_satisfy_fcr() {
        for version in [Version::V1, Version::V2, Version::V3] {
            let cpds = build(version, 1, 1);
            assert!(check_fcr(&cpds).holds(), "{version:?} must satisfy FCR");
        }
    }

    #[test]
    fn v1_is_unsafe() {
        let cpds = build(Version::V1, 1, 1);
        let outcome = Portfolio::auto().run(cpds, property()).unwrap();
        assert!(outcome.verdict.is_unsafe(), "v1 1+1: {:?}", outcome.verdict);
        if let Verdict::Unsafe { k, .. } = outcome.verdict {
            assert!(k <= 8, "bug should appear at a small bound, got {k}");
        }
    }

    #[test]
    fn v2_is_unsafe() {
        let cpds = build(Version::V2, 1, 1);
        let outcome = Portfolio::auto().run(cpds, property()).unwrap();
        assert!(outcome.verdict.is_unsafe(), "v2 1+1: {:?}", outcome.verdict);
    }

    #[test]
    fn v3_is_safe() {
        let cpds = build(Version::V3, 1, 1);
        let outcome = Portfolio::auto().run(cpds, property()).unwrap();
        assert!(outcome.verdict.is_safe(), "v3 1+1: {:?}", outcome.verdict);
    }

    #[test]
    fn counter_stack_grows_across_contexts() {
        // With two adders the counter can reach depth 3 (1 + 2).
        let cpds = build(Version::V3, 1, 2);
        assert_eq!(cpds.num_threads(), 4);
        assert_eq!(cpds.initial_stack(0).len(), 2);
    }
}
