//! Parallel file crawler (Table 2, program 5): one non-recursive user
//! thread hands work tokens to crawler threads that recursively enter
//! directories; the user may shut the system down only when no token
//! is in flight. Safety: no crawler ever starts work after shutdown.
//!
//! Directory nesting is tracked to a bounded depth (as in the paper's
//! abstraction, where both reachability sequences collapse at the
//! same bound — Table 2 reports `kmax = 6` for `(Rk)` itself, so the
//! crawler's global reachability set is finite). Descents are gated on
//! the work token, so FCR holds.

use cuba_core::Property;
use cuba_pds::{Cpds, CpdsBuilder, Pds, PdsBuilder, SharedState, StackSym};

use crate::FieldEnc;

/// Maximum tracked directory nesting depth.
pub const DEPTH: u32 = 3;

/// Shared fields: `work`, `shut`, `err`.
pub fn encoder() -> FieldEnc {
    FieldEnc::new(&[2, 2, 2])
}

const WORK: usize = 0;
const SHUT: usize = 1;
const ERR: usize = 2;

// Crawler stack symbols: 0 = idle at the root, d = processing at
// nesting depth d (1..=DEPTH).
const C0: u32 = 0;

// User stack symbols.
const U0: u32 = 0; // producing work
const U1: u32 = 1; // shut down

fn q(enc: &FieldEnc, vals: &[u32]) -> SharedState {
    SharedState(enc.encode(vals))
}

fn crawler_pds(enc: &FieldEnc) -> Pds {
    let mut b = PdsBuilder::new(enc.total(), DEPTH + 1);
    for vals in enc.iter_all() {
        if vals[ERR] == 1 {
            continue;
        }
        let here = q(enc, &vals);
        let with = |f: usize, v: u32| {
            let mut c = vals.clone();
            c[f] = v;
            q(enc, &c)
        };
        // Take a token and enter the next directory level.
        if vals[WORK] == 1 && vals[SHUT] == 0 {
            for d in 0..DEPTH {
                b.push(
                    here,
                    StackSym(d),
                    with(WORK, 0),
                    StackSym(d + 1),
                    StackSym(d),
                )
                .expect("static");
            }
        }
        // The crawler's assertion: consuming work after shutdown is an
        // error. Unreachable because the user retires the token first,
        // but the abstraction must carry the check.
        if vals[WORK] == 1 && vals[SHUT] == 1 {
            for d in 0..=DEPTH {
                b.overwrite(here, StackSym(d), with(ERR, 1), StackSym(d))
                    .expect("static");
            }
        }
        // Finish the current directory.
        for d in 1..=DEPTH {
            b.pop(here, StackSym(d), here).expect("static");
        }
        // Exit entirely once shut down.
        if vals[SHUT] == 1 {
            b.pop(here, StackSym(C0), here).expect("static");
        }
    }
    b.build().expect("static")
}

fn user_pds(enc: &FieldEnc) -> Pds {
    let mut b = PdsBuilder::new(enc.total(), 2);
    for vals in enc.iter_all() {
        if vals[ERR] == 1 {
            continue;
        }
        let here = q(enc, &vals);
        let with = |f: usize, v: u32| {
            let mut c = vals.clone();
            c[f] = v;
            q(enc, &c)
        };
        // Produce a work token.
        if vals[WORK] == 0 && vals[SHUT] == 0 {
            b.overwrite(here, StackSym(U0), with(WORK, 1), StackSym(U0))
                .expect("static");
        }
        // Shut down, but only while no token is in flight.
        if vals[WORK] == 0 && vals[SHUT] == 0 {
            b.overwrite(here, StackSym(U0), with(SHUT, 1), StackSym(U1))
                .expect("static");
        }
        // Halt.
        b.pop(here, StackSym(U1), here).expect("static");
    }
    b.build().expect("static")
}

/// Builds the crawler benchmark: one user plus `num_crawlers`
/// crawlers (the paper's configuration is `1• + 2`).
pub fn build(num_crawlers: usize) -> Cpds {
    let enc = encoder();
    let init = q(&enc, &[0, 0, 0]);
    let user = user_pds(&enc);
    let crawler = crawler_pds(&enc);
    CpdsBuilder::new(enc.total(), init)
        .thread(user, [StackSym(U0)])
        .threads(&crawler, [StackSym(C0)], num_crawlers)
        .build()
        .expect("static")
}

/// Safety: the crawler assertion never fires.
pub fn property() -> Property {
    let enc = encoder();
    let errs = enc
        .iter_all()
        .filter(|v| v[ERR] == 1)
        .map(|v| q(&enc, &v))
        .collect();
    Property::NeverShared(errs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_core::{check_fcr, Portfolio};

    #[test]
    fn satisfies_fcr() {
        assert!(check_fcr(&build(2)).holds());
    }

    #[test]
    fn is_safe_with_two_crawlers() {
        let outcome = Portfolio::auto().run(build(2), property()).unwrap();
        assert!(outcome.verdict.is_safe(), "{:?}", outcome.verdict);
    }

    #[test]
    fn nesting_is_reachable() {
        // Depth-2 processing is reachable — the model is not vacuous.
        let cpds = build(1);
        let reach_depth2 = Property::MutualExclusion(vec![(1, StackSym(2))]);
        let outcome = Portfolio::auto().run(cpds, reach_depth2).unwrap();
        assert!(outcome.verdict.is_unsafe());
    }

    #[test]
    fn shutdown_exit_empties_the_stack() {
        // After shutdown a crawler can pop everything: visible ε tops.
        let cpds = build(1);
        let enc = encoder();
        let dead = Property::MutualExclusion(vec![(0, StackSym(U1))]);
        let _ = enc;
        let outcome = Portfolio::auto().run(cpds, dead).unwrap();
        assert!(outcome.verdict.is_unsafe()); // i.e. U1 reachable
    }
}
