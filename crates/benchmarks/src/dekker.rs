//! Dekker's mutual-exclusion protocol (Table 2, program 9) — the one
//! recursion-free benchmark, from Prabhu et al.\[33\].
//!
//! Two threads with intent flags and a turn variable; each thread's
//! program counter lives in its single stack frame (overwrites only,
//! no pushes), so FCR holds trivially and the stacks stay at depth 1.

use cuba_core::Property;
use cuba_pds::{Cpds, CpdsBuilder, Pds, PdsBuilder, SharedState, StackSym};

use crate::FieldEnc;

/// Shared fields: `flag0`, `flag1`, `turn`.
pub fn encoder() -> FieldEnc {
    FieldEnc::new(&[2, 2, 2])
}

// Program counters.
const D0: u32 = 0; // raise own flag
const D1: u32 = 1; // check other's flag
const D2: u32 = 2; // contention: maybe back off
const D2A: u32 = 3; // backed off, waiting for the turn
const D3: u32 = 4; // critical section
const D4: u32 = 5; // exit protocol

/// The critical-section stack symbol.
pub const CRITICAL: StackSym = StackSym(D3);

fn thread_pds(me: usize) -> Pds {
    let enc = encoder();
    let other = 1 - me;
    let mut b = PdsBuilder::new(enc.total(), 6);
    for vals in enc.iter_all() {
        let here = SharedState(enc.encode(&vals));
        let with = |f: usize, v: u32| {
            let mut c = vals.clone();
            c[f] = v;
            SharedState(enc.encode(&c))
        };
        // D0: flag[me] := 1.
        b.overwrite(here, StackSym(D0), with(me, 1), StackSym(D1))
            .expect("static");
        // D1: if !flag[other] enter, else contend.
        if vals[other] == 0 {
            b.overwrite(here, StackSym(D1), here, StackSym(D3))
                .expect("static");
        } else {
            b.overwrite(here, StackSym(D1), here, StackSym(D2))
                .expect("static");
        }
        // D2: if it's my turn, recheck; else back off.
        if vals[2] == me as u32 {
            b.overwrite(here, StackSym(D2), here, StackSym(D1))
                .expect("static");
        } else {
            b.overwrite(here, StackSym(D2), with(me, 0), StackSym(D2A))
                .expect("static");
        }
        // D2A: wait for my turn, then re-raise the flag.
        if vals[2] == me as u32 {
            b.overwrite(here, StackSym(D2A), with(me, 1), StackSym(D1))
                .expect("static");
        } else {
            b.overwrite(here, StackSym(D2A), here, StackSym(D2A))
                .expect("static");
        }
        // D3: critical section, one step.
        b.overwrite(here, StackSym(D3), here, StackSym(D4))
            .expect("static");
        // D4: hand over the turn, lower the flag, restart.
        let mut c = vals.clone();
        c[me] = 0;
        c[2] = other as u32;
        b.overwrite(
            here,
            StackSym(D4),
            SharedState(enc.encode(&c)),
            StackSym(D0),
        )
        .expect("static");
    }
    b.build().expect("static")
}

/// Builds the two-thread Dekker protocol.
pub fn build() -> Cpds {
    let enc = encoder();
    let init = SharedState(enc.encode(&[0, 0, 0]));
    CpdsBuilder::new(enc.total(), init)
        .thread(thread_pds(0), [StackSym(D0)])
        .thread(thread_pds(1), [StackSym(D0)])
        .build()
        .expect("static")
}

/// Mutual exclusion of the two critical sections.
pub fn property() -> Property {
    Property::mutex(0, CRITICAL, 1, CRITICAL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_core::{check_fcr, Portfolio};

    #[test]
    fn satisfies_fcr() {
        assert!(check_fcr(&build()).holds());
    }

    #[test]
    fn mutual_exclusion_holds() {
        let outcome = Portfolio::auto().run(build(), property()).unwrap();
        assert!(outcome.verdict.is_safe(), "{:?}", outcome.verdict);
    }

    #[test]
    fn critical_section_reachable() {
        let reach = Property::MutualExclusion(vec![(0, CRITICAL)]);
        let outcome = Portfolio::auto().run(build(), reach).unwrap();
        assert!(outcome.verdict.is_unsafe());
    }

    #[test]
    fn without_turn_logic_mutex_would_break() {
        // Sanity: both threads can reach D1 simultaneously; it is the
        // protocol, not the scheduler, that protects D3.
        let both_d1 = Property::mutex(0, StackSym(D1), 1, StackSym(D1));
        let outcome = Portfolio::auto().run(build(), both_d1).unwrap();
        assert!(outcome.verdict.is_unsafe());
    }
}
