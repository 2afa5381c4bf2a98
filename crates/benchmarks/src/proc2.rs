//! Proc-2 (Table 2, program 7), standing in for the message-passing
//! example of Chaki et al. (TACAS 2006): two *recursive* server
//! threads handle requests from two non-recursive client threads over
//! per-client request/reply bits.
//!
//! The servers recurse freely (no shared-state gate), so FCR fails and
//! the symbolic engines are required — matching the paper's Table 2
//! row. Safety: a request and its reply are never both in flight.

use cuba_core::Property;
use cuba_pds::{Cpds, CpdsBuilder, Pds, PdsBuilder, SharedState, StackSym};

use crate::FieldEnc;

/// Shared fields: `p1, r1, p2, r2` (request/reply per client).
pub fn encoder() -> FieldEnc {
    FieldEnc::new(&[2, 2, 2, 2])
}

// Server stack symbols.
const S0: u32 = 0; // main loop
const SR: u32 = 1; // return pc of a recursive call

// Client stack symbols.
const C0: u32 = 0; // ready to request
const C1: u32 = 1; // awaiting reply

fn q(enc: &FieldEnc, vals: &[u32]) -> SharedState {
    SharedState(enc.encode(vals))
}

fn server_pds(enc: &FieldEnc) -> Pds {
    let mut b = PdsBuilder::new(enc.total(), 2);
    for vals in enc.iter_all() {
        let here = q(enc, &vals);
        // Unguarded recursion: the FCR-breaking self call.
        b.push(here, StackSym(S0), here, StackSym(S0), StackSym(SR))
            .expect("static");
        // Return from a recursive call.
        b.pop(here, StackSym(S0), here).expect("static");
        b.overwrite(here, StackSym(SR), here, StackSym(S0))
            .expect("static");
        // Serve client i: consume the request, post the reply.
        for client in 0..2usize {
            let (p, r) = (2 * client, 2 * client + 1);
            if vals[p] == 1 && vals[r] == 0 {
                let mut c = vals.clone();
                c[p] = 0;
                c[r] = 1;
                b.overwrite(here, StackSym(S0), q(enc, &c), StackSym(S0))
                    .expect("static");
            }
        }
    }
    b.build().expect("static")
}

fn client_pds(enc: &FieldEnc, client: usize) -> Pds {
    let (p, r) = (2 * client, 2 * client + 1);
    let mut b = PdsBuilder::new(enc.total(), 2);
    for vals in enc.iter_all() {
        let here = q(enc, &vals);
        // Send a request when the channel is clear.
        if vals[p] == 0 && vals[r] == 0 {
            let mut c = vals.clone();
            c[p] = 1;
            b.overwrite(here, StackSym(C0), q(enc, &c), StackSym(C1))
                .expect("static");
        }
        // Consume the reply.
        if vals[r] == 1 {
            let mut c = vals.clone();
            c[r] = 0;
            b.overwrite(here, StackSym(C1), q(enc, &c), StackSym(C0))
                .expect("static");
        }
    }
    b.build().expect("static")
}

/// Builds Proc-2: two recursive servers plus two non-recursive
/// clients (the paper's `2+2•`).
pub fn build() -> Cpds {
    let enc = encoder();
    let init = q(&enc, &[0, 0, 0, 0]);
    let server = server_pds(&enc);
    CpdsBuilder::new(enc.total(), init)
        .threads(&server, [StackSym(S0)], 2)
        .thread(client_pds(&enc, 0), [StackSym(C0)])
        .thread(client_pds(&enc, 1), [StackSym(C0)])
        .build()
        .expect("static")
}

/// Safety: for each client, request and reply are never both raised
/// (the channel protocol invariant).
pub fn property() -> Property {
    let enc = encoder();
    let bad = enc
        .iter_all()
        .filter(|v| (v[0] == 1 && v[1] == 1) || (v[2] == 1 && v[3] == 1))
        .map(|v| q(&enc, &v))
        .collect();
    Property::NeverShared(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_core::{check_fcr, Portfolio};

    #[test]
    fn violates_fcr() {
        assert!(!check_fcr(&build()).holds());
    }

    #[test]
    fn is_safe() {
        let outcome = Portfolio::auto().run(build(), property()).unwrap();
        assert!(outcome.verdict.is_safe(), "{:?}", outcome.verdict);
    }
}
