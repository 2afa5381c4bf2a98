use std::collections::BTreeSet;

use cuba_pds::{Pds, Rhs};
use cuba_telemetry::metrics::METRICS;
use cuba_telemetry::trace;

use crate::poststar::SATURATION_POLL_EVERY;
use crate::{Label, Psa, SaturationInterrupted, StateId};

/// Computes `pre*(L(target))`: the PSA accepting all configurations
/// from which `pds` can reach a configuration accepted by `target`.
///
/// Provided for cross-validation of [`post_star`](crate::post_star)
/// (the duality `s' ∈ post*(s) ⟺ s ∈ pre*(s')`) and for
/// backward-reachability queries. Unlike `post*`, the result may have
/// incoming transitions on control states; it is still a valid
/// acceptor, but not a normalized [`Psa`] per
/// [`Psa::validate`] — don't feed it back into saturation.
///
/// The implementation is the classic fixpoint: for every rule
/// `(q,γ) → (q',w')` and every automaton state `s` with
/// `q' —w'→* s`, add `q —γ→ s`; empty-stack rules add ε-acceptance
/// of `⟨q|ε⟩` whenever `⟨q'|w'⟩` is accepted. Iterates to fixpoint
/// (naive but robust with ε-transitions present).
pub fn pre_star(pds: &Pds, target: &Psa) -> Psa {
    match pre_star_guarded(pds, target, &mut || true) {
        Ok(psa) => psa,
        Err(SaturationInterrupted) => unreachable!("an always-true poll never interrupts"),
    }
}

/// As [`pre_star`], but polls `poll` every few transition insertions
/// (and once per fixpoint pass) and aborts when it returns `false` —
/// the backward twin of
/// [`post_star_guarded`](crate::post_star_guarded).
///
/// # Errors
///
/// [`SaturationInterrupted`] when `poll` returned `false`; the
/// partially saturated automaton is discarded.
pub fn pre_star_guarded(
    pds: &Pds,
    target: &Psa,
    poll: &mut dyn FnMut() -> bool,
) -> Result<Psa, SaturationInterrupted> {
    let mut psa = target.clone();
    let sink = psa.sink();
    let mut inserted: usize = 0;
    loop {
        if !poll() {
            return Err(SaturationInterrupted);
        }
        // Each backward fixpoint pass is one telemetry wave.
        METRICS.waves.inc();
        METRICS.frontier_edges.observe(pds.actions().len() as u64);
        let _wave_span = trace::span_args("wave", vec![("rules", pds.actions().len().into())]);
        let mut changed = false;
        for a in pds.actions() {
            // States reachable from q' reading w'.
            let mut start = BTreeSet::new();
            start.insert(a.q_post.0);
            let word: Vec<u32> = match a.rhs {
                Rhs::Empty => vec![],
                Rhs::One(s) => vec![s.0],
                Rhs::Two { top, below } => vec![top.0, below.0],
            };
            let reach = psa.nfa.run(&start, &word);
            let mut record = |added: bool| -> Result<(), SaturationInterrupted> {
                if added {
                    changed = true;
                    inserted += 1;
                    if inserted.is_multiple_of(SATURATION_POLL_EVERY) && !poll() {
                        return Err(SaturationInterrupted);
                    }
                }
                Ok(())
            };
            match a.top {
                Some(gamma) => {
                    for &s in &reach {
                        let added =
                            psa.nfa
                                .add_transition(StateId(a.q.0), Label::Sym(gamma.0), StateId(s));
                        record(added)?;
                    }
                }
                None => {
                    // ⟨q|ε⟩ → ⟨q'|w'⟩: accept ⟨q|ε⟩ iff ⟨q'|w'⟩ accepted.
                    let added = reach.iter().any(|&s| psa.nfa.is_final(StateId(s)))
                        && psa.nfa.add_transition(StateId(a.q.0), Label::Eps, sink);
                    record(added)?;
                }
            }
        }
        if !changed {
            return Ok(psa);
        }
    }
}

/// As [`pre_star_guarded`], with a shared-reference poll. The
/// `threads` argument is ignored: the backward fixpoint is always
/// sequential. It stays in the signature because the `perfbench/`
/// harness passes it.
///
/// # Errors
///
/// [`SaturationInterrupted`] when `poll` returned `false`.
pub fn pre_star_with(
    pds: &Pds,
    target: &Psa,
    _threads: usize,
    poll: &(dyn Fn() -> bool + Sync),
) -> Result<Psa, SaturationInterrupted> {
    pre_star_guarded(pds, target, &mut || poll())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{post_star, Psa};
    use cuba_pds::{PdsBuilder, PdsConfig, SharedState, Stack, StackSym};

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }
    fn cfg(qq: u32, word: &[u32]) -> PdsConfig {
        PdsConfig::new(q(qq), Stack::from_top_down(word.iter().map(|&x| s(x))))
    }

    fn fig7() -> cuba_pds::Pds {
        let mut b = PdsBuilder::new(3, 3);
        b.push(q(0), s(0), q(1), s(1), s(0)).unwrap();
        b.push(q(1), s(1), q(2), s(2), s(0)).unwrap();
        b.overwrite(q(2), s(2), q(0), s(1)).unwrap();
        b.pop(q(0), s(1), q(0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn pre_star_finds_predecessors() {
        let pds = fig7();
        // Target: ⟨0|ε⟩ (empty stack at control 0).
        let target = Psa::accepting_configs(3, [&cfg(0, &[])]).unwrap();
        let pre = pre_star(&pds, &target);
        // ⟨0|1⟩ pops directly to ⟨0|ε⟩.
        assert!(pre.accepts_config(&cfg(0, &[1])));
        assert!(pre.accepts_config(&cfg(0, &[1, 1])));
        // ⟨2|2⟩ overwrites to ⟨0|1⟩, then pops.
        assert!(pre.accepts_config(&cfg(2, &[2])));
        // The target itself is included.
        assert!(pre.accepts_config(&cfg(0, &[])));
        // ⟨0|0⟩ pushes forever and never empties below one symbol … but
        // it eventually pops everything? (0,0)->(1,10): stack grows; only
        // `1` symbols ever pop. Stack keeps a trailing 0, so ⟨0|ε⟩ is
        // unreachable from it.
        assert!(!pre.accepts_config(&cfg(0, &[0])));
    }

    #[test]
    fn post_pre_duality_on_samples() {
        let pds = fig7();
        let start = cfg(0, &[0]);
        let post = post_star(&pds, &Psa::accepting_configs(3, [&start]).unwrap());
        // For a handful of configurations accepted by post*, pre* of
        // each must accept the start configuration.
        for qq in 0..3u32 {
            let lang = post.stack_language(q(qq));
            for word in lang.sample_words(6) {
                let c = cfg(qq, &word);
                let pre = pre_star(&pds, &Psa::accepting_configs(3, [&c]).unwrap());
                assert!(
                    pre.accepts_config(&start),
                    "duality failed for intermediate {c}"
                );
            }
        }
    }

    #[test]
    fn pre_star_with_empty_stack_rules() {
        // (0,ε) -> (1,a); target ⟨1|a⟩ — then ⟨0|ε⟩ ∈ pre*.
        let mut b = PdsBuilder::new(2, 1);
        b.from_empty(q(0), q(1), Some(s(0))).unwrap();
        let pds = b.build().unwrap();
        let target = Psa::accepting_configs(2, [&cfg(1, &[0])]).unwrap();
        let pre = pre_star(&pds, &target);
        assert!(pre.accepts_config(&cfg(0, &[])));
        assert!(!pre.accepts_config(&cfg(0, &[0])));
    }
}
