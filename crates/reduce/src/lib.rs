//! Static diagnostics for CUBA models: the analysis behind `cuba lint`.
//!
//! Models routinely carry control states and transitions that provably
//! cannot occur: translation artifacts, disabled configuration
//! branches, left-over states. This crate finds them without exploring
//! the concurrent system:
//!
//! 1. **Skeleton reachability**: the context-insensitive
//!    stack-cut-at-one product of Alg. 2, labeled with concrete
//!    actions. A transition whose left-hand side `(q, σ)` is not
//!    covered by any skeleton state can never fire in the concrete
//!    semantics (the skeleton overapproximates the reachable visible
//!    states, Lemma 12): it is a *dead transition*.
//! 2. **Cone of influence**: the backward closure of the skeleton
//!    from every state violating a checked [`Property`]. Firable
//!    transitions outside the cone cannot influence the verdict's
//!    word (safe/unsafe); they are counted.
//! 3. **Diagnostics** ([`Lint`]): machine-readable findings —
//!    unreachable control states, dead transitions, vacuous or
//!    ill-formed property specs.
//!
//! The analysis is read-only. CUBA's convergence certificates read the
//! program text as well as the reachable states: the generator set `G`
//! comes from pop targets and emerging symbols (Eq. 2), `Z` from
//! emerging symbols (Alg. 2), and the FCR check starts from all of
//! `Q × Σ≤1` (§5). Deleting a transition that never fires can still
//! move those inputs, so the findings are reported, never applied.

mod lint;
mod skeleton;

use std::time::Instant;

use cuba_core::{Property, PropertyCheck};
use cuba_pds::{Cpds, SharedState};

pub use lint::{Lint, LintLevel};
pub use skeleton::SkeletonTooLarge;
use skeleton::MAX_SKELETON_EDGES;

/// Counters and pass timings of one [`lint`] run, designed to be
/// embedded verbatim in `cuba lint --json` output.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintStats {
    /// States of the explored context-insensitive skeleton.
    pub skeleton_states: usize,
    /// Shared states of the model.
    pub shared_states: usize,
    /// Shared states no skeleton state carries (unreachable).
    pub unreachable_shared: usize,
    /// Transitions across all threads.
    pub transitions: usize,
    /// Transitions that can never fire (dead).
    pub dead_transitions: usize,
    /// Firable transitions outside every checked property's cone of
    /// influence.
    pub irrelevant_transitions: usize,
    /// Checked properties whose violation is unreachable even in the
    /// skeleton.
    pub vacuous_properties: usize,
    /// Wall time of the skeleton pass, microseconds.
    pub skeleton_us: u64,
    /// Wall time of the cone-of-influence pass, microseconds.
    pub coi_us: u64,
}

/// The outcome of one [`lint`] run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Counters and pass timings.
    pub stats: LintStats,
    /// Diagnostics discovered along the way.
    pub lints: Vec<Lint>,
}

impl LintReport {
    /// Whether any diagnostic reaches [`LintLevel::Deny`].
    pub fn has_deny(&self) -> bool {
        self.lints.iter().any(|l| l.level == LintLevel::Deny)
    }
}

/// Analyzes `cpds` with respect to the properties that will be
/// checked: skeleton reachability, cone of influence, and the lint
/// catalogue built from both.
///
/// # Errors
///
/// [`SkeletonTooLarge`] when the skeleton has more than 2^22 edges.
pub fn lint(cpds: &Cpds, properties: &[Property]) -> Result<LintReport, SkeletonTooLarge> {
    let t0 = Instant::now();
    let skel = skeleton::explore(cpds, MAX_SKELETON_EDGES)?;
    let skeleton_us = t0.elapsed().as_micros() as u64;

    // Validate first: an invalid property is reported as such and
    // builds no check, so it marks nothing relevant.
    let validity: Vec<Result<(), String>> = properties.iter().map(|p| p.validate(cpds)).collect();
    let t1 = Instant::now();
    let checks: Vec<Option<PropertyCheck>> = properties
        .iter()
        .zip(&validity)
        .map(|(property, valid)| valid.is_ok().then(|| PropertyCheck::new(property, cpds)))
        .collect();
    let rel = skeleton::relevance(cpds, &skel, &checks);
    let coi_us = t1.elapsed().as_micros() as u64;

    let transitions: usize = cpds.threads().iter().map(|p| p.actions().len()).sum();
    let dead_transitions: usize = skel
        .firable
        .iter()
        .flatten()
        .filter(|&&firable| !firable)
        .count();
    let irrelevant_transitions: usize = skel
        .firable
        .iter()
        .zip(rel.relevant.iter())
        .flat_map(|(f, r)| f.iter().zip(r.iter()))
        .filter(|&(&firable, &relevant)| firable && !relevant)
        .count();
    let vacuous_properties = rel.vacuous.iter().filter(|&&v| v).count();
    let stats = LintStats {
        skeleton_states: skel.num_states(),
        shared_states: cpds.num_shared() as usize,
        unreachable_shared: skel.reachable_shared.iter().filter(|&&r| !r).count(),
        transitions,
        dead_transitions,
        irrelevant_transitions,
        vacuous_properties,
        skeleton_us,
        coi_us,
    };

    let lints = collect_lints(cpds, properties, &validity, &skel, &rel);
    Ok(LintReport { stats, lints })
}

/// Produces the CPDS-level lint catalogue from the analysis results
/// and each property's validation.
fn collect_lints(
    cpds: &Cpds,
    properties: &[Property],
    validity: &[Result<(), String>],
    skel: &skeleton::Skeleton,
    rel: &skeleton::Relevance,
) -> Vec<Lint> {
    let mut lints = Vec::new();
    for (p, (property, valid)) in properties.iter().zip(validity).enumerate() {
        match valid {
            Err(message) => {
                lints.push(Lint::new("unknown-state", LintLevel::Deny, message.clone()));
            }
            Ok(()) => {
                if rel.vacuous[p] && !matches!(property, Property::True) {
                    lints.push(Lint::new(
                        "vacuous-property",
                        LintLevel::Note,
                        format!(
                            "property `{property}` cannot be violated even in the \
                             context-insensitive overapproximation; verification is trivial"
                        ),
                    ));
                }
            }
        }
    }
    for q in 0..cpds.num_shared() {
        if !skel.reachable_shared[q as usize] {
            let name = cpds
                .shared_name(SharedState(q))
                .map(|n| format!(" (`{n}`)"))
                .unwrap_or_default();
            lints.push(Lint::new(
                "unreachable-state",
                LintLevel::Warn,
                format!("shared state {q}{name} is unreachable from the initial state"),
            ));
        }
    }
    for (i, pds) in cpds.threads().iter().enumerate() {
        for (idx, a) in pds.actions().iter().enumerate() {
            if skel.firable[i][idx] {
                continue;
            }
            let what = pds
                .action_name(idx)
                .map(|n| format!("`{n}`"))
                .unwrap_or_else(|| format!("`{a}`"));
            lints.push(Lint::new(
                "dead-transition",
                LintLevel::Warn,
                format!(
                    "thread {i}: transition {what} can never fire — its source pair \
                     is unreachable"
                ),
            ));
        }
    }
    lints
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{CpdsBuilder, PdsBuilder, StackSym, VisibleState};

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    fn fig1() -> Cpds {
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

    /// Fig. 1 with an injected dead branch: state 4 ("debug") is never
    /// produced, so both actions reading it are dead.
    fn fig1_with_dead_code() -> Cpds {
        let mut p1 = PdsBuilder::new(5, 3);
        p1.overwrite(q(0), s(1), q(1), s(2)).unwrap();
        p1.overwrite(q(3), s(2), q(0), s(1)).unwrap();
        p1.named_action(
            "debug-dump",
            cuba_pds::Action::overwrite(q(4), s(1), q(0), s(1)),
        )
        .unwrap();
        let mut p2 = PdsBuilder::new(5, 7);
        p2.pop(q(0), s(4), q(0)).unwrap();
        p2.overwrite(q(1), s(4), q(2), s(5)).unwrap();
        p2.push(q(2), s(5), q(3), s(4), s(6)).unwrap();
        p2.overwrite(q(4), s(4), q(4), s(5)).unwrap();
        CpdsBuilder::new(5, q(0))
            .thread(p1.build().unwrap(), [s(1)])
            .thread(p2.build().unwrap(), [s(4)])
            .name_shared(q(4), "debug")
            .build()
            .unwrap()
    }

    #[test]
    fn fig1_has_no_dead_code_and_no_lints() {
        let cpds = fig1();
        let r = lint(&cpds, &[Property::True]).unwrap();
        assert_eq!(r.stats.dead_transitions, 0);
        assert_eq!(r.stats.unreachable_shared, 0);
        assert!(r.lints.is_empty(), "{:?}", r.lints);
    }

    #[test]
    fn dead_code_is_counted_and_linted() {
        let cpds = fig1_with_dead_code();
        let r = lint(&cpds, &[Property::never_shared(q(2))]).unwrap();
        assert_eq!(r.stats.dead_transitions, 2);
        assert_eq!(r.stats.unreachable_shared, 1);
        let codes: Vec<&str> = r.lints.iter().map(|l| l.code).collect();
        assert!(codes.contains(&"unreachable-state"));
        assert_eq!(codes.iter().filter(|&&c| c == "dead-transition").count(), 2);
        // The named dead action is reported by name.
        assert!(r
            .lints
            .iter()
            .any(|l| l.code == "dead-transition" && l.message.contains("`debug-dump`")));
    }

    #[test]
    fn sole_contributor_dead_actions_are_linted() {
        // The dead push is the only producer of emerging symbol 2 and
        // the dead pop the only pop targeting state 1. Both feed G/Z,
        // yet both are dead and reported as such.
        let mut p = PdsBuilder::new(3, 4);
        p.overwrite(q(0), s(0), q(0), s(1)).unwrap();
        p.push(q(2), s(0), q(2), s(3), s(2)).unwrap(); // dead, sole emerging producer
        p.pop(q(2), s(3), q(1)).unwrap(); // dead, sole pop target
        let cpds = CpdsBuilder::new(3, q(0))
            .thread(p.build().unwrap(), [s(0)])
            .build()
            .unwrap();
        let r = lint(&cpds, &[Property::True]).unwrap();
        assert_eq!(r.stats.dead_transitions, 2);
        assert_eq!(
            r.lints
                .iter()
                .filter(|l| l.code == "dead-transition")
                .count(),
            2
        );
    }

    #[test]
    fn unknown_state_property_is_denied() {
        let cpds = fig1();
        let bogus = Property::never_shared(q(9));
        let r = lint(&cpds, &[bogus]).unwrap();
        assert!(r.has_deny());
        assert!(r
            .lints
            .iter()
            .any(|l| l.code == "unknown-state" && l.level == LintLevel::Deny));
    }

    #[test]
    fn vacuous_property_is_noted() {
        let cpds = fig1();
        // ⟨2|1,5⟩ is outside Z (Ex. 14).
        let target = VisibleState::new(q(2), vec![Some(s(1)), Some(s(5))]);
        let r = lint(&cpds, &[Property::never_visible(target)]).unwrap();
        assert!(r
            .lints
            .iter()
            .any(|l| l.code == "vacuous-property" && l.level == LintLevel::Note));
        assert_eq!(r.stats.vacuous_properties, 1);
    }
}
