use std::collections::HashMap;

use crate::{Action, PdsConfig, PdsError, Rhs, SharedState, StackSym};

/// A sequential pushdown system `P = (Q, Σ, Δ, qI)` (paper §2.1).
///
/// Shared states are `0..num_shared`, stack symbols `0..alphabet_size`.
/// The initial shared state lives in the owning [`Cpds`](crate::Cpds);
/// a standalone `Pds` carries only `Q`, `Σ` and `Δ`, which is all the
/// reachability machinery needs (cf. Lemma 16: "the initial shared
/// state is irrelevant here").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pds {
    num_shared: u32,
    alphabet_size: u32,
    actions: Vec<Action>,
    /// Indices into `actions`, keyed by the left-hand side `(q, w)`.
    index: HashMap<(SharedState, Option<StackSym>), Vec<usize>>,
    /// Optional display names for stack symbols.
    sym_names: HashMap<StackSym, String>,
    /// Optional display names for actions (e.g. "f1", "b3" in Fig. 1).
    action_names: Vec<Option<String>>,
}

impl Pds {
    /// Number of shared states `|Q|`.
    pub fn num_shared(&self) -> u32 {
        self.num_shared
    }

    /// Size of the stack alphabet `|Σ|`.
    ///
    /// Symbols are the dense range `0..alphabet_size`; a thread need
    /// not use every id (Fig. 1 numbers the two threads' alphabets
    /// disjointly: `Σ1 = {1,2}`, `Σ2 = {4,5,6}`).
    pub fn alphabet_size(&self) -> u32 {
        self.alphabet_size
    }

    /// All actions `Δ`, in insertion order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Actions enabled on the left-hand side `(q, top)`.
    pub fn actions_from(&self, q: SharedState, top: Option<StackSym>) -> &[usize] {
        self.index
            .get(&(q, top))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The display name of an action, if one was set.
    pub fn action_name(&self, idx: usize) -> Option<&str> {
        self.action_names.get(idx).and_then(|n| n.as_deref())
    }

    /// The display name of a stack symbol, if one was set.
    pub fn sym_name(&self, sym: StackSym) -> Option<&str> {
        self.sym_names.get(&sym).map(|s| s.as_str())
    }

    /// The set of *distinct* stack symbols actually mentioned by `Δ`
    /// (left-hand sides, right-hand sides), sorted.
    pub fn used_symbols(&self) -> Vec<StackSym> {
        let mut syms: Vec<StackSym> = Vec::new();
        for a in &self.actions {
            if let Some(s) = a.top {
                syms.push(s);
            }
            match a.rhs {
                Rhs::Empty => {}
                Rhs::One(s) => syms.push(s),
                Rhs::Two { top, below } => {
                    syms.push(top);
                    syms.push(below);
                }
            }
        }
        syms.sort_unstable();
        syms.dedup();
        syms
    }

    /// All successor configurations of `⟨q|w⟩` under single actions of
    /// this PDS (paper §2.1 semantics).
    pub fn successors(&self, config: &PdsConfig) -> Vec<PdsConfig> {
        let mut out = Vec::new();
        self.successors_into(config, &mut |c, _| out.push(c));
        out
    }

    /// Like [`successors`](Pds::successors) but invokes `f` with each
    /// successor and the index of the action that produced it, avoiding
    /// intermediate allocation on hot paths.
    pub fn successors_into(&self, config: &PdsConfig, f: &mut dyn FnMut(PdsConfig, usize)) {
        let top = config.stack.top();
        for &idx in self.actions_from(config.q, top) {
            let action = &self.actions[idx];
            let mut stack = config.stack.clone();
            action.apply_to(&mut stack);
            f(PdsConfig::new(action.q_post, stack), idx);
        }
    }

    /// Shared states `q` that are the target of a pop edge, i.e. `q`
    /// with some `(·,·) → (q,ε) ∈ Δ`. Used by Eq. 2 (generator sets).
    pub fn pop_targets(&self) -> Vec<SharedState> {
        let mut v: Vec<SharedState> = self
            .actions
            .iter()
            .filter(|a| a.is_pop())
            .map(|a| a.q_post)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The *emerging symbols* `E`: every `ρ1` written directly under a
    /// pushed symbol (Alg. 2, lines 2–3). After a pop, the symbol that
    /// surfaces is either `ε` or one of these.
    pub fn emerging_symbols(&self) -> Vec<StackSym> {
        let mut v: Vec<StackSym> = self
            .actions
            .iter()
            .filter_map(|a| a.push_symbols().map(|(_, below)| below))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Builder for [`Pds`]; validates every action against `Q` and `Σ`.
#[derive(Debug, Clone)]
pub struct PdsBuilder {
    num_shared: u32,
    alphabet_size: u32,
    actions: Vec<Action>,
    action_names: Vec<Option<String>>,
    sym_names: HashMap<StackSym, String>,
}

impl PdsBuilder {
    /// Starts a PDS with `num_shared` shared states and stack symbols
    /// `0..alphabet_size`.
    pub fn new(num_shared: u32, alphabet_size: u32) -> Self {
        PdsBuilder {
            num_shared,
            alphabet_size,
            actions: Vec::new(),
            action_names: Vec::new(),
            sym_names: HashMap::new(),
        }
    }

    fn check_q(&self, q: SharedState) -> Result<(), PdsError> {
        if q.0 >= self.num_shared {
            return Err(PdsError::SharedStateOutOfRange {
                state: q,
                num_shared: self.num_shared,
            });
        }
        Ok(())
    }

    fn check_sym(&self, s: StackSym) -> Result<(), PdsError> {
        if s.0 >= self.alphabet_size {
            return Err(PdsError::SymbolOutOfRange {
                sym: s,
                alphabet_size: self.alphabet_size,
            });
        }
        Ok(())
    }

    /// Adds a validated action.
    pub fn action(&mut self, a: Action) -> Result<&mut Self, PdsError> {
        self.check_q(a.q)?;
        self.check_q(a.q_post)?;
        if let Some(s) = a.top {
            self.check_sym(s)?;
        }
        match a.rhs {
            Rhs::Empty => {}
            Rhs::One(s) => self.check_sym(s)?,
            Rhs::Two { top, below } => {
                if a.top.is_none() {
                    return Err(PdsError::PushFromEmptyStack);
                }
                self.check_sym(top)?;
                self.check_sym(below)?;
            }
        }
        self.actions.push(a);
        self.action_names.push(None);
        Ok(self)
    }

    /// Adds a named action (names show up in witness paths, e.g. "f1").
    pub fn named_action(&mut self, name: &str, a: Action) -> Result<&mut Self, PdsError> {
        self.action(a)?;
        *self.action_names.last_mut().expect("just pushed") = Some(name.to_owned());
        Ok(self)
    }

    /// Adds the pop action `(q,σ) → (q',ε)`.
    pub fn pop(
        &mut self,
        q: SharedState,
        sym: StackSym,
        q2: SharedState,
    ) -> Result<&mut Self, PdsError> {
        self.action(Action::pop(q, sym, q2))
    }

    /// Adds the overwrite action `(q,σ) → (q',σ')`.
    pub fn overwrite(
        &mut self,
        q: SharedState,
        sym: StackSym,
        q2: SharedState,
        sym2: StackSym,
    ) -> Result<&mut Self, PdsError> {
        self.action(Action::overwrite(q, sym, q2, sym2))
    }

    /// Adds the push action `(q,σ) → (q',ρ0ρ1)`.
    pub fn push(
        &mut self,
        q: SharedState,
        sym: StackSym,
        q2: SharedState,
        rho0: StackSym,
        rho1: StackSym,
    ) -> Result<&mut Self, PdsError> {
        self.action(Action::push(q, sym, q2, rho0, rho1))
    }

    /// Adds the empty-stack action `(q,ε) → (q',w')`, `w' ∈ Σ≤1`.
    pub fn from_empty(
        &mut self,
        q: SharedState,
        q2: SharedState,
        sym2: Option<StackSym>,
    ) -> Result<&mut Self, PdsError> {
        self.action(Action::from_empty(q, q2, sym2))
    }

    /// Registers a display name for a stack symbol.
    pub fn name_symbol(&mut self, sym: StackSym, name: &str) -> &mut Self {
        self.sym_names.insert(sym, name.to_owned());
        self
    }

    /// Finishes construction.
    ///
    /// # Errors
    ///
    /// Currently infallible after per-action validation, but returns
    /// `Result` so cross-action validation can be added compatibly.
    pub fn build(&self) -> Result<Pds, PdsError> {
        let mut index: HashMap<(SharedState, Option<StackSym>), Vec<usize>> = HashMap::new();
        for (i, a) in self.actions.iter().enumerate() {
            index.entry((a.q, a.top)).or_default().push(i);
        }
        Ok(Pds {
            num_shared: self.num_shared,
            alphabet_size: self.alphabet_size,
            actions: self.actions.clone(),
            index,
            sym_names: self.sym_names.clone(),
            action_names: self.action_names.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stack;

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    fn fig1_thread2() -> Pds {
        // ∆2 of Fig. 1: b1 (0,4)->(0,ε), b2 (1,4)->(2,5), b3 (2,5)->(3,46)
        let mut b = PdsBuilder::new(4, 7);
        b.named_action("b1", Action::pop(q(0), s(4), q(0))).unwrap();
        b.named_action("b2", Action::overwrite(q(1), s(4), q(2), s(5)))
            .unwrap();
        b.named_action("b3", Action::push(q(2), s(5), q(3), s(4), s(6)))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn successors_pop() {
        let p = fig1_thread2();
        let c = PdsConfig::new(q(0), Stack::from_top_down([s(4), s(6)]));
        let succ = p.successors(&c);
        assert_eq!(
            succ,
            vec![PdsConfig::new(q(0), Stack::from_top_down([s(6)]))]
        );
    }

    #[test]
    fn successors_overwrite() {
        let p = fig1_thread2();
        let c = PdsConfig::new(q(1), Stack::from_top_down([s(4)]));
        let succ = p.successors(&c);
        assert_eq!(
            succ,
            vec![PdsConfig::new(q(2), Stack::from_top_down([s(5)]))]
        );
    }

    #[test]
    fn successors_push_overwrites_below() {
        let p = fig1_thread2();
        let c = PdsConfig::new(q(2), Stack::from_top_down([s(5), s(6)]));
        let succ = p.successors(&c);
        // (2,5) -> (3,46): top 5 replaced by 6, then 4 pushed: stack 466
        assert_eq!(
            succ,
            vec![PdsConfig::new(
                q(3),
                Stack::from_top_down([s(4), s(6), s(6)])
            )]
        );
    }

    #[test]
    fn no_action_enabled_means_no_successors() {
        let p = fig1_thread2();
        let c = PdsConfig::new(q(3), Stack::from_top_down([s(4)]));
        assert!(p.successors(&c).is_empty());
        // empty stack, no empty-stack actions in ∆2:
        let c = PdsConfig::new(q(0), Stack::new());
        assert!(p.successors(&c).is_empty());
    }

    #[test]
    fn empty_stack_actions() {
        let mut b = PdsBuilder::new(2, 2);
        b.from_empty(q(0), q(1), None).unwrap();
        b.from_empty(q(0), q(0), Some(s(1))).unwrap();
        let p = b.build().unwrap();
        let c = PdsConfig::new(q(0), Stack::new());
        let succ = p.successors(&c);
        assert_eq!(succ.len(), 2);
        assert!(succ.contains(&PdsConfig::new(q(1), Stack::new())));
        assert!(succ.contains(&PdsConfig::new(q(0), Stack::from_top_down([s(1)]))));
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = PdsBuilder::new(2, 2);
        assert_eq!(
            b.pop(q(2), s(0), q(0)).unwrap_err(),
            PdsError::SharedStateOutOfRange {
                state: q(2),
                num_shared: 2
            }
        );
        assert_eq!(
            b.overwrite(q(0), s(2), q(0), s(0)).unwrap_err(),
            PdsError::SymbolOutOfRange {
                sym: s(2),
                alphabet_size: 2
            }
        );
        assert_eq!(
            b.action(Action {
                q: q(0),
                top: None,
                q_post: q(0),
                rhs: Rhs::Two {
                    top: s(0),
                    below: s(1)
                },
            })
            .unwrap_err(),
            PdsError::PushFromEmptyStack
        );
    }

    #[test]
    fn pop_targets_and_emerging_symbols() {
        let p = fig1_thread2();
        assert_eq!(p.pop_targets(), vec![q(0)]);
        assert_eq!(p.emerging_symbols(), vec![s(6)]);
    }

    #[test]
    fn used_symbols_sorted_dedup() {
        let p = fig1_thread2();
        assert_eq!(p.used_symbols(), vec![s(4), s(5), s(6)]);
    }

    #[test]
    fn action_names_retained() {
        let p = fig1_thread2();
        assert_eq!(p.action_name(0), Some("b1"));
        assert_eq!(p.action_name(2), Some("b3"));
    }

    #[test]
    fn successors_into_reports_action_indices() {
        let p = fig1_thread2();
        let c = PdsConfig::new(q(2), Stack::from_top_down([s(5)]));
        let mut seen = Vec::new();
        p.successors_into(&c, &mut |cfg, idx| seen.push((cfg, idx)));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1, 2);
    }
}
