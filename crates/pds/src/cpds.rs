use std::sync::Arc;

use crate::{
    GlobalState, Pds, PdsConfig, PdsError, SharedState, Stack, StackSym, ThreadId, VisibleState,
};

/// A concurrent pushdown system `Pn = (P1,…,Pn)` (paper §2.2): a fixed
/// number of sequential [`Pds`] sharing the state set `Q` and initial
/// shared state `qI`, each with its own stack alphabet and program.
///
/// A step nondeterministically picks a thread and fires one of its
/// enabled actions on the shared state and that thread's stack; all
/// other stacks are untouched.
///
/// A model is immutable once built, so its programs, initial stacks
/// and names sit behind `Arc`s: every clone (a cache entry, a broker
/// registry entry, an explorer) shares one copy.
#[derive(Debug, Clone)]
pub struct Cpds {
    num_shared: u32,
    q_init: SharedState,
    threads: Arc<[Pds]>,
    initial_stacks: Arc<[Stack]>,
    shared_names: Arc<[Option<String>]>,
}

impl Cpds {
    /// Number of shared states `|Q|`.
    pub fn num_shared(&self) -> u32 {
        self.num_shared
    }

    /// The initial shared state `qI`.
    pub fn q_init(&self) -> SharedState {
        self.q_init
    }

    /// Number of threads `n`.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The sequential PDS of thread `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn thread(&self, i: usize) -> &Pds {
        &self.threads[i]
    }

    /// All thread PDSs.
    pub fn threads(&self) -> &[Pds] {
        &self.threads
    }

    /// The initial stack contents of thread `i` (paper examples mostly
    /// start each stack with the name of the thread's entry function).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn initial_stack(&self, i: usize) -> &Stack {
        &self.initial_stacks[i]
    }

    /// The symbols a pop of thread `i` can reveal, sorted: those its
    /// pushes write below the pushed symbol ([`Pds::emerging_symbols`])
    /// and those below the top of its initial stack. Nothing else puts
    /// a symbol below the top. `Z` (Alg. 2) and `G` (Eq. 2) read this.
    pub fn emerging_symbols(&self, i: usize) -> Vec<StackSym> {
        let mut v = self.threads[i].emerging_symbols();
        v.extend(self.initial_stacks[i].iter_top_down().skip(1));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The initial global state `⟨qI|w1^0,…,wn^0⟩`.
    pub fn initial_state(&self) -> GlobalState {
        GlobalState::new(self.q_init, self.initial_stacks.to_vec())
    }

    /// The classes of interchangeable threads: threads with equal
    /// programs (display names included) and equal initial stacks, as
    /// the copies of a thread template have. Swapping the stacks of two
    /// such threads maps runs to runs. Only classes of two or more
    /// threads are listed; members ascend, and classes are ordered by
    /// their first member.
    pub fn thread_classes(&self) -> Vec<Vec<usize>> {
        let n = self.num_threads();
        let mut placed = vec![false; n];
        let mut classes = Vec::new();
        for i in 0..n {
            if placed[i] {
                continue;
            }
            let class: Vec<usize> = (i..n)
                .filter(|&j| {
                    !placed[j]
                        && self.threads[j] == self.threads[i]
                        && self.initial_stacks[j] == self.initial_stacks[i]
                })
                .collect();
            for &j in &class {
                placed[j] = true;
            }
            if class.len() >= 2 {
                classes.push(class);
            }
        }
        classes
    }

    /// The display name of a shared state, if registered.
    pub fn shared_name(&self, q: SharedState) -> Option<&str> {
        self.shared_names
            .get(q.0 as usize)
            .and_then(|n| n.as_deref())
    }

    /// All one-step successors of `state` triggered by thread `i`
    /// (other threads' stacks are untouched).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn successors_of_thread(&self, state: &GlobalState, i: usize) -> Vec<GlobalState> {
        let mut out = Vec::new();
        self.successors_of_thread_into(state, i, &mut |s, _| out.push(s));
        out
    }

    /// Like [`successors_of_thread`](Cpds::successors_of_thread), but
    /// passes each successor plus the index of the `Δi` action that
    /// produced it to `f` (used for witness-path reconstruction).
    pub fn successors_of_thread_into(
        &self,
        state: &GlobalState,
        i: usize,
        f: &mut dyn FnMut(GlobalState, usize),
    ) {
        let pds = &self.threads[i];
        let config = PdsConfig::new(state.q, state.stacks[i].clone());
        pds.successors_into(&config, &mut |succ, idx| {
            let mut stacks = state.stacks.clone();
            stacks[i] = succ.stack;
            f(GlobalState::new(succ.q, stacks), idx);
        });
    }

    /// All one-step successors of `state` under any thread, each tagged
    /// with the triggering [`ThreadId`].
    pub fn successors(&self, state: &GlobalState) -> Vec<(ThreadId, GlobalState)> {
        let mut out = Vec::new();
        for i in 0..self.num_threads() {
            self.successors_of_thread_into(state, i, &mut |s, _| out.push((ThreadId(i), s)));
        }
        out
    }

    /// Enumerates the *entire* finite domain of visible states
    /// `Q × Σ≤1_1 × … × Σ≤1_n` (symbols restricted to those actually
    /// used by each thread, plus `ε`). The size of this set bounds the
    /// length of any strict growth of `(T(Rk))` (Prop. 3).
    pub fn all_visible_states(&self) -> Vec<VisibleState> {
        let mut per_thread: Vec<Vec<Option<StackSym>>> = Vec::with_capacity(self.num_threads());
        for t in self.threads.iter() {
            let mut tops: Vec<Option<StackSym>> = vec![None];
            tops.extend(t.used_symbols().into_iter().map(Some));
            per_thread.push(tops);
        }
        let mut out = Vec::new();
        for q in 0..self.num_shared {
            let mut tuple: Vec<Option<StackSym>> = vec![None; self.num_threads()];
            enumerate_tuples(&per_thread, 0, &mut tuple, &mut |tops| {
                out.push(VisibleState::new(SharedState(q), tops.to_vec()));
            });
        }
        out
    }
}

fn enumerate_tuples(
    domains: &[Vec<Option<StackSym>>],
    i: usize,
    tuple: &mut Vec<Option<StackSym>>,
    f: &mut dyn FnMut(&[Option<StackSym>]),
) {
    if i == domains.len() {
        f(tuple);
        return;
    }
    for &choice in &domains[i] {
        tuple[i] = choice;
        enumerate_tuples(domains, i + 1, tuple, f);
    }
}

/// Builder for [`Cpds`].
#[derive(Debug, Clone)]
pub struct CpdsBuilder {
    num_shared: u32,
    q_init: SharedState,
    threads: Vec<Pds>,
    initial_stacks: Vec<Stack>,
    shared_names: Vec<Option<String>>,
}

impl CpdsBuilder {
    /// Starts a CPDS with `num_shared` shared states and initial shared
    /// state `q_init`.
    pub fn new(num_shared: u32, q_init: SharedState) -> Self {
        CpdsBuilder {
            num_shared,
            q_init,
            threads: Vec::new(),
            initial_stacks: Vec::new(),
            shared_names: vec![None; num_shared as usize],
        }
    }

    /// Adds a thread with the given initial stack (listed top-first).
    pub fn thread<I: IntoIterator<Item = StackSym>>(mut self, pds: Pds, initial_stack: I) -> Self {
        self.threads.push(pds);
        self.initial_stacks
            .push(Stack::from_top_down(initial_stack));
        self
    }

    /// Adds `count` identical threads (thread templates, as in the
    /// paper's `n + m` thread configurations of Table 2).
    pub fn threads<I: IntoIterator<Item = StackSym> + Clone>(
        mut self,
        pds: &Pds,
        initial_stack: I,
        count: usize,
    ) -> Self {
        for _ in 0..count {
            self = self.thread(pds.clone(), initial_stack.clone());
        }
        self
    }

    /// Registers a display name for a shared state.
    pub fn name_shared(mut self, q: SharedState, name: &str) -> Self {
        if let Some(slot) = self.shared_names.get_mut(q.0 as usize) {
            *slot = Some(name.to_owned());
        }
        self
    }

    /// Finishes construction.
    ///
    /// # Errors
    ///
    /// Returns an error if there are no threads, if any thread
    /// disagrees on `|Q|`, if `q_init` is out of range, or if an
    /// initial stack uses an out-of-range symbol.
    pub fn build(self) -> Result<Cpds, PdsError> {
        if self.threads.is_empty() {
            return Err(PdsError::NoThreads);
        }
        if self.q_init.0 >= self.num_shared {
            return Err(PdsError::SharedStateOutOfRange {
                state: self.q_init,
                num_shared: self.num_shared,
            });
        }
        for (i, t) in self.threads.iter().enumerate() {
            if t.num_shared() != self.num_shared {
                return Err(PdsError::MismatchedSharedCount {
                    expected: self.num_shared,
                    found: t.num_shared(),
                    thread: i,
                });
            }
            for sym in self.initial_stacks[i].iter_top_down() {
                if sym.0 >= t.alphabet_size() {
                    return Err(PdsError::InitialStackSymbolOutOfRange { thread: i, sym });
                }
            }
        }
        Ok(Cpds {
            num_shared: self.num_shared,
            q_init: self.q_init,
            threads: self.threads.into(),
            initial_stacks: self.initial_stacks.into(),
            shared_names: self.shared_names.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PdsBuilder;

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    /// The CPDS of Fig. 1.
    fn fig1() -> Cpds {
        let mut p1 = PdsBuilder::new(4, 3);
        p1.overwrite(q(0), s(1), q(1), s(2)).unwrap(); // f1
        p1.overwrite(q(3), s(2), q(0), s(1)).unwrap(); // f2
        let mut p2 = PdsBuilder::new(4, 7);
        p2.pop(q(0), s(4), q(0)).unwrap(); // b1
        p2.overwrite(q(1), s(4), q(2), s(5)).unwrap(); // b2
        p2.push(q(2), s(5), q(3), s(4), s(6)).unwrap(); // b3
        CpdsBuilder::new(4, q(0))
            .thread(p1.build().unwrap(), [s(1)])
            .thread(p2.build().unwrap(), [s(4)])
            .build()
            .unwrap()
    }

    #[test]
    fn initial_state_is_fig1s() {
        let c = fig1();
        assert_eq!(c.initial_state().to_string(), "<0|1,4>");
        assert_eq!(c.q_init(), q(0));
        assert_eq!(c.num_threads(), 2);
    }

    #[test]
    fn step_only_touches_one_stack() {
        let c = fig1();
        let init = c.initial_state();
        let succ1 = c.successors_of_thread(&init, 0);
        assert_eq!(succ1.len(), 1);
        assert_eq!(succ1[0].to_string(), "<1|2,4>"); // f1
        let succ2 = c.successors_of_thread(&init, 1);
        assert_eq!(succ2.len(), 1);
        assert_eq!(succ2[0].to_string(), "<0|1,eps>"); // b1
    }

    #[test]
    fn successors_tag_threads() {
        let c = fig1();
        let all = c.successors(&c.initial_state());
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, ThreadId(0));
        assert_eq!(all[1].0, ThreadId(1));
    }

    #[test]
    fn fig1_three_step_path() {
        // <0|1,4> -f1-> <1|2,4> -b2-> <2|2,5> -b3-> <3|2,46>
        let c = fig1();
        let s1 = c.successors_of_thread(&c.initial_state(), 0).remove(0);
        let s2 = c.successors_of_thread(&s1, 1).remove(0);
        let s3 = c.successors_of_thread(&s2, 1).remove(0);
        assert_eq!(s3.to_string(), "<3|2,46>");
        assert_eq!(s3.visible().to_string(), "<3|2,4>");
    }

    #[test]
    fn build_validation() {
        let p_ok = PdsBuilder::new(4, 2).build().unwrap();
        let p_bad = PdsBuilder::new(3, 2).build().unwrap();
        assert_eq!(
            CpdsBuilder::new(4, q(0)).build().unwrap_err(),
            PdsError::NoThreads
        );
        assert_eq!(
            CpdsBuilder::new(4, q(9))
                .thread(p_ok.clone(), [])
                .build()
                .unwrap_err(),
            PdsError::SharedStateOutOfRange {
                state: q(9),
                num_shared: 4
            }
        );
        assert_eq!(
            CpdsBuilder::new(4, q(0))
                .thread(p_ok.clone(), [])
                .thread(p_bad, [])
                .build()
                .unwrap_err(),
            PdsError::MismatchedSharedCount {
                expected: 4,
                found: 3,
                thread: 1
            }
        );
        assert_eq!(
            CpdsBuilder::new(4, q(0))
                .thread(p_ok, [s(5)])
                .build()
                .unwrap_err(),
            PdsError::InitialStackSymbolOutOfRange {
                thread: 0,
                sym: s(5)
            }
        );
    }

    /// A pop can reveal a push-written symbol or one the thread
    /// started with below its top; the top itself is not revealable.
    #[test]
    fn emerging_symbols_include_the_initial_stack_below_the_top() {
        let c = fig1();
        assert_eq!(c.emerging_symbols(0), vec![]);
        assert_eq!(c.emerging_symbols(1), vec![s(6)]);
        let mut p = PdsBuilder::new(2, 4);
        p.push(q(1), s(1), q(0), s(1), s(0)).unwrap();
        let deep = CpdsBuilder::new(2, q(0))
            .thread(p.build().unwrap(), [s(3), s(2), s(0)])
            .build()
            .unwrap();
        assert_eq!(deep.emerging_symbols(0), vec![s(0), s(2)]);
    }

    /// Clones share the model instead of copying it.
    #[test]
    fn clones_share_one_model() {
        let c = fig1();
        let d = c.clone();
        assert!(Arc::ptr_eq(&c.threads, &d.threads));
        assert!(Arc::ptr_eq(&c.initial_stacks, &d.initial_stacks));
        assert!(Arc::ptr_eq(&c.shared_names, &d.shared_names));
    }

    #[test]
    fn thread_templates_clone() {
        let p = PdsBuilder::new(2, 1).build().unwrap();
        let c = CpdsBuilder::new(2, q(0))
            .threads(&p, [s(0)], 3)
            .build()
            .unwrap();
        assert_eq!(c.num_threads(), 3);
        assert_eq!(c.initial_stack(2).top(), Some(s(0)));
    }

    #[test]
    fn thread_classes_group_equal_programs_and_stacks() {
        let mut a = PdsBuilder::new(2, 2);
        a.overwrite(q(0), s(0), q(1), s(1)).unwrap();
        let a = a.build().unwrap();
        let b = PdsBuilder::new(2, 2).build().unwrap();
        let c = CpdsBuilder::new(2, q(0))
            .thread(a.clone(), [s(0)])
            .thread(b.clone(), [s(0)])
            .thread(a.clone(), [s(0)])
            .thread(a.clone(), [s(1)])
            .thread(b, [s(0)])
            .thread(a, [s(0)])
            .build()
            .unwrap();
        assert_eq!(c.thread_classes(), vec![vec![0, 2, 5], vec![1, 4]]);
        assert!(fig1().thread_classes().is_empty());
    }

    #[test]
    fn all_visible_states_enumerates_finite_domain() {
        let c = fig1();
        let all = c.all_visible_states();
        // |Q| = 4, thread 1 uses {1,2} (+eps), thread 2 uses {4,5,6} (+eps)
        assert_eq!(all.len(), 4 * 3 * 4);
        // all distinct:
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn shared_names() {
        let p = PdsBuilder::new(3, 1).build().unwrap();
        let c = CpdsBuilder::new(3, q(0))
            .name_shared(q(2), "bot")
            .thread(p, [])
            .build()
            .unwrap();
        assert_eq!(c.shared_name(q(2)), Some("bot"));
        assert_eq!(c.shared_name(q(0)), None);
    }
}
