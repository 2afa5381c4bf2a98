use crate::{SharedState, Stack, StackSym};

/// A state `⟨q|w⟩` of a sequential [`Pds`](crate::Pds).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PdsConfig {
    /// The shared state `q`.
    pub q: SharedState,
    /// The stack contents `w`.
    pub stack: Stack,
}

impl PdsConfig {
    /// Creates the state `⟨q|w⟩`.
    pub fn new(q: SharedState, stack: Stack) -> Self {
        PdsConfig { q, stack }
    }

    /// The thread-visible projection `T(q, w) = (q, T(w))`.
    pub fn visible(&self) -> ThreadVisible {
        ThreadVisible {
            q: self.q,
            top: self.stack.top(),
        }
    }
}

impl std::fmt::Display for PdsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{}|{}>", self.q, self.stack)
    }
}

/// A thread-visible state `(q, T(w))`: the shared state plus the top
/// symbol of one thread's stack (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadVisible {
    /// The shared state.
    pub q: SharedState,
    /// The visible top of the stack (`None` encodes `ε`).
    pub top: Option<StackSym>,
}

impl std::fmt::Display for ThreadVisible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.top {
            Some(s) => write!(f, "({},{})", self.q, s),
            None => write!(f, "({},eps)", self.q),
        }
    }
}

/// A global state `⟨q|w1,…,wn⟩` of a [`Cpds`](crate::Cpds).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalState {
    /// The shared state `q`.
    pub q: SharedState,
    /// Stack contents per thread.
    pub stacks: Vec<Stack>,
}

impl GlobalState {
    /// Creates the state `⟨q|w1,…,wn⟩`.
    pub fn new(q: SharedState, stacks: Vec<Stack>) -> Self {
        GlobalState { q, stacks }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.stacks.len()
    }

    /// Thread `i`'s state `(q, wi)` as a [`PdsConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn thread_config(&self, i: usize) -> PdsConfig {
        PdsConfig {
            q: self.q,
            stack: self.stacks[i].clone(),
        }
    }

    /// The visible-state projection `T(s) = ⟨q|T(w1),…,T(wn)⟩` (Eq. 1).
    pub fn visible(&self) -> VisibleState {
        VisibleState {
            q: self.q,
            tops: self.stacks.iter().map(|w| w.top()).collect(),
        }
    }

    /// Total number of stack symbols across all threads (a size measure
    /// used by exploration budgets and statistics).
    pub fn total_stack_len(&self) -> usize {
        self.stacks.iter().map(|s| s.len()).sum()
    }

    /// The maximum single-thread stack depth.
    pub fn max_stack_len(&self) -> usize {
        self.stacks.iter().map(|s| s.len()).max().unwrap_or(0)
    }
}

impl std::fmt::Display for GlobalState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{}|", self.q)?;
        for (i, st) in self.stacks.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{st}")?;
        }
        write!(f, ">")
    }
}

/// A visible state `⟨q|σ1,…,σn⟩ = T(s)`: the shared state plus each
/// thread's top-of-stack (or `ε`). The domain of visible states is
/// finite, which makes the observation sequence `(T(Rk))` convergent
/// (paper §4.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VisibleState {
    /// The shared state.
    pub q: SharedState,
    /// Top of each thread's stack (`None` encodes `ε`).
    pub tops: Vec<Option<StackSym>>,
}

impl VisibleState {
    /// Creates the visible state `⟨q|σ1,…,σn⟩`.
    pub fn new(q: SharedState, tops: Vec<Option<StackSym>>) -> Self {
        VisibleState { q, tops }
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.tops.len()
    }

    /// Thread `i`'s visible state `(q, σi)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn thread_visible(&self, i: usize) -> ThreadVisible {
        ThreadVisible {
            q: self.q,
            top: self.tops[i],
        }
    }

    /// The visible key `(q, [top code; n])` of this state, tops coded
    /// by [`top_code`]. Keys compare like the states they code.
    pub fn key(&self) -> Vec<u32> {
        std::iter::once(self.q.0)
            .chain(self.tops.iter().map(|&top| top_code(top)))
            .collect()
    }

    /// The visible state of a visible key `(q, [top code; n])`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty.
    pub fn from_key(key: &[u32]) -> Self {
        VisibleState {
            q: SharedState(key[0]),
            tops: key[1..].iter().map(|&code| code_top(code)).collect(),
        }
    }
}

/// The code of a visible top in a visible key: `ε` ↦ 0, `σ` ↦ `σ + 1`,
/// so codes order like tops, `ε` first. Alphabet sizes are `u32`, so
/// every symbol is below `u32::MAX` and its code does not overflow.
pub fn top_code(top: Option<StackSym>) -> u32 {
    top.map_or(0, |s| s.0 + 1)
}

/// The visible top coded by a [`top_code`].
pub fn code_top(code: u32) -> Option<StackSym> {
    code.checked_sub(1).map(StackSym)
}

/// Sorts the top codes of the visible key `key` (see
/// [`VisibleState::key`]) ascending within each class of
/// interchangeable threads, in place, allocating nothing: the
/// canonical key of the orbit that permuting those threads makes of
/// `key`, which is what a layer record keeps. `classes` lists thread
/// indices, as [`Cpds::thread_classes`](crate::Cpds::thread_classes)
/// does; with none, every key is canonical.
pub fn canonicalize_visible_key(classes: &[Vec<usize>], key: &mut [u32]) {
    for class in classes {
        for r in 1..class.len() {
            let code = key[class[r] + 1];
            let mut p = r;
            while p > 0 && key[class[p - 1] + 1] > code {
                key[class[p] + 1] = key[class[p - 1] + 1];
                p -= 1;
            }
            key[class[p] + 1] = code;
        }
    }
}

impl std::fmt::Display for VisibleState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{}|", self.q)?;
        for (i, top) in self.tops.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match top {
                Some(s) => write!(f, "{s}")?,
                None => write!(f, "eps")?,
            }
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    #[test]
    fn visible_projection_takes_tops() {
        let g = GlobalState::new(
            q(3),
            vec![
                Stack::from_top_down([s(2)]),
                Stack::from_top_down([s(4), s(6), s(6)]),
            ],
        );
        let v = g.visible();
        assert_eq!(v, VisibleState::new(q(3), vec![Some(s(2)), Some(s(4))]));
        assert_eq!(v.to_string(), "<3|2,4>");
    }

    #[test]
    fn visible_projection_maps_empty_to_eps() {
        let g = GlobalState::new(q(1), vec![Stack::from_top_down([s(2)]), Stack::new()]);
        assert_eq!(g.visible().to_string(), "<1|2,eps>");
    }

    #[test]
    fn display_matches_paper() {
        let g = GlobalState::new(
            q(0),
            vec![
                Stack::from_top_down([s(1)]),
                Stack::from_top_down([s(4), s(6), s(6)]),
            ],
        );
        assert_eq!(g.to_string(), "<0|1,466>");
        assert_eq!(g.thread_config(1).to_string(), "<0|466>");
    }

    /// `ε` and symbol 0 get distinct codes, and keys order like states.
    #[test]
    fn visible_keys_round_trip_and_keep_the_order() {
        let states = [
            VisibleState::new(q(0), vec![None, Some(s(0))]),
            VisibleState::new(q(0), vec![Some(s(0)), None]),
            VisibleState::new(q(0), vec![Some(s(0)), Some(s(0))]),
            VisibleState::new(q(1), vec![None, None]),
        ];
        assert_eq!(states[0].key(), vec![0, 0, 1]);
        assert_eq!(top_code(Some(s(u32::MAX - 1))), u32::MAX);
        for a in &states {
            assert_eq!(&VisibleState::from_key(&a.key()), a);
            for b in &states {
                assert_eq!(a.key().cmp(&b.key()), a.cmp(b));
            }
        }
    }

    /// Each class is sorted on its own key positions, the other
    /// threads and `q` stay put.
    #[test]
    fn canonical_visible_keys_sort_within_classes() {
        let classes = [vec![0, 2, 3], vec![1, 4]];
        let mut key = [9, 5, 4, 0, 3, 1];
        canonicalize_visible_key(&classes, &mut key);
        assert_eq!(key, [9, 0, 1, 3, 5, 4]);
        let mut plain = [9, 5, 4];
        canonicalize_visible_key(&[], &mut plain);
        assert_eq!(plain, [9, 5, 4]);
    }

    #[test]
    fn thread_visible_display() {
        let v = VisibleState::new(q(2), vec![None, Some(s(5))]);
        assert_eq!(v.thread_visible(0).to_string(), "(2,eps)");
        assert_eq!(v.thread_visible(1).to_string(), "(2,5)");
        assert_eq!(v.num_threads(), 2);
    }

    #[test]
    fn size_measures() {
        let g = GlobalState::new(
            q(0),
            vec![Stack::new(), Stack::from_top_down([s(1), s(2), s(3)])],
        );
        assert_eq!(g.total_stack_len(), 3);
        assert_eq!(g.max_stack_len(), 3);
        assert_eq!(g.num_threads(), 2);
    }
}
