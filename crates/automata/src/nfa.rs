use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Index of an automaton state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A transition label: either the empty word `ε` or an input symbol.
///
/// Symbols are raw `u32` ids; the PSA layer interprets them as
/// [`StackSym`](cuba_pds::StackSym) ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// The empty word (silent transition).
    Eps,
    /// An input symbol.
    Sym(u32),
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Label::Eps => write!(f, "eps"),
            Label::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// A nondeterministic finite automaton with ε-transitions.
///
/// States are dense ids `0..num_states`. The automaton keeps a set of
/// initial states (pushdown store automata use one initial state per
/// control state) and a set of accepting states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nfa {
    delta: Vec<BTreeMap<Label, BTreeSet<u32>>>,
    initial: BTreeSet<u32>,
    finals: BTreeSet<u32>,
}

impl Default for Nfa {
    fn default() -> Self {
        Self::new()
    }
}

impl Nfa {
    /// An automaton with no states (empty language).
    pub fn new() -> Self {
        Nfa {
            delta: Vec::new(),
            initial: BTreeSet::new(),
            finals: BTreeSet::new(),
        }
    }

    /// An automaton with `n` fresh, unconnected states.
    pub fn with_states(n: u32) -> Self {
        Nfa {
            delta: vec![BTreeMap::new(); n as usize],
            initial: BTreeSet::new(),
            finals: BTreeSet::new(),
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> u32 {
        self.delta.len() as u32
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.delta.push(BTreeMap::new());
        StateId(self.delta.len() as u32 - 1)
    }

    /// Marks `s` initial.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn set_initial(&mut self, s: StateId) {
        assert!(s.0 < self.num_states(), "state out of range");
        self.initial.insert(s.0);
    }

    /// Marks `s` accepting.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn set_final(&mut self, s: StateId) {
        assert!(s.0 < self.num_states(), "state out of range");
        self.finals.insert(s.0);
    }

    /// The initial states.
    pub fn initial_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.initial.iter().map(|&s| StateId(s))
    }

    /// The accepting states.
    pub fn final_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.finals.iter().map(|&s| StateId(s))
    }

    /// Whether `s` is accepting.
    pub fn is_final(&self, s: StateId) -> bool {
        self.finals.contains(&s.0)
    }

    /// Whether `s` is initial.
    pub fn is_initial(&self, s: StateId) -> bool {
        self.initial.contains(&s.0)
    }

    /// Adds the transition `src --label--> dst`; returns `true` if it
    /// was not already present.
    ///
    /// # Panics
    ///
    /// Panics if either state is out of range.
    pub fn add_transition(&mut self, src: StateId, label: Label, dst: StateId) -> bool {
        assert!(src.0 < self.num_states() && dst.0 < self.num_states());
        self.delta[src.0 as usize]
            .entry(label)
            .or_default()
            .insert(dst.0)
    }

    /// Iterates over all transitions `(src, label, dst)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Label, StateId)> + '_ {
        self.delta.iter().enumerate().flat_map(|(src, m)| {
            m.iter().flat_map(move |(&label, dsts)| {
                dsts.iter()
                    .map(move |&dst| (StateId(src as u32), label, StateId(dst)))
            })
        })
    }

    /// Successors of `src` under exactly `label` (no ε-closure).
    pub fn step(&self, src: StateId, label: Label) -> impl Iterator<Item = StateId> + '_ {
        self.delta
            .get(src.0 as usize)
            .and_then(|m| m.get(&label))
            .into_iter()
            .flat_map(|t| t.iter().map(|&s| StateId(s)))
    }

    /// Outgoing transitions of `src`.
    pub fn transitions_from(&self, src: StateId) -> impl Iterator<Item = (Label, StateId)> + '_ {
        self.delta.get(src.0 as usize).into_iter().flat_map(|m| {
            m.iter()
                .flat_map(|(&l, t)| t.iter().map(move |&d| (l, StateId(d))))
        })
    }

    /// The set of symbols (excluding ε) appearing on any transition.
    pub fn alphabet(&self) -> BTreeSet<u32> {
        self.delta
            .iter()
            .flat_map(|m| m.keys())
            .filter_map(|l| match l {
                Label::Sym(s) => Some(*s),
                Label::Eps => None,
            })
            .collect()
    }

    /// The ε-closure of a set of states.
    pub fn eps_closure(&self, states: &BTreeSet<u32>) -> BTreeSet<u32> {
        let mut closure = states.clone();
        let mut queue: VecDeque<u32> = states.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for t in self.step(StateId(s), Label::Eps) {
                if closure.insert(t.0) {
                    queue.push_back(t.0);
                }
            }
        }
        closure
    }

    /// The set of states reached from `start` by reading `word`
    /// (with ε-moves allowed anywhere).
    pub fn run(&self, start: &BTreeSet<u32>, word: &[u32]) -> BTreeSet<u32> {
        let mut current = self.eps_closure(start);
        for &sym in word {
            let mut next = BTreeSet::new();
            for &s in &current {
                for t in self.step(StateId(s), Label::Sym(sym)) {
                    next.insert(t.0);
                }
            }
            current = self.eps_closure(&next);
            if current.is_empty() {
                break;
            }
        }
        current
    }

    /// Whether reading `word` from `start` can reach an accepting state.
    pub fn accepts_from(&self, start: StateId, word: &[u32]) -> bool {
        let mut init = BTreeSet::new();
        init.insert(start.0);
        self.run(&init, word)
            .iter()
            .any(|s| self.finals.contains(s))
    }

    /// Whether reading `word` from the initial states can reach an
    /// accepting state.
    pub fn accepts(&self, word: &[u32]) -> bool {
        !self.initial.is_empty()
            && self
                .run(&self.initial, word)
                .iter()
                .any(|s| self.finals.contains(s))
    }

    /// States reachable (forwards) from the initial states.
    pub fn reachable_states(&self) -> BTreeSet<u32> {
        self.reachable_from(&self.initial)
    }

    /// States reachable (forwards) from `sources`.
    pub fn reachable_from(&self, sources: &BTreeSet<u32>) -> BTreeSet<u32> {
        let mut seen = sources.clone();
        let mut queue: VecDeque<u32> = sources.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for (_, t) in self.transitions_from(StateId(s)) {
                if seen.insert(t.0) {
                    queue.push_back(t.0);
                }
            }
        }
        seen
    }

    /// States from which some accepting state is reachable.
    pub fn coreachable_states(&self) -> BTreeSet<u32> {
        // Reverse adjacency, then BFS from finals.
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); self.num_states() as usize];
        for (src, _, dst) in self.transitions() {
            rev[dst.0 as usize].push(src.0);
        }
        let mut seen: BTreeSet<u32> = self.finals.clone();
        let mut queue: VecDeque<u32> = self.finals.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for &p in &rev[s as usize] {
                if seen.insert(p) {
                    queue.push_back(p);
                }
            }
        }
        seen
    }

    /// Restricts the automaton to *useful* states (reachable from the
    /// initial states and co-reachable to an accepting state), and
    /// returns the trimmed automaton plus the mapping
    /// `old state id -> new state id`.
    pub fn trim(&self) -> (Nfa, BTreeMap<u32, u32>) {
        let useful: BTreeSet<u32> = self
            .reachable_states()
            .intersection(&self.coreachable_states())
            .copied()
            .collect();
        let mut map = BTreeMap::new();
        for (new, &old) in useful.iter().enumerate() {
            map.insert(old, new as u32);
        }
        let mut out = Nfa::with_states(useful.len() as u32);
        for &old in &useful {
            let new = StateId(map[&old]);
            if self.initial.contains(&old) {
                out.set_initial(new);
            }
            if self.finals.contains(&old) {
                out.set_final(new);
            }
            for (label, dst) in self.transitions_from(StateId(old)) {
                if let Some(&nd) = map.get(&dst.0) {
                    out.add_transition(new, label, StateId(nd));
                }
            }
        }
        (out, map)
    }

    /// Whether the language (from the initial states) is empty.
    pub fn is_language_empty(&self) -> bool {
        let reach = self.reachable_states();
        !reach.iter().any(|s| self.finals.contains(s))
    }

    /// Enumerates up to `limit` accepted words in breadth-first
    /// (shortest-first) order. Intended for tests and diagnostics.
    ///
    /// The search budget is proportional to `limit`, so the call
    /// terminates even on infinite languages; on very sparse languages
    /// it may return fewer than `limit` words.
    pub fn sample_words(&self, limit: usize) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        if self.initial.is_empty() || limit == 0 {
            return out;
        }
        let start = self.eps_closure(&self.initial);
        let mut queue: VecDeque<(BTreeSet<u32>, Vec<u32>)> = VecDeque::new();
        queue.push_back((start, Vec::new()));
        let mut budget = limit.saturating_mul(64).saturating_add(1024);
        // Never enumerate beyond this word length; bounds the queue for
        // automata with wide fan-out.
        let max_len = limit + self.num_states() as usize + 2;
        while let Some((set, word)) = queue.pop_front() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            if set.iter().any(|s| self.finals.contains(s)) {
                out.push(word.clone());
                if out.len() >= limit {
                    return out;
                }
            }
            if word.len() >= max_len {
                continue;
            }
            let mut by_sym: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
            for &s in &set {
                for (label, dst) in self.transitions_from(StateId(s)) {
                    if let Label::Sym(sym) = label {
                        by_sym.entry(sym).or_default().insert(dst.0);
                    }
                }
            }
            for (sym, dsts) in by_sym {
                let closed = self.eps_closure(&dsts);
                let mut w = word.clone();
                w.push(sym);
                queue.push_back((closed, w));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a(b)*c
    fn abc() -> Nfa {
        let mut n = Nfa::with_states(3);
        n.set_initial(StateId(0));
        n.set_final(StateId(2));
        n.add_transition(StateId(0), Label::Sym(0), StateId(1));
        n.add_transition(StateId(1), Label::Sym(1), StateId(1));
        n.add_transition(StateId(1), Label::Sym(2), StateId(2));
        n
    }

    #[test]
    fn accepts_simple() {
        let n = abc();
        assert!(n.accepts(&[0, 2]));
        assert!(n.accepts(&[0, 1, 1, 2]));
        assert!(!n.accepts(&[0]));
        assert!(!n.accepts(&[2]));
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn eps_closure_transitive() {
        let mut n = Nfa::with_states(4);
        n.set_initial(StateId(0));
        n.set_final(StateId(3));
        n.add_transition(StateId(0), Label::Eps, StateId(1));
        n.add_transition(StateId(1), Label::Eps, StateId(2));
        n.add_transition(StateId(2), Label::Sym(5), StateId(3));
        assert!(n.accepts(&[5]));
        assert!(!n.accepts(&[]));
        let mut start = BTreeSet::new();
        start.insert(0);
        assert_eq!(n.eps_closure(&start), [0, 1, 2].into_iter().collect());
    }

    #[test]
    fn accepts_empty_word_through_eps() {
        let mut n = Nfa::with_states(2);
        n.set_initial(StateId(0));
        n.set_final(StateId(1));
        n.add_transition(StateId(0), Label::Eps, StateId(1));
        assert!(n.accepts(&[]));
    }

    #[test]
    fn add_transition_dedups() {
        let mut n = Nfa::with_states(2);
        assert!(n.add_transition(StateId(0), Label::Sym(1), StateId(1)));
        assert!(!n.add_transition(StateId(0), Label::Sym(1), StateId(1)));
        assert_eq!(n.transitions().count(), 1);
    }

    #[test]
    fn trim_removes_useless_states() {
        let mut n = abc();
        let dead = n.add_state(); // unreachable
        n.add_transition(dead, Label::Sym(0), StateId(0));
        let orphan = n.add_state(); // reachable but not co-reachable
        n.add_transition(StateId(0), Label::Sym(9), orphan);
        let (t, map) = n.trim();
        assert_eq!(t.num_states(), 3);
        assert!(t.accepts(&[0, 1, 2]));
        assert!(!map.contains_key(&dead.0));
        assert!(!map.contains_key(&orphan.0));
    }

    #[test]
    fn language_emptiness() {
        let mut n = Nfa::with_states(2);
        n.set_initial(StateId(0));
        assert!(n.is_language_empty());
        n.set_final(StateId(1));
        assert!(n.is_language_empty());
        n.add_transition(StateId(0), Label::Sym(0), StateId(1));
        assert!(!n.is_language_empty());
    }

    #[test]
    fn sample_words_shortest_first() {
        let n = abc();
        let words = n.sample_words(3);
        assert_eq!(words[0], vec![0, 2]);
        assert!(words.contains(&vec![0, 1, 2]));
        assert_eq!(words.len(), 3);
    }

    #[test]
    fn sample_words_terminates_on_finite_language() {
        let mut n = Nfa::with_states(2);
        n.set_initial(StateId(0));
        n.set_final(StateId(1));
        n.add_transition(StateId(0), Label::Sym(7), StateId(1));
        let words = n.sample_words(10);
        assert_eq!(words, vec![vec![7]]);
    }

    #[test]
    fn alphabet_collects_symbols() {
        let n = abc();
        assert_eq!(n.alphabet(), [0, 1, 2].into_iter().collect());
    }

    #[test]
    fn accepts_from_specific_state() {
        let n = abc();
        assert!(n.accepts_from(StateId(1), &[2]));
        assert!(!n.accepts_from(StateId(0), &[1]));
    }

    #[test]
    fn coreachable() {
        let n = abc();
        assert_eq!(n.coreachable_states(), [0, 1, 2].into_iter().collect());
    }
}
