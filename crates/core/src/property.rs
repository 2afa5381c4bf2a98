use cuba_pds::{
    canonicalize_visible_key, code_top, top_code, Cpds, KeyTable, SharedState, StackSym,
    VisibleState,
};

/// A safety property over *visible* states (paper §2.2: "Most
/// reachability properties, including assertions inserted into a
/// program, are formulated only over visible states").
///
/// A property *holds* as long as no reachable visible state violates
/// it; all CUBA algorithms check every newly discovered visible state
/// against it, through a [`PropertyCheck`] flattened once per system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Property {
    /// Always holds; use to compute reachability sets to convergence
    /// without a target (the `kmax` columns of Table 2 for safe runs).
    True,
    /// Violated when any of the listed visible states is reached
    /// (assertion failures mapped to distinguished visible states).
    NeverVisible(Vec<VisibleState>),
    /// Violated when any of the listed shared states is reached
    /// (shared-state reachability, e.g. a dedicated error state).
    NeverShared(Vec<SharedState>),
    /// Violated when *all* the listed threads simultaneously expose
    /// the paired top-of-stack symbol — mutual exclusion of "critical"
    /// program locations ("mutually exclusive local-state
    /// reachability", Ex. 2).
    MutualExclusion(Vec<(usize, StackSym)>),
    /// Violated when every sub-property would be violated… never mind
    /// conjunctions: violated when *any* sub-property is violated.
    All(Vec<Property>),
}

impl Property {
    /// Shorthand for [`Property::NeverVisible`] with one target.
    pub fn never_visible(v: VisibleState) -> Self {
        Property::NeverVisible(vec![v])
    }

    /// Shorthand for [`Property::NeverShared`] with one target.
    pub fn never_shared(q: SharedState) -> Self {
        Property::NeverShared(vec![q])
    }

    /// Mutual exclusion of two thread locations.
    pub fn mutex(thread_a: usize, top_a: StackSym, thread_b: usize, top_b: StackSym) -> Self {
        Property::MutualExclusion(vec![(thread_a, top_a), (thread_b, top_b)])
    }

    /// Whether the visible state `v` violates the property.
    ///
    /// This and [`violated_by_key`](Property::violated_by_key) are the
    /// definition; the analyses check a [`PropertyCheck`] flattened
    /// from it once per system.
    pub fn violated_by(&self, v: &VisibleState) -> bool {
        self.violated_by_key(&v.key())
    }

    /// Whether the visible state keyed `key` (see [`VisibleState::key`])
    /// violates the property.
    pub fn violated_by_key(&self, key: &[u32]) -> bool {
        let (q, tops) = key.split_first().expect("a visible key starts with q");
        match self {
            Property::True => false,
            Property::NeverVisible(targets) => targets.iter().any(|t| {
                t.q.0 == *q
                    && t.tops.len() == tops.len()
                    && t.tops
                        .iter()
                        .zip(tops)
                        .all(|(&top, &code)| top == code_top(code))
            }),
            Property::NeverShared(states) => states.contains(&SharedState(*q)),
            Property::MutualExclusion(pins) => pins
                .iter()
                .all(|&(t, top)| tops.get(t).is_some_and(|&code| code_top(code) == Some(top))),
            Property::All(props) => props.iter().any(|p| p.violated_by_key(key)),
        }
    }

    /// Validates that every shared state, thread index and stack
    /// symbol this property names exists in `cpds`, and that no mutex
    /// clause pins one thread to two different symbols.
    ///
    /// [`parse`](Property::parse) is purely syntactic: it happily
    /// accepts `never-shared:99` for a four-state model, and such a
    /// property is *silently true* — [`violated_by`](Property::violated_by)
    /// can never match an id that no reachable state carries. Callers
    /// that take user-supplied specs (the CLI, the serve API) should
    /// validate at session start and reject the spec instead of
    /// reporting a vacuous `safe`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending id and the valid
    /// range.
    pub fn validate(&self, cpds: &Cpds) -> Result<(), String> {
        let num_shared = cpds.num_shared();
        let num_threads = cpds.num_threads();
        let check_q = |q: SharedState| {
            if q.0 < num_shared {
                Ok(())
            } else {
                Err(format!(
                    "property `{self}` names shared state {q}, but the model has \
                     {num_shared} shared states (0..={})",
                    num_shared.saturating_sub(1)
                ))
            }
        };
        let check_sym = |thread: usize, sym: StackSym| {
            let alphabet = cpds.thread(thread).alphabet_size();
            if sym.0 < alphabet {
                Ok(())
            } else {
                Err(format!(
                    "property `{self}` names stack symbol {sym} of thread {thread}, but \
                     that thread's alphabet has {alphabet} symbols (0..={})",
                    alphabet.saturating_sub(1)
                ))
            }
        };
        match self {
            Property::True => Ok(()),
            Property::NeverVisible(targets) => {
                for v in targets {
                    check_q(v.q)?;
                    if v.tops.len() != num_threads {
                        return Err(format!(
                            "property `{self}` lists {} top-of-stack entries, but the \
                             model has {num_threads} threads",
                            v.tops.len()
                        ));
                    }
                    for (i, top) in v.tops.iter().enumerate() {
                        if let Some(sym) = top {
                            check_sym(i, *sym)?;
                        }
                    }
                }
                Ok(())
            }
            Property::NeverShared(states) => {
                for &q in states {
                    check_q(q)?;
                }
                Ok(())
            }
            Property::MutualExclusion(pins) => {
                for (i, &(thread, sym)) in pins.iter().enumerate() {
                    if thread >= num_threads {
                        return Err(format!(
                            "property `{self}` names thread {thread}, but the model \
                             has {num_threads} threads (0..={})",
                            num_threads.saturating_sub(1)
                        ));
                    }
                    check_sym(thread, sym)?;
                    if let Some((_, other)) =
                        pins[..i].iter().find(|&&(t, s)| t == thread && s != sym)
                    {
                        return Err(format!(
                            "property `{self}` pins thread {thread} to both {other} and \
                             {sym}, so no visible state can violate it"
                        ));
                    }
                }
                Ok(())
            }
            Property::All(props) => {
                for p in props {
                    p.validate(cpds)?;
                }
                Ok(())
            }
        }
    }

    /// Parses a property spec — the grammar shared by the CLI's
    /// `--property` flag and the serve API's `property` query
    /// parameter:
    ///
    /// ```text
    /// true
    /// never-shared:<q>
    /// never-visible:<q>|<t1>,<t2>,...     ('-' = empty stack)
    /// mutex:<thread>@<sym>,<thread>@<sym>,...
    /// ```
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending part of the spec.
    pub fn parse(spec: &str) -> Result<Property, String> {
        if spec == "true" {
            return Ok(Property::True);
        }
        if let Some(rest) = spec.strip_prefix("never-shared:") {
            let q: u32 = rest
                .parse()
                .map_err(|_| format!("bad never-shared state '{rest}'"))?;
            return Ok(Property::never_shared(SharedState(q)));
        }
        if let Some(rest) = spec.strip_prefix("never-visible:") {
            let (q, tops) = rest
                .split_once('|')
                .ok_or_else(|| format!("never-visible needs '<q>|<tops>', got '{rest}'"))?;
            let q: u32 = q.parse().map_err(|_| format!("bad shared state '{q}'"))?;
            let tops: Vec<Option<StackSym>> = tops
                .split(',')
                .map(|t| {
                    if t == "-" {
                        Ok(None)
                    } else {
                        t.parse::<u32>()
                            .map(|n| Some(StackSym(n)))
                            .map_err(|_| format!("bad top-of-stack '{t}' (number or '-')"))
                    }
                })
                .collect::<Result<_, String>>()?;
            return Ok(Property::never_visible(VisibleState::new(
                SharedState(q),
                tops,
            )));
        }
        if let Some(rest) = spec.strip_prefix("mutex:") {
            let pins: Vec<(usize, StackSym)> = rest
                .split(',')
                .map(|pin| {
                    let (thread, sym) = pin
                        .split_once('@')
                        .ok_or_else(|| format!("mutex pin needs '<thread>@<sym>', got '{pin}'"))?;
                    let thread: usize = thread
                        .parse()
                        .map_err(|_| format!("bad thread index '{thread}'"))?;
                    let sym: u32 = sym.parse().map_err(|_| format!("bad symbol '{sym}'"))?;
                    Ok((thread, StackSym(sym)))
                })
                .collect::<Result<_, String>>()?;
            if pins.is_empty() {
                return Err("mutex needs at least one pin".to_owned());
            }
            return Ok(Property::MutualExclusion(pins));
        }
        Err(format!(
            "bad property '{spec}' (expected true, never-shared:<q>, \
             never-visible:<q>|<tops>, or mutex:<t>@<s>,...)"
        ))
    }
}

/// A [`Property`] flattened once for the visible keys of one system:
/// the check the analyses run on every visible state of a layer.
///
/// `All` nesting is gone, and what is left is a table lookup and a
/// flat list of key comparisons:
///
/// * the `NeverShared` states, as one flag per shared state of the
///   model;
/// * the `NeverVisible` targets of the model's width, as interned
///   canonical keys;
/// * the mutex clauses, as `(group, top code)` pins, clause after
///   clause in one list.
///
/// A *group* is a class of interchangeable threads or a thread of no
/// class, and the check answers for a key's whole *orbit*: the visible
/// states that permuting top codes within groups turns it into. A
/// layer record keeps one canonical key per orbit of
/// [`Cpds::thread_classes`] ([`cuba_pds::canonicalize_visible_key`]),
/// and [`new`](Self::new) groups threads by those classes to check
/// its keys in place. [`per_state`](Self::per_state) puts every thread
/// in its own group, so every key is its own orbit, for searches that
/// meet single states. Each mutex clause is kept as one sorted
/// multiset of pinned top codes per group, which some member of an
/// orbit matches iff it lies inside the key's codes of that group.
///
/// On every canonical visible key of the system it was built for, it
/// answers as [`Property::violated_by_key`] does for some member of
/// the key's orbit, whether or not the property was validated: a
/// target of another width, and a target or clause naming a thread the
/// model lacks or a symbol outside a thread's alphabet, is left out,
/// since none can match such a key, and a clause pinning one thread to
/// two symbols never fires. Its tables are sized by the model, never
/// by the ids a property names.
#[derive(Debug, Clone)]
pub struct PropertyCheck {
    /// Per shared state of the model: does reaching it violate?
    shared: Vec<bool>,
    /// The `NeverVisible` targets of the model's width, as canonical
    /// keys, one per orbit.
    targets: KeyTable,
    /// Per group, its threads' key indices, ascending: the classes of
    /// interchangeable threads first, then each other thread alone.
    groups: Vec<Vec<u32>>,
    /// Every mutex clause that some visible key can match, as
    /// `(group, top code)` pins sorted by group and then by code, one
    /// per pinned thread, clause after clause.
    pins: Vec<(u32, u32)>,
    /// Where each clause's pins end in `pins`.
    clause_ends: Vec<u32>,
}

impl PropertyCheck {
    /// Flattens `property` for the canonical visible keys of `cpds`,
    /// one per orbit of interchangeable threads: the check of the
    /// rounds, run on the layer record's stored keys.
    pub fn new(property: &Property, cpds: &Cpds) -> Self {
        PropertyCheck::grouped(property, cpds, &cpds.thread_classes())
    }

    /// Flattens `property` for single visible states of `cpds`: every
    /// thread is its own group, so any key is checked as it is.
    pub fn per_state(property: &Property, cpds: &Cpds) -> Self {
        PropertyCheck::grouped(property, cpds, &[])
    }

    /// Flattens `property` with the threads of each of `classes` in one
    /// group and every other thread alone.
    fn grouped(property: &Property, cpds: &Cpds, classes: &[Vec<usize>]) -> Self {
        let n = cpds.num_threads();
        let mut groups: Vec<Vec<u32>> = classes
            .iter()
            .map(|class| class.iter().map(|&t| t as u32 + 1).collect())
            .collect();
        groups.extend(
            (0..n)
                .filter(|t| !classes.iter().any(|class| class.contains(t)))
                .map(|t| vec![t as u32 + 1]),
        );
        let mut check = PropertyCheck {
            shared: vec![false; cpds.num_shared() as usize],
            targets: KeyTable::new(n + 1),
            groups,
            pins: Vec::new(),
            clause_ends: Vec::new(),
        };
        check.add(property, cpds, classes);
        check
    }

    fn add(&mut self, property: &Property, cpds: &Cpds, classes: &[Vec<usize>]) {
        let num_threads = cpds.num_threads();
        // Whether a visible key of `cpds` can show `top` for `thread`.
        let shows = |thread: usize, top: Option<StackSym>| {
            thread < num_threads && top.is_none_or(|s| s.0 < cpds.thread(thread).alphabet_size())
        };
        match property {
            Property::True => {}
            Property::NeverVisible(targets) => {
                for target in targets {
                    let mut tops = (0..).zip(&target.tops);
                    if target.num_threads() == num_threads && tops.all(|(t, &s)| shows(t, s)) {
                        let mut key = target.key();
                        canonicalize_visible_key(classes, &mut key);
                        self.targets.insert(&key);
                    }
                }
            }
            Property::NeverShared(states) => {
                for q in states {
                    if let Some(flag) = self.shared.get_mut(q.0 as usize) {
                        *flag = true;
                    }
                }
            }
            Property::MutualExclusion(pins) => {
                if pins.iter().all(|&(thread, sym)| shows(thread, Some(sym))) {
                    self.add_clause(pins);
                }
            }
            Property::All(props) => props.iter().for_each(|p| self.add(p, cpds, classes)),
        }
    }

    /// Adds the mutex clause `pins`, whose threads and symbols the
    /// model has: one pin per pinned thread, none at all when it pins a
    /// thread to two symbols, since then no key matches it.
    fn add_clause(&mut self, pins: &[(usize, StackSym)]) {
        let mut by_thread: Vec<(usize, u32)> = pins
            .iter()
            .map(|&(thread, sym)| (thread, top_code(Some(sym))))
            .collect();
        by_thread.sort_unstable();
        by_thread.dedup();
        if by_thread.windows(2).any(|pair| pair[0].0 == pair[1].0) {
            return;
        }
        let start = self.pins.len();
        self.pins.extend(by_thread.iter().map(|&(thread, code)| {
            let index = thread as u32 + 1;
            let group = self.groups.iter().position(|g| g.contains(&index));
            (group.expect("every thread has a group") as u32, code)
        }));
        self.pins[start..].sort_unstable();
        self.clause_ends.push(self.pins.len() as u32);
    }

    /// Whether some visible state of the orbit keyed `key` (see
    /// [`VisibleState::key`]) violates the property: the check a layer
    /// record runs on its stored keys in place. A check built by
    /// [`new`](Self::new) expects the orbit's canonical key (see
    /// [`cuba_pds::canonicalize_visible_key`]) and may miss a mutex
    /// violation on another one; one built by
    /// [`per_state`](Self::per_state) checks exactly the state keyed.
    pub fn violated_by_key(&self, key: &[u32]) -> bool {
        if self.shared.get(key[0] as usize) == Some(&true) {
            return true;
        }
        if !self.targets.is_empty()
            && key.len() == self.targets.width()
            && self.targets.find(key).is_some()
        {
            return true;
        }
        let mut start = 0;
        self.clause_ends.iter().any(|&end| {
            let clause = &self.pins[start..end as usize];
            start = end as usize;
            clause
                .chunk_by(|a, b| a.0 == b.0)
                .all(|pinned| self.group_holds(pinned, key))
        })
    }

    /// Whether the top codes of one group in the canonical `key`, sorted
    /// ascending, contain the sorted multiset of codes `pinned` (pins of
    /// that group): then a permutation within the group moves a pinned
    /// code to each pinned thread.
    fn group_holds(&self, pinned: &[(u32, u32)], key: &[u32]) -> bool {
        let mut codes = self.groups[pinned[0].0 as usize]
            .iter()
            .map(|&index| key.get(index as usize));
        pinned
            .iter()
            .all(|&(_, code)| codes.any(|slot| slot == Some(&code)))
    }

    /// Whether some visible state of the orbit of `v` violates the
    /// property (for a check built by [`per_state`](Self::per_state),
    /// whether `v` does).
    pub fn violated_by(&self, v: &VisibleState) -> bool {
        self.violated_by_key(&v.key())
    }
}

impl std::fmt::Display for Property {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Property::True => write!(f, "true"),
            Property::NeverVisible(ts) => {
                write!(f, "never-visible{{")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "}}")
            }
            Property::NeverShared(qs) => {
                write!(f, "never-shared{{")?;
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{q}")?;
                }
                write!(f, "}}")
            }
            Property::MutualExclusion(pins) => {
                write!(f, "mutex{{")?;
                for (i, (t, s)) in pins.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "t{t}@{s}")?;
                }
                write!(f, "}}")
            }
            Property::All(props) => {
                write!(f, "all{{")?;
                for (i, p) in props.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "}}")
            }
        }
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
    fn vis(qq: u32, tops: &[Option<u32>]) -> VisibleState {
        VisibleState::new(q(qq), tops.iter().map(|t| t.map(StackSym)).collect())
    }

    #[test]
    fn true_never_violated() {
        assert!(!Property::True.violated_by(&vis(0, &[Some(1)])));
    }

    #[test]
    fn never_visible_exact_match() {
        let p = Property::never_visible(vis(1, &[Some(2), None]));
        assert!(p.violated_by(&vis(1, &[Some(2), None])));
        assert!(!p.violated_by(&vis(1, &[Some(2), Some(3)])));
        assert!(!p.violated_by(&vis(0, &[Some(2), None])));
    }

    #[test]
    fn never_shared_matches_any_tops() {
        let p = Property::never_shared(q(3));
        assert!(p.violated_by(&vis(3, &[None])));
        assert!(p.violated_by(&vis(3, &[Some(1), Some(2)])));
        assert!(!p.violated_by(&vis(2, &[Some(1)])));
    }

    #[test]
    fn mutex_requires_all_pins() {
        let p = Property::mutex(0, s(7), 1, s(9));
        assert!(p.violated_by(&vis(0, &[Some(7), Some(9)])));
        assert!(!p.violated_by(&vis(0, &[Some(7), Some(8)])));
        assert!(!p.violated_by(&vis(0, &[Some(7), None])));
        // Out-of-range thread index never matches.
        let p2 = Property::MutualExclusion(vec![(5, s(7))]);
        assert!(!p2.violated_by(&vis(0, &[Some(7)])));
    }

    #[test]
    fn all_is_disjunction_of_violations() {
        let p = Property::All(vec![
            Property::never_shared(q(1)),
            Property::never_shared(q(2)),
        ]);
        assert!(p.violated_by(&vis(1, &[None])));
        assert!(p.violated_by(&vis(2, &[None])));
        assert!(!p.violated_by(&vis(0, &[None])));
    }

    /// `ε` and symbol 0 are distinct tops in a key, and a target of
    /// another width never matches.
    #[test]
    fn key_checks_tell_eps_from_symbol_zero() {
        let p = Property::never_visible(vis(2, &[None, Some(0)]));
        assert!(p.violated_by_key(&vis(2, &[None, Some(0)]).key()));
        assert!(!p.violated_by_key(&vis(2, &[Some(0), Some(0)]).key()));
        assert!(!p.violated_by_key(&vis(2, &[None]).key()));
        let m = Property::mutex(0, s(0), 1, s(0));
        assert!(m.violated_by_key(&vis(0, &[Some(0), Some(0)]).key()));
        assert!(!m.violated_by_key(&vis(0, &[None, Some(0)]).key()));
    }

    #[test]
    fn parse_accepts_the_cli_grammar() {
        assert_eq!(Property::parse("true").unwrap(), Property::True);
        assert_eq!(
            Property::parse("never-shared:3").unwrap(),
            Property::never_shared(q(3))
        );
        assert_eq!(
            Property::parse("never-visible:1|2,6").unwrap(),
            Property::never_visible(VisibleState::new(q(1), vec![Some(s(2)), Some(s(6))]))
        );
        assert_eq!(
            Property::parse("never-visible:0|-,5").unwrap(),
            Property::never_visible(VisibleState::new(q(0), vec![None, Some(s(5))]))
        );
        assert_eq!(
            Property::parse("mutex:0@7,1@9").unwrap(),
            Property::mutex(0, s(7), 1, s(9))
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "bogus",
            "never-shared:x",
            "never-visible:1",
            "never-visible:1|a",
            "mutex:",
            "mutex:0-7",
        ] {
            assert!(Property::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn validate_accepts_in_range_properties() {
        let cpds = crate::testutil::fig1();
        assert!(Property::True.validate(&cpds).is_ok());
        assert!(Property::never_shared(q(1)).validate(&cpds).is_ok());
        assert!(Property::never_visible(vis(1, &[Some(2), Some(6)]))
            .validate(&cpds)
            .is_ok());
        assert!(Property::mutex(0, s(2), 1, s(6)).validate(&cpds).is_ok());
    }

    #[test]
    fn validate_rejects_unknown_ids() {
        let cpds = crate::testutil::fig1();
        let e = Property::never_shared(q(99)).validate(&cpds).unwrap_err();
        assert!(e.contains("shared state 99"), "{e}");
        let e = Property::never_visible(vis(0, &[Some(99), Some(6)]))
            .validate(&cpds)
            .unwrap_err();
        assert!(e.contains("stack symbol"), "{e}");
        // Wrong arity: one top for a two-thread model.
        let e = Property::never_visible(vis(0, &[Some(2)]))
            .validate(&cpds)
            .unwrap_err();
        assert!(e.contains("threads"), "{e}");
        let e = Property::MutualExclusion(vec![(5, s(2))])
            .validate(&cpds)
            .unwrap_err();
        assert!(e.contains("thread 5"), "{e}");
        // All recurses.
        let e = Property::All(vec![Property::True, Property::never_shared(q(99))])
            .validate(&cpds)
            .unwrap_err();
        assert!(e.contains("shared state 99"), "{e}");
    }

    /// A mutex clause that pins one thread to two symbols can never be
    /// violated, so it is as vacuous as an unknown id; a repeated pin
    /// is harmless.
    #[test]
    fn validate_rejects_a_mutex_pinning_one_thread_to_two_symbols() {
        let cpds = crate::testutil::fig1();
        let conflicting = Property::MutualExclusion(vec![(0, s(1)), (1, s(4)), (0, s(2))]);
        let e = conflicting.validate(&cpds).unwrap_err();
        assert!(e.contains("pins thread 0 to both 1 and 2"), "{e}");
        let e = Property::All(vec![Property::True, conflicting])
            .validate(&cpds)
            .unwrap_err();
        assert!(e.contains("thread 0"), "{e}");
        assert!(Property::MutualExclusion(vec![(1, s(4)), (1, s(4))])
            .validate(&cpds)
            .is_ok());
    }

    /// The flattened check answers as the definition on every visible
    /// key of Fig. 1, for the values `validate` rejects too.
    #[test]
    fn flattened_check_matches_the_definition_on_odd_properties() {
        let cpds = crate::testutil::fig1();
        let properties = [
            Property::True,
            Property::All(vec![]),
            // An empty clause is violated everywhere.
            Property::MutualExclusion(vec![]),
            Property::MutualExclusion(vec![(0, s(1)), (0, s(2))]),
            Property::MutualExclusion(vec![(1, s(4)), (1, s(4))]),
            Property::MutualExclusion(vec![(0, s(1)), (2, s(1))]),
            Property::never_visible(vis(0, &[Some(1)])),
            Property::NeverShared(vec![q(99), q(2)]),
            Property::All(vec![
                Property::All(vec![Property::never_visible(vis(3, &[Some(2), None]))]),
                Property::mutex(0, s(2), 1, s(6)),
            ]),
            // Symbols outside the alphabet, at the end of the `u32` range.
            Property::All(vec![
                Property::MutualExclusion(vec![(0, s(u32::MAX))]),
                Property::never_visible(vis(0, &[Some(1), Some(u32::MAX)])),
            ]),
        ];
        let keys: Vec<Vec<u32>> = (0..4)
            .flat_map(|q| (0..=3).flat_map(move |a| (0..=7).map(move |b| vec![q, a, b])))
            .collect();
        for property in &properties {
            let check = PropertyCheck::per_state(property, &cpds);
            for key in &keys {
                assert_eq!(
                    check.violated_by_key(key),
                    property.violated_by_key(key),
                    "{property} on {key:?}"
                );
            }
        }
        let empty = PropertyCheck::per_state(&Property::MutualExclusion(vec![]), &cpds);
        assert!(keys.iter().all(|key| empty.violated_by_key(key)));
    }

    #[test]
    fn display() {
        assert_eq!(Property::True.to_string(), "true");
        assert_eq!(
            Property::mutex(0, s(1), 1, s(2)).to_string(),
            "mutex{t0@1, t1@2}"
        );
        assert!(Property::never_shared(q(1))
            .to_string()
            .contains("never-shared"));
    }
}
