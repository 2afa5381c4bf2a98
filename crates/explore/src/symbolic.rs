use std::cmp::Ordering;
use std::collections::HashMap;
use std::convert::Infallible;

use cuba_automata::{language_subset, post_star_table, CanonicalDfa, Psa, RuleTable};
use cuba_pds::{top_code, Cpds, GlobalState, KeyTable, SharedState, StackSym, VisibleState};
use cuba_telemetry::metrics::METRICS;

use crate::symmetry::{ContentOrder, Symmetry};
use crate::{ExploreBudget, ExploreError, Interrupt, LayerStore};

/// A symbolic state `τ = ⟨q|A1,…,An⟩` (paper App. E): the current
/// shared state plus, per thread, a regular language of possible stack
/// contents, kept as a *canonical minimal DFA* so that language
/// equality is structural equality (and symbolic states are hashable).
///
/// Its concretization is
/// `γ(τ) = {⟨q|w1,…,wn⟩ : ∀i wi ∈ L(Ai)}` (Eq. 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymbolicState {
    /// The shared state `q`.
    pub q: SharedState,
    /// Per-thread stack languages (top-of-stack first).
    pub stacks: Vec<CanonicalDfa>,
}

impl SymbolicState {
    /// The symbolic state whose concretization is exactly `{state}`.
    pub fn singleton(state: &GlobalState) -> Self {
        SymbolicState {
            q: state.q,
            stacks: state
                .stacks
                .iter()
                .map(|s| {
                    let word: Vec<u32> = s.iter_top_down().map(|x| x.0).collect();
                    CanonicalDfa::single_word(&word)
                })
                .collect(),
        }
    }

    /// Whether `state ∈ γ(τ)`.
    pub fn contains(&self, state: &GlobalState) -> bool {
        if state.q != self.q || state.stacks.len() != self.stacks.len() {
            return false;
        }
        state.stacks.iter().zip(&self.stacks).all(|(w, a)| {
            let word: Vec<u32> = w.iter_top_down().map(|x| x.0).collect();
            a.accepts(&word)
        })
    }

    /// Whether `γ(self) ⊆ γ(other)` (pointwise language containment;
    /// used by the optional subsumption mode).
    pub fn subsumed_by(&self, other: &SymbolicState) -> bool {
        self.q == other.q
            && self.stacks.len() == other.stacks.len()
            && self
                .stacks
                .iter()
                .zip(&other.stacks)
                .all(|(a, b)| a == b || language_subset(&a.to_nfa(), &b.to_nfa()))
    }

    /// The visible-state projection `T(τ)` (Eq. 4, computed per thread
    /// by the paper's Alg. 4): the finite set
    /// `{q} × T(A1) × … × T(An)`.
    pub fn visible_states(&self) -> Vec<VisibleState> {
        let per_thread: Vec<Vec<u32>> = self.stacks.iter().map(top_set).collect();
        let domains: Vec<&[u32]> = per_thread.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        let Ok(()) = for_each_visible_key(self.q, &domains, |key| {
            out.push(VisibleState::from_key(key));
            Ok::<(), Infallible>(())
        });
        out
    }

    /// Whether `γ(τ)` is empty (some thread's stack language is empty).
    pub fn is_empty(&self) -> bool {
        self.stacks.iter().any(|a| a.is_empty_language())
    }
}

impl std::fmt::Display for SymbolicState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{}|", self.q)?;
        for (i, a) in self.stacks.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "dfa[{}]", a.num_states())?;
        }
        write!(f, ">")
    }
}

/// How the symbolic engine deduplicates newly produced symbolic states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubsumptionMode {
    /// Keep a state unless an *identical* (canonical) state exists.
    /// Cheap; plateau detection means `Sk+1 = Sk` exactly.
    #[default]
    Exact,
    /// Additionally drop states pointwise subsumed by an existing state
    /// (`γ(new) ⊆ γ(old)`). More work per state, earlier convergence —
    /// this is the ablation §8 alludes to ("symbolic representations …
    /// make convergence detection more difficult").
    Pointwise,
}

/// The top set `T(A)` of a stack language as [`top_code`]s: the
/// possible tops of an accepted word, `ε` first when the language
/// contains it, then the first symbols ascending (Alg. 4's per-thread
/// data). Empty exactly for the empty language.
fn top_set(a: &CanonicalDfa) -> Vec<u32> {
    let (firsts, eps) = a.first_symbols();
    eps.then_some(None)
        .into_iter()
        .chain(firsts.into_iter().map(|s| Some(StackSym(s))))
        .map(top_code)
        .collect()
}

/// How many visible keys a state's visible-orbit recording enumerates
/// between two polls of the interrupt.
const VISIBLE_POLL_INTERVAL: usize = 4096;

/// Calls `f` with the visible key (see [`VisibleState::key`]) of every
/// visible state of `{q} × d1 × … × dn` over the per-thread top-code
/// `domains`, the last thread varying fastest; nothing when some
/// domain is empty (then `γ(τ)` is empty). Stops at the first error
/// `f` returns.
fn for_each_visible_key<E>(
    q: SharedState,
    domains: &[&[u32]],
    mut f: impl FnMut(&[u32]) -> Result<(), E>,
) -> Result<(), E> {
    if domains.iter().any(|d| d.is_empty()) {
        return Ok(());
    }
    let mut digits = vec![0usize; domains.len()];
    let mut key: Vec<u32> = std::iter::once(q.0)
        .chain(domains.iter().map(|d| d[0]))
        .collect();
    loop {
        f(&key)?;
        let Some(pos) = (0..digits.len()).rposition(|i| digits[i] + 1 < domains[i].len()) else {
            return Ok(());
        };
        digits[pos] += 1;
        key[pos + 1] = domains[pos][digits[pos]];
        for (i, digit) in digits.iter_mut().enumerate().skip(pos + 1) {
            *digit = 0;
            key[i + 1] = domains[i][0];
        }
    }
}

/// Interned canonical DFAs, each with its cached top set `T(A)`.
///
/// A [`SymbolicState`] key is `(q, [DfaId; n])` over this table, so
/// equal stack languages hash and compare as one `u32`. Automata are
/// only ever added; one interned by a failed round stays harmlessly.
#[derive(Debug, Default)]
struct DfaTable {
    dfas: Vec<CanonicalDfa>,
    index: HashMap<CanonicalDfa, u32>,
    /// The `TopSetId` of each DFA.
    top_set_of: Vec<u32>,
    /// The [`top_set`] of each `TopSetId`.
    top_sets: Vec<Vec<u32>>,
    top_set_index: HashMap<Vec<u32>, u32>,
}

impl DfaTable {
    /// The `DfaId` of `dfa`, interning it (and its top set) when new.
    fn intern(&mut self, dfa: CanonicalDfa) -> u32 {
        if let Some(&id) = self.index.get(&dfa) {
            return id;
        }
        let tops = top_set(&dfa);
        let next_top_set = self.top_sets.len() as u32;
        let top_set = *self.top_set_index.entry(tops.clone()).or_insert_with(|| {
            self.top_sets.push(tops);
            next_top_set
        });
        let id = self.dfas.len() as u32;
        self.index.insert(dfa.clone(), id);
        self.dfas.push(dfa);
        self.top_set_of.push(top_set);
        id
    }

    fn get(&self, id: u32) -> &CanonicalDfa {
        &self.dfas[id as usize]
    }
}

/// Stack languages order by their canonical DFAs; equal languages have
/// equal ids.
impl ContentOrder for DfaTable {
    fn cmp_ids(&self, a: u32, b: u32) -> Ordering {
        if a == b {
            Ordering::Equal
        } else {
            self.get(a).cmp(self.get(b))
        }
    }
}

/// Symbolic layered exploration of `S0, S1, …` with PSA-based context
/// steps (the paper's third approach, Alg. 3(T(Sk)), App. E).
///
/// One context of thread `i` from `τ = ⟨q|A1,…,An⟩`:
///
/// 1. build the P-automaton accepting `{⟨q|w⟩ : w ∈ L(Ai)}`,
/// 2. saturate with `post*` over `Δi`,
/// 3. for every shared state `q'` with non-empty stack language,
///    emit `⟨q'|A1,…,post*|q',…,An⟩` — the other threads' stacks are
///    unchanged, merely re-associated with the new shared state.
///
/// States are interned: every canonical DFA gets a `DfaId` (with its
/// top set cached once), and a symbolic state is the fixed-width key
/// `(q, [DfaId; n])` whose dense id is the state id. A successor's key
/// is its frontier state's key with two words replaced, so a context
/// step clones no automaton. The visible states `T(τ)` depend only on
/// `(q, [TopSetId; n])` and are enumerated once per such key, as
/// visible keys. A round records them only once all of its successors
/// are registered within the `max_symbolic_states` budget, in
/// registration order, so a round that fails the budget enumerates
/// none; keys recorded by an interrupted round roll back with it.
/// [`layer`](Self::layer) and [`covers`](Self::covers) still speak
/// [`SymbolicState`], materialized on demand.
///
/// Interchangeable threads ([`Cpds::thread_classes`]) make every layer
/// closed under permuting their stack languages, so the engine stores
/// one canonical representative per orbit: the state whose DFAs are
/// sorted by content within each class (not by id, which depends on
/// interning order). [`layer`](Self::layer) yields representatives and
/// [`orbit`](Self::orbit) expands one. Everything else stays concrete:
/// [`num_symbolic_states`](Self::num_symbolic_states), the layer
/// record's counts and the `max_symbolic_states` budget count every
/// member of every stored orbit. The visible states of an orbit are
/// the orbits of its representative's visible states, so the engine
/// enumerates only the representative's `T(τ)` and the layer record
/// keeps one canonical key per visible orbit. A context step depends
/// only on the thread's program, `q` and the thread's stack language,
/// so a thread whose class has an earlier member holding the same
/// `DfaId` in a frontier state takes no step: its successors lie in
/// the orbits of that member's. A system without interchangeable
/// threads stores every state, in the same order as an unreduced
/// engine.
///
/// Collapse (`no new symbolic states in a round`) soundly implies
/// `Rk+1 ⊆ Rk` and hence, by Lemma 7, convergence of `(Rk)`.
#[derive(Debug)]
pub struct SymbolicEngine {
    cpds: Cpds,
    budget: ExploreBudget,
    mode: SubsumptionMode,
    dfas: DfaTable,
    /// State `id` is the key `(q, [DfaId; n])` with that id.
    keys: KeyTable,
    /// The concrete number of symbolic states: the orbit sizes of the
    /// stored states, summed.
    num_states: usize,
    /// The `(q, [TopSetId; n])` keys whose visible states are recorded,
    /// their ids sorted within classes: one per orbit. Starts empty on
    /// a restored engine (re-recording is a no-op).
    top_keys: KeyTable,
    /// Ids grouped by shared state, for pointwise subsumption lookups.
    by_shared: HashMap<SharedState, Vec<u32>>,
    /// The property-independent layer record (shared vocabulary with
    /// the explicit engine; see [`LayerStore`]).
    store: LayerStore,
    /// One CSR rule index per thread-PDS, built once at construction
    /// and shared by every saturation (previously the equivalent hash
    /// index was rebuilt on every context step).
    tables: Vec<RuleTable>,
    /// The interchangeable threads, whose orbits share a stored state.
    symmetry: Symmetry,
}

impl SymbolicEngine {
    /// Creates an engine positioned at `S0 = {singleton(initial)}`.
    pub fn new(cpds: Cpds, budget: ExploreBudget, mode: SubsumptionMode) -> Self {
        let init = SymbolicState::singleton(&cpds.initial_state());
        let store = LayerStore::for_system(&cpds);
        let mut engine = SymbolicEngine::empty(cpds, budget, mode, store);
        // Interchangeable threads start on equal stacks, so the initial
        // state is its own orbit and already canonical.
        engine.intern_state(init);
        engine.num_states = 1;
        engine
    }

    /// An engine with no states over `store`.
    fn empty(cpds: Cpds, budget: ExploreBudget, mode: SubsumptionMode, store: LayerStore) -> Self {
        let width = cpds.num_threads() + 1;
        let tables = (0..cpds.num_threads())
            .map(|i| RuleTable::new(cpds.thread(i)))
            .collect();
        SymbolicEngine {
            symmetry: store.symmetry().clone(),
            cpds,
            budget,
            mode,
            dfas: DfaTable::default(),
            keys: KeyTable::new(width),
            num_states: 0,
            top_keys: KeyTable::new(width),
            by_shared: HashMap::new(),
            store,
            tables,
        }
    }

    /// Interns and stores `state`; `false` (storing nothing) when an
    /// identical state is already stored.
    fn intern_state(&mut self, state: SymbolicState) -> bool {
        let mut key = Vec::with_capacity(self.keys.width());
        key.push(state.q.0);
        for dfa in state.stacks {
            key.push(self.dfas.intern(dfa));
        }
        let (id, new) = self.keys.insert(&key);
        if new {
            self.by_shared.entry(state.q).or_default().push(id);
        }
        new
    }

    /// Rebuilds an engine from deserialized parts: the symbolic-state
    /// table in discovery order plus an already-validated layer record.
    /// The interned keys, per-shared-state grouping, CSR rule tables
    /// and the concrete state counts are derived, so a restored engine
    /// is indistinguishable from one that explored the same layers
    /// live.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency between the
    /// state table and the layer record, or of a state that is not the
    /// canonical representative of its orbit, without echoing state
    /// content.
    pub(crate) fn from_parts(
        cpds: Cpds,
        budget: ExploreBudget,
        mode: SubsumptionMode,
        states: Vec<SymbolicState>,
        store: LayerStore,
    ) -> Result<Self, String> {
        if states.len() != store.layer_ids(store.current_k()).end as usize {
            return Err("state table does not match the layer record".to_owned());
        }
        if states[0] != SymbolicState::singleton(&cpds.initial_state()) {
            return Err("state 0 is not the initial symbolic state".to_owned());
        }
        let mut engine = SymbolicEngine::empty(cpds, budget, mode, store);
        for state in states {
            if !engine.intern_state(state) {
                return Err("duplicate symbolic state in state table".to_owned());
            }
        }
        let (keys, symmetry) = (&engine.keys, &engine.symmetry);
        if (0..keys.len() as u32).any(|id| !symmetry.is_canonical(&engine.dfas, &keys.key(id)[1..]))
        {
            return Err(
                "state table holds a state that is not its orbit's canonical representative"
                    .to_owned(),
            );
        }
        engine
            .store
            .weigh_states(|id| symmetry.weight(&keys.key(id)[1..]));
        engine.num_states = engine.store.state_count_at(engine.store.current_k());
        Ok(engine)
    }

    /// The subsumption mode the engine deduplicates with.
    pub fn mode(&self) -> SubsumptionMode {
        self.mode
    }

    /// Materializes the symbolic state with id `id`.
    fn state(&self, id: u32) -> SymbolicState {
        let key = self.keys.key(id);
        SymbolicState {
            q: SharedState(key[0]),
            stacks: key[1..].iter().map(|&d| self.dfas.get(d).clone()).collect(),
        }
    }

    /// The stored symbolic states, one representative per orbit, in
    /// discovery order (serialization).
    pub(crate) fn states(&self) -> impl Iterator<Item = SymbolicState> + '_ {
        (0..self.keys.len() as u32).map(|id| self.state(id))
    }

    /// Number of stored symbolic states, one representative per orbit
    /// (at most [`num_symbolic_states`](Self::num_symbolic_states)).
    pub fn num_stored(&self) -> usize {
        self.keys.len()
    }

    /// The CPDS being explored.
    pub fn cpds(&self) -> &Cpds {
        &self.cpds
    }

    /// The highest context bound computed so far.
    pub fn current_k(&self) -> usize {
        self.store.current_k()
    }

    /// Whether a round added no symbolic states (so `Rk` collapsed).
    pub fn is_collapsed(&self) -> bool {
        self.store.is_collapsed()
    }

    /// The bound-indexed layer record.
    pub fn store(&self) -> &LayerStore {
        &self.store
    }

    /// Total number of symbolic states found so far, `|Sk|`: every
    /// member of every stored orbit.
    pub fn num_symbolic_states(&self) -> usize {
        self.num_states
    }

    /// The representatives of the symbolic states first produced at
    /// context bound `k` (`Sk \ Sk−1`, one state per orbit), in
    /// discovery order (materialized from the interned keys).
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn layer(&self, k: usize) -> impl Iterator<Item = SymbolicState> + '_ {
        self.store.layer_ids(k).map(|id| self.state(id))
    }

    /// The orbit of `state`: every distinct symbolic state that
    /// permuting the stack languages of interchangeable threads turns
    /// it into, `state` first.
    pub fn orbit(&self, state: &SymbolicState) -> Vec<SymbolicState> {
        // Slot `t` names the first thread with thread `t`'s language.
        let stacks = &state.stacks;
        let mut key = vec![state.q.0];
        for (t, a) in stacks.iter().enumerate() {
            key.push(stacks[..t].iter().position(|b| b == a).unwrap_or(t) as u32);
        }
        let mut orbit = Vec::new();
        let Ok(()) = self.symmetry.for_each_arrangement(&mut key, |member| {
            let member_stacks = member[1..].iter().map(|&t| stacks[t as usize].clone());
            orbit.push(SymbolicState {
                q: state.q,
                stacks: member_stacks.collect(),
            });
            Ok::<(), Infallible>(())
        });
        orbit
    }

    /// Visible states first seen at context bound `k`
    /// (`T(Sk) \ T(Sk−1)`), decoded from the layer record's keys.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn visible_layer(&self, k: usize) -> Vec<VisibleState> {
        self.store.visible_layer(k)
    }

    /// All visible states seen so far (`T(Sk)` at the current bound).
    pub fn visible_total(&self) -> impl Iterator<Item = VisibleState> + '_ {
        self.store.visible_iter()
    }

    /// Number of visible states seen so far.
    pub fn num_visible(&self) -> usize {
        self.store.num_visible()
    }

    /// Whether a concrete global state is covered by any stored
    /// symbolic state or a member of its orbit (i.e. is
    /// context-bounded reachable at the current bound). Used in
    /// cross-validation tests.
    pub fn covers(&self, state: &GlobalState) -> bool {
        if state.stacks.len() != self.cpds.num_threads() {
            return false;
        }
        let words: Vec<Vec<u32>> = state
            .stacks
            .iter()
            .map(|w| w.iter_top_down().map(|x| x.0).collect())
            .collect();
        (0..self.keys.len() as u32).any(|id| {
            let key = self.keys.key(id);
            key[0] == state.q.0
                && self
                    .symmetry
                    .some_permutation(|t, u| self.dfas.get(key[u + 1]).accepts(&words[t]))
        })
    }

    /// Computes the next layer `Sk+1 \ Sk`, polling `interrupt` from
    /// the context steps, their `post*` saturations and the recording
    /// of visible states. A failed round is rolled back, as in
    /// [`ExplicitEngine::advance`](crate::ExplicitEngine::advance).
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::SymbolicBudgetExceeded`] when the
    /// symbolic state budget is exhausted — the analogue of the
    /// paper's out-of-memory outcome on Stefan-1 with 8 threads — or
    /// the interrupt's error when it fires.
    pub fn advance(&mut self, interrupt: &Interrupt) -> Result<(), ExploreError> {
        interrupt.check()?;
        let k = self.store.current_k() + 1;
        if self.store.is_collapsed() {
            self.store
                .push_layer(self.keys.len() as u32, 0, self.num_states);
            return Ok(());
        }
        let round_start = self.keys.len();
        let top_start = self.top_keys.len();
        // Every successor is registered before any visible state is
        // recorded, so a round that fails the budget enumerates none.
        let recorded = self
            .register_successors(k, interrupt)
            .and_then(|()| self.record_visible_orbits(round_start as u32, interrupt));
        let new_visible = match recorded {
            Ok(new_visible) => new_visible,
            Err(e) => {
                self.rollback(round_start, top_start);
                return Err(e);
            }
        };
        self.store
            .push_layer(self.keys.len() as u32, new_visible, self.num_states);
        Ok(())
    }

    /// Registers the successors of every state of layer `k − 1`, in
    /// frontier order, thread by thread: their new ids follow the
    /// layer's.
    fn register_successors(&mut self, k: usize, interrupt: &Interrupt) -> Result<(), ExploreError> {
        let mut key: Vec<u32> = Vec::with_capacity(self.keys.width());
        for tau_id in self.store.layer_ids(k - 1) {
            for thread in 0..self.cpds.num_threads() {
                interrupt.check()?;
                // A twin's successors are its earlier twin's with the
                // two threads' languages swapped: the same orbits.
                if self
                    .symmetry
                    .earlier_twin(&self.keys.key(tau_id)[1..], thread)
                    .is_some()
                {
                    METRICS.symbolic_contexts_shared.inc();
                    continue;
                }
                for (q2, dfa) in self.context_post(tau_id, thread, interrupt)? {
                    key.clear();
                    key.extend_from_slice(self.keys.key(tau_id));
                    key[0] = q2.0;
                    key[thread + 1] = dfa;
                    self.symmetry.resort(&self.dfas, &mut key[1..], thread);
                    self.register(&key)?;
                }
            }
        }
        Ok(())
    }

    /// Records the visible orbits of the states registered this round
    /// (ids `round_start..`), in registration order. Returns how many
    /// visible states were new.
    fn record_visible_orbits(
        &mut self,
        round_start: u32,
        interrupt: &Interrupt,
    ) -> Result<usize, ExploreError> {
        let mut new_visible = 0usize;
        for id in round_start..self.keys.len() as u32 {
            new_visible = new_visible.saturating_add(self.record_visible_states(id, interrupt)?);
        }
        Ok(new_visible)
    }

    /// Removes every symbolic state (ids `round_start..`), top-set key
    /// (ids `top_start..`) and visible state registered by a failed
    /// round, leaving the engine exactly at the previous bound so
    /// `advance` may be retried.
    fn rollback(&mut self, round_start: usize, top_start: usize) {
        for id in round_start..self.keys.len() {
            let key = self.keys.key(id as u32);
            self.num_states -= self.symmetry.weight(&key[1..]);
            if let Some(ids) = self.by_shared.get_mut(&SharedState(key[0])) {
                ids.retain(|&other| (other as usize) < round_start);
            }
        }
        self.keys.truncate(round_start);
        self.top_keys.truncate(top_start);
        self.store.rollback_round();
    }

    /// One full context of `thread` from symbolic state `tau_id`: the
    /// successors as `(q', DfaId)` pairs, the new shared state and
    /// `thread`'s new stack language; every other slot of the key
    /// stays the frontier state's.
    ///
    /// The `post*` saturation itself polls `interrupt` every few
    /// transition insertions, so even a single pathological
    /// context step cannot overshoot a deadline by more than a poll
    /// interval.
    fn context_post(
        &mut self,
        tau_id: u32,
        thread: usize,
        interrupt: &Interrupt,
    ) -> Result<Vec<(SharedState, u32)>, ExploreError> {
        METRICS.symbolic_contexts_run.inc();
        let key = self.keys.key(tau_id);
        let q = SharedState(key[0]);
        let stack_nfa = self.dfas.get(key[thread + 1]).to_nfa();
        let init = match Psa::from_stack_nfa(self.cpds.num_shared(), q, &stack_nfa) {
            Ok(p) => p,
            Err(_) => return Ok(Vec::new()),
        };
        let saturated = post_star_table(
            self.cpds.thread(thread),
            &self.tables[thread],
            &init,
            &mut || interrupt.check().is_ok(),
        )
        .map_err(|_| interrupt.check().err().unwrap_or(ExploreError::Cancelled))?;
        let mut out = Vec::new();
        for q2 in saturated.nonempty_controls() {
            let lang = saturated.stack_language(q2);
            let canon = CanonicalDfa::from_nfa(&lang);
            if canon.is_empty_language() {
                continue;
            }
            out.push((q2, self.dfas.intern(canon)));
        }
        Ok(out)
    }

    /// Whether the state keyed `key` is pointwise subsumed by a member
    /// of the orbit of stored state `id` of the same shared state
    /// (`γ(key) ⊆ γ(σ(id))` for some permutation `σ` within classes);
    /// equal automaton ids short-cut the language inclusion test.
    fn subsumed_by(&self, key: &[u32], id: u32) -> bool {
        let other = self.keys.key(id);
        self.symmetry.some_permutation(|t, u| {
            let (a, b) = (key[t + 1], other[u + 1]);
            a == b || language_subset(&self.dfas.get(a).to_nfa(), &self.dfas.get(b).to_nfa())
        })
    }

    /// Stores the canonical successor keyed `key`, weighed by its
    /// orbit, unless deduplicated/subsumed.
    fn register(&mut self, key: &[u32]) -> Result<(), ExploreError> {
        let empty = key[1..]
            .iter()
            .any(|&d| self.dfas.get(d).is_empty_language());
        if empty || self.keys.find(key).is_some() {
            return Ok(());
        }
        let q = SharedState(key[0]);
        if self.mode == SubsumptionMode::Pointwise {
            if let Some(ids) = self.by_shared.get(&q) {
                if ids.iter().any(|&id| self.subsumed_by(key, id)) {
                    return Ok(());
                }
            }
        }
        let weight = self.symmetry.weight(&key[1..]);
        if self.num_states.saturating_add(weight) > self.budget.max_symbolic_states {
            return Err(ExploreError::SymbolicBudgetExceeded {
                limit: self.budget.max_symbolic_states,
            });
        }
        let (id, _) = self.keys.insert(key);
        self.num_states += weight;
        self.by_shared.entry(q).or_default().push(id);
        Ok(())
    }

    /// Records the visible states of the whole orbit of stored state
    /// `id`: the orbits of `T(τ) = {q} × T(A1) × … × T(An)` (Eq. 4), in
    /// the order of [`SymbolicState::visible_states`], one canonical key
    /// each — unless the orbit of its `(q, [TopSetId; n])` was recorded
    /// before, which makes every one of them a repeat. Returns how many
    /// visible states were new, counting every orbit member.
    ///
    /// A product may hold millions of visible states, so the interrupt
    /// is polled every [`VISIBLE_POLL_INTERVAL`] keys; the caller rolls
    /// the round back when it fires.
    fn record_visible_states(
        &mut self,
        id: u32,
        interrupt: &Interrupt,
    ) -> Result<usize, ExploreError> {
        let key = self.keys.key(id);
        let mut top_key = Vec::with_capacity(key.len());
        top_key.push(key[0]);
        top_key.extend(key[1..].iter().map(|&d| self.dfas.top_set_of[d as usize]));
        // The product's order follows the representative's slots, which
        // do not depend on interning order; only the lookup sorts ids.
        let domains: Vec<&[u32]> = top_key[1..]
            .iter()
            .map(|&t| self.dfas.top_sets[t as usize].as_slice())
            .collect();
        self.symmetry.canonicalize_visible(&mut top_key);
        if !self.top_keys.insert(&top_key).1 {
            return Ok(0);
        }
        let (mut new, mut enumerated) = (0usize, 0usize);
        let mut visible = vec![0; top_key.len()];
        let store = &mut self.store;
        for_each_visible_key(SharedState(top_key[0]), &domains, |key| {
            enumerated += 1;
            if enumerated.is_multiple_of(VISIBLE_POLL_INTERVAL) {
                interrupt.check()?;
            }
            visible.copy_from_slice(key);
            new = new.saturating_add(store.record_visible_key(&mut visible));
            Ok(())
        })?;
        Ok(new)
    }

    /// Runs rounds until collapse or `max_k`, under `interrupt`;
    /// returns the final bound.
    ///
    /// # Errors
    ///
    /// Propagates budget exhaustion and interruption from
    /// [`advance`](Self::advance).
    pub fn run_until_collapse(
        &mut self,
        max_k: usize,
        interrupt: &Interrupt,
    ) -> Result<usize, ExploreError> {
        while !self.is_collapsed() && self.current_k() < max_k {
            self.advance(interrupt)?;
        }
        Ok(self.current_k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{CpdsBuilder, PdsBuilder, Stack};

    fn q(n: u32) -> SharedState {
        SharedState(n)
    }
    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    /// The CPDS of Fig. 1.
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

    /// The CPDS of Fig. 2 (foo/bar; does not satisfy FCR).
    /// Q = {⊥,0,1} encoded as {0,1,2}; Σ1 = {2,3,4,5}, Σ2 = {6,7,8,9}.
    fn fig2() -> Cpds {
        let bot = q(0);
        let x0 = q(1);
        let x1 = q(2);
        let mut p1 = PdsBuilder::new(3, 6);
        p1.overwrite(bot, s(2), x0, s(2)).unwrap(); // f0 (x := 0)
        p1.overwrite(bot, s(2), x1, s(2)).unwrap(); // f0 (x := 1)
        for x in [x0, x1] {
            p1.overwrite(x, s(2), x, s(3)).unwrap(); // f2a
            p1.overwrite(x, s(2), x, s(4)).unwrap(); // f2b
            p1.push(x, s(3), x, s(2), s(4)).unwrap(); // f3
            p1.pop(x, s(5), x1).unwrap(); // f5 (x := 1, return)
        }
        p1.overwrite(x1, s(4), x1, s(4)).unwrap(); // f4a spin while x
        p1.overwrite(x0, s(4), x0, s(5)).unwrap(); // f4b exit loop
        let mut p2 = PdsBuilder::new(3, 10);
        p2.overwrite(bot, s(6), x0, s(6)).unwrap(); // b0
        p2.overwrite(bot, s(6), x1, s(6)).unwrap(); // b0
        for x in [x0, x1] {
            p2.overwrite(x, s(6), x, s(7)).unwrap(); // b6a
            p2.overwrite(x, s(6), x, s(8)).unwrap(); // b6b
            p2.push(x, s(7), x, s(6), s(8)).unwrap(); // b7
            p2.pop(x, s(9), x0).unwrap(); // b9 (x := 0, return)
        }
        p2.overwrite(x0, s(8), x0, s(8)).unwrap(); // b8a spin while !x
        p2.overwrite(x1, s(8), x1, s(9)).unwrap(); // b8b exit loop
        CpdsBuilder::new(3, bot)
            .thread(p1.build().unwrap(), [s(2)])
            .thread(p2.build().unwrap(), [s(6)])
            .build()
            .unwrap()
    }

    #[test]
    fn singleton_contains_exactly_its_state() {
        let cpds = fig1();
        let init = cpds.initial_state();
        let tau = SymbolicState::singleton(&init);
        assert!(tau.contains(&init));
        let other = GlobalState::new(q(1), init.stacks.clone());
        assert!(!tau.contains(&other));
        assert!(!tau.is_empty());
        assert_eq!(tau.visible_states(), vec![init.visible()]);
    }

    #[test]
    fn symbolic_matches_explicit_on_fig1() {
        let cpds = fig1();
        let mut sym = SymbolicEngine::new(
            cpds.clone(),
            ExploreBudget::default(),
            SubsumptionMode::Exact,
        );
        let mut exp = crate::ExplicitEngine::new(cpds, ExploreBudget::default());
        for _ in 0..6 {
            sym.advance(&Interrupt::none()).unwrap();
            exp.advance(&Interrupt::none()).unwrap();
            // T(Sk) must equal T(Rk) at every bound.
            let sv: std::collections::HashSet<_> = sym.visible_total().collect();
            let ev: std::collections::HashSet<_> = exp.visible_total().collect();
            assert_eq!(sv, ev, "visible mismatch at k={}", sym.current_k());
        }
        // Every concrete state of R6 is covered symbolically.
        for state in exp.states() {
            assert!(sym.covers(&state), "symbolic misses {state}");
        }
    }

    #[test]
    fn symbolic_handles_fig2_where_explicit_cannot() {
        let cpds = fig2();
        // Explicit exploration must hit its budget (no FCR)…
        let mut exp = crate::ExplicitEngine::new(cpds.clone(), ExploreBudget::tiny());
        assert!(exp.advance(&Interrupt::none()).is_err());
        // …while the symbolic engine computes rounds without trouble.
        let mut sym = SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Exact);
        for _ in 0..3 {
            sym.advance(&Interrupt::none()).unwrap();
        }
        assert!(sym.num_visible() > 1);
    }

    #[test]
    fn fig2_collapses_like_example8() {
        // Ex. 8: R1 ⊊ R2 and R2 = R3 — the symbolic sequence collapses
        // by a small bound even though stacks are unbounded.
        let cpds = fig2();
        let mut sym = SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Exact);
        let k = sym.run_until_collapse(8, &Interrupt::none()).unwrap();
        assert!(sym.is_collapsed(), "expected collapse, got k={k}");
        assert!(k <= 6, "collapse bound too large: {k}");
    }

    #[test]
    fn covers_example8_state() {
        // ⟨1|4,9⟩ in the paper's encoding is ⟨x=1|4,9⟩ = our ⟨2|4,9⟩,
        // reachable within two contexts.
        let cpds = fig2();
        let mut sym = SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Exact);
        sym.advance(&Interrupt::none()).unwrap();
        sym.advance(&Interrupt::none()).unwrap();
        let state = GlobalState::new(
            q(2),
            vec![Stack::from_top_down([s(4)]), Stack::from_top_down([s(9)])],
        );
        assert!(sym.covers(&state));
    }

    #[test]
    fn pointwise_subsumption_never_grows_slower_than_exact() {
        let cpds = fig1();
        let mut exact = SymbolicEngine::new(
            cpds.clone(),
            ExploreBudget::default(),
            SubsumptionMode::Exact,
        );
        let mut pw =
            SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Pointwise);
        for _ in 0..5 {
            exact.advance(&Interrupt::none()).unwrap();
            pw.advance(&Interrupt::none()).unwrap();
            let pv: std::collections::HashSet<_> = pw.visible_total().collect();
            let xv: std::collections::HashSet<_> = exact.visible_total().collect();
            assert_eq!(pv, xv);
            assert!(pw.num_symbolic_states() <= exact.num_symbolic_states());
        }
    }

    #[test]
    fn symbolic_budget_error() {
        let cpds = fig2();
        let mut sym = SymbolicEngine::new(
            cpds,
            ExploreBudget {
                max_symbolic_states: 3,
                ..ExploreBudget::default()
            },
            SubsumptionMode::Exact,
        );
        let mut got_err = false;
        for _ in 0..4 {
            if sym.advance(&Interrupt::none()).is_err() {
                got_err = true;
                break;
            }
        }
        assert!(got_err);
    }

    #[test]
    fn advancing_after_collapse_is_noop() {
        // Single thread, single overwrite: collapses immediately.
        let mut p = PdsBuilder::new(2, 1);
        p.overwrite(q(0), s(0), q(1), s(0)).unwrap();
        let cpds = CpdsBuilder::new(2, q(0))
            .thread(p.build().unwrap(), [s(0)])
            .build()
            .unwrap();
        let mut sym = SymbolicEngine::new(cpds, ExploreBudget::default(), SubsumptionMode::Exact);
        let k = sym.run_until_collapse(10, &Interrupt::none()).unwrap();
        assert!(sym.is_collapsed());
        sym.advance(&Interrupt::none()).unwrap();
        let store = sym.store();
        assert_eq!(store.state_count_at(k + 1), store.state_count_at(k));
    }
}
