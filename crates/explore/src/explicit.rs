use std::collections::{HashMap, VecDeque};

use cuba_pds::{
    top_code, Cpds, GlobalState, KeyTable, SharedState, StackId, StackTable, ThreadId, VisibleState,
};

use crate::symmetry::{permute, Symmetry};
use crate::{ExploreBudget, ExploreError, Interrupt, LayerStore, Witness, WitnessStep};

/// How often (in explored states) the inner loops poll the
/// [`Interrupt`](crate::Interrupt): frequent enough that cancellation
/// is prompt, rare enough that the `Instant::now()` deadline reads
/// stay invisible in profiles.
pub(crate) const INTERRUPT_POLL_PERIOD: usize = 64;

/// Explicit-state layered exploration of `R0 ⊆ R1 ⊆ …` (paper §4).
///
/// Each call to [`advance`](ExplicitEngine::advance) computes the next
/// layer `Rk \ Rk−1` by running every thread to completion (one full
/// context) from each frontier state — the inductive step in the proof
/// of Thm. 17. The frontier-only strategy is sound because a path with
/// `≤ k+1` contexts is a path with `≤ k` contexts followed by one
/// context (Lemma 7's layering).
///
/// States are interned: every stack is hash-consed in a
/// [`StackTable`], and a global state is the fixed-width key
/// `(q, [StackId; n])` in a [`KeyTable`] whose dense ids are the state
/// ids, and the only record of a stored state. A context step rewrites
/// one [`StackId`] and probes the key table, allocating nothing;
/// [`states`](Self::states), [`layer`](Self::layer) and witnesses
/// decode [`GlobalState`]s from the keys.
///
/// Interchangeable threads ([`Cpds::thread_classes`]) make every layer
/// closed under permuting their stacks, so the engine stores one
/// canonical representative per orbit: the state whose stacks are
/// sorted by content within each class. [`states`](Self::states) and
/// [`layer`](Self::layer) list representatives. Everything else stays
/// concrete: [`num_states`](Self::num_states), the layer record's
/// counts and the `max_states` budget count every member of every
/// stored orbit, and witnesses end at any requested member. The
/// projection of a new representative projects its whole orbit, so
/// the engine records that one visible key, which the layer record
/// keeps canonical for its visible orbit. A system without
/// interchangeable threads stores every state, in the same order as an
/// unreduced engine.
///
/// Any discovered state yields a replayable [`Witness`] whose context
/// count is bounded by the state's layer (witnesses are reconstructed
/// per layer, one context at a time — see [`witness`](Self::witness)).
#[derive(Debug)]
pub struct ExplicitEngine {
    cpds: Cpds,
    budget: ExploreBudget,
    /// The interchangeable threads, whose orbits share a stored state.
    symmetry: Symmetry,
    /// The interned stacks of every stored state.
    stacks: StackTable,
    /// State `id` is the key `(q, [StackId; n])` with that id.
    keys: KeyTable,
    /// The concrete number of states: the orbit sizes of the stored
    /// states, summed.
    num_states: usize,
    /// The property-independent layer record (shared vocabulary with
    /// the symbolic engine; see [`LayerStore`]).
    store: LayerStore,
}

/// One round in progress: what it registered (for the layer record,
/// or for the rollback of a failed round) and the buffers its context
/// closures reuse.
#[derive(Debug)]
struct Round {
    /// The first state id of this round (ids are append-only).
    start: u32,
    /// Visible states first seen this round.
    new_visible: usize,
    /// Entries `(state id, running thread)`: a context keeps running
    /// the thread that holds its stack, wherever the canonical order
    /// moves that stack within its class.
    queue: VecDeque<(u32, u32)>,
    /// `in_context[id] == closure` iff state `id` is in the current
    /// closure's context set (a generation stamp, so the set is
    /// cleared by bumping `closure`). A context leaves every stack but
    /// the running thread's as it found it, so a representative in it
    /// determines which stack runs: the stamp needs no thread.
    in_context: Vec<u32>,
    closure: u32,
    /// States expanded this round, across closures: the interrupt
    /// poll clock (a round of many tiny closures must poll too).
    expanded: usize,
    /// The key being rewritten into a successor's key.
    key: Vec<u32>,
}

impl Round {
    fn new(start: u32, key_width: usize) -> Self {
        Round {
            start,
            new_visible: 0,
            queue: VecDeque::new(),
            in_context: Vec::new(),
            closure: 0,
            expanded: 0,
            key: vec![0; key_width],
        }
    }

    /// Starts the next closure with an empty context set.
    fn next_closure(&mut self, num_states: usize) {
        self.closure = self.closure.wrapping_add(1);
        if self.closure == 0 {
            self.in_context.iter_mut().for_each(|stamp| *stamp = 0);
            self.closure = 1;
        }
        self.queue.clear();
        self.grow(num_states);
    }

    fn grow(&mut self, num_states: usize) {
        if self.in_context.len() < num_states {
            self.in_context.resize(num_states, 0);
        }
    }

    /// Adds `id` to the context set; `true` when it was not in it.
    fn enter(&mut self, id: u32) -> bool {
        let stamp = &mut self.in_context[id as usize];
        let fresh = *stamp != self.closure;
        *stamp = self.closure;
        fresh
    }
}

impl ExplicitEngine {
    /// Creates an engine positioned at `R0 = {initial state}`.
    pub fn new(cpds: Cpds, budget: ExploreBudget) -> Self {
        let init = cpds.initial_state();
        let store = LayerStore::for_system(&cpds);
        let mut engine = ExplicitEngine {
            symmetry: store.symmetry().clone(),
            stacks: StackTable::new(),
            keys: KeyTable::new(cpds.num_threads() + 1),
            store,
            cpds,
            budget,
            num_states: 0,
        };
        // Interchangeable threads start on equal stacks, so the initial
        // state is its own orbit and already canonical.
        engine.intern_state(&init);
        engine.num_states = 1;
        engine
    }

    /// Rebuilds an engine from deserialized parts: the state table in
    /// discovery order plus an already-validated layer record. The
    /// interned keys and the concrete state counts are derived, so a
    /// restored engine is indistinguishable from one that explored the
    /// same layers live.
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
        states: Vec<GlobalState>,
        store: LayerStore,
    ) -> Result<Self, String> {
        if states.len() != store.layer_ids(store.current_k()).end as usize {
            return Err("state table does not match the layer record".to_owned());
        }
        if states[0] != cpds.initial_state() {
            return Err("state 0 is not the initial state".to_owned());
        }
        let mut engine = ExplicitEngine {
            symmetry: store.symmetry().clone(),
            stacks: StackTable::new(),
            keys: KeyTable::new(cpds.num_threads() + 1),
            cpds,
            budget,
            num_states: 0,
            store,
        };
        for state in &states {
            if !engine.intern_state(state) {
                return Err("duplicate global state in state table".to_owned());
            }
        }
        let (keys, symmetry) = (&engine.keys, &engine.symmetry);
        if (0..keys.len() as u32)
            .any(|id| !symmetry.is_canonical(&engine.stacks, &keys.key(id)[1..]))
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

    /// Interns and stores `state`; `false`, storing nothing, when an
    /// equal state is already stored.
    fn intern_state(&mut self, state: &GlobalState) -> bool {
        let mut key = Vec::with_capacity(self.keys.width());
        key.push(state.q.0);
        key.extend(state.stacks.iter().map(|w| self.stacks.intern(w).0));
        self.keys.insert(&key).1
    }

    /// Decodes the state keyed `(q, [StackId; n])`.
    fn decode(&self, key: &[u32]) -> GlobalState {
        let stacks = key[1..].iter().map(|&s| self.stacks.to_stack(StackId(s)));
        GlobalState::new(SharedState(key[0]), stacks.collect())
    }

    /// The orbit size of stored state `id`.
    fn weight(&self, id: u32) -> usize {
        self.symmetry.weight(&self.keys.key(id)[1..])
    }

    /// The CPDS being explored.
    pub fn cpds(&self) -> &Cpds {
        &self.cpds
    }

    /// The highest context bound computed so far.
    pub fn current_k(&self) -> usize {
        self.store.current_k()
    }

    /// Whether the sequence has collapsed (`Rk = Rk+1`); by Lemma 7
    /// this means `Rk = R` and further rounds add nothing.
    pub fn is_collapsed(&self) -> bool {
        self.store.is_collapsed()
    }

    /// The bound-indexed layer record.
    pub fn store(&self) -> &LayerStore {
        &self.store
    }

    /// Replaces the interrupt wiring of the engine's budget (a
    /// [`SharedExplorer`](crate::SharedExplorer) installs each caller's
    /// interrupt for the duration of its request).
    pub fn set_interrupt(&mut self, interrupt: Interrupt) {
        self.budget.interrupt = interrupt;
    }

    /// Total number of distinct global states found so far, `|Rk|`:
    /// every member of every stored orbit.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The representatives of the states first reached at context
    /// bound `k` (`Rk \ Rk−1`, one state per orbit), decoded.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn layer(&self, k: usize) -> impl Iterator<Item = GlobalState> + '_ {
        self.store
            .layer_ids(k)
            .map(|id| self.decode(self.keys.key(id)))
    }

    /// The visible states first seen at context bound `k`
    /// (`T(Rk) \ T(Rk−1)`, the right column of the paper's Fig. 1),
    /// decoded from the layer record's keys.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn visible_layer(&self, k: usize) -> Vec<VisibleState> {
        self.store.visible_layer(k)
    }

    /// All visible states seen so far, `T(Rk)` for the current `k`.
    pub fn visible_total(&self) -> impl Iterator<Item = VisibleState> + '_ {
        self.store.visible_iter()
    }

    /// Number of visible states seen so far, `|T(Rk)|`.
    pub fn num_visible(&self) -> usize {
        self.store.num_visible()
    }

    /// The stored states, one representative per orbit, in discovery
    /// order (the extensional `Rk` up to thread symmetry), decoded.
    pub fn states(&self) -> Vec<GlobalState> {
        (0..self.keys.len() as u32)
            .map(|id| self.decode(self.keys.key(id)))
            .collect()
    }

    /// The first state of layer `k`, in discovery and then orbit order,
    /// whose visible key (see [`VisibleState::key`]) `wanted` accepts;
    /// only that state is decoded.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn find_in_layer(
        &self,
        k: usize,
        mut wanted: impl FnMut(&[u32]) -> bool,
    ) -> Option<GlobalState> {
        let mut visible = vec![0; self.keys.width()];
        self.store.layer_ids(k).find_map(|id| {
            let mut key = self.keys.key(id).to_vec();
            visible[0] = key[0];
            let found = self.symmetry.for_each_arrangement(&mut key, |member| {
                for (top, &stack) in visible[1..].iter_mut().zip(&member[1..]) {
                    *top = top_code(self.stacks.top(StackId(stack)));
                }
                if wanted(&visible) {
                    Err(self.decode(member))
                } else {
                    Ok(())
                }
            });
            found.err()
        })
    }

    /// Looks up the id of the stored representative of `state`'s
    /// orbit. Read-only: walks the stack and key tables without
    /// interning anything.
    pub fn find(&self, state: &GlobalState) -> Option<u32> {
        if state.stacks.len() != self.cpds.num_threads() {
            return None;
        }
        let mut key = Vec::with_capacity(self.keys.width());
        key.push(state.q.0);
        for stack in &state.stacks {
            key.push(self.stacks.find(stack)?.0);
        }
        self.symmetry.canonicalize(&self.stacks, &mut key[1..]);
        self.keys.find(&key)
    }

    /// The context bound at which a state id was first reached.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn layer_of(&self, id: u32) -> usize {
        self.store.layer_of(id)
    }

    /// Computes the next layer `Rk+1 \ Rk`.
    ///
    /// After a collapse this is a cheap no-op pushing an empty layer,
    /// so drivers may keep calling it.
    ///
    /// The round is *transactional*: on any error (budget exhaustion,
    /// cancellation, deadline) every state and visible-state
    /// registration of the failed round is rolled back, so the engine
    /// is left exactly at the previous bound and `advance` may be
    /// retried — the guarantee that lets a
    /// [`SharedExplorer`](crate::SharedExplorer) survive one caller's
    /// interruption without poisoning the layers for everyone else.
    ///
    /// # Errors
    ///
    /// Returns an [`ExploreError`] when a budget is exhausted, which
    /// on the paper's benchmarks signals an FCR violation — switch to
    /// the symbolic engine in that case (§6 overall procedure).
    pub fn advance(&mut self) -> Result<(), ExploreError> {
        self.budget.interrupt.check()?;
        let k = self.store.current_k() + 1;
        if self.store.is_collapsed() {
            self.store
                .push_layer(self.keys.len() as u32, 0, self.num_states);
            return Ok(());
        }
        let frontier = self.store.layer_ids(k - 1);
        cuba_telemetry::metrics::METRICS.waves.inc();
        cuba_telemetry::metrics::METRICS
            .frontier_edges
            .observe(frontier.len() as u64);
        let mut wave_span = cuba_telemetry::trace::span_args(
            "wave",
            vec![("k", k.into()), ("frontier", frontier.len().into())],
        );
        let before = self.num_states;
        let mut round = Round::new(self.keys.len() as u32, self.keys.width());
        for start_id in frontier {
            for thread in 0..self.cpds.num_threads() {
                // A twin's contexts mirror an earlier thread's, whose
                // closure already stored their representatives.
                if self
                    .symmetry
                    .earlier_twin(&self.keys.key(start_id)[1..], thread)
                    .is_some()
                {
                    continue;
                }
                if let Err(e) = self.context_closure(start_id, thread, &mut round) {
                    self.rollback(&round);
                    return Err(e);
                }
            }
        }

        let new_states = self.num_states - before;
        wave_span.arg("new_states", new_states);
        drop(wave_span);
        let merge_start = std::time::Instant::now();
        let mut merge_span = cuba_telemetry::trace::span("merge");
        self.store
            .push_layer(self.keys.len() as u32, round.new_visible, self.num_states);
        merge_span.arg("states", new_states);
        drop(merge_span);
        cuba_telemetry::metrics::stage_time(
            cuba_telemetry::metrics::Stage::Merge,
            merge_start.elapsed(),
        );
        Ok(())
    }

    /// Removes every state (ids `round.start..`) and visible state
    /// registered by a failed round. Stacks interned by the round stay
    /// in the stack table; no remaining key refers to them.
    fn rollback(&mut self, round: &Round) {
        for id in round.start..self.keys.len() as u32 {
            self.num_states -= self.weight(id);
        }
        self.keys.truncate(round.start as usize);
        self.store.rollback_round();
    }

    /// Runs thread `thread` to completion from `start_id` (one full
    /// context), registering every state not seen before. States of
    /// this round carry ids `≥ round.start`.
    fn context_closure(
        &mut self,
        start_id: u32,
        thread: usize,
        round: &mut Round,
    ) -> Result<(), ExploreError> {
        // BFS over →_thread within this context. Entries are state ids
        // and the thread running the context in that representative;
        // every state in the closure is stored globally (it is
        // reachable with the same context count as the closure's
        // results).
        round.next_closure(self.keys.len());
        round.queue.push_back((start_id, thread as u32));
        round.enter(start_id);
        let mut explored = 0usize;
        // The running thread only moves within its class, whose
        // threads share one program.
        let pds = self.cpds.thread(thread);

        while let Some((id, running)) = round.queue.pop_front() {
            explored += 1;
            if explored > self.budget.max_states_per_context {
                return Err(ExploreError::ContextBudgetExceeded {
                    limit: self.budget.max_states_per_context,
                    thread,
                });
            }
            // Poll inside the closure so a diverging context (FCR
            // violation) still honors cancellation and deadlines —
            // counting across the round, so a round of many short
            // closures does as well.
            round.expanded += 1;
            if round.expanded.is_multiple_of(INTERRUPT_POLL_PERIOD) {
                self.budget.interrupt.check()?;
            }
            let running = running as usize;
            let q = SharedState(self.keys.key(id)[0]);
            let stack = StackId(self.keys.key(id)[running + 1]);
            for &action_idx in pds.actions_from(q, self.stacks.top(stack)) {
                let action = &pds.actions()[action_idx];
                let succ_stack = self.stacks.apply(stack, action);
                if self.stacks.depth(succ_stack) > self.budget.max_stack_depth {
                    return Err(ExploreError::StackDepthExceeded {
                        limit: self.budget.max_stack_depth,
                        thread,
                    });
                }
                round.key.copy_from_slice(self.keys.key(id));
                round.key[0] = action.q_post.0;
                round.key[running + 1] = succ_stack.0;
                let succ_running = self
                    .symmetry
                    .resort(&self.stacks, &mut round.key[1..], running);
                let succ_id = match self.keys.find(&round.key) {
                    Some(existing) => existing,
                    None => {
                        let weight = self.symmetry.weight(&round.key[1..]);
                        if self.num_states.saturating_add(weight) > self.budget.max_states {
                            return Err(ExploreError::StateBudgetExceeded {
                                limit: self.budget.max_states,
                            });
                        }
                        let (new_id, _) = self.keys.insert(&round.key);
                        self.num_states += weight;
                        round.grow(self.keys.len());
                        for slot in &mut round.key[1..] {
                            *slot = top_code(self.stacks.top(StackId(*slot)));
                        }
                        round.new_visible = round
                            .new_visible
                            .saturating_add(self.store.record_visible_key(&mut round.key));
                        new_id
                    }
                };
                // Continue the context from states that entered the
                // current layer (whether in this closure or an earlier
                // one of the same round — ids are append-only, so
                // `id ≥ round.start` is exactly that test). States from
                // older layers were already run to completion under
                // every thread when their own layer was the frontier,
                // so stopping there loses nothing and keeps each round
                // linear.
                if round.enter(succ_id) && succ_id >= round.start {
                    round.queue.push_back((succ_id, succ_running as u32));
                }
            }
        }
        Ok(())
    }

    /// Reconstructs a replayable witness path to stored state `id`
    /// (see [`witness_to`](Self::witness_to)).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn witness(&self, id: u32) -> Witness {
        self.witness_to(&self.decode(self.keys.key(id)))
            .expect("layered invariant: one context from the previous frontier")
    }

    /// Reconstructs a replayable witness path to `state`, any member
    /// of a stored orbit; `None` when no stored orbit holds it.
    ///
    /// The number of contexts of the returned path is at most the
    /// layer of the state: every layer-`k` state is, by construction
    /// of [`advance`](Self::advance), one thread-context away from a
    /// layer-`k−1` frontier state, so the path is rebuilt one context
    /// per layer. (Naively chaining discovery-time predecessor links
    /// would *not* give this bound: a state found by continuing a
    /// context through an already-known same-layer state would inherit
    /// that state's unrelated context history.) A context found from a
    /// representative may end anywhere in the target's orbit; the
    /// permutation that maps its end onto the target maps its steps,
    /// threads and start too, so the path ends exactly at `state`.
    pub fn witness_to(&self, state: &GlobalState) -> Option<Witness> {
        let mut suffix: Vec<WitnessStep> = Vec::new();
        let mut current = state.clone();
        loop {
            let id = self.find(&current)?;
            let k = self.layer_of(id);
            if k == 0 {
                // The initial state is its own orbit.
                return Some(Witness {
                    start: current,
                    steps: suffix,
                });
            }
            let (start, mut context_steps) = self.context_predecessor(&current, id, k)?;
            context_steps.extend(std::mem::take(&mut suffix));
            suffix = context_steps;
            current = start;
        }
    }

    /// Finds a state of layer `k − 1` and a single-context path from
    /// it to `target` (stored as `target_id`, in layer `k`), by
    /// re-running context closures from the frontier representatives
    /// with local path tracking.
    fn context_predecessor(
        &self,
        target: &GlobalState,
        target_id: u32,
        k: usize,
    ) -> Option<(GlobalState, Vec<WitnessStep>)> {
        for start_id in self.store.layer_ids(k - 1) {
            let start = self.decode(self.keys.key(start_id));
            for thread in 0..self.cpds.num_threads() {
                let Some(steps) = self.local_context_path(&start, thread, target_id, k) else {
                    continue;
                };
                let end = &steps.last()?.state;
                let sigma = self.symmetry.matching(end, target)?;
                let steps = steps
                    .iter()
                    .map(|step| WitnessStep {
                        thread: ThreadId(sigma[step.thread.0]),
                        action_idx: step.action_idx,
                        state: permute(&sigma, &step.state),
                    })
                    .collect();
                return Some((permute(&sigma, &start), steps));
            }
        }
        None
    }

    /// BFS over thread-`thread` steps from stored state `start`,
    /// returning the step sequence to the first member of stored
    /// orbit `target_id` it reaches within one context. Like the
    /// round's closure, the search continues only through states first
    /// reached at the target's layer `k`, so it never explores more
    /// than that closure did.
    fn local_context_path(
        &self,
        start: &GlobalState,
        thread: usize,
        target_id: u32,
        k: usize,
    ) -> Option<Vec<WitnessStep>> {
        let mut pred: HashMap<GlobalState, (GlobalState, usize)> = HashMap::new();
        let mut queue: VecDeque<GlobalState> = VecDeque::new();
        queue.push_back(start.clone());
        let mut found = None;
        while let Some(current) = queue.pop_front() {
            let mut next: Vec<(GlobalState, usize)> = Vec::new();
            self.cpds
                .successors_of_thread_into(&current, thread, &mut |succ, action_idx| {
                    next.push((succ, action_idx));
                });
            for (succ, action_idx) in next {
                if &succ == start || pred.contains_key(&succ) {
                    continue;
                }
                let Some(id) = self.find(&succ) else {
                    continue;
                };
                if self.layer_of(id) != k {
                    continue;
                }
                pred.insert(succ.clone(), (current.clone(), action_idx));
                if id == target_id {
                    found = Some(succ);
                    break;
                }
                queue.push_back(succ);
            }
            if found.is_some() {
                break;
            }
        }
        let mut cur = found?;
        let mut rev = Vec::new();
        while &cur != start {
            let (p, action_idx) = pred[&cur].clone();
            rev.push(WitnessStep {
                thread: ThreadId(thread),
                action_idx,
                state: cur,
            });
            cur = p;
        }
        rev.reverse();
        Some(rev)
    }

    /// Runs rounds until collapse or until `max_k` rounds have been
    /// computed; returns the final context bound reached.
    ///
    /// # Errors
    ///
    /// Propagates budget exhaustion from [`advance`](Self::advance).
    pub fn run_until_collapse(&mut self, max_k: usize) -> Result<usize, ExploreError> {
        while !self.is_collapsed() && self.current_k() < max_k {
            self.advance()?;
        }
        Ok(self.current_k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, Stack, StackSym};
    use std::collections::HashSet;

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

    fn gs(qq: u32, w1: &[u32], w2: &[u32]) -> GlobalState {
        GlobalState::new(
            q(qq),
            vec![
                Stack::from_top_down(w1.iter().map(|&x| s(x))),
                Stack::from_top_down(w2.iter().map(|&x| s(x))),
            ],
        )
    }

    fn layer_set(engine: &ExplicitEngine, k: usize) -> HashSet<GlobalState> {
        engine.layer(k).collect()
    }

    #[test]
    fn fig1_layer_zero_is_initial() {
        let engine = ExplicitEngine::new(fig1(), ExploreBudget::default());
        assert_eq!(layer_set(&engine, 0), HashSet::from([gs(0, &[1], &[4])]));
        assert_eq!(engine.num_visible(), 1);
    }

    /// The exact reachability table of Fig. 1 (left column), k = 1..6.
    #[test]
    fn fig1_reachability_table() {
        let mut engine = ExplicitEngine::new(fig1(), ExploreBudget::default());
        for _ in 0..6 {
            engine.advance().unwrap();
        }
        assert_eq!(
            layer_set(&engine, 1),
            HashSet::from([gs(1, &[2], &[4]), gs(0, &[1], &[])])
        );
        assert_eq!(
            layer_set(&engine, 2),
            HashSet::from([gs(2, &[2], &[5]), gs(3, &[2], &[4, 6]), gs(1, &[2], &[])])
        );
        assert_eq!(
            layer_set(&engine, 3),
            HashSet::from([gs(0, &[1], &[4, 6]), gs(1, &[2], &[4, 6])])
        );
        assert_eq!(
            layer_set(&engine, 4),
            HashSet::from([
                gs(0, &[1], &[6]),
                gs(2, &[2], &[5, 6]),
                gs(3, &[2], &[4, 6, 6])
            ])
        );
        assert_eq!(
            layer_set(&engine, 5),
            HashSet::from([
                gs(0, &[1], &[4, 6, 6]),
                gs(1, &[2], &[4, 6, 6]),
                gs(1, &[2], &[6])
            ])
        );
        assert_eq!(
            layer_set(&engine, 6),
            HashSet::from([
                gs(0, &[1], &[6, 6]),
                gs(2, &[2], &[5, 6, 6]),
                gs(3, &[2], &[4, 6, 6, 6])
            ])
        );
    }

    /// The visible-state table of Fig. 1 (right column).
    #[test]
    fn fig1_visible_table() {
        let mut engine = ExplicitEngine::new(fig1(), ExploreBudget::default());
        for _ in 0..6 {
            engine.advance().unwrap();
        }
        let vl = |k: usize| -> HashSet<String> {
            engine
                .visible_layer(k)
                .iter()
                .map(VisibleState::to_string)
                .collect()
        };
        assert_eq!(vl(0), HashSet::from(["<0|1,4>".to_owned()]));
        assert_eq!(
            vl(1),
            HashSet::from(["<1|2,4>".to_owned(), "<0|1,eps>".to_owned()])
        );
        assert_eq!(
            vl(2),
            HashSet::from([
                "<2|2,5>".to_owned(),
                "<3|2,4>".to_owned(),
                "<1|2,eps>".to_owned()
            ])
        );
        assert_eq!(vl(3), HashSet::new()); // plateau at k = 2
        assert_eq!(vl(4), HashSet::from(["<0|1,6>".to_owned()]));
        assert_eq!(vl(5), HashSet::from(["<1|2,6>".to_owned()]));
        assert_eq!(vl(6), HashSet::new()); // T collapses at k = 5
    }

    #[test]
    fn fig1_rk_diverges_but_layers_stay_finite() {
        let mut engine = ExplicitEngine::new(fig1(), ExploreBudget::default());
        for k in 1..=20 {
            engine.advance().unwrap();
            // (Rk) never collapses for Fig. 1 (Ex. 15: R is infinite).
            let store = engine.store();
            assert!(
                store.state_count_at(k) > store.state_count_at(k - 1),
                "unexpected collapse at k={k}"
            );
        }
        assert!(!engine.is_collapsed());
    }

    #[test]
    fn witness_paths_replay() {
        let mut engine = ExplicitEngine::new(fig1(), ExploreBudget::default());
        for _ in 0..4 {
            engine.advance().unwrap();
        }
        let target = gs(0, &[1], &[6]);
        let id = engine.find(&target).expect("reached at k=4");
        let w = engine.witness(id);
        assert!(w.replay(engine.cpds()));
        assert_eq!(w.end(), &target);
        assert!(w.num_contexts() <= 4);
    }

    #[test]
    fn witness_contexts_bounded_by_layer() {
        let mut engine = ExplicitEngine::new(fig1(), ExploreBudget::default());
        for _ in 0..5 {
            engine.advance().unwrap();
        }
        for k in 0..=5usize {
            for state in engine.layer(k) {
                let id = engine.find(&state).unwrap();
                let w = engine.witness(id);
                assert!(w.replay(engine.cpds()));
                assert!(
                    w.num_contexts() <= k,
                    "state {state} in layer {k} got witness with {} contexts",
                    w.num_contexts()
                );
            }
        }
    }

    /// A single-thread system that pushes forever within one context
    /// violates the per-context budget (FCR failure signature).
    #[test]
    fn budget_stops_infinite_context() {
        let mut p = PdsBuilder::new(1, 1);
        p.push(q(0), s(0), q(0), s(0), s(0)).unwrap();
        let cpds = CpdsBuilder::new(1, q(0))
            .thread(p.build().unwrap(), [s(0)])
            .build()
            .unwrap();
        let mut engine = ExplicitEngine::new(cpds, ExploreBudget::tiny());
        let err = engine.advance().unwrap_err();
        assert!(matches!(
            err,
            ExploreError::StackDepthExceeded { .. } | ExploreError::ContextBudgetExceeded { .. }
        ));
    }

    #[test]
    fn collapse_on_finite_system() {
        // Two threads that each overwrite once and stop.
        let mut p = PdsBuilder::new(2, 2);
        p.overwrite(q(0), s(0), q(1), s(1)).unwrap();
        let pds = p.build().unwrap();
        let cpds = CpdsBuilder::new(2, q(0))
            .threads(&pds, [s(0)], 2)
            .build()
            .unwrap();
        let mut engine = ExplicitEngine::new(cpds, ExploreBudget::default());
        let k = engine.run_until_collapse(50).unwrap();
        assert!(engine.is_collapsed());
        assert!(k <= 3, "collapsed at k={k}");
        // R = {<0|0,0>, <1|1,0>} — thread 2's action is enabled only at
        // q1 … which thread 1 reaches first; then thread 2 overwrites.
        assert_eq!(engine.num_states(), 3);
        // Advancing after collapse stays a no-op.
        engine.advance().unwrap();
        assert_eq!(engine.store().state_count_at(k + 1), 3);
    }

    #[test]
    fn layer_of_reports_first_bound() {
        let mut engine = ExplicitEngine::new(fig1(), ExploreBudget::default());
        engine.advance().unwrap();
        engine.advance().unwrap();
        let id = engine.find(&gs(1, &[2], &[4])).unwrap();
        assert_eq!(engine.layer_of(id), 1);
    }
}
