use std::collections::{HashMap, VecDeque};

use cuba_pds::{
    Cpds, GlobalState, KeyTable, SharedState, StackId, StackTable, ThreadId, VisibleState,
};

use crate::{ExploreBudget, ExploreError, Interrupt, LayerStore, Witness, WitnessStep};

/// How often (in explored states) the inner loops poll the
/// [`Interrupt`](crate::Interrupt): frequent enough that cancellation
/// is prompt, rare enough that the `Instant::now()` deadline reads
/// stay invisible in profiles.
pub(crate) const INTERRUPT_POLL_PERIOD: usize = 64;

/// Summary of one round (one new layer `Rk \ Rk−1`) of exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSummary {
    /// The context bound `k` of the freshly computed layer.
    pub k: usize,
    /// Number of global states new at bound `k`.
    pub new_states: usize,
    /// Number of visible states new at bound `k`.
    pub new_visible: usize,
}

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
/// ids. A context step rewrites one [`StackId`] and probes the key
/// table, so only a *new* state allocates: it is materialized once as
/// the [`GlobalState`] that [`states`](Self::states) returns.
///
/// Any discovered state yields a replayable [`Witness`] whose context
/// count is bounded by the state's layer (witnesses are reconstructed
/// per layer, one context at a time — see [`witness`](Self::witness)).
#[derive(Debug)]
pub struct ExplicitEngine {
    cpds: Cpds,
    budget: ExploreBudget,
    /// Every state in discovery order, materialized once.
    states: Vec<GlobalState>,
    layer_of_state: Vec<u32>,
    /// The interned stacks of every stored state.
    stacks: StackTable,
    /// State `id` is the key `(q, [StackId; n])` with that id.
    keys: KeyTable,
    /// The property-independent layer record (shared vocabulary with
    /// the symbolic engine; see [`LayerStore`]).
    store: LayerStore,
}

/// One round in progress: what it registered (for the layer record,
/// or for the rollback of a failed round) and the buffers its context
/// closures reuse.
#[derive(Debug)]
struct Round {
    /// The bound being computed.
    layer: u32,
    /// The first state id of this round (ids are append-only).
    start: u32,
    new_layer: Vec<u32>,
    new_visible: Vec<VisibleState>,
    queue: VecDeque<u32>,
    /// `in_context[id] == closure` iff state `id` is in the current
    /// closure's context set (a generation stamp, so the set is
    /// cleared by bumping `closure`).
    in_context: Vec<u32>,
    closure: u32,
    /// States expanded this round, across closures: the interrupt
    /// poll clock (a round of many tiny closures must poll too).
    expanded: usize,
    /// The key being rewritten into a successor's key.
    key: Vec<u32>,
}

impl Round {
    fn new(layer: u32, start: u32) -> Self {
        Round {
            layer,
            start,
            new_layer: Vec::new(),
            new_visible: Vec::new(),
            queue: VecDeque::new(),
            in_context: Vec::new(),
            closure: 0,
            expanded: 0,
            key: Vec::new(),
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
        let visible = init.visible();
        let mut engine = ExplicitEngine {
            stacks: StackTable::new(),
            keys: KeyTable::new(cpds.num_threads() + 1),
            cpds,
            budget,
            states: Vec::new(),
            layer_of_state: Vec::new(),
            store: LayerStore::new(visible),
        };
        engine.intern_state(init);
        engine
    }

    /// Rebuilds an engine from deserialized parts: the state table in
    /// discovery order plus an already-validated layer record. The
    /// interned keys and per-state layer bounds are derived, so a
    /// restored engine is indistinguishable from one that explored the
    /// same layers live.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency between the
    /// state table and the layer record, without echoing state content.
    pub(crate) fn from_parts(
        cpds: Cpds,
        budget: ExploreBudget,
        states: Vec<GlobalState>,
        store: LayerStore,
    ) -> Result<Self, String> {
        if states.len() != store.state_count_at(store.current_k()) {
            return Err("state table does not match the layer record".to_owned());
        }
        if states[0] != cpds.initial_state() {
            return Err("state 0 is not the initial state".to_owned());
        }
        let mut engine = ExplicitEngine {
            stacks: StackTable::new(),
            keys: KeyTable::new(cpds.num_threads() + 1),
            cpds,
            budget,
            states: Vec::with_capacity(states.len()),
            layer_of_state: Vec::with_capacity(states.len()),
            store,
        };
        for state in states {
            if !engine.intern_state(state) {
                return Err("duplicate global state in state table".to_owned());
            }
        }
        for k in 0..=engine.store.current_k() {
            for &id in engine.store.layer_ids(k) {
                engine.layer_of_state[id as usize] = k as u32;
            }
        }
        Ok(engine)
    }

    /// Interns and stores `state` at layer 0 (a restore fixes the
    /// layers up afterwards); `false`, storing nothing, when an equal
    /// state is already stored.
    fn intern_state(&mut self, state: GlobalState) -> bool {
        let mut key = Vec::with_capacity(self.keys.width());
        key.push(state.q.0);
        key.extend(state.stacks.iter().map(|w| self.stacks.intern(w).0));
        if !self.keys.insert(&key).1 {
            return false;
        }
        self.states.push(state);
        self.layer_of_state.push(0);
        true
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

    /// Total number of distinct global states found so far.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The states first reached at context bound `k` (`Rk \ Rk−1`).
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn layer(&self, k: usize) -> impl Iterator<Item = &GlobalState> + '_ {
        self.store
            .layer_ids(k)
            .iter()
            .map(|&id| &self.states[id as usize])
    }

    /// The visible states first seen at context bound `k`
    /// (`T(Rk) \ T(Rk−1)`, the right column of the paper's Fig. 1).
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn visible_layer(&self, k: usize) -> &[VisibleState] {
        self.store.visible_layer(k)
    }

    /// All visible states seen so far, `T(Rk)` for the current `k`.
    pub fn visible_total(&self) -> impl Iterator<Item = &VisibleState> + '_ {
        self.store.visible_iter()
    }

    /// Number of visible states seen so far, `|T(Rk)|`.
    pub fn num_visible(&self) -> usize {
        self.store.num_visible()
    }

    /// All states found so far (the extensional `Rk`).
    pub fn states(&self) -> &[GlobalState] {
        &self.states
    }

    /// Looks up the id of a discovered state. Read-only: walks the
    /// stack and key tables without interning anything.
    pub fn find(&self, state: &GlobalState) -> Option<u32> {
        if state.stacks.len() != self.cpds.num_threads() {
            return None;
        }
        let mut key = Vec::with_capacity(self.keys.width());
        key.push(state.q.0);
        for stack in &state.stacks {
            key.push(self.stacks.find(stack)?.0);
        }
        self.keys.find(&key)
    }

    /// The context bound at which a state id was first reached.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn layer_of(&self, id: u32) -> usize {
        self.layer_of_state[id as usize] as usize
    }

    /// Computes the next layer `Rk+1 \ Rk`.
    ///
    /// After a collapse this is a cheap no-op returning an empty layer
    /// summary, so drivers may keep calling it.
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
    pub fn advance(&mut self) -> Result<LayerSummary, ExploreError> {
        self.budget.interrupt.check()?;
        let k = self.store.current_k() + 1;
        if self.store.is_collapsed() {
            self.store
                .push_layer(Vec::new(), Vec::new(), self.states.len());
            return Ok(LayerSummary {
                k,
                new_states: 0,
                new_visible: 0,
            });
        }
        let frontier: Vec<u32> = self.store.layer_ids(k - 1).to_vec();
        cuba_telemetry::metrics::METRICS.waves.inc();
        cuba_telemetry::metrics::METRICS
            .frontier_edges
            .observe(frontier.len() as u64);
        let mut wave_span = cuba_telemetry::trace::span_args(
            "wave",
            vec![("k", k.into()), ("frontier", frontier.len().into())],
        );
        let mut round = Round::new(k as u32, self.states.len() as u32);
        for &start_id in &frontier {
            for thread in 0..self.cpds.num_threads() {
                if let Err(e) = self.context_closure(start_id, thread, &mut round) {
                    self.rollback(&round);
                    return Err(e);
                }
            }
        }

        let summary = LayerSummary {
            k,
            new_states: round.new_layer.len(),
            new_visible: round.new_visible.len(),
        };
        wave_span.arg("new_states", summary.new_states);
        drop(wave_span);
        let merge_start = std::time::Instant::now();
        let mut merge_span = cuba_telemetry::trace::span("merge");
        self.store
            .push_layer(round.new_layer, round.new_visible, self.states.len());
        merge_span.arg("states", summary.new_states);
        drop(merge_span);
        cuba_telemetry::metrics::stage_time(
            cuba_telemetry::metrics::Stage::Merge,
            merge_start.elapsed(),
        );
        Ok(summary)
    }

    /// Removes every state (ids `round.start..`) and visible state
    /// registered by a failed round. Stacks interned by the round stay
    /// in the stack table; no remaining key refers to them.
    fn rollback(&mut self, round: &Round) {
        let start = round.start as usize;
        self.states.truncate(start);
        self.layer_of_state.truncate(start);
        self.keys.truncate(start);
        self.store.rollback_round(&round.new_visible);
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
        // BFS over →_thread within this context. Entries are state ids;
        // every state in the closure is stored globally (it is reachable
        // with the same context count as the closure's results).
        round.next_closure(self.states.len());
        round.queue.push_back(start_id);
        round.enter(start_id);
        let mut explored = 0usize;
        let pds = self.cpds.thread(thread);
        let slot = thread + 1;

        while let Some(id) = round.queue.pop_front() {
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
            round.key.clear();
            round.key.extend_from_slice(self.keys.key(id));
            let q = SharedState(round.key[0]);
            let stack = StackId(round.key[slot]);
            for &action_idx in pds.actions_from(q, self.stacks.top(stack)) {
                let action = &pds.actions()[action_idx];
                let succ_stack = self.stacks.apply(stack, action);
                if self.stacks.depth(succ_stack) > self.budget.max_stack_depth {
                    return Err(ExploreError::StackDepthExceeded {
                        limit: self.budget.max_stack_depth,
                        thread,
                    });
                }
                round.key[0] = action.q_post.0;
                round.key[slot] = succ_stack.0;
                let succ_id = match self.keys.find(&round.key) {
                    Some(existing) => existing,
                    None => {
                        if self.states.len() >= self.budget.max_states {
                            return Err(ExploreError::StateBudgetExceeded {
                                limit: self.budget.max_states,
                            });
                        }
                        let (new_id, _) = self.keys.insert(&round.key);
                        let mut stacks = self.states[id as usize].stacks.clone();
                        stacks[thread] = self.stacks.to_stack(succ_stack);
                        let succ = GlobalState::new(action.q_post, stacks);
                        let visible = succ.visible();
                        self.states.push(succ);
                        self.layer_of_state.push(round.layer);
                        round.new_layer.push(new_id);
                        round.grow(self.states.len());
                        if self.store.record_visible(visible.clone()) {
                            round.new_visible.push(visible);
                        }
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
                    round.queue.push_back(succ_id);
                }
            }
        }
        Ok(())
    }

    /// Reconstructs a replayable witness path to a discovered state.
    ///
    /// The number of contexts of the returned path is at most the
    /// layer of the state: every layer-`k` state is, by construction
    /// of [`advance`](Self::advance), one thread-context away from a
    /// layer-`k−1` frontier state, so the path is rebuilt one context
    /// per layer. (Naively chaining discovery-time predecessor links
    /// would *not* give this bound: a state found by continuing a
    /// context through an already-known same-layer state would inherit
    /// that state's unrelated context history.)
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn witness(&self, id: u32) -> Witness {
        let mut suffix: Vec<WitnessStep> = Vec::new();
        let mut current = id;
        while self.layer_of(current) > 0 {
            let k = self.layer_of(current);
            let (frontier_id, mut context_steps) = self
                .context_predecessor(current, k - 1)
                .expect("layered invariant: one context from the previous frontier");
            context_steps.extend(std::mem::take(&mut suffix));
            suffix = context_steps;
            current = frontier_id;
        }
        Witness {
            start: self.states[current as usize].clone(),
            steps: suffix,
        }
    }

    /// Finds a frontier state of `layer` and a single-context path
    /// from it to `target_id`, by re-running one context closure with
    /// local path tracking.
    fn context_predecessor(&self, target_id: u32, layer: usize) -> Option<(u32, Vec<WitnessStep>)> {
        let target = &self.states[target_id as usize];
        for &start_id in self.store.layer_ids(layer) {
            for thread in 0..self.cpds.num_threads() {
                if let Some(steps) = self.local_context_path(start_id, thread, target) {
                    return Some((start_id, steps));
                }
            }
        }
        None
    }

    /// BFS over thread-`thread` steps from `start_id`, returning the
    /// step sequence to `target` if reachable within one context.
    fn local_context_path(
        &self,
        start_id: u32,
        thread: usize,
        target: &GlobalState,
    ) -> Option<Vec<WitnessStep>> {
        let start = &self.states[start_id as usize];
        if start == target {
            return Some(Vec::new());
        }
        let mut pred: HashMap<GlobalState, (GlobalState, usize)> = HashMap::new();
        let mut queue: VecDeque<GlobalState> = VecDeque::new();
        queue.push_back(start.clone());
        let mut explored = 0usize;
        while let Some(current) = queue.pop_front() {
            explored += 1;
            if explored > self.budget.max_states_per_context {
                return None;
            }
            let mut found = false;
            let mut next: Vec<(GlobalState, usize)> = Vec::new();
            self.cpds
                .successors_of_thread_into(&current, thread, &mut |succ, action_idx| {
                    next.push((succ, action_idx));
                });
            for (succ, action_idx) in next {
                if &succ != start && !pred.contains_key(&succ) {
                    pred.insert(succ.clone(), (current.clone(), action_idx));
                    if &succ == target {
                        found = true;
                        break;
                    }
                    queue.push_back(succ);
                }
            }
            if found {
                break;
            }
        }
        pred.contains_key(target).then(|| {
            let mut rev = Vec::new();
            let mut cur = target.clone();
            while &cur != start {
                let (p, action_idx) = pred[&cur].clone();
                rev.push(WitnessStep {
                    thread: ThreadId(thread),
                    action_idx,
                    state: cur.clone(),
                });
                cur = p;
            }
            rev.reverse();
            rev
        })
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
        engine.layer(k).cloned().collect()
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
                .map(|v| v.to_string())
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
        for _ in 0..20 {
            let summary = engine.advance().unwrap();
            // (Rk) never collapses for Fig. 1 (Ex. 15: R is infinite).
            assert!(
                summary.new_states > 0,
                "unexpected collapse at k={}",
                summary.k
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
                let id = engine.find(state).unwrap();
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
        let summary = engine.advance().unwrap();
        assert_eq!(summary.new_states, 0);
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
