//! The property-independent layer store shared by both exploration
//! backends.
//!
//! CUBA's observation sequences (`(Rk)`, `(Sk)`, and their visible
//! projections) are a function of the *system* alone — a property only
//! inspects them. [`LayerStore`] is exactly that system-side record:
//! where each layer's state ids begin and end, the visible states in
//! first-seen order (hence the per-bound *new* ones and the first-seen
//! bound of each), cumulative growth logs, and collapse detection.
//! [`ExplicitEngine`] and [`SymbolicEngine`] both maintain one, which
//! is what lets a [`SharedExplorer`] replay already-computed bounds for
//! any number of property checkers.
//!
//! Under thread symmetry every `T(Rk)` and `T(Sk)` is closed under
//! permuting interchangeable threads ([`Cpds::thread_classes`]), so the
//! record keeps one *canonical visible key* per visible orbit (its tops
//! sorted by top code within each class) and weighs it by its orbit
//! size. Every count stays concrete; probes are canonicalized before
//! they are looked up, and readers of concrete visible states expand
//! the orbits on read. A system without interchangeable threads has
//! nothing to sort: each visible state is its own orbit.
//!
//! [`ExplicitEngine`]: crate::ExplicitEngine
//! [`SymbolicEngine`]: crate::SymbolicEngine
//! [`SharedExplorer`]: crate::SharedExplorer

use cuba_pds::{Cpds, KeyTable, VisibleState};

use std::convert::Infallible;
use std::ops::Range;

use crate::symmetry::Symmetry;

/// Append-only record of a layered exploration: which state ids were
/// first reached at each context bound, which visible states were
/// first seen there, cumulative sizes per bound, and where (if
/// anywhere) the sequence collapsed.
///
/// All queries are *bound-indexed*, so a checker replaying bound `k`
/// sees exactly the data a fresh engine would have produced at `k`,
/// even when the store has since been extended past `k`.
///
/// Engines number states in discovery order and round `k` adds exactly
/// `Rk \ Rk−1` (Lemma 7), so layer `k` is the ids between the stored
/// counts of bounds `k − 1` and `k`; no id list is kept.
///
/// Visible states are kept once per orbit of interchangeable threads,
/// as the canonical key `(q, [top code; n])` ([`VisibleState::key`],
/// tops sorted within each class), numbered in first-seen order. So
/// the orbits first seen at bound `k` are the key ids between the
/// stored key counts of bounds `k − 1` and `k`, the first-seen bound
/// of a state is the first bound whose stored key count exceeds the id
/// of its canonical key, and a failed round is undone by truncating the
/// key table to the last sealed count. The concrete counts sum the
/// orbit sizes. Readers that want [`VisibleState`]s get every member of
/// every orbit, decoded on read.
#[derive(Debug)]
pub struct LayerStore {
    /// Stored states after each bound: layer `k` is the state ids
    /// `stored_counts[k − 1]..stored_counts[k]`.
    stored_counts: Vec<u32>,
    /// The interchangeable threads, whose visible orbits share a key.
    symmetry: Symmetry,
    /// The canonical key of every visible orbit seen so far, in
    /// first-seen order: those of the sealed layers, then those of the
    /// round in progress.
    visible_keys: KeyTable,
    /// Stored visible keys after each bound.
    key_counts: Vec<u32>,
    /// Cumulative states after each bound (the `|Rk|`/`|Sk|` growth
    /// log), counting every member of a stored orbit.
    state_counts: Vec<usize>,
    /// Cumulative visible states after each bound (the `|T(Rk)|`
    /// growth log), counting every member of a stored visible orbit.
    visible_counts: Vec<usize>,
    /// Visible states seen so far, the round in progress included,
    /// counting every member of a stored visible orbit.
    num_visible: usize,
    /// First bound whose layer came up empty (`Rk = Rk−1`), if any.
    collapsed_at: Option<usize>,
}

impl LayerStore {
    /// A store positioned at layer 0 = `{initial state}` (id 0) with
    /// the given visible projection, in which each visible state is its
    /// own orbit.
    pub fn new(initial_visible: VisibleState) -> Self {
        let symmetry = Symmetry::of_classes(Vec::new(), initial_visible.num_threads());
        LayerStore::with_symmetry(initial_visible, symmetry)
    }

    /// A store positioned at layer 0 of `cpds`, keeping one key per
    /// orbit of its interchangeable threads.
    pub(crate) fn for_system(cpds: &Cpds) -> Self {
        LayerStore::with_symmetry(cpds.initial_state().visible(), Symmetry::new(cpds))
    }

    /// The interchangeable threads whose visible orbits share a key.
    pub(crate) fn symmetry(&self) -> &Symmetry {
        &self.symmetry
    }

    /// Interchangeable threads start on equal stacks, so the initial
    /// visible state is its own orbit and already canonical.
    fn with_symmetry(initial_visible: VisibleState, symmetry: Symmetry) -> Self {
        let key = initial_visible.key();
        let mut visible_keys = KeyTable::new(key.len());
        visible_keys.insert(&key);
        LayerStore {
            stored_counts: vec![1],
            symmetry,
            visible_keys,
            key_counts: vec![1],
            state_counts: vec![1],
            visible_counts: vec![1],
            num_visible: 1,
            collapsed_at: None,
        }
    }

    /// The highest context bound recorded so far.
    pub fn current_k(&self) -> usize {
        self.stored_counts.len() - 1
    }

    /// Ids of the states first reached at bound `k`.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn layer_ids(&self, k: usize) -> Range<u32> {
        let start = k.checked_sub(1).map_or(0, |j| self.stored_counts[j]);
        start..self.stored_counts[k]
    }

    /// The bound at which stored state `id` was first reached.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the id of a state of a computed layer.
    pub fn layer_of(&self, id: u32) -> usize {
        let k = self.stored_counts.partition_point(|&c| c <= id);
        assert!(k < self.stored_counts.len(), "state id {id} out of range");
        k
    }

    /// The key ids of the visible orbits first seen at bound `k`.
    fn visible_range(&self, k: usize) -> Range<u32> {
        let start = k.checked_sub(1).map_or(0, |j| self.key_counts[j]);
        start..self.key_counts[k]
    }

    /// The stored keys of the visible orbits first seen at bound `k`,
    /// one canonical key (see [`VisibleState::key`]) per orbit, in
    /// first-seen order, read in place.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn visible_layer_keys(&self, k: usize) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.visible_range(k).map(|id| self.visible_keys.key(id))
    }

    /// Visible states first seen at bound `k`: every member of each
    /// orbit of [`visible_layer_keys`](Self::visible_layer_keys), in
    /// the one fixed order in which the thread symmetry walks it, decoded.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn visible_layer(&self, k: usize) -> Vec<VisibleState> {
        self.visible_range(k)
            .flat_map(|id| self.orbit(id))
            .collect()
    }

    /// Every member of the orbit keyed by id `id`, decoded.
    fn orbit(&self, id: u32) -> Vec<VisibleState> {
        let mut key = self.visible_keys.key(id).to_vec();
        let mut members = Vec::new();
        let Ok(()) = self.symmetry.for_each_arrangement(&mut key, |member| {
            members.push(VisibleState::from_key(member));
            Ok::<(), Infallible>(())
        });
        members
    }

    /// Number of visible states first seen at bound `k`.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn new_visible_at(&self, k: usize) -> usize {
        let before = k.checked_sub(1).map_or(0, |j| self.visible_counts[j]);
        self.visible_counts[k] - before
    }

    /// Number of distinct visible states seen so far (any bound).
    pub fn num_visible(&self) -> usize {
        self.num_visible
    }

    /// Every visible state seen so far: the members of each stored
    /// orbit, orbits in first-seen order, decoded.
    pub fn visible_iter(&self) -> impl Iterator<Item = VisibleState> + '_ {
        (0..self.visible_keys.len() as u32).flat_map(|id| self.orbit(id))
    }

    /// Whether `v` has been seen at any computed bound.
    pub fn seen(&self, v: &VisibleState) -> bool {
        self.find(v).is_some()
    }

    /// Whether `v` was seen at bound `k` or earlier — the membership
    /// test `v ∈ T(Rk)` that stays correct after the store grows
    /// past `k`.
    pub fn seen_by(&self, v: &VisibleState, k: usize) -> bool {
        self.first_seen_bound(v).is_some_and(|b| b <= k)
    }

    /// The bound at which `v` was first seen, if any.
    pub fn first_seen_bound(&self, v: &VisibleState) -> Option<usize> {
        self.find(v)
            .map(|id| self.key_counts.partition_point(|&c| c <= id))
    }

    /// The id of the key of `v`'s orbit; `None` for a state of another
    /// width, which no exploration of this system records.
    fn find(&self, v: &VisibleState) -> Option<u32> {
        if v.num_threads() + 1 != self.visible_keys.width() {
            return None;
        }
        let mut key = v.key();
        self.symmetry.canonicalize_visible(&mut key);
        self.visible_keys.find(&key)
    }

    /// Cumulative stored states at bound `k` (`|Rk|` resp. `|Sk|`).
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn state_count_at(&self, k: usize) -> usize {
        self.state_counts[k]
    }

    /// Cumulative visible states at bound `k` (`|T(Rk)|`).
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet.
    pub fn visible_count_at(&self, k: usize) -> usize {
        self.visible_counts[k]
    }

    /// Whether the sequence has collapsed at any computed bound.
    pub fn is_collapsed(&self) -> bool {
        self.collapsed_at.is_some()
    }

    /// The first bound whose layer was empty, if any.
    pub fn collapsed_at(&self) -> Option<usize> {
        self.collapsed_at
    }

    /// Whether the collapse had happened by bound `k` — what a checker
    /// replaying bound `k` observes as "this round added nothing".
    pub fn collapsed_by(&self, k: usize) -> bool {
        self.collapsed_at.is_some_and(|c| c <= k)
    }

    /// Records a visible state seen while computing the *next* layer,
    /// with its whole orbit. Returns how many visible states that made
    /// new: the caller counts them among the round's new visible
    /// states.
    ///
    /// # Panics
    ///
    /// Panics if `v` has another number of threads than the initial
    /// state.
    pub fn record_visible(&mut self, v: &VisibleState) -> usize {
        self.record_visible_key(&mut v.key())
    }

    /// As [`record_visible`](Self::record_visible), for the visible
    /// state keyed `key` (see [`VisibleState::key`]), which it sorts
    /// into the canonical key of its orbit in place.
    ///
    /// # Panics
    ///
    /// Panics if `key` has another width than the initial state's.
    pub fn record_visible_key(&mut self, key: &mut [u32]) -> usize {
        self.symmetry.canonicalize_visible(key);
        if !self.visible_keys.insert(key).1 {
            return 0;
        }
        let weight = self.symmetry.weight(&key[1..]);
        self.num_visible = self.num_visible.saturating_add(weight);
        weight
    }

    /// Undoes the visible-state registrations of a failed round, so an
    /// interrupted `advance` leaves the store exactly as it was — the
    /// transactional guarantee a [`SharedExplorer`] needs to let one
    /// caller's deadline not poison the exploration for everyone else.
    ///
    /// [`SharedExplorer`]: crate::SharedExplorer
    pub fn rollback_round(&mut self) {
        let sealed = *self.key_counts.last().expect("layer 0 is sealed");
        self.visible_keys.truncate(sealed as usize);
        self.num_visible = *self.visible_counts.last().expect("layer 0 is sealed");
    }

    /// Seals the freshly computed layer: the number of states stored
    /// after the round (its new ids are those from the previous seal's
    /// count on), the number of visible states first seen there (those
    /// recorded as new since the last seal), and the total states after
    /// the round. A stored count unchanged at `k ≥ 1` marks the
    /// collapse.
    pub fn push_layer(&mut self, stored_total: u32, new_visible: usize, total_states: usize) {
        debug_assert_eq!(
            self.visible_counts
                .last()
                .map(|&c| c.saturating_add(new_visible)),
            Some(self.num_visible),
            "new visible states are those recorded since the last seal"
        );
        if self.stored_counts.last() == Some(&stored_total) && self.collapsed_at.is_none() {
            self.collapsed_at = Some(self.stored_counts.len());
        }
        self.stored_counts.push(stored_total);
        self.state_counts.push(total_states);
        self.key_counts.push(self.visible_keys.len() as u32);
        self.visible_counts.push(self.num_visible);
    }

    /// Re-derives the cumulative state counts from per-state weights,
    /// saturating, so that an engine storing one representative per
    /// orbit of interchangeable threads counts every member of each
    /// orbit.
    pub fn weigh_states(&mut self, weight: impl Fn(u32) -> usize) {
        let mut total = 0usize;
        for k in 0..self.stored_counts.len() {
            total = self
                .layer_ids(k)
                .fold(total, |sum, id| sum.saturating_add(weight(id)));
            self.state_counts[k] = total;
        }
    }

    /// Rebuilds the store of an exploration of `cpds` from its
    /// serialized essence: the stored counts per bound and the stored
    /// keys of the per-bound new visible orbits. Everything else —
    /// cumulative growth logs, the concrete visible counts, the
    /// collapse bound — is derived, which keeps the snapshot format
    /// minimal and makes save → load → save byte-identical by
    /// construction.
    ///
    /// Validated invariants (anything else means a corrupt snapshot):
    /// layer 0 is exactly `{0}`, the counts never fall, every visible
    /// state has the model's width and is the canonical key of its
    /// orbit, an orbit is first seen at exactly one bound, and an
    /// empty layer brings no new visible states.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant, without
    /// echoing any state content.
    pub fn from_parts(
        cpds: &Cpds,
        stored_counts: Vec<u32>,
        visible_layers: Vec<Vec<VisibleState>>,
    ) -> Result<Self, String> {
        if stored_counts.is_empty() || stored_counts.len() != visible_layers.len() {
            return Err("layer table shape mismatch".to_owned());
        }
        if stored_counts[0] != 1 || visible_layers[0].len() != 1 {
            return Err("layer 0 is not the singleton initial layer".to_owned());
        }
        let symmetry = Symmetry::new(cpds);
        let width = cpds.num_threads() + 1;
        let mut visible_keys = KeyTable::new(width);
        let mut key_counts = Vec::with_capacity(stored_counts.len());
        let mut visible_counts = Vec::with_capacity(stored_counts.len());
        let mut num_visible = 0usize;
        let mut collapsed_at = None;
        for (k, new_visible) in visible_layers.iter().enumerate() {
            let previous = k.checked_sub(1).map_or(0, |j| stored_counts[j]);
            if stored_counts[k] < previous {
                return Err(format!("layer {k}: state ids are not consecutive"));
            }
            if stored_counts[k] == previous {
                if !new_visible.is_empty() {
                    return Err(format!("layer {k}: empty layer with new visible states"));
                }
                collapsed_at.get_or_insert(k);
            }
            for v in new_visible {
                if v.num_threads() + 1 != width {
                    return Err(format!("layer {k}: visible state of another width"));
                }
                let key = v.key();
                let mut canonical = key.clone();
                symmetry.canonicalize_visible(&mut canonical);
                if canonical != key {
                    return Err(format!(
                        "layer {k}: visible state that is not its orbit's canonical key"
                    ));
                }
                if !visible_keys.insert(&key).1 {
                    return Err(format!("layer {k}: visible state first seen twice"));
                }
                num_visible = num_visible.saturating_add(symmetry.weight(&key[1..]));
            }
            key_counts.push(visible_keys.len() as u32);
            visible_counts.push(num_visible);
        }
        Ok(LayerStore {
            state_counts: stored_counts.iter().map(|&c| c as usize).collect(),
            stored_counts,
            symmetry,
            visible_keys,
            key_counts,
            visible_counts,
            num_visible,
            collapsed_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym};

    fn vis(q: u32, top: u32) -> VisibleState {
        VisibleState::new(SharedState(q), vec![Some(StackSym(top))])
    }

    /// `n` copies of a thread over four symbols, starting on symbol 1.
    fn copies(n: usize) -> Cpds {
        let mut p = PdsBuilder::new(4, 4);
        p.overwrite(SharedState(0), StackSym(1), SharedState(1), StackSym(2))
            .unwrap();
        CpdsBuilder::new(4, SharedState(0))
            .threads(&p.build().unwrap(), [StackSym(1)], n)
            .build()
            .unwrap()
    }

    #[test]
    fn bound_indexed_queries_survive_growth() {
        let mut store = LayerStore::new(vis(0, 1));
        assert_eq!(store.record_visible(&vis(1, 2)), 1);
        assert_eq!(store.record_visible(&vis(1, 2)), 0, "duplicates rejected");
        store.push_layer(3, 1, 3);
        store.push_layer(4, 0, 4);

        assert_eq!(store.current_k(), 2);
        assert_eq!(store.layer_ids(0), 0..1);
        assert_eq!(store.layer_ids(1), 1..3);
        assert_eq!(store.layer_ids(2), 3..4);
        let layers: Vec<usize> = (0..4).map(|id| store.layer_of(id)).collect();
        assert_eq!(layers, [0, 1, 1, 2]);
        assert_eq!(store.visible_count_at(0), 1);
        assert_eq!(store.visible_count_at(1), 2);
        assert_eq!(store.state_count_at(2), 4);
        assert!(store.seen_by(&vis(1, 2), 1));
        assert!(!store.seen_by(&vis(1, 2), 0));
        assert_eq!(store.first_seen_bound(&vis(0, 1)), Some(0));
        assert_eq!(store.first_seen_bound(&vis(1, 2)), Some(1));
        assert!(!store.is_collapsed());
        // First-seen order, whatever the hashing.
        assert_eq!(store.record_visible(&vis(3, 0)), 1);
        assert_eq!(store.first_seen_bound(&vis(3, 0)), Some(3));
        store.push_layer(5, 1, 5);
        assert_eq!(store.layer_ids(1), 1..3, "sealed layers keep their ids");
        assert_eq!(store.layer_of(4), 3);
        let order: Vec<VisibleState> = store.visible_iter().collect();
        assert_eq!(order, [vis(0, 1), vis(1, 2), vis(3, 0)]);
        assert_eq!(store.visible_layer(1), [vis(1, 2)]);
        assert_eq!(store.new_visible_at(2), 0);
        assert_eq!(store.visible_layer(3), [vis(3, 0)]);
        let keys: Vec<&[u32]> = store.visible_layer_keys(0).collect();
        assert_eq!(keys, [vis(0, 1).key().as_slice()]);
    }

    /// With interchangeable threads the store keeps one canonical key
    /// per visible orbit, weighed by its orbit size: every count, probe
    /// and read stays concrete, and a rollback restores the counts.
    #[test]
    fn one_key_per_visible_orbit_with_concrete_counts() {
        let cpds = copies(3);
        let v = |q: u32, tops: [u32; 3]| {
            VisibleState::new(SharedState(q), tops.map(|t| Some(StackSym(t))).to_vec())
        };
        let mut store = LayerStore::for_system(&cpds);
        assert_eq!(store.record_visible(&v(1, [2, 1, 1])), 3);
        assert_eq!(store.record_visible(&v(1, [1, 1, 2])), 0, "same orbit");
        assert_eq!(store.record_visible(&v(1, [3, 1, 2])), 6);
        store.push_layer(3, 9, 3);
        let keys: Vec<&[u32]> = store.visible_layer_keys(1).collect();
        assert_eq!(keys, [&[1, 2, 2, 3][..], &[1, 2, 3, 4][..]]);
        assert_eq!(
            (
                store.new_visible_at(1),
                store.visible_count_at(1),
                store.num_visible()
            ),
            (9, 10, 10)
        );
        let layer = store.visible_layer(1);
        assert_eq!(layer.len(), 9);
        assert_eq!(
            layer[..3],
            [v(1, [1, 1, 2]), v(1, [1, 2, 1]), v(1, [2, 1, 1])]
        );
        assert!(layer.iter().all(|w| store.first_seen_bound(w) == Some(1)));
        assert_eq!(store.visible_iter().count(), 10);
        assert!(!store.seen(&v(1, [3, 3, 1])));

        assert_eq!(store.record_visible(&v(0, [3, 3, 1])), 3);
        assert!(store.seen(&v(0, [3, 1, 3])));
        assert_eq!(store.num_visible(), 13);
        store.rollback_round();
        assert!(!store.seen(&v(0, [1, 3, 3])));
        assert_eq!(store.num_visible(), 10);
    }

    /// `ε` and symbol 0 are distinct tops, and a state of another
    /// width is simply never seen.
    #[test]
    fn lookups_tell_eps_from_symbol_zero_and_other_widths() {
        let eps = VisibleState::new(SharedState(0), vec![None]);
        let mut store = LayerStore::new(eps.clone());
        assert!(!store.seen(&vis(0, 0)));
        assert_eq!(store.record_visible(&vis(0, 0)), 1);
        store.push_layer(2, 1, 2);
        assert_eq!(store.first_seen_bound(&eps), Some(0));
        assert_eq!(store.first_seen_bound(&vis(0, 0)), Some(1));
        let wide = VisibleState::new(SharedState(0), vec![None, None]);
        assert!(!store.seen(&wide) && !store.seen_by(&wide, 1));
        assert_eq!(
            store.first_seen_bound(&VisibleState::new(SharedState(0), vec![])),
            None
        );
    }

    #[test]
    fn empty_layer_is_the_collapse_and_sticks() {
        let mut store = LayerStore::new(vis(0, 1));
        store.push_layer(2, 0, 2);
        store.push_layer(2, 0, 2);
        assert_eq!(store.collapsed_at(), Some(2));
        assert!(store.collapsed_by(2));
        assert!(!store.collapsed_by(1));
        assert!(store.layer_ids(2).is_empty());
        // Padding layers past the collapse keep the original bound.
        store.push_layer(2, 0, 2);
        assert_eq!(store.collapsed_at(), Some(2));
        assert!(store.layer_ids(3).is_empty());
        assert_eq!(store.layer_of(1), 1, "an empty layer holds no id");
    }

    #[test]
    #[should_panic(expected = "state id 2 out of range")]
    fn layer_of_rejects_unsealed_ids() {
        let mut store = LayerStore::new(vis(0, 1));
        store.push_layer(2, 0, 2);
        store.layer_of(2);
    }

    #[test]
    fn rollback_removes_round_registrations() {
        let mut store = LayerStore::new(vis(0, 1));
        assert_eq!(store.record_visible(&vis(1, 1)), 1);
        store.push_layer(2, 1, 2);
        assert_eq!(store.record_visible(&vis(2, 3)), 1);
        assert_eq!(store.record_visible(&vis(1, 1)), 0);
        store.rollback_round();
        assert!(!store.seen(&vis(2, 3)));
        assert!(store.seen(&vis(1, 1)), "sealed rounds stay");
        assert_eq!(store.num_visible(), 2);
        assert_eq!((store.current_k(), store.layer_ids(1)), (1, 1..2));
        // The next round can re-register it.
        assert_eq!(store.record_visible(&vis(2, 3)), 1);
        store.push_layer(4, 1, 4);
        assert_eq!(store.layer_ids(2), 2..4);
        assert_eq!((store.layer_of(1), store.layer_of(3)), (1, 2));
    }

    #[test]
    fn from_parts_rejects_mixed_widths_and_non_canonical_keys() {
        let one = copies(1);
        let wide = VisibleState::new(SharedState(1), vec![None, None]);
        let err = LayerStore::from_parts(&one, vec![1, 2], vec![vec![vis(0, 1)], vec![wide]])
            .unwrap_err();
        assert_eq!(err, "layer 1: visible state of another width");
        let twice =
            LayerStore::from_parts(&one, vec![1, 2], vec![vec![vis(0, 1)], vec![vis(0, 1)]])
                .unwrap_err();
        assert_eq!(twice, "layer 1: visible state first seen twice");
        let falling =
            LayerStore::from_parts(&one, vec![1, 3, 2], vec![vec![vis(0, 1)], vec![], vec![]])
                .unwrap_err();
        assert_eq!(falling, "layer 2: state ids are not consecutive");
        let store = LayerStore::from_parts(
            &one,
            vec![1, 2, 2],
            vec![vec![vis(0, 1)], vec![vis(1, 0)], vec![]],
        )
        .unwrap();
        assert_eq!(store.first_seen_bound(&vis(1, 0)), Some(1));
        assert_eq!(store.visible_layer(1), [vis(1, 0)]);
        assert_eq!(store.visible_count_at(2), 2);
        assert_eq!(store.collapsed_at(), Some(2));
        assert_eq!((store.layer_ids(1), store.layer_ids(2)), (1..2, 2..2));

        let two = copies(2);
        let pair = |a: u32, b: u32| {
            VisibleState::new(SharedState(0), vec![Some(StackSym(a)), Some(StackSym(b))])
        };
        let err =
            LayerStore::from_parts(&two, vec![1, 2], vec![vec![pair(1, 1)], vec![pair(2, 1)]])
                .unwrap_err();
        assert_eq!(
            err,
            "layer 1: visible state that is not its orbit's canonical key"
        );
        let store =
            LayerStore::from_parts(&two, vec![1, 2], vec![vec![pair(1, 1)], vec![pair(1, 2)]])
                .unwrap();
        assert_eq!(
            store.visible_count_at(1),
            3,
            "the orbit of <0|1,2> has two members"
        );
        assert_eq!(store.first_seen_bound(&pair(2, 1)), Some(1));
    }
}
