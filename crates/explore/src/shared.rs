//! Shareable, demand-driven exploration: one explorer per system,
//! many property checkers.
//!
//! The layered sequences `(Rk)`/`(Sk)` depend only on the system, so a
//! [`SharedExplorer`] wraps one backend engine behind a mutex and
//! extends its [`LayerStore`] *on demand*: the first checker that asks
//! for bound `k` pays for the missing layers, every later checker
//! replays them for free. Callers pass their own [`Interrupt`] per
//! request; a round aborted by one caller's deadline is rolled back
//! (see [`ExplicitEngine::advance`]) and can be re-driven by anyone
//! else, so interruption never poisons the shared layers.
//!
//! The layer record is the only way to read layers: a reader asks for
//! a bound ([`SharedExplorer::ensure_layer`]), polls how far the record
//! reaches ([`SharedExplorer::depth`]), and reads a layer's counts
//! ([`SharedExplorer::view`]) or its states in place
//! ([`SharedExplorer::with_store`]). No reader keeps a copy of a layer.
//!
//! [`ExplicitEngine::advance`]: crate::ExplicitEngine::advance

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cuba_pds::Cpds;
use cuba_telemetry::metrics::{stage_time, Stage};
use cuba_telemetry::trace;

use crate::snapshot::{self, SnapshotKind};
use crate::{
    ExplicitEngine, ExploreBudget, ExploreError, Interrupt, LayerStore, SubsumptionMode,
    SymbolicEngine,
};

/// The backend an explorer drives, as a snapshot decodes it.
#[derive(Debug)]
pub(crate) enum BackendImpl {
    Explicit(Box<ExplicitEngine>),
    Symbolic(Box<SymbolicEngine>),
}

impl BackendImpl {
    fn store(&self) -> &LayerStore {
        match self {
            BackendImpl::Explicit(e) => e.store(),
            BackendImpl::Symbolic(e) => e.store(),
        }
    }

    fn set_interrupt(&mut self, interrupt: Interrupt) {
        match self {
            BackendImpl::Explicit(e) => e.set_interrupt(interrupt),
            BackendImpl::Symbolic(e) => e.set_interrupt(interrupt),
        }
    }

    fn advance(&mut self) -> Result<(), ExploreError> {
        match self {
            BackendImpl::Explicit(e) => e.advance(),
            BackendImpl::Symbolic(e) => e.advance(),
        }
    }
}

/// The counts of one layer, as a fresh engine would have reported
/// them at bound `k`. A reader that needs the layer's states reads
/// them in place with [`SharedExplorer::with_store`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerView {
    /// The context bound of the layer.
    pub k: usize,
    /// Number of visible states first seen at bound `k`.
    pub new_visible: usize,
    /// Cumulative stored states at bound `k` (`|Rk|` resp. `|Sk|`).
    pub states: usize,
    /// Cumulative visible states at bound `k` (`|T(Rk)|`).
    pub visible: usize,
    /// Whether the sequence had collapsed by bound `k`.
    pub collapsed: bool,
}

/// One system's exploration, shared by any number of property
/// checkers (across engines of one session, across sessions of a
/// suite, and across the worker threads of a suite or a server).
///
/// The explorer owns the backend's resource budget; each
/// [`ensure_layer`](Self::ensure_layer) call layers the *caller's*
/// interrupt on top, so cancellation and deadlines stay per-caller
/// while the computed layers are shared.
#[derive(Debug)]
pub struct SharedExplorer {
    inner: Mutex<BackendImpl>,
    /// The interrupt baked into the creation budget, reinstalled after
    /// every request (private explorers keep their own wiring live).
    base_interrupt: Interrupt,
    symbolic: bool,
    /// Pre-collapse layers computed live — the "explored exactly once"
    /// instrumentation counter.
    rounds_explored: AtomicUsize,
}

impl SharedExplorer {
    /// A shared explorer over the explicit `(Rk)` layers.
    pub fn explicit(cpds: Cpds, budget: ExploreBudget) -> Self {
        let base_interrupt = budget.interrupt.clone();
        SharedExplorer {
            inner: Mutex::new(BackendImpl::Explicit(Box::new(ExplicitEngine::new(
                cpds, budget,
            )))),
            base_interrupt,
            symbolic: false,
            rounds_explored: AtomicUsize::new(0),
        }
    }

    /// A shared explorer over the symbolic `(Sk)` layers.
    pub fn symbolic(cpds: Cpds, budget: ExploreBudget, mode: SubsumptionMode) -> Self {
        let base_interrupt = budget.interrupt.clone();
        SharedExplorer {
            inner: Mutex::new(BackendImpl::Symbolic(Box::new(SymbolicEngine::new(
                cpds, budget, mode,
            )))),
            symbolic: true,
            base_interrupt,
            rounds_explored: AtomicUsize::new(0),
        }
    }

    /// Whether this explorer drives the symbolic backend.
    pub fn is_symbolic(&self) -> bool {
        self.symbolic
    }

    /// The deepest bound currently available for replay.
    pub fn depth(&self) -> usize {
        self.lock().store().current_k()
    }

    /// Pre-collapse layers computed live since creation. With `N`
    /// properties sharing the explorer this stays the depth of the
    /// deepest demand, not `N ×` it.
    pub fn rounds_explored(&self) -> usize {
        self.rounds_explored.load(Ordering::Relaxed)
    }

    /// Makes layer `k` available, computing missing layers under the
    /// caller's interrupt. Returns `true` when this call computed at
    /// least one new layer (a *live* round for the caller), `false`
    /// when everything up to `k` was already there (a replay).
    ///
    /// # Errors
    ///
    /// Budget exhaustion of the explorer's shared budget, or the
    /// caller's own cancellation/deadline. Interrupted rounds are
    /// rolled back; the layers stay valid and extendable.
    pub fn ensure_layer(&self, k: usize, interrupt: &Interrupt) -> Result<bool, ExploreError> {
        let mut inner = self.lock();
        if inner.store().current_k() >= k {
            return Ok(false);
        }
        let sat_start = std::time::Instant::now();
        let mut span = trace::span_args(
            "ensure_layer",
            vec![("k", k.into()), ("from", inner.store().current_k().into())],
        );
        inner.set_interrupt(self.base_interrupt.merged(interrupt));
        let mut result = Ok(true);
        while inner.store().current_k() < k {
            let live = !inner.store().is_collapsed();
            if let Err(e) = inner.advance() {
                result = Err(e);
                break;
            }
            if live {
                self.rounds_explored.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.set_interrupt(self.base_interrupt.clone());
        span.arg("depth", inner.store().current_k());
        drop(span);
        stage_time(Stage::Saturate, sat_start.elapsed());
        result
    }

    /// The counts of layer `k`, bound-indexed: they do not change as
    /// the store grows past `k`.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet (call
    /// [`ensure_layer`](Self::ensure_layer) first).
    pub fn view(&self, k: usize) -> LayerView {
        let inner = self.lock();
        let store = inner.store();
        LayerView {
            k,
            new_visible: store.new_visible_at(k),
            states: store.state_count_at(k),
            visible: store.visible_count_at(k),
            collapsed: store.collapsed_by(k),
        }
    }

    /// Runs a closure over the layer record, read in place under the
    /// explorer's lock (a layer's visible states, or bound-indexed
    /// queries such as the generator membership test `g ∈ T(Rk)`).
    pub fn with_store<R>(&self, f: impl FnOnce(&LayerStore) -> R) -> R {
        f(self.lock().store())
    }

    /// Runs a closure over the explicit backend (witness
    /// reconstruction); `None` for symbolic explorers.
    pub fn with_explicit<R>(&self, f: impl FnOnce(&ExplicitEngine) -> R) -> Option<R> {
        match &*self.lock() {
            BackendImpl::Explicit(e) => Some(f(e)),
            BackendImpl::Symbolic(_) => None,
        }
    }

    /// The snapshot backend kind this explorer would record.
    pub fn snapshot_kind(&self) -> SnapshotKind {
        match &*self.lock() {
            BackendImpl::Explicit(_) => SnapshotKind::Explicit,
            BackendImpl::Symbolic(e) => match e.mode() {
                SubsumptionMode::Exact => SnapshotKind::SymbolicExact,
                SubsumptionMode::Pointwise => SnapshotKind::SymbolicPointwise,
            },
        }
    }

    /// Serializes the exploration into the versioned binary snapshot
    /// format (see [`crate::snapshot`]), stamped with the caller's
    /// `fingerprint` of the system. Taken under the store lock, so the
    /// bytes always describe a sealed bound — never a half-computed
    /// round.
    ///
    /// Deterministic: saving, restoring, and saving again yields
    /// byte-identical output.
    pub fn snapshot(&self, fingerprint: u64) -> Vec<u8> {
        let inner = self.lock();
        let mut span = trace::span_args(
            "snapshot-encode",
            vec![("k", inner.store().current_k().into())],
        );
        let bytes = match &*inner {
            BackendImpl::Explicit(e) => snapshot::encode_explicit(e, fingerprint),
            BackendImpl::Symbolic(e) => snapshot::encode_symbolic(e, fingerprint),
        };
        span.arg("bytes", bytes.len());
        bytes
    }

    /// Rebuilds a shared explorer from snapshot `bytes`, verifying the
    /// header fingerprint against `fingerprint` and the recorded
    /// system structure against `cpds` byte-for-byte. The restored
    /// explorer replays its layers exactly as a live one would —
    /// [`ensure_layer`](Self::ensure_layer) returns `false` up to the
    /// recorded depth — and starts with
    /// [`rounds_explored`](Self::rounds_explored) at zero, since this
    /// process has computed nothing live yet.
    ///
    /// # Errors
    ///
    /// Offset-numbered decode errors (wrong magic, newer version,
    /// fingerprint/structure mismatch, checksum failure, truncation,
    /// trailing bytes, inconsistent tables); file content is never
    /// echoed.
    pub fn restore(
        cpds: Cpds,
        budget: ExploreBudget,
        fingerprint: u64,
        bytes: &[u8],
    ) -> Result<Self, String> {
        let mut span = trace::span_args("snapshot-restore", vec![("bytes", bytes.len().into())]);
        let base_interrupt = budget.interrupt.clone();
        let inner = snapshot::decode(cpds, budget, fingerprint, bytes)?;
        let symbolic = matches!(inner, BackendImpl::Symbolic(_));
        span.arg("k", inner.store().current_k());
        Ok(SharedExplorer {
            inner: Mutex::new(inner),
            base_interrupt,
            symbolic,
            rounds_explored: AtomicUsize::new(0),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BackendImpl> {
        // Rounds are transactional only for *errors* (rolled back and
        // retryable); a panic mid-round leaves half-registered states
        // that a re-driven layer would silently omit — which could
        // turn into a wrong "safe" verdict downstream. Propagate the
        // poison and fail loudly instead.
        self.inner
            .lock()
            .expect("shared explorer poisoned by a panic mid-round; its layers are unusable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym, VisibleState};

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

    /// The visible states first seen at bound `k`, read in place.
    fn visible_layer(explorer: &SharedExplorer, k: usize) -> Vec<VisibleState> {
        explorer.with_store(|store| store.visible_layer(k))
    }

    /// Demanding the same bound twice explores once and replays once.
    #[test]
    fn second_demand_is_a_replay() {
        let explorer = SharedExplorer::explicit(fig1(), ExploreBudget::default());
        let none = Interrupt::none();
        assert!(explorer.ensure_layer(3, &none).unwrap(), "first is live");
        assert_eq!(explorer.rounds_explored(), 3);
        assert!(!explorer.ensure_layer(3, &none).unwrap(), "second replays");
        assert!(!explorer.ensure_layer(1, &none).unwrap(), "shallower too");
        assert_eq!(explorer.rounds_explored(), 3, "no recomputation");
        // A deeper demand extends from where the store left off.
        assert!(explorer.ensure_layer(5, &none).unwrap());
        assert_eq!(explorer.rounds_explored(), 5);
        assert_eq!(explorer.depth(), 5);
    }

    /// A cancelled caller's round is rolled back; a later caller with
    /// no interrupt re-drives the same layer successfully and the
    /// layer contents match an unshared engine's.
    #[test]
    fn interruption_rolls_back_and_is_retryable() {
        let explorer = SharedExplorer::explicit(fig1(), ExploreBudget::default());
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = explorer
            .ensure_layer(2, &Interrupt::none().with_cancel(cancelled))
            .unwrap_err();
        assert_eq!(err, ExploreError::Cancelled);
        assert_eq!(explorer.depth(), 0, "failed rounds leave no layers");

        assert!(explorer.ensure_layer(2, &Interrupt::none()).unwrap());
        let mut reference = ExplicitEngine::new(fig1(), ExploreBudget::default());
        reference.advance().unwrap();
        reference.advance().unwrap();
        let view = explorer.view(2);
        assert_eq!(view.states, reference.num_states());
        assert_eq!(view.visible, reference.num_visible());
        assert_eq!(view.new_visible, reference.visible_layer(2).len());
        let mut shared_visible = visible_layer(&explorer, 2);
        let mut reference_visible = reference.visible_layer(2);
        shared_visible.sort_by_key(|v| v.to_string());
        reference_visible.sort_by_key(|v| v.to_string());
        assert_eq!(shared_visible, reference_visible);
    }

    /// A restored explorer replays every recorded bound for free
    /// (`rounds_explored` stays 0), serves identical views, and counts
    /// only genuinely new layers as live — exactly like live sharing.
    #[test]
    fn restore_replays_recorded_bounds_for_free() {
        let live = SharedExplorer::explicit(fig1(), ExploreBudget::default());
        let none = Interrupt::none();
        live.ensure_layer(4, &none).unwrap();
        let bytes = live.snapshot(99);

        let restored =
            SharedExplorer::restore(fig1(), ExploreBudget::default(), 99, &bytes).unwrap();
        assert_eq!(restored.depth(), 4);
        assert!(!restored.is_symbolic());
        assert_eq!(restored.snapshot_kind(), crate::SnapshotKind::Explicit);
        assert!(
            !restored.ensure_layer(4, &none).unwrap(),
            "recorded bounds replay"
        );
        assert_eq!(restored.rounds_explored(), 0, "no live rounds yet");
        for k in 0..=4 {
            assert_eq!(live.view(k), restored.view(k));
            assert_eq!(visible_layer(&live, k), visible_layer(&restored, k));
        }
        // Extending past the snapshot is live again, and the extended
        // store re-snapshots identically to a never-persisted one.
        assert!(restored.ensure_layer(6, &none).unwrap());
        assert_eq!(restored.rounds_explored(), 2);
        live.ensure_layer(6, &none).unwrap();
        assert_eq!(restored.snapshot(99), live.snapshot(99));
    }

    /// Restoring against the wrong system or a damaged file fails with
    /// an offset-numbered error.
    #[test]
    fn restore_rejects_wrong_fingerprint() {
        let live = SharedExplorer::explicit(fig1(), ExploreBudget::default());
        live.ensure_layer(2, &Interrupt::none()).unwrap();
        let bytes = live.snapshot(1);
        let err = SharedExplorer::restore(fig1(), ExploreBudget::default(), 2, &bytes).unwrap_err();
        assert!(err.starts_with("snapshot offset "), "{err}");
    }

    /// Views are bound-indexed: extending the store past `k` does not
    /// change what a checker sees at `k`.
    #[test]
    fn views_are_stable_under_growth() {
        let explorer = SharedExplorer::explicit(fig1(), ExploreBudget::default());
        let none = Interrupt::none();
        explorer.ensure_layer(2, &none).unwrap();
        let before = (explorer.view(2), visible_layer(&explorer, 2));
        explorer.ensure_layer(6, &none).unwrap();
        assert_eq!(before, (explorer.view(2), visible_layer(&explorer, 2)));
    }
}
