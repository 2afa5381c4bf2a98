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
//! [`ExplicitEngine::advance`]: crate::ExplicitEngine::advance

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use cuba_pds::{Cpds, VisibleState};
use cuba_telemetry::metrics::{stage_time, Stage};
use cuba_telemetry::trace;

use crate::snapshot::{self, DecodedBackend, SnapshotKind};
use crate::{
    ExplicitEngine, ExploreBudget, ExploreError, Interrupt, LayerStore, SubsumptionMode,
    SymbolicEngine,
};

/// The backend an explorer drives.
#[derive(Debug)]
enum BackendImpl {
    Explicit(ExplicitEngine),
    Symbolic(SymbolicEngine),
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
            BackendImpl::Explicit(e) => e.advance().map(|_| ()),
            BackendImpl::Symbolic(e) => e.advance().map(|_| ()),
        }
    }
}

/// A bound-indexed snapshot of one layer, as a fresh engine would have
/// reported it at bound `k` — the unit a property checker consumes.
#[derive(Debug, Clone)]
pub struct LayerView {
    /// The context bound of the layer.
    pub k: usize,
    /// Visible states first seen at bound `k`.
    pub new_visible: Vec<VisibleState>,
    /// Cumulative stored states at bound `k` (`|Rk|` resp. `|Sk|`).
    pub states: usize,
    /// Cumulative visible states at bound `k` (`|T(Rk)|`).
    pub visible: usize,
    /// Whether the sequence had collapsed by bound `k`.
    pub collapsed: bool,
}

/// A push subscription to a [`SharedExplorer`]: the receiving half of
/// an unbounded channel that gets one [`LayerView`] per layer of the
/// shared exploration — first every layer already computed when the
/// subscription was opened (catch-up), then each freshly explored
/// layer the moment any caller's
/// [`ensure_layer`](SharedExplorer::ensure_layer) computes it.
///
/// Consumers (streaming service clients, event-driven checkers) are
/// thereby *notified* of progress instead of polling: with `N`
/// subscribers and one exploration, every layer is delivered exactly
/// once to each subscriber, in bound order, whoever paid for it.
/// Dropping the subscription unregisters it on the explorer's next
/// notification sweep.
#[derive(Debug)]
pub struct LayerSubscription {
    rx: mpsc::Receiver<LayerView>,
}

impl LayerSubscription {
    /// The next layer, if one is already queued (never blocks).
    pub fn try_next(&self) -> Option<LayerView> {
        self.rx.try_recv().ok()
    }

    /// The next layer, waiting up to `timeout` for one to be pushed.
    pub fn next_timeout(&self, timeout: Duration) -> Option<LayerView> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Drains every queued layer (never blocks).
    pub fn drain(&self) -> Vec<LayerView> {
        std::iter::from_fn(|| self.try_next()).collect()
    }
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
    /// Push subscribers; locked strictly *after* `inner` (subscribe
    /// snapshots the store and registers atomically, notification
    /// happens while the computing caller still holds the store).
    subscribers: Mutex<Vec<mpsc::Sender<LayerView>>>,
}

impl SharedExplorer {
    /// A shared explorer over the explicit `(Rk)` layers.
    pub fn explicit(cpds: Cpds, budget: ExploreBudget) -> Self {
        let base_interrupt = budget.interrupt.clone();
        SharedExplorer {
            inner: Mutex::new(BackendImpl::Explicit(ExplicitEngine::new(cpds, budget))),
            base_interrupt,
            symbolic: false,
            rounds_explored: AtomicUsize::new(0),
            subscribers: Mutex::new(Vec::new()),
        }
    }

    /// A shared explorer over the symbolic `(Sk)` layers.
    pub fn symbolic(cpds: Cpds, budget: ExploreBudget, mode: SubsumptionMode) -> Self {
        let base_interrupt = budget.interrupt.clone();
        SharedExplorer {
            inner: Mutex::new(BackendImpl::Symbolic(SymbolicEngine::new(
                cpds, budget, mode,
            ))),
            symbolic: true,
            base_interrupt,
            rounds_explored: AtomicUsize::new(0),
            subscribers: Mutex::new(Vec::new()),
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
            // Push the fresh layer to every subscriber while the store
            // lock is still held, so deliveries are in bound order and
            // never raced by a concurrent subscribe()'s catch-up.
            let new_k = inner.store().current_k();
            self.notify(build_view(inner.store(), new_k));
        }
        inner.set_interrupt(self.base_interrupt.clone());
        span.arg("depth", inner.store().current_k());
        drop(span);
        stage_time(Stage::Saturate, sat_start.elapsed());
        result
    }

    /// Opens a push subscription: the receiver first gets every layer
    /// computed so far (catch-up, in bound order — layer 0, the
    /// initial state, always exists), then one [`LayerView`] per
    /// freshly explored layer, pushed by whichever caller's
    /// [`ensure_layer`](Self::ensure_layer) computes it.
    pub fn subscribe(&self) -> LayerSubscription {
        let inner = self.lock();
        let (tx, rx) = mpsc::channel();
        let store = inner.store();
        for k in 0..=store.current_k() {
            let _ = tx.send(build_view(store, k));
        }
        self.subscribers
            .lock()
            .expect("subscriber registry")
            .push(tx);
        LayerSubscription { rx }
    }

    /// Sends `view` to every live subscriber, dropping closed ones.
    /// Callers hold the `inner` lock (see the field's ordering note).
    fn notify(&self, view: LayerView) {
        let mut subs = self.subscribers.lock().expect("subscriber registry");
        if subs.is_empty() {
            return;
        }
        subs.retain(|tx| tx.send(view.clone()).is_ok());
    }

    /// The bound-indexed snapshot of layer `k`.
    ///
    /// # Panics
    ///
    /// Panics if layer `k` has not been computed yet (call
    /// [`ensure_layer`](Self::ensure_layer) first).
    pub fn view(&self, k: usize) -> LayerView {
        build_view(self.lock().store(), k)
    }

    /// Runs a closure over the layer record (bound-indexed queries,
    /// e.g. the generator membership test `g ∈ T(Rk)`).
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
        let inner = match snapshot::decode(cpds, budget, fingerprint, bytes)? {
            DecodedBackend::Explicit(e) => BackendImpl::Explicit(*e),
            DecodedBackend::Symbolic(e) => BackendImpl::Symbolic(*e),
        };
        let symbolic = matches!(inner, BackendImpl::Symbolic(_));
        span.arg("k", inner.store().current_k());
        Ok(SharedExplorer {
            inner: Mutex::new(inner),
            base_interrupt,
            symbolic,
            rounds_explored: AtomicUsize::new(0),
            subscribers: Mutex::new(Vec::new()),
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

/// The bound-indexed snapshot of layer `k` of a (locked) store.
fn build_view(store: &LayerStore, k: usize) -> LayerView {
    LayerView {
        k,
        new_visible: store.visible_layer(k).to_vec(),
        states: store.state_count_at(k),
        visible: store.visible_count_at(k),
        collapsed: store.collapsed_by(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym};

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
        let mut shared_visible = view.new_visible.clone();
        let mut reference_visible = reference.visible_layer(2).to_vec();
        shared_visible.sort_by_key(|v| v.to_string());
        reference_visible.sort_by_key(|v| v.to_string());
        assert_eq!(shared_visible, reference_visible);
    }

    /// A subscriber opened before exploration sees layer 0 (catch-up)
    /// and then each freshly explored layer exactly once, in bound
    /// order, regardless of which caller paid for it.
    #[test]
    fn subscription_pushes_each_fresh_layer_once() {
        let explorer = SharedExplorer::explicit(fig1(), ExploreBudget::default());
        let sub = explorer.subscribe();
        let none = Interrupt::none();
        assert_eq!(sub.drain().iter().map(|v| v.k).collect::<Vec<_>>(), [0]);

        explorer.ensure_layer(3, &none).unwrap();
        // A replaying caller pushes nothing new.
        explorer.ensure_layer(2, &none).unwrap();
        explorer.ensure_layer(5, &none).unwrap();
        let views = sub.drain();
        assert_eq!(
            views.iter().map(|v| v.k).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5],
            "one delivery per fresh layer, in bound order"
        );
        // Pushed views match the bound-indexed replay views.
        for view in &views {
            let replay = explorer.view(view.k);
            assert_eq!(view.states, replay.states);
            assert_eq!(view.visible, replay.visible);
            assert_eq!(view.new_visible, replay.new_visible);
            assert_eq!(view.collapsed, replay.collapsed);
        }
    }

    /// A late subscriber catches up on every already-computed layer
    /// before receiving live pushes; a dropped subscription simply
    /// stops receiving (and is pruned on the next notification).
    #[test]
    fn late_subscribers_catch_up() {
        let explorer = SharedExplorer::explicit(fig1(), ExploreBudget::default());
        let none = Interrupt::none();
        explorer.ensure_layer(4, &none).unwrap();

        let early = explorer.subscribe();
        drop(explorer.subscribe()); // dropped before any notification
        assert_eq!(
            early.drain().iter().map(|v| v.k).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4],
            "catch-up delivers the full history"
        );
        explorer.ensure_layer(6, &none).unwrap();
        assert_eq!(early.try_next().map(|v| v.k), Some(5));
        assert_eq!(
            early
                .next_timeout(std::time::Duration::from_secs(1))
                .map(|v| v.k),
            Some(6)
        );
        assert!(early.try_next().is_none());
    }

    /// An interrupted (rolled-back) round notifies nobody: subscribers
    /// only ever see layers that are actually part of the store.
    #[test]
    fn rolled_back_rounds_are_not_pushed() {
        let explorer = SharedExplorer::explicit(fig1(), ExploreBudget::default());
        let sub = explorer.subscribe();
        let _ = sub.drain();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        explorer
            .ensure_layer(2, &Interrupt::none().with_cancel(cancelled))
            .unwrap_err();
        assert!(sub.try_next().is_none(), "no layer, no notification");

        explorer.ensure_layer(1, &Interrupt::none()).unwrap();
        assert_eq!(sub.try_next().map(|v| v.k), Some(1));
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
            let a = live.view(k);
            let b = restored.view(k);
            assert_eq!(a.states, b.states);
            assert_eq!(a.visible, b.visible);
            assert_eq!(a.new_visible, b.new_visible);
            assert_eq!(a.collapsed, b.collapsed);
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
        let before = explorer.view(2);
        explorer.ensure_layer(6, &none).unwrap();
        let after = explorer.view(2);
        assert_eq!(before.states, after.states);
        assert_eq!(before.visible, after.visible);
        assert_eq!(before.new_visible, after.new_visible);
        assert_eq!(before.collapsed, after.collapsed);
    }
}
