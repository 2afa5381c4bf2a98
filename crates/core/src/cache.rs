//! Suite-level sharing of per-system analysis artifacts.
//!
//! A batch of verification problems often holds *one system, many
//! properties*: every portfolio run then re-decides finite context
//! reachability (§5) and rebuilds the generator intersection `G ∩ Z`
//! (Alg. 2 / Def. 10) for the same CPDS. Both artifacts depend only on
//! the system — never on the property — so
//! [`Portfolio::run_suite`](crate::Portfolio::run_suite) shares them
//! through a [`SuiteCache`]: one [`SystemArtifacts`] per distinct
//! system, keyed by a structural fingerprint, each artifact computed
//! lazily at most once.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cuba_explore::{
    ExploreBudget, ExploreError, Interrupt, SharedExplorer, SnapshotKind, SubsumptionMode,
};
use cuba_pds::{Cpds, Rhs, VisibleState};

use crate::{check_fcr, generators_in_z, FcrReport};

/// Lazily computed, property-independent artifacts of one system.
///
/// Shared (via `Arc`) between every session analyzing the same CPDS:
/// the first session to need an artifact computes it, later ones reuse
/// it. Thread-safe — suite workers race on the `OnceLock`s, not on the
/// computation results.
///
/// Besides the FCR verdict and `G ∩ Z`, the artifacts hold the
/// system's **shared explorers** — one per backend — so every engine
/// analyzing the system (across properties, sessions, and threads)
/// consumes *one* layered exploration: the first checker to need a
/// bound pays for it, everyone else replays it
/// ([`SharedExplorer`]).
#[derive(Debug, Default)]
pub struct SystemArtifacts {
    fcr: OnceLock<FcrReport>,
    g_cap_z: OnceLock<Arc<Vec<VisibleState>>>,
    explicit_explorer: OnceLock<Arc<SharedExplorer>>,
    symbolic_exact: OnceLock<Arc<SharedExplorer>>,
    symbolic_pointwise: OnceLock<Arc<SharedExplorer>>,
}

impl SystemArtifacts {
    /// Empty artifacts: everything computed on first use.
    pub fn new() -> Self {
        SystemArtifacts::default()
    }

    /// The FCR report for `cpds`, computed at most once.
    pub fn fcr(&self, cpds: &Cpds) -> &FcrReport {
        self.fcr.get_or_init(|| check_fcr(cpds))
    }

    /// The FCR report, if any session has decided it yet — a read-only
    /// probe for status reporting (never triggers the check).
    pub fn fcr_if_checked(&self) -> Option<&FcrReport> {
        self.fcr.get()
    }

    /// The generator intersection `G ∩ Z` for `cpds` (the convergence
    /// certificate candidates of Algorithm 3), computed on first use
    /// and cached. Never interrupted; see
    /// [`g_cap_z_within`](Self::g_cap_z_within).
    pub fn g_cap_z(&self, cpds: &Cpds) -> Arc<Vec<VisibleState>> {
        self.g_cap_z_within(cpds, &Interrupt::none())
            .expect("an unarmed interrupt never fires")
    }

    /// As [`g_cap_z`](Self::g_cap_z), polling `interrupt` while the
    /// `Z` search runs (it can be exponential in the thread count).
    /// An interrupted search caches nothing: a cut-off `Z` would make
    /// the generator test vacuously true. Racing callers may each
    /// compute the set; the first result is kept.
    ///
    /// # Errors
    ///
    /// The interrupt's error when it fires before the set is known.
    pub fn g_cap_z_within(
        &self,
        cpds: &Cpds,
        interrupt: &Interrupt,
    ) -> Result<Arc<Vec<VisibleState>>, ExploreError> {
        if let Some(done) = self.g_cap_z.get() {
            return Ok(done.clone());
        }
        let computed = Arc::new(generators_in_z(cpds, interrupt)?);
        Ok(self.g_cap_z.get_or_init(|| computed).clone())
    }

    /// The system's shared explicit `(Rk)` explorer, created on first
    /// use with `budget`'s resource caps. It holds no interrupt: each
    /// caller passes its own per request, so one session's
    /// cancellation never reaches another's. Later callers share the
    /// explorer regardless of their own caps; suites are expected to
    /// run one portfolio configuration.
    pub fn explicit_explorer(&self, cpds: &Cpds, budget: &ExploreBudget) -> Arc<SharedExplorer> {
        self.explicit_explorer
            .get_or_init(|| Arc::new(SharedExplorer::explicit(cpds.clone(), budget.clone())))
            .clone()
    }

    /// The system's shared symbolic `(Sk)` explorer for the given
    /// subsumption mode (modes produce different state sequences, so
    /// each gets its own slot). Budget semantics as for
    /// [`explicit_explorer`](Self::explicit_explorer).
    pub fn symbolic_explorer(
        &self,
        cpds: &Cpds,
        budget: &ExploreBudget,
        mode: SubsumptionMode,
    ) -> Arc<SharedExplorer> {
        let slot = match mode {
            SubsumptionMode::Exact => &self.symbolic_exact,
            SubsumptionMode::Pointwise => &self.symbolic_pointwise,
        };
        slot.get_or_init(|| Arc::new(SharedExplorer::symbolic(cpds.clone(), budget.clone(), mode)))
            .clone()
    }

    /// The explicit explorer, if any engine has created it yet
    /// (instrumentation: layer-sharing tests read its counters).
    pub fn explicit_explorer_if_started(&self) -> Option<Arc<SharedExplorer>> {
        self.explicit_explorer.get().cloned()
    }

    /// The symbolic explorer for `mode`, if started.
    pub fn symbolic_explorer_if_started(
        &self,
        mode: SubsumptionMode,
    ) -> Option<Arc<SharedExplorer>> {
        match mode {
            SubsumptionMode::Exact => self.symbolic_exact.get().cloned(),
            SubsumptionMode::Pointwise => self.symbolic_pointwise.get().cloned(),
        }
    }

    fn slot(&self, kind: SnapshotKind) -> &OnceLock<Arc<SharedExplorer>> {
        match kind {
            SnapshotKind::Explicit => &self.explicit_explorer,
            SnapshotKind::SymbolicExact => &self.symbolic_exact,
            SnapshotKind::SymbolicPointwise => &self.symbolic_pointwise,
        }
    }

    /// The explorer for a snapshot backend kind, if started — what a
    /// [`SnapshotStore`](crate::SnapshotStore) save sweeps over.
    pub fn explorer_if_started(&self, kind: SnapshotKind) -> Option<Arc<SharedExplorer>> {
        self.slot(kind).get().cloned()
    }

    /// Seeds an explorer slot with a restored [`SharedExplorer`]
    /// (snapshot warm-start). Returns `false` when the slot was
    /// already started — a live exploration always wins over a disk
    /// copy, since it can only be deeper or equal.
    pub fn seed_explorer(&self, kind: SnapshotKind, explorer: Arc<SharedExplorer>) -> bool {
        self.slot(kind).set(explorer).is_ok()
    }
}

/// A structural fingerprint of a CPDS: shared-state count, initial
/// state, and per thread the initial stack and the full action list.
/// Two structurally identical systems (however they were built)
/// collide on purpose — that is the cache key.
pub fn fingerprint(cpds: &Cpds) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    cpds.num_shared().hash(&mut h);
    cpds.initial_state().q.0.hash(&mut h);
    cpds.num_threads().hash(&mut h);
    for (i, pds) in cpds.threads().iter().enumerate() {
        for sym in cpds.initial_stack(i).iter_top_down() {
            sym.0.hash(&mut h);
        }
        u32::MAX.hash(&mut h); // stack/action separator
        for a in pds.actions() {
            a.q.0.hash(&mut h);
            a.top.map(|s| s.0).hash(&mut h);
            a.q_post.0.hash(&mut h);
            match a.rhs {
                Rhs::Empty => 0u8.hash(&mut h),
                Rhs::One(s) => {
                    1u8.hash(&mut h);
                    s.0.hash(&mut h);
                }
                Rhs::Two { top, below } => {
                    2u8.hash(&mut h);
                    top.0.hash(&mut h);
                    below.0.hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

/// Structural equality of two systems — the confirmation step behind
/// the fingerprint, so a 64-bit hash collision can never hand one
/// system the artifacts (and hence the verdict machinery) of another.
/// Public because service brokers apply the same discipline when
/// reviving spilled systems.
pub fn same_system(a: &Cpds, b: &Cpds) -> bool {
    a.num_shared() == b.num_shared()
        && a.q_init() == b.q_init()
        && a.num_threads() == b.num_threads()
        && (0..a.num_threads()).all(|i| {
            a.initial_stack(i) == b.initial_stack(i)
                && a.thread(i).actions() == b.thread(i).actions()
        })
}

/// A cache of [`SystemArtifacts`] keyed by CPDS fingerprint (with a
/// structural-equality check on hits), shared by the workers of one
/// (or several) [`run_suite`] calls.
///
/// [`run_suite`]: crate::Portfolio::run_suite
/// Systems sharing one fingerprint (almost always exactly one;
/// colliding distinct systems each get their own entry). Entries keep
/// the confirming system behind an `Arc` and the collision probe
/// compares *borrowed* systems field by field, so a lookup — hit or
/// miss probe — never deep-clones a CPDS; only the one retained copy
/// per distinct system is ever made.
type Bucket = Vec<(Arc<Cpds>, Arc<SystemArtifacts>)>;

#[derive(Debug, Default)]
pub struct SuiteCache {
    map: Mutex<HashMap<u64, Bucket>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl SuiteCache {
    /// An empty cache.
    pub fn new() -> Self {
        SuiteCache::default()
    }

    /// The artifacts slot for `cpds`, created empty on first sight.
    pub fn artifacts(&self, cpds: &Cpds) -> Arc<SystemArtifacts> {
        self.lookup(cpds).0
    }

    /// As [`artifacts`](Self::artifacts), also reporting whether the
    /// slot already existed (`true` = hit).
    pub fn lookup(&self, cpds: &Cpds) -> (Arc<SystemArtifacts>, bool) {
        let mut span = cuba_telemetry::trace::span("cache-lookup");
        let key = fingerprint(cpds);
        let mut map = self.map.lock().expect("suite cache lock");
        let bucket = map.entry(key).or_default();
        if let Some((_, artifacts)) = bucket.iter().find(|(known, _)| same_system(known, cpds)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            cuba_telemetry::metrics::METRICS.cache_hits.inc();
            span.arg("hit", 1u64);
            return (artifacts.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        cuba_telemetry::metrics::METRICS.cache_misses.inc();
        span.arg("hit", 0u64);
        let artifacts = Arc::new(SystemArtifacts::new());
        bucket.push((Arc::new(cpds.clone()), artifacts.clone()));
        (artifacts, false)
    }

    /// Distinct systems seen so far.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .expect("suite cache lock")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether no system has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an existing slot.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that created a fresh slot.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// A point-in-time summary of the cache (the broker-facing
    /// `healthz` numbers).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            systems: self.len(),
            hits: self.hits(),
            misses: self.misses(),
        }
    }

    /// Evicts one system's slot, identified by its fingerprint and
    /// the exact artifacts `Arc` (so a fingerprint collision can never
    /// evict an innocent neighbor). Returns whether a slot was
    /// removed. Holders of the `Arc` keep their artifacts alive and
    /// usable — eviction only stops *new* lookups from sharing them —
    /// which is what lets a long-lived service bound its registry
    /// without invalidating in-flight sessions.
    pub fn remove(&self, fingerprint: u64, artifacts: &Arc<SystemArtifacts>) -> bool {
        let mut map = self.map.lock().expect("suite cache lock");
        let Some(bucket) = map.get_mut(&fingerprint) else {
            return false;
        };
        let before = bucket.len();
        bucket.retain(|(_, a)| !Arc::ptr_eq(a, artifacts));
        let removed = bucket.len() < before;
        if bucket.is_empty() {
            map.remove(&fingerprint);
        }
        removed
    }

    /// Re-inserts a previously evicted system with its still-live
    /// artifacts — the revive half of a service's spill path. If the
    /// system is cached again already, the existing slot wins and is
    /// returned; otherwise the given `Arc` is re-admitted *unchanged*,
    /// so clients still holding it and clients about to look it up
    /// converge on one exploration instead of racing a cold restart.
    /// Counted as neither hit nor miss (the caller already did its own
    /// lookup).
    pub fn adopt(&self, cpds: &Cpds, artifacts: Arc<SystemArtifacts>) -> Arc<SystemArtifacts> {
        let key = fingerprint(cpds);
        let mut map = self.map.lock().expect("suite cache lock");
        let bucket = map.entry(key).or_default();
        if let Some((_, existing)) = bucket.iter().find(|(known, _)| same_system(known, cpds)) {
            return existing.clone();
        }
        bucket.push((Arc::new(cpds.clone()), artifacts.clone()));
        artifacts
    }

    /// A snapshot of every cached system and its artifacts, in
    /// unspecified order — the broker-facing view behind a service's
    /// `/systems` endpoint. Entries are `Arc` clones: cheap, and safe
    /// to inspect while other workers keep analyzing.
    pub fn entries(&self) -> Vec<CacheEntry> {
        let map = self.map.lock().expect("suite cache lock");
        let mut entries: Vec<CacheEntry> = map
            .iter()
            .flat_map(|(&fingerprint, bucket)| {
                bucket.iter().map(move |(system, artifacts)| CacheEntry {
                    fingerprint,
                    system: system.clone(),
                    artifacts: artifacts.clone(),
                })
            })
            .collect();
        entries.sort_by_key(|e| e.fingerprint);
        entries
    }
}

/// Counter snapshot of a [`SuiteCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct systems cached.
    pub systems: usize,
    /// Lookups that found an existing slot.
    pub hits: usize,
    /// Lookups that created a fresh slot.
    pub misses: usize,
}

/// One cached system, as reported by [`SuiteCache::entries`].
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The structural fingerprint the system is keyed by.
    pub fingerprint: u64,
    /// The retained copy of the system.
    pub system: Arc<Cpds>,
    /// Its per-system artifacts (FCR, `G ∩ Z`, shared explorers).
    pub artifacts: Arc<SystemArtifacts>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1, fig2};
    use crate::{compute_z, GeneratorSet};

    /// Identical systems share a slot; different systems do not.
    #[test]
    fn fingerprint_distinguishes_systems() {
        assert_eq!(fingerprint(&fig1()), fingerprint(&fig1()));
        assert_ne!(fingerprint(&fig1()), fingerprint(&fig2()));
    }

    /// The FCR report and `G ∩ Z` are computed once per system and
    /// agree with the uncached entry points.
    #[test]
    fn artifacts_match_uncached_results() {
        let cache = SuiteCache::new();
        let cpds = fig1();
        let a1 = cache.artifacts(&cpds);
        let a2 = cache.artifacts(&fig1());
        assert!(Arc::ptr_eq(&a1, &a2), "same system, same slot");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);

        assert_eq!(a1.fcr(&cpds).holds(), check_fcr(&cpds).holds());
        let gz = a1.g_cap_z(&cpds);
        let generators = GeneratorSet::from_cpds(&cpds);
        let z = compute_z(&cpds);
        assert_eq!(*gz, generators.intersect(&z));
        // Second call reuses the same Arc.
        assert!(Arc::ptr_eq(&gz, &a1.g_cap_z(&cpds)));
        let fired = Interrupt::none().with_cancel({
            let token = cuba_explore::CancelToken::new();
            token.cancel();
            token
        });
        assert!(Arc::ptr_eq(&gz, &a1.g_cap_z_within(&cpds, &fired).unwrap()));

        assert!(!cache.artifacts(&fig2()).fcr(&fig2()).holds());
        assert_eq!(cache.len(), 2);
    }

    /// An interrupted `G ∩ Z` search caches nothing: the next caller
    /// computes the full set.
    #[test]
    fn interrupted_g_cap_z_caches_nothing() {
        let cpds = fig1();
        let artifacts = SystemArtifacts::new();
        let token = cuba_explore::CancelToken::new();
        token.cancel();
        let fired = Interrupt::none().with_cancel(token);
        assert_eq!(
            artifacts.g_cap_z_within(&cpds, &fired),
            Err(ExploreError::Cancelled)
        );
        let generators = GeneratorSet::from_cpds(&cpds);
        assert_eq!(
            *artifacts.g_cap_z(&cpds),
            generators.intersect(&compute_z(&cpds))
        );
    }

    /// Eviction removes exactly the named slot: later lookups open a
    /// fresh one, the evicted `Arc` stays usable, and a mismatched
    /// artifacts pointer (collision safety) removes nothing.
    #[test]
    fn remove_evicts_one_slot() {
        let cache = SuiteCache::new();
        let a1 = cache.artifacts(&fig1());
        let _ = cache.artifacts(&fig2());
        let key = fingerprint(&fig1());

        assert!(!cache.remove(key, &Arc::new(SystemArtifacts::new())));
        assert_eq!(cache.len(), 2, "wrong Arc evicts nothing");
        assert!(cache.remove(key, &a1));
        assert!(!cache.remove(key, &a1), "second removal is a no-op");
        assert_eq!(cache.len(), 1, "only fig1's slot went away");

        // The evicted artifacts still work; new lookups get a fresh slot.
        assert!(a1.fcr(&fig1()).holds());
        let a1_again = cache.artifacts(&fig1());
        assert!(!Arc::ptr_eq(&a1, &a1_again));
        assert_eq!(cache.len(), 2);
    }

    /// `adopt` re-admits an evicted system's live artifacts, so clients
    /// holding the old `Arc` and fresh lookups converge again — and if
    /// a new slot opened in the meantime, the new slot wins.
    #[test]
    fn adopt_restores_arc_sharing() {
        let cache = SuiteCache::new();
        let a1 = cache.artifacts(&fig1());
        assert!(cache.remove(fingerprint(&fig1()), &a1));

        let revived = cache.adopt(&fig1(), a1.clone());
        assert!(Arc::ptr_eq(&revived, &a1), "adopt re-admits the live Arc");
        assert!(
            Arc::ptr_eq(&cache.artifacts(&fig1()), &a1),
            "lookups after adopt see the revived slot"
        );
        let (hits, misses) = (cache.hits(), cache.misses());

        // If the system was re-cached already, the existing slot wins.
        assert!(cache.remove(fingerprint(&fig1()), &a1));
        let fresh = cache.artifacts(&fig1());
        let adopted = cache.adopt(&fig1(), a1.clone());
        assert!(Arc::ptr_eq(&adopted, &fresh), "existing slot wins");
        assert_eq!(cache.len(), 1, "no duplicate slot for one system");
        // Only the fresh lookup moved the counters: adopt itself
        // counts neither hits nor misses.
        assert_eq!(cache.hits(), hits);
        assert_eq!(cache.misses(), misses + 1);
    }

    /// `entries()` snapshots every cached system with its fingerprint
    /// and artifacts; `stats()` mirrors the counters.
    #[test]
    fn entries_snapshot_the_cache() {
        let cache = SuiteCache::new();
        assert!(cache.entries().is_empty());
        let a1 = cache.artifacts(&fig1());
        let _ = cache.artifacts(&fig2());
        let _ = cache.artifacts(&fig1());

        let entries = cache.entries();
        assert_eq!(entries.len(), 2);
        let fig1_entry = entries
            .iter()
            .find(|e| e.fingerprint == fingerprint(&fig1()))
            .expect("fig1 cached");
        assert!(Arc::ptr_eq(&fig1_entry.artifacts, &a1));
        assert!(same_system(&fig1_entry.system, &fig1()));
        assert_eq!(
            cache.stats(),
            CacheStats {
                systems: 2,
                hits: 1,
                misses: 2
            }
        );
    }

    /// A hit requires structural equality, not just a matching
    /// fingerprint: colliding distinct systems get distinct slots (the
    /// bucket is a list), so a 64-bit collision can never leak one
    /// system's verdict machinery to another.
    #[test]
    fn hits_require_structural_equality() {
        assert!(same_system(&fig1(), &fig1()));
        assert!(!same_system(&fig1(), &fig2()));

        // Simulate a fingerprint collision: seed fig2's entry into the
        // bucket fig1 will hash to. The fig1 lookup must reject it by
        // structural comparison and open a fresh slot.
        let cache = SuiteCache::new();
        let foreign = Arc::new(SystemArtifacts::new());
        cache
            .map
            .lock()
            .unwrap()
            .entry(fingerprint(&fig1()))
            .or_default()
            .push((Arc::new(fig2()), foreign.clone()));
        let a = cache.artifacts(&fig1());
        assert!(
            !Arc::ptr_eq(&a, &foreign),
            "a colliding system must not share artifacts"
        );
        assert_eq!(cache.len(), 2);
        // A repeat lookup of fig1 hits its own slot.
        assert!(Arc::ptr_eq(&a, &cache.artifacts(&fig1())));
        assert!(a.fcr(&fig1()).holds());
    }
}
