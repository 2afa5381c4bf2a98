//! The session broker: the shared state every connection of the
//! service operates on — a long-lived [`SuiteCache`] (so concurrent
//! clients asking about the same CPDS share one saturation per
//! backend, bounded with least-recently-used spilling so the registry
//! cannot grow without limit),
//! the base portfolio configuration, the bounded analysis-slot pool
//! (analysis work queues for a slot; control endpoints never do),
//! service counters, and the shutdown machinery (a draining flag plus
//! the abort [`CancelToken`] wired into every session's interrupt).
//!
//! Under `max_systems` pressure the registry *spills* instead of
//! discarding: the least recently used system's layer stores are
//! snapshotted to the
//! state directory (when one is configured) and a weak handle is kept,
//! so the next request for that system revives the still-live
//! artifacts of any in-flight client — or, failing that, reloads the
//! saturation from disk — rather than paying for a cold re-exploration.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Instant;

use cuba_core::{
    fingerprint, same_system, Lineup, Portfolio, SessionConfig, SnapshotStore, SuiteCache,
    SystemArtifacts,
};
use cuba_explore::CancelToken;
use cuba_pds::Cpds;

use crate::ServeConfig;

/// How the service should wind down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop accepting, let in-flight sessions run to their verdicts.
    Graceful,
    /// Additionally fire the abort token: in-flight explorations stop
    /// at their next interrupt poll and their sessions conclude
    /// `Undetermined` (interrupted rounds roll back, so the shared
    /// layers stay valid for a later restart).
    Abort,
}

/// One registry entry in recency order: fingerprint, the system, and
/// its artifacts.
type TrackedEntry = (u64, Arc<Cpds>, Arc<SystemArtifacts>);

/// One spill bucket: the system for structural verification plus a
/// weak handle to the evicted artifacts (live while any client still
/// holds them).
type SpillBucket = Vec<(Arc<Cpds>, Weak<SystemArtifacts>)>;

/// Shared per-service state (one [`Broker`] per [`Server`]).
///
/// [`Server`]: crate::Server
#[derive(Debug)]
pub struct Broker {
    /// Per-system artifacts, shared across every request for the
    /// lifetime of the service: the registry behind `/systems`.
    pub cache: SuiteCache,
    config: ServeConfig,
    /// Fired on [`ShutdownMode::Abort`]; polled by every session.
    abort: CancelToken,
    draining: AtomicBool,
    started: Instant,
    requests_total: AtomicUsize,
    sessions_active: AtomicUsize,
    sessions_total: AtomicUsize,
    suites_total: AtomicUsize,
    /// Free analysis slots (the bounded pool): `/analyze` and
    /// `/suite` handlers block here, control endpoints never touch it.
    slots: Mutex<usize>,
    slots_cv: Condvar,
    /// Live connections (any endpoint), for the accept-time cap and
    /// the drain-on-shutdown wait.
    connections: Mutex<usize>,
    connections_cv: Condvar,
    /// Cached systems from least to most recently used — the LRU
    /// spill queue bounding the registry at `config.max_systems`: a
    /// request moves its system to the back, a spill takes the front.
    /// The system is kept alongside its artifacts so a spill can
    /// snapshot it and a graceful shutdown can flush every resident
    /// system.
    tracked: Mutex<VecDeque<TrackedEntry>>,
    /// Systems pushed out of the registry, by fingerprint. The
    /// bucket is a list for the same collision reason as the cache's.
    spilled: Mutex<HashMap<u64, SpillBucket>>,
    /// The snapshot directory behind `--state-dir`, when configured.
    snapshots: Option<SnapshotStore>,
    spills_total: AtomicUsize,
    reloads_total: AtomicUsize,
    revives_total: AtomicUsize,
    saves_total: AtomicUsize,
}

impl Broker {
    /// A fresh broker for one service instance. A configured
    /// `state_dir` that cannot be opened disables persistence with a
    /// warning rather than failing the boot — [`Server::bind`] checks
    /// the directory up front, so the CLI still reports a bad
    /// `--state-dir` as an error.
    ///
    /// [`Server::bind`]: crate::Server::bind
    pub fn new(config: ServeConfig) -> Self {
        let slots = config.workers.max(1);
        let snapshots = config.state_dir.as_ref().and_then(|dir| {
            SnapshotStore::open(dir)
                .map_err(|e| eprintln!("warning: state dir disabled: {e}"))
                .ok()
        });
        Broker {
            cache: SuiteCache::new(),
            config,
            abort: CancelToken::new(),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            requests_total: AtomicUsize::new(0),
            sessions_active: AtomicUsize::new(0),
            sessions_total: AtomicUsize::new(0),
            suites_total: AtomicUsize::new(0),
            slots: Mutex::new(slots),
            slots_cv: Condvar::new(),
            connections: Mutex::new(0),
            connections_cv: Condvar::new(),
            tracked: Mutex::new(VecDeque::new()),
            spilled: Mutex::new(HashMap::new()),
            snapshots,
            spills_total: AtomicUsize::new(0),
            reloads_total: AtomicUsize::new(0),
            revives_total: AtomicUsize::new(0),
            saves_total: AtomicUsize::new(0),
        }
    }

    /// Claims one analysis slot, blocking while all `workers` slots
    /// are busy — the bounded pool that queues analysis work without
    /// ever queueing `/healthz` or `/shutdown` behind it.
    pub fn acquire_slot(&self) -> SlotGuard<'_> {
        let mut free = self.slots.lock().expect("slot count");
        while *free == 0 {
            free = self.slots_cv.wait(free).expect("slot count");
        }
        *free -= 1;
        cuba_telemetry::metrics::METRICS.workers_busy.add(1);
        SlotGuard { broker: self }
    }

    /// Analysis slots currently claimed (busy workers).
    pub fn workers_busy(&self) -> usize {
        let free = *self.slots.lock().expect("slot count");
        self.config.workers.max(1).saturating_sub(free)
    }

    /// Analysis slots currently free (idle workers).
    pub fn workers_idle(&self) -> usize {
        *self.slots.lock().expect("slot count")
    }

    /// Registers one accepted connection, or reports that the live
    /// cap is reached (the acceptor then answers 503 instead of
    /// spawning a handler). Every `true` must be paired with exactly
    /// one [`connection_closed`](Self::connection_closed) — the
    /// handler thread does this through a drop guard, so a panicking
    /// handler still balances the count.
    pub fn try_open_connection(&self) -> bool {
        let mut live = self.connections.lock().expect("connection count");
        if *live >= self.config.max_connections.max(1) {
            return false;
        }
        *live += 1;
        true
    }

    /// Balances one [`try_open_connection`](Self::try_open_connection)
    /// and wakes a draining shutdown.
    pub fn connection_closed(&self) {
        let mut live = self.connections.lock().expect("connection count");
        *live = live.saturating_sub(1);
        self.connections_cv.notify_all();
    }

    /// Blocks until every live connection has finished — the drain
    /// step of a shutdown.
    pub fn wait_connections_drained(&self) {
        let mut live = self.connections.lock().expect("connection count");
        while *live > 0 {
            live = self.connections_cv.wait(live).expect("connection count");
        }
    }

    /// Live connections right now.
    pub fn connections_active(&self) -> usize {
        *self.connections.lock().expect("connection count")
    }

    /// The per-system artifacts for `cpds` from the long-lived cache,
    /// keeping the registry bounded at `max_systems`: every request
    /// marks its system most recently used, and when a new system
    /// would exceed the cap, the least recently used one is *spilled*
    /// — snapshotted to the state directory (when one is configured)
    /// and remembered weakly — rather than discarded.
    /// A later request for a spilled system re-admits the still-live
    /// artifacts any in-flight session holds (so two clients never
    /// race a cold re-exploration of one system), or reloads the
    /// saturation from disk, and only re-explores when neither exists.
    pub fn artifacts_for(&self, cpds: &Cpds) -> Arc<SystemArtifacts> {
        self.lookup_for(cpds).0
    }

    /// As [`artifacts_for`](Self::artifacts_for), also reporting
    /// whether the system was already warm (`true` = resident in the
    /// registry or revived from a spill).
    pub fn lookup_for(&self, cpds: &Cpds) -> (Arc<SystemArtifacts>, bool) {
        let key = fingerprint(cpds);
        let revived = self.try_revive(key, cpds);
        let (artifacts, hit) = self.cache.lookup(cpds);
        if !hit && !revived {
            self.hydrate(cpds, &artifacts);
        }
        self.track(key, cpds, &artifacts);
        (artifacts, hit || revived)
    }

    /// Re-admits a spilled system's artifacts while some client still
    /// holds them. Returns `true` when the live `Arc` went back into
    /// the cache (the caller's lookup will now hit it).
    fn try_revive(&self, key: u64, cpds: &Cpds) -> bool {
        let live = {
            let mut spilled = self.spilled.lock().expect("spill registry");
            let Some(bucket) = spilled.get_mut(&key) else {
                return false;
            };
            let mut found = None;
            // Dead weak handles are garbage wherever they appear:
            // compact the bucket while scanning it.
            bucket.retain(|(known, weak)| match weak.upgrade() {
                Some(artifacts) if found.is_none() && same_system(known, cpds) => {
                    found = Some(artifacts);
                    false
                }
                Some(_) => true,
                None => false,
            });
            if bucket.is_empty() {
                spilled.remove(&key);
            }
            match found {
                Some(live) => live,
                None => return false,
            }
        };
        self.cache.adopt(cpds, live);
        self.revives_total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Seeds a cold system's explorer slots from the state directory,
    /// if its snapshots are there. Unreadable snapshots log a warning
    /// and leave the system cold — persistence must never make a
    /// request fail.
    fn hydrate(&self, cpds: &Cpds, artifacts: &Arc<SystemArtifacts>) {
        let Some(store) = &self.snapshots else {
            return;
        };
        match store.load(cpds, artifacts, &self.config.session.budget) {
            Ok(loaded) if loaded > 0 => {
                self.reloads_total.fetch_add(loaded, Ordering::Relaxed);
            }
            Ok(_) => {}
            Err(error) => eprintln!("warning: snapshot load skipped: {error}"),
        }
    }

    /// Marks `artifacts` most recently used in the LRU queue (a hit
    /// moves its entry to the back, a new system is appended) and
    /// spills whatever the `max_systems` cap pushes out of the front.
    /// The search runs from the back, where recently used entries
    /// sit, so a warm hit costs O(warm set). The spill work (snapshot
    /// write) runs after the queue lock is released, so a slow disk
    /// never stalls other requests' registry lookups.
    fn track(&self, key: u64, cpds: &Cpds, artifacts: &Arc<SystemArtifacts>) {
        let mut evicted = Vec::new();
        {
            let mut tracked = self.tracked.lock().expect("eviction queue");
            let entry = match tracked
                .iter()
                .rposition(|(_, _, a)| Arc::ptr_eq(a, artifacts))
            {
                Some(hit) => tracked.remove(hit).expect("position is in range"),
                None => (key, Arc::new(cpds.clone()), artifacts.clone()),
            };
            tracked.push_back(entry);
            let cap = self.config.max_systems.max(1);
            while tracked.len() > cap {
                evicted.push(tracked.pop_front().expect("len > cap ≥ 1"));
            }
        }
        for (old_key, old_cpds, old) in evicted {
            self.spill(old_key, &old_cpds, &old);
        }
    }

    /// Spills one system out of the registry: snapshot to disk (state
    /// directory configured and the write succeeded), remember the
    /// artifacts weakly for revival, then evict the cache slot.
    /// Without a state directory, the systems spilled earlier that no
    /// client holds anymore are forgotten here, so the spill registry
    /// stays as small as the set of live clients.
    fn spill(&self, key: u64, cpds: &Arc<Cpds>, artifacts: &Arc<SystemArtifacts>) {
        if let Some(store) = &self.snapshots {
            match store.save(cpds, artifacts) {
                Ok(written) => {
                    self.saves_total.fetch_add(written, Ordering::Relaxed);
                    if written > 0 {
                        cuba_telemetry::metrics::METRICS.snapshot_spills.inc();
                    }
                }
                Err(error) => eprintln!("warning: snapshot spill failed: {error}"),
            }
        }
        self.spills_total.fetch_add(1, Ordering::Relaxed);
        {
            let mut spilled = self.spilled.lock().expect("spill registry");
            if self.snapshots.is_none() {
                spilled.retain(|&key, bucket| {
                    bucket.retain(|(_, weak)| self.reachable(key, weak));
                    !bucket.is_empty()
                });
            }
            spilled
                .entry(key)
                .or_default()
                .push((cpds.clone(), Arc::downgrade(artifacts)));
        }
        self.cache.remove(key, artifacts);
    }

    /// Whether a spilled system can come back: a client still holds
    /// its artifacts, or its snapshots are on disk.
    fn reachable(&self, key: u64, weak: &Weak<SystemArtifacts>) -> bool {
        weak.strong_count() > 0
            || self
                .snapshots
                .as_ref()
                .is_some_and(|store| store.contains(key))
    }

    /// Snapshots every resident system to the state directory — the
    /// graceful-shutdown flush behind `cuba serve --state-dir`.
    /// Returns the number of snapshot files written (0 without a state
    /// directory); write failures log a warning and move on.
    pub fn flush_snapshots(&self) -> usize {
        let Some(store) = &self.snapshots else {
            return 0;
        };
        let resident: Vec<(Arc<Cpds>, Arc<SystemArtifacts>)> = {
            let tracked = self.tracked.lock().expect("eviction queue");
            tracked
                .iter()
                .map(|(_, cpds, artifacts)| (cpds.clone(), artifacts.clone()))
                .collect()
        };
        let mut written = 0;
        for (cpds, artifacts) in resident {
            match store.save(&cpds, &artifacts) {
                Ok(files) => written += files,
                Err(error) => eprintln!("warning: snapshot flush failed: {error}"),
            }
        }
        self.saves_total.fetch_add(written, Ordering::Relaxed);
        written
    }

    /// The fingerprints of spilled systems whose artifacts are gone
    /// from the registry but still revivable (a client holds them) or
    /// reloadable (snapshots on disk) — the `spilled` rows of
    /// `/systems`. Resident systems never appear here.
    pub fn spilled_systems(&self) -> Vec<(u64, Arc<Cpds>)> {
        let resident: Vec<u64> = {
            let tracked = self.tracked.lock().expect("eviction queue");
            tracked.iter().map(|(key, _, _)| *key).collect()
        };
        let mut spilled = self.spilled.lock().expect("spill registry");
        let mut out = Vec::new();
        spilled.retain(|key, bucket| {
            bucket.retain(|(cpds, weak)| {
                let reachable = self.reachable(*key, weak);
                if reachable && !resident.contains(key) {
                    out.push((*key, cpds.clone()));
                }
                reachable
            });
            !bucket.is_empty()
        });
        out.sort_by_key(|(key, _)| *key);
        out
    }

    /// Whether a state directory is active (snapshots persist).
    pub fn state_dir_enabled(&self) -> bool {
        self.snapshots.is_some()
    }

    /// Systems spilled out of the registry since boot.
    pub fn spills_total(&self) -> usize {
        self.spills_total.load(Ordering::Relaxed)
    }

    /// Explorer snapshots reloaded from the state directory since boot.
    pub fn reloads_total(&self) -> usize {
        self.reloads_total.load(Ordering::Relaxed)
    }

    /// Spilled systems revived through a still-live client `Arc`.
    pub fn revives_total(&self) -> usize {
        self.revives_total.load(Ordering::Relaxed)
    }

    /// Snapshot files written (spills plus shutdown flushes).
    pub fn saves_total(&self) -> usize {
        self.saves_total.load(Ordering::Relaxed)
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The portfolio a request runs under: the service's base session
    /// configuration with the abort token wired in, plus the
    /// request's own overrides.
    pub fn portfolio(&self, lineup: Option<Lineup>, max_k: Option<usize>) -> Portfolio {
        let session = SessionConfig {
            max_k: max_k.unwrap_or(self.config.session.max_k),
            cancel: Some(self.abort.clone()),
            ..self.config.session.clone()
        };
        match lineup.unwrap_or_else(|| self.config.lineup.clone()) {
            Lineup::Auto => Portfolio::auto(),
            Lineup::Fixed(kinds) => Portfolio::fixed(kinds),
        }
        .with_config(session)
    }

    /// Whether the service has begun shutting down.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Initiates shutdown (idempotent). Callers still owe the
    /// acceptor a wake-up connection — see [`Server::run`].
    ///
    /// [`Server::run`]: crate::Server::run
    pub fn initiate_shutdown(&self, mode: ShutdownMode) {
        self.draining.store(true, Ordering::Relaxed);
        if mode == ShutdownMode::Abort {
            self.abort.cancel();
        }
    }

    /// Milliseconds since the broker was created.
    pub fn uptime_ms(&self) -> u128 {
        self.started.elapsed().as_millis()
    }

    /// Counts one accepted request.
    pub fn count_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests accepted so far.
    pub fn requests_total(&self) -> usize {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Marks one streaming session as started; the guard un-marks it.
    pub fn session_started(&self) -> SessionGuard<'_> {
        self.sessions_active.fetch_add(1, Ordering::Relaxed);
        self.sessions_total.fetch_add(1, Ordering::Relaxed);
        cuba_telemetry::metrics::METRICS.sessions_active.add(1);
        SessionGuard { broker: self }
    }

    /// Streaming sessions currently in flight.
    pub fn sessions_active(&self) -> usize {
        self.sessions_active.load(Ordering::Relaxed)
    }

    /// Streaming sessions started since boot.
    pub fn sessions_total(&self) -> usize {
        self.sessions_total.load(Ordering::Relaxed)
    }

    /// Counts one `/suite` batch.
    pub fn count_suite(&self) {
        self.suites_total.fetch_add(1, Ordering::Relaxed);
    }

    /// `/suite` batches run since boot.
    pub fn suites_total(&self) -> usize {
        self.suites_total.load(Ordering::Relaxed)
    }
}

/// RAII guard pairing [`Broker::session_started`] with its decrement,
/// so a panicking handler can never leak an "active" session.
#[derive(Debug)]
pub struct SessionGuard<'a> {
    broker: &'a Broker,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.broker.sessions_active.fetch_sub(1, Ordering::Relaxed);
        cuba_telemetry::metrics::METRICS.sessions_active.add(-1);
    }
}

/// RAII guard for one analysis slot; dropping it (normally or by
/// panic) frees the slot and wakes one queued analysis request.
#[derive(Debug)]
pub struct SlotGuard<'a> {
    broker: &'a Broker,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut free = self.broker.slots.lock().expect("slot count");
        *free += 1;
        cuba_telemetry::metrics::METRICS.workers_busy.add(-1);
        self.broker.slots_cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_guards() {
        let broker = Broker::new(ServeConfig::default());
        assert_eq!(broker.sessions_active(), 0);
        {
            let _one = broker.session_started();
            let _two = broker.session_started();
            assert_eq!(broker.sessions_active(), 2);
            assert_eq!(broker.sessions_total(), 2);
        }
        assert_eq!(broker.sessions_active(), 0);
        assert_eq!(broker.sessions_total(), 2);
        broker.count_request();
        broker.count_suite();
        assert_eq!(broker.requests_total(), 1);
        assert_eq!(broker.suites_total(), 1);
    }

    #[test]
    fn shutdown_modes() {
        let broker = Broker::new(ServeConfig::default());
        assert!(!broker.is_draining());
        broker.initiate_shutdown(ShutdownMode::Graceful);
        assert!(broker.is_draining());
        // Graceful never fires the abort token…
        let probe = broker.portfolio(None, None);
        let cancel = probe.config().cancel.clone().expect("abort token wired in");
        assert!(!cancel.is_cancelled());
        // …abort does, and every session's config polls the same flag.
        broker.initiate_shutdown(ShutdownMode::Abort);
        assert!(cancel.is_cancelled());
    }

    /// The slot pool bounds concurrent analyses at `workers`, blocks
    /// the overflow, and frees on drop (panic included via RAII).
    #[test]
    fn analysis_slots_are_bounded_and_released() {
        let broker = Broker::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let first = broker.acquire_slot();
        let second = broker.acquire_slot();
        // Third acquirer must block until a slot frees.
        let acquired = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _third = broker.acquire_slot();
                acquired.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!acquired.load(Ordering::SeqCst), "pool is full");
            drop(first);
            // The scope joins the thread: it must now get the slot.
        });
        assert!(acquired.load(Ordering::SeqCst));
        drop(second);
        let _refilled = (broker.acquire_slot(), broker.acquire_slot());
    }

    /// Connections are capped and drained: over-cap opens are
    /// refused, and the drain wait returns once every open is closed.
    #[test]
    fn connection_cap_and_drain() {
        let broker = Broker::new(ServeConfig {
            max_connections: 2,
            ..ServeConfig::default()
        });
        assert!(broker.try_open_connection(), "first");
        assert!(broker.try_open_connection(), "second");
        assert!(!broker.try_open_connection(), "cap reached");
        assert_eq!(broker.connections_active(), 2);
        broker.connection_closed();
        assert!(broker.try_open_connection(), "slot freed");
        broker.connection_closed();
        broker.connection_closed();
        broker.wait_connections_drained(); // returns immediately at 0
        assert_eq!(broker.connections_active(), 0);
    }

    fn system(shared: u32) -> Cpds {
        use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, StackSym};
        let mut p = PdsBuilder::new(shared, 2);
        p.overwrite(
            SharedState(0),
            StackSym(1),
            SharedState(shared - 1),
            StackSym(1),
        )
        .unwrap();
        CpdsBuilder::new(shared, SharedState(0))
            .thread(p.build().unwrap(), [StackSym(1)])
            .build()
            .unwrap()
    }

    /// A unique, cleaned-on-drop scratch directory (no tempdir crate).
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("cuba-serve-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// The registry is bounded: the least recently used system is
    /// spilled when a new one would exceed `max_systems`. A spilled
    /// system whose artifacts nobody holds anymore gets a fresh slot;
    /// hits never grow the queue.
    #[test]
    fn artifacts_registry_evicts_least_recently_used() {
        let broker = Broker::new(ServeConfig {
            max_systems: 2,
            ..ServeConfig::default()
        });
        let first = broker.artifacts_for(&system(2));
        let _second = broker.artifacts_for(&system(3));
        assert_eq!(broker.cache.len(), 2);
        // Give up the only live handle *before* the spill: revival is
        // then impossible and a re-request must open a fresh slot.
        drop(first);
        // A third distinct system spills the least recently used one
        // (system(2)).
        let _third = broker.artifacts_for(&system(4));
        assert_eq!(broker.cache.len(), 2);
        assert_eq!(broker.spills_total(), 1);
        let fingerprints: Vec<u64> = broker
            .cache
            .entries()
            .iter()
            .map(|e| e.fingerprint)
            .collect();
        assert!(!fingerprints.contains(&cuba_core::fingerprint(&system(2))));
        let readmitted = broker.artifacts_for(&system(2));
        assert_eq!(broker.cache.len(), 2);
        assert_eq!(broker.revives_total(), 0, "nothing live to revive");
        // Hits never grow the queue: a repeat moves its entry, it is
        // not tracked twice.
        for _ in 0..5 {
            let again = broker.artifacts_for(&system(2));
            assert!(Arc::ptr_eq(&again, &readmitted));
        }
        assert_eq!(broker.cache.len(), 2);
    }

    /// A hit makes its system the most recently used: after A, B, A,
    /// a new system C spills B, not A, so a system requested on every
    /// pass outlives a one-off.
    #[test]
    fn a_hit_keeps_its_system_resident() {
        let broker = Broker::new(ServeConfig {
            max_systems: 2,
            ..ServeConfig::default()
        });
        let (a, b, c) = (system(2), system(3), system(4));
        for cpds in [&a, &b, &a, &c] {
            broker.artifacts_for(cpds);
        }
        assert_eq!(broker.spills_total(), 1);
        let resident: Vec<u64> = broker
            .cache
            .entries()
            .iter()
            .map(|e| e.fingerprint)
            .collect();
        assert!(resident.contains(&cuba_core::fingerprint(&a)));
        assert!(resident.contains(&cuba_core::fingerprint(&c)));
        assert!(!resident.contains(&cuba_core::fingerprint(&b)));
    }

    /// Without a state directory a spilled system comes back only
    /// through a client's live handle, so spilling forgets the systems
    /// nobody holds: 200 one-off systems through a one-system registry
    /// leave at most the latest spill behind, not one `Cpds` each.
    #[test]
    fn spilling_forgets_dead_systems_without_a_state_dir() {
        let broker = Broker::new(ServeConfig {
            max_systems: 1,
            ..ServeConfig::default()
        });
        for shared in 2..202 {
            drop(broker.artifacts_for(&system(shared)));
        }
        assert_eq!(broker.spills_total(), 199);
        let kept: usize = broker
            .spilled
            .lock()
            .expect("spill registry")
            .values()
            .map(Vec::len)
            .sum();
        assert!(kept <= 1, "{kept} spilled systems kept");
    }

    /// The staggered-clients regression: client A holds a spilled
    /// system's artifacts while client B asks for the same system.
    /// B must get A's live `Arc` back (one exploration, no cold
    /// restart racing A's in-flight session), and the revived system
    /// is resident again.
    #[test]
    fn spilled_system_revives_through_live_clients() {
        let broker = Broker::new(ServeConfig {
            max_systems: 1,
            ..ServeConfig::default()
        });
        // Client A warms the system up: layers 0..=3 are explored live.
        let client_a = broker.artifacts_for(&system(2));
        let explorer = client_a.explicit_explorer(&system(2), &broker.config().session.budget);
        explorer
            .ensure_layer(3, &cuba_explore::Interrupt::none())
            .expect("warm-up exploration");
        let live_rounds = explorer.rounds_explored();
        assert!(live_rounds > 0);

        // Another system spills it while A still holds the Arc.
        let _other = broker.artifacts_for(&system(3));
        assert_eq!(broker.spills_total(), 1);
        assert!(
            !broker.spilled_systems().is_empty(),
            "the spilled system stays visible while A holds it"
        );

        // Client B, staggered behind A, asks for the same system.
        let client_b = broker.artifacts_for(&system(2));
        assert!(
            Arc::ptr_eq(&client_a, &client_b),
            "B converges on A's live artifacts, not a cold slot"
        );
        assert_eq!(broker.revives_total(), 1);
        // B replays A's layers for free: no new live rounds.
        let replayed = client_b.explicit_explorer(&system(2), &broker.config().session.budget);
        assert_eq!(
            replayed.ensure_layer(3, &cuba_explore::Interrupt::none()),
            Ok(false)
        );
        assert_eq!(replayed.rounds_explored(), live_rounds);
        // The revived system is resident again (system(3), which its
        // arrival spilled in turn, may be listed instead).
        let still_spilled: Vec<u64> = broker
            .spilled_systems()
            .iter()
            .map(|(key, _)| *key)
            .collect();
        assert!(
            !still_spilled.contains(&cuba_core::fingerprint(&system(2))),
            "revived = resident"
        );
    }

    /// With a state directory, a spill snapshots the layers to disk
    /// and the next request — even after every client dropped the
    /// artifacts — reloads the saturation instead of re-exploring:
    /// the recorded bounds replay with zero live rounds.
    #[test]
    fn spilled_system_reloads_from_state_dir() {
        let scratch = Scratch::new("spill-reload");
        let broker = Broker::new(ServeConfig {
            max_systems: 1,
            state_dir: Some(scratch.0.display().to_string()),
            ..ServeConfig::default()
        });
        let budget = broker.config().session.budget.clone();
        let artifacts = broker.artifacts_for(&system(2));
        let explorer = artifacts.explicit_explorer(&system(2), &budget);
        explorer
            .ensure_layer(3, &cuba_explore::Interrupt::none())
            .expect("warm-up exploration");
        assert!(explorer.rounds_explored() > 0);

        // Spill, then drop every live handle: only the disk remains.
        let _other = broker.artifacts_for(&system(3));
        assert_eq!(broker.spills_total(), 1);
        assert!(broker.saves_total() > 0, "spill wrote a snapshot");
        drop((artifacts, explorer));
        assert!(
            !broker.spilled_systems().is_empty(),
            "still listed: reloadable from disk"
        );

        // The next request reloads the saturation from the snapshot.
        let reloaded = broker.artifacts_for(&system(2));
        assert_eq!(broker.reloads_total(), 1);
        assert_eq!(broker.revives_total(), 0, "no live Arc existed");
        let warm = reloaded.explicit_explorer(&system(2), &budget);
        // Every recorded bound replays for free; the counter proves no
        // saturation was re-run.
        assert_eq!(
            warm.ensure_layer(3, &cuba_explore::Interrupt::none()),
            Ok(false)
        );
        assert_eq!(warm.rounds_explored(), 0);
    }

    /// `flush_snapshots` persists every resident system — the
    /// graceful-shutdown half of `--state-dir` — and a second broker
    /// on the same directory warm-starts from it.
    #[test]
    fn flush_then_warm_start_across_brokers() {
        let scratch = Scratch::new("warm-start");
        let state_dir = Some(scratch.0.display().to_string());
        let cold = Broker::new(ServeConfig {
            state_dir: state_dir.clone(),
            ..ServeConfig::default()
        });
        let budget = cold.config().session.budget.clone();
        let artifacts = cold.artifacts_for(&system(2));
        artifacts
            .explicit_explorer(&system(2), &budget)
            .ensure_layer(4, &cuba_explore::Interrupt::none())
            .expect("cold exploration");
        assert_eq!(cold.flush_snapshots(), 1);
        drop((artifacts, cold));

        // "Restart": a fresh broker, same directory, lazy warm load.
        let warm = Broker::new(ServeConfig {
            state_dir,
            ..ServeConfig::default()
        });
        let artifacts = warm.artifacts_for(&system(2));
        assert_eq!(warm.reloads_total(), 1);
        let explorer = artifacts.explicit_explorer(&system(2), &budget);
        assert_eq!(
            explorer.ensure_layer(4, &cuba_explore::Interrupt::none()),
            Ok(false)
        );
        assert_eq!(explorer.rounds_explored(), 0, "all bounds replayed");
    }

    #[test]
    fn portfolio_applies_overrides() {
        let broker = Broker::new(ServeConfig::default());
        assert_eq!(
            broker.portfolio(None, None).config().max_k,
            ServeConfig::default().session.max_k
        );
        assert_eq!(broker.portfolio(None, Some(7)).config().max_k, 7);
    }
}
