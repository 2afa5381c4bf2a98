//! A directory of layer-store snapshots keyed by system fingerprint —
//! the persistence layer behind `cuba serve --state-dir` and the
//! spill half of the broker's `max_systems` handling.
//!
//! One system owns up to three files in the directory, one per
//! explorer backend that has actually been started:
//!
//! ```text
//! {fingerprint:016x}.explicit.cubasnap
//! {fingerprint:016x}.symbolic-exact.cubasnap
//! {fingerprint:016x}.symbolic-pointwise.cubasnap
//! ```
//!
//! Each file is the self-describing binary format of
//! [`cuba_explore::snapshot`]: a magic/version/fingerprint/checksum
//! header followed by the system's structural identity and the full
//! layer record, so a load verifies the file belongs to the live
//! [`Cpds`] before any layer is trusted (the same collision discipline
//! as [`SuiteCache`](crate::SuiteCache) lookups). Writes are atomic
//! (temp file + rename), so a crash mid-save leaves either the old
//! snapshot or none — never a torn file.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cuba_explore::{snapshot, ExploreBudget, SharedExplorer, SnapshotKind};
use cuba_pds::Cpds;

use crate::cache::{fingerprint, SystemArtifacts};

/// A snapshot directory: save whole systems, load them lazily.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(SnapshotStore { dir })
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a `(fingerprint, backend)` pair lives at.
    pub fn path_for(&self, fingerprint: u64, kind: SnapshotKind) -> PathBuf {
        self.dir
            .join(format!("{fingerprint:016x}.{}.cubasnap", kind.label()))
    }

    /// Whether any backend of the fingerprinted system is on disk.
    pub fn contains(&self, fingerprint: u64) -> bool {
        SnapshotKind::all()
            .iter()
            .any(|kind| self.path_for(fingerprint, *kind).exists())
    }

    /// Writes one snapshot file per *started* explorer of `cpds`, and
    /// returns how many files were written. Explorers that were never
    /// demanded leave no file behind; stale files from an earlier,
    /// deeper run are simply overwritten.
    pub fn save(&self, cpds: &Cpds, artifacts: &SystemArtifacts) -> Result<usize, String> {
        let fp = fingerprint(cpds);
        let mut written = 0;
        for kind in SnapshotKind::all() {
            let Some(explorer) = artifacts.explorer_if_started(kind) else {
                continue;
            };
            let mut span = cuba_telemetry::trace::span_args(
                "snapshot-save",
                vec![("backend", kind.label().into())],
            );
            let bytes = explorer.snapshot(fp);
            span.arg("bytes", bytes.len());
            write_atomic(&self.path_for(fp, kind), &bytes)?;
            cuba_telemetry::metrics::METRICS.snapshot_saves.inc();
            written += 1;
        }
        Ok(written)
    }

    /// Seeds every *unstarted* explorer slot of `artifacts` from disk,
    /// and returns how many were restored. Missing files are fine
    /// (that backend starts cold); a file that exists but fails
    /// verification is an error naming the path. Slots a live
    /// exploration already claimed are left alone — live layers always
    /// win over a disk copy.
    pub fn load(
        &self,
        cpds: &Cpds,
        artifacts: &SystemArtifacts,
        budget: &ExploreBudget,
    ) -> Result<usize, String> {
        let fp = fingerprint(cpds);
        let mut loaded = 0;
        for kind in SnapshotKind::all() {
            if artifacts.explorer_if_started(kind).is_some() {
                continue;
            }
            let path = self.path_for(fp, kind);
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(format!("{}: {e}", path.display())),
            };
            let mut span = cuba_telemetry::trace::span_args(
                "snapshot-load",
                vec![("backend", kind.label().into())],
            );
            span.arg("bytes", bytes.len());
            // The header, not the file name, says which backend a file holds.
            if let Ok((recorded, _)) = snapshot::peek_header(&bytes) {
                if recorded != kind {
                    let recorded = recorded.label();
                    return Err(format!("{}: holds a {recorded} snapshot", path.display()));
                }
            }
            let explorer = SharedExplorer::restore(cpds.clone(), budget.clone(), fp, &bytes)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if artifacts.seed_explorer(kind, Arc::new(explorer)) {
                cuba_telemetry::metrics::METRICS.snapshot_loads.inc();
                loaded += 1;
            }
        }
        Ok(loaded)
    }
}

/// Writes `bytes` to `path` via a sibling temp file and a rename, so
/// readers only ever observe complete snapshots.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1, fig2};

    /// A unique, cleaned-on-drop scratch directory (no tempdir crate).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("cuba-snapstore-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn explored_artifacts(cpds: &Cpds, depth: usize) -> Arc<SystemArtifacts> {
        let artifacts = Arc::new(SystemArtifacts::new());
        let explorer = artifacts.explicit_explorer(cpds, &ExploreBudget::default());
        explorer
            .ensure_layer(depth, &cuba_explore::Interrupt::none())
            .expect("exploration in budget");
        artifacts
    }

    /// Save writes one file per started backend; load on a fresh
    /// artifacts slab replays the layers with zero live rounds and a
    /// byte-identical re-snapshot.
    #[test]
    fn save_then_load_round_trips() {
        let scratch = Scratch::new("roundtrip");
        let store = SnapshotStore::open(&scratch.0).expect("open store");
        let cpds = fig1();
        let fp = fingerprint(&cpds);
        let budget = ExploreBudget::default();

        let artifacts = explored_artifacts(&cpds, 4);
        assert_eq!(store.save(&cpds, &artifacts).expect("save"), 1);
        assert!(store.contains(fp));
        assert!(store.path_for(fp, SnapshotKind::Explicit).exists());

        let warm = Arc::new(SystemArtifacts::new());
        assert_eq!(store.load(&cpds, &warm, &budget).expect("load"), 1);
        let restored = warm
            .explorer_if_started(SnapshotKind::Explicit)
            .expect("seeded");
        // Replaying the recorded bounds consumes no live rounds.
        for k in 0..=4 {
            assert_eq!(
                restored.ensure_layer(k, &cuba_explore::Interrupt::none()),
                Ok(false)
            );
        }
        assert_eq!(restored.rounds_explored(), 0);
        assert_eq!(restored.snapshot(fp), {
            let live = artifacts
                .explorer_if_started(SnapshotKind::Explicit)
                .expect("started");
            live.snapshot(fp)
        });

        // A second load is a no-op: the slot is already started.
        assert_eq!(store.load(&cpds, &warm, &budget).expect("reload"), 0);
    }

    /// Loading a different system's directory entry never seeds
    /// anything, and a corrupt file is rejected with the path named.
    #[test]
    fn load_is_safe_against_misses_and_corruption() {
        let scratch = Scratch::new("corrupt");
        let store = SnapshotStore::open(&scratch.0).expect("open store");
        let cpds = fig1();
        let budget = ExploreBudget::default();

        // Nothing on disk: load is a clean zero.
        let warm = Arc::new(SystemArtifacts::new());
        assert_eq!(store.load(&cpds, &warm, &budget).expect("empty load"), 0);
        assert!(!store.contains(fingerprint(&cpds)));

        // fig1's snapshot does not hydrate fig2 (different fingerprint
        // means a different file name — nothing is even read).
        store
            .save(&cpds, &explored_artifacts(&cpds, 3))
            .expect("save fig1");
        assert!(!store.contains(fingerprint(&fig2())));
        assert_eq!(
            store
                .load(&fig2(), &Arc::new(SystemArtifacts::new()), &budget)
                .expect("load other system"),
            0
        );

        // Truncating fig1's file turns its load into a path-named error.
        let path = store.path_for(fingerprint(&cpds), SnapshotKind::Explicit);
        let bytes = std::fs::read(&path).expect("read snapshot");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let err = store
            .load(&cpds, &Arc::new(SystemArtifacts::new()), &budget)
            .expect_err("corrupt file rejected");
        assert!(err.contains("cubasnap"), "error names the file: {err}");
    }

    /// A snapshot renamed to another backend's file name is rejected
    /// with the path named, and seeds no slot: the header's backend
    /// kind, not the file name, says what the file holds.
    #[test]
    fn load_rejects_a_file_named_for_another_backend() {
        let scratch = Scratch::new("renamed");
        let store = SnapshotStore::open(&scratch.0).expect("open store");
        let cpds = fig1();
        let fp = fingerprint(&cpds);
        let budget = ExploreBudget::default();

        let artifacts = SystemArtifacts::new();
        artifacts
            .symbolic_explorer(&cpds, &budget, cuba_explore::SubsumptionMode::Exact)
            .ensure_layer(2, &cuba_explore::Interrupt::none())
            .expect("exploration in budget");
        assert_eq!(store.save(&cpds, &artifacts).expect("save"), 1);
        std::fs::rename(
            store.path_for(fp, SnapshotKind::SymbolicExact),
            store.path_for(fp, SnapshotKind::Explicit),
        )
        .expect("rename");

        let warm = SystemArtifacts::new();
        let err = store
            .load(&cpds, &warm, &budget)
            .expect_err("mislabelled file rejected");
        assert!(
            err.contains("explicit.cubasnap"),
            "error names the file: {err}"
        );
        assert!(
            warm.explicit_explorer_if_started().is_none(),
            "nothing seeded"
        );
    }
}
