//! A compact, versioned binary snapshot of one exploration.
//!
//! CUBA's layered sequences `(Rk)`/`(Sk)` are a function of the system
//! alone, and verdicts replay deterministically from them — so the
//! layer record plus the backend's state table is exactly the artifact
//! worth persisting: a process that loads it replays every saturated
//! bound for free and only pays for layers nobody has computed yet.
//! This module defines that wire format and the encode/decode halves
//! used by [`SharedExplorer::snapshot`] and
//! [`SharedExplorer::restore`].
//!
//! # Format
//!
//! Hand-rolled little-endian binary, in the spirit of the repo's other
//! hand-rolled emitters (JSON, profile maps): no external
//! serialization dependency, deterministic output, versioned header.
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CUBASNAP"
//! 8       4     format version (this build writes 1)
//! 12      1     backend kind (0 explicit, 1 symbolic-exact, 2 symbolic-pointwise)
//! 13      8     CPDS fingerprint (caller-supplied, e.g. cuba_core::fingerprint)
//! 21      8     payload length in bytes
//! 29      8     FNV-1a 64 checksum of the payload
//! 37      …     payload
//! ```
//!
//! The payload has three sections: a canonical byte encoding of the
//! system's structure (the `same_system` discipline — byte equality of
//! canonical encodings is structural equality, so a fingerprint
//! collision cannot smuggle a wrong system past the loader), the
//! layer record (per-bound state ids and per-bound new visible
//! orbits; first-seen bounds, growth logs, and the collapse bound are
//! derived on load), and the backend's state table in discovery order.
//! A layer's ids are consecutive (the decoder checks them and keeps
//! only where each layer ends), and the state table ends the payload.
//! Both kinds of state table hold one canonical representative per
//! orbit of interchangeable threads, as the engines store them, and
//! the visible section holds the layer record's stored keys: per
//! bound, the number of new visible orbits, then one canonical visible
//! state per orbit (tops sorted by top code within each class of
//! interchangeable threads). The loader rejects any other state or
//! visible state, and re-derives the concrete state and visible counts
//! from the orbit sizes. A system without interchangeable threads has
//! one visible state per orbit, so its visible section lists every
//! visible state; files that list a whole visible orbit of a system
//! with interchangeable threads are refused.
//! Because engines are deterministic and every stored collection keeps
//! its discovery order, save → load → save is byte-identical.
//!
//! Decode errors are *offset-numbered* and never echo file content.
//!
//! [`SharedExplorer::snapshot`]: crate::SharedExplorer::snapshot
//! [`SharedExplorer::restore`]: crate::SharedExplorer::restore

use cuba_automata::CanonicalDfa;
use cuba_pds::{code_top, Cpds, GlobalState, Rhs, SharedState, Stack, StackSym, VisibleState};

use crate::shared::BackendImpl;
use crate::{
    ExplicitEngine, ExploreBudget, LayerStore, SubsumptionMode, SymbolicEngine, SymbolicState,
};

/// The magic bytes a snapshot file starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CUBASNAP";

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Header size in bytes (magic + version + kind + fingerprint +
/// payload length + checksum).
const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 8 + 8;

/// Which backend a snapshot records. Carried in the header so a loader
/// can route a file to the right engine (and the right artifact slot)
/// without parsing the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapshotKind {
    /// Explicit `(Rk)` layers.
    Explicit,
    /// Symbolic `(Sk)` layers with exact deduplication.
    SymbolicExact,
    /// Symbolic `(Sk)` layers with pointwise subsumption.
    SymbolicPointwise,
}

impl SnapshotKind {
    /// The header byte of this kind.
    pub fn code(self) -> u8 {
        match self {
            SnapshotKind::Explicit => 0,
            SnapshotKind::SymbolicExact => 1,
            SnapshotKind::SymbolicPointwise => 2,
        }
    }

    /// The kind a header byte denotes, if any.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(SnapshotKind::Explicit),
            1 => Some(SnapshotKind::SymbolicExact),
            2 => Some(SnapshotKind::SymbolicPointwise),
            _ => None,
        }
    }

    /// A stable lowercase label (file stems, JSON fields, logs).
    pub fn label(self) -> &'static str {
        match self {
            SnapshotKind::Explicit => "explicit",
            SnapshotKind::SymbolicExact => "symbolic-exact",
            SnapshotKind::SymbolicPointwise => "symbolic-pointwise",
        }
    }

    /// Every kind, in header-code order (directory scans).
    pub fn all() -> [SnapshotKind; 3] {
        [
            SnapshotKind::Explicit,
            SnapshotKind::SymbolicExact,
            SnapshotKind::SymbolicPointwise,
        ]
    }
}

impl std::fmt::Display for SnapshotKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Validates the fixed-size header of `bytes` and returns the backend
/// kind and fingerprint it records — without reading the payload, so
/// callers can route or reject a file cheaply.
///
/// # Errors
///
/// Offset-numbered messages for a truncated header, wrong magic, a
/// newer format version, or an unknown backend kind.
pub fn peek_header(bytes: &[u8]) -> Result<(SnapshotKind, u64), String> {
    if bytes.len() < HEADER_LEN {
        return Err("snapshot offset 0: truncated header".to_owned());
    }
    if bytes[0..8] != SNAPSHOT_MAGIC {
        return Err("snapshot offset 0: bad magic (not a cuba snapshot)".to_owned());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot offset 8: unsupported snapshot version (this build reads version {SNAPSHOT_VERSION})"
        ));
    }
    let kind = SnapshotKind::from_code(bytes[12])
        .ok_or_else(|| "snapshot offset 12: unknown backend kind".to_owned())?;
    let fingerprint = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
    Ok((kind, fingerprint))
}

/// FNV-1a 64 over the payload — the same cheap, dependency-free hash
/// family the rest of the workspace uses for non-cryptographic
/// integrity checks.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian byte sink for the payload.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader over the whole file; `pos` is
/// the absolute file offset every error message reports.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn fail(&self, at: usize, msg: &str) -> String {
        format!("snapshot offset {at}: {msg}")
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(self.fail(self.pos, &format!("unexpected end of data in {what}")));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads an element count and rejects counts that could not
    /// possibly fit in the remaining bytes (`elem_size` is a lower
    /// bound per element), so a corrupt length cannot trigger a huge
    /// allocation before the data runs out.
    fn count(&mut self, elem_size: usize, what: &str) -> Result<usize, String> {
        let at = self.pos;
        let n = self.u32(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if elem_size
            .checked_mul(n)
            .is_none_or(|total| total > remaining)
        {
            return Err(self.fail(at, &format!("implausible {what} count")));
        }
        Ok(n)
    }
}

/// Canonical byte encoding of a CPDS's structure: exactly the fields
/// `same_system` compares (shared-state space, initial shared state,
/// per-thread initial stacks and action tables — display names
/// excluded), in a fixed order. Byte equality of two encodings is
/// structural equality of the systems.
fn encode_identity(cpds: &Cpds) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(cpds.num_shared());
    w.u32(cpds.q_init().0);
    w.u32(cpds.num_threads() as u32);
    for i in 0..cpds.num_threads() {
        let stack = cpds.initial_stack(i);
        w.u32(stack.len() as u32);
        for sym in stack.iter_top_down() {
            w.u32(sym.0);
        }
        let actions = cpds.thread(i).actions();
        w.u32(actions.len() as u32);
        for a in actions {
            w.u32(a.q.0);
            w.u32(a.top.map_or(u32::MAX, |s| s.0));
            w.u32(a.q_post.0);
            match &a.rhs {
                Rhs::Empty => w.u8(0),
                Rhs::One(s) => {
                    w.u8(1);
                    w.u32(s.0);
                }
                Rhs::Two { top, below } => {
                    w.u8(2);
                    w.u32(top.0);
                    w.u32(below.0);
                }
            }
        }
    }
    w.buf
}

/// Frames `payload` with the versioned header.
fn frame(kind: SnapshotKind, fingerprint: u64, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.push(kind.code());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Writes the identity and layer-record sections (common prefix of
/// both backends' payloads).
fn encode_common(w: &mut Writer, cpds: &Cpds, store: &LayerStore) {
    let identity = encode_identity(cpds);
    w.u32(identity.len() as u32);
    w.buf.extend_from_slice(&identity);
    let num_layers = store.current_k() + 1;
    w.u32(num_layers as u32);
    for k in 0..num_layers {
        let ids = store.layer_ids(k);
        w.u32(ids.len() as u32);
        for id in ids {
            w.u32(id);
        }
    }
    for k in 0..num_layers {
        let keys = store.visible_layer_keys(k);
        w.u32(keys.len() as u32);
        for key in keys {
            w.u32(key[0]);
            for &code in &key[1..] {
                w.u32(code_top(code).map_or(u32::MAX, |s| s.0));
            }
        }
    }
}

/// Serializes an explicit engine (backend kind 0).
pub(crate) fn encode_explicit(engine: &ExplicitEngine, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    encode_common(&mut w, engine.cpds(), engine.store());
    encode_state_table(&mut w, &engine.states());
    frame(SnapshotKind::Explicit, fingerprint, w.buf)
}

/// Writes an explicit state table, the last section of its payload.
fn encode_state_table(w: &mut Writer, states: &[GlobalState]) {
    w.u32(states.len() as u32);
    for state in states {
        w.u32(state.q.0);
        for stack in &state.stacks {
            w.u32(stack.len() as u32);
            for sym in stack.iter_top_down() {
                w.u32(sym.0);
            }
        }
    }
}

/// Serializes a symbolic engine (backend kind 1 or 2 by mode).
pub(crate) fn encode_symbolic(engine: &SymbolicEngine, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    encode_common(&mut w, engine.cpds(), engine.store());
    encode_symbolic_table(&mut w, engine.num_stored(), engine.states());
    let kind = match engine.mode() {
        SubsumptionMode::Exact => SnapshotKind::SymbolicExact,
        SubsumptionMode::Pointwise => SnapshotKind::SymbolicPointwise,
    };
    frame(kind, fingerprint, w.buf)
}

/// Writes a symbolic state table of `len` states, the last section of
/// its payload.
fn encode_symbolic_table(
    w: &mut Writer,
    len: usize,
    states: impl IntoIterator<Item = SymbolicState>,
) {
    w.u32(len as u32);
    for state in states {
        w.u32(state.q.0);
        for dfa in &state.stacks {
            w.u32(dfa.num_states());
            for &f in dfa.finals() {
                w.u8(u8::from(f));
            }
            w.u32(dfa.transitions().len() as u32);
            for &(src, sym, dst) in dfa.transitions() {
                w.u32(src);
                w.u32(sym);
                w.u32(dst);
            }
        }
    }
}

/// Reads one shared state, range-checked against the live system.
fn read_shared(r: &mut Reader<'_>, cpds: &Cpds, what: &str) -> Result<SharedState, String> {
    let at = r.pos;
    let q = r.u32(what)?;
    if q >= cpds.num_shared() {
        return Err(r.fail(at, &format!("out-of-range shared state in {what}")));
    }
    Ok(SharedState(q))
}

/// Reads one optional top-of-stack symbol (`u32::MAX` = ε),
/// range-checked against thread `i`'s alphabet.
fn read_top(
    r: &mut Reader<'_>,
    cpds: &Cpds,
    i: usize,
    what: &str,
) -> Result<Option<StackSym>, String> {
    let at = r.pos;
    let v = r.u32(what)?;
    if v == u32::MAX {
        return Ok(None);
    }
    if v >= cpds.thread(i).alphabet_size() {
        return Err(r.fail(at, &format!("out-of-range stack symbol in {what}")));
    }
    Ok(Some(StackSym(v)))
}

/// Parses and verifies a snapshot, rebuilding the recorded engine
/// against the live `cpds`/`budget`.
///
/// # Errors
///
/// Offset-numbered messages (never echoing content) for: header
/// damage, a different format version, a fingerprint or structural
/// mismatch with `cpds`, a checksum failure, truncation, trailing
/// bytes, or any internal inconsistency of the decoded tables.
pub(crate) fn decode(
    cpds: Cpds,
    budget: ExploreBudget,
    expected_fingerprint: u64,
    bytes: &[u8],
) -> Result<BackendImpl, String> {
    let (kind, fingerprint) = peek_header(bytes)?;
    if fingerprint != expected_fingerprint {
        return Err(
            "snapshot offset 13: fingerprint mismatch (snapshot records a different system)"
                .to_owned(),
        );
    }
    let payload_len = u64::from_le_bytes(bytes[21..29].try_into().expect("8 bytes")) as usize;
    let actual_len = bytes.len() - HEADER_LEN;
    if actual_len < payload_len {
        return Err(format!(
            "snapshot offset {}: truncated payload",
            bytes.len()
        ));
    }
    if actual_len > payload_len {
        return Err(format!(
            "snapshot offset {}: trailing bytes after payload",
            HEADER_LEN + payload_len
        ));
    }
    let checksum = u64::from_le_bytes(bytes[29..37].try_into().expect("8 bytes"));
    if fnv1a(&bytes[HEADER_LEN..]) != checksum {
        return Err("snapshot offset 29: checksum mismatch (corrupt snapshot)".to_owned());
    }

    let mut r = Reader {
        buf: bytes,
        pos: HEADER_LEN,
    };

    // Section 1: structural identity. Byte-compare the stored encoding
    // against a re-encoding of the live system — the same collision
    // discipline the suite cache and profile map apply, so a matching
    // fingerprint alone is never trusted.
    let id_len = r.count(1, "identity section")?;
    let id_at = r.pos;
    let stored_identity = r.take(id_len, "identity section")?;
    if stored_identity != encode_identity(&cpds) {
        return Err(r.fail(
            id_at,
            "system structure mismatch (fingerprint collision or wrong model)",
        ));
    }

    // Section 2: the layer record, whose ids run from 0 consecutively.
    let layers_at = r.pos;
    let num_layers = r.count(4, "layer table")?;
    let mut stored_counts: Vec<u32> = Vec::with_capacity(num_layers);
    let mut next_id = 0u32;
    for k in 0..num_layers {
        let n = r.count(4, "layer ids")?;
        for _ in 0..n {
            if r.u32("layer ids")? != next_id {
                let msg = format!("layer {k}: state ids are not consecutive");
                return Err(r.fail(layers_at, &msg));
            }
            next_id = next_id
                .checked_add(1)
                .ok_or_else(|| r.fail(layers_at, &format!("layer {k}: state id overflow")))?;
        }
        stored_counts.push(next_id);
    }
    let per_visible = 4 + 4 * cpds.num_threads();
    let mut visible_layers: Vec<Vec<VisibleState>> = Vec::with_capacity(num_layers);
    for _ in 0..num_layers {
        let n = r.count(per_visible, "visible layer")?;
        let mut layer = Vec::with_capacity(n);
        for _ in 0..n {
            let q = read_shared(&mut r, &cpds, "visible layer")?;
            let mut tops = Vec::with_capacity(cpds.num_threads());
            for i in 0..cpds.num_threads() {
                tops.push(read_top(&mut r, &cpds, i, "visible layer")?);
            }
            layer.push(VisibleState::new(q, tops));
        }
        visible_layers.push(layer);
    }
    let store = LayerStore::from_parts(&cpds, stored_counts, visible_layers)
        .map_err(|e| r.fail(layers_at, &e))?;

    // Section 3: the backend's state table, in discovery order.
    let states_at = r.pos;
    let backend = match kind {
        SnapshotKind::Explicit => {
            let n = r.count(4, "state table")?;
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                let q = read_shared(&mut r, &cpds, "state table")?;
                let mut stacks = Vec::with_capacity(cpds.num_threads());
                for i in 0..cpds.num_threads() {
                    let depth = r.count(4, "stack word")?;
                    let alphabet = cpds.thread(i).alphabet_size();
                    let mut syms = Vec::with_capacity(depth);
                    for _ in 0..depth {
                        let at = r.pos;
                        let sym = r.u32("stack word")?;
                        if sym >= alphabet {
                            return Err(r.fail(at, "out-of-range stack symbol in stack word"));
                        }
                        syms.push(StackSym(sym));
                    }
                    stacks.push(Stack::from_top_down(syms));
                }
                states.push(GlobalState::new(q, stacks));
            }
            let engine = ExplicitEngine::from_parts(cpds, budget, states, store)
                .map_err(|e| format!("snapshot offset {states_at}: {e}"))?;
            BackendImpl::Explicit(Box::new(engine))
        }
        SnapshotKind::SymbolicExact | SnapshotKind::SymbolicPointwise => {
            let mode = match kind {
                SnapshotKind::SymbolicPointwise => SubsumptionMode::Pointwise,
                _ => SubsumptionMode::Exact,
            };
            let n = r.count(4, "state table")?;
            let mut states = Vec::with_capacity(n);
            for _ in 0..n {
                let q = read_shared(&mut r, &cpds, "state table")?;
                let mut stacks = Vec::with_capacity(cpds.num_threads());
                for i in 0..cpds.num_threads() {
                    let dfa_at = r.pos;
                    let dfa_states = r.count(1, "stack automaton")?;
                    let mut finals = Vec::with_capacity(dfa_states);
                    for _ in 0..dfa_states {
                        let at = r.pos;
                        match r.u8("stack automaton")? {
                            0 => finals.push(false),
                            1 => finals.push(true),
                            _ => return Err(r.fail(at, "bad final flag in stack automaton")),
                        }
                    }
                    let num_transitions = r.count(12, "stack automaton")?;
                    let alphabet = cpds.thread(i).alphabet_size();
                    let mut transitions = Vec::with_capacity(num_transitions);
                    for _ in 0..num_transitions {
                        let src = r.u32("stack automaton")?;
                        let at = r.pos;
                        let sym = r.u32("stack automaton")?;
                        if sym >= alphabet {
                            return Err(r.fail(at, "out-of-range stack symbol in stack automaton"));
                        }
                        let dst = r.u32("stack automaton")?;
                        transitions.push((src, sym, dst));
                    }
                    let dfa = CanonicalDfa::from_parts(dfa_states as u32, transitions, finals)
                        .map_err(|e| format!("snapshot offset {dfa_at}: {e}"))?;
                    stacks.push(dfa);
                }
                states.push(SymbolicState { q, stacks });
            }
            let engine = SymbolicEngine::from_parts(cpds, budget, mode, states, store)
                .map_err(|e| format!("snapshot offset {states_at}: {e}"))?;
            BackendImpl::Symbolic(Box::new(engine))
        }
    };
    if r.pos < bytes.len() {
        return Err(r.fail(r.pos, "trailing bytes after the state table"));
    }
    Ok(backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{CpdsBuilder, PdsBuilder};

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

    fn explicit_snapshot(k: usize) -> (Cpds, Vec<u8>) {
        let mut engine = ExplicitEngine::new(fig1(), ExploreBudget::default());
        for _ in 0..k {
            engine.advance().unwrap();
        }
        let bytes = encode_explicit(&engine, 42);
        (fig1(), bytes)
    }

    #[test]
    fn explicit_roundtrip_is_byte_identical() {
        let (cpds, bytes) = explicit_snapshot(4);
        let decoded = decode(cpds, ExploreBudget::default(), 42, &bytes).unwrap();
        let BackendImpl::Explicit(engine) = decoded else {
            panic!("explicit snapshot decoded to the wrong backend");
        };
        assert_eq!(engine.current_k(), 4);
        assert_eq!(encode_explicit(&engine, 42), bytes);
    }

    #[test]
    fn symbolic_roundtrip_is_byte_identical() {
        let mut engine =
            SymbolicEngine::new(fig1(), ExploreBudget::default(), SubsumptionMode::Exact);
        for _ in 0..3 {
            engine.advance().unwrap();
        }
        let bytes = encode_symbolic(&engine, 7);
        assert_eq!(
            peek_header(&bytes).unwrap(),
            (SnapshotKind::SymbolicExact, 7)
        );
        let decoded = decode(fig1(), ExploreBudget::default(), 7, &bytes).unwrap();
        let BackendImpl::Symbolic(restored) = decoded else {
            panic!("symbolic snapshot decoded to the wrong backend");
        };
        assert_eq!(restored.current_k(), 3);
        assert_eq!(restored.mode(), SubsumptionMode::Exact);
        assert_eq!(encode_symbolic(&restored, 7), bytes);
    }

    #[test]
    fn wrong_fingerprint_is_rejected() {
        let (cpds, bytes) = explicit_snapshot(2);
        let err = decode(cpds, ExploreBudget::default(), 43, &bytes).unwrap_err();
        assert!(err.contains("snapshot offset 13"), "{err}");
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn newer_version_is_rejected() {
        let (cpds, mut bytes) = explicit_snapshot(2);
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let err = decode(cpds, ExploreBudget::default(), 42, &bytes).unwrap_err();
        assert_eq!(
            err,
            "snapshot offset 8: unsupported snapshot version (this build reads version 1)"
        );
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let (cpds, mut bytes) = explicit_snapshot(2);
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        let err = decode(cpds, ExploreBudget::default(), 42, &bytes).unwrap_err();
        assert_eq!(
            err,
            "snapshot offset 29: checksum mismatch (corrupt snapshot)"
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let (cpds, bytes) = explicit_snapshot(2);
        let cut = &bytes[..bytes.len() - 5];
        let err = decode(cpds.clone(), ExploreBudget::default(), 42, cut).unwrap_err();
        assert!(err.contains("truncated payload"), "{err}");
        let mut padded = bytes.clone();
        padded.push(0);
        let err = decode(cpds.clone(), ExploreBudget::default(), 42, &padded).unwrap_err();
        assert!(err.contains("trailing bytes"), "{err}");
        // A state table that ends before the payload does: the last
        // state's first stack holds one symbol, and a depth of 0 makes
        // the table end 8 bytes early. Decoding it anyway would load
        // another state than the file's and re-encode to 566 bytes.
        let (_, mut short) = explicit_snapshot(4);
        assert_eq!((short.len(), &short[550..554]), (574, &[1, 0, 0, 0][..]));
        short[550..554].fill(0);
        let checksum = fnv1a(&short[HEADER_LEN..]);
        short[29..37].copy_from_slice(&checksum.to_le_bytes());
        let err = decode(cpds.clone(), ExploreBudget::default(), 42, &short).unwrap_err();
        assert_eq!(
            err,
            "snapshot offset 566: trailing bytes after the state table"
        );
        let err = decode(cpds, ExploreBudget::default(), 42, &bytes[..10]).unwrap_err();
        assert_eq!(err, "snapshot offset 0: truncated header");
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let (cpds, mut bytes) = explicit_snapshot(1);
        bytes[0] = b'X';
        let err = decode(cpds, ExploreBudget::default(), 42, &bytes).unwrap_err();
        assert_eq!(err, "snapshot offset 0: bad magic (not a cuba snapshot)");
    }

    #[test]
    fn structurally_different_system_is_rejected() {
        let (_, bytes) = explicit_snapshot(2);
        // Same fingerprint claimed, structurally different system.
        let mut p = PdsBuilder::new(4, 3);
        p.overwrite(q(0), s(1), q(1), s(2)).unwrap();
        let other = CpdsBuilder::new(4, q(0))
            .thread(p.build().unwrap(), [s(1)])
            .build()
            .unwrap();
        let err = decode(other, ExploreBudget::default(), 42, &bytes).unwrap_err();
        assert!(err.contains("system structure mismatch"), "{err}");
    }

    /// Two interchangeable copies of a thread that rewrites its top.
    fn twins() -> Cpds {
        let mut p = PdsBuilder::new(2, 3);
        p.overwrite(q(0), s(0), q(1), s(1)).unwrap();
        p.overwrite(q(1), s(0), q(0), s(2)).unwrap();
        CpdsBuilder::new(2, q(0))
            .threads(&p.build().unwrap(), [s(0)], 2)
            .build()
            .unwrap()
    }

    /// A snapshot of a system with interchangeable threads restores
    /// its concrete counts; one whose state table holds a
    /// non-canonical member of an orbit is rejected without echoing it.
    #[test]
    fn explicit_state_tables_hold_canonical_representatives() {
        let mut engine = ExplicitEngine::new(twins(), ExploreBudget::default());
        engine.run_until_collapse(8).unwrap();
        assert!(engine.states().len() < engine.num_states());
        let bytes = encode_explicit(&engine, 5);
        let BackendImpl::Explicit(restored) =
            decode(twins(), ExploreBudget::default(), 5, &bytes).unwrap()
        else {
            panic!("explicit snapshot decoded to the wrong backend");
        };
        assert_eq!(restored.num_states(), engine.num_states());
        for k in 0..=engine.current_k() {
            assert_eq!(
                restored.store().state_count_at(k),
                engine.store().state_count_at(k)
            );
        }

        let mut states = engine.states();
        let swap = states
            .iter()
            .position(|st| st.stacks[0] != st.stacks[1])
            .expect("a state with distinct stacks");
        states[swap].stacks.swap(0, 1);
        let mut table = Writer::new();
        encode_state_table(&mut table, &states);
        let mut payload = bytes[HEADER_LEN..bytes.len() - table.buf.len()].to_vec();
        payload.extend_from_slice(&table.buf);
        let tampered = frame(SnapshotKind::Explicit, 5, payload);
        let err = decode(twins(), ExploreBudget::default(), 5, &tampered).unwrap_err();
        assert!(err.starts_with("snapshot offset "), "{err}");
        assert!(
            err.ends_with(
                ": state table holds a state that is not its orbit's canonical representative"
            ),
            "{err}"
        );
    }

    /// As [`explicit_state_tables_hold_canonical_representatives`], for
    /// the symbolic engine: a restore keeps the concrete counts, and a
    /// table holding a non-canonical member of an orbit is rejected
    /// without echoing it.
    #[test]
    fn symbolic_state_tables_hold_canonical_representatives() {
        let mut engine =
            SymbolicEngine::new(twins(), ExploreBudget::default(), SubsumptionMode::Exact);
        engine.run_until_collapse(8).unwrap();
        let states: Vec<SymbolicState> = engine.states().collect();
        assert!(states.len() < engine.num_symbolic_states());
        let bytes = encode_symbolic(&engine, 5);
        let BackendImpl::Symbolic(restored) =
            decode(twins(), ExploreBudget::default(), 5, &bytes).unwrap()
        else {
            panic!("symbolic snapshot decoded to the wrong backend");
        };
        assert_eq!(restored.num_symbolic_states(), engine.num_symbolic_states());
        for k in 0..=engine.current_k() {
            assert_eq!(
                restored.store().state_count_at(k),
                engine.store().state_count_at(k)
            );
        }
        assert_eq!(encode_symbolic(&restored, 5), bytes);

        let mut tampered_states = states.clone();
        let swap = tampered_states
            .iter()
            .position(|st| st.stacks[0] != st.stacks[1])
            .expect("a state with distinct stack languages");
        tampered_states[swap].stacks.swap(0, 1);
        let mut table = Writer::new();
        encode_symbolic_table(&mut table, states.len(), states);
        let mut tampered_table = Writer::new();
        encode_symbolic_table(&mut tampered_table, tampered_states.len(), tampered_states);
        let mut payload = bytes[HEADER_LEN..bytes.len() - table.buf.len()].to_vec();
        payload.extend_from_slice(&tampered_table.buf);
        let tampered = frame(SnapshotKind::SymbolicExact, 5, payload);
        let err = decode(twins(), ExploreBudget::default(), 5, &tampered).unwrap_err();
        assert!(err.starts_with("snapshot offset "), "{err}");
        assert!(
            err.ends_with(
                ": state table holds a state that is not its orbit's canonical representative"
            ),
            "{err}"
        );
    }

    #[test]
    fn errors_never_echo_content() {
        let (cpds, mut bytes) = explicit_snapshot(3);
        for tweak in [0usize, 8, 12, 13, 29, HEADER_LEN + 2] {
            let mut broken = bytes.clone();
            broken[tweak] ^= 0xff;
            if let Err(e) = decode(cpds.clone(), ExploreBudget::default(), 42, &broken) {
                assert!(e.starts_with("snapshot offset "), "{e}");
                assert!(!e.contains("CUBASNAP"), "{e}");
            }
        }
        bytes.truncate(20);
        let err = decode(cpds, ExploreBudget::default(), 42, &bytes).unwrap_err();
        assert!(err.starts_with("snapshot offset "), "{err}");
    }
}
