//! Pins the engines' discovery order and the snapshot bytes, and runs
//! the snapshot decoder on byte mutations of snapshots.
//!
//! Both engines number states in discovery order, and `.cubasnap`
//! files record that order, so any change to how a round walks its
//! frontier shows up here — even when layer *sets* and verdicts stay
//! the same. The digests of systems without interchangeable threads
//! (Fig. 1, Fig. 2, both `cuba snapshot` files) were recorded with the
//! clone-per-step engines that preceded the interned state keys; the
//! interned engines must reproduce them exactly. bst-insert/2+1 has two
//! interchangeable inserters and stefan-1/4 four interchangeable
//! threads, so the engines store one representative per orbit and the
//! layer record one canonical key per visible orbit. Their pins come in
//! three parts: the reduced state sequence, each bound's concrete
//! visible layer sorted (both recorded before the layer record kept
//! canonical visible keys, when it kept every member of every visible
//! orbit), and the stored canonical keys in first-seen order; their
//! concrete counts are the unreduced engines'.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::Mutex;

use cuba::benchmarks::{bst, fig1, fig2, stefan};
use cuba::explore::{
    ExplicitEngine, ExploreBudget, Interrupt, LayerStore, SharedExplorer, SubsumptionMode,
    SymbolicEngine,
};
use cuba::pds::rng::SplitMix64;
use cuba::pds::VisibleState;
use cuba_telemetry::metrics::METRICS;

/// Held by the tests that run symbolic engines, so that one of them
/// can count the `post*` runs of its own engine in the process-wide
/// metrics.
static SYMBOLIC: Mutex<()> = Mutex::new(());

/// FNV-1a 64 over little-endian `u32` words.
#[derive(Debug)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }

    fn visible(&mut self, layer: &[VisibleState]) {
        self.word(layer.len() as u32);
        for v in layer {
            self.word(v.q.0);
            for top in &v.tops {
                self.word(top.map_or(u32::MAX, |s| s.0));
            }
        }
    }
}

/// The explicit state sequence, then per bound the layer ids and the
/// new visible states in discovery order, with the number of stored
/// states.
fn explicit_digest(engine: &ExplicitEngine) -> (usize, u64) {
    let mut d = Digest::new();
    for state in engine.states() {
        d.word(state.q.0);
        for stack in &state.stacks {
            d.word(stack.len() as u32);
            for sym in stack.iter_top_down() {
                d.word(sym.0);
            }
        }
    }
    for k in 0..=engine.current_k() {
        let ids = engine.store().layer_ids(k);
        d.word(ids.len() as u32);
        for id in ids {
            d.word(id);
        }
        d.visible(&engine.visible_layer(k));
    }
    (engine.states().len(), d.0)
}

/// Per bound, the symbolic layer's stored states (shared state and
/// canonical DFAs) and its new visible states, in discovery order,
/// with the concrete number of symbolic states.
fn symbolic_digest(engine: &SymbolicEngine) -> (usize, u64) {
    let mut d = Digest::new();
    for k in 0..=engine.current_k() {
        symbolic_layer(&mut d, engine, k);
        d.word(u32::MAX);
        d.visible(&engine.visible_layer(k));
    }
    (engine.num_symbolic_states(), d.0)
}

/// Digests the stored states of symbolic layer `k` in discovery order.
fn symbolic_layer(d: &mut Digest, engine: &SymbolicEngine, k: usize) {
    for state in engine.layer(k) {
        d.word(state.q.0);
        for dfa in &state.stacks {
            d.word(dfa.num_states());
            for &f in dfa.finals() {
                d.word(u32::from(f));
            }
            d.word(dfa.transitions().len() as u32);
            for &(src, sym, dst) in dfa.transitions() {
                d.word(src);
                d.word(sym);
                d.word(dst);
            }
        }
    }
}

/// The explicit state sequence, then per bound the layer ids: the
/// first half of [`explicit_digest`], which pins no visible order.
fn explicit_state_digest(engine: &ExplicitEngine) -> (usize, u64) {
    let mut d = Digest::new();
    for state in engine.states() {
        d.word(state.q.0);
        for stack in &state.stacks {
            d.word(stack.len() as u32);
            for sym in stack.iter_top_down() {
                d.word(sym.0);
            }
        }
    }
    for k in 0..=engine.current_k() {
        let ids = engine.store().layer_ids(k);
        d.word(ids.len() as u32);
        for id in ids {
            d.word(id);
        }
    }
    (engine.states().len(), d.0)
}

/// Per bound, the symbolic layer's stored states in discovery order,
/// with the number of stored states.
fn symbolic_state_digest(engine: &SymbolicEngine) -> (usize, u64) {
    let mut d = Digest::new();
    for k in 0..=engine.current_k() {
        symbolic_layer(&mut d, engine, k);
        d.word(u32::MAX);
    }
    (engine.num_stored(), d.0)
}

/// Per bound, the layer record's stored visible keys (one canonical
/// key per visible orbit) in first-seen order, with their number.
fn stored_key_digest(store: &LayerStore) -> (usize, u64) {
    let (mut d, mut total) = (Digest::new(), 0);
    for k in 0..=store.current_k() {
        let keys = store.visible_layer_keys(k);
        d.word(keys.len() as u32);
        for key in keys {
            total += 1;
            key.iter().for_each(|&w| d.word(w));
        }
    }
    (total, d.0)
}

/// Per bound, the concrete visible states first seen there, sorted:
/// the visible sets whatever order a layer record keeps them in, with
/// their total.
fn sorted_visible_digest(layers: impl Iterator<Item = Vec<VisibleState>>) -> (usize, u64) {
    let (mut d, mut total) = (Digest::new(), 0);
    for mut layer in layers {
        layer.sort();
        total += layer.len();
        d.visible(&layer);
    }
    (total, d.0)
}

#[test]
fn explicit_discovery_order_is_pinned() {
    let mut engine = ExplicitEngine::new(fig1::build(), ExploreBudget::default());
    for _ in 0..6 {
        engine.advance(&Interrupt::none()).unwrap();
    }
    assert_eq!(explicit_digest(&engine), (17, 6447690871695350749));
    assert_eq!(engine.num_states(), 17);

    let mut engine = ExplicitEngine::new(bst::build(2, 1), ExploreBudget::default());
    engine.run_until_collapse(64, &Interrupt::none()).unwrap();
    assert!(engine.is_collapsed());
    assert_eq!(engine.current_k(), 4);
    assert_eq!(explicit_state_digest(&engine), (1183, 3811161117205548498));
    let layers = (0..=engine.current_k()).map(|k| engine.visible_layer(k));
    assert_eq!(sorted_visible_digest(layers), (637, 13576933035729651311));
    assert_eq!(
        stored_key_digest(engine.store()),
        (140, 18298600918255840719)
    );
    assert_eq!(engine.num_states(), 6253);
}

#[test]
fn symbolic_discovery_order_is_pinned() {
    let _serial = SYMBOLIC.lock().unwrap_or_else(|e| e.into_inner());
    for (mode, k, pin) in [
        (SubsumptionMode::Exact, 5, (23, 7874432759883519607)),
        (SubsumptionMode::Pointwise, 4, (12, 2405248916837428743)),
    ] {
        let mut engine = SymbolicEngine::new(fig2::build(), ExploreBudget::default(), mode);
        engine.run_until_collapse(64, &Interrupt::none()).unwrap();
        assert!(engine.is_collapsed());
        assert_eq!(engine.current_k(), k, "{mode:?}");
        assert_eq!(symbolic_digest(&engine), pin, "{mode:?}");
    }

    let mut engine = SymbolicEngine::new(
        stefan::build(4),
        ExploreBudget::default(),
        SubsumptionMode::Exact,
    );
    engine.run_until_collapse(64, &Interrupt::none()).unwrap();
    assert!(engine.is_collapsed());
    assert_eq!(engine.current_k(), 6);
    assert_eq!(symbolic_state_digest(&engine), (21, 7749093684581373689));
    let layers = (0..=engine.current_k()).map(|k| engine.visible_layer(k));
    assert_eq!(sorted_visible_digest(layers), (512, 3933383429947142971));
    assert_eq!(stored_key_digest(engine.store()), (55, 8792876220574883936));
    assert_eq!(engine.num_symbolic_states(), 174);
}

/// stefan-1/8, the paper's out-of-memory row: the engine stores one
/// representative per orbit of its eight interchangeable threads and
/// runs one `post*` per distinct stack language of a frontier
/// representative, yet every concrete count through k = 6 is the
/// unreduced engine's, and round 7 exceeds the 20,000-state budget of
/// the Table 2 runs as it did, leaving the engine at k = 6.
#[test]
fn stefan_8_keeps_its_counts_and_its_budget_error() {
    let _serial = SYMBOLIC.lock().unwrap_or_else(|e| e.into_inner());
    let budget = ExploreBudget {
        max_symbolic_states: 20_000,
        ..ExploreBudget::default()
    };
    let runs_before = METRICS.symbolic_contexts_run.get();
    let mut engine = SymbolicEngine::new(stefan::build(8), budget, SubsumptionMode::Exact);
    for _ in 0..6 {
        engine.advance(&Interrupt::none()).unwrap();
    }
    let states: Vec<usize> = (0..=6).map(|k| engine.store().state_count_at(k)).collect();
    assert_eq!(states, [1, 17, 157, 941, 3587, 9103, 16187]);
    let visible: Vec<usize> = (0..=6)
        .map(|k| engine.store().visible_count_at(k))
        .collect();
    assert_eq!(visible, [1, 33, 453, 3477, 16707, 52995, 114231]);
    let stored_keys: usize = (0..=6)
        .map(|k| engine.store().visible_layer_keys(k).len())
        .sum();
    assert_eq!(stored_keys, 140, "one stored key per visible orbit");
    assert_eq!(engine.num_symbolic_states(), 16187);
    assert!(engine.num_stored() <= 50, "{} stored", engine.num_stored());
    let error = engine.advance(&Interrupt::none()).unwrap_err();
    assert_eq!(error.to_string(), "symbolic state budget of 20000 exceeded");
    assert_eq!(engine.current_k(), 6);
    assert_eq!(engine.num_symbolic_states(), 16187);
    let runs = METRICS.symbolic_contexts_run.get() - runs_before;
    assert!(runs <= 200, "{runs} post* runs");
}

/// Runs `cuba snapshot` and digests the file it writes.
fn snapshot_digest(model: &str, extra: &[&str]) -> (usize, u64) {
    let dir = std::env::temp_dir().join(format!("cuba-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join(format!("{}.cubasnap", model.replace(['/', '.'], "_")));
    let status = Command::new(env!("CARGO_BIN_EXE_cuba"))
        .args([
            "snapshot",
            model,
            "--out",
            out.to_str().expect("utf-8 path"),
        ])
        .args(extra)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    assert!(status.status.success(), "{status:?}");
    let bytes = std::fs::read(&out).expect("snapshot written");
    let _ = std::fs::remove_dir_all(&dir);
    let mut d = Digest::new();
    d.bytes(&bytes);
    (bytes.len(), d.0)
}

#[test]
fn snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_digest("samples/fig1.cpds", &[]),
        (17026, 4039163635322969313)
    );
    assert_eq!(
        snapshot_digest("samples/fig2.bp", &["--max-k", "8"]),
        (4853, 14068536676173696729)
    );
}

/// Magic, version, kind, fingerprint, payload length, checksum.
const HEADER_LEN: usize = 37;
const CHECKSUM: std::ops::Range<usize> = 29..37;
const FINGERPRINT: u64 = 7;

/// Re-stamps the payload checksum of a snapshot (FNV-1a 64, as
/// `Digest`), so that an edited payload reaches the parser.
fn restamp(bytes: &mut [u8]) {
    let mut sum = Digest::new();
    sum.bytes(&bytes[HEADER_LEN..]);
    bytes[CHECKSUM].copy_from_slice(&sum.0.to_le_bytes());
}

/// The symbolic snapshot of stefan-1/4 at bound `k`.
fn stefan_4_snapshot(k: usize) -> Vec<u8> {
    let explorer = SharedExplorer::symbolic(
        stefan::build(4),
        ExploreBudget::default(),
        SubsumptionMode::Exact,
    );
    explorer.ensure_layer(k, &Interrupt::none()).unwrap();
    explorer.snapshot(FINGERPRINT)
}

/// A symbolic snapshot of a system with interchangeable threads: its
/// visible section holds one canonical key per visible orbit.
#[test]
fn stefan_4_snapshot_bytes_are_pinned() {
    let mut d = Digest::new();
    let bytes = stefan_4_snapshot(6);
    d.bytes(&bytes);
    assert_eq!((bytes.len(), d.0), (5265, 13439329926959257620));
}

/// A stefan-1/4 snapshot whose visible section lists a visible state
/// that is not its orbit's canonical key, as a build that recorded
/// every member of every visible orbit wrote, is refused with an
/// offset-numbered error.
#[test]
fn a_non_canonical_visible_key_is_refused() {
    let mut bytes = stefan_4_snapshot(4);
    let word = |bytes: &[u8], at: usize| {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
    };
    let threads = stefan::build(4).num_threads();
    // Skip the identity section and the layer ids.
    let mut at = HEADER_LEN;
    at += 4 + word(&bytes, at);
    let layers = word(&bytes, at);
    at += 4;
    for _ in 0..layers {
        at += 4 + 4 * word(&bytes, at);
    }
    // The first visible key with two different tops in a row; a top is
    // written as its symbol, `ε` as `u32::MAX`, so its code is one more.
    let code = |raw: usize| (raw as u32).wrapping_add(1);
    let mut swap = None;
    'layers: for _ in 0..layers {
        let count = word(&bytes, at);
        at += 4;
        for _ in 0..count {
            let tops = at + 4;
            if let Some(t) = (0..threads - 1)
                .find(|&t| code(word(&bytes, tops + 4 * t)) < code(word(&bytes, tops + 4 * t + 4)))
            {
                swap = Some(tops + 4 * t);
                break 'layers;
            }
            at += 4 * (1 + threads);
        }
    }
    let swap = swap.expect("stefan-1/4 has a visible orbit of two or more states");
    let first: Vec<u8> = bytes[swap..swap + 4].to_vec();
    bytes.copy_within(swap + 4..swap + 8, swap);
    bytes[swap + 4..swap + 8].copy_from_slice(&first);
    restamp(&mut bytes);
    let error = SharedExplorer::restore(
        stefan::build(4),
        ExploreBudget::default(),
        FINGERPRINT,
        &bytes,
    )
    .unwrap_err();
    assert!(
        error.starts_with("snapshot offset ")
            && error.ends_with("visible state that is not its orbit's canonical key"),
        "{error}"
    );
}

/// A mutation oracle for the `.cubasnap` decoder. Snapshots of four
/// systems explored to k = 4 (explicit for the FCR systems Fig. 1 and
/// bst-insert/2+1, symbolic for Fig. 2 and stefan-1/4) each get
/// single-byte payload mutations from a fixed seed, with the checksum
/// (FNV-1a 64, as `Digest`) re-stamped so that every mutant reaches the
/// parser. No mutant may panic `SharedExplorer::restore`, and every
/// mutant it accepts must re-encode to exactly its own bytes.
#[test]
fn snapshot_mutants_never_panic_and_accepted_ones_re_encode_exactly() {
    let systems = [
        (fig1::build(), None, 20_000),
        (bst::build(2, 1), None, 500),
        (fig2::build(), Some(SubsumptionMode::Exact), 5_000),
        (stefan::build(4), Some(SubsumptionMode::Exact), 2_000),
    ];
    let mut rng = SplitMix64::new(1);
    let (mut accepted, mut failures) = (0, Vec::new());
    for (cpds, mode, mutants) in systems {
        let explorer = match mode {
            None => SharedExplorer::explicit(cpds.clone(), ExploreBudget::default()),
            Some(mode) => SharedExplorer::symbolic(cpds.clone(), ExploreBudget::default(), mode),
        };
        explorer.ensure_layer(4, &Interrupt::none()).unwrap();
        let bytes = explorer.snapshot(FINGERPRINT);
        for _ in 0..mutants {
            let mut mutant = bytes.clone();
            let at = HEADER_LEN + rng.gen_usize(bytes.len() - HEADER_LEN);
            match rng.gen_u32(4) {
                0 => mutant[at] ^= 1 << rng.gen_u32(8),
                1 => mutant[at] = rng.next_u64() as u8,
                2 => mutant[at] = mutant[at].wrapping_add(1),
                _ => mutant[at] = mutant[at].wrapping_sub(1),
            }
            restamp(&mut mutant);
            let restored = catch_unwind(AssertUnwindSafe(|| {
                SharedExplorer::restore(
                    cpds.clone(),
                    ExploreBudget::default(),
                    FINGERPRINT,
                    &mutant,
                )
            }));
            match restored {
                Err(_) => failures.push(format!("offset {at} of {} bytes panics", bytes.len())),
                Ok(Ok(restored)) => {
                    accepted += 1;
                    if restored.snapshot(FINGERPRINT) != mutant {
                        failures.push(format!(
                            "offset {at} of {} bytes re-encodes to other bytes",
                            bytes.len()
                        ));
                    }
                }
                Ok(Err(_)) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{failures:?}");
    assert!(accepted >= 100, "only {accepted} mutants accepted");
}
