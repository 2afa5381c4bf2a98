//! Pins the engines' discovery order and the snapshot bytes.
//!
//! Both engines number states in discovery order, and `.cubasnap`
//! files record that order, so any change to how a round walks its
//! frontier shows up here — even when layer *sets* and verdicts stay
//! the same. The digests were recorded with the clone-per-step engines
//! that preceded the interned state keys; the interned engines must
//! reproduce them exactly.

use std::process::Command;

use cuba::benchmarks::{bst, fig1, fig2, stefan};
use cuba::explore::{ExplicitEngine, ExploreBudget, SubsumptionMode, SymbolicEngine};
use cuba::pds::VisibleState;

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
/// new visible states in discovery order.
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
        for &id in ids {
            d.word(id);
        }
        d.visible(engine.visible_layer(k));
    }
    (engine.num_states(), d.0)
}

/// Per bound, the symbolic layer's states (shared state and canonical
/// DFAs) and its new visible states, in discovery order.
fn symbolic_digest(engine: &SymbolicEngine) -> (usize, u64) {
    let mut d = Digest::new();
    for k in 0..=engine.current_k() {
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
        d.word(u32::MAX);
        d.visible(engine.visible_layer(k));
    }
    (engine.num_symbolic_states(), d.0)
}

#[test]
fn explicit_discovery_order_is_pinned() {
    let mut engine = ExplicitEngine::new(fig1::build(), ExploreBudget::default());
    for _ in 0..6 {
        engine.advance().unwrap();
    }
    assert_eq!(explicit_digest(&engine), (17, 6447690871695350749));

    let mut engine = ExplicitEngine::new(bst::build(2, 1), ExploreBudget::default());
    engine.run_until_collapse(64).unwrap();
    assert!(engine.is_collapsed());
    assert_eq!(engine.current_k(), 4);
    assert_eq!(explicit_digest(&engine), (6253, 7081371805129036725));
}

#[test]
fn symbolic_discovery_order_is_pinned() {
    for (mode, k, pin) in [
        (SubsumptionMode::Exact, 5, (23, 7874432759883519607)),
        (SubsumptionMode::Pointwise, 4, (12, 2405248916837428743)),
    ] {
        let mut engine = SymbolicEngine::new(fig2::build(), ExploreBudget::default(), mode);
        engine.run_until_collapse(64).unwrap();
        assert!(engine.is_collapsed());
        assert_eq!(engine.current_k(), k, "{mode:?}");
        assert_eq!(symbolic_digest(&engine), pin, "{mode:?}");
    }

    let mut engine = SymbolicEngine::new(
        stefan::build(4),
        ExploreBudget::default(),
        SubsumptionMode::Exact,
    );
    engine.run_until_collapse(64).unwrap();
    assert!(engine.is_collapsed());
    assert_eq!(engine.current_k(), 6);
    assert_eq!(symbolic_digest(&engine), (174, 11592065152931065015));
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
