//! Integration of the Boolean-program frontend with the verifier: the
//! paper's Fig. 2 source code, translated and analyzed end to end,
//! must behave like the hand-built CPDS model of the same program.

use cuba::benchmarks::fig2;
use cuba::boolprog::{parse, translate};
use cuba::core::{check_fcr, EngineKind, Portfolio, Property, Verdict};

const FIG2_SOURCE: &str = r#"
    decl x;
    void foo() {
      l2: if (*) { l3: call foo(); }
      l4: while (x) { skip; }
      l5: x := 1;
    }
    void bar() {
      l6: if (*) { l7: call bar(); }
      l8: while (!x) { skip; }
      l9: x := 0;
    }
    void main() {
      thread_create(foo);
      thread_create(bar);
    }
"#;

#[test]
fn fig2_source_translates_like_the_hand_model() {
    let program = parse(FIG2_SOURCE).unwrap();
    let translated = translate(&program).unwrap();

    // Same shape: two threads, recursion in both, FCR fails in both.
    assert_eq!(translated.cpds.num_threads(), 2);
    let translated_fcr = check_fcr(&translated.cpds);
    let hand_fcr = check_fcr(&fig2::build());
    assert_eq!(translated_fcr.holds(), hand_fcr.holds());
    assert_eq!(
        translated_fcr.offending_threads(),
        hand_fcr.offending_threads()
    );

    // Same analysis outcome: the symbolic (Sk) sequence collapses at a
    // small bound for both encodings (Ex. 8's R2 = R3 phenomenon).
    let scheme1 = Portfolio::fixed(vec![EngineKind::Scheme1Symbolic]);
    let hand = scheme1.run(fig2::build(), Property::True).unwrap();
    let ours = scheme1.run(translated.cpds, Property::True).unwrap();
    match (&hand.verdict, &ours.verdict) {
        (Verdict::Safe { k: k1, .. }, Verdict::Safe { k: k2, .. }) => {
            assert!(*k1 <= 6 && *k2 <= 8, "both collapse early: {k1}, {k2}");
        }
        other => panic!("expected two collapses, got {other:?}"),
    }
}

#[test]
fn fig2_assertion_variant_is_verified() {
    // Instrument foo with the assertion that x really was 0 when the
    // spin loop exits — safe, since the loop guard guarantees it …
    let safe = r#"
        decl x;
        void foo() {
          if (*) { call foo(); }
          while (x) { skip; }
          x := 1;
        }
        void bar() {
          if (*) { call bar(); }
          while (!x) { skip; }
          assert(x);
          x := 0;
        }
        void main() { thread_create(foo); thread_create(bar); }
    "#;
    let t = translate(&parse(safe).unwrap()).unwrap();
    let property = t.error_free_property();
    let outcome = Portfolio::auto().run(t.cpds, property).unwrap();
    assert!(outcome.verdict.is_safe(), "{:?}", outcome.verdict);
}

#[test]
fn fig2_wrong_assertion_is_refuted() {
    // … but asserting ¬x at the same point is wrong: foo can set x
    // between bar's loop exit and the assert? No — bar's loop exits
    // when x is 1, so ¬x is immediately false. Unsafe at small k.
    let unsafe_src = r#"
        decl x;
        void foo() {
          if (*) { call foo(); }
          while (x) { skip; }
          x := 1;
        }
        void bar() {
          if (*) { call bar(); }
          while (!x) { skip; }
          assert(!x);
          x := 0;
        }
        void main() { thread_create(foo); thread_create(bar); }
    "#;
    let t = translate(&parse(unsafe_src).unwrap()).unwrap();
    let property = t.error_free_property();
    let outcome = Portfolio::auto().run(t.cpds, property).unwrap();
    match outcome.verdict {
        Verdict::Unsafe { k, .. } => assert!(k <= 4, "bug at small bound, got {k}"),
        other => panic!("expected Unsafe, got {other:?}"),
    }
}

#[test]
fn translated_witnesses_replay() {
    let src = r#"
        decl flag;
        void setter() { flag := 1; }
        void checker() { assert(!flag); }
        void main() { thread_create(setter); thread_create(checker); }
    "#;
    let t = translate(&parse(src).unwrap()).unwrap();
    let property = t.error_free_property();
    let outcome = Portfolio::auto().run(t.cpds.clone(), property).unwrap();
    match outcome.verdict {
        Verdict::Unsafe {
            witness: Some(w), ..
        } => {
            assert!(w.replay(&t.cpds));
            // The final state is the error state.
            assert_eq!(w.end().q, t.error_state);
        }
        other => panic!("expected witnessed refutation, got {other:?}"),
    }
}

#[test]
fn symbol_descriptions_cover_all_stack_symbols() {
    let t = translate(&parse(FIG2_SOURCE).unwrap()).unwrap();
    for thread in 0..t.cpds.num_threads() {
        for sym in t.cpds.thread(thread).used_symbols() {
            let (name, point, _locals) = t
                .describe_symbol(sym)
                .unwrap_or_else(|| panic!("undecodable symbol {sym}"));
            assert!(name == "foo" || name == "bar");
            let layout = t.functions.iter().find(|f| f.name == name).unwrap();
            assert!(point < layout.num_points);
        }
    }
}
