//! Verify a concurrent Boolean program written in the App. B language:
//! the paper's Fig. 2 foo/bar source, straight from the figure, plus a
//! racy ticket protocol whose bug CUBA pinpoints.
//!
//! ```text
//! cargo run --release --example boolean_program
//! ```

use cuba::boolprog::{parse, translate};
use cuba::core::{check_fcr, Portfolio, Verdict};

const FIG2: &str = r#"
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

const RACY_TICKET: &str = r#"
    decl taken;
    void customer() {
      // check-then-take without atomicity: two customers can both
      // pass the check before either takes the ticket.
      assume(!taken);
      assert(!taken);
      taken := 1;
    }
    void main() { thread_create(customer); thread_create(customer); }
"#;

const FIXED_TICKET: &str = r#"
    decl taken;
    void customer() {
      atomic {
        assume(!taken);
        assert(!taken);
        taken := 1;
      }
    }
    void main() { thread_create(customer); thread_create(customer); }
"#;

fn analyze(name: &str, source: &str) -> Result<(), Box<dyn std::error::Error>> {
    let program = parse(source)?;
    let translated = translate(&program)?;
    println!("== {name} ==");
    println!(
        "   {} threads, {} shared states, {} stack symbols",
        translated.cpds.num_threads(),
        translated.cpds.num_shared(),
        translated.cpds.thread(0).alphabet_size()
    );
    println!("   FCR: {}", check_fcr(&translated.cpds));
    let property = translated.error_free_property();
    let outcome = Portfolio::auto().run(translated.cpds.clone(), property)?;
    match &outcome.verdict {
        Verdict::Safe { k, method } => {
            println!("   all assertions hold for any context bound (k = {k}, {method})")
        }
        Verdict::Unsafe { k, .. } => println!("   assertion fails within {k} contexts"),
        Verdict::Undetermined { reason } => println!("   undetermined: {reason}"),
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    analyze("Fig. 2 foo/bar (no assertions, recursion breaks FCR)", FIG2)?;
    analyze("racy ticket protocol", RACY_TICKET)?;
    analyze("fixed ticket protocol (atomic)", FIXED_TICKET)?;
    Ok(())
}
