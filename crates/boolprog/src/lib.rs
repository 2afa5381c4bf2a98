//! A frontend for *concurrent Boolean programs* (paper App. B,
//! Fig. 6): the abstract programs produced by predicate abstraction of
//! C/Java sources, which CUBA analyzes after translation to concurrent
//! pushdown systems.
//!
//! The pipeline is [`parse`] → [`translate`]:
//!
//! * shared state = valuation of the global Boolean variables (plus an
//!   absorbing error state for failed assertions, and an implicit lock
//!   bit when `lock`/`unlock`/`atomic` are used);
//! * stack symbol = (program point, valuation of the function's local
//!   variables);
//! * a call pushes the callee frame and advances the caller's return
//!   site (the `ρ0ρ1` pushes of §2.1); a `return` pops.
//!
//! Threads are declared by `thread_create(f)` statements inside
//! `main`, which is otherwise ignored (the paper: "we mostly omit the
//! main thread").
//!
//! # Example
//!
//! ```
//! use cuba_boolprog::{parse, translate};
//! use cuba_core::Portfolio;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = r#"
//!     decl turn;
//!     void ping() { a: assume(!turn); b: turn := 1; c: goto a; }
//!     void pong() { d: assume(turn); e: turn := 0; f: goto d; }
//!     void main() { thread_create(ping); thread_create(pong); }
//! "#;
//! let program = parse(source)?;
//! let translated = translate(&program)?;
//! let property = translated.error_free_property();
//! let outcome = Portfolio::auto().run(translated.cpds, property)?;
//! assert!(outcome.verdict.is_safe()); // no assertions, nothing to fail
//! # Ok(())
//! # }
//! ```

mod ast;
mod cfg;
mod error;
mod lexer;
mod lint;
mod parser;
mod resolve;
mod translate;

pub use ast::{BinOp, Decl, Expr, Func, Program, Stmt, StmtKind, Type};
pub use cfg::{lower_function, CfgEdge, Effect, FunctionCfg};
pub use error::{BoolProgError, Span};
pub use lexer::{tokenize, Token, TokenKind};
pub use lint::{lint_program, simplify_cfg, Severity, SimplifyOutcome, SourceLint};
pub use parser::parse;
pub use resolve::{resolve, Resolved};
pub use translate::{translate, translate_simplified, SimplifyReport, Translated};
