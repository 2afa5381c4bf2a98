//! A plain-text interchange format for CPDS, in the spirit of the
//! original artifact's input files.
//!
//! ```text
//! # Fig. 1 of the paper
//! shared 4
//! init 0
//! thread 3
//! stack 1
//! (0,1) -> (1,2)
//! (3,2) -> (0,1)
//! thread 7
//! stack 4
//! (0,4) -> (0,eps)
//! (1,4) -> (2,5)
//! (2,5) -> (3,4 6)
//! ```
//!
//! `eps` denotes the empty stack (left) or the empty word (right); a
//! two-symbol right-hand side `ρ0 ρ1` is a push (`ρ0` becomes the new
//! top). `#` starts a comment.

use cuba_pds::{Cpds, CpdsBuilder, PdsBuilder, SharedState, StackSym};

/// Largest accepted `shared` declaration. The builder allocates one
/// name slot per shared state, so an unchecked header is an
/// allocation of attacker-chosen size.
const MAX_SHARED: u32 = 1 << 16;

/// Largest accepted sum, over all threads, of `shared × alphabet`:
/// each thread's rule table has one offset cell per (shared state,
/// stack symbol) pair.
const MAX_TABLE_CELLS: u64 = 1 << 24;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Parses the text format into a [`Cpds`].
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number on malformed input,
/// on more than 65,536 shared states or more than 2^24 (shared state,
/// stack symbol) pairs summed over all threads (both checked before
/// anything is allocated), or when the assembled system fails
/// validation.
pub fn parse_cpds(input: &str) -> Result<Cpds, ParseError> {
    let mut num_shared: Option<u32> = None;
    let mut init: Option<u32> = None;
    // An action as raw numbers: (line, q, top, q', rhs word).
    type RawAction = (usize, u32, Option<u32>, u32, Vec<u32>);
    struct RawThread {
        line: usize,
        alphabet: u32,
        stack: Vec<u32>,
        actions: Vec<RawAction>,
    }
    let mut threads: Vec<RawThread> = Vec::new();

    for (idx, raw_line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("shared") {
            let n = parse_num(rest.trim(), line_no)?;
            if n > MAX_SHARED {
                return err(
                    line_no,
                    format!("{n} shared states exceed the limit of {MAX_SHARED}"),
                );
            }
            num_shared = Some(n);
        } else if let Some(rest) = line.strip_prefix("init") {
            init = Some(parse_num(rest.trim(), line_no)?);
        } else if let Some(rest) = line.strip_prefix("thread") {
            threads.push(RawThread {
                line: line_no,
                alphabet: parse_num(rest.trim(), line_no)?,
                stack: Vec::new(),
                actions: Vec::new(),
            });
        } else if let Some(rest) = line.strip_prefix("stack") {
            let thread = match threads.last_mut() {
                Some(t) => t,
                None => return err(line_no, "'stack' before any 'thread'"),
            };
            for tok in rest.split_whitespace() {
                thread.stack.push(parse_num(tok, line_no)?);
            }
        } else if line.starts_with('(') {
            let thread_idx = threads.len();
            let thread = match threads.last_mut() {
                Some(t) => t,
                None => return err(line_no, "action before any 'thread'"),
            };
            let _ = thread_idx;
            let (lhs, rhs) = match line.split_once("->") {
                Some(pair) => pair,
                None => return err(line_no, "expected '->' in action"),
            };
            let (q, top) = parse_pair(lhs.trim(), line_no)?;
            let (q2, word) = parse_rhs(rhs.trim(), line_no)?;
            let top = match top.as_str() {
                "eps" => None,
                t => Some(parse_num(t, line_no)?),
            };
            thread.actions.push((line_no, q, top, q2, word));
        } else {
            return err(line_no, format!("unrecognized line: '{line}'"));
        }
    }

    let num_shared = match num_shared {
        Some(n) => n,
        None => return err(0, "missing 'shared' declaration"),
    };
    let init = init.unwrap_or(0);
    let mut cells = 0u64;
    for raw in &threads {
        cells += u64::from(num_shared) * u64::from(raw.alphabet);
        if cells > MAX_TABLE_CELLS {
            return err(
                raw.line,
                format!(
                    "rule tables of {cells} (shared state, symbol) cells exceed \
                     the limit of {MAX_TABLE_CELLS}"
                ),
            );
        }
    }

    let mut builder = CpdsBuilder::new(num_shared, SharedState(init));
    for raw in threads {
        let mut pds = PdsBuilder::new(num_shared, raw.alphabet);
        for (line_no, q, top, q2, word) in raw.actions {
            let result = match (top, word.as_slice()) {
                (Some(t), []) => pds.pop(SharedState(q), StackSym(t), SharedState(q2)),
                (Some(t), [s]) => {
                    pds.overwrite(SharedState(q), StackSym(t), SharedState(q2), StackSym(*s))
                }
                (Some(t), [r0, r1]) => pds.push(
                    SharedState(q),
                    StackSym(t),
                    SharedState(q2),
                    StackSym(*r0),
                    StackSym(*r1),
                ),
                (None, []) => pds.from_empty(SharedState(q), SharedState(q2), None),
                (None, [s]) => pds.from_empty(SharedState(q), SharedState(q2), Some(StackSym(*s))),
                _ => return err(line_no, "right-hand side has more than two symbols"),
            };
            if let Err(e) = result {
                return err(line_no, e.to_string());
            }
        }
        let built = match pds.build() {
            Ok(p) => p,
            Err(e) => return err(0, e.to_string()),
        };
        builder = builder.thread(built, raw.stack.into_iter().map(StackSym));
    }
    builder.build().map_err(|e| ParseError {
        line: 0,
        message: e.to_string(),
    })
}

fn parse_num(tok: &str, line: usize) -> Result<u32, ParseError> {
    tok.parse::<u32>().map_err(|_| ParseError {
        line,
        message: format!("expected a number, found '{tok}'"),
    })
}

/// Parses `(q,top)`.
fn parse_pair(text: &str, line: usize) -> Result<(u32, String), ParseError> {
    let inner = text
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected '(q,sym)', found '{text}'"),
        })?;
    let (a, b) = inner.split_once(',').ok_or_else(|| ParseError {
        line,
        message: "expected ',' inside parentheses".to_owned(),
    })?;
    Ok((parse_num(a.trim(), line)?, b.trim().to_owned()))
}

/// Parses `(q', eps | s | s s)`.
fn parse_rhs(text: &str, line: usize) -> Result<(u32, Vec<u32>), ParseError> {
    let (q2, word_text) = parse_pair(text, line)?;
    if word_text == "eps" {
        return Ok((q2, Vec::new()));
    }
    let mut word = Vec::new();
    for tok in word_text.split_whitespace() {
        word.push(parse_num(tok, line)?);
    }
    Ok((q2, word))
}

/// Prints a [`Cpds`] in the text format (parse/print round-trips).
pub fn print_cpds(cpds: &Cpds) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "shared {}", cpds.num_shared());
    let _ = writeln!(out, "init {}", cpds.q_init());
    for (i, pds) in cpds.threads().iter().enumerate() {
        let _ = writeln!(out, "thread {}", pds.alphabet_size());
        let stack: Vec<String> = cpds
            .initial_stack(i)
            .iter_top_down()
            .map(|s| s.to_string())
            .collect();
        if !stack.is_empty() {
            let _ = writeln!(out, "stack {}", stack.join(" "));
        }
        for a in pds.actions() {
            let top = match a.top {
                Some(s) => s.to_string(),
                None => "eps".to_owned(),
            };
            let rhs = match a.rhs {
                cuba_pds::Rhs::Empty => "eps".to_owned(),
                cuba_pds::Rhs::One(s) => s.to_string(),
                cuba_pds::Rhs::Two { top, below } => format!("{top} {below}"),
            };
            let _ = writeln!(out, "({},{}) -> ({},{})", a.q, top, a.q_post, rhs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = r"
# Fig. 1 of the paper
shared 4
init 0
thread 3
stack 1
(0,1) -> (1,2)
(3,2) -> (0,1)
thread 7
stack 4
(0,4) -> (0,eps)
(1,4) -> (2,5)
(2,5) -> (3,4 6)
";

    #[test]
    fn parses_fig1() {
        let cpds = parse_cpds(FIG1).unwrap();
        assert_eq!(cpds.num_shared(), 4);
        assert_eq!(cpds.num_threads(), 2);
        assert_eq!(cpds.initial_state().to_string(), "<0|1,4>");
        assert_eq!(cpds.thread(1).actions().len(), 3);
    }

    #[test]
    fn parse_print_roundtrip() {
        let cpds = parse_cpds(FIG1).unwrap();
        let printed = print_cpds(&cpds);
        let again = parse_cpds(&printed).unwrap();
        assert_eq!(cpds.initial_state(), again.initial_state());
        for i in 0..cpds.num_threads() {
            assert_eq!(cpds.thread(i).actions(), again.thread(i).actions());
        }
    }

    #[test]
    fn roundtrip_matches_builder_fig1() {
        let parsed = parse_cpds(FIG1).unwrap();
        let built = crate::fig1::build();
        for i in 0..2 {
            assert_eq!(parsed.thread(i).actions(), built.thread(i).actions());
        }
    }

    #[test]
    fn error_reports_line() {
        let bad = "shared 2\nthread 2\n(0,1) -> 1,2)\n";
        let e = parse_cpds(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn action_before_thread_rejected() {
        let bad = "shared 2\n(0,1) -> (1,1)\n";
        let e = parse_cpds(bad).unwrap_err();
        assert!(e.message.contains("before any"));
    }

    #[test]
    fn missing_shared_rejected() {
        assert!(parse_cpds("thread 2\n").is_err());
    }

    #[test]
    fn empty_stack_actions_parse() {
        let text = "shared 2\nthread 2\n(0,eps) -> (1,0)\n(1,eps) -> (0,eps)\n";
        let cpds = parse_cpds(text).unwrap();
        assert_eq!(cpds.thread(0).actions().len(), 2);
        let printed = print_cpds(&cpds);
        assert!(printed.contains("(0,eps) -> (1,0)"));
    }

    /// An oversized `shared` header is a line-numbered error, not a
    /// 96 GB allocation.
    #[test]
    fn oversized_shared_header_rejected() {
        let e = parse_cpds("shared 4000000000\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("exceed the limit"), "{e}");
        assert!(parse_cpds(&format!("shared {MAX_SHARED}\nthread 1\n")).is_ok());
    }

    /// An oversized thread alphabet is rejected at its `thread` line,
    /// also when the `shared` declaration comes later, and also when
    /// only the sum over all threads is too large.
    #[test]
    fn oversized_thread_alphabet_rejected() {
        let e = parse_cpds("shared 4\nthread 4000000000\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("exceed the limit"), "{e}");
        let e = parse_cpds("thread 4000000000\nshared 4\n").unwrap_err();
        assert_eq!(e.line, 1);
        let half = MAX_TABLE_CELLS / 4 / 2;
        let e = parse_cpds(&format!(
            "shared 4\nthread {half}\nthread {half}\nthread 1\n"
        ))
        .unwrap_err();
        assert_eq!(e.line, 4);
    }

    /// The caps admit every shipped system: each Table 2 row printed
    /// as text parses back.
    #[test]
    fn header_caps_admit_the_suite() {
        for bench in crate::suite::table2_suite() {
            let text = print_cpds(&bench.cpds);
            parse_cpds(&text).unwrap_or_else(|e| panic!("{}: {e}", bench.label()));
        }
        parse_cpds(include_str!("../../../samples/fig1.cpds")).unwrap();
    }

    #[test]
    fn out_of_range_symbol_reported_with_line() {
        let bad = "shared 2\nthread 2\n(0,5) -> (1,0)\n";
        let e = parse_cpds(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("out of range"));
    }
}

#[cfg(test)]
mod roundtrip_properties {
    use super::*;
    use crate::random::{random_cpds, RandomCpdsConfig};

    /// Print → parse is the identity on arbitrary generated systems.
    #[test]
    fn print_parse_roundtrip_on_random_systems() {
        for seed in 0..60u64 {
            let cfg = RandomCpdsConfig {
                num_threads: 1 + (seed as usize % 3),
                push_probability: 0.3,
                ..RandomCpdsConfig::default()
            };
            let cpds = random_cpds(&cfg, seed);
            let printed = print_cpds(&cpds);
            let parsed =
                parse_cpds(&printed).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{printed}"));
            assert_eq!(parsed.num_shared(), cpds.num_shared());
            assert_eq!(parsed.q_init(), cpds.q_init());
            assert_eq!(parsed.initial_state(), cpds.initial_state());
            for i in 0..cpds.num_threads() {
                assert_eq!(parsed.thread(i).actions(), cpds.thread(i).actions());
            }
        }
    }
}
