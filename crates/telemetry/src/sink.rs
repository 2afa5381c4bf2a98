//! The `--trace` text sink: prefixed, line-locked stderr output.
//!
//! Concurrent sessions (serve workers, suite batches) that wrote bare
//! `[trace] …` lines with independent `eprintln!` calls could
//! interleave with no way to tell who said what. Every trace line
//! goes through one process-wide line lock and carries a
//! caller-chosen prefix (the property name, the portfolio arm, the
//! serve session id).

use std::io::Write;
use std::sync::Mutex;

static LINE_LOCK: Mutex<()> = Mutex::new(());

/// Writes one `[trace][{prefix}] {line}` record to stderr under the
/// process-wide line lock. With an empty prefix the record is the
/// legacy `[trace] {line}` shape.
pub fn trace_line(prefix: &str, line: &str) {
    let _guard = LINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut stderr = std::io::stderr().lock();
    if prefix.is_empty() {
        let _ = writeln!(stderr, "[trace] {line}");
    } else {
        let _ = writeln!(stderr, "[trace][{prefix}] {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_line_does_not_poison_or_panic() {
        // Output lands on stderr (captured by the harness); this
        // exercises both prefix shapes and the lock path.
        trace_line("", "bare line");
        trace_line("fig1#0", "round k=5");
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    for j in 0..8 {
                        trace_line(&format!("arm{i}"), &format!("line {j}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("sink thread");
        }
    }
}
