//! Integration tests of the `cuba` command-line interface, driven
//! against the shipped sample inputs.

use std::process::{Command, Stdio};

fn cuba(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_cuba"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn verify_safe_cpds_exits_zero() {
    let (stdout, _, code) = cuba(&["verify", "samples/fig1.cpds"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("safe for any resource amount"));
    assert!(stdout.contains("k=5"));
}

#[test]
fn verify_unsafe_bp_exits_one_with_witness() {
    let (stdout, _, code) = cuba(&["verify", "samples/ticket.bp"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("error reachable"));
    assert!(stdout.contains("counterexample"));
}

#[test]
fn fcr_reports_per_thread() {
    let (stdout, _, code) = cuba(&["fcr", "samples/fig2.bp"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("FCR fails"));
    assert!(stdout.contains("thread 0"));
    assert!(stdout.contains("infinite"));
}

#[test]
fn info_prints_model_shape() {
    let (stdout, _, code) = cuba(&["info", "samples/fig1.cpds"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("threads: 2"));
    assert!(stdout.contains("initial state: <0|1,4>"));
}

#[test]
fn info_lists_interchangeable_threads() {
    let (stdout, _, code) = cuba(&["info", "samples/ticket.bp"]);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("interchangeable threads: {0, 1}\n"),
        "{stdout}"
    );
    let (stdout, _, code) = cuba(&["info", "samples/fig1.cpds"]);
    assert_eq!(code, Some(0));
    assert!(!stdout.contains("interchangeable"), "{stdout}");
}

#[test]
fn symbolic_engine_flag() {
    let (stdout, _, code) = cuba(&["verify", "samples/fig2.bp", "--engine", "symbolic"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("safe for any resource amount"));
}

#[test]
fn explicit_engine_rejects_non_fcr_input() {
    let (_, stderr, code) = cuba(&["verify", "samples/fig2.bp", "--engine", "explicit"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("finite context reachability"));
}

#[test]
fn never_shared_property_override() {
    // Shared state 3 of fig1 is reachable (⟨3|2,46⟩ at k = 2).
    let (stdout, _, code) = cuba(&["verify", "samples/fig1.cpds", "--never-shared", "3"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("resource amount 2"));
}

#[test]
fn bad_usage_is_reported() {
    let (_, stderr, code) = cuba(&["verify"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"));

    let (_, stderr, code) = cuba(&["frobnicate", "samples/fig1.cpds"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"));

    let (_, stderr, code) = cuba(&["verify", "README.md"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown extension"));
}

#[test]
fn unknown_command_is_rejected_before_loading_the_file() {
    // The file does not exist: a bad subcommand must be reported
    // without ever trying to open (let alone parse) the model.
    let (_, stderr, code) = cuba(&["bogus", "does-not-exist.bp"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"));
    assert!(!stderr.contains("does-not-exist"));

    // Same for a bad option: rejected before the file is read.
    let (_, stderr, code) = cuba(&["verify", "does-not-exist.bp", "--bogus"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown option"));
    assert!(!stderr.contains("does-not-exist"));

    // The transition rewrite is gone; its flag is just another
    // unknown option.
    let (_, stderr, code) = cuba(&["verify", "samples/fig1.cpds", "--reduce"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown option '--reduce'"), "{stderr}");
}

#[test]
fn info_and_fcr_reject_trailing_options() {
    let (_, stderr, code) = cuba(&["info", "samples/fig1.cpds", "--json"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("takes no options"));

    let (_, stderr, code) = cuba(&["fcr", "samples/fig2.bp", "extra-arg"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("takes no options"));
}

#[test]
fn json_output_is_machine_readable() {
    let (stdout, _, code) = cuba(&["verify", "samples/fig1.cpds", "--json"]);
    assert_eq!(code, Some(0));
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"verdict\":\"safe\""));
    assert!(line.contains("\"k\":5"));
    assert!(line.contains("\"fcr\":true"));
    assert!(line.contains("\"duration_ms\":"));
    // The per-round growth log: one entry per computed bound of the
    // winning engine, k = 0..=6 on Fig. 1.
    assert!(line.contains("\"growth\":["));
    assert!(line.contains("\"event\":\"new-plateau\""));
    for k in 0..=6 {
        assert!(line.contains(&format!("\"k\":{k}")), "missing round {k}");
    }

    // Unsafe runs report the witness size.
    let (stdout, _, code) = cuba(&["verify", "samples/ticket.bp", "--json"]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("\"verdict\":\"unsafe\""));
    assert!(stdout.contains("\"witness_steps\":"));
}

/// Sessions always step their arms round-robin, so `--schedule` is
/// rejected like any unknown option. The JSON reports one growth log
/// per arm of the §6 lineup (the fused arm and the CBA refuter), each
/// round carrying its cost.
#[test]
fn schedule_flag_and_per_arm_logs() {
    let (stdout, _, code) = cuba(&["verify", "samples/fig1.cpds", "--json"]);
    assert_eq!(code, Some(0));
    let line = stdout.trim();
    assert!(!line.contains("\"schedule\""), "{line}");
    assert!(
        line.contains("\"arms\":[{\"engine\":\"Alg3(T(Rk))\""),
        "{line}"
    );
    assert!(line.contains("{\"engine\":\"CBA\",\"rounds\":"), "{line}");
    assert!(line.contains("\"log\":["));
    assert!(line.contains("\"delta_states\":"));
    assert!(line.contains("\"elapsed_us\":"));
    assert!(line.contains("\"round_wall_us\":"));

    let (_, stderr, code) = cuba(&["verify", "samples/fig1.cpds", "--schedule", "round-robin"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown option '--schedule'"), "{stderr}");
}

/// `cuba bench` argument validation (the measured paths run the full
/// suite and are covered by the harness unit tests and the CI bench
/// job; a debug-build suite iteration is too slow here). The `tune`
/// subcommand is gone and is rejected like any unknown command.
#[test]
fn bench_and_tune_validate_arguments() {
    let (_, stderr, code) = cuba(&["bench", "--gate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--gate needs --compare"));
    let (_, stderr, code) = cuba(&["bench", "--samples", "0"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("bad --samples"));
    let (_, stderr, code) = cuba(&["bench", "--ratio", "-3"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("bad --ratio"));
    for flag in ["--turbo", "--reduce"] {
        let (_, stderr, code) = cuba(&["bench", flag]);
        assert_eq!(code, Some(2));
        assert!(
            stderr.contains(&format!("unknown option '{flag}'")),
            "{stderr}"
        );
    }
    let (_, stderr, code) = cuba(&["tune", "--out", "x.profile"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command 'tune'"), "{stderr}");
}

/// Repeated `--property`: one invocation, many properties, one JSON
/// record per property — sharing a single layered exploration, so
/// later records replay instead of exploring. The exit code is the
/// worst verdict (unsafe → 1).
#[test]
fn repeated_property_flag_shares_exploration() {
    let (stdout, _, code) = cuba(&[
        "verify",
        "samples/fig1.cpds",
        "--property",
        "true",
        "--property",
        "never-visible:1|2,6",
        "--property",
        "never-shared:2",
        "--json",
    ]);
    assert_eq!(code, Some(1), "unsafe dominates the exit code");
    let lines: Vec<&str> = stdout.trim().lines().collect();
    assert_eq!(lines.len(), 3, "one JSON record per property");
    assert!(lines[0].contains("\"property\":\"true\""));
    assert!(lines[0].contains("\"verdict\":\"safe\""));
    assert!(lines[1].contains("\"property\":\"never-visible:1|2,6\""));
    assert!(lines[1].contains("\"verdict\":\"unsafe\""));
    assert!(lines[1].contains("\"k\":5"));
    assert!(lines[2].contains("\"verdict\":\"unsafe\""));
    assert!(lines[2].contains("\"k\":2"));
    // Shared-exploration counters: the first property explores, the
    // later ones mostly replay (every record carries both fields).
    for line in &lines {
        assert!(line.contains("\"rounds_explored\":"));
        assert!(line.contains("\"rounds_replayed\":"));
    }
    assert!(
        lines[1].contains("\"replayed\":true"),
        "the second property's growth log must contain replayed rounds"
    );

    // Human-readable output labels each property.
    let (stdout, _, code) = cuba(&[
        "verify",
        "samples/fig1.cpds",
        "--property",
        "true",
        "--property",
        "never-shared:2",
    ]);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("property true:"));
    assert!(stdout.contains("property never-shared:2:"));

    // Bad specs are rejected up front.
    let (_, stderr, code) = cuba(&["verify", "samples/fig1.cpds", "--property", "sometimes"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("bad --property"));
}

/// `cuba lint`: the purpose-built dead-code sample yields true
/// diagnostics, the clean samples yield none (the vacuous-property
/// *notes* on assert-free/invariantly-safe programs are true
/// positives), and warnings never fail the exit code.
#[test]
fn lint_reports_dead_code_and_stays_quiet_on_clean_models() {
    let (stdout, _, code) = cuba(&["lint", "samples/deadcode.bp"]);
    assert_eq!(code, Some(0), "warnings do not fail the lint");
    assert!(stdout.contains("write-only-variable"));
    assert!(stdout.contains("`ghost` is assigned but never read"));
    assert!(stdout.contains("dead-branch"));
    assert!(stdout.contains("unreachable code"));
    assert!(stdout.contains("5 warn"));

    let (stdout, _, code) = cuba(&["lint", "samples/fig1.cpds"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("no diagnostics"));

    let (stdout, _, code) = cuba(&["lint", "samples/ticket.bp"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("no diagnostics"));

    // JSON output: machine-readable lints plus the reduction stats.
    let (stdout, _, code) = cuba(&["lint", "samples/deadcode.bp", "--json"]);
    assert_eq!(code, Some(0));
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    assert!(line.contains("\"lints\":["));
    assert!(line.contains("\"code\":\"write-only-variable\""));
    assert!(line.contains("\"level\":\"warn\""));
    assert!(line.contains("\"line\":"));
    assert!(line.contains("\"reduction\":{"));

    // A property naming a nonexistent state or symbol is a deny: exit 1.
    // The lint validates a property before its relevance pass checks
    // it, so a symbol past every alphabet (whose top code would
    // overflow) is never coded.
    for spec in ["never-shared:99", "mutex:0@4294967295"] {
        let (stdout, stderr, code) = cuba(&["lint", "samples/fig1.cpds", "--property", spec]);
        assert_eq!(code, Some(1), "deny lints fail the exit code: {stderr}");
        assert!(stdout.contains("unknown-state"), "{spec}: {stdout}");
        assert!(!stderr.contains("panicked"), "{spec}: {stderr}");
    }
}

/// Invalid properties are rejected at session start — never a vacuous
/// `safe`.
#[test]
fn verify_rejects_an_invalid_property() {
    let (_, stderr, code) = cuba(&[
        "verify",
        "samples/fig1.cpds",
        "--property",
        "never-shared:99",
    ]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("invalid property"));
}

/// A mutex pinning one thread to two symbols can never be violated: it
/// is rejected like an unknown id instead of being proved `safe`.
#[test]
fn verify_rejects_a_mutex_pinning_one_thread_twice() {
    let (stdout, stderr, code) =
        cuba(&["verify", "samples/fig1.cpds", "--property", "mutex:0@1,0@2"]);
    assert_eq!(code, Some(2), "stdout: {stdout}");
    assert!(stderr.contains("invalid property"), "{stderr}");
    assert!(stderr.contains("thread 0"), "{stderr}");
    // A repeated pin is harmless: thread 1 starts on 4.
    let (stdout, stderr, code) =
        cuba(&["verify", "samples/fig1.cpds", "--property", "mutex:1@4,1@4"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stdout.contains("error reachable with resource amount 0"));
}

#[test]
fn trace_streams_rounds_to_stderr() {
    let (stdout, stderr, code) = cuba(&["verify", "samples/fig1.cpds", "--trace"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("safe for any resource amount"));
    assert!(stderr.contains("[trace]"));
    assert!(stderr.contains("round k=5"));
    assert!(stderr.contains("concluded"));
}

#[test]
fn trace_out_writes_a_trace_that_trace_check_accepts() {
    let dir = std::env::temp_dir().join(format!("cuba-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("verify-trace.json");
    let path = path.to_str().expect("utf-8 temp path");

    let (stdout, stderr, code) = cuba(&["verify", "samples/fig1.cpds", "--trace-out", path]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("safe for any resource amount"));
    assert!(stderr.contains("trace written to"));

    let (stdout, _, code) = cuba(&["trace-check", path]);
    assert_eq!(code, Some(0), "stdout: {stdout}");
    assert!(stdout.contains("valid Chrome trace"));
    // The catalogue lists the portfolio and saturation spans.
    for span in ["round", "wave", "merge", "ensure_layer"] {
        assert!(
            stdout.contains(&format!("  {span}: ")),
            "missing {span} in:\n{stdout}"
        );
    }

    // A corrupted trace is rejected with the path in the message.
    let broken = dir.join("broken.json");
    std::fs::write(&broken, "{\"traceEvents\":3}").expect("write");
    let (_, stderr, code) = cuba(&["trace-check", broken.to_str().expect("utf-8")]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("traceEvents"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace file nested deeper than the scanner's cap is a clean usage
/// error, not a stack overflow.
#[test]
fn trace_check_rejects_deep_nesting() {
    let dir = std::env::temp_dir().join(format!("cuba-cli-nesting-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write");
    let (_, stderr, code) = cuba(&["trace-check", path.to_str().expect("utf-8")]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("json error at byte 64: nesting deeper than 64 levels"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cuba snapshot` → `verify --from-snapshot`: the offline produce /
/// consume round trip yields identical verdicts with the recorded
/// bounds replayed; mismatched, truncated, and missing files are
/// rejected with the path named and no content echoed.
#[test]
fn snapshot_produce_consume_round_trip() {
    let dir = std::env::temp_dir().join(format!("cuba-cli-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("fig1.cubasnap");
    let snap = snap.to_str().expect("utf-8 temp path");

    let (stdout, _, code) = cuba(&[
        "snapshot",
        "samples/fig1.cpds",
        "--out",
        snap,
        "--max-k",
        "8",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("snapshot written to"), "{stdout}");
    assert!(stdout.contains("explicit"), "FCR holds on fig1: {stdout}");

    // Consuming the snapshot seeds the shared exploration: identical
    // verdict and bound, with replayed rounds in the record.
    let (stdout, stderr, code) = cuba(&[
        "verify",
        "samples/fig1.cpds",
        "--from-snapshot",
        snap,
        "--json",
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("\"verdict\":\"safe\""));
    assert!(stdout.contains("\"k\":5"));
    assert!(stderr.contains("seeded the explicit layers"), "{stderr}");
    assert!(stdout.contains("\"replayed\":true"), "{stdout}");

    // A missing --out is rejected before the model file is touched.
    let (_, stderr, code) = cuba(&["snapshot", "does-not-exist.cpds"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--out"));
    assert!(!stderr.contains("does-not-exist"));

    // A snapshot of a *different* system fails the structural
    // identity check (same discipline as the cache's collision
    // handling), with the offending file named.
    let other = dir.join("fig2.cubasnap");
    let other = other.to_str().expect("utf-8 temp path");
    let (_, _, code) = cuba(&[
        "snapshot",
        "samples/fig2.bp",
        "--out",
        other,
        "--max-k",
        "8",
    ]);
    assert_eq!(code, Some(0));
    let (_, stderr, code) = cuba(&["verify", "samples/fig1.cpds", "--from-snapshot", other]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("fingerprint mismatch"), "stderr: {stderr}");

    // A truncated file is rejected with an offset-numbered error.
    let bytes = std::fs::read(snap).expect("snapshot bytes");
    let broken = dir.join("broken.cubasnap");
    std::fs::write(&broken, &bytes[..20]).expect("truncate");
    let (_, stderr, code) = cuba(&[
        "verify",
        "samples/fig1.cpds",
        "--from-snapshot",
        broken.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("snapshot offset"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn timeout_yields_undetermined_exit_code() {
    // A zero-second deadline trips before the first round; the
    // verdict is undetermined (exit 3), not an error (exit 2).
    let (stdout, _, code) = cuba(&["verify", "samples/fig2.bp", "--timeout", "0"]);
    assert_eq!(code, Some(3));
    assert!(stdout.contains("undetermined"));

    let (_, stderr, code) = cuba(&["verify", "samples/fig1.cpds", "--timeout", "abc"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("bad --timeout"));
}

/// Runs `cuba` with stdout on a pipe whose reading end is already
/// closed, as under `cuba … | head -1` once `head` has exited: its
/// stderr and exit code.
fn cuba_into_closed_pipe(args: &[&str]) -> (String, Option<i32>) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_cuba"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// A reader that goes away ends the output: every subcommand that
/// prints returns its normal exit code, so verdict codes keep their
/// meaning, and nothing panics.
#[test]
fn closed_stdout_keeps_the_exit_code() {
    let dir = std::env::temp_dir().join(format!("cuba-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let trace = trace.to_str().expect("utf-8 temp path");
    let snap = dir.join("fig1.cubasnap");
    let snap = snap.to_str().expect("utf-8 temp path");
    let (_, stderr, code) = cuba(&["verify", "samples/fig1.cpds", "--trace-out", trace]);
    assert_eq!(code, Some(0), "{stderr}");

    for (args, want) in [
        (vec!["info", "samples/ticket.bp"], 0),
        (vec!["fcr", "samples/fig2.bp"], 0),
        (vec!["lint", "samples/deadcode.bp"], 0),
        (vec!["lint", "samples/deadcode.bp", "--json"], 0),
        (vec!["verify", "samples/fig1.cpds"], 0),
        (vec!["verify", "samples/ticket.bp"], 1),
        (vec!["verify", "samples/ticket.bp", "--json"], 1),
        (vec!["verify", "samples/fig2.bp", "--timeout", "0"], 3),
        (vec!["trace-check", trace], 0),
        (vec!["snapshot", "samples/fig1.cpds", "--out", snap], 0),
    ] {
        let (stderr, code) = cuba_into_closed_pipe(&args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(code, Some(want), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
