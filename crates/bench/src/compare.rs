//! Noise-aware comparison of two bench records (`cuba bench
//! --compare`): the statistical replacement for the old single-sample
//! `>5× AND >0.5s` timing heuristic.
//!
//! A workload regresses only when **all three** of these hold, so the
//! gate is deterministic on noisy runners:
//!
//! 1. its current median exceeds `ratio ×` the baseline median
//!    (medians of IQR-filtered samples, not raw single measurements),
//! 2. the absolute difference exceeds `mad_sigmas` normal-equivalent
//!    sigmas of the *larger* side's MAD (run-to-run noise measured
//!    from the samples themselves), and
//! 3. the absolute difference exceeds a hard floor
//!    (`abs_floor_us`), so microsecond workloads can never flake.
//!
//! Improvement is the mirror image. Verdicts are compared exactly —
//! the verdict word *and* the bound `k`, so `safe k=5 → safe k=6` is a
//! verdict change: an `error` row matches an `error` row (the
//! committed baseline's `stefan-1/8` exhausts its symbolic budget by
//! design), an `error` on one side only is a hard gate failure, and
//! timing fields are **never** read from error rows — they have none.

use crate::stats::{Summary, MAD_TO_SIGMA};
use crate::{json_escape, json_unescape, render_table};

/// One workload as scanned from a `BENCH_*.json` record line. Error
/// rows (and rows from pre-sampling records without timing fields)
/// have an empty `samples_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload label.
    pub label: String,
    /// `safe` / `unsafe` / `undetermined` / `error`.
    pub verdict: String,
    /// The convergence or bug bound (`None` for `"k":null`, for
    /// undetermined and error rows, and when the field is absent).
    pub k: Option<usize>,
    /// Timing samples, microseconds. A single-sample legacy record
    /// (only `round_wall_us`) becomes a one-element vector.
    pub samples_us: Vec<f64>,
}

/// Extracts the records from a `BENCH_*.json` file (one JSON object
/// per line; the workspace builds offline, so the reader is
/// hand-rolled like the writer). Reads both the sampled format
/// (`samples_us` arrays) and the legacy single-sample format
/// (`round_wall_us` only). Timing fields of error rows are never
/// consulted, even if present.
pub fn parse_records(text: &str) -> Vec<BenchRecord> {
    text.lines()
        .filter_map(|line| {
            let label = extract_string(line, "label")?;
            let verdict = extract_string(line, "verdict")?;
            let samples_us = if verdict == "error" {
                Vec::new()
            } else if let Some(samples) = extract_number_array(line, "samples_us") {
                samples
            } else {
                extract_number(line, "round_wall_us")
                    .map(|v| vec![v])
                    .unwrap_or_default()
            };
            Some(BenchRecord {
                k: extract_number(line, "k").map(|k| k as usize),
                label,
                verdict,
                samples_us,
            })
        })
        .collect()
}

/// Pulls the string value of `"key":"…"` out of one JSON line,
/// decoding escapes — a problem name may contain quotes or
/// backslashes, so the scanner must invert
/// [`json_escape`] rather than stop at the first
/// `"`.
pub fn extract_string(line: &str, key: &str) -> Option<String> {
    let marker = format!("{}:", json_escape(key));
    let start = line.find(&marker)? + marker.len();
    json_unescape(&line[start..]).map(|(value, _)| value)
}

/// Pulls the numeric value of `"key":N` out of one JSON line.
pub fn extract_number(line: &str, key: &str) -> Option<f64> {
    let marker = format!("{}:", json_escape(key));
    let start = line.find(&marker)? + marker.len();
    parse_leading_number(&line[start..])
}

/// Pulls the numeric array value of `"key":[N,N,…]` out of one JSON
/// line. `None` when the key is missing or not an array.
pub fn extract_number_array(line: &str, key: &str) -> Option<Vec<f64>> {
    let marker = format!("{}:", json_escape(key));
    let start = line.find(&marker)? + marker.len();
    let rest = line[start..].strip_prefix('[')?;
    let end = rest.find(']')?;
    let body = rest[..end].trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',')
        .map(|cell| parse_leading_number(cell.trim()))
        .collect()
}

fn parse_leading_number(rest: &str) -> Option<f64> {
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && !matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The gate's significance thresholds. A difference must clear *all*
/// of them to classify as improved/regressed.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// Required median ratio: current vs baseline (or the inverse for
    /// improvement). Kept generous by default because the committed
    /// baseline and a CI runner are different machines.
    pub ratio: f64,
    /// Required distance in normal-equivalent sigmas of the larger
    /// side's MAD — the noise-awareness: a workload whose samples are
    /// themselves spread over a wide band needs a wider band to count.
    pub mad_sigmas: f64,
    /// Hard absolute floor, microseconds: sub-millisecond workloads
    /// can never flake the gate on scheduler noise.
    pub abs_floor_us: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            ratio: 4.0,
            mad_sigmas: 8.0,
            abs_floor_us: 250_000.0,
        }
    }
}

/// Timing classification of one workload whose verdicts match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingClass {
    /// Significantly slower than the baseline.
    Regressed,
    /// Significantly faster than the baseline.
    Improved,
    /// Within the noise thresholds.
    Unchanged,
    /// No samples on at least one side (legacy record without timing
    /// fields): nothing to compare, never a failure.
    NoData,
}

/// What became of one workload between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub enum RowStatus {
    /// Verdicts match and both rows measured: a timing class.
    Timing(TimingClass),
    /// Both sides errored: unchanged by definition (no timings read).
    ErrorBoth,
    /// The verdicts differ — in the word, in the bound `k`, or by an
    /// `error` on exactly one side, which is always a hard failure.
    VerdictChanged {
        /// Baseline verdict (the word, plus ` k=N` when bounded).
        baseline: String,
        /// Current verdict (the word, plus ` k=N` when bounded).
        current: String,
    },
    /// In the current record only.
    New,
    /// In the baseline only.
    Missing,
}

/// One workload's comparison.
#[derive(Debug, Clone)]
pub struct RowComparison {
    /// Workload label.
    pub label: String,
    /// The classification.
    pub status: RowStatus,
    /// Median of the baseline samples (IQR-filtered), if measured.
    pub baseline_us: Option<f64>,
    /// Median of the current samples (IQR-filtered), if measured.
    pub current_us: Option<f64>,
    /// The noise guard actually applied, microseconds: the MAD-sigma
    /// band or the absolute floor, whichever was larger.
    pub guard_us: f64,
}

impl RowComparison {
    /// Whether this row fails the gate.
    pub fn fails_gate(&self) -> bool {
        matches!(
            self.status,
            RowStatus::Timing(TimingClass::Regressed)
                | RowStatus::VerdictChanged { .. }
                | RowStatus::New
                | RowStatus::Missing
        )
    }

    /// Whether this row fails on the verdict axis alone (ignoring
    /// timing) — the always-on part of the gate.
    pub fn fails_verdicts(&self) -> bool {
        matches!(
            self.status,
            RowStatus::VerdictChanged { .. } | RowStatus::New | RowStatus::Missing
        )
    }
}

/// The full comparison of two records.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-workload comparisons: current-record order, then baselines
    /// gone missing.
    pub rows: Vec<RowComparison>,
    /// The thresholds applied.
    pub thresholds: Thresholds,
}

impl CompareReport {
    /// Whether the full gate (verdicts + timing) passes.
    pub fn gate_ok(&self) -> bool {
        self.rows.iter().all(|r| !r.fails_gate())
    }

    /// Whether the verdict-only gate passes (timing ignored).
    pub fn verdicts_ok(&self) -> bool {
        self.rows.iter().all(|r| !r.fails_verdicts())
    }

    /// The classification word per row, label first — the stable
    /// signature two consecutive runs must agree on.
    pub fn classifications(&self) -> Vec<(String, &'static str)> {
        self.rows
            .iter()
            .map(|r| (r.label.clone(), class_word(&r.status)))
            .collect()
    }

    /// Renders the human-readable report table.
    pub fn render(&self) -> String {
        let fmt_us = |us: Option<f64>| match us {
            Some(us) if us >= 10_000.0 => format!("{:.1}ms", us / 1000.0),
            Some(us) => format!("{us:.0}us"),
            None => "-".to_owned(),
        };
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let change = match (r.baseline_us, r.current_us) {
                    (Some(b), Some(c)) if b > 0.0 => {
                        format!("{:+.1}%", 100.0 * (c - b) / b)
                    }
                    _ => "-".to_owned(),
                };
                let (b, c) = match r.status {
                    RowStatus::ErrorBoth => ("error".to_owned(), "error".to_owned()),
                    _ => (fmt_us(r.baseline_us), fmt_us(r.current_us)),
                };
                let mut detail = class_word(&r.status).to_owned();
                if let RowStatus::VerdictChanged { baseline, current } = &r.status {
                    detail = format!("VERDICT {baseline} -> {current}");
                }
                if matches!(
                    r.status,
                    RowStatus::Timing(TimingClass::Regressed | TimingClass::Improved)
                ) {
                    detail.push_str(&format!(" (guard {:.0}us)", r.guard_us));
                }
                vec![r.label.clone(), b, c, change, detail]
            })
            .collect();
        render_table(
            &["workload", "baseline", "current", "change", "class"],
            &rows,
        )
    }
}

/// The one-word classification of a row status.
pub fn class_word(status: &RowStatus) -> &'static str {
    match status {
        RowStatus::Timing(TimingClass::Regressed) => "regressed",
        RowStatus::Timing(TimingClass::Improved) => "improved",
        RowStatus::Timing(TimingClass::Unchanged) => "unchanged",
        RowStatus::Timing(TimingClass::NoData) => "no-data",
        RowStatus::ErrorBoth => "unchanged",
        RowStatus::VerdictChanged { .. } => "verdict-changed",
        RowStatus::New => "new",
        RowStatus::Missing => "missing",
    }
}

/// A record's verdict as the gate compares it: the word, plus the
/// bound when the record has one (`safe k=5`).
fn verdict_with_bound(record: &BenchRecord) -> String {
    match record.k {
        Some(k) => format!("{} k={k}", record.verdict),
        None => record.verdict.clone(),
    }
}

/// Classifies one matched, non-error workload's timing.
fn classify_timing(
    baseline: &[f64],
    current: &[f64],
    th: &Thresholds,
) -> (TimingClass, Option<f64>, Option<f64>, f64) {
    let (Some(b), Some(c)) = (Summary::of(baseline), Summary::of(current)) else {
        return (
            TimingClass::NoData,
            Summary::of(baseline).map(|s| s.median),
            Summary::of(current).map(|s| s.median),
            th.abs_floor_us,
        );
    };
    // The noise band: the wider side's run-to-run spread, expressed
    // in sigmas, but never below the hard floor.
    let noise = th.mad_sigmas * MAD_TO_SIGMA * b.mad.max(c.mad);
    let guard = noise.max(th.abs_floor_us);
    let class = if c.median > b.median * th.ratio && c.median - b.median > guard {
        TimingClass::Regressed
    } else if b.median > c.median * th.ratio && b.median - c.median > guard {
        TimingClass::Improved
    } else {
        TimingClass::Unchanged
    };
    (class, Some(b.median), Some(c.median), guard)
}

/// Compares `current` against `baseline` under `thresholds`.
pub fn compare(
    baseline: &[BenchRecord],
    current: &[BenchRecord],
    thresholds: &Thresholds,
) -> CompareReport {
    let mut rows = Vec::new();
    for cur in current {
        let Some(base) = baseline.iter().find(|b| b.label == cur.label) else {
            rows.push(RowComparison {
                label: cur.label.clone(),
                status: RowStatus::New,
                baseline_us: None,
                current_us: None,
                guard_us: 0.0,
            });
            continue;
        };
        let base_error = base.verdict == "error";
        let cur_error = cur.verdict == "error";
        let row = if base_error && cur_error {
            // error ↔ error is unchanged; timings are never read.
            RowComparison {
                label: cur.label.clone(),
                status: RowStatus::ErrorBoth,
                baseline_us: None,
                current_us: None,
                guard_us: 0.0,
            }
        } else if verdict_with_bound(base) != verdict_with_bound(cur) {
            // Includes error on exactly one side: a hard failure.
            RowComparison {
                label: cur.label.clone(),
                status: RowStatus::VerdictChanged {
                    baseline: verdict_with_bound(base),
                    current: verdict_with_bound(cur),
                },
                baseline_us: None,
                current_us: None,
                guard_us: 0.0,
            }
        } else {
            let (class, b, c, guard) =
                classify_timing(&base.samples_us, &cur.samples_us, thresholds);
            RowComparison {
                label: cur.label.clone(),
                status: RowStatus::Timing(class),
                baseline_us: b,
                current_us: c,
                guard_us: guard,
            }
        };
        rows.push(row);
    }
    for base in baseline {
        if !current.iter().any(|c| c.label == base.label) {
            rows.push(RowComparison {
                label: base.label.clone(),
                status: RowStatus::Missing,
                baseline_us: None,
                current_us: None,
                guard_us: 0.0,
            });
        }
    }
    CompareReport {
        rows,
        thresholds: thresholds.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, verdict: &str, samples: &[f64]) -> BenchRecord {
        BenchRecord {
            label: label.into(),
            verdict: verdict.into(),
            k: None,
            samples_us: samples.to_vec(),
        }
    }

    fn only_status(baseline: BenchRecord, current: BenchRecord) -> RowStatus {
        let report = compare(&[baseline], &[current], &Thresholds::default());
        assert_eq!(report.rows.len(), 1);
        report.rows[0].status.clone()
    }

    /// Error-row semantics: error↔error is unchanged, error↔verdict a
    /// hard failure in both directions, and timings of error rows are
    /// never parsed or compared.
    #[test]
    fn error_rows() {
        assert_eq!(
            only_status(record("x", "error", &[]), record("x", "error", &[])),
            RowStatus::ErrorBoth
        );
        let status = only_status(
            record("x", "error", &[]),
            record("x", "safe", &[100.0, 100.0]),
        );
        assert!(matches!(status, RowStatus::VerdictChanged { .. }));
        let status = only_status(
            record("x", "safe", &[100.0, 100.0]),
            record("x", "error", &[]),
        );
        assert!(matches!(status, RowStatus::VerdictChanged { .. }));
        // A malicious/legacy error row carrying a timing field: the
        // parser must drop it.
        let text = r#"{"label":"stefan-1/8","verdict":"error","reason":"oom","round_wall_us":123}"#;
        let records = parse_records(text);
        assert_eq!(records.len(), 1);
        assert!(records[0].samples_us.is_empty(), "timed an error row");
        // …and the gate stays green against an error baseline.
        let report = compare(&records, &records, &Thresholds::default());
        assert!(report.gate_ok());
    }

    /// The bound is part of the verdict: the same word at a different
    /// `k` fails the gate as `verdict-changed`, in both directions,
    /// while an unchanged `k` classifies on timing as usual.
    #[test]
    fn changed_bound_is_a_verdict_change() {
        let line = |k: &str| {
            format!("{{\"label\":\"w\",\"verdict\":\"safe\",\"k\":{k},\"samples_us\":[100,100]}}")
        };
        let (k5, k6) = (parse_records(&line("5")), parse_records(&line("6")));
        assert_eq!(k5[0].k, Some(5));
        for (baseline, current) in [(&k5, &k6), (&k6, &k5)] {
            let report = compare(baseline, current, &Thresholds::default());
            assert_eq!(
                report.classifications(),
                vec![("w".to_owned(), "verdict-changed")]
            );
            assert!(!report.verdicts_ok());
        }
        let report = compare(&k5, &k5, &Thresholds::default());
        assert_eq!(
            report.rows[0].status,
            RowStatus::Timing(TimingClass::Unchanged)
        );
        assert!(compare(&k6, &k5, &Thresholds::default())
            .render()
            .contains("VERDICT safe k=6 -> safe k=5"));
        // `"k":null` (undetermined rows) parses to no bound.
        assert_eq!(parse_records(&line("null"))[0].k, None);
    }

    /// The classification boundaries: all three thresholds (ratio,
    /// MAD band, absolute floor) must be cleared to regress.
    #[test]
    fn classification_boundaries() {
        let th = Thresholds {
            ratio: 2.0,
            mad_sigmas: 5.0,
            abs_floor_us: 1000.0,
        };
        let classify = |b: &[f64], c: &[f64]| {
            let report = compare(&[record("w", "safe", b)], &[record("w", "safe", c)], &th);
            match report.rows[0].status {
                RowStatus::Timing(class) => class,
                ref other => panic!("unexpected status {other:?}"),
            }
        };
        let tight = |center: f64| vec![center, center + 1.0, center - 1.0, center, center];

        // 4x slower, well past floor and noise: regressed.
        assert_eq!(
            classify(&tight(10_000.0), &tight(40_000.0)),
            TimingClass::Regressed
        );
        // Mirror image: improved.
        assert_eq!(
            classify(&tight(40_000.0), &tight(10_000.0)),
            TimingClass::Improved
        );
        // 10x slower but under the absolute floor: unchanged.
        assert_eq!(
            classify(&tight(50.0), &tight(500.0)),
            TimingClass::Unchanged
        );
        // Big absolute jump but under the ratio: unchanged.
        assert_eq!(
            classify(&tight(100_000.0), &tight(150_000.0)),
            TimingClass::Unchanged
        );
        // Past ratio and floor, but the samples themselves are so
        // noisy the MAD band swallows the difference: unchanged.
        let noisy_base = [10_000.0, 100.0, 25_000.0, 2_000.0, 40_000.0];
        let noisy_cur = [45_000.0, 800.0, 90_000.0, 30_000.0, 120_000.0];
        assert_eq!(classify(&noisy_base, &noisy_cur), TimingClass::Unchanged);
        // Exactly at the ratio boundary: strictly-greater, unchanged.
        assert_eq!(
            classify(&tight(10_000.0), &tight(20_000.0)),
            TimingClass::Unchanged
        );
        // Legacy single-sample baselines still classify (MAD 0: the
        // floor and ratio govern).
        assert_eq!(
            classify(&[10_000.0], &tight(41_000.0)),
            TimingClass::Regressed
        );
        // One side without timings: no data, never a failure.
        assert_eq!(classify(&[], &tight(10.0)), TimingClass::NoData);
    }

    /// New / missing workloads fail the gate; matching suites with
    /// unchanged timings pass, and the classification signature is a
    /// pure function of the records.
    #[test]
    fn suite_shape_and_signature() {
        let baseline = vec![
            record("a", "safe", &[1000.0, 1010.0, 990.0]),
            record("b", "unsafe", &[2000.0, 2020.0, 1980.0]),
            record("gone", "safe", &[10.0]),
        ];
        let current = vec![
            record("a", "safe", &[1005.0, 1015.0, 995.0]),
            record("b", "unsafe", &[2010.0, 2030.0, 1990.0]),
            record("fresh", "safe", &[10.0]),
        ];
        let report = compare(&baseline, &current, &Thresholds::default());
        assert!(!report.gate_ok());
        assert!(!report.verdicts_ok());
        let classes = report.classifications();
        assert_eq!(
            classes,
            vec![
                ("a".to_owned(), "unchanged"),
                ("b".to_owned(), "unchanged"),
                ("fresh".to_owned(), "new"),
                ("gone".to_owned(), "missing"),
            ]
        );
        // Determinism: same inputs, same classifications.
        let again = compare(&baseline, &current, &Thresholds::default());
        assert_eq!(again.classifications(), classes);
        // The report renders every row.
        let rendered = report.render();
        for (label, _) in &classes {
            assert!(rendered.contains(label), "{label} missing from report");
        }
    }

    /// The record parser reads both formats: sampled (`samples_us`)
    /// and legacy single-sample (`round_wall_us`).
    #[test]
    fn parses_both_record_formats() {
        let text = "[\n  \
            {\"label\":\"a\",\"verdict\":\"safe\",\"k\":5,\"round_wall_us\":1234,\"samples_us\":[1200,1234,1300],\"duration_ms\":1},\n  \
            {\"label\":\"b\",\"verdict\":\"unsafe\",\"k\":7,\"round_wall_us\":99,\"duration_ms\":0},\n  \
            {\"label\":\"c\",\"verdict\":\"undetermined\",\"k\":null}\n]";
        let records = parse_records(text);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].samples_us, vec![1200.0, 1234.0, 1300.0]);
        assert_eq!(records[1].samples_us, vec![99.0]);
        assert!(records[2].samples_us.is_empty());
        // Escaped names round-trip through writer and reader.
        let nasty = "bench \"quoted\"\\weird/name";
        let line = format!(
            "{{\"label\":{},\"verdict\":\"safe\",\"samples_us\":[1,2]}}",
            json_escape(nasty)
        );
        let records = parse_records(&line);
        assert_eq!(records[0].label, nasty);
        assert_eq!(extract_number_array(&line, "samples_us").unwrap().len(), 2);
        assert_eq!(extract_number_array(&line, "absent"), None);
    }

    /// The legacy scanner ignores the additive per-stage timing keys
    /// (`saturate_us` / `check_us` / `merge_us`): a record carrying
    /// them parses to exactly the same [`BenchRecord`] as one without,
    /// so old baselines stay comparable against new runs.
    #[test]
    fn scanner_ignores_stage_timing_keys() {
        let with_stages = "{\"label\":\"dekker/2*\",\"verdict\":\"safe\",\"k\":4,\
            \"round_wall_us\":1700,\"saturate_us\":900,\"check_us\":800,\"merge_us\":40,\
            \"samples_us\":[1700,1600,1800],\"duration_ms\":1}";
        let without = "{\"label\":\"dekker/2*\",\"verdict\":\"safe\",\"k\":4,\
            \"round_wall_us\":1700,\"samples_us\":[1700,1600,1800],\"duration_ms\":1}";
        assert_eq!(parse_records(with_stages), parse_records(without));

        // And the real writer's output (which now includes the stage
        // medians) still scans to the plain sampled record.
        let row = crate::harness::BenchRow {
            label: "dekker/2*".into(),
            verdict: "safe".into(),
            reason: None,
            cache_hit: false,
            k: Some(4),
            fcr: Some(true),
            engine: Some("Alg3(T(Rk))".into()),
            rounds: 5,
            rounds_explored: 12,
            rounds_replayed: 4,
            samples_us: vec![1700.0, 1600.0, 1800.0],
            saturate_samples_us: vec![900.0, 850.0, 950.0],
            check_samples_us: vec![800.0, 750.0, 850.0],
            merge_samples_us: vec![40.0, 30.0, 50.0],
            duration_ms: 1,
            unstable: false,
        };
        let line = crate::harness::row_to_json(&row);
        assert!(line.contains("\"saturate_us\":900"), "{line}");
        let records = parse_records(&line);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].verdict, "safe");
        assert_eq!(records[0].samples_us, vec![1700.0, 1600.0, 1800.0]);
        // The timing gate itself is indifferent to the new keys.
        let report = compare(&records, &records, &Thresholds::default());
        assert!(report.gate_ok());
    }
}
