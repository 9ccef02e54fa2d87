//! Perf-trajectory gate: compares two `BENCH_dp.json` snapshots and
//! fails (exit 1) on regressions beyond a threshold.
//!
//! The CI `bench-diff` job downloads the previous successful run's
//! `BENCH_dp` artifact as the baseline and the fresh quick-mode output
//! as the candidate; locally the same comparison runs against any saved
//! snapshot:
//!
//! ```sh
//! cargo run -p cyclesteal-bench --bin bench_diff -- \
//!     baseline/BENCH_dp.json BENCH_dp.json --threshold 0.10
//! ```
//!
//! Gated keys: the wall-clock production solve timing
//! `run_compressed_solve_s` (the event-driven build of the run-backed
//! `10⁹`-tick table), the serving layer's `warm_start_s` and batch tail
//! latency `serve_p99_us` (lower is better; shared CI runners make these
//! noisy, so treat a timing failure as a prompt to re-run before
//! believing it), the broker throughput `serve_qps` and the batch
//! simulator's `sim_episodes_per_s` (**higher** is better — the gate
//! fails on a drop beyond the threshold), plus the deterministic
//! structure counters — `event_count` (the event-driven build's loop
//! iterations) and the
//! second-order compression sizes `run_compressed_breakpoints` /
//! `run_memory_bytes` — which are fully reproducible for a given code
//! revision and therefore catch algorithmic regressions with zero
//! noise.
//!
//! One gate is **intra-run** rather than baseline-relative: the fresh
//! snapshot's `serve_qps_instrumented` (broker throughput with tracing
//! and solver phase profiling on) must stay within 10% of its own
//! `serve_qps` — two measurements from the same run on the same
//! machine, so runner noise mostly cancels and the ratio isolates the
//! observability overhead itself.
//!
//! A gated key missing from the *baseline* but present in the fresh
//! snapshot is a **newly introduced field**: it is reported (`new field
//! (absent in baseline) — gated from the next baseline on`) and never
//! fails the gate, so landing a new measurement does not require a
//! manual baseline refresh. Keys missing from the fresh snapshot (or
//! both sides) are likewise skipped with a note — fields a later
//! `perf_dp` retires simply stop being compared. A missing baseline
//! *file* passes with a note so the first run of a fresh repository (or
//! a fork without artifact history) is green.
//!
//! No JSON crate is vendored, so the parser is a deliberately minimal
//! `"key": number` scanner — exactly the shape `perf_dp` emits.

use std::process::ExitCode;

/// Keys gated on regression where **lower is better**, in report
/// order. The `_s` keys are wall-clock seconds: `run_compressed_solve_s`
/// is the production solve and `warm_start_s` the snapshot-load +
/// first-query restart path of the serving layer (its companion
/// `warm_start_speedup` is a ratio of two gated timings and deliberately
/// not gated itself). `event_count`, `run_compressed_breakpoints` and
/// `run_memory_bytes` are the deterministic counters of that solve and
/// its run-backed storage, which explain its timing; `serve_p99_us` is
/// the broker's batch tail latency under the throughput load.
const GATED_KEYS_LOWER: [&str; 6] = [
    "run_compressed_solve_s",
    "event_count",
    "run_compressed_breakpoints",
    "run_memory_bytes",
    "warm_start_s",
    "serve_p99_us",
];

/// Keys gated on regression where **higher is better**: a drop beyond
/// the threshold fails, a rise is an improvement. `serve_qps` is the
/// broker's batched query throughput and `serve_qps_64c` the same
/// workload at 64 concurrent client threads — the serving stack's
/// concurrency acceptance point (its companion `serve_p99_64c_us` is
/// an informational stamp; the gated tail latency is `serve_p99_us`);
/// `sim_episodes_per_s` is the struct-of-arrays batch simulator's
/// episode throughput at the acceptance point (its companions
/// `sim_batch_episodes` and `sim_batch_threads` are configuration
/// stamps, deliberately ungated).
const GATED_KEYS_HIGHER: [&str; 3] = ["serve_qps", "serve_qps_64c", "sim_episodes_per_s"];

/// Floor on `serve_qps_instrumented / serve_qps` within one fresh
/// snapshot: full observability (per-request tracing + solver phase
/// profiling) may cost at most 10% of broker throughput.
const INSTRUMENTED_QPS_FLOOR: f64 = 0.90;

/// The intra-run observability-overhead gate: compares the fresh
/// snapshot's instrumented broker throughput against its own baseline
/// throughput. Returns `Some((baseline_qps, instrumented_qps))` when
/// the instrumented number fell below the floor; `None` when it holds
/// or either field is absent (pre-obs snapshots must keep passing).
fn instrumented_overhead_violation(fresh: &str) -> Option<(f64, f64)> {
    let base = get_number(fresh, "serve_qps")?;
    let instrumented = get_number(fresh, "serve_qps_instrumented")?;
    (base > 0.0 && instrumented < INSTRUMENTED_QPS_FLOOR * base).then_some((base, instrumented))
}

/// Extracts `"key": <number>` from a flat JSON document. Only the first
/// occurrence is considered; returns `None` when the key is absent or
/// its value is not a bare number.
fn get_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let start = json.find(&pat)? + pat.len();
    let rest = json[start..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": true|false` from a flat JSON document.
fn get_bool(json: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\"");
    let start = json.find(&pat)? + pat.len();
    let rest = json[start..].trim_start().strip_prefix(':')?.trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// One gated key's comparison outcome.
#[derive(Clone, Debug, PartialEq)]
enum Verdict {
    /// Both sides present, delta within the threshold.
    Ok { delta: f64 },
    /// Both sides present, improved beyond the threshold.
    Improved { delta: f64 },
    /// Both sides present, regressed beyond the threshold — the only
    /// verdict that fails the gate.
    Regression { base: f64, new: f64, delta: f64 },
    /// Present in the fresh snapshot only: a newly introduced gated
    /// field, tolerated and reported until a baseline carries it.
    NewField,
    /// Absent somewhere else (fresh snapshot, or both sides), or a
    /// non-positive baseline value that admits no ratio.
    Skipped { why: &'static str },
}

/// One gated key's comparison: the parsed values from each side (kept
/// so the report never re-scans the documents) and the verdict.
#[derive(Clone, Debug)]
struct KeyDiff {
    key: &'static str,
    base: Option<f64>,
    new: Option<f64>,
    verdict: Verdict,
}

/// Compares every gated key of two snapshots. Pure — the CLI wrapper
/// adds I/O and formatting; the unit tests drive this directly. The
/// reported `delta` is always the raw relative change `(new−base)/base`;
/// for higher-is-better keys the *sign that fails* flips.
fn compare(baseline: &str, fresh: &str, threshold: f64) -> Vec<KeyDiff> {
    let lower = GATED_KEYS_LOWER.iter().map(|&k| (k, false));
    let higher = GATED_KEYS_HIGHER.iter().map(|&k| (k, true));
    lower
        .chain(higher)
        .map(|(key, higher_is_better)| {
            let (base, new) = (get_number(baseline, key), get_number(fresh, key));
            let verdict = match (base, new) {
                (Some(base), Some(new)) if base > 0.0 => {
                    let delta = (new - base) / base;
                    // The direction that counts as a regression flips
                    // for throughput-style keys.
                    let regressed = if higher_is_better { -delta } else { delta };
                    if regressed > threshold {
                        Verdict::Regression { base, new, delta }
                    } else if regressed < -threshold {
                        Verdict::Improved { delta }
                    } else {
                        Verdict::Ok { delta }
                    }
                }
                // Present on both sides but no usable ratio: a zero or
                // negative baseline is a corrupt/truncated snapshot, not
                // an absent field — say so instead of gating on it.
                (Some(_), Some(_)) => Verdict::Skipped {
                    why: "non-positive baseline",
                },
                (None, Some(_)) => Verdict::NewField,
                (Some(_), None) => Verdict::Skipped {
                    why: "absent in fresh snapshot",
                },
                (None, None) => Verdict::Skipped {
                    why: "absent on both sides",
                },
            };
            KeyDiff {
                key,
                base,
                new,
                verdict,
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 0.10f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threshold needs a fraction, e.g. 0.10");
                    std::process::exit(2);
                });
            }
            p => paths.push(p),
        }
        i += 1;
    }
    let [baseline_path, fresh_path] = paths[..] else {
        eprintln!("usage: bench_diff <baseline.json> <fresh.json> [--threshold 0.10]");
        return ExitCode::from(2);
    };

    let fresh = match std::fs::read_to_string(fresh_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_diff: cannot read fresh snapshot {fresh_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            println!("bench_diff: no baseline at {baseline_path} ({e}) — nothing to gate, passing");
            return ExitCode::SUCCESS;
        }
    };

    if get_bool(&baseline, "quick_mode") != get_bool(&fresh, "quick_mode") {
        println!(
            "bench_diff: warning — baseline and fresh snapshots ran in different modes \
             (quick vs full); timings compare single runs against medians"
        );
    }

    println!(
        "{:<26} {:>14} {:>14} {:>9}  verdict (threshold +{:.0}%)",
        "key",
        "baseline",
        "fresh",
        "delta",
        threshold * 100.0
    );
    let results = compare(&baseline, &fresh, threshold);
    let mut regressions = Vec::new();
    for diff in &results {
        let key = diff.key;
        match &diff.verdict {
            Verdict::Ok { delta } | Verdict::Improved { delta } => {
                let word = if matches!(diff.verdict, Verdict::Improved { .. }) {
                    "improved"
                } else {
                    "ok"
                };
                // Ok/Improved imply both sides parsed.
                let (base, new) = (diff.base.expect("parsed"), diff.new.expect("parsed"));
                println!(
                    "{key:<26} {base:>14.6} {new:>14.6} {:>+8.1}%  {word}",
                    delta * 100.0
                );
            }
            Verdict::Regression { base, new, delta } => {
                regressions.push((key, *base, *new, *delta));
                println!(
                    "{key:<26} {base:>14.6} {new:>14.6} {:>+8.1}%  REGRESSION",
                    delta * 100.0
                );
            }
            Verdict::NewField => {
                println!(
                    "{key:<26} {:>14} {:>14.6} {:>9}  new field (absent in baseline) — gated from the next baseline on",
                    "—",
                    diff.new.expect("NewField implies a fresh value"),
                    "—"
                );
            }
            Verdict::Skipped { why } => {
                println!(
                    "{key:<26} {:>14} {:>14} {:>9}  skipped ({why})",
                    diff.base.map_or("—".into(), |b| format!("{b:.6}")),
                    diff.new.map_or("—".into(), |n| format!("{n:.6}")),
                    "—"
                );
            }
        }
    }

    // The intra-run observability gate reads only the fresh snapshot.
    match instrumented_overhead_violation(&fresh) {
        Some((base, instrumented)) => {
            regressions.push((
                "serve_qps_instrumented",
                base,
                instrumented,
                instrumented / base - 1.0,
            ));
            eprintln!(
                "bench_diff: serve_qps_instrumented is {:.1}% of serve_qps in the same run \
                 (floor {:.0}%) — observability overhead over budget",
                100.0 * instrumented / base,
                INSTRUMENTED_QPS_FLOOR * 100.0
            );
        }
        None => {
            if let (Some(base), Some(instrumented)) = (
                get_number(&fresh, "serve_qps"),
                get_number(&fresh, "serve_qps_instrumented"),
            ) {
                println!(
                    "{:<26} {:>14} {:>14.6} {:>+8.1}%  ok (intra-run, floor -{:.0}%)",
                    "serve_qps_instrumented",
                    "(serve_qps)",
                    instrumented,
                    100.0 * (instrumented / base - 1.0),
                    (1.0 - INSTRUMENTED_QPS_FLOOR) * 100.0
                );
            }
        }
    }

    if regressions.is_empty() {
        println!(
            "bench_diff: no gated regression beyond {:.0}%",
            threshold * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for (key, base, new, delta) in &regressions {
            eprintln!(
                "bench_diff: {key} regressed {:+.1}% ({base} -> {new})",
                delta * 100.0
            );
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(pairs: &[(&str, f64)]) -> String {
        let fields: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }

    fn verdict_for<'a>(results: &'a [KeyDiff], key: &str) -> &'a Verdict {
        &results
            .iter()
            .find(|d| d.key == key)
            .expect("gated key")
            .verdict
    }

    fn has_regression(results: &[KeyDiff]) -> bool {
        results
            .iter()
            .any(|d| matches!(d.verdict, Verdict::Regression { .. }))
    }

    #[test]
    fn newly_introduced_gated_field_is_reported_not_failed() {
        // A baseline from before the run-backed fields existed.
        let baseline = snapshot(&[("warm_start_s", 0.04), ("event_count", 55_969_025.0)]);
        // A fresh snapshot that carries the new gated fields.
        let fresh = snapshot(&[
            ("warm_start_s", 0.04),
            ("event_count", 55_969_025.0),
            ("run_compressed_breakpoints", 500_000.0),
            ("run_memory_bytes", 16_000_000.0),
        ]);
        let results = compare(&baseline, &fresh, 0.10);
        assert!(!has_regression(&results), "new fields must never fail");
        assert_eq!(
            verdict_for(&results, "run_compressed_breakpoints"),
            &Verdict::NewField
        );
        assert_eq!(
            verdict_for(&results, "run_memory_bytes"),
            &Verdict::NewField
        );
        // Fields present on both sides still gate normally.
        assert!(matches!(
            verdict_for(&results, "event_count"),
            Verdict::Ok { .. }
        ));
    }

    #[test]
    fn regression_beyond_threshold_fails_and_improvement_does_not() {
        let baseline = snapshot(&[("event_count", 100.0), ("run_compressed_solve_s", 1.0)]);
        let fresh = snapshot(&[("event_count", 120.0), ("run_compressed_solve_s", 0.5)]);
        let results = compare(&baseline, &fresh, 0.10);
        assert!(matches!(
            verdict_for(&results, "event_count"),
            Verdict::Regression { delta, .. } if (*delta - 0.2).abs() < 1e-12
        ));
        assert!(matches!(
            verdict_for(&results, "run_compressed_solve_s"),
            Verdict::Improved { .. }
        ));
    }

    #[test]
    fn higher_is_better_keys_gate_on_drops_not_rises() {
        // serve_qps doubling is an improvement; halving is a regression.
        // serve_qps_64c carries the same contract at 64 client threads.
        let baseline = snapshot(&[
            ("serve_qps", 100_000.0),
            ("serve_qps_64c", 80_000.0),
            ("warm_start_s", 0.05),
        ]);
        let faster = snapshot(&[
            ("serve_qps", 200_000.0),
            ("serve_qps_64c", 160_000.0),
            ("warm_start_s", 0.04),
        ]);
        let results = compare(&baseline, &faster, 0.10);
        assert!(matches!(
            verdict_for(&results, "serve_qps"),
            Verdict::Improved { .. }
        ));
        assert!(matches!(
            verdict_for(&results, "serve_qps_64c"),
            Verdict::Improved { .. }
        ));
        assert!(!has_regression(&results));

        let slower = snapshot(&[
            ("serve_qps", 50_000.0),
            ("serve_qps_64c", 40_000.0),
            ("warm_start_s", 0.05),
        ]);
        let results = compare(&baseline, &slower, 0.10);
        assert!(matches!(
            verdict_for(&results, "serve_qps"),
            Verdict::Regression { delta, .. } if (*delta + 0.5).abs() < 1e-12
        ));
        assert!(matches!(
            verdict_for(&results, "serve_qps_64c"),
            Verdict::Regression { delta, .. } if (*delta + 0.5).abs() < 1e-12
        ));
    }

    #[test]
    fn sim_throughput_gates_on_drops_not_rises() {
        // sim_episodes_per_s mirrors serve_qps: a drop beyond the
        // threshold regresses, a rise improves, and staying flat is ok.
        let baseline = snapshot(&[("sim_episodes_per_s", 1_000_000.0)]);
        let results = compare(
            &baseline,
            &snapshot(&[("sim_episodes_per_s", 2_000_000.0)]),
            0.10,
        );
        assert!(matches!(
            verdict_for(&results, "sim_episodes_per_s"),
            Verdict::Improved { .. }
        ));
        assert!(!has_regression(&results));

        let results = compare(
            &baseline,
            &snapshot(&[("sim_episodes_per_s", 800_000.0)]),
            0.10,
        );
        assert!(matches!(
            verdict_for(&results, "sim_episodes_per_s"),
            Verdict::Regression { delta, .. } if (*delta + 0.2).abs() < 1e-12
        ));

        let results = compare(
            &baseline,
            &snapshot(&[("sim_episodes_per_s", 950_000.0)]),
            0.10,
        );
        assert!(matches!(
            verdict_for(&results, "sim_episodes_per_s"),
            Verdict::Ok { .. }
        ));
    }

    #[test]
    fn sim_throughput_is_new_against_a_pre_batch_baseline() {
        // A baseline from before the batch simulator existed: the new
        // gated field must report, never fail — same contract the
        // serving fields got when they landed.
        let baseline = snapshot(&[("serve_qps", 150_000.0)]);
        let fresh = snapshot(&[
            ("serve_qps", 150_000.0),
            ("sim_episodes_per_s", 1_200_000.0),
        ]);
        let results = compare(&baseline, &fresh, 0.10);
        assert!(!has_regression(&results));
        assert_eq!(
            verdict_for(&results, "sim_episodes_per_s"),
            &Verdict::NewField
        );
        assert!(matches!(
            verdict_for(&results, "serve_qps"),
            Verdict::Ok { .. }
        ));
    }

    #[test]
    fn serve_tail_latency_gates_lower_is_better() {
        // serve_p99_us is a latency: a rise past threshold regresses, a
        // drop improves.
        let baseline = snapshot(&[("serve_p99_us", 2_000.0)]);
        let results = compare(&baseline, &snapshot(&[("serve_p99_us", 3_000.0)]), 0.10);
        assert!(matches!(
            verdict_for(&results, "serve_p99_us"),
            Verdict::Regression { delta, .. } if (*delta - 0.5).abs() < 1e-12
        ));
        let results = compare(&baseline, &snapshot(&[("serve_p99_us", 1_500.0)]), 0.10);
        assert!(matches!(
            verdict_for(&results, "serve_p99_us"),
            Verdict::Improved { .. }
        ));
        assert!(!has_regression(&results));
    }

    #[test]
    fn serving_fields_are_new_against_a_pre_serve_baseline() {
        // A baseline from before the serving subsystem: the new gated
        // fields must report, never fail.
        let baseline = snapshot(&[("run_compressed_solve_s", 1.1)]);
        let fresh = snapshot(&[
            ("run_compressed_solve_s", 1.1),
            ("warm_start_s", 0.05),
            ("serve_qps", 150_000.0),
            ("serve_qps_64c", 120_000.0),
            ("serve_p99_us", 2_500.0),
        ]);
        let results = compare(&baseline, &fresh, 0.10);
        assert!(!has_regression(&results));
        assert_eq!(verdict_for(&results, "warm_start_s"), &Verdict::NewField);
        assert_eq!(verdict_for(&results, "serve_qps"), &Verdict::NewField);
        assert_eq!(verdict_for(&results, "serve_qps_64c"), &Verdict::NewField);
        assert_eq!(verdict_for(&results, "serve_p99_us"), &Verdict::NewField);
    }

    #[test]
    fn missing_fields_and_corrupt_baselines_are_skipped() {
        let baseline = snapshot(&[("run_compressed_solve_s", 0.0), ("warm_start_s", 0.04)]);
        let fresh = snapshot(&[("run_compressed_solve_s", 0.2)]);
        let results = compare(&baseline, &fresh, 0.10);
        assert_eq!(
            verdict_for(&results, "run_compressed_solve_s"),
            &Verdict::Skipped {
                why: "non-positive baseline"
            }
        );
        assert_eq!(
            verdict_for(&results, "warm_start_s"),
            &Verdict::Skipped {
                why: "absent in fresh snapshot"
            }
        );
        assert_eq!(
            verdict_for(&results, "event_count"),
            &Verdict::Skipped {
                why: "absent on both sides"
            }
        );
        assert!(!has_regression(&results));
    }

    #[test]
    fn instrumented_qps_gates_within_one_run() {
        // Within budget: 95% of baseline passes the 90% floor.
        let ok = snapshot(&[
            ("serve_qps", 100_000.0),
            ("serve_qps_instrumented", 95_000.0),
        ]);
        assert_eq!(instrumented_overhead_violation(&ok), None);

        // Over budget: 80% of baseline violates.
        let slow = snapshot(&[
            ("serve_qps", 100_000.0),
            ("serve_qps_instrumented", 80_000.0),
        ]);
        assert_eq!(
            instrumented_overhead_violation(&slow),
            Some((100_000.0, 80_000.0))
        );

        // Pre-obs snapshots (field absent) and corrupt baselines never
        // trip the gate.
        assert_eq!(
            instrumented_overhead_violation(&snapshot(&[("serve_qps", 100_000.0)])),
            None
        );
        assert_eq!(
            instrumented_overhead_violation(&snapshot(&[("serve_qps_instrumented", 50_000.0)])),
            None
        );
        assert_eq!(
            instrumented_overhead_violation(&snapshot(&[
                ("serve_qps", 0.0),
                ("serve_qps_instrumented", 0.0),
            ])),
            None
        );
    }

    #[test]
    fn number_scanner_handles_the_emitted_shape() {
        let json = "{\n  \"bench\": \"perf_dp\",\n  \"run_memory_bytes\": 15728640,\n  \"quick_mode\": true\n}\n";
        assert_eq!(get_number(json, "run_memory_bytes"), Some(15_728_640.0));
        assert_eq!(get_number(json, "missing"), None);
        assert_eq!(get_bool(json, "quick_mode"), Some(true));
    }
}
