//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one `record` line per cell or head (its determinism digest and
//! counts), then, as the last line of standard output, one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the spans and hook totals are written to
//! `perfbench/out/spans-<workload>-<seed>.json`.

use std::process::ExitCode;

use perfbench::harness::{self, Options};
use perfbench::workloads::{Size, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x5EED;

/// Measurement budget used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {problem}");
    eprintln!("usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
    eprintln!("  workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => {
                    return usage(&format!("seed must be an unsigned integer, got {value:?}"))
                }
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => {
                    return usage(&format!(
                        "seconds must be a non-negative number, got {value:?}"
                    ))
                }
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("trace must be 0 or 1, got {value:?}")),
            },
            _ => return usage(&format!("unknown argument {flag:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let outcome = harness::run(Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
    });

    for problem in &outcome.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    if let Some(json) = &outcome.spans_json {
        let path = format!("perfbench/out/spans-{}-{seed}.json", workload.name());
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        // A missing dump must not cost the run its metrics.
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write spans to {path}: {e}"),
        }
    }
    let rounds: Vec<String> = outcome
        .rounds
        .iter()
        .map(|(setup, run)| format!("{setup:.4}/{run:.4}"))
        .collect();
    eprintln!(
        "perfbench: {} seed {seed}: {} rounds (setup_s/run_s: {}), {} operations, {} failed",
        workload.name(),
        rounds.len(),
        rounds.join(" "),
        outcome.attempted,
        outcome.failed
    );
    for record in &outcome.records {
        println!("{}", record.line());
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
