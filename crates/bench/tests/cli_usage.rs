//! The usage-error contract of the command-line tools: an argument a tool
//! cannot honour (an unknown flag or strategy name, a zero count, an
//! empty or reversed range, a malformed size, a deadline or token budget
//! that is not a finite positive number) exits with status 2 and a
//! message on stderr.
//! Every row below is rejected while arguments are parsed, so this file
//! simulates nothing.

use std::path::Path;
use std::process::Command;

const FLEETPLAN: &str = env!("CARGO_BIN_EXE_fleetplan");
const PLANFIND: &str = env!("CARGO_BIN_EXE_planfind");
const PLANLINT: &str = env!("CARGO_BIN_EXE_planlint");
const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const SERVESIM: &str = env!("CARGO_BIN_EXE_servesim");
const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");

/// Where the `--bench` rows below would write, were they accepted.
const BENCH_OUT: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_usage_bench.json");

/// (binary, arguments): every invocation must be a usage error.
const USAGE_ERRORS: &[(&str, &[&str])] = &[
    // Counts and ranges servesim cannot honour.
    (SERVESIM, &["--batch", "0"]),
    (SERVESIM, &["--requests", "0"]),
    (SERVESIM, &["--nodes", "0"]),
    (SERVESIM, &["--output", "5,1"]),
    (SERVESIM, &["--output", "0,0"]),
    (SERVESIM, &["--prompt", "0,0"]),
    // Zero counts in sweep.
    (SWEEP, &["--batch", "0", "--sizes", "1.4"]),
    // Zero worker and row counts in fleetplan, planfind and repro.
    (FLEETPLAN, &["--workers", "0"]),
    (FLEETPLAN, &["--top", "0"]),
    (PLANFIND, &["--workers", "0"]),
    (PLANFIND, &["--top", "0"]),
    (REPRO, &["--workers", "0", "fig1"]),
    // Token budgets and deadlines fleetplan cannot cost.
    (FLEETPLAN, &["--tokens", "nan"]),
    (FLEETPLAN, &["--tokens", "0"]),
    (FLEETPLAN, &["--tokens", "-5"]),
    (FLEETPLAN, &["--days", "nan"]),
    (FLEETPLAN, &["--days", "0"]),
    (FLEETPLAN, &["--days", "-3"]),
    // No tool writes a scorecard or seeds a self-check: those verdicts
    // live in the tests and `repro` artifacts that run the same
    // configurations.
    (PLANLINT, &["--bench", BENCH_OUT]),
    (PLANLINT, &["zl008-selfcheck"]),
    (FLEETPLAN, &["--bench", BENCH_OUT]),
    (FLEETPLAN, &["--samples", "32"]),
    (SERVESIM, &["--bench", BENCH_OUT]),
    (SERVESIM, &["--workers", "4"]),
    // Sizes and node counts sweep and trace cannot run.
    (SWEEP, &["--sizes", "-1"]),
    (SWEEP, &["--nodes", "0"]),
    (TRACE, &["ZeRO-3", "abc", "1"]),
    (TRACE, &["ZeRO-3", "1.4", "0"]),
    // Paper-shaped sizes above the 1,000 B limit (1e5 B is ~2M layers).
    (TRACE, &["ZeRO-3", "1e5", "1"]),
    (SWEEP, &["--sizes", "1e5"]),
    (PLANFIND, &["--topology", "flat:1", "--model", "1e5"]),
    (FLEETPLAN, &["--model", "1e5"]),
    (SERVESIM, &["--model", "1e5"]),
    // Below the paper shape's embedding-only size.
    (SERVESIM, &["--model", "0.05"]),
    // Topologies above the 1,024-GPU limit.
    (PLANFIND, &["--topology", "flat:100000"]),
    (PLANFIND, &["--topology", "pods:64x64x64:2:2"]),
    // The old short strategy names are gone, with no aliases.
    (TRACE, &["zero3", "1.4", "1"]),
    (SWEEP, &["--strategy", "zero3"]),
    (PLANLINT, &["zero3"]),
    // An unknown flag, on every binary.
    (FLEETPLAN, &["--bogus"]),
    (PLANFIND, &["--bogus"]),
    (PLANLINT, &["--bogus"]),
    (REPRO, &["--bogus"]),
    (SERVESIM, &["--bogus"]),
    (SWEEP, &["--bogus"]),
    (TRACE, &["--bogus"]),
];

#[test]
fn unusable_arguments_exit_2_with_a_message() {
    let failures: Vec<String> = USAGE_ERRORS
        .iter()
        .filter_map(|&(bin, args)| {
            let out = Command::new(bin)
                .args(args)
                .output()
                .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            if out.status.code() == Some(2) && !stderr.trim().is_empty() {
                return None;
            }
            let name = Path::new(bin)
                .file_name()
                .map_or(bin.into(), |n| n.to_string_lossy());
            Some(format!(
                "{name} {}: status {:?}, stderr {:?}",
                args.join(" "),
                out.status.code(),
                stderr.trim()
            ))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "expected exit 2 and a message for:\n{}",
        failures.join("\n")
    );
}
