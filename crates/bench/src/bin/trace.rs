//! Exports the simulated timeline of one training configuration as a
//! Chrome trace (load in `chrome://tracing` or Perfetto) — the simulated
//! counterpart of the paper's nsys captures (Fig. 5).
//!
//! Usage: `trace <strategy> <billions> <nodes> [output.json]`
//! where `<strategy>` is a registry name (`planlint list` prints all 16,
//! e.g. `ZeRO-3` or `"ZeRO-Infinity (NVME opt)"`).
//!
//! Exit status: 0 on success, 1 when the configuration cannot run or the
//! trace cannot be written, 2 on usage errors.

use zerosim_bench::cli::{
    parse_billions, parse_count, strategy_by_name, strategy_names, usage_error,
};
use zerosim_core::{to_chrome_trace, RunConfig};
use zerosim_model::GptConfig;
use zerosim_strategies::TrainOptions;

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        usage_error(&format!(
            "usage: trace <strategy> <billions> <nodes> [output.json]\nstrategies: {}",
            strategy_names().join(", ")
        ));
    }
    let billions = parse_billions(&args[1], "<billions>");
    let nodes = parse_count(Some(args[2].clone()), "<nodes>", 1);
    let out = args.get(3).cloned().unwrap_or_else(|| "trace.json".into());

    let model = GptConfig::paper_model_with_params(billions);
    let spec = strategy_by_name(&args[0], model, TrainOptions::for_nodes(nodes))
        .unwrap_or_else(|e| usage_error(&e))
        .with_run(RunConfig {
            allow_overflow: true,
            ..RunConfig::quick()
        });
    let report = spec
        .execute()
        .unwrap_or_else(|e| fail(&e.to_string()))
        .report;
    if let Err(e) = std::fs::write(&out, to_chrome_trace(&report.spans)) {
        fail(&format!("cannot write {out}: {e}"));
    }
    eprintln!(
        "{}: {:.3}s iteration, {:.0} TFLOP/s — {} spans written to {out}",
        report.strategy,
        report.iter_time.as_secs(),
        report.throughput_tflops(),
        report.spans.spans().len(),
    );
}
