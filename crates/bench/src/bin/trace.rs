//! Exports the simulated timeline of one training configuration as a
//! Chrome trace (load in `chrome://tracing` or Perfetto) — the simulated
//! counterpart of the paper's nsys captures (Fig. 5).
//!
//! Usage: `trace <strategy> <billions> <nodes> [output.json]`
//! where strategy ∈ {ddp, megatron, zero1, zero2, zero3, zero1-cpu,
//! zero2-cpu, zero3-cpu, infinity}.

use zerosim_bench::cli::{strategy_by_name, usage_error, STRATEGY_NAMES};
use zerosim_core::{to_chrome_trace, RunConfig, TrainingSim};
use zerosim_hw::ClusterSpec;
use zerosim_model::GptConfig;
use zerosim_strategies::TrainOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 3 {
        eprintln!("usage: trace <strategy> <billions> <nodes> [output.json]");
        eprintln!("strategies: {}", STRATEGY_NAMES.join(" "));
        std::process::exit(2);
    }
    let billions: f64 = args[1].parse()?;
    let nodes: usize = args[2].parse()?;
    let out = args.get(3).cloned().unwrap_or_else(|| "trace.json".into());

    let mut sim = TrainingSim::new(ClusterSpec::default())?;
    let strategy = strategy_by_name(&args[0], nodes, &mut sim).unwrap_or_else(|e| usage_error(&e));

    let opts = if nodes == 1 {
        TrainOptions::single_node()
    } else {
        TrainOptions::dual_node()
    };
    let model = GptConfig::paper_model_with_params(billions);
    let cfg = RunConfig {
        allow_overflow: true,
        ..RunConfig::quick()
    };
    let report = sim.run(&strategy, &model, &opts, &cfg)?;
    std::fs::write(&out, to_chrome_trace(&report.spans))?;
    eprintln!(
        "{}: {:.3}s iteration, {:.0} TFLOP/s — {} spans written to {out}",
        report.strategy,
        report.iter_time.as_secs(),
        report.throughput_tflops(),
        report.spans.spans().len(),
    );
    Ok(())
}
