//! Ad-hoc parameter sweeps over the simulated cluster.
//!
//! Usage:
//! `sweep --strategy ZeRO-2 --sizes 0.7,1.4,2.9 --nodes 1 [--batch 16] [--csv]`
//!
//! `--strategy` takes a registry name (`planlint list` prints all 16,
//! e.g. `"PyTorch DDP"`, `"Megatron-LM (MP=4)"`, `"ZeRO-3 (CPU)"`). An
//! unknown name, a size below the paper shape's embedding-only size, or
//! a zero node count or batch, is a usage error (exit 2).

use zerosim_bench::cli::{
    parse_billions, parse_count, strategy_by_name, take_flag, take_value, usage_error,
};
use zerosim_core::RunConfig;
use zerosim_hw::LinkClass;
use zerosim_model::GptConfig;
use zerosim_report::Table;
use zerosim_strategies::TrainOptions;

const USAGE: &str = "usage: sweep --strategy <name> --sizes 0.7,1.4 --nodes 1 [--batch 16] [--csv]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let csv = take_flag(&mut args, "--csv");
    let strategy_name = take_value(&mut args, "--strategy").unwrap_or_else(|| "ZeRO-2".into());
    let sizes: Vec<f64> = match take_value(&mut args, "--sizes") {
        Some(raw) => raw
            .split(',')
            .map(|s| parse_billions(s.trim(), "--sizes"))
            .collect(),
        None => vec![0.7, 1.4, 2.9, 5.5],
    };
    let nodes = parse_count(take_value(&mut args, "--nodes"), "--nodes", 1);
    let batch = parse_count(take_value(&mut args, "--batch"), "--batch", 16);
    if let Some(other) = args.first() {
        usage_error(&format!("error: unknown argument {other:?}\n{USAGE}"));
    }
    let opts = TrainOptions {
        per_gpu_batch: batch,
        nodes,
        ..TrainOptions::default()
    };
    let spec = |billions| {
        strategy_by_name(
            &strategy_name,
            GptConfig::paper_model_with_params(billions),
            opts,
        )
        .map(|s| s.with_run(RunConfig::default()))
        .unwrap_or_else(|e| usage_error(&format!("error: {e}")))
    };

    let mut t = Table::new(vec![
        "size B",
        "fits",
        "iter s",
        "TFLOP/s",
        "GPU GB/gpu",
        "NVLink GBps",
        "RoCE GBps",
    ]);
    for &billions in &sizes {
        match spec(billions).execute() {
            Ok(run) => {
                let report = run.report;
                t.row(vec![
                    format!("{billions}"),
                    "yes".into(),
                    format!("{:.3}", report.iter_time.as_secs()),
                    format!("{:.0}", report.throughput_tflops()),
                    format!("{:.0}", report.memory.per_gpu_bytes / 1e9),
                    format!(
                        "{:.1}",
                        report.bandwidth.stats(0, LinkClass::NvLink).avg / 1e9
                    ),
                    format!(
                        "{:.1}",
                        report.bandwidth.stats(0, LinkClass::Roce).avg / 1e9
                    ),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    format!("{billions}"),
                    format!("no ({e})"),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
            }
        }
    }
    if csv {
        print!("{}", t.to_csv());
    } else {
        println!(
            "sweep: {strategy_name} on {nodes} node(s), batch {batch}\n{}",
            t.render()
        );
    }
}
