//! Ad-hoc parameter sweeps over the simulated cluster.
//!
//! Usage:
//! `sweep --strategy zero2 --sizes 0.7,1.4,2.9 --nodes 1 [--batch 16] [--csv]`
//!
//! Strategies: ddp, megatron, zero1, zero2, zero3, zero1-cpu, zero2-cpu,
//! zero3-cpu, infinity.

use zerosim_bench::cli::strategy_by_name;
use zerosim_core::{RunConfig, TrainingSim};
use zerosim_hw::{ClusterSpec, LinkClass};
use zerosim_model::GptConfig;
use zerosim_report::Table;
use zerosim_strategies::TrainOptions;

struct Args {
    strategy: String,
    sizes: Vec<f64>,
    nodes: usize,
    batch: usize,
    csv: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut strategy = "zero2".to_string();
    let mut sizes = vec![0.7, 1.4, 2.9, 5.5];
    let mut nodes = 1usize;
    let mut batch = 16usize;
    let mut csv = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> Result<&String, String> {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--strategy" => {
                strategy = need(i)?.clone();
                i += 2;
            }
            "--sizes" => {
                sizes = need(i)?
                    .split(',')
                    .map(|s| s.trim().parse::<f64>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--nodes" => {
                nodes = need(i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?;
                i += 2;
            }
            "--batch" => {
                batch = need(i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?;
                i += 2;
            }
            "--csv" => {
                csv = true;
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        strategy,
        sizes,
        nodes,
        batch,
        csv,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: sweep --strategy <name> --sizes 0.7,1.4 --nodes 1 [--batch 16] [--csv]"
            );
            std::process::exit(2);
        }
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
    for &billions in &args.sizes {
        let mut sim = TrainingSim::new(ClusterSpec::default()).expect("default spec");
        let strategy = match strategy_by_name(&args.strategy, args.nodes, &mut sim) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let opts = TrainOptions {
            per_gpu_batch: args.batch,
            nodes: args.nodes,
            ..TrainOptions::default()
        };
        let model = GptConfig::paper_model_with_params(billions);
        match sim.run(&strategy, &model, &opts, &RunConfig::default()) {
            Ok(report) => {
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
    if args.csv {
        print!("{}", t.to_csv());
    } else {
        println!(
            "sweep: {} on {} node(s), batch {}\n{}",
            args.strategy,
            args.nodes,
            args.batch,
            t.render()
        );
    }
}
