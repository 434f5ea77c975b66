//! Capacity planner: "I need to fine-tune an N-billion-parameter model on
//! this cluster — which configuration fits, and what throughput should I
//! expect?" — the question the paper's Sec. IV/V answers.
//!
//! Run with: `cargo run --release --example capacity_planner -- 11.4`

use zerosim_core::{max_model_size, RunConfig, TrainingSim};
use zerosim_hw::{ClusterSpec, NvmeId};
use zerosim_model::GptConfig;
use zerosim_report::{billions, tflops, Table};
use zerosim_strategies::{InfinityPlacement, Strategy, TrainOptions, ZeroStage};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target: f64 = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(11.4);
    let model = GptConfig::paper_model_with_params(target);
    println!(
        "target: {:.1} B parameters ({} layers)\n",
        model.num_params() / 1e9,
        model.num_layers
    );

    let mut table = Table::new(vec![
        "configuration",
        "nodes",
        "max size B",
        "fits?",
        "TFLOP/s at target",
    ]);

    let candidates: Vec<(Strategy, usize)> = vec![
        (Strategy::Ddp, 1),
        (Strategy::Megatron { tp: 4, pp: 1 }, 1),
        (
            Strategy::Zero {
                stage: ZeroStage::Three,
            },
            1,
        ),
        (Strategy::Megatron { tp: 8, pp: 1 }, 2),
        (
            Strategy::Zero {
                stage: ZeroStage::Three,
            },
            2,
        ),
        (
            Strategy::ZeroOffload {
                stage: ZeroStage::Two,
                offload_params: false,
            },
            1,
        ),
    ];

    for (strategy, nodes) in candidates {
        let mut sim = TrainingSim::new(ClusterSpec::default())?;
        let opts = if nodes == 1 {
            TrainOptions::single_node()
        } else {
            TrainOptions::dual_node()
        };
        let cap = max_model_size(sim.cluster(), &strategy, &opts, sim.calibration())?;
        let (max_b, fits) = match cap {
            Some(c) => (billions(c.params), c.billions() >= target),
            None => ("-".into(), false),
        };
        let tput = if fits {
            let r = sim.run(&strategy, &model, &opts, &RunConfig::quick())?;
            tflops(r.throughput_flops())
        } else {
            "-".into()
        };
        table.row(vec![
            strategy.name(),
            nodes.to_string(),
            max_b,
            if fits { "yes".into() } else { "no".into() },
            tput,
        ]);
    }

    // And the big gun: ZeRO-Infinity on the scratch RAID0.
    let mut sim = TrainingSim::new(ClusterSpec::default())?;
    let vol = sim.cluster_mut().create_volume(vec![
        NvmeId { node: 0, drive: 0 },
        NvmeId { node: 0, drive: 1 },
    ]);
    let strategy = Strategy::ZeroInfinity {
        offload_params: false,
        placement: InfinityPlacement::new(vec![vol]),
    };
    let opts = TrainOptions::single_node();
    let cap = max_model_size(sim.cluster(), &strategy, &opts, sim.calibration())?
        .expect("infinity fits something");
    let fits = cap.billions() >= target;
    let tput = if fits {
        let r = sim.run(&strategy, &model, &opts, &RunConfig::quick())?;
        tflops(r.throughput_flops())
    } else {
        "-".into()
    };
    table.row(vec![
        strategy.name(),
        "1".into(),
        billions(cap.params),
        if fits { "yes".into() } else { "no".into() },
        tput,
    ]);

    println!("{}", table.render());
    println!("(throughput omitted for configurations the target does not fit)");
    Ok(())
}
