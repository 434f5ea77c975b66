//! NVMe placement explorer: sweep the drive layouts of the paper's
//! Fig. 14 (Sec. V-E) for a 33 B-parameter ZeRO-Infinity run and find
//! which placement sustains the highest throughput.
//!
//! Run with: `cargo run --release --example nvme_placement [billions]`

use zerosim_core::RunConfig;
use zerosim_hw::LinkClass;
use zerosim_model::GptConfig;
use zerosim_report::{gbps, tflops, Table};

// The experiment harness already knows the seven configurations; reuse it.
use zerosim_bench::data::NvmeConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let billions: f64 = std::env::args()
        .nth(1)
        .map(|a| a.parse())
        .transpose()?
        .unwrap_or(33.3);
    let model = GptConfig::paper_model_with_params(billions);
    println!(
        "ZeRO-Infinity (optimizer on NVMe), {:.1} B parameters, single node\n",
        model.num_params() / 1e9
    );

    let mut t = Table::new(vec![
        "config",
        "drives",
        "volumes",
        "TFLOP/s",
        "PCIe-NVME avg GBps",
        "xGMI avg GBps",
    ]);
    let rc = RunConfig {
        allow_overflow: true,
        ..RunConfig::quick()
    };
    let mut best: Option<(char, f64)> = None;
    for cfg in NvmeConfig::ALL {
        let spec = cfg.spec(cfg.letter().to_string(), false, model, rc);
        let volumes = spec.volumes.len();
        let report = spec.execute()?.report;
        let tput = report.throughput_tflops();
        if best.is_none_or(|(_, b)| tput > b) {
            best = Some((cfg.letter(), tput));
        }
        t.row(vec![
            cfg.letter().to_string(),
            cfg.layout().len().to_string(),
            volumes.to_string(),
            tflops(report.throughput_flops()),
            gbps(report.bandwidth.stats(0, LinkClass::PcieNvme).avg),
            gbps(report.bandwidth.stats(0, LinkClass::Xgmi).avg),
        ]);
    }
    println!("{}", t.render());
    if let Some((letter, tput)) = best {
        println!(
            "best placement: configuration {letter} at {tput:.1} TFLOP/s — populate \
             every slot and keep each rank's volume on its own socket."
        );
    }
    Ok(())
}
