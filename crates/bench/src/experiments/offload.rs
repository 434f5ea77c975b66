//! Offload experiments: Figs. 11–13 and Table VI (Fig. 14 configs).

use zerosim_core::{CapacityResult, RunConfig, SweepSpec, TrainingReport};
use zerosim_hw::LinkClass;
use zerosim_model::GptConfig;
use zerosim_report::{downsample, gb, gbps, sparkline, Table};
use zerosim_strategies::{Strategy, ZeroStage};

use crate::data::{self, NvmeConfig};

/// The consolidation target: the largest model dual-node Megatron fits.
pub const CONSOLIDATION_BILLIONS: f64 = 11.4;

/// The consolidation runs at 11.4 B, labelled for Figs. 11/12: the
/// dual-node Megatron reference first, then the CPU and NVMe offload
/// configurations.
pub(crate) fn consolidation_specs() -> Vec<SweepSpec> {
    let model = GptConfig::paper_model_with_params(CONSOLIDATION_BILLIONS);
    let cfg = RunConfig {
        allow_overflow: true,
        ..RunConfig::default()
    };
    let megatron = Strategy::Megatron { tp: 8, pp: 1 };
    let mut specs =
        vec![data::spec("Megatron-LM (2 nodes)", megatron, model, 2, true).with_run(cfg)];
    for (name, strategy) in data::offload_strategies() {
        specs.push(data::spec(name, strategy, model, 1, true).with_run(cfg));
    }
    for (nvme, label) in [(NvmeConfig::A, "1xNVME"), (NvmeConfig::B, "2xNVME")] {
        for (what, offload_params) in [("opt", false), ("opt+param", true)] {
            let name = format!("ZeRO-Infinity ({label} {what})");
            specs.push(nvme.spec(name, offload_params, model, cfg));
        }
    }
    specs
}

fn consolidation_rows() -> Vec<(String, TrainingReport)> {
    data::sweep(consolidation_specs())
        .into_iter()
        .map(|run| (run.label, run.report))
        .collect()
}

/// Fig. 11 — throughput and memory when consolidating dual-node training
/// into a single node at 11.4 B parameters.
pub fn fig11() -> String {
    let mut t = Table::new(vec![
        "configuration",
        "TFLOP/s",
        "GPU GB",
        "CPU GB",
        "NVME GB",
        "total GB",
    ]);
    for (name, report) in consolidation_rows() {
        t.row(vec![
            name,
            format!("{:.1}", report.throughput_tflops()),
            gb(report.memory.total_gpu_bytes),
            gb(report.memory.total_cpu_bytes),
            gb(report.memory.nvme_bytes),
            gb(report.memory.total()),
        ]);
    }
    format!(
        "Fig. 11 — consolidating dual-node into single-node at {CONSOLIDATION_BILLIONS} B:\n{}",
        t.render()
    )
}

/// Fig. 12 — utilization patterns for the offload configurations.
pub fn fig12() -> String {
    let mut out = String::from("Fig. 12 — offload utilization patterns (GBps):\n");
    for (name, report) in consolidation_rows().into_iter().skip(1) {
        out.push_str(&format!("{name}:\n"));
        for class in [
            LinkClass::NvLink,
            LinkClass::PcieGpu,
            LinkClass::PcieNvme,
            LinkClass::Xgmi,
            LinkClass::Dram,
        ] {
            let series = report.bandwidth.tiled_series(0, class, 10.0);
            let stats = report.bandwidth.stats(0, class);
            out.push_str(&format!(
                "  {class:<10} {}  avg {} / peak {}\n",
                sparkline(&downsample(&series, 50), None),
                gbps(stats.avg),
                gbps(stats.peak),
            ));
        }
    }
    out
}

/// Fig. 13 — largest single-node model with offloading: size, throughput,
/// memory.
pub fn fig13() -> String {
    let mut t = Table::new(vec![
        "configuration",
        "size B",
        "paper B",
        "TFLOP/s",
        "paper",
        "GPU GB",
        "CPU GB",
        "NVME GB",
    ]);
    let any = GptConfig::paper_model(1);
    let (caps, specs): (Vec<CapacityResult>, Vec<SweepSpec>) = [
        data::spec(
            "ZeRO-1 (CPU)",
            data::cpu_offload(ZeroStage::One),
            any,
            1,
            false,
        ),
        data::spec(
            "ZeRO-2 (CPU)",
            data::cpu_offload(ZeroStage::Two),
            any,
            1,
            false,
        ),
        NvmeConfig::B.spec("ZeRO-3 (2xNVME)", false, any, RunConfig::quick()),
    ]
    .into_iter()
    .map(data::at_capacity)
    .unzip();
    let paper = [(8.9, 155.3), (14.2, 180.2), (33.3, 37.2)];
    for ((run, cap), (paper_b, paper_t)) in data::sweep(specs).into_iter().zip(caps).zip(paper) {
        let report = run.report;
        t.row(vec![
            run.label,
            format!("{:.1}", cap.billions()),
            format!("{paper_b:.1}"),
            format!("{:.1}", report.throughput_tflops()),
            format!("{paper_t:.1}"),
            gb(report.memory.total_gpu_bytes),
            gb(report.memory.total_cpu_bytes),
            gb(report.memory.nvme_bytes),
        ]);
    }
    format!(
        "Fig. 13 — largest single-node models with ZeRO-Offload / ZeRO-Infinity:\n{}",
        t.render()
    )
}

/// Paper Table VI reference throughputs for configs A–G.
pub const PAPER_TABLE6: [f64; 7] = [19.6, 37.16, 35.43, 40.22, 51.22, 64.61, 65.16];

/// The Table VI runs: ZeRO-Infinity (optimizer offload) at 33.3 B on
/// each NVMe placement, in configuration order.
pub fn table6_specs() -> Vec<SweepSpec> {
    let model = GptConfig::paper_model_with_params(33.3);
    let run = RunConfig {
        allow_overflow: true,
        warmup_iters: 1,
        measure_iters: 1,
        ..RunConfig::default()
    };
    NvmeConfig::ALL
        .into_iter()
        .map(|cfg| cfg.spec(format!("table6 config {}", cfg.letter()), false, model, run))
        .collect()
}

/// Table VI — ZeRO-Infinity vs NVMe data placement (Fig. 14 configs A–G)
/// at the 33.3 B model.
pub fn table6() -> String {
    let mut t = Table::new(vec![
        "config",
        "TFLOP/s",
        "paper",
        "xGMI avg",
        "xGMI 90th",
        "xGMI peak",
        "PCIe-NVME avg",
        "PCIe-NVME 90th",
        "PCIe-NVME peak",
    ]);
    let runs = data::sweep(table6_specs());
    for ((cfg, run), paper) in NvmeConfig::ALL.into_iter().zip(runs).zip(PAPER_TABLE6) {
        let report = run.report;
        let xgmi = report.bandwidth.stats(0, LinkClass::Xgmi);
        let nvme = report.bandwidth.stats(0, LinkClass::PcieNvme);
        t.row(vec![
            cfg.letter().to_string(),
            format!("{:.1}", report.throughput_tflops()),
            format!("{paper:.1}"),
            gbps(xgmi.avg),
            gbps(xgmi.p90),
            gbps(xgmi.peak),
            gbps(nvme.avg),
            gbps(nvme.p90),
            gbps(nvme.peak),
        ]);
    }
    format!(
        "Table VI / Fig. 14 — ZeRO-Infinity vs NVMe placement (33.3 B model):\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidation_beats_dual_megatron() {
        let rows = consolidation_rows();
        let megatron = rows[0].1.throughput_tflops();
        let z2_cpu = rows[1].1.throughput_tflops();
        let z3_cpu = rows[2].1.throughput_tflops();
        // Sec. V-A1: ZeRO-2 CPU offload beats dual-node Megatron; ZeRO-3
        // offload is slower than ZeRO-2 offload but comparable to Megatron.
        assert!(z2_cpu > megatron, "z2-cpu {z2_cpu} vs megatron {megatron}");
        assert!(z3_cpu < z2_cpu, "z3-cpu {z3_cpu} < z2-cpu {z2_cpu}");
    }

    #[test]
    fn second_drive_improves_infinity_throughput() {
        let rows = consolidation_rows();
        let one = rows
            .iter()
            .find(|(n, _)| n.contains("1xNVME opt)"))
            .map(|(_, r)| r.throughput_tflops())
            .unwrap();
        let two = rows
            .iter()
            .find(|(n, _)| n.contains("2xNVME opt)"))
            .map(|(_, r)| r.throughput_tflops())
            .unwrap();
        assert!(two > 1.4 * one, "2xNVME {two} vs 1xNVME {one}");
    }

    #[test]
    fn nvme_placement_ordering_matches_table6() {
        let model = GptConfig::paper_model_with_params(33.3);
        let rc = RunConfig {
            allow_overflow: true,
            ..RunConfig::quick()
        };
        let configs = [NvmeConfig::A, NvmeConfig::B, NvmeConfig::E, NvmeConfig::G];
        let specs = configs
            .iter()
            .map(|cfg| cfg.spec(cfg.letter().to_string(), false, model, rc))
            .collect();
        let tput: Vec<f64> = data::sweep(specs)
            .iter()
            .map(|run| run.report.throughput_tflops())
            .collect();
        let [a, b, e, g] = tput[..] else {
            panic!("four placements, four runs");
        };
        assert!(b > 1.4 * a, "two drives {b} vs one {a}");
        assert!(e > b, "four drives {e} vs two {b}");
        // Paper has G beating E (RAID spanning sockets pays xGMI costs we
        // only partially model); require G to at least stay close.
        assert!(
            g >= e * 0.9,
            "affinity-aware G {g} at least stays near E {e}"
        );
    }
}
