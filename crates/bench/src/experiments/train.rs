//! Training characterization experiments: Figs. 5–10, Tables IV and V.

use zerosim_core::{profile_tracks, RunConfig, SweepRun, SweepSpec, TrainingReport};
use zerosim_hw::LinkClass;
use zerosim_model::GptConfig;
use zerosim_report::{downsample, gbps, scatter, sparkline, Table};
use zerosim_strategies::ZeroStage;

use crate::data::{self, NvmeConfig};
use crate::experiments::offload;

/// Paper reference values (Fig. 6): achieved model size in billions.
pub const PAPER_CAPACITY: [(&str, f64, f64); 5] = [
    ("PyTorch DDP", 1.4, 1.4),
    ("Megatron-LM", 5.5, 11.4),
    ("ZeRO-1", 4.4, 6.4),
    ("ZeRO-2", 5.2, 8.5),
    ("ZeRO-3", 6.6, 13.5),
];

/// Paper reference values (Fig. 7): throughput in TFLOP/s at max size.
pub const PAPER_THROUGHPUT: [(&str, f64, f64); 5] = [
    ("PyTorch DDP", 438.0, 640.0),
    ("Megatron-LM", 331.0, 121.0),
    ("ZeRO-1", 391.0, 395.0),
    ("ZeRO-2", 524.0, 424.0),
    ("ZeRO-3", 381.0, 458.0),
];

/// The nine configurations of Fig. 5, all at the 1.4 B model, labelled
/// with their figure names.
fn fig5_specs() -> Vec<SweepSpec> {
    let model = GptConfig::paper_model_with_params(1.4);
    let run = RunConfig {
        allow_overflow: true,
        ..RunConfig::quick()
    };
    let mut specs: Vec<SweepSpec> = data::baselines(1)
        .into_iter()
        .chain([
            ("ZeRO-1 (CPU opt)", data::cpu_offload(ZeroStage::One)),
            ("ZeRO-2 (CPU opt)", data::cpu_offload(ZeroStage::Two)),
        ])
        .map(|(name, strategy)| data::spec(name, strategy, model, 1, false).with_run(run))
        .collect();
    let nvme_run = RunConfig {
        warmup_iters: 3,
        allow_overflow: true,
        ..RunConfig::default()
    };
    for (name, offload_params) in [
        ("ZeRO-3 (2xNVME opt)", false),
        ("ZeRO-3 (2xNVME opt+param)", true),
    ] {
        specs.push(NvmeConfig::B.spec(name, offload_params, model, nvme_run));
    }
    specs
}

/// Fig. 5 — single-iteration characterization of all nine configurations
/// at 1.4 B parameters: iteration time plus GPU-0 busy breakdown.
pub fn fig5() -> String {
    let mut t = Table::new(vec![
        "configuration",
        "iter time",
        "gemm %",
        "elementwise %",
        "nccl %",
        "staging %",
        "idle %",
    ]);
    for SweepRun { label, report, .. } in data::sweep(fig5_specs()) {
        let profiles = profile_tracks(&report.spans);
        let gpu0 = profiles.iter().find(|p| p.track == 0);
        let (gemm, ew, nccl, staging, idle) = match gpu0 {
            Some(p) => {
                let ext = p.extent.as_secs().max(1e-12);
                let pct = |s: f64| 100.0 * s / ext;
                let nccl_s: f64 = ["allreduce", "allgather", "reducescatter"]
                    .iter()
                    .map(|l| p.label_time(l).as_secs())
                    .sum();
                let staging_s: f64 = ["h2d", "d2h", "nvme_read", "nvme_write"]
                    .iter()
                    .map(|l| p.label_time(l).as_secs())
                    .sum();
                let compute_s = p.label_time("gemm").as_secs()
                    + p.label_time("elementwise").as_secs()
                    + p.label_time("weight_update").as_secs()
                    + p.label_time("transform").as_secs();
                // Comm/staging run on separate streams and overlap compute;
                // GPU idle is what neither compute nor an exposed (serial)
                // stall covers.
                let idle =
                    (100.0 - pct(compute_s) - pct(nccl_s).min(100.0 - pct(compute_s))).max(0.0);
                (
                    pct(p.label_time("gemm").as_secs()),
                    pct(p.label_time("elementwise").as_secs()),
                    pct(nccl_s),
                    pct(staging_s),
                    idle,
                )
            }
            None => (0.0, 0.0, 0.0, 0.0, 100.0),
        };
        t.row(vec![
            label,
            format!("{}", report.iter_time),
            format!("{gemm:.1}"),
            format!("{ew:.1}"),
            format!("{nccl:.1}"),
            format!("{staging:.1}"),
            format!("{idle:.1}"),
        ]);
    }
    format!(
        "Fig. 5 — single-iteration timeline characterization (1.4 B model, single node):\n{}",
        t.render()
    )
}

/// Fig. 6 — achieved model size for single- and dual-node training.
pub fn fig6() -> String {
    let mut t = Table::new(vec![
        "configuration",
        "1-node B",
        "paper",
        "2-node B",
        "paper",
    ]);
    let dual = data::baselines(2);
    for (i, ((name, single), (_, dual))) in data::baselines(1).iter().zip(&dual).enumerate() {
        t.row(vec![
            (*name).into(),
            format!("{:.1}", data::capacity(single, 1).billions()),
            format!("{:.1}", PAPER_CAPACITY[i].1),
            format!("{:.1}", data::capacity(dual, 2).billions()),
            format!("{:.1}", PAPER_CAPACITY[i].2),
        ]);
    }
    format!(
        "Fig. 6 — achieved model size (billions of parameters):\n{}",
        t.render()
    )
}

/// The five baselines on `nodes` nodes, each at its own capacity (quick
/// single-iteration measurement unless `thorough`).
pub fn baseline_specs(nodes: usize, thorough: bool) -> Vec<SweepSpec> {
    data::baselines(nodes)
        .into_iter()
        .map(|(name, strategy)| {
            let spec = data::spec(name, strategy, GptConfig::paper_model(1), nodes, thorough);
            data::at_capacity(spec).1
        })
        .collect()
}

/// Runs the five baselines at their capacity for `nodes` nodes.
pub fn baseline_reports(nodes: usize, thorough: bool) -> Vec<(String, TrainingReport)> {
    data::sweep(baseline_specs(nodes, thorough))
        .into_iter()
        .map(|run| (run.label, run.report))
        .collect()
}

/// Fig. 7 — compute throughput at max model size.
pub fn fig7() -> String {
    let mut t = Table::new(vec![
        "configuration",
        "1-node TFLOP/s",
        "paper",
        "2-node TFLOP/s",
        "paper",
    ]);
    let single = baseline_reports(1, false);
    let dual = baseline_reports(2, false);
    for (i, ((name, s), (_, d))) in single.iter().zip(&dual).enumerate() {
        t.row(vec![
            name.clone(),
            format!("{:.0}", s.throughput_tflops()),
            format!("{:.0}", PAPER_THROUGHPUT[i].1),
            format!("{:.0}", d.throughput_tflops()),
            format!("{:.0}", PAPER_THROUGHPUT[i].2),
        ]);
    }
    format!(
        "Fig. 7 — compute throughput at max model size:\n{}",
        t.render()
    )
}

/// Fig. 8 — throughput vs model-size trade-off scatter.
pub fn fig8() -> String {
    let mut out = String::new();
    for nodes in [1, 2] {
        let reports = baseline_reports(nodes, false);
        let pts: Vec<(f64, f64, &str)> = reports
            .iter()
            .map(|(name, r)| (r.model_billions(), r.throughput_tflops(), name.as_str()))
            .collect();
        out.push_str(&format!(
            "Fig. 8-{} — trade-off, {}-node (x: size B, y: TFLOP/s):\n{}\n",
            if nodes == 1 { 'a' } else { 'b' },
            nodes,
            scatter(&pts, 48, 12)
        ));
    }
    out
}

/// Fig. 9 — NVLink utilization pattern for single-node training.
pub fn fig9() -> String {
    let mut out = String::from("Fig. 9 — NVLink utilization pattern (single node, GBps):\n");
    for (name, report) in baseline_reports(1, true) {
        let series = report.bandwidth.tiled_series(0, LinkClass::NvLink, 10.0);
        let stats = report.bandwidth.stats(0, LinkClass::NvLink);
        out.push_str(&format!(
            "{name:<14} {}  avg {} / peak {}\n",
            sparkline(&downsample(&series, 60), Some(300e9)),
            gbps(stats.avg),
            gbps(stats.peak),
        ));
    }
    out
}

/// Fig. 10 — dual-node utilization patterns for NVLink, PCIe-GPU,
/// PCIe-NIC, and RoCE.
pub fn fig10() -> String {
    let mut out = String::from("Fig. 10 — dual-node utilization patterns (GBps):\n");
    let reports = baseline_reports(2, true);
    for class in [
        LinkClass::NvLink,
        LinkClass::PcieGpu,
        LinkClass::PcieNic,
        LinkClass::Roce,
    ] {
        out.push_str(&format!("{class}:\n"));
        for (name, report) in &reports {
            let series = report.bandwidth.tiled_series(0, class, 10.0);
            let stats = report.bandwidth.stats(0, class);
            out.push_str(&format!(
                "  {name:<14} {}  avg {} / peak {}\n",
                sparkline(&downsample(&series, 60), None),
                gbps(stats.avg),
                gbps(stats.peak),
            ));
        }
    }
    out
}

/// One titled Table IV section: node-0 avg/p90/peak per link class for
/// each named report.
fn table4_section<'a>(
    title: &str,
    rows: impl IntoIterator<Item = (&'a str, &'a TrainingReport)>,
) -> String {
    let mut headers = vec!["configuration".to_string()];
    for class in LinkClass::TABLE_IV {
        for stat in ["avg", "90th", "peak"] {
            headers.push(format!("{class} {stat}"));
        }
    }
    let mut t = Table::new(headers);
    for (name, report) in rows {
        let mut cells = vec![name.to_string()];
        for class in LinkClass::TABLE_IV {
            let s = report.bandwidth.stats(0, class);
            cells.push(gbps(s.avg));
            cells.push(gbps(s.p90));
            cells.push(gbps(s.peak));
        }
        t.row(cells);
    }
    format!("\n[{title}]\n{}", t.render())
}

fn named(runs: &[SweepRun]) -> impl Iterator<Item = (&str, &TrainingReport)> {
    runs.iter().map(|run| (run.label.as_str(), &run.report))
}

/// Table IV — bandwidth utilization for every configuration section.
pub fn table4() -> String {
    let mut out =
        String::from("Table IV — bandwidth utilization (GBps, node-0 aggregate bidirectional):\n");
    for (title, nodes) in [("Single node", 1), ("Dual nodes", 2)] {
        let runs = data::sweep(baseline_specs(nodes, true));
        out.push_str(&table4_section(title, named(&runs)));
    }

    // Consolidation rows at the 11.4 B model (Sec. V-A / V-B): the runs of
    // Fig. 11 after its dual-node Megatron reference.
    let consolidation = data::sweep(offload::consolidation_specs().split_off(1));
    out.push_str(&table4_section(
        "Consolidate dual → single with ZeRO-Offload (CPU optimizer), 11.4 B",
        named(&consolidation[..2]),
    ));
    for (label, runs) in [
        ("1 x NVME", &consolidation[2..4]),
        ("2 x NVME", &consolidation[4..6]),
    ] {
        out.push_str(&table4_section(
            &format!("Consolidate dual → single with ZeRO-Infinity ({label}), 11.4 B"),
            ["Optimizer", "Optimizer & Parameter"]
                .into_iter()
                .zip(runs.iter().map(|run| &run.report)),
        ));
    }

    // Largest single-node model per offload configuration (Sec. V-C rows).
    let any = GptConfig::paper_model(1);
    let nvme_run = RunConfig {
        warmup_iters: 1,
        measure_iters: 1,
        ..RunConfig::default()
    };
    let largest = data::sweep(
        [
            data::spec(
                "ZeRO-1 (CPU)",
                data::cpu_offload(ZeroStage::One),
                any,
                1,
                true,
            ),
            data::spec(
                "ZeRO-2 (CPU)",
                data::cpu_offload(ZeroStage::Two),
                any,
                1,
                true,
            ),
            NvmeConfig::B.spec("ZeRO-3 (2 x NVME)", false, any, nvme_run),
        ]
        .into_iter()
        .map(|spec| data::at_capacity(spec).1)
        .collect(),
    );
    out.push_str(&table4_section(
        "Largest model for single node with ZeRO-Offload / ZeRO-Infinity",
        named(&largest),
    ));

    out
}

/// The model sizes of Table V (billions).
pub const TABLE5_SIZES: [f64; 15] = [
    0.7, 1.4, 2.9, 4.4, 5.2, 5.5, 6.0, 6.6, 7.8, 8.9, 11.6, 14.2, 20.6, 26.9, 33.3,
];

/// Table V — throughput sensitivity to model size.
pub fn table5() -> String {
    let mut headers = vec!["configuration".to_string()];
    headers.extend(TABLE5_SIZES.iter().map(|s| format!("{s}")));
    let mut t = Table::new(headers);

    // One row per configuration, one spec per size; a size that does not
    // fit leaves its cell blank.
    let mut row = |name: &str, spec_at: &dyn Fn(GptConfig) -> SweepSpec| {
        let specs = TABLE5_SIZES
            .iter()
            .map(|&b| spec_at(GptConfig::paper_model_with_params(b)))
            .collect();
        let mut cells = vec![name.to_string()];
        for outcome in data::runner().run_each(specs) {
            let tput = outcome.map(|run| format!("{:.0}", run.report.throughput_tflops()));
            cells.push(tput.unwrap_or_default());
        }
        t.row(cells);
    };
    let mut configs = data::baselines(1);
    configs.push(("ZeRO-1 (CPU)", data::cpu_offload(ZeroStage::One)));
    configs.push(("ZeRO-2 (CPU)", data::cpu_offload(ZeroStage::Two)));
    for (name, strategy) in configs {
        row(name, &|model| {
            data::spec(name, strategy.clone(), model, 1, false)
        });
    }
    // NVMe runs need several iterations to drain the drives' DRAM caches
    // into steady state.
    let nvme_run = RunConfig {
        warmup_iters: 4,
        measure_iters: 2,
        ..RunConfig::default()
    };
    let name = "ZeRO-3 (2xNVME)";
    row(name, &|model| {
        NvmeConfig::B.spec(name, false, model, nvme_run)
    });
    format!(
        "Table V — throughput (TFLOP/s) vs model size (billions), single node:\n{}",
        t.render()
    )
}

/// Quick sanity entry points used by tests.
pub mod checks {
    use super::*;

    /// Dual-node Megatron collapses relative to ZeRO (Sec. IV-C2).
    pub fn dual_node_megatron_collapses() -> bool {
        let reports = baseline_reports(2, false);
        let megatron = reports[1].1.throughput_tflops();
        let z3 = reports[4].1.throughput_tflops();
        megatron < 0.5 * z3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_capacities_render_with_paper_columns() {
        let s = fig6();
        assert!(s.contains("ZeRO-3"));
        assert!(s.contains("11.4"), "{s}");
    }

    #[test]
    fn fig7_ordering_matches_paper_shapes() {
        let single = baseline_reports(1, false);
        let by_name = |n: &str| {
            single
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, r)| r.throughput_tflops())
                .unwrap()
        };
        let ddp = by_name("PyTorch DDP");
        let megatron = by_name("Megatron-LM");
        let z2 = by_name("ZeRO-2");
        let z3 = by_name("ZeRO-3");
        // Fig. 7-a: Megatron is the slowest baseline; ZeRO-2 beats ZeRO-3.
        assert!(megatron < ddp, "megatron {megatron} < ddp {ddp}");
        assert!(megatron < z3, "megatron {megatron} < z3 {z3}");
        assert!(z2 > z3, "z2 {z2} > z3 {z3}");
    }

    #[test]
    fn dual_node_megatron_collapse() {
        assert!(checks::dual_node_megatron_collapses());
    }

    #[test]
    fn fig5_covers_nine_configs() {
        let s = fig5();
        for name in [
            "PyTorch DDP",
            "Megatron-LM",
            "ZeRO-1",
            "ZeRO-2",
            "ZeRO-3",
            "ZeRO-1 (CPU opt)",
            "ZeRO-2 (CPU opt)",
            "ZeRO-3 (2xNVME opt)",
            "ZeRO-3 (2xNVME opt+param)",
        ] {
            assert!(s.contains(name), "missing {name} in:\n{s}");
        }
    }
}
