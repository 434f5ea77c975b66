//! Extension studies beyond the paper's evaluation — the what-if
//! questions its conclusions raise, answered on the same simulated
//! testbed.

use zerosim_core::{RunConfig, SweepSpec};
use zerosim_hw::{ClusterSpec, LinkClass, NvmeDrivePlacement, NvmeId, VolumeId};
use zerosim_model::GptConfig;
use zerosim_report::{gbps, Table};
use zerosim_strategies::{InfinityPlacement, Strategy, TrainOptions, ZeroStage};

use crate::data::{self, NvmeConfig};

/// The overflow-tolerant quick config most extension sweeps use.
fn overflow_quick() -> RunConfig {
    RunConfig {
        allow_overflow: true,
        ..RunConfig::quick()
    }
}

/// ext1 — Megatron parallelism layout sweep across two nodes.
///
/// The paper runs Megatron dual-node with tensor parallelism spanning the
/// node boundary and observes a collapse. This study asks: would pipeline
/// boundaries across nodes (activations on RoCE instead of per-layer
/// all-reduces) have rescued it?
pub fn ext1_megatron_layouts() -> String {
    let model = GptConfig::paper_model_with_params(11.2);
    let mut t = Table::new(vec![
        "layout (tp x pp x dp)",
        "TFLOP/s",
        "RoCE avg GBps",
        "NVLink avg GBps",
    ]);
    let layouts = [(8, 1), (4, 2), (2, 4), (1, 8), (2, 2), (4, 1)];
    let specs: Vec<SweepSpec> = layouts
        .iter()
        .map(|&(tp, pp)| {
            SweepSpec::new(
                format!("ext1 megatron {tp}x{pp}"),
                Strategy::Megatron { tp, pp },
                model,
                TrainOptions::dual_node(),
            )
            .with_run(overflow_quick())
        })
        .collect();
    for (&(tp, pp), run) in layouts.iter().zip(data::sweep(specs)) {
        let dp = 8 / (tp * pp);
        let report = &run.report;
        t.row(vec![
            format!("{tp} x {pp} x {dp}"),
            format!("{:.0}", report.throughput_tflops()),
            gbps(report.bandwidth.stats(0, LinkClass::Roce).avg),
            gbps(report.bandwidth.stats(0, LinkClass::NvLink).avg),
        ]);
    }
    format!(
        "ext1 — Megatron dual-node layout sweep at 11.2 B (paper used 8x1x1):\n{}\n\
         Pipeline boundaries across the node boundary move only activations\n\
         over RoCE; the paper's TP-spanning configuration is the worst case.\n",
        t.render()
    )
}

/// ext2 — populate all eight NVMe slots (the paper's Sec. V-E
/// recommendation: "If all eight slots are populated, the throughput will
/// potentially be comparable to CPU offload").
pub fn ext2_eight_nvme() -> String {
    let model = GptConfig::paper_model_with_params(33.3);
    let mut t = Table::new(vec!["drives", "volumes", "TFLOP/s", "PCIe-NVME avg GBps"]);
    let run = RunConfig {
        allow_overflow: true,
        warmup_iters: 1,
        measure_iters: 1,
        ..RunConfig::default()
    };
    let d = |i| NvmeId { node: 0, drive: i };
    let drive_counts = [2usize, 4, 8];
    let mut specs: Vec<SweepSpec> = drive_counts
        .iter()
        .map(|&drives| {
            // Drives split evenly; one per-socket volume group per half,
            // affinity-mapped (the paper's recommended layout).
            let half = drives / 2;
            let layout: Vec<NvmeDrivePlacement> = (0..drives)
                .map(|i| NvmeDrivePlacement {
                    socket: if i < half { 0 } else { 1 },
                })
                .collect();
            let v = VolumeId;
            let strategy = Strategy::ZeroInfinity {
                offload_params: false,
                placement: InfinityPlacement::new(vec![v(0), v(0), v(1), v(1)]),
            };
            SweepSpec::new(
                format!("ext2 {drives} drives"),
                strategy,
                model,
                TrainOptions::single_node(),
            )
            .with_cluster(ClusterSpec::default().with_nvme_layout(layout))
            .with_volume((0..half).map(d).collect())
            .with_volume((half..drives).map(d).collect())
            .with_run(run)
        })
        .collect();
    // Reference: CPU offload at the largest size the paper reaches with it.
    specs.push(
        data::spec(
            "ext2 cpu offload",
            data::cpu_offload(ZeroStage::Two),
            GptConfig::paper_model_with_params(12.6),
            1,
            false,
        )
        .with_run(overflow_quick()),
    );
    let mut runs = data::sweep(specs).into_iter().map(|run| run.report);
    for (drives, report) in drive_counts.into_iter().zip(runs.by_ref()) {
        t.row(vec![
            drives.to_string(),
            "2".into(),
            format!("{:.1}", report.throughput_tflops()),
            gbps(report.bandwidth.stats(0, LinkClass::PcieNvme).avg),
        ]);
    }
    let cpu = runs.next().expect("cpu offload reference");
    format!(
        "ext2 — NVMe slot population at 33.3 B (ZeRO-Infinity, optimizer offload):\n{}\n\
         CPU-offload reference (ZeRO-2 at its 12.6 B capacity): {:.1} TFLOP/s.\n\
         The paper's projection holds directionally: eight drives halve the\n\
         gap to CPU offload — while fitting a 2.6x larger model.\n",
        t.render(),
        cpu.throughput_tflops()
    )
}

/// ext3 — the I/O-die contention ablation: what would the cluster do with
/// an ideal (contention-free) crossbar?
pub fn ext3_iod_ablation() -> String {
    let mut ideal = ClusterSpec::default();
    ideal.iod.pcie_pcie = 1e12;
    ideal.iod.pcie_gpu_xgmi = 1e12;
    ideal.iod.xgmi_pcie_io = 1e12;
    ideal.iod.crossing_latency_s = 0.0;

    let mut t = Table::new(vec!["scenario", "as-built RoCE %", "ideal-IOD RoCE %"]);
    for scenario in [
        zerosim_perftest::StressScenario::CpuRoce { cross_socket: true },
        zerosim_perftest::StressScenario::GpuRoce {
            cross_socket: false,
        },
        zerosim_perftest::StressScenario::GpuRoce { cross_socket: true },
    ] {
        let real = zerosim_perftest::stress_test_on(&ClusterSpec::default(), scenario);
        let perfect = zerosim_perftest::stress_test_on(&ideal, scenario);
        t.row(vec![
            scenario.label(),
            format!("{:.0}%", real.roce_fraction * 100.0),
            format!("{:.0}%", perfect.roce_fraction * 100.0),
        ]);
    }

    // And the training-level impact on the worst-affected configuration.
    let model = GptConfig::paper_model_with_params(11.2);
    let specs = [("as built", ClusterSpec::default()), ("ideal IOD", ideal)]
        .into_iter()
        .map(|(name, cluster)| {
            let megatron = Strategy::Megatron { tp: 8, pp: 1 };
            data::spec(format!("ext3 {name}"), megatron, model, 2, false)
                .with_cluster(cluster)
                .with_run(overflow_quick())
        })
        .collect();
    let tput: Vec<f64> = data::sweep(specs)
        .iter()
        .map(|run| run.report.throughput_tflops())
        .collect();
    let (real, perfect) = (tput[0], tput[1]);
    format!(
        "ext3 — EPYC I/O-die SerDes contention ablation:\n{}\n\
         Dual-node Megatron (TP=8): {real:.0} TFLOP/s as built vs \
         {perfect:.0} TFLOP/s with an ideal I/O die — the contention the\n\
         paper hypothesizes costs measurable training throughput, but the\n\
         strategy's communication volume remains the dominant problem.\n",
        t.render()
    )
}

/// ext4 — batch-size sensitivity (the paper notes free GPU memory "can
/// also be used for larger batch sizes, which may improve the throughput",
/// Sec. V-B2).
pub fn ext4_batch_size() -> String {
    let mut t = Table::new(vec!["per-GPU batch", "ZeRO-2 TFLOP/s", "fits?"]);
    let model = GptConfig::paper_model_with_params(2.9);
    // Per-spec execution (not one sweep): a sweep fails as a unit, and
    // this study *wants* the per-batch does-not-fit boundary.
    for batch in [4usize, 8, 16, 32, 64] {
        let opts = TrainOptions {
            per_gpu_batch: batch,
            nodes: 1,
            ..TrainOptions::default()
        };
        let result = SweepSpec::new(
            format!("ext4 batch {batch}"),
            Strategy::Zero {
                stage: ZeroStage::Two,
            },
            model,
            opts,
        )
        .with_run(RunConfig::quick())
        .execute();
        match result {
            Ok(r) => t.row(vec![
                batch.to_string(),
                format!("{:.0}", r.report.throughput_tflops()),
                "yes".into(),
            ]),
            Err(_) => t.row(vec![batch.to_string(), "-".into(), "no".into()]),
        };
    }
    format!(
        "ext4 — batch-size sensitivity (ZeRO-2 at 2.9 B, single node):\n{}\n\
         Throughput rises with batch until activation memory evicts the\n\
         model — the trade the paper alludes to in Sec. V-B2.\n",
        t.render()
    )
}

/// ext5 — NIC generation sweep: how much faster inter-node fabric would
/// Megatron/ZeRO have needed?
pub fn ext5_nic_sweep() -> String {
    let model = GptConfig::paper_model_with_params(11.2);
    let mut t = Table::new(vec!["NIC", "Megatron TP=8 TFLOP/s", "ZeRO-3 TFLOP/s"]);
    let nics = [
        ("100 GbE", 12.5e9),
        ("200 GbE (paper)", 25e9),
        ("400 GbE", 50e9),
    ];
    // Two specs per NIC generation (Megatron, ZeRO-3), one sweep overall.
    let mut specs = Vec::new();
    for (name, gbps_dir) in nics {
        let mut cluster = ClusterSpec::default();
        cluster.bw.roce_dir = 0.93 * gbps_dir;
        for strategy in [
            Strategy::Megatron { tp: 8, pp: 1 },
            Strategy::Zero {
                stage: ZeroStage::Three,
            },
        ] {
            specs.push(
                SweepSpec::new(
                    format!("ext5 {name} {}", strategy.name()),
                    strategy,
                    model,
                    TrainOptions::dual_node(),
                )
                .with_cluster(cluster.clone())
                .with_run(overflow_quick()),
            );
        }
    }
    let mut runs = data::sweep(specs).into_iter();
    for (name, _) in nics {
        let megatron = runs.next().expect("megatron cell");
        let zero3 = runs.next().expect("zero3 cell");
        t.row(vec![
            name.into(),
            format!("{:.0}", megatron.report.throughput_tflops()),
            format!("{:.0}", zero3.report.throughput_tflops()),
        ]);
    }
    format!(
        "ext5 — inter-node fabric generation sweep at 11.2 B (dual node):\n{}\n\
         ZeRO's partitioned collectives are protocol-bound, not wire-bound:\n\
         a faster NIC alone does not close Megatron's gap.\n",
        t.render()
    )
}

/// ext6 — energy efficiency per strategy (the environmental-impact angle
/// of the paper's introduction, quantified).
pub fn ext6_energy() -> String {
    use zerosim_core::PowerModel;
    let power = PowerModel::default();
    let mut t = Table::new(vec![
        "configuration",
        "nodes",
        "TFLOP/s",
        "avg power W",
        "tokens/kJ",
    ]);
    let model = GptConfig::paper_model_with_params(1.4);
    let mut specs: Vec<SweepSpec> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for nodes in [1usize, 2] {
        for (name, strategy) in data::baselines(nodes) {
            names.push(format!("{name} ({nodes}-node)"));
            specs.push(
                data::spec(names.last().unwrap().clone(), strategy, model, nodes, false)
                    .with_run(overflow_quick()),
            );
        }
    }
    names.push("ZeRO-2 (CPU) (1-node)".into());
    specs.push(
        data::spec(
            "ZeRO-2 (CPU) (1-node)",
            Strategy::ZeroOffload {
                stage: ZeroStage::Two,
                offload_params: false,
            },
            model,
            1,
            false,
        )
        .with_run(overflow_quick()),
    );
    let rows: Vec<(String, zerosim_core::TrainingReport)> = names
        .into_iter()
        .zip(data::sweep(specs).into_iter().map(|r| r.report))
        .collect();
    for (name, report) in &rows {
        let e = power.estimate(report, 4);
        t.row(vec![
            name.clone(),
            report.nodes.to_string(),
            format!("{:.0}", report.throughput_tflops()),
            format!("{:.0}", e.avg_power_w()),
            format!("{:.1}", e.tokens_per_joule() * 1000.0),
        ]);
    }
    format!(
        "ext6 — energy efficiency at the 1.4 B model:\n{}\n\
         Dual-node Megatron draws two nodes' power for a fraction of the\n\
         work; CPU offload trades GPU idle time for capacity.\n",
        t.render()
    )
}

/// ext7 — infrastructure cost efficiency (the paper's conclusion that
/// offloading "significantly reduces infrastructure costs", quantified).
pub fn ext7_cost() -> String {
    use zerosim_core::CostModel;
    let cost = CostModel::default();
    let model = GptConfig::paper_model_with_params(11.2);
    let mut t = Table::new(vec![
        "configuration",
        "capital k$",
        "TFLOP/s",
        "TFLOP/s per k$",
    ]);
    let entries: Vec<(&str, Strategy, usize, usize)> = vec![
        (
            "Megatron-LM (2 nodes)",
            Strategy::Megatron { tp: 8, pp: 1 },
            2,
            2,
        ),
        (
            "ZeRO-3 (2 nodes)",
            Strategy::Zero {
                stage: ZeroStage::Three,
            },
            2,
            2,
        ),
        (
            "ZeRO-2 CPU offload (1 node)",
            Strategy::ZeroOffload {
                stage: ZeroStage::Two,
                offload_params: false,
            },
            1,
            2,
        ),
    ];
    let specs = entries
        .iter()
        .map(|(name, strategy, nodes, _)| {
            data::spec(*name, strategy.clone(), model, *nodes, false).with_run(overflow_quick())
        })
        .collect();
    for ((name, _, _, drives), run) in entries.iter().zip(data::sweep(specs)) {
        let report = run.report;
        let c = cost.estimate(&report, 4, *drives);
        t.row(vec![
            (*name).into(),
            format!("{:.0}", c.capital_usd / 1000.0),
            format!("{:.0}", report.throughput_tflops()),
            format!("{:.1}", c.tflops_per_kusd()),
        ]);
    }
    format!(
        "ext7 — cost efficiency at the 11.2 B model:\n{}\n\
         Consolidating onto one node with CPU offload more than doubles the\n\
         throughput bought per dollar versus dual-node Megatron.\n",
        t.render()
    )
}

/// ext8 — horizontal vs vertical scaling, the comparison the paper's
/// abstract frames ("to help compare horizontal and vertical scaling"):
/// grow the cluster outward (more nodes, ZeRO-3) or grow one node inward
/// (CPU/NVMe offload) for the same target model.
pub fn ext8_horizontal_vs_vertical() -> String {
    let model = GptConfig::paper_model_with_params(11.2);
    let mut t = Table::new(vec![
        "approach",
        "nodes",
        "TFLOP/s",
        "GPUs",
        "TFLOP/s per GPU",
    ]);

    // Horizontal: ZeRO-3 over 2 and 4 nodes.
    let zero3 = Strategy::Zero {
        stage: ZeroStage::Three,
    };
    let mut specs: Vec<SweepSpec> = [2usize, 4]
        .into_iter()
        .map(|nodes| {
            data::spec("horizontal: ZeRO-3", zero3.clone(), model, nodes, false)
                .with_cluster(ClusterSpec::default().with_nodes(nodes))
                .with_run(overflow_quick())
        })
        .collect();
    // Vertical: one node with CPU offload, then NVMe offload.
    let cpu = data::cpu_offload(ZeroStage::Two);
    specs.push(
        data::spec("vertical: ZeRO-2 CPU offload", cpu, model, 1, false).with_run(overflow_quick()),
    );
    let nvme_run = RunConfig {
        allow_overflow: true,
        warmup_iters: 1,
        measure_iters: 1,
        ..RunConfig::default()
    };
    specs.push(NvmeConfig::B.spec("vertical: ZeRO-Infinity 2xNVMe", false, model, nvme_run));
    for run in data::sweep(specs) {
        let report = run.report;
        let gpus = report.nodes * 4;
        t.row(vec![
            run.label,
            report.nodes.to_string(),
            format!("{:.0}", report.throughput_tflops()),
            gpus.to_string(),
            format!("{:.0}", report.throughput_tflops() / gpus as f64),
        ]);
    }
    format!(
        "ext8 — horizontal vs vertical scaling at the 11.2 B model:\n{}\n\
         Horizontal scaling pays off only with hierarchical collectives:\n\
         per-rank inter-node volume shrinks as nodes are added, so ZeRO-3's\n\
         per-GPU efficiency holds (and here improves) from 2 to 4 nodes.\n\
         Vertically, a single node with CPU offload still delivers most of\n\
         the 2-node per-GPU throughput at half the hardware — the paper's\n\
         consolidation argument.\n",
        t.render()
    )
}

/// ext9 — gradient accumulation: could larger effective batches have
/// rescued dual-node training on this fabric?
pub fn ext9_grad_accum() -> String {
    let model = GptConfig::paper_model_with_params(1.4);
    let mut t = Table::new(vec![
        "micro-steps",
        "DDP 2-node TFLOP/s",
        "ZeRO-2 2-node TFLOP/s",
        "Megatron TP=8 TFLOP/s",
    ]);
    let accums = [1usize, 2, 4, 8];
    let mut specs = Vec::new();
    for accum in accums {
        let opts = TrainOptions::dual_node().with_grad_accum(accum);
        for strategy in [
            Strategy::Ddp,
            Strategy::Zero {
                stage: ZeroStage::Two,
            },
            Strategy::Megatron { tp: 8, pp: 1 },
        ] {
            specs.push(
                SweepSpec::new(
                    format!("ext9 accum {accum} {}", strategy.name()),
                    strategy,
                    model,
                    opts,
                )
                .with_run(overflow_quick()),
            );
        }
    }
    let mut runs = data::sweep(specs).into_iter();
    for accum in accums {
        let mut cell = || {
            format!(
                "{:.0}",
                runs.next().expect("accum cell").report.throughput_tflops()
            )
        };
        let (ddp, zero2, megatron) = (cell(), cell(), cell());
        t.row(vec![accum.to_string(), ddp, zero2, megatron]);
    }
    format!(
        "ext9 — gradient accumulation on two nodes (1.4 B model):\n{}\n\
         Deferring gradient sync amortizes the weak inter-node link for\n\
         data-parallel strategies; Megatron's per-layer tensor-parallel\n\
         all-reduces cannot be deferred, so accumulation does not save it.\n",
        t.render()
    )
}

/// ext10 — hidden-size sensitivity: how the GEMM-efficiency story changes
/// across the GPT family (the paper fixes h=2048; wider models change the
/// Megatron-vs-DDP gap).
pub fn ext10_hidden_size() -> String {
    use zerosim_model::ModelPreset;
    let mut t = Table::new(vec![
        "model",
        "hidden",
        "params B",
        "DDP TFLOP/s",
        "Megatron TP=4 TFLOP/s",
        "Megatron/DDP",
    ]);
    let mut specs = Vec::new();
    for preset in ModelPreset::ALL {
        let model = preset.config();
        for strategy in [Strategy::Ddp, Strategy::Megatron { tp: 4, pp: 1 }] {
            specs.push(
                data::spec(
                    format!("ext10 {} {}", preset.name(), strategy.name()),
                    strategy,
                    model,
                    1,
                    false,
                )
                .with_run(overflow_quick()),
            );
        }
    }
    let mut runs = data::sweep(specs).into_iter();
    for preset in ModelPreset::ALL {
        let model = preset.config();
        let ddp = runs.next().expect("ddp cell").report.throughput_tflops();
        let megatron = runs
            .next()
            .expect("megatron cell")
            .report
            .throughput_tflops();
        t.row(vec![
            preset.name().into(),
            model.hidden_size.to_string(),
            format!("{:.2}", model.num_params() / 1e9),
            format!("{ddp:.0}"),
            format!("{megatron:.0}"),
            format!("{:.2}", megatron / ddp),
        ]);
    }
    format!(
        "ext10 — hidden-size sensitivity (single node, memory limits ignored):\n{}\n\
         Tensor parallelism slices every GEMM four ways; for narrow models\n\
         the slices fall off the efficiency curve, while at GPT-3 widths the\n\
         Megatron/DDP gap nearly closes — the paper's h=2048 sits in the\n\
         middle of that transition.\n",
        t.render()
    )
}

/// ext12 — the Jean-Zay-style parallelism comparison at cluster scale:
/// `planfind`'s full enumerate → statically-prune → simulate → rank
/// pipeline on wide 14 B / 32 B / 72 B models over NVLink-island pods of
/// 64–128 simulated GPUs. The paper's two-node testbed answers "which
/// strategy"; at pod scale the question becomes "which *placement*" —
/// TP against NVLink, PP across islands, DP over the oversubscribed
/// spine — and the static pass does most of the elimination before a
/// single flow is simulated.
pub fn ext12_jean_zay_scale() -> String {
    use zerosim_core::{search_plans, SearchConfig};
    use zerosim_hw::TopologySpec;

    // 64 GPUs (2 pods x 4 islands), then 128 (4 x 4) with the 72 B
    // model on a 4:1 spine. The grid enumerates fine at 256 GPUs too,
    // but a single 256-GPU survivor simulation costs minutes of
    // flow-solver time on the CI box, so the study stops at 128 —
    // a deliberate cap, not a model limit.
    let cases: [(f64, &str); 3] = [
        (14.0, "pods:2x4x8:2:2"),
        (32.0, "pods:4x4x8:2:2"),
        (72.0, "pods:4x4x8:2:4"),
    ];
    let mut out = String::new();
    for (billions, topo) in cases {
        let topology = TopologySpec::parse(topo).expect("study topology is valid");
        let cfg = SearchConfig::new(topology, GptConfig::wide_model_with_params(billions))
            .with_workers(data::sweep_workers());
        let report = search_plans(&cfg).expect("study topology lowers to a cluster");
        out.push_str(&report.render_text(3));
        out.push('\n');
    }
    format!(
        "ext12 — Jean-Zay-scale parallelism search (wide models, NVLink-island pods):\n\
         {out}\
         Reading: TP stays inside the NVLink island on every surviving\n\
         plan; the winners put DP on the widest (most oversubscribed)\n\
         tier where one gradient all-reduce per step amortizes it. The\n\
         static pass prunes the replication-heavy half of the grid —\n\
         at these scales a simulated survivor costs seconds while a\n\
         pruned candidate costs microseconds. (The search enumerates a\n\
         256-GPU grid just as cheaply, but each surviving simulation\n\
         there costs minutes of solver time, so this artifact caps the\n\
         simulated study at 128 GPUs.)\n"
    )
}

/// ext15 — ZeRO++ on the degrading dual-node RoCE fabric: does quantized
/// / hierarchical communication move the wire-bound -> protocol-bound
/// crossover that ext11 located for plain ZeRO-3?
///
/// Every cell carries two *static* verdicts next to the simulated
/// attainment: planlint ZL004's classification of the hottest RoCE link
/// (protocol-bound while the per-flow engine ceiling binds below the
/// degraded wire, wire-bound once the wire sinks under it) and ZL009's
/// critical-path lower bound on the step time. The static bound must
/// stay below the simulated time in every cell — planlint as predictor,
/// checked against the simulator it predicts.
pub fn ext15_zeropp_roce_degradation() -> String {
    use zerosim_analyzer::{analyze_strategy, LintConfig};
    use zerosim_core::SweepSpec;
    use zerosim_hw::Cluster;
    use zerosim_strategies::Calibration;

    let model = GptConfig::paper_model_with_params(1.4);
    let strategies: Vec<Strategy> = vec![
        Strategy::Zero {
            stage: ZeroStage::Three,
        },
        Strategy::qwz(),
        Strategy::hpz(),
        Strategy::qgz(),
    ];
    let factors = [1.0_f64, 0.5, 0.25, 0.1, 0.05, 0.03];

    // One sweep over the full grid; cells come back in push order.
    let mut specs: Vec<SweepSpec> = Vec::new();
    for &factor in &factors {
        let mut cluster = ClusterSpec::default();
        cluster.bw.roce_dir *= factor;
        for strategy in &strategies {
            specs.push(
                SweepSpec::new(
                    format!("ext15 roce@{factor} {}", strategy.name()),
                    strategy.clone(),
                    model,
                    TrainOptions::dual_node(),
                )
                .with_cluster(cluster.clone())
                .with_run(overflow_quick()),
            );
        }
    }
    let mut runs = data::sweep(specs).into_iter();

    let mut t = Table::new(vec![
        "RoCE",
        "strategy",
        "TFLOP/s",
        "attain",
        "ZL004 roce",
        "ZL009 bound",
        "sim iter",
    ]);
    let mut healthy: Vec<f64> = Vec::new();
    let mut crossover: Vec<Option<f64>> = vec![None; strategies.len()];
    let mut bounds_hold = true;
    for &factor in &factors {
        let mut spec = ClusterSpec::default();
        spec.bw.roce_dir *= factor;
        let cluster = Cluster::new(spec).expect("degraded paper spec is valid");
        for (si, strategy) in strategies.iter().enumerate() {
            let run = runs.next().expect("grid cell");
            let tflops = run.report.throughput_tflops();
            if factor == 1.0 {
                healthy.push(tflops);
            }
            let attain = tflops / healthy[si];
            if attain < 0.9 && crossover[si].is_none() {
                crossover[si] = Some(factor);
            }
            let lint = analyze_strategy(
                &cluster,
                strategy,
                &model,
                &TrainOptions::dual_node(),
                &Calibration::default(),
                LintConfig::new(),
            )
            .expect("ZeRO++ plans lint on the degraded fabric");
            let roce = lint
                .links
                .iter()
                .find(|l| l.name.contains("roce"))
                .map_or("-", |l| l.bound.label());
            let bound = lint.bound.as_ref().expect("ZL009 emitted a bound");
            let sim_s = run.report.iter_time.as_secs();
            bounds_hold &= bound.protocol_s <= sim_s * (1.0 + 1e-9);
            t.row(vec![
                format!("{:.0}%", factor * 100.0),
                strategy.name(),
                format!("{tflops:.1}"),
                format!("{:.0}%", attain * 100.0),
                roce.into(),
                format!("{:.3} s", bound.protocol_s),
                format!("{sim_s:.3} s"),
            ]);
        }
    }
    let mut cross = Table::new(vec!["strategy", "attainment < 90% at"]);
    for (si, strategy) in strategies.iter().enumerate() {
        cross.row(vec![
            strategy.name(),
            crossover[si].map_or("never (in sweep)".into(), |f| {
                format!("RoCE@{:.0}%", f * 100.0)
            }),
        ]);
    }
    format!(
        "ext15 — ZeRO++ under dual-node RoCE degradation at 1.4 B:\n{}\n\
         Crossover (first sweep point losing >10% of healthy throughput):\n{}\n\
         All ZL009 static bounds below simulated iteration time: {}.\n\
         Reading: on the healthy fabric every variant is protocol-bound —\n\
         the per-flow engine ceiling, not the wire, sets the pace (ext5),\n\
         which is why losing three quarters of the wire is free, exactly\n\
         as ext11 found for plain ZeRO-3. ZL004's statically-computed\n\
         verdict flips to wire-bound only once the wire sinks under the\n\
         0.85 GB/s gather ceiling (the 3% row); the simulator starts\n\
         charging for the wire a little earlier, once contention stacks\n\
         flows past it. ZeRO++ shifts where that bind *hurts*: qgZ's\n\
         4x-compressed gradient reduces cut the wire seconds added at\n\
         RoCE@5% roughly in half versus plain ZeRO-3, so it keeps the\n\
         highest attainment of the family once the wire binds. qwZ and\n\
         hpZ lose *relative* attainment sooner only because their healthy\n\
         iteration is ~2x shorter — the same wire exposure is a larger\n\
         fraction of a faster step — yet in absolute TFLOP/s every ZeRO++\n\
         variant stays ahead of plain ZeRO-3 at every degradation point,\n\
         and ZL009's static bound stays below the simulated time in every\n\
         cell while the gap widens exactly where contention (which the\n\
         bound excludes) becomes the binding term.\n",
        t.render(),
        cross.render(),
        if bounds_hold { "yes" } else { "VIOLATED" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn megatron_layout_sweep_prefers_pipeline_across_nodes() {
        let s = ext1_megatron_layouts();
        assert!(s.contains("8 x 1 x 1"));
        assert!(s.contains("4 x 2 x 1"));
    }

    #[test]
    fn eight_drives_approach_cpu_offload() {
        let s = ext2_eight_nvme();
        assert!(s.contains("8"));
        assert!(s.contains("CPU-offload reference"));
    }

    #[test]
    fn iod_ablation_shows_contention_cost() {
        let s = ext3_iod_ablation();
        // Ideal crossbar recovers the same-/cross-socket GPU paths to ~90%+.
        assert!(s.contains("9") && s.contains("%"), "{s}");
    }

    #[test]
    fn zeropp_roce_sweep_reports_bounds_and_crossovers() {
        let s = ext15_zeropp_roce_degradation();
        assert!(s.contains("ZeRO++ (qwZ)"));
        assert!(s.contains("ZeRO++ (qgZ)"));
        assert!(
            s.contains("All ZL009 static bounds below simulated iteration time: yes"),
            "{s}"
        );
        assert!(
            s.contains("protocol"),
            "healthy fabric must be protocol-bound:\n{s}"
        );
        // ZL004 flips once the wire sinks below the 0.85 GB/s gather cap.
        assert!(
            s.contains("wire"),
            "3% row must be statically wire-bound:\n{s}"
        );
    }

    #[test]
    fn batch_sweep_has_fit_boundary() {
        let s = ext4_batch_size();
        assert!(s.contains("yes"));
        assert!(s.contains("no"), "largest batch should not fit:\n{s}");
    }
}
