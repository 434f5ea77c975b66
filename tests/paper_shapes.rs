//! Integration tests asserting the paper's headline findings hold in the
//! simulation — who wins, by roughly what factor, where crossovers fall.
//!
//! Triage note (hermetic-build PR): the ROADMAP's "seed tests failing"
//! was the workspace failing to *resolve registry dependencies* — the
//! suite below never compiled. With the in-house `zerosim-testkit`
//! substrate the workspace builds offline and every test in this file
//! passes unmodified against the paper's tables/figures; no expectation
//! needed correction.

use zerosim_core::{max_model_size, RunConfig, TrainingSim};
use zerosim_hw::{ClusterSpec, LinkClass};
use zerosim_model::GptConfig;
use zerosim_perftest::{stress_test, StressScenario};
use zerosim_strategies::{IterCtx, Strategy, StrategyPlan, TrainOptions, ZeroStage};

fn capacity_b(strategy: &Strategy, nodes: usize) -> f64 {
    let sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    let opts = if nodes == 1 {
        TrainOptions::single_node()
    } else {
        TrainOptions::dual_node()
    };
    max_model_size(sim.cluster(), strategy, &opts, sim.calibration())
        .unwrap()
        .unwrap()
        .billions()
}

fn throughput_at_capacity(strategy: &Strategy, nodes: usize) -> f64 {
    let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    let opts = if nodes == 1 {
        TrainOptions::single_node()
    } else {
        TrainOptions::dual_node()
    };
    let cap = max_model_size(sim.cluster(), strategy, &opts, sim.calibration())
        .unwrap()
        .unwrap();
    let model = GptConfig::paper_model(cap.num_layers);
    sim.run(strategy, &model, &opts, &RunConfig::quick())
        .unwrap()
        .throughput_tflops()
}

#[test]
fn megatron_fits_4x_ddp_single_node() {
    // Abstract: "Megatron-LM can fit a 4x larger model than the DDP".
    let ddp = capacity_b(&Strategy::Ddp, 1);
    let megatron = capacity_b(&Strategy::Megatron { tp: 4, pp: 1 }, 1);
    let ratio = megatron / ddp;
    assert!(
        (3.0..5.5).contains(&ratio),
        "Megatron/DDP capacity {ratio:.2}x"
    );
}

#[test]
fn megatron_fits_8x_ddp_dual_node() {
    // Sec. IV-B2: "eight times larger than DDP" across two nodes.
    let ddp = capacity_b(&Strategy::Ddp, 2);
    let megatron = capacity_b(&Strategy::Megatron { tp: 8, pp: 1 }, 2);
    let ratio = megatron / ddp;
    assert!((6.0..10.0).contains(&ratio), "ratio {ratio:.2}x");
}

#[test]
fn zero3_fits_about_20_percent_more_than_megatron() {
    // Fig. 6: ZeRO-3 handles ~1.2x Megatron in both regimes.
    for nodes in [1, 2] {
        let tp = 4 * nodes;
        let megatron = capacity_b(&Strategy::Megatron { tp, pp: 1 }, nodes);
        let z3 = capacity_b(
            &Strategy::Zero {
                stage: ZeroStage::Three,
            },
            nodes,
        );
        let ratio = z3 / megatron;
        assert!(
            (1.05..1.45).contains(&ratio),
            "{nodes}-node ZeRO-3/Megatron capacity {ratio:.2}x"
        );
    }
}

#[test]
fn dual_node_megatron_throughput_collapses() {
    // Abstract: dual-node Megatron achieves only 25–30% of ZeRO's
    // throughput due to excessive inter-node communication.
    let megatron = throughput_at_capacity(&Strategy::Megatron { tp: 8, pp: 1 }, 2);
    let z3 = throughput_at_capacity(
        &Strategy::Zero {
            stage: ZeroStage::Three,
        },
        2,
    );
    let frac = megatron / z3;
    assert!(
        frac < 0.45,
        "Megatron reaches {frac:.2} of ZeRO-3 dual-node"
    );
    // And it loses throughput outright moving from one node to two.
    let single = throughput_at_capacity(&Strategy::Megatron { tp: 4, pp: 1 }, 1);
    assert!(
        megatron < 0.6 * single,
        "dual {megatron:.0} vs single {single:.0}"
    );
}

#[test]
fn ddp_wins_dual_node_throughput() {
    // Fig. 7-b ordering: DDP > ZeRO-3 > ZeRO-2 > ZeRO-1 >> Megatron.
    let ddp = throughput_at_capacity(&Strategy::Ddp, 2);
    let z1 = throughput_at_capacity(
        &Strategy::Zero {
            stage: ZeroStage::One,
        },
        2,
    );
    let z2 = throughput_at_capacity(
        &Strategy::Zero {
            stage: ZeroStage::Two,
        },
        2,
    );
    let z3 = throughput_at_capacity(
        &Strategy::Zero {
            stage: ZeroStage::Three,
        },
        2,
    );
    let megatron = throughput_at_capacity(&Strategy::Megatron { tp: 8, pp: 1 }, 2);
    assert!(ddp > z3, "ddp {ddp:.0} > z3 {z3:.0}");
    assert!(z3 > z2, "z3 {z3:.0} > z2 {z2:.0}");
    assert!(z2 > z1, "z2 {z2:.0} > z1 {z1:.0}");
    assert!(z1 > 2.0 * megatron, "z1 {z1:.0} >> megatron {megatron:.0}");
}

#[test]
fn zero2_beats_ddp_throughput_single_node() {
    // Fig. 8-a sweet spot: ZeRO-2 tops single-node throughput while
    // fitting a Megatron-class model.
    let ddp = throughput_at_capacity(&Strategy::Ddp, 1);
    let z2 = throughput_at_capacity(
        &Strategy::Zero {
            stage: ZeroStage::Two,
        },
        1,
    );
    assert!(z2 > ddp, "z2 {z2:.0} > ddp {ddp:.0}");
}

#[test]
fn cpu_offload_consolidates_dual_node() {
    // Sec. V-A1: ZeRO-2 CPU offload fits dual-node Megatron's 11.4 B model
    // on one node with ~1.58x its throughput.
    let model = GptConfig::paper_model_with_params(11.4);
    let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    // Our Megatron capacity lands at 11.2 B (paper: 11.4); allow the 2%
    // overflow for this reference measurement.
    let overflow = RunConfig {
        allow_overflow: true,
        ..RunConfig::quick()
    };
    let megatron = sim
        .run(
            &Strategy::Megatron { tp: 8, pp: 1 },
            &model,
            &TrainOptions::dual_node(),
            &overflow,
        )
        .unwrap()
        .throughput_tflops();

    let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    let offload = Strategy::ZeroOffload {
        stage: ZeroStage::Two,
        offload_params: false,
    };
    let plan = offload
        .plan_memory(&IterCtx {
            cluster: sim.cluster(),
            model: &model,
            opts: &TrainOptions::single_node(),
            calib: sim.calibration(),
        })
        .unwrap();
    assert!(plan.fits(sim.cluster()), "11.4B must fit with CPU offload");
    let z2_cpu = sim
        .run(
            &offload,
            &model,
            &TrainOptions::single_node(),
            &RunConfig::quick(),
        )
        .unwrap()
        .throughput_tflops();
    let ratio = z2_cpu / megatron;
    assert!(
        (1.2..2.1).contains(&ratio),
        "consolidation speedup {ratio:.2}x (paper: 1.578x)"
    );
}

#[test]
fn zero_infinity_fits_6x_megatron_single_node() {
    // Abstract: "fit a model six times larger than previously possible in
    // single node" with NVMe offload.
    let megatron = capacity_b(&Strategy::Megatron { tp: 4, pp: 1 }, 1);
    let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    let d = |drive| zerosim_hw::NvmeId { node: 0, drive };
    let vol = sim.cluster_mut().create_volume(vec![d(0), d(1)]);
    let strategy = Strategy::ZeroInfinity {
        offload_params: false,
        placement: zerosim_strategies::InfinityPlacement::new(vec![vol]),
    };
    let cap = max_model_size(
        sim.cluster(),
        &strategy,
        &TrainOptions::single_node(),
        sim.calibration(),
    )
    .unwrap()
    .unwrap()
    .billions();
    let ratio = cap / megatron;
    assert!(
        (4.0..7.5).contains(&ratio),
        "Infinity/Megatron capacity {ratio:.2}x"
    );
}

#[test]
fn stress_tests_reproduce_serdes_contention() {
    // Sec. III-C: 93% / 52% / 47% / 42% attained RoCE.
    let cases = [
        (
            StressScenario::CpuRoce {
                cross_socket: false,
            },
            0.93,
        ),
        (
            StressScenario::GpuRoce {
                cross_socket: false,
            },
            0.52,
        ),
        (StressScenario::CpuRoce { cross_socket: true }, 0.47),
        (StressScenario::GpuRoce { cross_socket: true }, 0.42),
    ];
    for (scenario, expected) in cases {
        let got = stress_test(scenario).roce_fraction;
        assert!(
            (got - expected).abs() < 0.04,
            "{}: {got:.2} vs {expected}",
            scenario.label()
        );
    }
}

#[test]
fn nvlink_does_the_heavy_lifting_single_node() {
    // Sec. IV-E1: NVLink dominates; DRAM/xGMI/PCIe near-idle.
    let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    let report = sim
        .run(
            &Strategy::Ddp,
            &GptConfig::paper_model_with_params(1.4),
            &TrainOptions::single_node(),
            &RunConfig::default(),
        )
        .unwrap();
    let nvl = report.bandwidth.stats(0, LinkClass::NvLink).avg;
    for class in [
        LinkClass::Dram,
        LinkClass::Xgmi,
        LinkClass::PcieGpu,
        LinkClass::Roce,
    ] {
        let other = report.bandwidth.stats(0, class).avg;
        assert!(
            other < nvl / 10.0,
            "{class} avg {other:.2e} too close to NVLink {nvl:.2e}"
        );
    }
}

#[test]
fn second_nvme_drive_nearly_doubles_infinity_throughput() {
    // Sec. V-B1: dual NVMe gives ~86.7% more throughput than single.
    let model = GptConfig::paper_model_with_params(11.4);
    let run = |drives: usize| {
        let layout = vec![zerosim_hw::NvmeDrivePlacement { socket: 1 }; drives];
        let mut sim = TrainingSim::new(ClusterSpec::default().with_nvme_layout(layout)).unwrap();
        let members: Vec<_> = (0..drives)
            .map(|d| zerosim_hw::NvmeId { node: 0, drive: d })
            .collect();
        let vol = sim.cluster_mut().create_volume(members);
        let strategy = Strategy::ZeroInfinity {
            offload_params: false,
            placement: zerosim_strategies::InfinityPlacement::new(vec![vol]),
        };
        let cfg = RunConfig {
            allow_overflow: true,
            ..RunConfig::quick()
        };
        sim.run(&strategy, &model, &TrainOptions::single_node(), &cfg)
            .unwrap()
            .throughput_tflops()
    };
    let one = run(1);
    let two = run(2);
    let gain = two / one;
    assert!(
        (1.5..2.2).contains(&gain),
        "2xNVME gain {gain:.2}x (paper 1.87x)"
    );
}

#[test]
fn offload_params_costs_throughput() {
    // Fig. 11-a: offloading parameters on top of optimizer states lowers
    // throughput in both CPU and NVMe variants.
    let model = GptConfig::paper_model_with_params(11.4);
    let cfg = RunConfig {
        allow_overflow: true,
        ..RunConfig::quick()
    };
    let with = |offload_params: bool| {
        let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
        let d = |drive| zerosim_hw::NvmeId { node: 0, drive };
        let vol = sim.cluster_mut().create_volume(vec![d(0), d(1)]);
        let strategy = Strategy::ZeroInfinity {
            offload_params,
            placement: zerosim_strategies::InfinityPlacement::new(vec![vol]),
        };
        sim.run(&strategy, &model, &TrainOptions::single_node(), &cfg)
            .unwrap()
            .throughput_tflops()
    };
    let opt_only = with(false);
    let opt_param = with(true);
    assert!(
        opt_param < 0.9 * opt_only,
        "{opt_param:.1} vs {opt_only:.1}"
    );
}
