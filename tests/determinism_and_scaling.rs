//! Determinism guarantees, routing totality, and memory scaling laws.
//!
//! Triage note (hermetic-build PR): the ROADMAP's "seed tests failing"
//! was the workspace failing to *resolve registry dependencies* — the
//! suite below never compiled. With the in-house `zerosim-testkit`
//! substrate the workspace builds offline and every test in this file
//! passes unmodified against the paper's tables/figures; no expectation
//! needed correction.

use zerosim_core::{RunConfig, TrainingSim};
use zerosim_hw::{Cluster, ClusterSpec, GpuId, MemLoc, NvmeId, SocketId};
use zerosim_model::GptConfig;
use zerosim_strategies::{
    lower, Calibration, InfinityPlacement, IterCtx, Strategy, StrategyPlan, TrainOptions, ZeroStage,
};

#[test]
fn identical_runs_are_bit_identical() {
    let run = || {
        let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
        sim.run(
            &Strategy::Zero {
                stage: ZeroStage::Two,
            },
            &GptConfig::paper_model_with_params(1.4),
            &TrainOptions::single_node(),
            &RunConfig::default(),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.iter_time, b.iter_time);
    assert_eq!(
        a.bandwidth.stats(0, zerosim_hw::LinkClass::NvLink).avg,
        b.bandwidth.stats(0, zerosim_hw::LinkClass::NvLink).avg
    );
    assert_eq!(a.spans.spans().len(), b.spans.spans().len());
}

#[test]
fn jitter_seed_changes_timing_slightly() {
    let makespan = |seed: u64| {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::paper_model_with_params(1.4);
        let opts = TrainOptions::single_node().with_jitter_seed(seed);
        let calib = Calibration::default();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let plan = Strategy::Ddp.plan_iteration(&ctx).unwrap();
        let mut lowered = lower(&plan, &cluster, &calib).unwrap();
        let dag = lowered.stamp(opts.jitter_seed);
        let mut net_cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let mut eng = zerosim_simkit::DagEngine::new(net_cluster.resource_slots());
        eng.run(
            net_cluster.net_mut(),
            dag,
            zerosim_simkit::SimTime::ZERO,
            None,
        )
        .unwrap()
        .makespan()
        .as_secs()
    };
    let a = makespan(1);
    let b = makespan(2);
    assert_ne!(a, b, "different seeds must differ");
    assert!(
        (a - b).abs() / a < 0.05,
        "jitter should be a few percent: {a} vs {b}"
    );
    assert_eq!(makespan(1), a, "same seed must reproduce");
}

#[test]
fn routing_is_total_over_intra_node_endpoints() {
    let cluster = Cluster::new(ClusterSpec::default()).unwrap();
    // Every GPU pair on each node.
    for node in 0..2 {
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    continue;
                }
                let r = cluster.route(
                    MemLoc::Gpu(GpuId { node, gpu: a }),
                    MemLoc::Gpu(GpuId { node, gpu: b }),
                );
                assert_eq!(r.hops(), 1, "intra-node GPU pairs ride NVLink");
            }
        }
        // Every GPU to every socket, both directions.
        for g in 0..4 {
            for s in 0..2 {
                let gpu = GpuId { node, gpu: g };
                let cpu = SocketId { node, socket: s };
                let down = cluster.route(MemLoc::Cpu(cpu), MemLoc::Gpu(gpu));
                let up = cluster.route(MemLoc::Gpu(gpu), MemLoc::Cpu(cpu));
                assert!(down.hops() >= 2 && up.hops() >= 2);
                let cross = cluster.gpu_socket(gpu).socket != s;
                // Cross-socket paths are strictly longer and slower to start.
                if cross {
                    assert!(down.hops() >= 4);
                    assert!(
                        !down.latency.is_zero(),
                        "cross-socket paths pay a non-zero startup latency"
                    );
                }
            }
        }
        // Every socket to every drive, both directions.
        for s in 0..2 {
            for d in 0..2 {
                let w = cluster.route(
                    MemLoc::Cpu(SocketId { node, socket: s }),
                    MemLoc::Nvme(NvmeId { node, drive: d }),
                );
                let r = cluster.route(
                    MemLoc::Nvme(NvmeId { node, drive: d }),
                    MemLoc::Cpu(SocketId { node, socket: s }),
                );
                assert!(w.hops() >= 3 && r.hops() >= 3);
            }
        }
    }
}

#[test]
fn internode_routes_cover_all_nic_choices() {
    let cluster = Cluster::new(ClusterSpec::default()).unwrap();
    for src_nic in 0..2 {
        for dst_nic in 0..2 {
            for g in 0..4 {
                let r = cluster.route_internode_gpu(
                    GpuId { node: 0, gpu: g },
                    GpuId { node: 1, gpu: g },
                    src_nic,
                    dst_nic,
                );
                let names: Vec<&str> = r
                    .links()
                    .iter()
                    .map(|l| cluster.net().link_name(*l))
                    .collect();
                assert!(names.iter().any(|n| n.contains("roce.tx")));
                assert!(names.iter().any(|n| n.contains("roce.rx")));
                // Cross-socket NIC selection adds xGMI hops.
                let src_cross = cluster.gpu_socket(GpuId { node: 0, gpu: g }).socket != src_nic;
                let has_xgmi_src = names.iter().any(|n| n.contains("n0.xgmi"));
                assert_eq!(src_cross, has_xgmi_src, "gpu {g} nic {src_nic}: {names:?}");
            }
        }
    }
}

#[test]
fn per_gpu_memory_shrinks_with_cluster_size_for_zero_only() {
    let cluster = Cluster::new(ClusterSpec::default()).unwrap();
    let model = GptConfig::paper_model_with_params(1.4);
    let calib = Calibration::default();
    let per_gpu = |strategy: &Strategy, nodes: usize| {
        let opts = if nodes == 1 {
            TrainOptions::single_node()
        } else {
            TrainOptions::dual_node()
        };
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        strategy.plan_memory(&ctx).unwrap().per_gpu_bytes
    };
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        let s = Strategy::Zero { stage };
        assert!(
            per_gpu(&s, 2) < per_gpu(&s, 1),
            "{stage:?} must shard further with more GPUs"
        );
    }
    let ddp = Strategy::Ddp;
    assert_eq!(per_gpu(&ddp, 1), per_gpu(&ddp, 2), "DDP replicates fully");
}

#[test]
fn zero3_cpu_param_offload_runs_end_to_end() {
    // The Table I corner not exercised by the paper's figures:
    // ZeRO-3 with optimizer AND parameters in host memory.
    let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    let strategy = Strategy::ZeroOffload {
        stage: ZeroStage::Three,
        offload_params: true,
    };
    let report = sim
        .run(
            &strategy,
            &GptConfig::paper_model_with_params(1.4),
            &TrainOptions::single_node(),
            &RunConfig {
                allow_overflow: true,
                ..RunConfig::quick()
            },
        )
        .unwrap();
    // Param fetches put real traffic on PCIe and DRAM.
    let pcie = report
        .bandwidth
        .stats(0, zerosim_hw::LinkClass::PcieGpu)
        .avg;
    let dram = report.bandwidth.stats(0, zerosim_hw::LinkClass::Dram).avg;
    assert!(pcie > 1e9, "PCIe avg {pcie}");
    assert!(dram > 1e9, "DRAM avg {dram}");
    // And its GPU footprint undercuts keeping params resident.
    let resident = Strategy::ZeroOffload {
        stage: ZeroStage::Three,
        offload_params: false,
    };
    let cluster = Cluster::new(ClusterSpec::default()).unwrap();
    let calib = Calibration::default();
    let model = GptConfig::paper_model_with_params(1.4);
    let opts = TrainOptions::single_node();
    let ctx = IterCtx {
        cluster: &cluster,
        model: &model,
        opts: &opts,
        calib: &calib,
    };
    assert!(
        strategy.plan_memory(&ctx).unwrap().per_gpu_bytes
            < resident.plan_memory(&ctx).unwrap().per_gpu_bytes
    );
}

#[test]
fn infinity_rank_volume_mapping_wraps() {
    let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    let d = |drive| NvmeId { node: 0, drive };
    let v0 = sim.cluster_mut().create_volume(vec![d(0)]);
    let v1 = sim.cluster_mut().create_volume(vec![d(1)]);
    let placement = InfinityPlacement::new(vec![v0, v1]);
    // Four ranks wrap over two volumes.
    assert_eq!(placement.volume_for(0), v0);
    assert_eq!(placement.volume_for(1), v1);
    assert_eq!(placement.volume_for(2), v0);
    assert_eq!(placement.volume_for(3), v1);
}
