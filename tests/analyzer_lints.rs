//! `planlint` integration suite.
//!
//! Three layers of evidence that the static analyzer tells the truth:
//!
//! 1. **Seeded violations** — for every lint code ZL001–ZL009, an
//!    intentionally broken artifact proves the code fires *exactly once*
//!    and at the *right site*, through the public `zerosim_analyzer`
//!    API with the full default pass suite registered (so the fixtures
//!    also prove the other eight passes stay silent).
//! 2. **Self application** — every golden paper config lints completely
//!    clean (zero deny, zero warnings), which is what the
//!    `scripts/verify.sh` planlint gate enforces via the binary.
//! 3. **Simulator consistency** — ZL001's fit verdict flips at exactly
//!    the layer count where the simulator's capacity search
//!    (`core::max_model_size`) stops fitting, ZL004's static link set
//!    covers every link the simulated run actually ranks hot, and
//!    ZL004's per-link demand is, link by link, the bytes one simulated
//!    iteration moves.

use std::collections::{HashMap, HashSet};

use zerosim_analyzer::{
    analyze_strategy, Artifacts, GraphView, LintCode, LintConfig, PassManager, Severity, Site,
};
use zerosim_collectives::{CollectiveKind, CommGroup};
use zerosim_core::{max_model_size, RunConfig, TrainingSim};
use zerosim_hw::{Cluster, ClusterSpec, GpuId, LinkClass, MemLoc, NvmeId, SocketId};
use zerosim_model::GptConfig;
use zerosim_simkit::{BandwidthRecorder, DagEngine, FaultKind, FaultSchedule, SimTime};
use zerosim_strategies::{
    lower, Calibration, Codec, Dtype, InfinityPlacement, IterCtx, MemoryPlan, OptimizerDevice,
    PhaseStage, PlanOp, ServingStrategy, Strategy, StrategyPlan, TrainOptions, WorkloadKind,
    WorkloadPlan, ZeroStage,
};
use zerosim_testkit::gen::usize_range;
use zerosim_testkit::{prop, prop_assert};

// ---------- shared fixtures ----------

fn g0() -> GpuId {
    GpuId { node: 0, gpu: 0 }
}

fn cpu0() -> MemLoc {
    MemLoc::Cpu(SocketId { node: 0, socket: 0 })
}

fn default_cluster() -> Cluster {
    Cluster::new(ClusterSpec::default()).unwrap()
}

fn opts_for(nodes: usize) -> TrainOptions {
    if nodes == 1 {
        TrainOptions::single_node()
    } else {
        TrainOptions::dual_node()
    }
}

/// The 12 golden paper configs: the shared golden matrix plus
/// ZeRO-Infinity (which needs a per-cluster NVMe volume), in the order of
/// `zerosim_bench::data::golden_specs` and the `planlint golden` set.
fn golden_case(idx: usize) -> (Cluster, Strategy, TrainOptions) {
    let matrix = zerosim_bench::data::golden_matrix();
    if let Some((strategy, nodes)) = matrix.get(idx) {
        (default_cluster(), strategy.clone(), opts_for(*nodes))
    } else {
        let mut cluster = default_cluster();
        let d = |drive| NvmeId { node: 0, drive };
        let vol = cluster.create_volume(vec![d(0), d(1)]);
        let strategy = Strategy::ZeroInfinity {
            offload_params: true,
            placement: InfinityPlacement::new(vec![vol]),
        };
        (cluster, strategy, opts_for(1))
    }
}

const GOLDEN_COUNT: usize = 12;

fn lint(art: &Artifacts<'_>) -> zerosim_analyzer::AnalysisReport {
    PassManager::with_default_passes(LintConfig::new()).run(art)
}

// ---------- 1. every code fires exactly once, at the right site ----------

#[test]
fn zl001_fires_once_when_residency_exceeds_hbm() {
    let cluster = default_cluster();
    let memory = MemoryPlan {
        per_gpu_bytes: 62e9,
        total_gpu_bytes: 62e9 * 8.0,
        per_node_cpu_bytes: 100e9,
        total_cpu_bytes: 200e9,
        nvme_bytes: 0.0,
        gpu_breakdown: Vec::new(),
    };
    let r = lint(&Artifacts::new(&cluster).with_memory(&memory));
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::MemoryResidency);
    assert_eq!(d.severity, Severity::Deny);
    assert_eq!(d.site, Site::Config);
    assert!(d.message.contains("HBM"), "{}", d.message);
    assert!(!r.memory.expect("verdict recorded").fits);
}

#[test]
fn zl002_fires_once_at_the_op_consuming_phantom_bytes() {
    // One h2d that reads 4 GB out of host DRAM nobody ever staged.
    let mut plan = WorkloadPlan::new();
    plan.set_phase(PhaseStage::Step, 0);
    plan.push(
        PlanOp::TierTransfer {
            src: cpu0(),
            dst: MemLoc::Gpu(g0()),
            bytes: 4e9,
            label: "h2d",
            track: 0,
        },
        &[],
    );
    let cluster = default_cluster();
    let r = lint(&Artifacts::new(&cluster).with_plan(&plan));
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::ByteConservation);
    assert_eq!(d.severity, Severity::Deny);
    assert_eq!(d.site, Site::PlanOp(0));
    assert!(d.message.contains("host DRAM of node 0"), "{}", d.message);
}

#[test]
fn zl003_fires_once_when_forward_waits_on_its_own_backward() {
    let compute = || PlanOp::LayerCompute {
        gpu: g0(),
        flops: 1e12,
        label: "gemm",
    };
    let mut plan = WorkloadPlan::new();
    plan.set_phase(PhaseStage::Backward, 0);
    let b = plan.push(compute(), &[]);
    // Forward of micro-step 0 waiting on that micro-step's own backward
    // pass is unsatisfiable in any schedule.
    plan.set_phase(PhaseStage::Forward, 0);
    let f = plan.push(compute(), &[b]);
    plan.set_phase(PhaseStage::Step, 0);
    plan.push(
        PlanOp::OptimizerStep {
            device: OptimizerDevice::Gpu(g0()),
            params: 1e9,
        },
        &[f],
    );
    let cluster = default_cluster();
    plan.validate(&cluster).expect("the plan passes validation");
    let r = lint(&Artifacts::new(&cluster).with_plan(&plan));
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::PhaseOrdering);
    assert_eq!(d.severity, Severity::Deny);
    assert_eq!(d.site, Site::PlanOp(1));
    assert!(
        d.message.contains("depends on backward-phase op 0"),
        "{}",
        d.message
    );
}

/// ZL004's one finding is the dark-wire advisory. A gradient collective
/// between GPU 0 of node 0 (socket 0) and GPU 2 of node 1 (socket 1) at
/// 0.2 GB/s per flow lowers to a two-way inter-node exchange whose
/// routes each cross one node's xGMI: every route's one bottleneck wire
/// is a 10.5 GB/s GPU–xGMI I/O-die pair (1.9% attained), one per node,
/// while the 13 GB/s GPU–NIC pairs the same routes cross attain 1.5% but
/// are not their route's bottleneck. The advisory fires once on each of
/// the two pair links and never denies.
#[test]
fn zl004_warns_once_per_dark_bottleneck_wire() {
    let cluster = default_cluster();
    let far = GpuId { node: 1, gpu: 2 };
    let mut plan = WorkloadPlan::new();
    plan.set_phase(PhaseStage::Backward, 0);
    let b = plan.push(
        PlanOp::LayerCompute {
            gpu: g0(),
            flops: 1e12,
            label: "gemm",
        },
        &[],
    );
    let c = plan.push(
        PlanOp::Collective {
            kind: CollectiveKind::ReduceScatter,
            group: CommGroup::new(vec![g0(), far]),
            bytes: 1e9,
            cap: 0.2e9,
        },
        &[b],
    );
    plan.set_phase(PhaseStage::Step, 0);
    plan.push(
        PlanOp::OptimizerStep {
            device: OptimizerDevice::Gpu(g0()),
            params: 1e9,
        },
        &[c],
    );
    let lowered = lower(&plan, &cluster, &Calibration::default()).expect("the plan lowers");
    let r = lint(
        &Artifacts::new(&cluster)
            .with_plan(&plan)
            .with_dag(lowered.dag()),
    );
    assert_eq!(r.deny_count(), 0, "{}", r.render_text());
    let sites: Vec<&Site> = r.diagnostics.iter().map(|d| &d.site).collect();
    assert_eq!(
        sites,
        [
            &Site::Link("n0s0.iod.PcieGpu(0)-Xgmi".into()),
            &Site::Link("n1s1.iod.PcieGpu(0)-Xgmi".into()),
        ],
        "{}",
        r.render_text()
    );
    for d in &r.diagnostics {
        assert_eq!(d.code, LintCode::BandwidthFeasibility);
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("attains only 1.9%"), "{}", d.message);
    }
}

#[test]
fn zl005_warns_once_on_a_dead_gradient_collective() {
    let cluster = default_cluster();
    let mut plan = WorkloadPlan::new();
    plan.set_phase(PhaseStage::Backward, 0);
    let b = plan.push(
        PlanOp::LayerCompute {
            gpu: g0(),
            flops: 1e12,
            label: "gemm",
        },
        &[],
    );
    // Dead: a gradient reduction the optimizer never waits for.
    plan.push(
        PlanOp::Collective {
            kind: CollectiveKind::ReduceScatter,
            group: CommGroup::world(&cluster),
            bytes: 1e9,
            cap: 1e12,
        },
        &[b],
    );
    plan.set_phase(PhaseStage::Step, 0);
    let s = plan.push(
        PlanOp::OptimizerStep {
            device: OptimizerDevice::Gpu(g0()),
            params: 1e9,
        },
        &[b],
    );
    // Legal sink: the post-step parameter broadcast stays silent.
    plan.push(
        PlanOp::Collective {
            kind: CollectiveKind::AllGather,
            group: CommGroup::world(&cluster),
            bytes: 1e9,
            cap: 1e12,
        },
        &[s],
    );
    let r = lint(&Artifacts::new(&cluster).with_plan(&plan));
    assert_eq!(r.deny_count(), 0, "{}", r.render_text());
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::DeadOps);
    assert_eq!(d.severity, Severity::Warning, "ZL005 defaults to warn");
    assert_eq!(d.site, Site::PlanOp(1));
    assert!(d.message.contains("no op waits for"), "{}", d.message);

    // The same finding escalates to deny under a directive, exactly as
    // `planlint --level ZL005=deny` would apply it.
    let mut cfg = LintConfig::new();
    cfg.apply_directive("ZL005=deny").unwrap();
    let r = PassManager::with_default_passes(cfg).run(&Artifacts::new(&cluster).with_plan(&plan));
    assert_eq!(r.deny_count(), 1);
    assert_eq!(r.diagnostics[0].severity, Severity::Deny);
}

#[test]
fn zl006_fires_once_on_a_dependency_cycle() {
    let cluster = default_cluster();
    let graph = GraphView::from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
    let r = lint(&Artifacts::new(&cluster).with_graph(&graph));
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::DagCycle);
    assert_eq!(d.severity, Severity::Deny);
    assert_eq!(d.site, Site::DagTask(1));
    assert!(d.message.contains("cycle"), "{}", d.message);
}

#[test]
fn zl006_fires_once_on_a_dangling_edge() {
    let cluster = default_cluster();
    let graph = GraphView::from_edges(2, &[(0, 1), (7, 1)]);
    let r = lint(&Artifacts::new(&cluster).with_graph(&graph));
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::DagCycle);
    assert_eq!(d.severity, Severity::Deny);
    assert!(d.message.contains("nonexistent task 7"), "{}", d.message);
}

#[test]
fn zl007_fires_once_on_overlapping_node_loss() {
    let cluster = default_cluster();
    let schedule = FaultSchedule::new(7)
        .at(1.0, FaultKind::NodeLoss { node: 1 })
        .unwrap()
        .at(2.0, FaultKind::NodeLoss { node: 1 })
        .unwrap();
    let r = lint(&Artifacts::new(&cluster).with_faults(&schedule));
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::FaultSchedule);
    assert_eq!(d.severity, Severity::Deny);
    assert_eq!(d.site, Site::FaultEvent(1));
    assert!(d.message.contains("lost twice"), "{}", d.message);
}

#[test]
fn zl007_events_past_the_horizon_are_advisory_only() {
    let cluster = default_cluster();
    let schedule = FaultSchedule::new(7)
        .at(50.0, FaultKind::NodeLoss { node: 1 })
        .unwrap();
    let r = lint(
        &Artifacts::new(&cluster)
            .with_faults(&schedule)
            .with_horizon_s(10.0),
    );
    assert_eq!(r.deny_count(), 0, "{}", r.render_text());
    assert_eq!(r.warning_count(), 1);
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::FaultSchedule);
    assert_eq!(d.site, Site::FaultEvent(0));
    assert!(d.message.contains("never fires"), "{}", d.message);
}

// ---------- serving workloads (Prefill/Decode plans) ----------

/// A hand-built decode-step plan: token h2d, one forward GEMM, the KV
/// append, and the sampled-token d2h. `wire_kv_to_compute` controls
/// whether the KV append depends on the forward compute (legal) or only
/// on the input staging (a decode-effect ordering violation).
fn decode_fixture(kv_bytes: f64, wire_kv_to_compute: bool) -> WorkloadPlan {
    let mut plan = WorkloadPlan::of_kind(WorkloadKind::Decode);
    let h2d = plan.push(
        PlanOp::TierTransfer {
            src: cpu0(),
            dst: MemLoc::Gpu(g0()),
            bytes: 16.0,
            label: "token_h2d",
            track: 0,
        },
        &[],
    );
    plan.set_phase(PhaseStage::Decode, 0);
    let gemm = plan.push(
        PlanOp::LayerCompute {
            gpu: g0(),
            flops: 1e12,
            label: "gemm",
        },
        &[h2d],
    );
    let kv_dep = if wire_kv_to_compute { gemm } else { h2d };
    let kv = plan.push(
        PlanOp::KvAppend {
            gpu: g0(),
            bytes: kv_bytes,
        },
        &[kv_dep],
    );
    plan.push(
        PlanOp::TierTransfer {
            src: MemLoc::Gpu(g0()),
            dst: cpu0(),
            bytes: 16.0,
            label: "token_d2h",
            track: 0,
        },
        &[gemm, kv],
    );
    plan
}

fn serving_memory(per_gpu: f64) -> MemoryPlan {
    MemoryPlan {
        per_gpu_bytes: per_gpu,
        total_gpu_bytes: per_gpu * 4.0,
        per_node_cpu_bytes: 100e9,
        total_cpu_bytes: 100e9,
        nvme_bytes: 0.0,
        gpu_breakdown: Vec::new(),
    }
}

#[test]
fn zl001_counts_kv_cache_growth_as_residency() {
    let cluster = default_cluster();
    // 30 GB of resident weights fit a 40 GB A100; a 15 GB KV cache on
    // top is a static OOM the simulator would never see (KvAppend is
    // zero-duration), so ZL001 must deny it.
    let plan = decode_fixture(15e9, true);
    let memory = serving_memory(30e9);
    let r = lint(
        &Artifacts::new(&cluster)
            .with_plan(&plan)
            .with_memory(&memory),
    );
    assert_eq!(r.deny_count(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::MemoryResidency);
    assert!(d.message.contains("HBM"), "{}", d.message);
    assert!(d.help.contains("KV cache"), "{}", d.help);
    let v = r.memory.expect("verdict recorded");
    assert_eq!(v.kv_growth, 15e9);
    assert!(!v.fits);
    assert_eq!(v.bottleneck, Some("gpu"));

    // The same batch with a small cache is clean — and the verdict
    // carries the growth either way.
    let plan = decode_fixture(1e9, true);
    let r = lint(
        &Artifacts::new(&cluster)
            .with_plan(&plan)
            .with_memory(&memory),
    );
    assert_eq!(r.deny_count(), 0, "{}", r.render_text());
    let v = r.memory.expect("verdict recorded");
    assert_eq!(v.kv_growth, 1e9);
    assert!(v.fits);
}

#[test]
fn zl003_decode_effect_must_depend_on_that_steps_compute() {
    let cluster = default_cluster();
    // KV append wired to the input staging instead of the forward
    // compute: the cache write would commit before the step computed it.
    let plan = decode_fixture(1e9, false);
    let memory = serving_memory(10e9);
    let r = lint(
        &Artifacts::new(&cluster)
            .with_plan(&plan)
            .with_memory(&memory),
    );
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::PhaseOrdering);
    assert_eq!(d.severity, Severity::Deny);
    assert_eq!(d.site, Site::PlanOp(2));
    assert!(
        d.message
            .contains("does not depend on that step's forward compute"),
        "{}",
        d.message
    );
}

#[test]
fn zl005_kv_append_is_a_legal_sink_in_serving_phases() {
    let cluster = default_cluster();
    // Reorder so the KV append is dependent-less (token d2h hangs off
    // the compute only): the cache write *is* the effect, ZL005 stays
    // silent exactly as it does for checkpoint write-backs.
    let mut plan = WorkloadPlan::of_kind(WorkloadKind::Decode);
    plan.set_phase(PhaseStage::Decode, 0);
    let gemm = plan.push(
        PlanOp::LayerCompute {
            gpu: g0(),
            flops: 1e12,
            label: "gemm",
        },
        &[],
    );
    plan.push(
        PlanOp::KvAppend {
            gpu: g0(),
            bytes: 1e9,
        },
        &[gemm],
    );
    plan.push(
        PlanOp::TierTransfer {
            src: MemLoc::Gpu(g0()),
            dst: cpu0(),
            bytes: 16.0,
            label: "token_d2h",
            track: 0,
        },
        &[gemm],
    );
    let memory = serving_memory(10e9);
    let r = lint(
        &Artifacts::new(&cluster)
            .with_plan(&plan)
            .with_memory(&memory),
    );
    assert_eq!(r.deny_count(), 0, "{}", r.render_text());
    assert_eq!(r.warning_count(), 0, "{}", r.render_text());
}

/// Both serving strategies' prefill and decode plans lint completely
/// clean through the full default pass suite — the serving analogue of
/// `every_golden_config_lints_clean`.
#[test]
fn serving_strategy_plans_lint_clean() {
    let model = GptConfig::paper_model_with_params(1.4);
    let calib = Calibration::default();
    let opts = TrainOptions::single_node();
    let mut cluster = default_cluster();
    let d = |drive| NvmeId { node: 0, drive };
    let vol = cluster.create_volume(vec![d(0), d(1)]);
    let strategies = [
        ServingStrategy::Dense,
        ServingStrategy::NvmeStreamed {
            placement: InfinityPlacement::new(vec![vol]),
        },
    ];
    for strategy in &strategies {
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let memory = strategy.plan_memory(&ctx);
        let prefill = strategy.plan_prefill(&ctx, 512, 4).unwrap();
        let decode = strategy.plan_decode(&ctx, 0, 4, 640).unwrap();
        for (what, plan) in [("prefill", &prefill), ("decode", &decode)] {
            let lowered = lower(plan, &cluster, &calib).unwrap();
            let r = lint(
                &Artifacts::new(&cluster)
                    .with_plan(plan)
                    .with_memory(&memory)
                    .with_dag(lowered.dag()),
            );
            assert_eq!(
                r.deny_count(),
                0,
                "{} {what}:\n{}",
                strategy.display_name(),
                r.render_text()
            );
            assert_eq!(
                r.warning_count(),
                0,
                "{} {what}:\n{}",
                strategy.display_name(),
                r.render_text()
            );
            assert!(r.memory.expect("ZL001 ran").kv_growth > 0.0);
        }
    }
}

// ---------- 2. self application: the golden matrix lints clean ----------

#[test]
fn every_golden_config_lints_clean() {
    let model = GptConfig::paper_model_with_params(1.4);
    let calib = Calibration::default();
    for idx in 0..GOLDEN_COUNT {
        let (cluster, strategy, opts) = golden_case(idx);
        let r = analyze_strategy(
            &cluster,
            &strategy,
            &model,
            &opts,
            &calib,
            LintConfig::new(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", strategy.name()));
        assert_eq!(
            r.deny_count(),
            0,
            "{}:\n{}",
            strategy.name(),
            r.render_text()
        );
        assert_eq!(
            r.warning_count(),
            0,
            "{}:\n{}",
            strategy.name(),
            r.render_text()
        );
        assert!(r.memory.expect("ZL001 ran").fits);
        assert!(!r.links.is_empty(), "ZL004 classified links");
    }
}

// ---------- 3. consistency with the simulator ----------

/// ZL001's fit verdict must flip at exactly the layer count where the
/// simulator's capacity search stops fitting (Fig. 6 methodology):
/// `fits == Some(true)` at the achieved maximum, anything else one layer
/// past it (a plan the strategy rejects outright also counts as not
/// fitting, matching `max_model_size`).
#[test]
fn zl001_verdict_flips_at_the_simulated_capacity_edge() {
    let calib = Calibration::default();
    for idx in 0..GOLDEN_COUNT {
        let (cluster, strategy, opts) = golden_case(idx);
        let cap = max_model_size(&cluster, &strategy, &opts, &calib)
            .unwrap()
            .unwrap_or_else(|| panic!("{} fits at least one layer", strategy.name()));
        let verdict_fits = |layers: usize| -> Option<bool> {
            let model = GptConfig::paper_model(layers);
            let ctx = IterCtx {
                cluster: &cluster,
                model: &model,
                opts: &opts,
                calib: &calib,
            };
            let memory = strategy.plan_memory(&ctx).ok()?;
            let r = lint(&Artifacts::new(&cluster).with_memory(&memory));
            let v = r.memory.clone().expect("ZL001 ran");
            // The deny findings replicate the verdict exactly.
            assert_eq!(v.fits, r.is_clean(), "{}", r.render_text());
            Some(v.fits)
        };
        assert_eq!(
            verdict_fits(cap.num_layers),
            Some(true),
            "{} fits at its achieved maximum ({} layers)",
            strategy.name(),
            cap.num_layers
        );
        assert_ne!(
            verdict_fits(cap.num_layers + 1),
            Some(true),
            "{} must not fit one layer past the capacity edge",
            strategy.name()
        );
    }
}

/// Every link the simulated run ranks hot must be a link the static
/// ZL004 model loaded, and the analyzer's top-demand link must show up
/// in the simulated hot-link ranking: the static bandwidth model and
/// the flow-level simulation agree on *where* the traffic goes.
#[test]
fn zl004_static_link_set_covers_the_simulated_hot_links() {
    let model = GptConfig::paper_model_with_params(1.4);
    let calib = Calibration::default();
    let cases: [(Strategy, usize); 3] = [
        (Strategy::Ddp, 2),
        (
            Strategy::Zero {
                stage: ZeroStage::Three,
            },
            1,
        ),
        (
            Strategy::ZeroOffload {
                stage: ZeroStage::Two,
                offload_params: false,
            },
            1,
        ),
    ];
    for (strategy, nodes) in cases {
        let opts = opts_for(nodes);
        let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
        let simulated = sim
            .run(&strategy, &model, &opts, &RunConfig::quick())
            .unwrap();
        let cluster = default_cluster();
        let linted = analyze_strategy(
            &cluster,
            &strategy,
            &model,
            &opts,
            &calib,
            LintConfig::new(),
        )
        .unwrap();
        let static_names: HashSet<&str> = linted.links.iter().map(|l| l.name.as_str()).collect();
        let hot: Vec<_> = simulated.hot_links.iter().filter(|h| h.avg > 0.0).collect();
        assert!(!hot.is_empty(), "{} moved bytes", strategy.name());
        for h in &hot {
            assert!(
                static_names.contains(h.name.as_str()),
                "{}: simulated hot link {} missing from the static ZL004 set {:?}",
                strategy.name(),
                h.name,
                static_names
            );
        }
        // Verdicts are sorted hottest-demand first.
        let top = &linted.links[0];
        assert!(
            simulated.hot_links.iter().any(|h| h.name == top.name),
            "{}: static top link {} not in the simulated hot ranking",
            strategy.name(),
            top.name
        );
    }
}

/// Every link class of the clusters the analyzer is run on.
const LINK_CLASSES: [LinkClass; 10] = [
    LinkClass::Dram,
    LinkClass::Xgmi,
    LinkClass::PcieGpu,
    LinkClass::PcieNvme,
    LinkClass::PcieNic,
    LinkClass::NvLink,
    LinkClass::Roce,
    LinkClass::NvmeDev,
    LinkClass::IodPair,
    LinkClass::Fabric,
];

/// ZL004 prices the transfers lowering emits, so its per-link demand is
/// exactly what one healthy simulated iteration of that lowering moves.
/// Checked on the 12 goldens, the ZeRO++ family on two nodes, and
/// dual-node ZeRO-1/ZeRO-2, whose large collectives take the hierarchical
/// schedule and route half the inter-node exchange over the neighbouring
/// socket's NIC (the xGMI traffic of the paper's Sec. IV-E2): on every
/// link of every class the recorder's byte total matches ZL004's demand,
/// and a link ZL004 does not list carries nothing.
#[test]
fn zl004_demand_equals_simulated_bytes_on_every_link() {
    let model = GptConfig::paper_model_with_params(1.4);
    let calib = Calibration::default();
    let dual = |strategy| (default_cluster(), strategy, opts_for(2));
    let zero = |stage| Strategy::Zero { stage };
    let cases = (0..GOLDEN_COUNT).map(golden_case).chain([
        dual(Strategy::qwz()),
        dual(Strategy::hpz()),
        dual(Strategy::qgz()),
        dual(zero(ZeroStage::One)),
        dual(zero(ZeroStage::Two)),
    ]);
    for (mut cluster, strategy, opts) in cases {
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let plan = strategy.plan_iteration(&ctx).unwrap();
        let lowered = lower(&plan, &cluster, &calib).unwrap();
        let r = lint(
            &Artifacts::new(&cluster)
                .with_plan(&plan)
                .with_dag(lowered.dag()),
        );
        let demand: HashMap<String, f64> = r
            .links
            .iter()
            .map(|l| (l.name.clone(), l.demand_bytes))
            .collect();
        let mut rec = BandwidthRecorder::new(SimTime::from_ms(10.0));
        let mut engine = DagEngine::new(cluster.resource_slots());
        engine
            .run(
                cluster.net_mut(),
                lowered.dag(),
                SimTime::ZERO,
                Some(&mut rec),
            )
            .unwrap();
        let config = format!("{} @ {} node(s)", strategy.name(), opts.nodes);
        let mut listed = 0;
        for node in 0..cluster.spec().nodes {
            for class in LINK_CLASSES {
                for &link in cluster.links(node, class) {
                    let name = cluster.net().link_name(link);
                    let simulated = rec.total_bytes(link);
                    if let Some(&d) = demand.get(name) {
                        listed += 1;
                        assert!(
                            (simulated - d).abs() <= 1e-6 * d,
                            "{config}: {name} simulated {simulated} bytes, ZL004 demand {d}"
                        );
                    } else {
                        assert_eq!(simulated, 0.0, "{config}: {name} is not in ZL004's set");
                    }
                }
            }
        }
        assert_eq!(
            listed,
            demand.len(),
            "{config}: every ZL004 link belongs to a link class"
        );
    }
}

// ---------- ZL008 / ZL009: codecs and static step-time bounds ----------

#[test]
fn zl008_fires_once_on_compute_consuming_encoded_bytes() {
    let cluster = default_cluster();
    let mut plan = WorkloadPlan::new();
    plan.set_phase(PhaseStage::Forward, 0);
    let gather = plan.push(
        PlanOp::Collective {
            kind: CollectiveKind::AllGather,
            group: CommGroup::new(vec![g0(), GpuId { node: 0, gpu: 1 }]),
            bytes: 1e9,
            cap: 1e12,
        },
        &[],
    );
    plan.set_codec(gather, Codec::quantize(Dtype::Fp16, Dtype::Int8, 2048));
    // The compute consumes the Int8 wire bytes directly: missing decode.
    plan.push(
        PlanOp::LayerCompute {
            gpu: g0(),
            flops: 1e12,
            label: "gemm",
        },
        &[gather],
    );
    let r = lint(&Artifacts::new(&cluster).with_plan(&plan));
    assert_eq!(r.diagnostics.len(), 1, "{}", r.render_text());
    let d = &r.diagnostics[0];
    assert_eq!(d.code, LintCode::CodecLegality);
    assert_eq!(d.severity, Severity::Deny);
    assert_eq!(d.site, Site::PlanOp(1));
    assert!(d.message.contains("without a decode"), "{}", d.message);
}

/// The static byte accounting must show qgZ's Int4 gradient
/// reduce-scatter cutting inter-node backward reduction volume by at
/// least 3.5x against plain ZeRO-3's ring reduce-scatter on the
/// dual-node cluster. Priced with the ring closed form, per-rank
/// `bytes_sent_per_rank` over the encoded wire payload, which every
/// collective schedule moves in total; which links carry those bytes is
/// the schedule's choice, and ZL004 reads that off the lowered DAG.
#[test]
fn qgz_cuts_static_internode_gradient_volume_over_3_5x() {
    let cluster = default_cluster();
    let model = GptConfig::paper_model_with_params(1.4);
    let calib = Calibration::default();
    let opts = opts_for(2);
    let backward_reduce_volume = |strategy: &Strategy| -> f64 {
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let plan = strategy.plan_iteration(&ctx).unwrap();
        plan.nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| match &n.op {
                PlanOp::Collective {
                    kind: kind @ CollectiveKind::ReduceScatter,
                    group,
                    bytes,
                    ..
                } if n.phase.stage == PhaseStage::Backward && !group.is_single_node() => {
                    kind.bytes_sent_per_rank(group.len(), bytes * plan.codec_ratio_at(i))
                }
                _ => 0.0,
            })
            .sum()
    };
    let z3 = backward_reduce_volume(&Strategy::Zero {
        stage: ZeroStage::Three,
    });
    let qgz = backward_reduce_volume(&Strategy::qgz());
    assert!(z3 > 0.0, "ZeRO-3 reduces gradients across nodes");
    assert!(qgz > 0.0, "qgZ still reduces gradients across nodes");
    let reduction = z3 / qgz;
    assert!(
        reduction >= 3.5,
        "qgZ inter-node reduction volume must drop >= 3.5x, got {reduction:.2}x \
         ({z3:.3e} vs {qgz:.3e} bytes/rank)"
    );
}

/// ZL009's protocol bound must lower-bound the simulated iteration time
/// for the whole ZeRO++ family across jitter seeds (the golden dozen is
/// swept the same way by `golden_dozen_digests_survive_the_workload_ir_refactor`
/// in `tests/plan_equivalence.rs`).
#[test]
fn zl009_bound_lower_bounds_simulation_for_the_zeropp_family() {
    let model = GptConfig::paper_model_with_params(1.4);
    let calib = Calibration::default();
    let opts = opts_for(2);
    let strategies = [
        Strategy::Zero {
            stage: ZeroStage::Three,
        },
        Strategy::qwz(),
        Strategy::hpz(),
        Strategy::qgz(),
    ];
    for strategy in &strategies {
        let cluster = default_cluster();
        let r =
            analyze_strategy(&cluster, strategy, &model, &opts, &calib, LintConfig::new()).unwrap();
        assert_eq!(
            r.deny_count(),
            0,
            "{}:\n{}",
            strategy.name(),
            r.render_text()
        );
        assert_eq!(
            r.warning_count(),
            0,
            "{}:\n{}",
            strategy.name(),
            r.render_text()
        );
        let b = r.bound.clone().expect("ZL009 emitted a bound");
        assert!(
            b.wire_sol_s <= b.protocol_s * (1.0 + 1e-9),
            "{}: wire SoL must not exceed the protocol bound",
            strategy.name()
        );
        for seed in [0u64, 1, 7, 42] {
            let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
            let t = sim
                .run(
                    strategy,
                    &model,
                    &opts.with_jitter_seed(seed),
                    &RunConfig::quick(),
                )
                .unwrap()
                .iter_time
                .as_secs();
            assert!(
                b.protocol_s <= t * (1.0 + 1e-9),
                "{} seed {seed}: static bound {} above simulated {t}",
                strategy.name(),
                b.protocol_s
            );
        }
    }
}

// ---------- 4. properties ----------

prop! {
    /// The ZL001 static peak bound dominates the resident footprint the
    /// simulator enforces at admission, tier by tier, and the fit
    /// verdict is byte-identical with `MemoryPlan::fits` — for every
    /// golden config.
    #[cases(12)]
    fn zl001_static_peak_dominates_residency(idx in usize_range(0, 12)) {
        let (cluster, strategy, opts) = golden_case(idx);
        let model = GptConfig::paper_model_with_params(1.4);
        let calib = Calibration::default();
        let ctx = IterCtx { cluster: &cluster, model: &model, opts: &opts, calib: &calib };
        let memory = strategy.plan_memory(&ctx).unwrap();
        let plan = strategy.plan_iteration(&ctx).unwrap();
        let r = PassManager::with_default_passes(LintConfig::new())
            .run(&Artifacts::new(&cluster).with_plan(&plan).with_memory(&memory));
        let v = r.memory.expect("ZL001 ran");
        prop_assert!(v.per_gpu_peak >= v.per_gpu_resident);
        prop_assert!(v.per_node_cpu_peak >= v.per_node_cpu_resident);
        prop_assert!(v.nvme_peak >= v.nvme_resident);
        prop_assert!(v.per_gpu_resident == memory.per_gpu_bytes);
        prop_assert!(v.fits == memory.fits(&cluster));
    }

    /// ZL001 agrees with `MemoryPlan::fits` at arbitrary model depths,
    /// not just the paper's 1.4B point: a deny appears iff the plan
    /// does not fit.
    #[cases(32)]
    fn zl001_fit_verdict_matches_memory_plan_for_random_depths(
        layers in usize_range(1, 160),
        idx in usize_range(0, 12),
    ) {
        let (cluster, strategy, opts) = golden_case(idx);
        let model = GptConfig::paper_model(layers);
        let calib = Calibration::default();
        let ctx = IterCtx { cluster: &cluster, model: &model, opts: &opts, calib: &calib };
        // Some strategies reject some depths (e.g. fewer layers than
        // pipeline stages); rejection is not a lint concern.
        if let Ok(memory) = strategy.plan_memory(&ctx) {
            let r = PassManager::with_default_passes(LintConfig::new())
                .run(&Artifacts::new(&cluster).with_memory(&memory));
            let v = r.memory.clone().expect("ZL001 ran");
            prop_assert!(v.fits == memory.fits(&cluster));
            prop_assert!(r.is_clean() == v.fits);
        }
    }
    /// Codec-aware pool accounting: a narrowing d2h stages exactly
    /// `bytes x ratio` encoded bytes into host DRAM, for every dtype
    /// pair and block size — a downstream read of exactly that many
    /// bytes is clean, and an oversized read denies at the consumer.
    #[cases(24)]
    fn zl002_pools_credit_encoded_bytes_at_ratio(
        pair in usize_range(0, 5),
        block_pow in usize_range(4, 13),
        gbs in usize_range(1, 9),
    ) {
        let (din, dout) = [
            (Dtype::Fp32, Dtype::Fp16),
            (Dtype::Fp32, Dtype::Int8),
            (Dtype::Fp32, Dtype::Int4),
            (Dtype::Fp16, Dtype::Int8),
            (Dtype::Fp16, Dtype::Int4),
        ][pair];
        let codec = Codec::quantize(din, dout, 1 << block_pow);
        #[allow(clippy::cast_precision_loss)]
        let bytes = gbs as f64 * 1e9;
        let staged = bytes * codec.ratio;
        let build = |consume: f64| {
            let mut plan = WorkloadPlan::new();
            plan.set_phase(PhaseStage::Backward, 0);
            let d2h = plan.push(
                PlanOp::TierTransfer {
                    src: MemLoc::Gpu(g0()),
                    dst: cpu0(),
                    bytes,
                    label: "d2h",
                    track: 0,
                },
                &[],
            );
            plan.set_codec(d2h, codec);
            plan.set_phase(PhaseStage::Step, 0);
            plan.push(
                PlanOp::TierTransfer {
                    src: cpu0(),
                    dst: MemLoc::Gpu(g0()),
                    bytes: consume,
                    label: "h2d",
                    track: 0,
                },
                &[d2h],
            );
            plan
        };
        let cluster = default_cluster();
        let clean = lint(&Artifacts::new(&cluster).with_plan(&build(staged)));
        prop_assert!(clean.is_clean());
        let over = lint(&Artifacts::new(&cluster).with_plan(&build(staged * 1.5 + 16.0)));
        prop_assert!(over.deny_count() == 1);
        prop_assert!(over.diagnostics[0].code == LintCode::ByteConservation);
        prop_assert!(over.diagnostics[0].site == Site::PlanOp(1));
    }

    /// Stripping the codec declarations off a ZeRO++ quantized plan
    /// flips ZL002 from clean to deny, sited at exactly the formerly
    /// quantized transfers: their dequant markers now claim encoded
    /// bytes nobody produced.
    #[cases(8)]
    fn zl002_denies_stripped_zeropp_codec_at_the_quantized_op(
        which in usize_range(0, 2),
        nodes in usize_range(1, 3),
    ) {
        let strategy = if which == 0 {
            Strategy::qwz()
        } else {
            Strategy::qgz()
        };
        let cluster = default_cluster();
        let model = GptConfig::paper_model_with_params(1.4);
        let calib = Calibration::default();
        let opts = opts_for(nodes);
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let memory = strategy.plan_memory(&ctx).unwrap();
        let mut plan = strategy.plan_iteration(&ctx).unwrap();
        let quantized: HashSet<usize> = plan.codecs().map(|(id, _)| id.index()).collect();
        prop_assert!(!quantized.is_empty());
        let clean = lint(
            &Artifacts::new(&cluster)
                .with_plan(&plan)
                .with_memory(&memory),
        );
        prop_assert!(clean.deny_count() == 0);
        plan.strip_codecs();
        let r = lint(
            &Artifacts::new(&cluster)
                .with_plan(&plan)
                .with_memory(&memory),
        );
        prop_assert!(r.deny_count() >= 1);
        for d in r.diagnostics.iter().filter(|d| d.severity == Severity::Deny) {
            prop_assert!(d.code == LintCode::ByteConservation);
            match &d.site {
                Site::PlanOp(op) => prop_assert!(quantized.contains(op)),
                other => prop_assert!(false, "unexpected site {other:?}"),
            }
        }
    }
}
