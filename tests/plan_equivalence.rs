//! Golden equivalence of the iteration-plan pipeline.
//!
//! The IR refactor must be **observationally invisible**: for every paper
//! strategy configuration, lowering a cached plan once and re-stamping
//! per seed has to produce the same simulated numbers — makespan, total
//! wire bytes, task count — as building a fresh DAG per iteration
//! (tolerance 0). Plus the plan-level conservation properties the
//! validator enforces, checked per strategy family by the testkit
//! harness.

use zerosim_analyzer::{analyze_strategy, LintConfig};
use zerosim_bench::{cli, data};
use zerosim_core::{
    max_model_size, serve, CoreError, FaultConfig, RunConfig, TraceConfig, TrainingSim,
};
use zerosim_hw::{Cluster, ClusterSpec, NvmeId};
use zerosim_model::GptConfig;
use zerosim_simkit::{DagEngine, SimTime};
use zerosim_strategies::{
    lower, plan_checkpoint, plan_restore, Calibration, InfinityPlacement, IterCtx, ServingStrategy,
    Strategy, StrategyError, StrategyPlan, TrainOptions, ZeroStage,
};
use zerosim_testkit::gen::{u64_range, usize_range};
use zerosim_testkit::{prop, prop_assert};

fn infinity_cluster() -> (Cluster, Strategy) {
    let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
    let d = |drive| NvmeId { node: 0, drive };
    let vol = cluster.create_volume(vec![d(0), d(1)]);
    let strategy = Strategy::ZeroInfinity {
        offload_params: true,
        placement: InfinityPlacement::new(vec![vol]),
    };
    (cluster, strategy)
}

/// Makespan + total wire bytes + task count of one stamped execution.
fn observe(cluster: &Cluster, dag: &zerosim_simkit::Dag) -> (f64, f64, usize) {
    let mut fresh = Cluster::new(cluster.spec().clone()).unwrap();
    let mut eng = DagEngine::new(fresh.resource_slots());
    let out = eng.run(fresh.net_mut(), dag, SimTime::ZERO, None).unwrap();
    (
        out.makespan().as_secs(),
        dag.total_transfer_bytes(),
        dag.len(),
    )
}

fn assert_equivalent(cluster: &Cluster, strategy: &Strategy, opts: &TrainOptions) {
    let model = GptConfig::paper_model_with_params(1.4);
    let calib = Calibration::default();
    let ctx = IterCtx {
        cluster,
        model: &model,
        opts,
        calib: &calib,
    };
    let plan = strategy.plan_iteration(&ctx).unwrap();
    plan.validate(cluster).unwrap();
    let mut cached = lower(&plan, cluster, &calib).unwrap();
    for seed in [0u64, 1, 7, 42] {
        // Cached: lower once, re-stamp per seed.
        let (mk_a, bytes_a, len_a) = observe(cluster, cached.stamp(seed));
        // Fresh: full plan → lower → stamp pipeline per seed (what the
        // seed implementation did every iteration).
        let o = opts.with_jitter_seed(seed);
        let fresh = strategy
            .plan_iteration(&IterCtx { opts: &o, ..ctx })
            .unwrap();
        let mut lowered = lower(&fresh, cluster, &calib).unwrap();
        let (mk_b, bytes_b, len_b) = observe(cluster, lowered.stamp(o.jitter_seed));
        // Tolerance 0: bit-identical structure and timing.
        assert_eq!(len_a, len_b, "{} task count", strategy.name());
        assert_eq!(bytes_a, bytes_b, "{} wire bytes", strategy.name());
        assert_eq!(mk_a, mk_b, "{} makespan (seed {seed})", strategy.name());
    }
}

#[test]
fn restamped_plans_match_fresh_builds_for_every_paper_config() {
    let cluster = Cluster::new(ClusterSpec::default()).unwrap();
    for (strategy, nodes) in data::golden_matrix() {
        assert_equivalent(&cluster, &strategy, &TrainOptions::for_nodes(nodes));
    }
}

#[test]
fn restamped_plan_matches_fresh_build_for_zero_infinity() {
    let (cluster, strategy) = infinity_cluster();
    assert_equivalent(&cluster, &strategy, &TrainOptions::single_node());
}

#[test]
fn zero3_moves_about_fifty_percent_more_collective_payload_than_ddp() {
    // Sec. IV-C1: ZeRO-3 adds parameter all-gathers (forward *and*
    // backward re-gather in this DeepSpeed configuration) on top of the
    // gradient reduction all strategies share — at least 50% more
    // collective payload than DDP, and bounded by the 3-pass worst case.
    let cluster = Cluster::new(ClusterSpec::default()).unwrap();
    let model = GptConfig::paper_model_with_params(1.4);
    let opts = TrainOptions::single_node();
    let calib = Calibration::default();
    let ctx = IterCtx {
        cluster: &cluster,
        model: &model,
        opts: &opts,
        calib: &calib,
    };
    let payload = |s: &Strategy| s.plan_iteration(&ctx).unwrap().collective_payload_bytes();
    let ddp = payload(&Strategy::Ddp);
    let z3 = payload(&Strategy::Zero {
        stage: ZeroStage::Three,
    });
    let ratio = z3 / ddp;
    assert!(
        (1.5..=3.05).contains(&ratio),
        "z3/ddp payload ratio {ratio:.3}, expected ≥1.5"
    );
}

/// Every name in the strategy table `sweep`, `trace` and `planlint` share
/// plans and validates on the spec its resolver builds: at one node,
/// except the two Megatron shapes that need eight GPUs.
#[test]
fn registry_covers_the_paper_matrix_and_all_plans_validate() {
    let names = cli::strategy_names();
    for (strategy, _) in data::golden_matrix() {
        assert!(names.contains(&strategy.name()), "{}", strategy.name());
    }
    let model = GptConfig::paper_model_with_params(1.4);
    for name in names {
        let nodes = match name.as_str() {
            "Megatron-LM (MP=8)" | "Megatron-LM (TP=4,PP=2)" => 2,
            _ => 1,
        };
        let spec = cli::strategy_by_name(&name, model, TrainOptions::for_nodes(nodes)).unwrap();
        let sim = spec.build_sim().unwrap();
        let ctx = IterCtx {
            cluster: sim.cluster(),
            model: &spec.model,
            opts: &spec.opts,
            calib: sim.calibration(),
        };
        let plan = spec
            .strategy
            .plan_iteration(&ctx)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        plan.validate(sim.cluster())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.strategy.name(), name);
    }
}

/// Planning for more nodes than the cluster has is a typed layout error
/// from every planner, never a panic: each `cli::strategies` entry
/// through `plan_memory`, `plan_iteration` and `analyze_strategy`, both
/// serving strategies through `plan_memory`, prefill and decode, and the
/// checkpoint planners.
#[test]
fn every_planner_rejects_more_nodes_than_the_cluster_has() {
    let (cluster, infinity) = infinity_cluster();
    let Strategy::ZeroInfinity { placement, .. } = infinity else {
        unreachable!("infinity_cluster returns ZeRO-Infinity")
    };
    let model = GptConfig::paper_model_with_params(1.4);
    let opts = TrainOptions::for_nodes(3);
    let calib = Calibration::default();
    let ctx = IterCtx {
        cluster: &cluster,
        model: &model,
        opts: &opts,
        calib: &calib,
    };
    let layout_error = |what: &str, result: Result<(), StrategyError>| {
        let err = result.expect_err(what);
        assert!(
            matches!(&err, StrategyError::InvalidLayout(m) if m.contains("wants 3 nodes")),
            "{what}: {err}"
        );
    };
    for strategy in cli::strategies() {
        let name = strategy.name();
        layout_error(&name, strategy.plan_memory(&ctx).map(drop));
        layout_error(&name, strategy.plan_iteration(&ctx).map(drop));
        let lint = analyze_strategy(
            &cluster,
            &strategy,
            &model,
            &opts,
            &calib,
            LintConfig::new(),
        );
        layout_error(&name, lint.map(drop));
    }
    for serving in [
        ServingStrategy::Dense,
        ServingStrategy::NvmeStreamed { placement },
    ] {
        let name = serving.display_name();
        layout_error(name, serving.plan_memory(&ctx).map(drop));
        layout_error(name, serving.plan_prefill(&ctx, 512, 4).map(drop));
        layout_error(name, serving.plan_decode(&ctx, 0, 4, 512).map(drop));
    }
    layout_error("checkpoint", plan_checkpoint(&ctx).map(drop));
    layout_error("restore", plan_restore(&ctx).map(drop));
}

/// The node-count rule has one owner, `TrainOptions::gpus`: training,
/// checkpoint costing, serving and the capacity search all return its
/// layout error for a run spanning more nodes than the cluster has,
/// before planning anything.
#[test]
fn every_core_entry_point_returns_the_node_count_error_of_train_options() {
    let cluster = Cluster::new(ClusterSpec::default()).unwrap();
    let model = GptConfig::paper_model_with_params(1.4);
    let opts = TrainOptions::for_nodes(3);
    let expected = CoreError::InvalidConfig(opts.gpus(&cluster).unwrap_err());
    assert!(
        expected
            .to_string()
            .contains("run wants 3 nodes, cluster has 2"),
        "{expected}"
    );
    let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    let results = [
        (
            "run_resilient",
            sim.run_resilient(
                &Strategy::Ddp,
                &model,
                &opts,
                &RunConfig::quick(),
                &FaultConfig::healthy(),
            )
            .map(drop),
        ),
        (
            "checkpoint_cost",
            sim.checkpoint_cost(&model, &opts).map(drop),
        ),
        (
            "serve",
            serve(
                &mut sim,
                &ServingStrategy::Dense,
                &model,
                &opts,
                &TraceConfig::quick(0),
                4,
            )
            .map(drop),
        ),
        (
            "max_model_size",
            max_model_size(&cluster, &Strategy::Ddp, &opts, &Calibration::default()).map(drop),
        ),
    ];
    for (what, result) in results {
        assert_eq!(result.expect_err(what), expected, "{what}");
    }
}

// ---------- golden-dozen digest pin across the workload-IR refactor ----------

/// Digests of all 12 paper configurations × jitter seeds {0, 1, 7, 42},
/// captured from the pre-`WorkloadKind` (v0.9.0, `PlanKind`-era) code.
/// The generalization of the plan IR to serving workloads must be
/// observationally invisible to training: every one of these 48 numbers
/// has to keep reproducing byte-identically. Since every run goes through
/// the resilient training loop, these also pin that loop's healthy case.
const GOLDEN_DIGESTS: [(u64, &str, u64); 48] = [
    (0, "golden-00 PyTorch DDP 1n", 0x1dc0034c5881c635),
    (0, "golden-01 PyTorch DDP 2n", 0x4467c7b443b880b3),
    (0, "golden-02 Megatron-LM (MP=4) 1n", 0xd1fa8dd0bdd6e35d),
    (0, "golden-03 Megatron-LM (MP=8) 2n", 0xad049396e9fe98f0),
    (
        0,
        "golden-04 Megatron-LM (TP=4,PP=2) 2n",
        0xbf40502f8d642ff8,
    ),
    (0, "golden-05 ZeRO-1 1n", 0x0895303659084461),
    (0, "golden-06 ZeRO-2 1n", 0xbddcc5ce52a0da37),
    (0, "golden-07 ZeRO-3 1n", 0x12b5a755d29601d5),
    (0, "golden-08 ZeRO-3 2n", 0x857688ce45f1c8e1),
    (0, "golden-09 ZeRO-2 (CPU) 1n", 0xa3ed7e9eb7dc4233),
    (0, "golden-10 ZeRO-3 (CPU opt+param) 1n", 0x813df1c82aa43b22),
    (0, "golden-11 ZeRO-Infinity 1n", 0xa99ac6f1fb2d08fd),
    (1, "golden-00 PyTorch DDP 1n", 0x822870bf4929cde6),
    (1, "golden-01 PyTorch DDP 2n", 0xfaf158bc72b0c8e1),
    (1, "golden-02 Megatron-LM (MP=4) 1n", 0xd1251311f1ac64f5),
    (1, "golden-03 Megatron-LM (MP=8) 2n", 0xd1e4ca285077dcba),
    (
        1,
        "golden-04 Megatron-LM (TP=4,PP=2) 2n",
        0x25a8a41ba5bfeec7,
    ),
    (1, "golden-05 ZeRO-1 1n", 0xc5e139c3f320140e),
    (1, "golden-06 ZeRO-2 1n", 0x39f07a2a67c06880),
    (1, "golden-07 ZeRO-3 1n", 0x80315faa6442522e),
    (1, "golden-08 ZeRO-3 2n", 0x2dbc5be2960c17e8),
    (1, "golden-09 ZeRO-2 (CPU) 1n", 0xc432f7a8924ce20e),
    (1, "golden-10 ZeRO-3 (CPU opt+param) 1n", 0x2842190395ca10d3),
    (1, "golden-11 ZeRO-Infinity 1n", 0xdc4ca018e7530e9e),
    (7, "golden-00 PyTorch DDP 1n", 0xea6b9e67fcd1647b),
    (7, "golden-01 PyTorch DDP 2n", 0x566b235e36949768),
    (7, "golden-02 Megatron-LM (MP=4) 1n", 0x99acf0009f2d2492),
    (7, "golden-03 Megatron-LM (MP=8) 2n", 0x87e6fda2a960d07d),
    (
        7,
        "golden-04 Megatron-LM (TP=4,PP=2) 2n",
        0x3d80a997dbbbca44,
    ),
    (7, "golden-05 ZeRO-1 1n", 0x82beed4406351fb8),
    (7, "golden-06 ZeRO-2 1n", 0x17a1d476ad98bf76),
    (7, "golden-07 ZeRO-3 1n", 0x48e66b2a8b79aa17),
    (7, "golden-08 ZeRO-3 2n", 0x651bdfe9c90bcac0),
    (7, "golden-09 ZeRO-2 (CPU) 1n", 0xf287ed6c22ea71e8),
    (7, "golden-10 ZeRO-3 (CPU opt+param) 1n", 0xd44534cbeecc133c),
    (7, "golden-11 ZeRO-Infinity 1n", 0x18459d416e191113),
    (42, "golden-00 PyTorch DDP 1n", 0xee92fe76d5e8e48d),
    (42, "golden-01 PyTorch DDP 2n", 0xfe79046d0124e3db),
    (42, "golden-02 Megatron-LM (MP=4) 1n", 0x0a21de00b9793fdf),
    (42, "golden-03 Megatron-LM (MP=8) 2n", 0x95f711af9924beac),
    (
        42,
        "golden-04 Megatron-LM (TP=4,PP=2) 2n",
        0xbd7b8b932ebe8476,
    ),
    (42, "golden-05 ZeRO-1 1n", 0xf116644fa48ab7f4),
    (42, "golden-06 ZeRO-2 1n", 0xaae1a9160de590d6),
    (42, "golden-07 ZeRO-3 1n", 0x0c5f2d02ad7c4544),
    (42, "golden-08 ZeRO-3 2n", 0xf97a7526848e22a2),
    (42, "golden-09 ZeRO-2 (CPU) 1n", 0x5c563bdf03ab0c32),
    (
        42,
        "golden-10 ZeRO-3 (CPU opt+param) 1n",
        0xf04cc5e729b24ede,
    ),
    (42, "golden-11 ZeRO-Infinity 1n", 0x4122fcd3e53ce4af),
];

/// ZL009's static step time must also lower-bound every one of these
/// simulated iterations; each config is linted once, on the cluster its
/// runs use. The ZeRO++ family's bounds are checked in
/// `tests/analyzer_lints.rs`.
#[test]
fn golden_dozen_digests_survive_the_workload_ir_refactor() {
    let bounds: Vec<f64> = data::golden_specs()
        .iter()
        .map(|spec| {
            let sim = spec.build_sim().expect("golden spec builds");
            let report = analyze_strategy(
                sim.cluster(),
                &spec.strategy,
                &spec.model,
                &spec.opts,
                sim.calibration(),
                LintConfig::new(),
            )
            .expect("golden spec lints");
            report.bound.expect("ZL009 emitted a bound").protocol_s
        })
        .collect();
    let mut it = GOLDEN_DIGESTS.iter();
    for seed in [0u64, 1, 7, 42] {
        for (mut spec, &bound_s) in data::golden_specs().into_iter().zip(&bounds) {
            spec.opts.jitter_seed = seed;
            let run = spec.execute().expect("golden spec runs");
            let &(want_seed, want_label, want_digest) = it
                .next()
                .expect("48 pinned digests cover 4 seeds x 12 configs");
            assert_eq!(seed, want_seed);
            assert_eq!(run.label, want_label);
            assert_eq!(
                run.report.digest(),
                want_digest,
                "digest drifted for {} at seed {seed}",
                run.label
            );
            // A healthy run is the zero-fault case of the resilient loop.
            let m = &run.report.resilience;
            assert_eq!(m.faults_applied, 0, "{}", run.label);
            assert_eq!(m.replayed_iterations, 0, "{}", run.label);
            assert_eq!(m.recoveries, 0, "{}", run.label);
            // Equal up to the nanosecond truncation of the mean iteration time.
            let rel = (m.goodput_flops - run.report.throughput_flops()).abs() / m.goodput_flops;
            assert!(rel < 1e-6, "{}: goodput deviates by {rel}", run.label);
            let iter_s = run.report.iter_time.as_secs();
            assert!(
                bound_s <= iter_s * (1.0 + 1e-9),
                "{} seed {seed}: ZL009 bound {bound_s} s above the simulated {iter_s} s",
                run.label
            );
        }
    }
}

// ---------- per-family validation properties ----------

prop! {
    /// DDP plans validate for any depth/batch/accumulation combination.
    #[cases(48)]
    fn ddp_plans_always_validate(
        layers in usize_range(1, 120),
        batch in usize_range(1, 8),
        accum in usize_range(1, 4),
    ) {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::paper_model(layers);
        let mut opts = TrainOptions::single_node();
        opts.per_gpu_batch = batch;
        opts.grad_accum = accum;
        let calib = Calibration::default();
        let ctx = IterCtx { cluster: &cluster, model: &model, opts: &opts, calib: &calib };
        let plan = Strategy::Ddp.plan_iteration(&ctx).unwrap();
        prop_assert!(plan.validate(&cluster).is_ok());
        // Gradient payload: one all-reduce per bucket covering every
        // layer and embedding parameter exactly once (the final norm's
        // handful of parameters ride inside the last bucket's fusion).
        let expected =
            2.0 * (model.num_layers as f64 * model.layer_params() + model.embedding_params());
        let got = plan.collective_payload_bytes();
        prop_assert!((got - expected).abs() / expected < 1e-9);
    }

    /// Megatron plans validate for every feasible (tp, pp) split of the
    /// single-node GPU count.
    #[cases(48)]
    fn megatron_plans_always_validate(
        layers in usize_range(4, 80),
        pick in usize_range(0, 5),
    ) {
        let (tp, pp) = [(4, 1), (2, 2), (1, 4), (2, 1), (1, 1), (4, 1)][pick];
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::paper_model(layers);
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let ctx = IterCtx { cluster: &cluster, model: &model, opts: &opts, calib: &calib };
        let plan = Strategy::Megatron { tp, pp }.plan_iteration(&ctx).unwrap();
        prop_assert!(plan.validate(&cluster).is_ok());
    }

    /// ZeRO plans validate across stages and node counts, and stage 3
    /// always moves at least as much collective payload as stage 1.
    #[cases(48)]
    fn zero_plans_always_validate(
        layers in usize_range(1, 120),
        stage_idx in usize_range(0, 3),
        seed in u64_range(0, u64::MAX),
    ) {
        let stage = [ZeroStage::One, ZeroStage::Two, ZeroStage::Three][stage_idx];
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::paper_model(layers);
        let opts = TrainOptions::single_node().with_jitter_seed(seed);
        let calib = Calibration::default();
        let ctx = IterCtx { cluster: &cluster, model: &model, opts: &opts, calib: &calib };
        let s = Strategy::Zero { stage };
        let plan = s.plan_iteration(&ctx).unwrap();
        prop_assert!(plan.validate(&cluster).is_ok());
        let z1 = Strategy::Zero { stage: ZeroStage::One }
            .plan_iteration(&ctx)
            .unwrap();
        prop_assert!(
            plan.collective_payload_bytes() >= z1.collective_payload_bytes() * (1.0 - 1e-9)
        );
    }

    /// ZeRO-Offload plans validate and always stage bytes through the
    /// host (CPU Adam traffic), unlike GPU-resident ZeRO.
    #[cases(48)]
    fn zero_offload_plans_always_validate(
        layers in usize_range(1, 80),
        stage_idx in usize_range(0, 3),
        offload_params in usize_range(0, 2),
    ) {
        let stage = [ZeroStage::One, ZeroStage::Two, ZeroStage::Three][stage_idx];
        // Parameter offload requires ZeRO-3 (Table I).
        let offload_params = offload_params == 1 && stage == ZeroStage::Three;
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::paper_model(layers);
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let ctx = IterCtx { cluster: &cluster, model: &model, opts: &opts, calib: &calib };
        let s = Strategy::ZeroOffload { stage, offload_params };
        let plan = s.plan_iteration(&ctx).unwrap();
        prop_assert!(plan.validate(&cluster).is_ok());
        let resident = Strategy::Zero { stage }.plan_iteration(&ctx).unwrap();
        prop_assert!(plan.staging_bytes() > resident.staging_bytes());
    }

    /// ZeRO-Infinity plans validate whenever a volume placement exists,
    /// and are rejected with a typed error when it is missing.
    #[cases(32)]
    fn zero_infinity_plans_validate_with_volumes(
        layers in usize_range(1, 80),
        offload_params in usize_range(0, 2),
    ) {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let d = |drive| NvmeId { node: 0, drive };
        let vol = cluster.create_volume(vec![d(0), d(1)]);
        let model = GptConfig::paper_model(layers);
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let ctx = IterCtx { cluster: &cluster, model: &model, opts: &opts, calib: &calib };
        let s = Strategy::ZeroInfinity {
            offload_params: offload_params == 1,
            placement: InfinityPlacement::new(vec![vol]),
        };
        let plan = s.plan_iteration(&ctx).unwrap();
        prop_assert!(plan.validate(&cluster).is_ok());
        // NVMe traffic must actually hit the volume.
        prop_assert!(plan.staging_bytes() > 0.0);
    }
}
