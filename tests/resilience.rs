//! Resilience invariants across the stack: degrade-then-restore windows
//! never speed a run up; node-loss replay is bounded by the checkpoint
//! interval; identical seeds + schedules reproduce identical reports under
//! faults; and every ext11 fault-matrix cell reproduces its pinned digest.
//! (Healthy runs are the zero-fault case of the same loop; their
//! accounting is pinned next to the golden digests in
//! `tests/plan_equivalence.rs`.)

use zerosim_bench::experiments::resilience::{cell_spec, fault_matrix_scenarios, MATRIX_BILLIONS};
use zerosim_core::{FaultConfig, FaultScenario, RecoveryPolicy, RunConfig, TrainingSim};
use zerosim_hw::{ClusterSpec, LinkClass};
use zerosim_model::GptConfig;
use zerosim_simkit::{DagBuilder, DagEngine, FaultKind, FaultSchedule, FlowNet, SimTime, TaskId};
use zerosim_strategies::{Strategy, TrainOptions, ZeroStage};
use zerosim_testkit::gen::{f64_range, usize_range};
use zerosim_testkit::{prop, prop_assert};

// ---------- pinned fault matrix ----------

/// ZeRO-3 over every ext11 fault-matrix cell, healthy first:
/// `(scenario, TrainingReport::digest, resilient wall time in ns, goodput
/// bits)`. The digest excludes resilience accounting, so wall time and
/// goodput pin what the faults did: link rescaling mid-flow, a straggler's
/// slot handoffs, and node-loss flow cancellation with restart and replay.
const FAULT_MATRIX_PINS: [(&str, u64, u64, u64); 6] = [
    (
        "healthy",
        0x232a_8c21_7cbe_8321,
        8_785_865_995,
        0x42dd_5718_29ac_0819,
    ),
    (
        "RoCE@50%",
        0x232a_8c21_7cbe_8321,
        8_785_865_995,
        0x42dd_5718_29ac_0819,
    ),
    (
        "RoCE@10%",
        0x232a_8c21_7cbe_8321,
        8_785_865_995,
        0x42dd_5718_29ac_0819,
    ),
    (
        "straggler 0.7x",
        0x90d9_cf27_cd3a_3faf,
        8_806_121_111,
        0x42dd_45d1_6764_8cb0,
    ),
    (
        "nvme stall",
        0x232a_8c21_7cbe_8321,
        8_785_865_995,
        0x42dd_5718_29ac_0819,
    ),
    (
        "node loss",
        0xefd6_3188_61a0_f123,
        10_379_884_058,
        0x42d8_d5a1_7081_c06e,
    ),
];

#[test]
fn fault_matrix_cells_reproduce_their_pinned_digests() {
    let strategy = Strategy::Zero {
        stage: ZeroStage::Three,
    };
    let model = GptConfig::paper_model_with_params(MATRIX_BILLIONS);
    let pin = |scenario: &FaultScenario| {
        let run = cell_spec(&strategy, &model, scenario)
            .execute()
            .expect("fault-matrix cell runs");
        let m = run.report.resilience;
        (
            scenario.label().into_owned(),
            run.digest,
            m.wall_time.as_nanos(),
            m.goodput_flops.to_bits(),
        )
    };
    // The healthy run anchors each fault's injection time, as in ext11.
    let healthy = pin(&FaultScenario::Healthy);
    let wall = SimTime::from_nanos(healthy.2).as_secs();
    let mut cells = vec![healthy];
    cells.extend(fault_matrix_scenarios(wall).iter().skip(1).map(pin));
    let cells: Vec<(&str, u64, u64, u64)> = cells
        .iter()
        .map(|(label, d, w, g)| (label.as_str(), *d, *w, *g))
        .collect();
    assert_eq!(cells, FAULT_MATRIX_PINS);
}

// ---------- degraded links ----------

#[test]
fn deep_roce_brownout_slows_dual_node_megatron_deterministically() {
    let model = GptConfig::paper_model_with_params(1.4);
    let strategy = Strategy::Megatron { tp: 8, pp: 1 };
    let opts = TrainOptions::dual_node();
    let cfg = RunConfig {
        warmup_iters: 0,
        measure_iters: 3,
        ..RunConfig::default()
    };
    let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
    let healthy = sim
        .run_resilient(&strategy, &model, &opts, &cfg, &FaultConfig::healthy())
        .unwrap();
    let hm = &healthy.resilience;
    let scenario = FaultScenario::DegradeClass {
        node: 0,
        class: LinkClass::Roce,
        factor: 0.1,
        at_s: 0.25 * hm.wall_time.as_secs(),
        dur_s: None,
    };
    let schedule = scenario.compile(sim.cluster(), 42).unwrap();
    let run = |sim: &mut TrainingSim| {
        sim.run_resilient(
            &strategy,
            &model,
            &opts,
            &cfg,
            &FaultConfig::without_checkpoints(schedule.clone()),
        )
        .unwrap()
    };
    let a = run(&mut sim);
    let b = run(&mut sim);
    assert_eq!(a.digest(), b.digest(), "same seed + schedule, same bytes");
    assert_eq!(a.resilience, b.resilience);
    let am = &a.resilience;
    assert!(am.faults_applied > 0, "brownout events must fire");
    assert!(
        am.goodput_flops < 0.9 * hm.goodput_flops,
        "TP=8 dual-node is RoCE-bound below the protocol cap: {} vs {}",
        am.goodput_flops,
        hm.goodput_flops
    );
    assert!(am.wall_time > hm.wall_time);
}

prop! {
    /// A degrade window (scale to `factor`, restore `dur` later) can only
    /// slow a run down, never speed it up — for any onset, depth, and
    /// length, including windows entirely after the healthy makespan.
    #[cases(64)]
    fn degrade_then_restore_never_decreases_makespan(
        factor in f64_range(0.05, 1.0),
        at in f64_range(0.0, 1.2),
        dur in f64_range(0.01, 1.5),
    ) {
        // Four chained 25-byte transfers over a 100 B/s wire: healthy
        // makespan exactly 1 s.
        let build = || {
            let mut net = FlowNet::new();
            let l = net.add_link("wire", 100.0);
            let mut b = DagBuilder::new();
            let mut prev: Vec<TaskId> = Vec::new();
            for _ in 0..4 {
                let t = b.transfer(&[l], 25.0, SimTime::ZERO, "x", 0, &prev);
                prev = vec![t];
            }
            (net, b.build(), l)
        };
        let (mut net, dag, _) = build();
        let mut eng = DagEngine::new(vec![]);
        let healthy = eng
            .run(&mut net, &dag, SimTime::ZERO, None)
            .unwrap()
            .makespan();
        let (mut net2, dag2, link) = build();
        let sched = FaultSchedule::new(1)
            .at(at, FaultKind::ScaleLink { link, factor })
            .unwrap()
            .at(at + dur, FaultKind::RestoreLink { link })
            .unwrap();
        let mut cur = sched.cursor();
        let mut eng2 = DagEngine::new(vec![]);
        let faulted = eng2
            .run_faulted(&mut net2, &dag2, SimTime::ZERO, None, &mut cur)
            .unwrap()
            .makespan();
        prop_assert!(
            faulted.as_secs() + 1e-9 >= healthy.as_secs(),
            "degrade window sped the run up: {} < {}",
            faulted.as_secs(),
            healthy.as_secs()
        );
        // A window that overlaps the transfer at a real slowdown must bite.
        if factor < 0.999 && at < healthy.as_secs() {
            prop_assert!(
                faulted > healthy,
                "overlapping slowdown had no effect: factor {factor}, at {at}"
            );
        }
    }
}

// ---------- checkpoint/restart ----------

prop! {
    /// After a node loss, the iterations lost to replay never exceed the
    /// checkpoint interval, and goodput never exceeds the healthy run's.
    #[cases(6)]
    fn replay_loss_is_bounded_by_the_checkpoint_interval(
        interval in usize_range(1, 5),
        frac in f64_range(0.15, 0.85),
    ) {
        let model = GptConfig::paper_model_with_params(1.4);
        let strategy = Strategy::Ddp;
        let opts = TrainOptions::dual_node();
        let cfg = RunConfig {
            warmup_iters: 0,
            measure_iters: 5,
            ..RunConfig::default()
        };
        let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
        let healthy = sim
            .run_resilient(&strategy, &model, &opts, &cfg, &FaultConfig::healthy())
            .unwrap();
        let hm = &healthy.resilience;
        let schedule = FaultScenario::NodeLoss {
            node: 1,
            at_s: frac * hm.wall_time.as_secs(),
        }
        .compile(sim.cluster(), 9)
        .unwrap();
        let faults = FaultConfig::new(
            schedule,
            RecoveryPolicy::every(interval).with_restart_delay(0.25),
        );
        let lost = sim
            .run_resilient(&strategy, &model, &opts, &cfg, &faults)
            .unwrap();
        let m = &lost.resilience;
        prop_assert!(m.recoveries == 1, "one loss, one recovery: {}", m.recoveries);
        prop_assert!(
            m.replayed_iterations <= interval,
            "replayed {} > interval {interval}",
            m.replayed_iterations
        );
        prop_assert!(
            m.goodput_flops < hm.goodput_flops,
            "recovery is never free: {} vs {}",
            m.goodput_flops,
            hm.goodput_flops
        );
    }
}
