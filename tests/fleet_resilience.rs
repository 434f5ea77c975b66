//! Fleet-resilience integration suite (PR 8).
//!
//! Property evidence for the `core::fleet` layer, end to end through the
//! public APIs:
//!
//! 1. **Determinism** — MTBF-sampled schedules are byte-identical per
//!    seed, and Monte-Carlo ensembles are byte-identical at any worker
//!    width.
//! 2. **Lint cleanliness** — every sampled schedule passes planlint
//!    ZL007 with zero findings: node losses never repeat, and nothing
//!    outlives the horizon.
//! 3. **Young/Daly** — the analytic checkpoint interval beats both a 2×
//!    and a 0.5× cadence on simulated ensemble goodput for all three
//!    golden configurations (the debug-budget twin of the release
//!    `repro ext13` gate in `scripts/verify.sh`).

use zerosim_analyzer::{Artifacts, LintConfig, PassManager};
use zerosim_bench::experiments::fleet::{golden_bracket, golden_configs};
use zerosim_core::{
    daly_interval_s, run_ensemble, waste_fraction, young_interval_s, EnsembleConfig, FleetProfile,
    RunConfig, SweepSpec,
};
use zerosim_hw::{Cluster, ClusterSpec};
use zerosim_model::GptConfig;
use zerosim_strategies::{Strategy, TrainOptions};

#[test]
fn sampled_schedules_are_byte_identical_per_seed() {
    let cluster = Cluster::new(ClusterSpec::default()).unwrap();
    for profile in [FleetProfile::node_only(8.0), FleetProfile::node_only(40.0)] {
        let a = profile.sample_schedule(&cluster, 30.0, 1234).unwrap();
        let b = profile.sample_schedule(&cluster, 30.0, 1234).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.events(), b.events());
        let c = profile.sample_schedule(&cluster, 30.0, 1235).unwrap();
        assert_ne!(a.digest(), c.digest(), "seed must drive the sample");
    }
}

#[test]
fn sampled_schedules_lint_clean() {
    // Every sampled schedule must pass ZL007 with zero findings — one
    // loss per node, inside the horizon, is lint-clean by design.
    let cluster = Cluster::new(ClusterSpec::default().with_nodes(4)).unwrap();
    let horizon = 25.0;
    for seed in 0..6 {
        let schedule = FleetProfile::node_only(10.0)
            .sample_schedule(&cluster, horizon, seed)
            .unwrap();
        assert!(!schedule.is_empty(), "seed {seed} sampled nothing");
        let pm = PassManager::with_default_passes(LintConfig::new());
        let report = pm.run(
            &Artifacts::new(&cluster)
                .with_faults(&schedule)
                .with_horizon_s(horizon),
        );
        assert!(
            report.is_clean() && report.warning_count() == 0,
            "seed {seed} lints dirty:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn ensembles_are_width_invariant() {
    let base = SweepSpec::new(
        "fleet-int / ddp",
        Strategy::Ddp,
        GptConfig::paper_model_with_params(1.4),
        TrainOptions::for_nodes(1),
    )
    .with_cluster(ClusterSpec::default().with_nodes(1))
    .with_run(RunConfig {
        warmup_iters: 0,
        measure_iters: 4,
        ..RunConfig::default()
    });
    let profile = FleetProfile::node_only(6.0);
    let narrow = EnsembleConfig::new(5, 2.0).with_seed(7).with_workers(1);
    let wide = EnsembleConfig::new(5, 2.0).with_seed(7).with_workers(3);
    let a = run_ensemble(&base, &profile, &narrow).unwrap();
    let b = run_ensemble(&base, &profile, &wide).unwrap();
    assert_eq!(
        a.digest, b.digest,
        "ensemble digest must be width-invariant"
    );
    assert_eq!(a.goodput_tflops, b.goodput_tflops);
    assert_eq!(a.ttr_s, b.ttr_s);
    assert_eq!(a.failed, 0);
    assert!(a.recoveries > 0, "the compressed MTBF must actually bite");
    assert!(a.goodput_tflops.p50 > 0.0);
}

#[test]
fn analytic_waste_is_minimized_at_young() {
    // The waste model the fleet search ranks with is convex with its
    // minimum at τ_young, for any (C, M) with C < M.
    for (c, m) in [(0.1, 8.0), (0.5, 50.0), (2.0, 600.0)] {
        let opt = young_interval_s(c, m);
        let w = |tau: f64| waste_fraction(c, tau, m, 0.0);
        assert!(w(opt) < w(opt / 2.0), "C={c} M={m}");
        assert!(w(opt) < w(opt * 2.0), "C={c} M={m}");
        // Daly's refinement stays within a few percent of Young here.
        assert!((daly_interval_s(c, m) - opt).abs() < 0.1 * opt);
    }
}

#[test]
fn young_daly_beats_the_bracket_on_every_golden_config() {
    // Debug-budget twin of the release gate: 6 samples, 12 measured
    // iterations. Same physics, same strict win condition.
    for (name, strategy, nodes) in golden_configs() {
        let b = golden_bracket(name, &strategy, nodes, 6, 12, 4);
        assert!(
            b.yd_wins(),
            "{name}: opt {:?} must beat half {:?} and double {:?}",
            b.opt,
            b.half,
            b.double
        );
        assert_eq!(b.opt.failed, 0, "{name}: recovery budget exhausted");
        assert!(
            b.half.interval_iters < b.opt.interval_iters
                && b.opt.interval_iters < b.double.interval_iters,
            "{name}: bracket points must be distinct cadences"
        );
    }
}
