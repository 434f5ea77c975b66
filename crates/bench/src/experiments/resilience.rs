//! Resilience experiment: the paper's five strategy families swept under
//! a canonical fault matrix — healthy, RoCE at 50% and at 10%, one
//! straggling GPU at 0.7×, an NVMe stall window, and a node loss at
//! mid-run with checkpoint/restart recovery — plus a ZeRO-Infinity
//! NVMe-stall study where the staging tier is actually on the critical
//! path.
//!
//! Every cell reports *goodput*: useful model FLOP/s net of replayed
//! iterations, checkpoint traffic, and recovery time. Identical seeds and
//! schedules produce byte-identical reports ([`TrainingReport::digest`]).
//!
//! The RoCE@50% column is the experiment's quiet headline: it changes
//! nothing, because the paper's dual-node collectives are protocol-bound
//! far below line rate (ext5) — the wire only becomes the bottleneck once
//! it degrades below the ~27% attainment of Table IV, which is why the
//! RoCE@10% brownout column collapses.

use zerosim_core::{
    FaultConfig, FaultScenario, RecoveryPolicy, RunConfig, SweepSpec, TrainingReport,
};
use zerosim_hw::{GpuId, LinkClass};
use zerosim_model::GptConfig;
use zerosim_report::Table;
use zerosim_strategies::Strategy;

use crate::data;
use crate::data::NvmeConfig;

/// Model size used by the fault matrix (the paper's 1.4 B baseline).
pub const MATRIX_BILLIONS: f64 = 1.4;

/// Nodes used by the fault matrix (dual-node so RoCE and node loss bite).
pub const MATRIX_NODES: usize = 2;

/// Seed stamped onto every schedule of the matrix.
pub const MATRIX_SEED: u64 = 42;

fn matrix_run_config() -> RunConfig {
    RunConfig {
        warmup_iters: 0,
        measure_iters: 4,
        ..RunConfig::default()
    }
}

/// The canonical fault matrix, parameterized by the healthy run's wall
/// time so faults land mid-run regardless of strategy speed.
pub fn fault_matrix_scenarios(wall_secs: f64) -> Vec<FaultScenario> {
    vec![
        FaultScenario::Healthy,
        FaultScenario::DegradeClass {
            node: 0,
            class: LinkClass::Roce,
            factor: 0.5,
            at_s: 0.25 * wall_secs,
            dur_s: None,
        },
        FaultScenario::DegradeClass {
            node: 0,
            class: LinkClass::Roce,
            factor: 0.1,
            at_s: 0.25 * wall_secs,
            dur_s: None,
        },
        FaultScenario::Straggler {
            gpu: GpuId { node: 0, gpu: 1 },
            factor: 0.7,
            at_s: 0.0,
        },
        FaultScenario::NvmeStall {
            node: 0,
            factor: 0.05,
            at_s: 0.25 * wall_secs,
            dur_s: 0.25 * wall_secs,
        },
        FaultScenario::NodeLoss {
            node: 1,
            at_s: 0.55 * wall_secs,
        },
    ]
}

/// `spec` under `scenario`, compiled against the cluster `spec` builds
/// (node loss gets checkpoint/restart recovery; everything else runs
/// unprotected).
fn with_matrix_faults(spec: SweepSpec, scenario: &FaultScenario) -> SweepSpec {
    let probe = spec.build_sim().expect("matrix clusters build");
    let schedule = scenario
        .compile(probe.cluster(), MATRIX_SEED)
        .expect("matrix scenarios resolve against the matrix clusters");
    let faults = match scenario {
        FaultScenario::NodeLoss { .. } => {
            FaultConfig::new(schedule, RecoveryPolicy::every(2).with_restart_delay(1.0))
        }
        _ => FaultConfig::without_checkpoints(schedule),
    };
    spec.with_faults(faults)
}

/// The sweep spec for one matrix cell (strategy × scenario on the
/// default dual-node cluster).
pub fn cell_spec(strategy: &Strategy, model: &GptConfig, scenario: &FaultScenario) -> SweepSpec {
    let label = format!("{} / {}", strategy.name(), scenario.label());
    let spec = data::spec(label, strategy.clone(), *model, MATRIX_NODES, false)
        .with_run(matrix_run_config());
    with_matrix_faults(spec, scenario)
}

/// Runs one strategy under one scenario and returns the report.
pub fn run_cell(
    strategy: &Strategy,
    model: &GptConfig,
    scenario: &FaultScenario,
) -> TrainingReport {
    cell_spec(strategy, model, scenario)
        .execute()
        .expect("matrix configurations fit and recover")
        .report
}

fn matrix_rows() -> Vec<(&'static str, Vec<TrainingReport>)> {
    let model = GptConfig::paper_model_with_params(MATRIX_BILLIONS);
    let baselines = data::baselines(MATRIX_NODES);

    // Phase 1: the healthy runs, fanned out in parallel — they anchor
    // each strategy's fault times.
    let healthy_specs: Vec<SweepSpec> = baselines
        .iter()
        .map(|(_, s)| cell_spec(s, &model, &FaultScenario::Healthy))
        .collect();
    let healthy: Vec<TrainingReport> = data::sweep(healthy_specs)
        .into_iter()
        .map(|r| r.report)
        .collect();

    // Phase 2: every remaining (strategy × scenario) cell in one sweep.
    let mut fault_specs = Vec::new();
    for ((_, strategy), healthy) in baselines.iter().zip(&healthy) {
        let wall = healthy.resilience.wall_time.as_secs();
        for scenario in fault_matrix_scenarios(wall).into_iter().skip(1) {
            fault_specs.push(cell_spec(strategy, &model, &scenario));
        }
    }
    let per_strategy = fault_matrix_scenarios(1.0).len() - 1;
    let mut faulted = data::sweep(fault_specs).into_iter().map(|r| r.report);

    let mut rows = Vec::new();
    for ((name, _), healthy) in baselines.iter().zip(healthy) {
        let mut reports = vec![healthy];
        reports.extend(faulted.by_ref().take(per_strategy));
        rows.push((*name, reports));
    }
    rows
}

/// Runs the ZeRO-Infinity NVMe-stall study: config B (two-drive RAID0
/// scratch), healthy vs. a mid-run device stall at 5% service rate.
/// Returns (healthy, stalled) reports.
pub fn infinity_stall_cells() -> (TrainingReport, TrainingReport) {
    let model = GptConfig::paper_model_with_params(MATRIX_BILLIONS);
    let spec_for = |scenario: &FaultScenario| -> SweepSpec {
        let label = format!("infinity B / {}", scenario.label());
        let spec = NvmeConfig::B.spec(label, false, model, matrix_run_config());
        with_matrix_faults(spec, scenario)
    };
    // Healthy pre-pass anchors the stall window.
    let healthy = spec_for(&FaultScenario::Healthy)
        .execute()
        .expect("infinity config fits")
        .report;
    let wall = healthy.resilience.wall_time.as_secs();
    let stalled = spec_for(&FaultScenario::NvmeStall {
        node: 0,
        factor: 0.05,
        at_s: 0.25 * wall,
        dur_s: 0.5 * wall,
    })
    .execute()
    .expect("infinity config fits")
    .report;
    (healthy, stalled)
}

/// The goodput table: strategy × fault scenario, in TFLOP/s.
pub fn goodput_table() -> String {
    let mut t = Table::new(vec![
        "strategy",
        "healthy",
        "RoCE@50%",
        "RoCE@10%",
        "straggler 0.7x",
        "NVMe stall",
        "node loss",
    ]);
    let mut detail = Table::new(vec![
        "strategy",
        "p50",
        "p99",
        "replayed",
        "ckpts",
        "recoveries",
        "TTR",
    ]);
    for (name, reports) in matrix_rows() {
        let mut row = vec![name.to_string()];
        for r in &reports {
            row.push(format!("{:.1}", r.resilience.goodput_tflops()));
        }
        t.row(row);
        let loss = &reports.last().expect("node-loss cell").resilience;
        detail.row(vec![
            name.to_string(),
            format!("{:.0} ms", loss.iter_p50.as_millis()),
            format!("{:.0} ms", loss.iter_p99.as_millis()),
            format!("{}", loss.replayed_iterations),
            format!("{}", loss.checkpoints_taken),
            format!("{}", loss.recoveries),
            format!("{:.2} s", loss.time_to_recover().as_secs()),
        ]);
    }
    let (inf_healthy, inf_stalled) = infinity_stall_cells();
    let mut inf = Table::new(vec!["ZeRO-Infinity (config B)", "goodput", "p50", "p99"]);
    for (label, r) in [("healthy", &inf_healthy), ("NVMe stall@5%", &inf_stalled)] {
        let m = &r.resilience;
        inf.row(vec![
            label.to_string(),
            format!("{:.1} TFLOP/s", m.goodput_tflops()),
            format!("{:.0} ms", m.iter_p50.as_millis()),
            format!("{:.0} ms", m.iter_p99.as_millis()),
        ]);
    }
    format!(
        "Fault matrix — goodput (TFLOP/s) at {MATRIX_BILLIONS} B on {MATRIX_NODES} nodes:\n{}\n\
         RoCE@50% is free: dual-node collectives are protocol-bound far below\n\
         line rate (ext5), so the wire only binds once it degrades past the\n\
         ~27% attainment of Table IV — hence the RoCE@10% collapse.\n\
         The NVMe stall is invisible to strategies that never touch the\n\
         staging tier; it lands on ZeRO-Infinity, whose optimizer state\n\
         lives behind the stalled drives:\n{}\n\
         Node-loss recovery detail (checkpoint every 2 iterations, DRAM sink):\n{}",
        t.render(),
        inf.render(),
        detail.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_cell_loses_goodput_but_stays_deterministic() {
        let model = GptConfig::paper_model_with_params(MATRIX_BILLIONS);
        let strategy = Strategy::Ddp;
        let healthy = run_cell(&strategy, &model, &FaultScenario::Healthy);
        let scenario = FaultScenario::Straggler {
            gpu: GpuId { node: 0, gpu: 1 },
            factor: 0.7,
            at_s: 0.0,
        };
        let a = run_cell(&strategy, &model, &scenario);
        let b = run_cell(&strategy, &model, &scenario);
        assert_eq!(a.digest(), b.digest(), "same seed+schedule, same bytes");
        assert_eq!(a.resilience, b.resilience);
        let hm = &healthy.resilience;
        let sm = &a.resilience;
        assert!(
            sm.goodput_flops < hm.goodput_flops,
            "straggler goodput {} must trail healthy {}",
            sm.goodput_flops,
            hm.goodput_flops
        );
        assert_eq!(sm.faults_applied, 1);
    }

    #[test]
    fn nvme_stall_bites_zero_infinity_but_not_ddp() {
        // DDP never touches the staging tier: the stall is invisible.
        let model = GptConfig::paper_model_with_params(MATRIX_BILLIONS);
        let healthy = run_cell(&Strategy::Ddp, &model, &FaultScenario::Healthy);
        let wall = healthy.resilience.wall_time.as_secs();
        let stalled = run_cell(
            &Strategy::Ddp,
            &model,
            &FaultScenario::NvmeStall {
                node: 0,
                factor: 0.05,
                at_s: 0.25 * wall,
                dur_s: 0.25 * wall,
            },
        );
        let hm = &healthy.resilience;
        let dm = &stalled.resilience;
        assert_eq!(hm.goodput_flops, dm.goodput_flops, "DDP ignores NVMe");
        // ZeRO-Infinity stages optimizer state through the stalled drives.
        let (inf_healthy, inf_stalled) = infinity_stall_cells();
        let ihm = &inf_healthy.resilience;
        let ism = &inf_stalled.resilience;
        assert!(ism.faults_applied >= 1, "stall events must fire");
        assert!(
            ism.goodput_flops < 0.95 * ihm.goodput_flops,
            "stalled goodput {} must trail healthy {}",
            ism.goodput_flops,
            ihm.goodput_flops
        );
    }

    #[test]
    fn node_loss_cell_recovers_for_zero3() {
        let model = GptConfig::paper_model_with_params(MATRIX_BILLIONS);
        let strategy = Strategy::Zero {
            stage: zerosim_strategies::ZeroStage::Three,
        };
        let healthy = run_cell(&strategy, &model, &FaultScenario::Healthy);
        let wall = healthy.resilience.wall_time.as_secs();
        let loss = run_cell(
            &strategy,
            &model,
            &FaultScenario::NodeLoss {
                node: 1,
                at_s: 0.55 * wall,
            },
        );
        let m = &loss.resilience;
        assert_eq!(m.recoveries, 1);
        assert!(m.checkpoints_taken >= 1);
        assert!(m.goodput_flops < healthy.resilience.goodput_flops);
    }
}
