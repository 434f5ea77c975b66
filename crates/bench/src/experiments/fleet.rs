//! ext13 — fleet-scale resilience economics.
//!
//! Two studies compose the PR-8 fleet layer end to end:
//!
//! 1. **The fleetplan cost search** — rank (strategy × placement ×
//!    checkpoint interval) by dollars-to-train on a fat-tree fleet at a
//!    production failure rate, charging amortized capital plus energy
//!    against failure-adjusted goodput.
//! 2. **Young/Daly validation** — for three golden configurations, replay
//!    the *same* MTBF-sampled fault ensembles at half, exactly, and twice
//!    the analytic checkpoint interval and confirm the analytic optimum
//!    wins on simulated goodput. The ensembles run at a compressed MTBF
//!    (the Young/Daly trade-off is self-similar in `√(C·M)`, so a
//!    seconds-scale window exercises the same physics as a 50-day one in
//!    a tractable number of simulated iterations).
//!
//! Everything is seed-stamped and byte-identical at any sweep width. The
//! artifact ends with one digest over all three brackets, and
//! `verify.sh` gates on it: every bracket row must read `yes`, and the
//! artifact must be byte-identical at `--workers` 1 and 4.

use zerosim_core::{
    fleet_search, young_daly_bracket, EnsembleConfig, FleetCostConfig, FleetProfile, FleetReport,
    RecoveryPolicy, RunConfig, SweepSpec, YoungDalyBracket,
};
use zerosim_hw::{ClusterSpec, TopologySpec};
use zerosim_model::GptConfig;
use zerosim_report::Table;
use zerosim_strategies::{Strategy, TrainOptions, ZeroStage};

use crate::data;

/// Model size of the golden bracket configs (the paper's 1.4 B baseline).
pub const GOLDEN_BILLIONS: f64 = 1.4;

/// Samples per ensemble in the release artifact (the acceptance floor).
pub const ENSEMBLE_SAMPLES: usize = 32;

/// Seed stamped onto every golden ensemble.
pub const ENSEMBLE_SEED: u64 = 2024;

/// Measured iterations per sample: long enough that checkpoint cadence
/// and mid-run losses both move goodput.
pub const GOLDEN_MEASURE_ITERS: usize = 24;

/// The compressed-MTBF calibration targets the Young interval at this
/// many iterations, so the 0.5×/1×/2× bracket spans distinct cadences.
const K_TARGET: f64 = 4.0;

/// The three golden configurations the Young/Daly gate covers: the
/// paper's replication baseline, a sharded-optimizer config, and a fully
/// partitioned dual-node config (checkpoint shards shrink with world
/// size, so `C` — and with it the optimal interval — differs per row).
pub fn golden_configs() -> Vec<(&'static str, Strategy, usize)> {
    vec![
        ("PyTorch DDP @ 1 node", Strategy::Ddp, 1),
        (
            "ZeRO-2 @ 1 node",
            Strategy::Zero {
                stage: ZeroStage::Two,
            },
            1,
        ),
        (
            "ZeRO-3 @ 2 nodes",
            Strategy::Zero {
                stage: ZeroStage::Three,
            },
            2,
        ),
    ]
}

/// Runs the Young/Daly bracket for one golden configuration: measures the
/// healthy iteration time and the DRAM checkpoint cost, compresses the
/// node-fatal MTBF so the analytic interval lands near four
/// iterations, and replays the same `samples` sampled schedules at half,
/// exactly, and twice that interval.
///
/// # Panics
/// Panics when the golden configuration fails to fit or run — these are
/// the paper's own baseline shapes, so that is a harness bug.
pub fn golden_bracket(
    name: &str,
    strategy: &Strategy,
    nodes: usize,
    samples: usize,
    measure_iters: usize,
    workers: usize,
) -> YoungDalyBracket {
    let model = GptConfig::paper_model_with_params(GOLDEN_BILLIONS);
    let opts = TrainOptions::for_nodes(nodes);
    let run = RunConfig {
        warmup_iters: 0,
        measure_iters,
        ..RunConfig::default()
    };
    let base = SweepSpec::new(format!("fleet / {name}"), strategy.clone(), model, opts)
        .with_cluster(ClusterSpec::default().with_nodes(nodes))
        .with_run(run);
    let healthy = base.execute().expect("golden config runs healthy");
    let iter_s = healthy.report.iter_time.as_secs();
    let wall_s = iter_s * measure_iters as f64;

    let ckpt_cost_s = base
        .build_sim()
        .and_then(|mut sim| sim.checkpoint_cost(&model, &opts))
        .expect("checkpoint plan lowers");

    // Compress the fatal MTBF so τ_young = √(2·C·M) = K_TARGET
    // iterations: M_eff = (K·t_iter)² / (2C). The sampler caps losses at
    // one per node, so invert that cap to find the per-node mean whose
    // capped sampling realizes M_eff over the window.
    let mtbf_eff = (K_TARGET * iter_s).powi(2) / (2.0 * ckpt_cost_s);
    let mtbf_node = FleetProfile::node_mtbf_for_effective(nodes, wall_s, mtbf_eff)
        // When the target cadence would need more losses than the
        // one-per-node cap can deliver, saturate at an 80% per-node loss
        // probability — the bracket recomputes the optimum from the
        // *realized* effective rate, so it stays self-consistent.
        .unwrap_or(-wall_s / 0.2f64.ln());
    // Vacuous-bracket guard: a bracket where losses never fire measures
    // only checkpoint overhead and always crowns the laziest cadence.
    // Keep the per-node loss probability high enough for ≈8 expected
    // losses across the whole ensemble (capped at 80%); at the release
    // budget (32 samples) the natural rate already clears this.
    let p_nat = 1.0 - (-wall_s / mtbf_node).exp();
    let p_floor = (8.0 / (samples * nodes) as f64).min(0.8);
    let mtbf_node = if p_nat < p_floor {
        -wall_s / (1.0 - p_floor).ln()
    } else {
        mtbf_node
    };
    let profile = FleetProfile::node_only(mtbf_node);
    let cfg = EnsembleConfig::new(samples, wall_s)
        .with_seed(ENSEMBLE_SEED)
        .with_workers(workers)
        .with_policy(
            RecoveryPolicy::every(1)
                .with_restart_delay((0.5 * iter_s).max(1e-3))
                .with_max_recoveries(64),
        );
    young_daly_bracket(&base, &profile, &cfg, ckpt_cost_s, iter_s).expect("bracket ensembles run")
}

/// All three golden brackets at the artifact's sample count.
pub fn golden_brackets(samples: usize, workers: usize) -> Vec<(&'static str, YoungDalyBracket)> {
    golden_configs()
        .into_iter()
        .map(|(name, strategy, nodes)| {
            (
                name,
                golden_bracket(
                    name,
                    &strategy,
                    nodes,
                    samples,
                    GOLDEN_MEASURE_ITERS,
                    workers,
                ),
            )
        })
        .collect()
}

/// The ext13 fleet search: the paper's 1.4 B model on a 4-node fat-tree
/// at a production failure rate.
pub fn ext13_search() -> FleetReport {
    let topology = TopologySpec::FatTree {
        racks: 2,
        nodes_per_rack: 2,
        oversubscription: 2.0,
    };
    let cfg = FleetCostConfig::new(
        topology,
        GptConfig::paper_model_with_params(GOLDEN_BILLIONS),
        0.05,
    )
    .with_workers(data::sweep_workers())
    .with_top(4);
    fleet_search(&cfg).expect("fleet search runs")
}

/// One fingerprint over every bracket's [`YoungDalyBracket::digest`], in
/// order.
fn brackets_digest(brackets: &[(&'static str, YoungDalyBracket)]) -> u64 {
    brackets
        .iter()
        .fold(0x424e_4348, |h, (_, b)| h.rotate_left(17) ^ b.digest())
}

/// Renders the Young/Daly bracket table.
pub fn bracket_table(brackets: &[(&'static str, YoungDalyBracket)]) -> String {
    let mut t = Table::new(vec![
        "config",
        "C (s)",
        "M_sys (s)",
        "tau (s)",
        "gp @ tau/2",
        "gp @ tau",
        "gp @ 2tau",
        "YD wins",
    ]);
    for (name, b) in brackets {
        t.row(vec![
            (*name).to_string(),
            format!("{:.3}", b.ckpt_cost_s),
            format!("{:.2}", b.mtbf_s),
            format!("{:.2}", b.interval_s),
            format!("{:.1}", b.half.mean_goodput_tflops),
            format!("{:.1}", b.opt.mean_goodput_tflops),
            format!("{:.1}", b.double.mean_goodput_tflops),
            if b.yd_wins() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.render()
}

/// The full ext13 artifact: the fleetplan cost ranking plus the
/// Young/Daly validation table.
pub fn ext13_fleet_economics() -> String {
    let report = ext13_search();
    let brackets = golden_brackets(ENSEMBLE_SAMPLES, data::sweep_workers());
    format!(
        "{}\n\
         Checkpoint shards shrink with world size (a ZeRO-partitioned\n\
         save), so C — and with it the Young/Daly interval — is a\n\
         per-configuration quantity, not a cluster constant.\n\n\
         Young/Daly validation — mean goodput (TFLOP/s) over {} MTBF-sampled\n\
         fault ensembles per cell, same sampled schedules at every cadence\n\
         (compressed MTBF, seed {}):\n{}\
         bracket digest: {:016x}\n",
        report.render_text(),
        ENSEMBLE_SAMPLES,
        ENSEMBLE_SEED,
        bracket_table(&brackets),
        brackets_digest(&brackets),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_bracket_daly_wins() {
        // Debug-budget bracket: fewer samples, shorter runs. The win
        // assertion is the same physics the release gate checks at 32
        // samples; width-invariance of the digests is gated in release by
        // `scripts/verify.sh` (`repro ext13` at --workers 1 vs 4) and by
        // the core ensemble tests.
        let (name, strategy, nodes) = golden_configs().remove(0);
        let a = golden_bracket(name, &strategy, nodes, 8, 12, 2);
        assert!(
            a.yd_wins(),
            "Young/Daly must beat both bracket points: {:?} vs {:?} / {:?}",
            a.opt,
            a.half,
            a.double
        );
        assert!(
            a.opt.failed == 0,
            "golden ensembles must not exhaust recovery"
        );
    }

    #[test]
    fn search_ranks_feasible_candidates() {
        let report = ext13_search();
        assert!(!report.candidates.is_empty());
        let best = report.best().expect("at least one costed candidate");
        assert!(best.feasible);
        assert!(best.dollars_to_train > 0.0);
        assert!(best.goodput_tflops <= best.throughput_tflops);
        // Ranking is cheapest-first.
        for w in report.candidates.windows(2) {
            if w[0].feasible && w[1].feasible {
                assert!(w[0].dollars_to_train <= w[1].dollars_to_train);
            }
        }
    }
}
