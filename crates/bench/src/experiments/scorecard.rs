//! The reproduction scorecard: every headline number of the paper next to
//! the simulated value, with the relative delta and a pass/fail verdict —
//! EXPERIMENTS.md as machine-checkable code.

use zerosim_core::{RunConfig, SweepRun};
use zerosim_hw::LinkClass;
use zerosim_model::GptConfig;
use zerosim_perftest::{stress_test, StressScenario};
use zerosim_report::Table;
use zerosim_strategies::{Strategy, TrainOptions, ZeroStage};

use crate::data::{self, NvmeConfig};
use crate::experiments::{offload, train};

/// One scorecard line.
#[derive(Debug, Clone)]
pub struct ScoreRow {
    /// What is being compared (artifact + metric).
    pub metric: String,
    /// The paper's value.
    pub paper: f64,
    /// ZeroSim's value.
    pub sim: f64,
    /// Acceptable relative deviation for a pass.
    pub tolerance: f64,
}

impl ScoreRow {
    /// Relative deviation of sim from paper.
    pub fn delta(&self) -> f64 {
        (self.sim - self.paper) / self.paper
    }

    /// True when within tolerance.
    pub fn pass(&self) -> bool {
        self.delta().abs() <= self.tolerance
    }
}

/// Every simulation run the scorecard needs, as one spec batch in a
/// fixed order (capacity searches stay serial: they are analytic, not
/// simulation runs). The order here is consumed positionally by
/// [`compute_rows`].
fn scorecard_specs() -> Vec<zerosim_core::SweepSpec> {
    let mut specs = Vec::new();

    // fig7: each baseline at its own capacity, quick measurement.
    for nodes in [1usize, 2] {
        specs.extend(train::baseline_specs(nodes, false));
    }

    // fig11: consolidation runs at 11.4 B, overflow allowed.
    let model = GptConfig::paper_model_with_params(11.4);
    let overflow = RunConfig {
        allow_overflow: true,
        ..RunConfig::quick()
    };
    specs.push(
        data::spec(
            "fig11 megatron 2n",
            Strategy::Megatron { tp: 8, pp: 1 },
            model,
            2,
            false,
        )
        .with_run(overflow),
    );
    specs.push(
        data::spec(
            "fig11 zero2-cpu 1n",
            data::cpu_offload(ZeroStage::Two),
            model,
            1,
            false,
        )
        .with_run(overflow),
    );
    let inf_rc = RunConfig {
        allow_overflow: true,
        warmup_iters: 1,
        measure_iters: 1,
        ..RunConfig::default()
    };
    specs.push(NvmeConfig::A.spec("fig11 infinity A", false, model, inf_rc));
    specs.push(NvmeConfig::B.spec("fig11 infinity B", false, model, inf_rc));

    // table4: DDP / ZeRO-3 dual-node at capacity, thorough measurement.
    for strategy in [
        Strategy::Ddp,
        Strategy::Zero {
            stage: ZeroStage::Three,
        },
    ] {
        let label = format!("table4 {} 2n", strategy.name());
        let spec = data::spec(label, strategy, GptConfig::paper_model(1), 2, true);
        specs.push(data::at_capacity(spec).1);
    }

    // table6: every NVMe placement at 33.3 B.
    specs.extend(offload::table6_specs());

    specs
}

/// Computes every scorecard row. Capacity searches run serially; all
/// simulation runs fan out through [`data::sweep`] at the configured
/// worker count (`repro --workers N`).
pub fn compute_rows() -> Vec<ScoreRow> {
    let mut rows = Vec::new();
    let mut add = |metric: &str, paper: f64, sim: f64, tolerance: f64| {
        rows.push(ScoreRow {
            metric: metric.to_string(),
            paper,
            sim,
            tolerance,
        });
    };

    // Fan every simulation run out in one parallel sweep up front;
    // results come back in spec order and are consumed positionally.
    let runs = data::sweep(scorecard_specs());
    let mut runs = runs.into_iter();
    let mut next = || -> SweepRun { runs.next().expect("scorecard spec batch exhausted") };

    // --- Fig. 4: stress-test fractions (tight: these calibrate the model).
    for (name, scenario, paper) in [
        (
            "fig4: CPU-RoCE same-socket %",
            StressScenario::CpuRoce {
                cross_socket: false,
            },
            93.0,
        ),
        (
            "fig4: CPU-RoCE cross-socket %",
            StressScenario::CpuRoce { cross_socket: true },
            47.0,
        ),
        (
            "fig4: GPU-RoCE same-socket %",
            StressScenario::GpuRoce {
                cross_socket: false,
            },
            52.0,
        ),
        (
            "fig4: GPU-RoCE cross-socket %",
            StressScenario::GpuRoce { cross_socket: true },
            42.0,
        ),
    ] {
        add(
            name,
            paper,
            stress_test(scenario).roce_fraction * 100.0,
            0.06,
        );
    }

    // --- Fig. 6: capacities.
    let baselines = data::baselines(1);
    let paper_cap_1 = [1.4, 5.5, 4.4, 5.2, 6.6];
    let paper_cap_2 = [1.4, 11.4, 6.4, 8.5, 13.5];
    for (i, (name, strategy)) in baselines.iter().enumerate() {
        add(
            &format!("fig6: {name} capacity 1-node B"),
            paper_cap_1[i],
            data::capacity(strategy, 1).billions(),
            0.20,
        );
    }
    for (i, (name, strategy)) in data::baselines(2).iter().enumerate() {
        add(
            &format!("fig6: {name} capacity 2-node B"),
            paper_cap_2[i],
            data::capacity(strategy, 2).billions(),
            0.20,
        );
    }

    // --- Fig. 7: throughputs (sweep positions 0–9).
    let paper_tput_1 = [438.0, 331.0, 391.0, 524.0, 381.0];
    let paper_tput_2 = [640.0, 121.0, 395.0, 424.0, 458.0];
    for (i, (name, _)) in data::baselines(1).iter().enumerate() {
        add(
            &format!("fig7: {name} TFLOP/s 1-node"),
            paper_tput_1[i],
            next().report.throughput_tflops(),
            0.25,
        );
    }
    for (i, (name, _)) in data::baselines(2).iter().enumerate() {
        add(
            &format!("fig7: {name} TFLOP/s 2-node"),
            paper_tput_2[i],
            next().report.throughput_tflops(),
            0.30,
        );
    }

    // --- Fig. 11: consolidation (sweep positions 10–13).
    let megatron_dual = next().report.throughput_tflops();
    let z2_cpu = next().report.throughput_tflops();
    add(
        "fig11: Megatron 2-node TFLOP/s @11.4B",
        121.0,
        megatron_dual,
        0.25,
    );
    add("fig11: ZeRO-2 CPU TFLOP/s @11.4B", 191.0, z2_cpu, 0.25);
    add(
        "fig11: consolidation speedup x",
        1.578,
        z2_cpu / megatron_dual,
        0.20,
    );

    // ZeRO-Infinity with one and two drives.
    add(
        "fig11: Infinity 1xNVME opt TFLOP/s",
        20.4,
        next().report.throughput_tflops(),
        0.30,
    );
    add(
        "fig11: Infinity 2xNVME opt TFLOP/s",
        38.1,
        next().report.throughput_tflops(),
        0.30,
    );

    // --- Fig. 13: largest single-node offload models.
    add(
        "fig13: ZeRO-2 CPU capacity B",
        14.2,
        data::capacity(&data::cpu_offload(ZeroStage::Two), 1).billions(),
        0.20,
    );
    let infinity = data::paper_infinity(
        "fig13 infinity",
        false,
        GptConfig::paper_model(1),
        TrainOptions::single_node(),
    );
    add(
        "fig13: ZeRO-Infinity capacity B",
        33.3,
        data::capacity_of(&infinity).billions(),
        0.20,
    );

    // --- Table IV spot checks (sweep positions 14–15): dual-node RoCE
    // averages (loose: counter conventions differ; see EXPERIMENTS.md).
    let roce_avg =
        |run: SweepRun| -> f64 { run.report.bandwidth.stats(0, LinkClass::Roce).avg / 1e9 };
    add(
        "table4: DDP 2-node RoCE avg GBps",
        9.28,
        roce_avg(next()),
        1.5,
    );
    add(
        "table4: ZeRO-3 2-node RoCE avg GBps",
        16.3,
        roce_avg(next()),
        1.0,
    );

    // --- Table VI (sweep positions 16–22): NVMe placements at 33.3 B.
    let paper_t6 = [19.6, 37.16, 35.43, 40.22, 51.22, 64.61, 65.16];
    for (i, cfg) in NvmeConfig::ALL.into_iter().enumerate() {
        add(
            &format!("table6: config {} TFLOP/s", cfg.letter()),
            paper_t6[i],
            next().report.throughput_tflops(),
            0.30,
        );
    }

    assert!(runs.next().is_none(), "unconsumed scorecard sweep results");
    rows
}

/// Renders the scorecard.
pub fn scorecard() -> String {
    let rows = compute_rows();
    let mut t = Table::new(vec!["metric", "paper", "sim", "delta %", "verdict"]);
    let mut passes = 0;
    for r in &rows {
        if r.pass() {
            passes += 1;
        }
        t.row(vec![
            r.metric.clone(),
            format!("{:.2}", r.paper),
            format!("{:.2}", r.sim),
            format!("{:+.1}", r.delta() * 100.0),
            if r.pass() {
                "pass".into()
            } else {
                "MISS".into()
            },
        ]);
    }
    format!(
        "Reproduction scorecard ({passes}/{} within tolerance):\n{}\n\
         Tolerances per row reflect how directly the quantity is calibrated\n\
         (stress tests ±6%) vs emergent (throughputs ±25–30%, counters looser).\n\
         Rows marked MISS are the known deviations listed in EXPERIMENTS.md.\n",
        rows.len(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scorecard_mostly_passes() {
        let rows = compute_rows();
        let passes = rows.iter().filter(|r| r.pass()).count();
        let misses: Vec<&ScoreRow> = rows.iter().filter(|r| !r.pass()).collect();
        // The two known deviations (ZeRO-1 throughputs) may miss; nothing
        // else should.
        assert!(
            passes + 3 >= rows.len(),
            "too many misses ({} of {}): {:#?}",
            rows.len() - passes,
            rows.len(),
            misses
        );
        for r in &misses {
            assert!(
                r.metric.contains("ZeRO-1")
                    || r.metric.contains("config D")
                    || r.metric.contains("config G"),
                "unexpected miss: {r:?}"
            );
        }
    }
}
