//! Energy accounting — quantifying the environmental-impact motivation of
//! the paper's introduction ("the energy required and the environmental
//! impact become more concerning").
//!
//! Power is integrated from the simulated timelines: devices draw busy
//! power during their spans and idle power otherwise, plus a constant
//! node platform draw (fans, VRs, switches).

use crate::report::TrainingReport;
use crate::timeline::profile_tracks;

/// Device power draws, watts. Defaults follow the paper's hardware: 400 W
/// A100-SXM4 modules (Table II), 280 W EPYC 7763 sockets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// GPU draw while executing kernels.
    pub gpu_busy_w: f64,
    /// GPU draw while idle (HBM refresh, leakage).
    pub gpu_idle_w: f64,
    /// CPU socket draw while computing (CPU-Adam).
    pub cpu_busy_w: f64,
    /// CPU socket draw otherwise.
    pub cpu_idle_w: f64,
    /// Constant per-node platform draw (DRAM, NICs, NVMe, fans, PSU loss).
    pub node_base_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            gpu_busy_w: 400.0,
            gpu_idle_w: 60.0,
            cpu_busy_w: 280.0,
            cpu_idle_w: 90.0,
            node_base_w: 350.0,
        }
    }
}

/// Energy breakdown of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Joules drawn by GPUs.
    pub gpu_j: f64,
    /// Joules drawn by CPU sockets.
    pub cpu_j: f64,
    /// Joules drawn by the node platforms.
    pub platform_j: f64,
    /// Tokens processed in the iteration.
    pub tokens: f64,
    /// Iteration wall time, seconds.
    pub iter_secs: f64,
}

impl EnergyReport {
    /// Total joules per iteration.
    pub fn total_j(&self) -> f64 {
        self.gpu_j + self.cpu_j + self.platform_j
    }

    /// Energy efficiency in tokens per joule (higher is better).
    pub fn tokens_per_joule(&self) -> f64 {
        self.tokens / self.total_j()
    }

    /// Average power draw over the iteration, watts.
    pub fn avg_power_w(&self) -> f64 {
        self.total_j() / self.iter_secs
    }
}

impl PowerModel {
    /// Integrates power over a characterization run's timeline.
    ///
    /// GPU/CPU busy times come from the span log (tracks < total GPUs are
    /// GPUs; the rest are CPU sockets); everything else idles.
    pub fn estimate(&self, report: &TrainingReport, gpus_per_node: usize) -> EnergyReport {
        let iters = 1.0; // spans cover the measured iterations
        let total_secs = report.iter_time.as_secs() * iters;
        let num_gpus = report.nodes * gpus_per_node;
        let num_sockets = report.nodes * 2;

        // Busy seconds per device class over ALL measured iterations,
        // normalized by the span horizon → one iteration.
        let profiles = profile_tracks(&report.spans);
        let horizon: f64 = profiles
            .iter()
            .map(|p| p.extent.as_secs())
            .fold(0.0, f64::max)
            .max(1e-12);
        let scale = total_secs / horizon;
        let mut gpu_busy = 0.0;
        let mut cpu_busy = 0.0;
        for p in &profiles {
            let busy = p.busy.as_secs().min(p.extent.as_secs()) * scale;
            if (p.track as usize) < num_gpus {
                gpu_busy += busy;
            } else {
                cpu_busy += busy;
            }
        }
        let gpu_total = num_gpus as f64 * total_secs;
        let cpu_total = num_sockets as f64 * total_secs;
        let gpu_busy = gpu_busy.min(gpu_total);
        let cpu_busy = cpu_busy.min(cpu_total);

        EnergyReport {
            gpu_j: gpu_busy * self.gpu_busy_w + (gpu_total - gpu_busy) * self.gpu_idle_w,
            cpu_j: cpu_busy * self.cpu_busy_w + (cpu_total - cpu_busy) * self.cpu_idle_w,
            platform_j: report.nodes as f64 * self.node_base_w * total_secs,
            tokens: report.tokens_per_iteration,
            iter_secs: total_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunConfig, TrainingSim};
    use zerosim_hw::ClusterSpec;
    use zerosim_model::GptConfig;
    use zerosim_strategies::{Strategy, TrainOptions, ZeroStage};

    fn report(strategy: Strategy, nodes: usize) -> TrainingReport {
        let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
        let opts = if nodes == 1 {
            TrainOptions::single_node()
        } else {
            TrainOptions::dual_node()
        };
        let cfg = RunConfig {
            allow_overflow: true,
            ..RunConfig::quick()
        };
        sim.run(
            &strategy,
            &GptConfig::paper_model_with_params(1.4),
            &opts,
            &cfg,
        )
        .unwrap()
    }

    #[test]
    fn energy_is_positive_and_bounded_by_peak_power() {
        let r = report(Strategy::Ddp, 1);
        let e = PowerModel::default().estimate(&r, 4);
        assert!(e.total_j() > 0.0);
        // Peak possible: 4 GPUs busy + 2 CPUs busy + platform.
        let peak_w = 4.0 * 400.0 + 2.0 * 280.0 + 350.0;
        assert!(e.avg_power_w() <= peak_w, "{} > {peak_w}", e.avg_power_w());
        assert!(e.avg_power_w() > 350.0, "at least the platform draw");
        assert!(e.tokens_per_joule() > 0.0);
    }

    #[test]
    fn offload_burns_more_energy_per_token() {
        // GPUs idle (at 60 W) while the CPU crunches Adam: fewer tokens
        // per joule than keeping everything on-GPU.
        let on_gpu = PowerModel::default().estimate(&report(Strategy::Ddp, 1), 4);
        let offload = PowerModel::default().estimate(
            &report(
                Strategy::ZeroOffload {
                    stage: ZeroStage::Two,
                    offload_params: false,
                },
                1,
            ),
            4,
        );
        assert!(
            offload.tokens_per_joule() < on_gpu.tokens_per_joule(),
            "offload {} vs on-gpu {}",
            offload.tokens_per_joule(),
            on_gpu.tokens_per_joule()
        );
    }

    #[test]
    fn dual_node_megatron_wastes_energy() {
        // Two nodes' worth of power for a fraction of the throughput.
        let single = PowerModel::default().estimate(&report(Strategy::Ddp, 1), 4);
        let megatron =
            PowerModel::default().estimate(&report(Strategy::Megatron { tp: 8, pp: 1 }, 2), 4);
        assert!(megatron.tokens_per_joule() < 0.5 * single.tokens_per_joule());
    }
}
