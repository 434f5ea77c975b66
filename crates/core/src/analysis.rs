//! Bottleneck attribution: decompose a measured iteration into compute,
//! exposed communication, exposed staging, and idle — the "why is this
//! configuration slow" analysis behind the paper's Sec. IV/V narratives.

use zerosim_simkit::SimTime;

use crate::report::TrainingReport;

/// Span labels counted as GPU compute.
const COMPUTE: [&str; 4] = ["gemm", "elementwise", "weight_update", "transform"];
/// Span labels counted as collective communication.
const COMM: [&str; 3] = ["allreduce", "allgather", "reducescatter"];
/// Span labels counted as host/NVMe staging.
const STAGING: [&str; 6] = [
    "h2d",
    "d2h",
    "nvme_read",
    "nvme_write",
    "p2p_act",
    "p2p_grad",
];

/// Where one GPU's iteration time goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// GPU track this breakdown describes.
    pub track: u32,
    /// Time covered by compute kernels.
    pub compute: SimTime,
    /// Communication time NOT hidden under compute.
    pub exposed_comm: SimTime,
    /// Staging (host/NVMe/pipeline) time hidden by neither compute nor
    /// communication.
    pub exposed_staging: SimTime,
    /// Remaining wall time: the GPU waits on something off-device (CPU
    /// Adam, another rank, the scheduler).
    pub idle: SimTime,
    /// Total wall time analysed.
    pub total: SimTime,
}

impl TimeBreakdown {
    /// Fraction of wall time in compute.
    pub fn compute_frac(&self) -> f64 {
        self.compute.as_secs() / self.total.as_secs().max(1e-12)
    }

    /// Fraction of wall time stalled on exposed communication.
    pub fn comm_frac(&self) -> f64 {
        self.exposed_comm.as_secs() / self.total.as_secs().max(1e-12)
    }

    /// The dominant non-compute component, as a label for reports.
    pub fn bottleneck(&self) -> &'static str {
        let comm = self.exposed_comm.as_secs();
        let staging = self.exposed_staging.as_secs();
        let idle = self.idle.as_secs();
        if comm >= staging && comm >= idle {
            "communication"
        } else if staging >= idle {
            "staging"
        } else {
            "host/other"
        }
    }
}

/// Attributes the measured window of `report` for GPU `track`.
///
/// Uses interval-union coverage, so overlapping spans are not
/// double-counted and communication hidden under compute is excluded.
pub fn attribute_gpu(report: &TrainingReport, track: u32) -> TimeBreakdown {
    let spans = &report.spans;
    let compute = spans.coverage(track, &COMPUTE);
    let exposed_comm = spans.exposed(track, &COMM, &COMPUTE);
    let both: Vec<&str> = COMPUTE.iter().chain(COMM.iter()).copied().collect();
    let exposed_staging = spans.exposed(track, &STAGING, &both);
    // Wall time for this track: bound by the report's measured makespan.
    let horizon = spans
        .track(track)
        .last()
        .map(|s| s.end)
        .unwrap_or(SimTime::ZERO);
    let start = spans
        .track(track)
        .first()
        .map(|s| s.start)
        .unwrap_or(SimTime::ZERO);
    let total = horizon.saturating_sub(start);
    let busy = compute + exposed_comm + exposed_staging;
    TimeBreakdown {
        track,
        compute,
        exposed_comm,
        exposed_staging,
        idle: total.saturating_sub(busy),
        total,
    }
}

/// Attributes every GPU of the run and returns the per-GPU breakdowns,
/// sorted by track.
// GPU counts are small (tens), far below u32::MAX.
#[allow(clippy::cast_possible_truncation)]
pub fn attribute_all_gpus(report: &TrainingReport, gpus_per_node: usize) -> Vec<TimeBreakdown> {
    (0..(report.nodes * gpus_per_node) as u32)
        .map(|t| attribute_gpu(report, t))
        .collect()
}

/// The run-level bottleneck: the breakdown of the GPU with the most
/// exposed communication (on ring schedules only the node-boundary ranks
/// carry the inter-node flows; their track shows where the time really
/// goes while their peers just read as idle).
pub fn attribute_worst_gpu(report: &TrainingReport, gpus_per_node: usize) -> TimeBreakdown {
    attribute_all_gpus(report, gpus_per_node)
        .into_iter()
        .max_by_key(|a| a.exposed_comm)
        .unwrap_or(TimeBreakdown {
            track: 0,
            compute: SimTime::ZERO,
            exposed_comm: SimTime::ZERO,
            exposed_staging: SimTime::ZERO,
            idle: SimTime::ZERO,
            total: SimTime::ZERO,
        })
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
    fn ddp_single_node_is_compute_dominated() {
        let b = attribute_gpu(&report(Strategy::Ddp, 1), 0);
        assert!(b.compute_frac() > 0.6, "compute frac {}", b.compute_frac());
        assert!(b.comm_frac() < 0.2, "comm frac {}", b.comm_frac());
        let parts = b.compute + b.exposed_comm + b.exposed_staging + b.idle;
        assert_eq!(parts, b.total, "breakdown must partition the wall time");
    }

    #[test]
    fn dual_node_megatron_is_communication_bound() {
        // The inter-node flows live on the node-boundary ranks' tracks;
        // the worst GPU tells the real story.
        let b = attribute_worst_gpu(&report(Strategy::Megatron { tp: 8, pp: 1 }, 2), 4);
        assert_eq!(b.bottleneck(), "communication");
        assert!(b.comm_frac() > 0.3, "comm frac {}", b.comm_frac());
        // And its peers read mostly idle — waiting on it.
        let idle_peer = attribute_gpu(&report(Strategy::Megatron { tp: 8, pp: 1 }, 2), 0);
        assert!(idle_peer.idle.as_secs() > idle_peer.compute.as_secs());
    }

    #[test]
    fn cpu_offload_shows_idle_gpus() {
        let b = attribute_gpu(
            &report(
                Strategy::ZeroOffload {
                    stage: ZeroStage::Two,
                    offload_params: false,
                },
                1,
            ),
            0,
        );
        assert_eq!(b.bottleneck(), "host/other");
        assert!(
            b.idle.as_secs() > b.compute.as_secs(),
            "GPU should wait on the CPU optimizer"
        );
    }

    #[test]
    fn all_gpus_attributed() {
        let breakdowns = attribute_all_gpus(&report(Strategy::Ddp, 2), 4);
        assert_eq!(breakdowns.len(), 8);
        for b in breakdowns {
            assert!(b.total > SimTime::ZERO);
        }
    }
}
