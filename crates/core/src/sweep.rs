//! Parallel characterization sweeps.
//!
//! A *sweep* runs many independent training configurations — different
//! strategies, model sizes, cluster shapes, or fault schedules — and
//! collects one [`TrainingReport`] per configuration. Runs share nothing:
//! each [`SweepSpec`] describes a complete world (cluster spec, NVMe
//! volumes, strategy, model, options, run config, fault schedule), and
//! execution builds a fresh [`TrainingSim`] owning its own
//! [`zerosim_hw::Cluster`] from scratch ([`SweepSpec::build_sim`]). That
//! independence is what makes the fan-out embarrassingly parallel *and*
//! deterministic:
//!
//! * **Deterministic** — a run's result depends only on its spec, never on
//!   scheduling. [`SweepRunner::run_parallel`] returns results in input
//!   order, so a sweep over `N` specs produces the same ordered
//!   `Vec<SweepRun>` (and the same [`SweepRun::digest`] vector) whether it
//!   runs on 1 worker or 8.
//! * **Parallel** — fan-out rides on
//!   [`zerosim_testkit::pool::ThreadPool`], the workspace's hermetic
//!   `std::thread`-only pool.
//!
//! The runner takes any [`Execute`] spec, so serving sweeps over
//! [`crate::ServeSpec`] share the same contract.
//!
//! ```
//! use zerosim_core::{RunConfig, SweepRunner, SweepSpec};
//! use zerosim_strategies::{Strategy, TrainOptions};
//! use zerosim_model::GptConfig;
//!
//! # fn main() -> Result<(), zerosim_core::CoreError> {
//! let specs: Vec<SweepSpec> = [0.8, 1.4]
//!     .iter()
//!     .map(|&b| {
//!         SweepSpec::new(
//!             format!("ddp-{b}B"),
//!             Strategy::Ddp,
//!             GptConfig::paper_model_with_params(b),
//!             TrainOptions::single_node(),
//!         )
//!         .with_run(RunConfig::quick())
//!     })
//!     .collect();
//! let runs = SweepRunner::new(2).run_parallel(specs)?;
//! assert_eq!(runs.len(), 2);
//! assert!(runs[0].report.throughput_tflops() > 0.0);
//! # Ok(())
//! # }
//! ```

use zerosim_hw::{ClusterSpec, NvmeId};
use zerosim_model::GptConfig;
use zerosim_strategies::{Calibration, Strategy, TrainOptions};
use zerosim_testkit::pool::ThreadPool;

use crate::engine::{RunConfig, TrainingSim};
use crate::error::CoreError;
use crate::faults::FaultConfig;
use crate::report::TrainingReport;

/// A complete, self-contained description of one characterization run.
///
/// Everything needed to rebuild the run from nothing lives here, so a
/// spec can be executed on any worker thread (or serially) with an
/// identical outcome.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Caller-chosen identifier carried through to [`SweepRun::label`].
    pub label: String,
    /// The cluster to build (each run owns a fresh one).
    pub cluster: ClusterSpec,
    /// Performance-model constants.
    pub calibration: Calibration,
    /// NVMe volumes to create, in order, before the run — volume `i`
    /// here becomes `VolumeId(i)`, so
    /// [`zerosim_strategies::InfinityPlacement`] indices in `strategy`
    /// refer to positions in this list.
    pub volumes: Vec<Vec<NvmeId>>,
    /// The training strategy to characterize.
    pub strategy: Strategy,
    /// The model to train.
    pub model: GptConfig,
    /// Topology/batching options.
    pub opts: TrainOptions,
    /// Sampling/averaging configuration.
    pub run: RunConfig,
    /// The fault schedule and recovery policy the run goes through
    /// [`TrainingSim::run_resilient`] with ([`FaultConfig::healthy`] by
    /// default).
    pub faults: FaultConfig,
}

impl SweepSpec {
    /// A spec over the default paper cluster with default calibration,
    /// default [`RunConfig`], no NVMe volumes, and no faults.
    pub fn new(
        label: impl Into<String>,
        strategy: Strategy,
        model: GptConfig,
        opts: TrainOptions,
    ) -> Self {
        SweepSpec {
            label: label.into(),
            cluster: ClusterSpec::default(),
            calibration: Calibration::default(),
            volumes: Vec::new(),
            strategy,
            model,
            opts,
            run: RunConfig::default(),
            faults: FaultConfig::healthy(),
        }
    }

    /// Replaces the cluster spec.
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Replaces the calibration constants.
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Replaces the run configuration.
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Appends an NVMe volume (created before the run, in call order).
    pub fn with_volume(mut self, members: Vec<NvmeId>) -> Self {
        self.volumes.push(members);
        self
    }

    /// Replaces the fault schedule and recovery policy.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Builds the fresh simulator this spec runs on: its cluster, its
    /// calibration, and its NVMe volumes created in order, so volume `i`
    /// is `VolumeId(i)`. Capacity searches, fault-schedule compilation and
    /// checkpoint-cost probes use it to see the cluster a run will see.
    ///
    /// # Errors
    /// [`CoreError::BadCluster`] when the cluster spec is inconsistent or
    /// a volume is empty or names a drive the cluster does not have.
    pub fn build_sim(&self) -> Result<TrainingSim, CoreError> {
        build_sim(&self.cluster, self.calibration, &self.volumes)
    }

    /// Builds a fresh simulator ([`SweepSpec::build_sim`]) and executes
    /// this spec to completion.
    ///
    /// # Errors
    /// Whatever [`SweepSpec::build_sim`] or [`TrainingSim::run_resilient`]
    /// return for this configuration.
    pub fn execute(&self) -> Result<SweepRun, CoreError> {
        let report = self.build_sim()?.run_resilient(
            &self.strategy,
            &self.model,
            &self.opts,
            &self.run,
            &self.faults,
        )?;
        Ok(SweepRun {
            label: self.label.clone(),
            digest: report.digest(),
            report,
        })
    }
}

/// The simulator a training or serving spec runs on: `cluster` with
/// `calibration`, and `volumes` created in order (volume `i` becomes
/// `VolumeId(i)`).
pub(crate) fn build_sim(
    cluster: &ClusterSpec,
    calibration: Calibration,
    volumes: &[Vec<NvmeId>],
) -> Result<TrainingSim, CoreError> {
    let mut sim = TrainingSim::with_calibration(cluster.clone(), calibration)?;
    for members in volumes {
        sim.cluster_mut()
            .try_create_volume(members.clone())
            .map_err(|e| CoreError::BadCluster(e.to_string()))?;
    }
    Ok(sim)
}

/// One completed sweep entry: the spec's label, its full report, and the
/// report's measurement digest (captured eagerly so callers can compare
/// sweeps without holding reports).
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The originating [`SweepSpec::label`].
    pub label: String,
    /// [`TrainingReport::digest`] of `report`.
    pub digest: u64,
    /// The full characterization result.
    pub report: TrainingReport,
}

/// A self-contained run description a [`SweepRunner`] can execute on any
/// worker: [`SweepSpec`] for training, [`crate::ServeSpec`] for serving.
pub trait Execute: Send {
    /// The completed run.
    type Run: Send;

    /// Builds a fresh simulator and executes the spec to completion.
    ///
    /// # Errors
    /// Whatever building or running the spec returns.
    fn execute(&self) -> Result<Self::Run, CoreError>;
}

impl Execute for SweepSpec {
    type Run = SweepRun;

    fn execute(&self) -> Result<SweepRun, CoreError> {
        SweepSpec::execute(self)
    }
}

/// Fans specs across a thread pool, deterministically: results come back
/// in input order at any width.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    pool: ThreadPool,
    requested: usize,
}

impl SweepRunner {
    /// A runner with `workers` threads (0 or 1 runs inline, serially).
    ///
    /// The effective width is clamped to the machine's
    /// [`std::thread::available_parallelism`]: CPU-bound sweep workers
    /// gain nothing from oversubscription, they just add pool overhead
    /// (measured as a 0.84× "speedup" at 8 workers on a 1-core box).
    /// Determinism is unaffected — results are input-ordered at any
    /// width — and [`SweepRunner::requested_workers`] preserves the
    /// caller's ask for reporting.
    pub fn new(workers: usize) -> Self {
        SweepRunner {
            pool: ThreadPool::new(SweepRunner::effective_workers(workers)),
            requested: workers.max(1),
        }
    }

    /// The width a runner asked for `requested` workers runs at: at least
    /// one, and no more than [`std::thread::available_parallelism`].
    pub fn effective_workers(requested: usize) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        requested.clamp(1, cores)
    }

    /// The effective worker count (requested, clamped to the machine).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The worker count the caller asked for, before clamping.
    pub fn requested_workers(&self) -> usize {
        self.requested
    }

    /// Executes every spec, in parallel, returning results in **input
    /// order** regardless of worker count or scheduling. The first failed
    /// spec (by input order) turns the whole sweep into its error —
    /// matching what a serial loop would report.
    ///
    /// # Errors
    /// The input-order-first [`CoreError`] among failed specs, if any.
    pub fn run_parallel<S: Execute>(&self, specs: Vec<S>) -> Result<Vec<S::Run>, CoreError> {
        self.pool
            .map(specs, |spec| Execute::execute(&spec))
            .into_iter()
            .collect()
    }

    /// Executes every spec, in parallel, returning each spec's individual
    /// outcome in **input order** — one failed configuration does not mask
    /// the others. This is what `planfind` uses to vet and simulate the
    /// candidates that fit in memory, some of which may still fail.
    pub fn run_each<S: Execute>(&self, specs: Vec<S>) -> Vec<Result<S::Run, CoreError>> {
        self.pool.map(specs, |spec| Execute::execute(&spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_specs() -> Vec<SweepSpec> {
        ["PyTorch DDP", "z3"]
            .iter()
            .enumerate()
            .map(|(i, label)| {
                let strategy = if i == 0 {
                    Strategy::Ddp
                } else {
                    Strategy::Zero {
                        stage: zerosim_strategies::ZeroStage::Three,
                    }
                };
                SweepSpec::new(
                    *label,
                    strategy,
                    GptConfig::paper_model_with_params(1.4),
                    TrainOptions::single_node(),
                )
                .with_run(RunConfig::quick())
            })
            .collect()
    }

    #[test]
    fn parallel_sweep_matches_serial_execution() {
        let serial: Vec<SweepRun> = quick_specs().iter().map(|s| s.execute().unwrap()).collect();
        for workers in [1, 3] {
            let par = SweepRunner::new(workers)
                .run_parallel(quick_specs())
                .unwrap();
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!(p.label, s.label, "w={workers}");
                assert_eq!(p.digest, s.digest, "w={workers} label={}", p.label);
            }
        }
    }

    #[test]
    fn sweep_results_keep_input_order() {
        let runs = SweepRunner::new(2).run_parallel(quick_specs()).unwrap();
        assert_eq!(runs[0].label, "PyTorch DDP");
        assert_eq!(runs[1].label, "z3");
        assert_eq!(runs[0].report.strategy, "PyTorch DDP");
    }

    #[test]
    fn failing_spec_surfaces_input_order_first_error() {
        let mut specs = quick_specs();
        // An impossible model: DDP replicates everything on one GPU.
        specs[0].model = GptConfig::paper_model_with_params(175.0);
        let err = SweepRunner::new(2).run_parallel(specs).unwrap_err();
        assert!(matches!(err, CoreError::DoesNotFit { .. }), "{err}");
    }

    #[test]
    fn run_each_isolates_failures_per_spec() {
        let mut specs = quick_specs();
        specs[0].model = GptConfig::paper_model_with_params(175.0);
        let outcomes = SweepRunner::new(2).run_each(specs);
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(
            outcomes[0],
            Err(CoreError::DoesNotFit { .. }) | Err(CoreError::InvalidConfig(_))
        ));
        assert_eq!(outcomes[1].as_ref().unwrap().label, "z3");
    }

    #[test]
    fn build_sim_creates_volumes_in_order_and_rejects_unknown_drives() {
        use zerosim_hw::VolumeId;

        let d = |drive| NvmeId { node: 0, drive };
        let spec = quick_specs()
            .remove(0)
            .with_volume(vec![d(1)])
            .with_volume(vec![d(0), d(1)]);
        let sim = spec.build_sim().unwrap();
        assert_eq!(sim.cluster().volume_count(), 2);
        assert_eq!(sim.cluster().volume(VolumeId(0)).members, [d(1)]);
        assert_eq!(sim.cluster().volume(VolumeId(1)).members, [d(0), d(1)]);

        // The paper cluster has two drives per node: drive 2 is unknown.
        let err = spec.with_volume(vec![d(2)]).build_sim().unwrap_err();
        assert!(matches!(err, CoreError::BadCluster(_)), "{err}");
        assert!(err.to_string().contains("does not exist"), "{err}");
    }

    #[test]
    fn reports_carry_solver_stats() {
        let runs = SweepRunner::new(1).run_parallel(quick_specs()).unwrap();
        for run in &runs {
            assert!(run.report.solver.solves > 0, "{}", run.label);
            assert!(run.report.solver.links_touched > 0, "{}", run.label);
        }
    }
}
