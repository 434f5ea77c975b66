//! The characterization engine: runs a strategy on the simulated cluster
//! and measures throughput, bandwidth, memory, and timelines — the
//! simulated equivalent of the paper's measurement methodology
//! (Sec. III-B).

use zerosim_hw::{Cluster, ClusterSpec, LinkClass};
use zerosim_model::GptConfig;
use zerosim_simkit::{nearest_rank, BandwidthRecorder, Dag, DagEngine, FlowObserver, SimTime};
use zerosim_strategies::{
    lower, plan_checkpoint, plan_restore, Calibration, IterCtx, LoweredPlan, MemoryPlan, Strategy,
    StrategyPlan, TrainOptions,
};

use crate::error::{ensure_fits, CoreError};
use crate::faults::FaultConfig;
use crate::report::{rank_hot_links, BandwidthReport, ResilienceMetrics, TrainingReport};

/// How a characterization run samples and averages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Warm-up iterations excluded from all measurements (the paper warms
    /// up before collecting from the fifth iteration).
    pub warmup_iters: usize,
    /// Measured iterations.
    pub measure_iters: usize,
    /// Bandwidth sampling bucket (hardware-counter sampling period).
    pub bucket: SimTime,
    /// Run even if the memory plan does not fit (for what-if studies).
    pub allow_overflow: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup_iters: 1,
            measure_iters: 3,
            bucket: SimTime::from_ms(50.0),
            allow_overflow: false,
        }
    }
}

impl RunConfig {
    /// A faster configuration for sweeps: no warm-up, one measured
    /// iteration.
    pub fn quick() -> Self {
        RunConfig {
            warmup_iters: 0,
            measure_iters: 1,
            ..Self::default()
        }
    }
}

/// Owns a simulated cluster and characterizes training runs on it.
///
/// ```
/// use zerosim_core::TrainingSim;
/// use zerosim_hw::ClusterSpec;
/// use zerosim_model::GptConfig;
/// use zerosim_strategies::{Strategy, TrainOptions};
///
/// # fn main() -> Result<(), zerosim_core::CoreError> {
/// let mut sim = TrainingSim::new(ClusterSpec::default())?;
/// let report = sim.run(
///     &Strategy::Ddp,
///     &GptConfig::paper_model_with_params(1.4),
///     &TrainOptions::single_node(),
///     &zerosim_core::RunConfig::quick(),
/// )?;
/// assert!(report.throughput_tflops() > 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TrainingSim {
    cluster: Cluster,
    calib: Calibration,
}

impl TrainingSim {
    /// Builds a simulator over a fresh cluster.
    ///
    /// # Errors
    /// Returns [`CoreError::BadCluster`] for inconsistent specs.
    pub fn new(spec: ClusterSpec) -> Result<Self, CoreError> {
        Ok(TrainingSim {
            cluster: Cluster::new(spec).map_err(CoreError::BadCluster)?,
            calib: Calibration::default(),
        })
    }

    /// Builds a simulator with custom calibration constants.
    ///
    /// # Errors
    /// Returns [`CoreError::BadCluster`] for inconsistent specs.
    pub fn with_calibration(spec: ClusterSpec, calib: Calibration) -> Result<Self, CoreError> {
        Ok(TrainingSim {
            cluster: Cluster::new(spec).map_err(CoreError::BadCluster)?,
            calib,
        })
    }

    /// The simulated cluster (e.g. to create NVMe volumes before an
    /// Infinity run).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The calibration constants in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// Characterizes one training configuration on a healthy cluster:
    /// [`TrainingSim::run_resilient`] with [`FaultConfig::healthy`], so the
    /// report's [`ResilienceMetrics`] show no faults, replays or
    /// recoveries.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] if `opts` spans no node or more nodes
    /// than the cluster has ([`TrainOptions::gpus`]) or the strategy
    /// rejects the configuration; [`CoreError::DoesNotFit`] if the memory
    /// plan overflows a tier (and `cfg.allow_overflow` is false);
    /// [`CoreError::Sim`] if the DAG deadlocks (cannot happen for the
    /// built-in strategies).
    pub fn run(
        &mut self,
        strategy: &Strategy,
        model: &GptConfig,
        opts: &TrainOptions,
        cfg: &RunConfig,
    ) -> Result<TrainingReport, CoreError> {
        self.run_resilient(strategy, model, opts, cfg, &FaultConfig::healthy())
    }

    /// Measures the cost of one checkpoint snapshot on this cluster: the
    /// makespan (seconds) of the strategy-independent `plan_checkpoint`
    /// state-movement plan for `model` under `opts`, executed on an
    /// otherwise idle network. This is the `C` that drives Young/Daly
    /// interval selection ([`crate::young_interval_s`],
    /// [`crate::fleet_search`]) — measured from the same
    /// lowered DAG [`TrainingSim::run_resilient`] replays at every
    /// checkpoint, not estimated from bandwidth math.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] when `opts` spans no node or more
    /// nodes than the cluster has ([`TrainOptions::gpus`]);
    /// [`CoreError::Sim`] if the DAG cannot execute.
    pub fn checkpoint_cost(
        &mut self,
        model: &GptConfig,
        opts: &TrainOptions,
    ) -> Result<f64, CoreError> {
        let ctx = IterCtx {
            cluster: &self.cluster,
            model,
            opts,
            calib: &self.calib,
        };
        let save = plan_checkpoint(&ctx)?;
        let dag = lower(&save, &self.cluster, &self.calib)?.into_dag();
        let mut engine = DagEngine::new(self.cluster.resource_slots());
        let out = engine.run(self.cluster.net_mut(), &dag, SimTime::ZERO, None)?;
        Ok(out.makespan().as_secs())
    }

    /// Characterizes one training configuration under a fault schedule,
    /// with checkpoint/restart recovery. This is the one training loop:
    /// [`TrainingSim::run`] is this call on [`FaultConfig::healthy`].
    ///
    /// The loop follows the paper's measurement protocol (Sec. III-B).
    /// The strategy's [`zerosim_strategies::WorkloadPlan`] is lowered to a
    /// task graph **once**; each iteration only re-stamps the
    /// jitter-seeded compute durations
    /// ([`zerosim_strategies::LoweredPlan::stamp`]) before execution.
    /// Warm-up iterations run unrecorded; at the first measured iteration
    /// their spans are discarded and the bandwidth recorder is anchored,
    /// and the measured window yields throughput and per-link avg/p90/peak
    /// bandwidth. On top of that:
    ///
    /// * the fault schedule is consumed by one [`zerosim_simkit::FaultCursor`]
    ///   shared across all iterations, so the virtual clock and the fault
    ///   clock stay aligned;
    /// * every `policy.checkpoint_interval` committed iterations, the
    ///   checkpoint plan (a DRAM snapshot of the state) runs on the same
    ///   engine — lowered once, like the iteration plan;
    /// * a node loss aborts the in-flight iteration; the run restarts
    ///   after `policy.restart_delay_s`, replays the restore plan if a
    ///   snapshot exists, rolls back to the last committed checkpoint,
    ///   and replays the lost iterations — up to `policy.max_recoveries`
    ///   times.
    ///
    /// The returned report carries [`ResilienceMetrics`] (goodput,
    /// iteration-time percentiles, replay/recovery accounting, and the
    /// schedule digest). When the call returns — success or
    /// [`CoreError::RecoveryExhausted`] — every link is restored to its
    /// nominal capacity, so the same simulator can run further
    /// characterizations; the faults belong to the run, not the cluster.
    ///
    /// # Errors
    /// Everything [`TrainingSim::run`] returns, plus
    /// [`CoreError::RecoveryExhausted`] when node losses outrun the
    /// recovery budget.
    pub fn run_resilient(
        &mut self,
        strategy: &Strategy,
        model: &GptConfig,
        opts: &TrainOptions,
        cfg: &RunConfig,
        faults: &FaultConfig,
    ) -> Result<TrainingReport, CoreError> {
        // The node-count rule is `TrainOptions::gpus`'; the memory planners
        // count GPUs unchecked, so it runs before `plan_memory`.
        opts.gpus(&self.cluster)?;
        let ctx = IterCtx {
            cluster: &self.cluster,
            model,
            opts,
            calib: &self.calib,
        };
        let memory = strategy.plan_memory(&ctx)?;
        if !cfg.allow_overflow {
            ensure_fits(&memory, &self.cluster)?;
        }
        // Plan + lower once: structure is iteration-invariant. The plan is
        // dropped here; only its lowering lives through the run.
        let lowered = lower(&strategy.plan_iteration(&ctx)?, &self.cluster, &self.calib)?;
        self.run_lowered(strategy, model, opts, cfg, faults, memory, lowered)
    }

    /// The run half of [`TrainingSim::run_resilient`]: the training loop
    /// over a plan the caller has already checked and lowered on this
    /// cluster. `memory` is the strategy's memory plan, reported as is.
    /// The placement search lowers each candidate once for its lint
    /// passes and runs that same lowering here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_lowered(
        &mut self,
        strategy: &Strategy,
        model: &GptConfig,
        opts: &TrainOptions,
        cfg: &RunConfig,
        faults: &FaultConfig,
        memory: MemoryPlan,
        mut lowered: LoweredPlan,
    ) -> Result<TrainingReport, CoreError> {
        let ctx = IterCtx {
            cluster: &self.cluster,
            model,
            opts,
            calib: &self.calib,
        };
        // Checkpoint and restore plans are lowered exactly once, like the
        // iteration plan.
        let plan_lowerings = 1usize;
        let ckpt_dags: Option<(Dag, Dag)> = if faults.policy.checkpoint_interval > 0 {
            let save = plan_checkpoint(&ctx)?;
            let restore = plan_restore(&ctx)?;
            Some((
                lower(&save, &self.cluster, &self.calib)?.into_dag(),
                lower(&restore, &self.cluster, &self.calib)?.into_dag(),
            ))
        } else {
            None
        };

        let mut engine = DagEngine::new(self.cluster.resource_slots());
        let mut cursor = faults.schedule.cursor();
        let scheduled_faults = cursor.remaining();

        let mut t = SimTime::ZERO;
        let mut seed = opts.jitter_seed;
        let n_measured = cfg.measure_iters.max(1);
        let target = cfg.warmup_iters + n_measured;

        // Accounting.
        let mut completed: Vec<SimTime> = Vec::new(); // every finished execution
        let mut committed_times: Vec<SimTime> = Vec::new(); // surviving commits
        let mut executed = 0usize;
        let mut committed = 0usize;
        let mut replayed = 0usize;
        let mut recoveries = 0usize;
        let mut checkpoints_taken = 0usize;
        let mut checkpoint_time = SimTime::ZERO;
        let mut recovery_time = SimTime::ZERO;
        let mut last_ckpt_commit = 0usize;

        let mut rec: Option<BandwidthRecorder> = None;
        let mut measure_start = SimTime::ZERO;
        let mut solver_before = None;

        // Reborrows the recorder as a flow observer for one engine call.
        macro_rules! obs {
            () => {
                rec.as_mut().map(|r| r as &mut dyn FlowObserver)
            };
        }
        // Node-loss recovery: charge the restart delay, replay the restore
        // traffic (itself interruptible), roll back to the last committed
        // checkpoint, and yield the time at which training resumes.
        macro_rules! recover {
            ($fault_at:expr) => {{
                let mut fault_at = $fault_at;
                loop {
                    recoveries += 1;
                    if recoveries > faults.policy.max_recoveries {
                        self.cluster.net_mut().restore_all_links();
                        return Err(CoreError::RecoveryExhausted {
                            budget: faults.policy.max_recoveries,
                        });
                    }
                    let mut resume = fault_at + SimTime::from_secs(faults.policy.restart_delay_s);
                    replayed += committed - last_ckpt_commit;
                    committed = last_ckpt_commit;
                    committed_times.truncate(last_ckpt_commit);
                    if checkpoints_taken > 0 {
                        if let Some((_, restore)) = &ckpt_dags {
                            let out = engine.run_faulted(
                                self.cluster.net_mut(),
                                restore,
                                resume,
                                obs!(),
                                &mut cursor,
                            )?;
                            if out.interrupted {
                                // A second loss mid-restore: restart again.
                                recovery_time += out.finished - fault_at;
                                fault_at = out.finished;
                                continue;
                            }
                            resume = out.finished;
                        }
                    }
                    recovery_time += resume - fault_at;
                    break resume;
                }
            }};
        }

        while committed < target {
            // Entering the measured window: discard warm-up spans and
            // anchor the recorder. Once created, the recorder keeps
            // counting through replays and recoveries (hardware counters
            // do not pause for a crash).
            if rec.is_none() && committed >= cfg.warmup_iters {
                engine.take_spans();
                measure_start = t;
                solver_before = Some(self.cluster.net().solver_stats());
                rec = Some(BandwidthRecorder::with_origin(cfg.bucket, t));
            }

            let dag = lowered.stamp(seed);
            seed += 1;
            executed += 1;
            let out = engine.run_faulted(self.cluster.net_mut(), dag, t, obs!(), &mut cursor)?;
            if out.interrupted {
                t = recover!(out.finished);
                continue;
            }
            let makespan = out.makespan();
            t = out.finished;
            completed.push(makespan);
            committed_times.push(makespan);
            committed += 1;

            // Checkpoint cadence (also taken during warm-up: faults do
            // not wait for the measured window).
            if let Some((save, _)) = &ckpt_dags {
                if committed.is_multiple_of(faults.policy.checkpoint_interval) {
                    let out =
                        engine.run_faulted(self.cluster.net_mut(), save, t, obs!(), &mut cursor)?;
                    if out.interrupted {
                        t = recover!(out.finished);
                        continue;
                    }
                    checkpoint_time += out.makespan();
                    t = out.finished;
                    checkpoints_taken += 1;
                    last_ckpt_commit = committed;
                }
            }
        }

        // Leave the cluster healthy: faults belong to this run, not to the
        // simulator. (The straggler scale dies with the local engine; link
        // scales live in the network and must be reset explicitly.)
        self.cluster.net_mut().restore_all_links();

        // Mean over the surviving measured iterations.
        let mut total = SimTime::ZERO;
        for &mk in &committed_times[cfg.warmup_iters..] {
            total += mk;
        }
        let iter_time = total / (n_measured as u64);
        let measured_wall = t - measure_start;

        // Per-(node, class) aggregation, Table IV style, plus the per-link
        // "hot wires" ranking across every physical link class.
        let rec = rec.unwrap_or_else(|| BandwidthRecorder::with_origin(cfg.bucket, t));
        let mut bandwidth = BandwidthReport::new(cfg.bucket);
        for node in 0..opts.nodes {
            for class in LinkClass::TABLE_IV {
                let links = self.cluster.links(node, class);
                let stats = rec.stats(links);
                let series = rec.aggregate_series(links);
                bandwidth.insert(node, class, stats, series);
            }
        }
        let hot_links = rank_hot_links(&self.cluster, opts.nodes, &rec, measured_wall.as_secs());

        let tokens = model.tokens_per_iteration(opts.per_gpu_batch, opts.num_gpus(&self.cluster))
            * opts.grad_accum as f64;
        let flops_per_iteration = model.iteration_flops(tokens).total();

        completed.sort_unstable();
        let resilience = ResilienceMetrics {
            goodput_flops: flops_per_iteration * n_measured as f64
                / measured_wall.as_secs().max(1e-12),
            iter_p50: nearest_rank(&completed, 0.50),
            iter_p90: nearest_rank(&completed, 0.90),
            iter_p99: nearest_rank(&completed, 0.99),
            executed_iterations: executed,
            committed_iterations: committed,
            replayed_iterations: replayed,
            checkpoints_taken,
            checkpoint_time,
            recoveries,
            recovery_time,
            faults_applied: scheduled_faults - cursor.remaining(),
            wall_time: t,
            schedule_digest: faults.schedule.digest(),
        };

        Ok(TrainingReport {
            strategy: strategy.name(),
            model_params: model.num_params(),
            nodes: opts.nodes,
            iter_time,
            flops_per_iteration,
            tokens_per_iteration: tokens,
            memory,
            bandwidth,
            spans: engine.take_spans(),
            hot_links,
            plan_lowerings,
            resilience,
            solver: self
                .cluster
                .net()
                .solver_stats()
                .delta_since(&solver_before.unwrap_or_default()),
            engine: engine.stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_strategies::Strategy;

    fn sim() -> TrainingSim {
        TrainingSim::new(ClusterSpec::default()).unwrap()
    }

    #[test]
    fn ddp_run_produces_sane_report() {
        let mut s = sim();
        let report = s
            .run(
                &Strategy::Ddp,
                &GptConfig::paper_model_with_params(1.4),
                &TrainOptions::single_node(),
                &RunConfig::default(),
            )
            .unwrap();
        assert!(report.throughput_tflops() > 200.0);
        assert!(report.throughput_tflops() < 1248.0, "below 4×A100 peak");
        // Single-node: RoCE silent, NVLink busy.
        let roce = report.bandwidth.stats(0, LinkClass::Roce);
        assert_eq!(roce.avg, 0.0);
        let nvl = report.bandwidth.stats(0, LinkClass::NvLink);
        assert!(nvl.avg > 1e9, "NVLink avg {} too low", nvl.avg);
        assert!(!report.spans.spans().is_empty());
        // The lower-once / re-stamp cache: 4 iterations, one lowering.
        assert_eq!(report.plan_lowerings, 1);
    }

    #[test]
    fn infeasible_strategy_config_is_a_typed_error() {
        let mut s = sim();
        let err = s
            .run(
                &Strategy::Megatron { tp: 3, pp: 1 },
                &GptConfig::paper_model_with_params(1.4),
                &TrainOptions::single_node(),
                &RunConfig::quick(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("must divide the GPU count"));
    }

    #[test]
    fn node_counts_outside_the_cluster_are_typed_errors() {
        let model = GptConfig::paper_model_with_params(1.4);
        for nodes in [0, 3] {
            let opts = TrainOptions::for_nodes(nodes);
            let err = sim()
                .run(&Strategy::Ddp, &model, &opts, &RunConfig::quick())
                .unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains("cluster has 2"), "{err}");
            let err = sim().checkpoint_cost(&model, &opts).unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn oversized_model_is_rejected() {
        let mut s = sim();
        let err = s
            .run(
                &Strategy::Ddp,
                &GptConfig::paper_model_with_params(5.5),
                &TrainOptions::single_node(),
                &RunConfig::quick(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::DoesNotFit { tier: "gpu", .. }));
    }

    #[test]
    fn allow_overflow_runs_anyway() {
        let mut s = sim();
        let cfg = RunConfig {
            allow_overflow: true,
            ..RunConfig::quick()
        };
        let r = s
            .run(
                &Strategy::Ddp,
                &GptConfig::paper_model_with_params(2.9),
                &TrainOptions::single_node(),
                &cfg,
            )
            .unwrap();
        assert!(r.throughput_tflops() > 0.0);
    }

    #[test]
    fn healthy_run_reports_zero_fault_accounting() {
        let report = sim()
            .run(
                &Strategy::Ddp,
                &GptConfig::paper_model_with_params(1.4),
                &TrainOptions::single_node(),
                &RunConfig::default(),
            )
            .unwrap();
        let m = &report.resilience;
        assert_eq!(m.recoveries, 0);
        assert_eq!(m.replayed_iterations, 0);
        assert_eq!(m.faults_applied, 0);
        // Equal up to the nanosecond truncation of the mean iteration time.
        let rel = (m.goodput_flops - report.throughput_flops()).abs() / m.goodput_flops;
        assert!(rel < 1e-6, "goodput deviates: rel {rel}");
    }

    #[test]
    fn node_loss_recovers_from_checkpoint_and_replays() {
        use crate::faults::{FaultConfig, FaultScenario};
        use zerosim_strategies::RecoveryPolicy;

        let model = GptConfig::paper_model_with_params(1.4);
        let opts = TrainOptions::single_node();
        let cfg = RunConfig {
            warmup_iters: 0,
            measure_iters: 6,
            ..RunConfig::default()
        };
        // Find a healthy iteration time, then kill the node mid-run.
        let mut s = sim();
        let healthy = s
            .run_resilient(&Strategy::Ddp, &model, &opts, &cfg, &FaultConfig::healthy())
            .unwrap();
        let wall = healthy.resilience.wall_time.as_secs();
        let schedule = FaultScenario::NodeLoss {
            node: 0,
            at_s: 0.55 * wall,
        }
        .compile(s.cluster(), 42)
        .unwrap();
        let faults = FaultConfig::new(schedule, RecoveryPolicy::every(2).with_restart_delay(0.5));
        let mut s2 = sim();
        let faulted = s2
            .run_resilient(&Strategy::Ddp, &model, &opts, &cfg, &faults)
            .unwrap();
        let m = &faulted.resilience;
        assert_eq!(m.recoveries, 1);
        assert_eq!(m.faults_applied, 1);
        // Lost work is bounded by the checkpoint interval (zero when the
        // loss lands right after a checkpoint commit).
        assert!(m.replayed_iterations <= faults.policy.checkpoint_interval);
        assert!(m.checkpoints_taken >= 1);
        assert!(m.recovery_time >= SimTime::from_secs(0.5));
        assert!(m.time_to_recover() >= SimTime::from_secs(0.5));
        assert_eq!(m.committed_iterations, 6);
        assert!(m.executed_iterations > 6);
        // Replay + recovery strictly reduce goodput below the healthy run.
        assert!(
            m.goodput_flops < healthy.resilience.goodput_flops,
            "goodput under node loss must drop"
        );
        assert_eq!(faulted.plan_lowerings, 1);

        // Same seed + same schedule => byte-identical reports.
        let mut s3 = sim();
        let again = s3
            .run_resilient(&Strategy::Ddp, &model, &opts, &cfg, &faults)
            .unwrap();
        assert_eq!(faulted.digest(), again.digest());
        assert_eq!(faulted.resilience, again.resilience);
    }

    #[test]
    fn node_loss_without_recovery_budget_is_a_typed_error() {
        use crate::faults::{FaultConfig, FaultScenario};

        let model = GptConfig::paper_model_with_params(1.4);
        let opts = TrainOptions::single_node();
        let mut s = sim();
        let schedule = FaultScenario::NodeLoss { node: 0, at_s: 0.1 }
            .compile(s.cluster(), 0)
            .unwrap();
        let err = s
            .run_resilient(
                &Strategy::Ddp,
                &model,
                &opts,
                &RunConfig::quick(),
                &FaultConfig::without_checkpoints(schedule),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::RecoveryExhausted { budget: 0 }));
    }

    #[test]
    fn straggler_stretches_iteration_tail() {
        use crate::faults::{FaultConfig, FaultScenario};
        use zerosim_hw::GpuId;

        let model = GptConfig::paper_model_with_params(1.4);
        let opts = TrainOptions::single_node();
        let cfg = RunConfig {
            warmup_iters: 0,
            measure_iters: 4,
            ..RunConfig::default()
        };
        let mut s = sim();
        let healthy = s
            .run_resilient(&Strategy::Ddp, &model, &opts, &cfg, &FaultConfig::healthy())
            .unwrap();
        let schedule = FaultScenario::Straggler {
            gpu: GpuId { node: 0, gpu: 1 },
            factor: 0.5,
            at_s: 0.0,
        }
        .compile(s.cluster(), 0)
        .unwrap();
        let mut s2 = sim();
        let slow = s2
            .run_resilient(
                &Strategy::Ddp,
                &model,
                &opts,
                &cfg,
                &FaultConfig::without_checkpoints(schedule),
            )
            .unwrap();
        let hm = &healthy.resilience;
        let sm = &slow.resilience;
        assert!(
            sm.iter_p50 > hm.iter_p50,
            "straggler must stretch iterations: {} vs {}",
            sm.iter_p50,
            hm.iter_p50
        );
        assert!(sm.goodput_flops < hm.goodput_flops);
        assert!(sm.iter_p99 >= sm.iter_p50);
    }

    #[test]
    fn dual_node_uses_roce() {
        let mut s = sim();
        let report = s
            .run(
                &Strategy::Zero {
                    stage: zerosim_strategies::ZeroStage::Three,
                },
                &GptConfig::paper_model_with_params(1.4),
                &TrainOptions::dual_node(),
                &RunConfig::quick(),
            )
            .unwrap();
        for node in 0..2 {
            let roce = report.bandwidth.stats(node, LinkClass::Roce);
            assert!(roce.avg > 0.0, "node {node} RoCE idle");
        }
    }
}
