//! `planfind` — auto-parallelism placement search over a parameterized
//! topology.
//!
//! Given a model and a [`TopologySpec`], the search enumerates the
//! (DP, TP, PP, ZeRO-stage, offload) configurations the cluster shape
//! admits and vets each one in verdict order, cheapest verdict first:
//!
//! 1. **Memory**, serially, on one shared cluster: the strategy's
//!    [`MemoryPlan`] against every memory tier, the verdict planlint's
//!    ZL001 denies on. A candidate whose memory plan errs (`cannot plan:
//!    …`) or does not fit (`does not fit (<tier> tier)`) is pruned here and
//!    is never planned, lowered or linted.
//! 2. **Plan, lower and lint**, one job per remaining candidate on the
//!    deterministic [`SweepRunner`]: the iteration plan is lowered once
//!    and planlint's default passes read both. A plan or lowering error
//!    (`cannot plan: …`) or the first deny-level finding (`ZLxxx: …`)
//!    prunes the candidate.
//! 3. **Simulate**, in the same job, the lowering the passes read; the
//!    survivors rank by achieved throughput.
//!
//! So a failed memory verdict outranks a plan or lowering error, which
//! outranks a deny-level finding. The order matters at scale: a candidate
//! pruned on memory costs one closed-form memory plan (all ten candidates
//! of a one-node 1,000 B search take ~0.2 ms and a few hundred
//! allocations), a vetted one costs one plan, one lowering and one lint
//! run (milliseconds at 8 B), and simulation costs milliseconds to
//! seconds. On capacity-edge models most of the grid dies at the memory
//! verdict.
//!
//! Results are deterministic: candidate enumeration order is fixed,
//! vetting and simulation are input-ordered at any worker width, and
//! [`SearchReport::digest`] fingerprints the whole outcome so `verify.sh`
//! can assert byte-identical searches across `--workers` widths.
//!
//! ```
//! use zerosim_core::{search_plans, RunConfig, SearchConfig};
//! use zerosim_hw::TopologySpec;
//! use zerosim_model::GptConfig;
//!
//! # fn main() -> Result<(), zerosim_core::CoreError> {
//! let cfg = SearchConfig::new(
//!     TopologySpec::Flat { nodes: 1 }, // one paper-style node
//!     GptConfig::paper_model_with_params(1.4),
//! )
//! .with_run(RunConfig::quick());
//! let report = search_plans(&cfg)?;
//! assert!(report.pruned() + report.simulated() == report.enumerated());
//! // The winner is a pure data-parallel placement (DDP and ZeRO-1/2
//! // are near-ties at 1.4 B on one node; don't pin which one wins).
//! let best = report.best().unwrap();
//! assert_eq!((best.dp, best.tp, best.pp), (4, 1, 1));
//! assert!(best.throughput_tflops().unwrap() > 0.0);
//! # Ok(())
//! # }
//! ```

use zerosim_analyzer::{Artifacts, LintConfig, PassManager, Severity};
use zerosim_hw::{Cluster, TopologySpec};
use zerosim_model::GptConfig;
use zerosim_simkit::mix;
use zerosim_strategies::{
    lower, Calibration, IterCtx, MemoryPlan, ParallelPlacement, Strategy, StrategyPlan,
    TrainOptions, ZeroStage,
};

use crate::engine::RunConfig;
use crate::error::CoreError;
use crate::report::mix_str;
use crate::sweep::{Execute, SweepRunner, SweepSpec};

/// What to search: a model on a topology, plus run/parallelism knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The cluster shape to place against.
    pub topology: TopologySpec,
    /// The model to train.
    pub model: GptConfig,
    /// Performance-model constants.
    pub calibration: Calibration,
    /// Sampling configuration for the simulated survivors.
    pub run: RunConfig,
    /// Worker threads that vet and simulate the candidates that fit in
    /// memory (results are input-ordered and byte-identical at any
    /// width).
    pub workers: usize,
}

impl SearchConfig {
    /// A search over `topology` with default calibration, the quick run
    /// configuration, and a single worker.
    pub fn new(topology: TopologySpec, model: GptConfig) -> Self {
        SearchConfig {
            topology,
            model,
            calibration: Calibration::default(),
            run: RunConfig::quick(),
            workers: 1,
        }
    }

    /// Replaces the run configuration.
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Replaces the vetting and simulation worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the calibration constants.
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }
}

/// How one enumerated candidate fared.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateOutcome {
    /// Rejected by static analysis before any simulation.
    Pruned {
        /// Why (plan error, memory residency, or a deny-level lint).
        reason: String,
    },
    /// Simulated to completion.
    Simulated {
        /// Achieved throughput, FLOP/s.
        throughput_flops: f64,
        /// [`crate::TrainingReport::digest`] of the run.
        digest: u64,
    },
    /// Survived static analysis but failed at simulation time.
    Failed {
        /// The runtime error.
        error: String,
    },
}

/// One enumerated `(strategy, placement)` candidate and its outcome.
#[derive(Debug, Clone)]
pub struct PlanCandidate {
    /// Strategy display name ([`Strategy::name`]).
    pub strategy_name: String,
    /// The strategy itself.
    pub strategy: Strategy,
    /// Data-parallel replica count of the placement.
    pub dp: usize,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Pipeline depth.
    pub pp: usize,
    /// Locality spans of the placement
    /// ([`zerosim_strategies::PlacementSpans::describe`]).
    pub spans: String,
    /// What happened to it.
    pub outcome: CandidateOutcome,
}

impl PlanCandidate {
    /// `dp x tp x pp` placement label.
    pub fn placement(&self) -> String {
        format!("dp{} x tp{} x pp{}", self.dp, self.tp, self.pp)
    }

    /// Achieved throughput in TFLOP/s; `None` unless simulated.
    pub fn throughput_tflops(&self) -> Option<f64> {
        match &self.outcome {
            CandidateOutcome::Simulated {
                throughput_flops, ..
            } => Some(throughput_flops / 1e12),
            _ => None,
        }
    }
}

/// The ranked result of a [`search_plans`] run.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The searched topology, rendered ([`TopologySpec`]'s `Display`).
    pub topology: String,
    /// Total GPUs placed against.
    pub total_gpus: usize,
    /// Model size in parameters.
    pub model_params: f64,
    /// Every candidate in enumeration order (stable across runs).
    pub candidates: Vec<PlanCandidate>,
}

impl SearchReport {
    /// Candidates enumerated.
    pub fn enumerated(&self) -> usize {
        self.candidates.len()
    }

    fn count(&self, f: impl Fn(&CandidateOutcome) -> bool) -> usize {
        self.candidates.iter().filter(|c| f(&c.outcome)).count()
    }

    /// Candidates rejected by static analysis.
    pub fn pruned(&self) -> usize {
        self.count(|o| matches!(o, CandidateOutcome::Pruned { .. }))
    }

    /// Candidates that reached simulation (including runtime failures).
    pub fn simulated(&self) -> usize {
        self.enumerated() - self.pruned()
    }

    /// Simulated candidates that failed at run time.
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, CandidateOutcome::Failed { .. }))
    }

    /// Fraction of the grid the static pass eliminated.
    pub fn prune_fraction(&self) -> f64 {
        if self.candidates.is_empty() {
            0.0
        } else {
            self.pruned() as f64 / self.enumerated() as f64
        }
    }

    /// Successfully simulated candidates, best throughput first
    /// (total-order ties broken by strategy name, then placement).
    pub fn ranking(&self) -> Vec<&PlanCandidate> {
        let mut ranked: Vec<&PlanCandidate> = self
            .candidates
            .iter()
            .filter(|c| matches!(c.outcome, CandidateOutcome::Simulated { .. }))
            .collect();
        ranked.sort_by(|a, b| {
            let (ta, tb) = (
                a.throughput_tflops().unwrap_or(f64::NAN),
                b.throughput_tflops().unwrap_or(f64::NAN),
            );
            tb.total_cmp(&ta)
                .then_with(|| a.strategy_name.cmp(&b.strategy_name))
                .then_with(|| a.placement().cmp(&b.placement()))
        });
        ranked
    }

    /// The winning candidate, if anything survived to simulation.
    pub fn best(&self) -> Option<&PlanCandidate> {
        self.ranking().into_iter().next()
    }

    /// A stable 64-bit fingerprint of the whole search outcome: every
    /// candidate's identity, placement, spans, and outcome (including
    /// each simulated run's measurement digest). Equal digests mean the
    /// search saw byte-identical results — `verify.sh` compares them
    /// across `--workers` widths.
    pub fn digest(&self) -> u64 {
        let mut h = mix_str(0x504c_414e_u64, &self.topology);
        h = mix(h, self.total_gpus as u64);
        h = mix(h, self.model_params.to_bits());
        for c in &self.candidates {
            h = mix_str(h, &c.strategy_name);
            h = mix(h, c.dp as u64);
            h = mix(h, c.tp as u64);
            h = mix(h, c.pp as u64);
            h = mix_str(h, &c.spans);
            match &c.outcome {
                CandidateOutcome::Pruned { reason } => h = mix_str(mix(h, 1), reason),
                CandidateOutcome::Simulated {
                    throughput_flops,
                    digest,
                } => {
                    h = mix(mix(mix(h, 2), throughput_flops.to_bits()), *digest);
                }
                CandidateOutcome::Failed { error } => h = mix_str(mix(h, 3), error),
            }
        }
        h
    }

    /// Renders the search summary and the top `top` ranked plans.
    pub fn render_text(&self, top: usize) -> String {
        let mut out = format!(
            "planfind: {} ({} GPUs), model {:.1} B\n\
             candidates: {} enumerated, {} statically pruned ({:.0}%), \
             {} simulated, {} failed\n",
            self.topology,
            self.total_gpus,
            self.model_params / 1e9,
            self.enumerated(),
            self.pruned(),
            self.prune_fraction() * 100.0,
            self.simulated() - self.failed(),
            self.failed(),
        );
        for (i, c) in self.ranking().into_iter().take(top).enumerate() {
            out.push_str(&format!(
                "{:>3}. {:<28} {:<22} {:>9.1} TFLOP/s  [{}]\n",
                i + 1,
                c.strategy_name,
                c.placement(),
                c.throughput_tflops().unwrap_or(0.0),
                c.spans,
            ));
        }
        let mut pruned: Vec<&PlanCandidate> = self
            .candidates
            .iter()
            .filter(|c| !matches!(c.outcome, CandidateOutcome::Simulated { .. }))
            .collect();
        pruned.sort_by(|a, b| {
            a.strategy_name
                .cmp(&b.strategy_name)
                .then_with(|| a.placement().cmp(&b.placement()))
        });
        for c in pruned {
            let why = match &c.outcome {
                CandidateOutcome::Pruned { reason } => format!("pruned: {reason}"),
                CandidateOutcome::Failed { error } => format!("failed: {error}"),
                CandidateOutcome::Simulated { .. } => unreachable!("filtered above"),
            };
            out.push_str(&format!(
                "  -  {:<28} {:<22} {}\n",
                c.strategy_name,
                c.placement(),
                why
            ));
        }
        out
    }
}

/// The `(tp, pp)` degrees a strategy occupies (non-Megatron strategies
/// are pure data parallelism).
fn degrees(strategy: &Strategy) -> (usize, usize) {
    match strategy {
        Strategy::Megatron { tp, pp } => (*tp, *pp),
        _ => (1, 1),
    }
}

/// The candidate grid for a cluster of `nodes × gpus_per_node` GPUs:
/// DDP, Megatron with power-of-two node-local TP and pipeline depths
/// dividing the remainder, the three ZeRO stages, and the CPU-offload
/// variants. ZeRO-Infinity needs NVMe volumes configured per run and is
/// deliberately out of scope for the automatic grid.
fn enumerate_candidates(gpus_per_node: usize, total_gpus: usize) -> Vec<Strategy> {
    let mut out = vec![Strategy::Ddp];
    let mut tp = 2usize;
    while tp <= gpus_per_node {
        for pp in [1usize, 2, 4, 8] {
            if tp * pp <= total_gpus && total_gpus.is_multiple_of(tp * pp) {
                out.push(Strategy::Megatron { tp, pp });
            }
        }
        tp *= 2;
    }
    for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
        out.push(Strategy::Zero { stage });
    }
    for (stage, offload_params) in [
        (ZeroStage::Two, false),
        (ZeroStage::Three, false),
        (ZeroStage::Three, true),
    ] {
        out.push(Strategy::ZeroOffload {
            stage,
            offload_params,
        });
    }
    out
}

/// The memory verdict of one candidate on the search's shared cluster:
/// `Err(reason)` prunes it before anything is planned; `Ok(memory)` is
/// the memory plan its [`Vet`] job carries.
fn memory_verdict(ctx: &IterCtx<'_>, strategy: &Strategy) -> Result<MemoryPlan, String> {
    let memory = strategy
        .plan_memory(ctx)
        .map_err(|e| format!("cannot plan: {e}"))?;
    if !memory.fits(ctx.cluster) {
        return Err(format!(
            "does not fit ({} tier)",
            memory.bottleneck(ctx.cluster).unwrap_or("memory")
        ));
    }
    Ok(memory)
}

/// One candidate that fits in memory, vetted and simulated on one worker:
/// its iteration plan is lowered once, the analyzer's default passes lint
/// that plan and lowering, and the run replays the same lowering.
struct Vet {
    /// The candidate's run on the search's cluster.
    spec: SweepSpec,
    /// Its memory plan, from the memory verdict.
    memory: MemoryPlan,
}

impl Execute for Vet {
    type Run = CandidateOutcome;

    /// A plan or lowering error or a deny-level finding prunes the
    /// candidate; an error building the simulator or running it is the
    /// caller's [`CandidateOutcome::Failed`].
    fn execute(&self) -> Result<CandidateOutcome, CoreError> {
        let spec = &self.spec;
        let mut sim = spec.build_sim()?;
        let ctx = IterCtx {
            cluster: sim.cluster(),
            model: &spec.model,
            opts: &spec.opts,
            calib: sim.calibration(),
        };
        let compiled = spec
            .strategy
            .plan_iteration(&ctx)
            .and_then(|plan| Ok((lower(&plan, ctx.cluster, ctx.calib)?, plan)));
        let (lowered, plan) = match compiled {
            Ok(compiled) => compiled,
            Err(e) => {
                return Ok(CandidateOutcome::Pruned {
                    reason: format!("cannot plan: {e}"),
                })
            }
        };
        let art = Artifacts::new(ctx.cluster)
            .with_plan(&plan)
            .with_memory(&self.memory)
            .with_dag(lowered.dag())
            .with_calibration(ctx.calib);
        let lint = PassManager::with_default_passes(LintConfig::new()).run(&art);
        if let Some(d) = lint
            .diagnostics
            .iter()
            .find(|d| d.severity == Severity::Deny)
        {
            return Ok(CandidateOutcome::Pruned {
                reason: format!("{}: {}", d.code, d.message),
            });
        }
        // The run needs only the lowering.
        drop(plan);
        let report = sim.run_lowered(
            &spec.strategy,
            &spec.model,
            &spec.opts,
            &spec.run,
            &spec.faults,
            self.memory.clone(),
            lowered,
        )?;
        Ok(CandidateOutcome::Simulated {
            throughput_flops: report.throughput_flops(),
            digest: report.digest(),
        })
    }
}

/// Runs the full enumerate → vet → simulate → rank pipeline, cheapest
/// verdict first. The memory verdict runs serially, and a candidate that
/// fails it (`cannot plan: …` from its memory plan, or `does not fit
/// (<tier> tier)`) is never planned, lowered or linted. Each other
/// candidate is planned and lowered once on one of `cfg.workers` workers;
/// a plan or lowering error (`cannot plan: …`) or the first deny-level
/// lint (`ZLxxx: …`) prunes it, and otherwise that lowering is simulated.
/// A failed memory verdict thus outranks a plan error, which outranks a
/// deny-level lint.
///
/// # Errors
/// [`CoreError::BadCluster`] when the topology does not lower to a valid
/// cluster. Per-candidate failures never abort the search; they are
/// recorded as [`CandidateOutcome::Pruned`] or
/// [`CandidateOutcome::Failed`].
pub fn search_plans(cfg: &SearchConfig) -> Result<SearchReport, CoreError> {
    let spec = cfg.topology.build().map_err(CoreError::BadCluster)?;
    let cluster = Cluster::new(spec.clone()).map_err(CoreError::BadCluster)?;
    let nodes = cfg.topology.nodes();
    let opts = TrainOptions::for_nodes(nodes);
    let total_gpus = opts.num_gpus(&cluster)?;
    let ctx = IterCtx {
        cluster: &cluster,
        model: &cfg.model,
        opts: &opts,
        calib: &cfg.calibration,
    };

    let grid = enumerate_candidates(spec.gpus_per_node, total_gpus);
    // `None` marks a candidate whose outcome its `Vet` job returns.
    let mut verdicts = Vec::with_capacity(grid.len());
    let mut jobs = Vec::new();
    for strategy in &grid {
        verdicts.push(match memory_verdict(&ctx, strategy) {
            Err(reason) => Some(CandidateOutcome::Pruned { reason }),
            Ok(memory) => {
                jobs.push(Vet {
                    spec: SweepSpec::new(strategy.name(), strategy.clone(), cfg.model, opts)
                        .with_cluster(spec.clone())
                        .with_calibration(cfg.calibration)
                        .with_run(cfg.run),
                    memory,
                });
                None
            }
        });
    }
    let mut vetted = SweepRunner::new(cfg.workers).run_each(jobs).into_iter();

    let candidates = grid
        .into_iter()
        .zip(verdicts)
        .map(|(strategy, verdict)| {
            let outcome = verdict.unwrap_or_else(|| {
                match vetted.next().expect("one outcome per vetted candidate") {
                    Ok(outcome) => outcome,
                    Err(e) => CandidateOutcome::Failed {
                        error: e.to_string(),
                    },
                }
            });
            let (tp, pp) = degrees(&strategy);
            let spans = opts
                .gpus(&cluster)
                .and_then(|gpus| ParallelPlacement::resolve(gpus, tp, pp))
                .map(|p| p.spans(&cluster).describe(&cluster))
                .unwrap_or_else(|e| format!("unplaceable: {e}"));
            PlanCandidate {
                strategy_name: strategy.name(),
                strategy,
                dp: total_gpus / (tp * pp),
                tp,
                pp,
                spans,
                outcome,
            }
        })
        .collect();

    Ok(SearchReport {
        topology: cfg.topology.to_string(),
        total_gpus,
        model_params: cfg.model.num_params(),
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_paper_testbed() {
        let grid = enumerate_candidates(4, 8);
        assert_eq!(grid.len(), 12, "{grid:?}");
        assert!(grid.contains(&Strategy::Megatron { tp: 4, pp: 2 }));
        assert!(grid.contains(&Strategy::Megatron { tp: 2, pp: 4 }));
        assert!(!grid.contains(&Strategy::Megatron { tp: 8, pp: 1 }));
    }

    #[test]
    fn small_model_ranks_ddp_first_on_the_paper_testbed() {
        let cfg = SearchConfig::new(
            TopologySpec::default(),
            GptConfig::paper_model_with_params(1.4),
        );
        let report = search_plans(&cfg).unwrap();
        assert_eq!(report.enumerated(), 12);
        assert_eq!(report.pruned() + report.simulated(), report.enumerated());
        let best = report.best().expect("something simulates");
        assert_eq!(best.strategy_name, "PyTorch DDP");
        assert_eq!((best.dp, best.tp, best.pp), (8, 1, 1));
    }

    #[test]
    fn capacity_edge_prunes_ddp_and_promotes_sharded_plans() {
        // 5.6 B on one node: DDP replicates the full model per GPU and
        // dies statically; ZeRO-3 (Fig. 6-a's 6.6 B ceiling) survives and
        // ranks. This is the DDP-vs-ZeRO-3 capacity-edge case.
        let cfg = SearchConfig::new(
            TopologySpec::Flat { nodes: 1 },
            GptConfig::paper_model_with_params(5.6),
        );
        let report = search_plans(&cfg).unwrap();
        let ddp = report
            .candidates
            .iter()
            .find(|c| c.strategy_name == "PyTorch DDP")
            .unwrap();
        assert!(
            matches!(&ddp.outcome, CandidateOutcome::Pruned { reason } if reason.contains("fit")),
            "{:?}",
            ddp.outcome
        );
        let best = report.best().expect("a sharded plan survives");
        assert_ne!(best.strategy_name, "PyTorch DDP");
        let z3 = report
            .candidates
            .iter()
            .find(|c| c.strategy_name == "ZeRO-3")
            .unwrap();
        assert!(
            matches!(z3.outcome, CandidateOutcome::Simulated { .. }),
            "{:?}",
            z3.outcome
        );
        let text = report.render_text(3);
        assert!(text.contains("enumerated"), "{text}");
        assert!(text.contains("pruned"), "{text}");
        assert!(text.contains("TFLOP/s"), "{text}");
    }

    #[test]
    fn oversized_model_is_rejected_entirely_by_the_static_pass() {
        // 40 B on one node overwhelms every non-NVMe plan: the whole grid
        // dies statically and no simulation runs at all.
        let cfg = SearchConfig::new(
            TopologySpec::Flat { nodes: 1 },
            GptConfig::paper_model_with_params(40.0),
        );
        let report = search_plans(&cfg).unwrap();
        assert_eq!(report.pruned(), report.enumerated());
        assert!(report.prune_fraction() >= 0.9);
        assert!(report.best().is_none());
    }

    #[test]
    fn search_is_width_invariant() {
        let cfg = SearchConfig::new(
            TopologySpec::Flat { nodes: 1 },
            GptConfig::paper_model_with_params(1.4),
        );
        let serial = search_plans(&cfg).unwrap();
        let wide = search_plans(&cfg.clone().with_workers(4)).unwrap();
        assert_eq!(serial.digest(), wide.digest());
        assert_eq!(serial.render_text(usize::MAX), wide.render_text(usize::MAX));
    }
}
