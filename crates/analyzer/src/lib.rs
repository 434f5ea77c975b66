//! `zerosim-analyzer` — `planlint`: static analysis over the three
//! artifact layers the simulator produces.
//!
//! Every strategy compiles to a typed
//! [`zerosim_strategies::WorkloadPlan`] IR, lowers to a
//! [`zerosim_simkit::Dag`], and may carry a
//! [`zerosim_simkit::FaultSchedule`]. That makes the paper's headline
//! properties — which interconnect binds each ZeRO stage, when a model
//! stops fitting — *statically decidable* before a single simulated
//! flow runs. This crate owns that oracle: a Clippy-style diagnostics
//! framework (stable `ZLxxx` codes, allow/warn/deny levels, text and
//! JSON renderers) plus nine passes registered in a [`PassManager`]:
//!
//! | code  | lint                   | layer          |
//! |-------|------------------------|----------------|
//! | ZL001 | memory-residency       | plan + memory  |
//! | ZL002 | byte-conservation      | plan           |
//! | ZL003 | phase-ordering         | plan           |
//! | ZL004 | bandwidth-feasibility  | DAG + cluster  |
//! | ZL005 | dead-ops               | plan           |
//! | ZL006 | dag-cycle              | graph          |
//! | ZL007 | fault-schedule         | fault schedule |
//! | ZL008 | codec-legality         | plan           |
//! | ZL009 | step-time-bound        | DAG + calib    |
//!
//! Each invariant has one owner. `ClusterSpec::validate` checks every
//! rate, latency and capacity the hardware model is built from, and
//! `WorkloadPlan::validate` owns a plan's ranks, routes, caps and phase
//! rules; both run before any pass (see [`Artifacts::with_plan`]). The
//! collective schedule belongs to `zerosim-collectives`, so ZL004 reads
//! link loads off the lowered DAG rather than re-deriving them. The
//! passes lint only what those checks cannot see: residency against
//! capacity, byte provenance, micro-step order and reachability, link
//! classification, dead ops, codec legality and the step-time bound.
//!
//! ```
//! use zerosim_analyzer::{analyze_strategy, LintConfig};
//! use zerosim_hw::{Cluster, ClusterSpec};
//! use zerosim_model::GptConfig;
//! use zerosim_strategies::{Calibration, Strategy, TrainOptions, ZeroStage};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = Cluster::new(ClusterSpec::default().with_nodes(1))?;
//! let report = analyze_strategy(
//!     &cluster,
//!     &Strategy::Zero { stage: ZeroStage::Three },
//!     &GptConfig::paper_model_with_params(1.4),
//!     &TrainOptions::single_node(),
//!     &Calibration::default(),
//!     LintConfig::new(),
//! )?;
//! assert!(report.is_clean(), "{}", report.render_text());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod diag;
mod graph;
mod pass;
mod passes;

pub use diag::{Diagnostic, LintCode, LintConfig, LintLevel, Severity, Site};
pub use graph::{Ancestors, GraphView};
pub use pass::{
    AnalysisReport, Artifacts, BoundKind, LinkVerdict, MemoryVerdict, Pass, PassManager, Sink,
    StepTimeBound,
};
pub use passes::{
    BandwidthFeasibilityPass, ByteConservationPass, CodecLegalityPass, DagCyclePass, DeadOpsPass,
    FaultSchedulePass, MemoryResidencyPass, PhaseOrderingPass, StepTimeBoundPass,
};

use zerosim_hw::Cluster;
use zerosim_model::GptConfig;
use zerosim_strategies::{
    lower, Calibration, IterCtx, Strategy, StrategyError, StrategyPlan, TrainOptions,
};

/// Plans, lowers, and lints one strategy end to end: memory plan +
/// iteration plan + lowered DAG through every default pass.
///
/// This is the `planlint` entry point for named strategies; callers
/// holding other artifacts (a bare schedule, an untrusted graph) build an
/// [`Artifacts`] and run a [`PassManager`] directly. Lowering validates
/// the plan before any pass sees it, the contract
/// [`Artifacts::with_plan`] states.
///
/// # Errors
/// Returns the [`StrategyError`] if the strategy itself cannot plan or
/// lower on this cluster — that is an infrastructure failure, not a lint
/// finding.
pub fn analyze_strategy(
    cluster: &Cluster,
    strategy: &Strategy,
    model: &GptConfig,
    opts: &TrainOptions,
    calib: &Calibration,
    config: LintConfig,
) -> Result<AnalysisReport, StrategyError> {
    let ctx = IterCtx {
        cluster,
        model,
        opts,
        calib,
    };
    let memory = strategy.plan_memory(&ctx)?;
    let plan = strategy.plan_iteration(&ctx)?;
    let lowered = lower(&plan, cluster, calib)?;
    let pm = PassManager::with_default_passes(config);
    let art = Artifacts::new(cluster)
        .with_plan(&plan)
        .with_memory(&memory)
        .with_dag(lowered.dag())
        .with_calibration(calib);
    Ok(pm.run(&art))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

    #[test]
    fn analyze_strategy_runs_the_full_stack() {
        let cluster = Cluster::new(ClusterSpec::default().with_nodes(1)).unwrap();
        let r = analyze_strategy(
            &cluster,
            &Strategy::Ddp,
            &GptConfig::paper_model_with_params(1.4),
            &TrainOptions::single_node(),
            &Calibration::default(),
            LintConfig::new(),
        )
        .unwrap();
        assert!(r.is_clean(), "{}", r.render_text());
        assert!(r.memory.is_some(), "ZL001 ran");
        assert!(!r.links.is_empty(), "ZL004 classified links");
    }
}
