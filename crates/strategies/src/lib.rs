//! `zerosim-strategies` — the distributed training strategies the paper
//! compares: PyTorch DDP, Megatron-LM model parallelism, DeepSpeed ZeRO
//! stages 1–3, ZeRO-Offload (CPU) and ZeRO-Infinity (NVMe).
//!
//! Strategy compilation is a two-stage pipeline:
//!
//! 1. **Planning** — a [`StrategyPlan`] implementation (the [`Strategy`]
//!    enum covers the paper's matrix) compiles model + cluster + options
//!    into a [`MemoryPlan`] (bytes per tier) and a [`WorkloadPlan`]: a typed
//!    IR of semantic operations (layer compute, collectives, tier
//!    transfers, optimizer steps) with explicit dependencies and phase
//!    labels. [`WorkloadPlan::validate`] machine-checks the paper's
//!    conservation laws against the cluster.
//! 2. **Lowering** — [`lower`] compiles the plan once per configuration
//!    to a simkit task graph; [`LoweredPlan::stamp`] re-stamps only the
//!    jitter-seeded compute durations per iteration.
//!
//! The simulation engine is strategy-agnostic: it sees `&dyn
//! StrategyPlan` and the lowered DAG, so adding a strategy never touches
//! the event loop.
//!
//! ```
//! use zerosim_hw::{Cluster, ClusterSpec};
//! use zerosim_model::GptConfig;
//! use zerosim_strategies::{Calibration, Strategy, TrainOptions, ZeroStage};
//!
//! # fn main() -> Result<(), String> {
//! let cluster = Cluster::new(ClusterSpec::default().with_nodes(1))?;
//! let model = GptConfig::paper_model_with_params(1.4);
//! let opts = TrainOptions::single_node();
//! let calib = Calibration::default();
//!
//! let ddp = Strategy::Ddp
//!     .memory_plan(&cluster, &model, &opts, &calib)
//!     .map_err(|e| e.to_string())?;
//! let z3 = Strategy::Zero { stage: ZeroStage::Three }
//!     .memory_plan(&cluster, &model, &opts, &calib)
//!     .map_err(|e| e.to_string())?;
//! assert!(z3.per_gpu_bytes < ddp.per_gpu_bytes);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builders;
mod calib;
mod capability;
mod ddp;
mod error;
mod lower;
mod megatron;
mod memory;
mod options;
mod placement;
mod plan;
mod resilience;
mod serving;
mod zero;

pub use builders::{IterCtx, PlanCtx};
pub use calib::Calibration;
pub use capability::ZeroCapability;
pub use error::StrategyError;
pub use lower::{lower, LoweredPlan};
pub use memory::MemoryPlan;
pub use options::TrainOptions;
pub use placement::{ParallelPlacement, PlacementSpans};
pub use plan::{
    Codec, Dtype, OpId, OptimizerDevice, Phase, PhaseStage, PlanNode, PlanOp, WorkloadKind,
    WorkloadPlan,
};
pub use resilience::{
    plan_checkpoint, plan_restore, snapshot_bytes_per_rank, snapshot_bytes_total, CheckpointSink,
    RecoveryPolicy,
};
pub use serving::{kv_bucket, kv_bytes_per_token, ServingStrategy};
pub use zero::{InfinityPlacement, StateTier, ZeroPlusPlusFlags, ZeroStage};

use std::fmt::Debug;

use zerosim_hw::Cluster;
use zerosim_model::GptConfig;
use zerosim_simkit::Dag;

/// The seam between strategy semantics and the simulation engine.
///
/// Implementations describe *what* one training iteration does — as an
/// [`WorkloadPlan`] of semantic ops plus a [`MemoryPlan`] — and never touch
/// simkit. The engine lowers the plan once per configuration and
/// re-stamps durations per iteration. The engine, the analyzer, the
/// capacity search and perfbench take `&dyn StrategyPlan`; [`Strategy`]
/// implements it.
pub trait StrategyPlan: Debug {
    /// Short display name matching the paper's figure legends.
    fn display_name(&self) -> String;

    /// Memory placement for the context's (cluster, model, options).
    ///
    /// # Errors
    /// [`StrategyError`] when the configuration is infeasible (bad
    /// layout, placement violating Table I, ...).
    fn plan_memory(&self, ctx: &IterCtx<'_>) -> Result<MemoryPlan, StrategyError>;

    /// Describes one training iteration as a [`WorkloadPlan`].
    ///
    /// # Errors
    /// [`StrategyError`] when the configuration is infeasible.
    fn plan_iteration(&self, ctx: &IterCtx<'_>) -> Result<WorkloadPlan, StrategyError>;

    /// The ZeRO capability row (Table I), for ZeRO-family strategies.
    fn capability(&self) -> Option<ZeroCapability> {
        None
    }
}

/// A distributed training strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// PyTorch Distributed Data-Parallel.
    Ddp,
    /// Megatron-LM with tensor parallelism of degree `tp`, pipeline depth
    /// `pp`, and data parallelism over the remaining GPUs.
    Megatron {
        /// Tensor-parallel degree (layer slicing; all-reduce per layer).
        tp: usize,
        /// Pipeline depth (layer partitioning; activations cross stages).
        pp: usize,
    },
    /// DeepSpeed ZeRO, everything on GPU.
    Zero {
        /// Partitioning stage.
        stage: ZeroStage,
    },
    /// ZeRO-Offload: optimizer states and computation on the CPU.
    ZeroOffload {
        /// Partitioning stage (1, 2, or 3).
        stage: ZeroStage,
        /// Also keep the (ZeRO-3-partitioned) parameters in host memory.
        offload_params: bool,
    },
    /// ZeRO-Infinity: optimizer states on NVMe (requires ZeRO-3).
    ZeroInfinity {
        /// Also place parameters on NVMe.
        offload_params: bool,
        /// Rank-to-volume assignment.
        placement: InfinityPlacement,
    },
    /// ZeRO++ communication-efficiency extensions over ZeRO-3 (arXiv
    /// 2306.10209): quantized weight all-gather (qwZ), hierarchical
    /// secondary parameter shard (hpZ), quantized gradient reduction
    /// (qgZ).
    ZeroPlusPlus {
        /// Which of the three extensions are enabled.
        flags: ZeroPlusPlusFlags,
    },
}

impl Strategy {
    /// Short display name matching the paper's figure legends.
    pub fn name(&self) -> String {
        match self {
            Strategy::Ddp => "PyTorch DDP".into(),
            Strategy::Megatron { tp, pp } => {
                if *pp == 1 {
                    format!("Megatron-LM (MP={tp})")
                } else {
                    format!("Megatron-LM (TP={tp},PP={pp})")
                }
            }
            Strategy::Zero { stage } => format!("ZeRO-{}", stage.number()),
            Strategy::ZeroOffload {
                stage,
                offload_params,
            } => {
                if *offload_params {
                    format!("ZeRO-{} (CPU opt+param)", stage.number())
                } else {
                    format!("ZeRO-{} (CPU)", stage.number())
                }
            }
            Strategy::ZeroInfinity { offload_params, .. } => {
                if *offload_params {
                    "ZeRO-Infinity (NVME opt+param)".into()
                } else {
                    "ZeRO-Infinity (NVME opt)".into()
                }
            }
            Strategy::ZeroPlusPlus { flags } => {
                let mut parts = Vec::new();
                if flags.quantize_weights {
                    parts.push("qwZ");
                }
                if flags.hierarchical_params {
                    parts.push("hpZ");
                }
                if flags.quantize_gradients {
                    parts.push("qgZ");
                }
                if parts.is_empty() {
                    "ZeRO++".into()
                } else {
                    format!("ZeRO++ ({})", parts.join("+"))
                }
            }
        }
    }

    /// ZeRO++ with only the quantized weight all-gather (qwZ) enabled.
    pub fn qwz() -> Strategy {
        Strategy::ZeroPlusPlus {
            flags: ZeroPlusPlusFlags {
                quantize_weights: true,
                ..Default::default()
            },
        }
    }

    /// ZeRO++ with only the hierarchical secondary shard (hpZ) enabled.
    pub fn hpz() -> Strategy {
        Strategy::ZeroPlusPlus {
            flags: ZeroPlusPlusFlags {
                hierarchical_params: true,
                ..Default::default()
            },
        }
    }

    /// ZeRO++ with only the quantized gradient reduction (qgZ) enabled.
    pub fn qgz() -> Strategy {
        Strategy::ZeroPlusPlus {
            flags: ZeroPlusPlusFlags {
                quantize_gradients: true,
                ..Default::default()
            },
        }
    }

    fn zero_variant(&self) -> Option<zero::ZeroVariant> {
        match self {
            Strategy::Zero { stage } => Some(zero::ZeroVariant {
                stage: *stage,
                optimizer_tier: StateTier::Gpu,
                params_tier: StateTier::Gpu,
                placement: None,
                zeropp: ZeroPlusPlusFlags::default(),
            }),
            Strategy::ZeroPlusPlus { flags } => Some(zero::ZeroVariant {
                stage: ZeroStage::Three,
                optimizer_tier: StateTier::Gpu,
                params_tier: StateTier::Gpu,
                placement: None,
                zeropp: *flags,
            }),
            Strategy::ZeroOffload {
                stage,
                offload_params,
            } => Some(zero::ZeroVariant {
                stage: *stage,
                optimizer_tier: StateTier::Cpu,
                params_tier: if *offload_params {
                    StateTier::Cpu
                } else {
                    StateTier::Gpu
                },
                placement: None,
                zeropp: ZeroPlusPlusFlags::default(),
            }),
            Strategy::ZeroInfinity {
                offload_params,
                placement,
            } => Some(zero::ZeroVariant {
                stage: ZeroStage::Three,
                optimizer_tier: StateTier::Nvme,
                params_tier: if *offload_params {
                    StateTier::Nvme
                } else {
                    StateTier::Gpu
                },
                placement: Some(placement.clone()),
                zeropp: ZeroPlusPlusFlags::default(),
            }),
            _ => None,
        }
    }

    /// Memory placement for training `model` on `cluster` under `opts`.
    ///
    /// # Errors
    /// [`StrategyError`] when the configuration is infeasible.
    pub fn memory_plan(
        &self,
        cluster: &Cluster,
        model: &GptConfig,
        opts: &TrainOptions,
        calib: &Calibration,
    ) -> Result<MemoryPlan, StrategyError> {
        let ctx = IterCtx {
            cluster,
            model,
            opts,
            calib,
        };
        self.plan_memory(&ctx)
    }

    /// Builds the task graph of one training iteration by planning,
    /// lowering, and stamping with `opts.jitter_seed`.
    ///
    /// One-shot convenience: the characterization engine instead lowers
    /// once and re-stamps per iteration (see [`lower`] /
    /// [`LoweredPlan::stamp`]).
    ///
    /// # Errors
    /// [`StrategyError`] when the configuration is infeasible (e.g.
    /// Megatron `tp × pp` not dividing the GPU count, or NVMe offload
    /// without volumes).
    pub fn build_iteration(
        &self,
        cluster: &Cluster,
        model: &GptConfig,
        opts: &TrainOptions,
        calib: &Calibration,
    ) -> Result<Dag, StrategyError> {
        let ctx = IterCtx {
            cluster,
            model,
            opts,
            calib,
        };
        let plan = self.plan_iteration(&ctx)?;
        let mut lowered = lower(&plan, cluster, calib)?;
        lowered.stamp(opts.jitter_seed);
        Ok(lowered.into_dag())
    }

    /// The ZeRO capability row (Table I), if this is a ZeRO-family
    /// strategy.
    pub fn capability(&self) -> Option<ZeroCapability> {
        match self {
            Strategy::Zero { stage } | Strategy::ZeroOffload { stage, .. } => {
                Some(ZeroCapability::for_stage(*stage))
            }
            Strategy::ZeroInfinity { .. } | Strategy::ZeroPlusPlus { .. } => {
                Some(ZeroCapability::for_stage(ZeroStage::Three))
            }
            _ => None,
        }
    }
}

impl StrategyPlan for Strategy {
    fn display_name(&self) -> String {
        self.name()
    }

    fn plan_memory(&self, ctx: &IterCtx<'_>) -> Result<MemoryPlan, StrategyError> {
        match self {
            Strategy::Ddp => ddp::memory_plan(ctx),
            Strategy::Megatron { tp, pp } => megatron::memory_plan(ctx, *tp, *pp),
            _ => {
                let v = self.zero_variant().ok_or_else(|| {
                    StrategyError::placement("strategy has no ZeRO state placement")
                })?;
                zero::memory_plan(ctx, &v)
            }
        }
    }

    fn plan_iteration(&self, ctx: &IterCtx<'_>) -> Result<WorkloadPlan, StrategyError> {
        match self {
            Strategy::Ddp => ddp::plan_iteration(ctx),
            Strategy::Megatron { tp, pp } => megatron::plan_iteration(ctx, *tp, *pp),
            _ => {
                let v = self.zero_variant().ok_or_else(|| {
                    StrategyError::placement("strategy has no ZeRO state placement")
                })?;
                zero::plan_iteration(ctx, &v)
            }
        }
    }

    fn capability(&self) -> Option<ZeroCapability> {
        Strategy::capability(self)
    }
}

#[cfg(test)]
mod strategy_plan_tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

    #[test]
    fn trait_and_inherent_apis_agree() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::default();
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let s = Strategy::Zero {
            stage: ZeroStage::Three,
        };
        let dyn_s: &dyn StrategyPlan = &s;
        assert_eq!(dyn_s.display_name(), s.name());
        let m1 = dyn_s.plan_memory(&ctx).unwrap();
        let m2 = s.memory_plan(&cluster, &model, &opts, &calib).unwrap();
        assert_eq!(m1.per_gpu_bytes, m2.per_gpu_bytes);
        assert!(dyn_s.capability().is_some());
        assert!(StrategyPlan::capability(&Strategy::Ddp).is_none());
    }

    #[test]
    fn build_iteration_stamps_with_the_options_seed() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::default();
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let dag = Strategy::Ddp
            .build_iteration(&cluster, &model, &opts, &calib)
            .unwrap();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let plan = Strategy::Ddp.plan_iteration(&ctx).unwrap();
        let mut lowered = lower(&plan, &cluster, &calib).unwrap();
        let stamped = lowered.stamp(opts.jitter_seed);
        assert_eq!(dag.len(), stamped.len());
    }

    #[test]
    fn megatron_infeasible_layout_is_an_error_not_a_panic() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::default();
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let s = Strategy::Megatron { tp: 3, pp: 1 };
        assert!(s.build_iteration(&cluster, &model, &opts, &calib).is_err());
        assert!(s.memory_plan(&cluster, &model, &opts, &calib).is_err());
    }
}
