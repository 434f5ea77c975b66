//! `zerosim-strategies` — the distributed training strategies the paper
//! compares: PyTorch DDP, Megatron-LM model parallelism, DeepSpeed ZeRO
//! stages 1–3, ZeRO-Offload (CPU) and ZeRO-Infinity (NVMe).
//!
//! Strategy compilation is a two-stage pipeline:
//!
//! 1. **Planning** — a [`Strategy`] (the enum covers the paper's matrix)
//!    compiles model + cluster + options, bundled as an [`IterCtx`], into
//!    a [`MemoryPlan`] (bytes per tier, [`StrategyPlan::plan_memory`]) and
//!    a [`WorkloadPlan`] ([`StrategyPlan::plan_iteration`]): a typed IR of
//!    semantic operations (layer compute, collectives, tier transfers,
//!    optimizer steps) with explicit dependencies and phase labels.
//!    [`WorkloadPlan::validate`] checks the plan against the cluster.
//! 2. **Lowering** — [`lower`] compiles the plan once per configuration
//!    to a simkit task graph; [`LoweredPlan::stamp`] re-stamps only the
//!    jitter-seeded compute durations per iteration.
//!
//! The simulation engine sees only the plan and the lowered DAG, so
//! adding a strategy never touches the event loop. [`Strategy::name`] is
//! each strategy's one name: the paper's figure legend, and the key the
//! command-line tools look strategies up by.
//!
//! ```
//! use zerosim_hw::{Cluster, ClusterSpec};
//! use zerosim_model::GptConfig;
//! use zerosim_strategies::{
//!     Calibration, IterCtx, Strategy, StrategyPlan, TrainOptions, ZeroStage,
//! };
//!
//! # fn main() -> Result<(), String> {
//! let cluster = Cluster::new(ClusterSpec::default().with_nodes(1))?;
//! let model = GptConfig::paper_model_with_params(1.4);
//! let opts = TrainOptions::single_node();
//! let calib = Calibration::default();
//! let ctx = IterCtx { cluster: &cluster, model: &model, opts: &opts, calib: &calib };
//!
//! let ddp = Strategy::Ddp.plan_memory(&ctx).map_err(|e| e.to_string())?;
//! let z3 = Strategy::Zero { stage: ZeroStage::Three }
//!     .plan_memory(&ctx)
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
pub use resilience::{plan_checkpoint, plan_restore, snapshot_bytes_per_rank, RecoveryPolicy};
pub use serving::{kv_bucket, kv_bytes_per_token, ServingStrategy};
pub use zero::{InfinityPlacement, StateTier, ZeroPlusPlusFlags, ZeroStage};

use std::fmt::Debug;

/// The two planning questions a strategy answers: *where* its state lives
/// ([`MemoryPlan`]) and *what* one training iteration does (a
/// [`WorkloadPlan`] of semantic ops). Neither touches simkit; the engine
/// lowers the plan once per configuration and re-stamps durations per
/// iteration. [`Strategy`] is the one implementation; the engine, the
/// analyzer and the capacity search take `&Strategy`, and the benchmark
/// harness (`zerosim-perfbench`) times these two calls through a trait
/// object.
pub trait StrategyPlan: Debug {
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
}

impl StrategyPlan for Strategy {
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
}

#[cfg(test)]
mod strategy_plan_tests {
    use super::*;
    use zerosim_hw::{Cluster, ClusterSpec};
    use zerosim_model::GptConfig;

    #[test]
    fn megatron_infeasible_layout_is_an_error_not_a_panic() {
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
        let s = Strategy::Megatron { tp: 3, pp: 1 };
        assert!(s.plan_iteration(&ctx).is_err());
        assert!(s.plan_memory(&ctx).is_err());
    }
}
