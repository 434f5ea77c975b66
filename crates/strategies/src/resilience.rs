//! Checkpoint/restart planning and the recovery policy.
//!
//! Resilient training periodically snapshots the model states that cannot
//! be recomputed — the FP16 parameters and the FP32 optimizer state
//! (14 bytes/parameter; gradients are transient and re-derived) — to host
//! DRAM, and on node loss restarts from the last snapshot, replaying the
//! iterations committed since. This module provides:
//!
//! * [`RecoveryPolicy`] — how often to checkpoint and how restart is
//!   charged (relaunch delay, attempt budget);
//! * [`plan_checkpoint`] / [`plan_restore`] — [`WorkloadKind::Checkpoint`]
//!   plans emitting the per-rank GPU↔DRAM snapshot traffic, lowered once
//!   and run by the core engine between iterations.
//!
//! Snapshots are sharded: each data-parallel rank writes `14 P / world`
//! bytes (a ZeRO-style partitioned checkpoint), so checkpoint cost scales
//! down with the cluster exactly as DeepSpeed's `save_checkpoint` does.

use zerosim_hw::MemLoc;

use crate::builders::{IterCtx, PlanCtx};
use crate::error::StrategyError;
use crate::plan::{WorkloadKind, WorkloadPlan};

/// How a resilient run checkpoints and recovers from node loss.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Take a checkpoint every `checkpoint_interval` committed
    /// iterations; `0` disables checkpointing (a fault then replays the
    /// whole run so far).
    pub checkpoint_interval: usize,
    /// Wall-clock seconds charged per restart before the restore traffic
    /// begins (job relaunch, process group re-formation, NCCL re-init).
    pub restart_delay_s: f64,
    /// Maximum number of recoveries before the run is declared failed.
    pub max_recoveries: usize,
}

impl RecoveryPolicy {
    /// No checkpointing and no recovery budget: a node loss ends the run.
    pub fn none() -> Self {
        RecoveryPolicy {
            checkpoint_interval: 0,
            restart_delay_s: 0.0,
            max_recoveries: 0,
        }
    }

    /// Checkpoint every `interval` committed iterations with a default
    /// 10 s relaunch delay and a budget of 8 recoveries.
    pub fn every(interval: usize) -> Self {
        RecoveryPolicy {
            checkpoint_interval: interval,
            restart_delay_s: 10.0,
            max_recoveries: 8,
        }
    }

    /// Overrides the relaunch delay.
    pub fn with_restart_delay(mut self, secs: f64) -> Self {
        self.restart_delay_s = secs;
        self
    }

    /// Overrides the recovery budget.
    pub fn with_max_recoveries(mut self, n: usize) -> Self {
        self.max_recoveries = n;
        self
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::none()
    }
}

/// Bytes of durable state each rank snapshots: FP16 parameters plus FP32
/// optimizer state (14 bytes/parameter), sharded across the world size.
/// Gradients are transient and excluded.
///
/// # Errors
/// [`StrategyError::InvalidLayout`] when the options span no node or more
/// nodes than the cluster has.
pub fn snapshot_bytes_per_rank(ctx: &IterCtx<'_>) -> Result<f64, StrategyError> {
    let states = ctx.model.model_states();
    let world = ctx.opts.num_gpus(ctx.cluster)? as f64;
    Ok((states.params + states.optimizer) / world)
}

/// Builds the checkpoint-snapshot plan: every rank drains its state shard
/// GPU→DRAM, joined by a final barrier so the snapshot commits
/// atomically.
///
/// # Errors
/// [`StrategyError::InvalidLayout`] when the options span no node or more
/// nodes than the cluster has.
pub fn plan_checkpoint(ctx: &IterCtx<'_>) -> Result<WorkloadPlan, StrategyError> {
    plan_state_movement(ctx, Direction::Save)
}

/// Builds the restore plan: the mirror of [`plan_checkpoint`] (DRAM→GPU
/// copies), run once after a restart before training resumes.
///
/// # Errors
/// As [`plan_checkpoint`].
pub fn plan_restore(ctx: &IterCtx<'_>) -> Result<WorkloadPlan, StrategyError> {
    plan_state_movement(ctx, Direction::Restore)
}

#[derive(Clone, Copy)]
enum Direction {
    Save,
    Restore,
}

fn plan_state_movement(ctx: &IterCtx<'_>, dir: Direction) -> Result<WorkloadPlan, StrategyError> {
    let bytes = snapshot_bytes_per_rank(ctx)?;
    let mut p = PlanCtx::new(*ctx, WorkloadKind::Checkpoint);
    let mut joins = Vec::new();
    for gpu in ctx.opts.gpus(ctx.cluster)? {
        let device = MemLoc::Gpu(gpu);
        let host = MemLoc::Cpu(ctx.cluster.gpu_socket(gpu));
        let (src, dst, label) = match dir {
            Direction::Save => (device, host, "ckpt_d2h"),
            Direction::Restore => (host, device, "ckpt_h2d"),
        };
        joins.push(p.transfer(src, dst, bytes, label, ctx.gpu_track(gpu), &[]));
    }
    p.barrier(&joins);
    let plan = p.finish();
    debug_assert_eq!(plan.kind(), WorkloadKind::Checkpoint);
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::lower::lower;
    use crate::options::TrainOptions;
    use zerosim_hw::{Cluster, ClusterSpec};
    use zerosim_model::GptConfig;

    fn fixtures() -> (Cluster, GptConfig, TrainOptions, Calibration) {
        (
            Cluster::new(ClusterSpec::default()).unwrap(),
            GptConfig::default(),
            TrainOptions::single_node(),
            Calibration::default(),
        )
    }

    #[test]
    fn snapshot_is_14_bytes_per_param_sharded() {
        let (c, m, o, k) = fixtures();
        let ctx = IterCtx {
            cluster: &c,
            model: &m,
            opts: &o,
            calib: &k,
        };
        let world = o.num_gpus(&c).unwrap() as f64;
        let expect = 14.0 * m.num_params() / world;
        assert!((snapshot_bytes_per_rank(&ctx).unwrap() - expect).abs() < 1.0);
    }

    #[test]
    fn dram_checkpoint_validates_and_lowers() {
        let (c, m, o, k) = fixtures();
        let ctx = IterCtx {
            cluster: &c,
            model: &m,
            opts: &o,
            calib: &k,
        };
        let plan = plan_checkpoint(&ctx).unwrap();
        assert_eq!(plan.kind(), WorkloadKind::Checkpoint);
        // One d2h per rank plus the commit barrier.
        assert_eq!(plan.len(), o.num_gpus(&c).unwrap() + 1);
        plan.validate(&c).unwrap();
        let lowered = lower(&plan, &c, &k).unwrap();
        // Pure state movement: nothing to re-stamp per iteration.
        assert_eq!(lowered.stamped_tasks(), 0);
        // The restore plan mirrors the save: one h2d per rank, same bytes.
        let restore = plan_restore(&ctx).unwrap();
        restore.validate(&c).unwrap();
        assert_eq!(restore.len(), plan.len());
        assert_eq!(restore.staging_bytes(), plan.staging_bytes());
        lower(&restore, &c, &k).unwrap();
    }

    #[test]
    fn policy_builders() {
        let p = RecoveryPolicy::every(5)
            .with_restart_delay(2.5)
            .with_max_recoveries(3);
        assert_eq!(p.checkpoint_interval, 5);
        assert_eq!(p.restart_delay_s, 2.5);
        assert_eq!(p.max_recoveries, 3);
        assert_eq!(RecoveryPolicy::none().checkpoint_interval, 0);
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::none());
    }
}
