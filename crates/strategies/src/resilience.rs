//! Checkpoint/restart planning and the recovery policy.
//!
//! Resilient training periodically snapshots the model states that cannot
//! be recomputed — the FP16 parameters and the FP32 optimizer state
//! (14 bytes/parameter; gradients are transient and re-derived) — to a
//! durable tier, and on node loss restarts from the last snapshot,
//! replaying the iterations committed since. This module provides:
//!
//! * [`RecoveryPolicy`] — how often to checkpoint and how restart is
//!   charged (relaunch delay, attempt budget);
//! * [`CheckpointSink`] — where snapshots land (host DRAM or striped
//!   NVMe volumes via an [`InfinityPlacement`]);
//! * [`plan_checkpoint`] / [`plan_restore`] — [`WorkloadKind::Checkpoint`]
//!   plans emitting the per-rank snapshot traffic, lowered once and run
//!   by the core engine between iterations.
//!
//! Snapshots are sharded: each data-parallel rank writes `14 P / world`
//! bytes (a ZeRO-style partitioned checkpoint), so checkpoint cost scales
//! down with the cluster exactly as DeepSpeed's `save_checkpoint` does.

use zerosim_hw::{IoDir, MemLoc};

use crate::builders::{IterCtx, PlanCtx};
use crate::plan::{WorkloadKind, WorkloadPlan};
use crate::zero::InfinityPlacement;

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

/// Where checkpoint snapshots are written.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointSink {
    /// Snapshots stay in host DRAM on each rank's socket (fast, lost
    /// with the node — models in-memory checkpointing).
    Dram,
    /// Snapshots are striped onto NVMe volumes, one volume per rank via
    /// the same round-robin placement ZeRO-Infinity uses for offload.
    Nvme(InfinityPlacement),
}

/// Bytes of durable state each rank snapshots: FP16 parameters plus FP32
/// optimizer state (14 bytes/parameter), sharded across the world size.
/// Gradients are transient and excluded.
pub fn snapshot_bytes_per_rank(ctx: &IterCtx<'_>) -> f64 {
    let states = ctx.model.model_states();
    let world = ctx.opts.num_gpus(ctx.cluster).max(1) as f64;
    (states.params + states.optimizer) / world
}

/// Bytes a full checkpoint moves cluster-wide: every rank's shard summed
/// back up. Independent of world size (the shards partition the durable
/// state); the fleet layer uses it to sanity-scale measured checkpoint
/// cost against sink bandwidth.
pub fn snapshot_bytes_total(ctx: &IterCtx<'_>) -> f64 {
    let world = ctx.opts.num_gpus(ctx.cluster).max(1) as f64;
    snapshot_bytes_per_rank(ctx) * world
}

/// Builds the checkpoint-snapshot plan: every rank drains its state shard
/// GPU→DRAM (and onward to NVMe for [`CheckpointSink::Nvme`]), joined by
/// a final barrier so the snapshot commits atomically.
pub fn plan_checkpoint(ctx: &IterCtx<'_>, sink: &CheckpointSink) -> WorkloadPlan {
    plan_state_movement(ctx, sink, Direction::Save)
}

/// Builds the restore plan: the mirror of [`plan_checkpoint`] (NVMe→DRAM
/// →GPU reads), run once after a restart before training resumes.
pub fn plan_restore(ctx: &IterCtx<'_>, sink: &CheckpointSink) -> WorkloadPlan {
    plan_state_movement(ctx, sink, Direction::Restore)
}

#[derive(Clone, Copy)]
enum Direction {
    Save,
    Restore,
}

fn plan_state_movement(ctx: &IterCtx<'_>, sink: &CheckpointSink, dir: Direction) -> WorkloadPlan {
    let bytes = snapshot_bytes_per_rank(ctx);
    let mut p = PlanCtx::new(*ctx, WorkloadKind::Checkpoint);
    let mut joins = Vec::new();
    for (rank, gpu) in ctx.opts.gpus(ctx.cluster).into_iter().enumerate() {
        let socket = ctx.cluster.gpu_socket(gpu);
        let track = ctx.gpu_track(gpu);
        let tail = match (dir, sink) {
            (Direction::Save, CheckpointSink::Dram) => p.transfer(
                MemLoc::Gpu(gpu),
                MemLoc::Cpu(socket),
                bytes,
                "ckpt_d2h",
                track,
                &[],
            ),
            (Direction::Save, CheckpointSink::Nvme(placement)) => {
                let d2h = p.transfer(
                    MemLoc::Gpu(gpu),
                    MemLoc::Cpu(socket),
                    bytes,
                    "ckpt_d2h",
                    track,
                    &[],
                );
                p.volume_io(
                    placement.volume_for(rank),
                    socket,
                    IoDir::Write,
                    bytes,
                    "ckpt_write",
                    track,
                    &[d2h],
                )
            }
            (Direction::Restore, CheckpointSink::Dram) => p.transfer(
                MemLoc::Cpu(socket),
                MemLoc::Gpu(gpu),
                bytes,
                "ckpt_h2d",
                track,
                &[],
            ),
            (Direction::Restore, CheckpointSink::Nvme(placement)) => {
                let read = p.volume_io(
                    placement.volume_for(rank),
                    socket,
                    IoDir::Read,
                    bytes,
                    "ckpt_read",
                    track,
                    &[],
                );
                p.transfer(
                    MemLoc::Cpu(socket),
                    MemLoc::Gpu(gpu),
                    bytes,
                    "ckpt_h2d",
                    track,
                    &[read],
                )
            }
        };
        joins.push(tail);
    }
    p.barrier(&joins);
    let plan = p.finish();
    debug_assert_eq!(plan.kind(), WorkloadKind::Checkpoint);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::lower::lower;
    use crate::options::TrainOptions;
    use zerosim_hw::{Cluster, ClusterSpec, NvmeId};
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
        let world = o.num_gpus(&c) as f64;
        let expect = 14.0 * m.num_params() / world;
        assert!((snapshot_bytes_per_rank(&ctx) - expect).abs() < 1.0);
        // The cluster-wide total is world-size invariant.
        assert!((snapshot_bytes_total(&ctx) - 14.0 * m.num_params()).abs() < world);
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
        let plan = plan_checkpoint(&ctx, &CheckpointSink::Dram);
        assert_eq!(plan.kind(), WorkloadKind::Checkpoint);
        // One d2h per rank plus the commit barrier.
        assert_eq!(plan.len(), o.num_gpus(&c) + 1);
        plan.validate(&c).unwrap();
        let lowered = lower(&plan, &c, &k).unwrap();
        // Pure state movement: nothing to re-stamp per iteration.
        assert_eq!(lowered.stamped_tasks(), 0);
    }

    #[test]
    fn nvme_checkpoint_round_trips() {
        let (mut c, m, o, k) = fixtures();
        let vol = c.create_volume(vec![
            NvmeId { node: 0, drive: 0 },
            NvmeId { node: 0, drive: 1 },
        ]);
        let sink = CheckpointSink::Nvme(InfinityPlacement::new(vec![vol]));
        let ctx = IterCtx {
            cluster: &c,
            model: &m,
            opts: &o,
            calib: &k,
        };
        let save = plan_checkpoint(&ctx, &sink);
        let restore = plan_restore(&ctx, &sink);
        save.validate(&c).unwrap();
        restore.validate(&c).unwrap();
        // d2h + nvme write per rank, plus the barrier.
        assert_eq!(save.len(), 2 * o.num_gpus(&c) + 1);
        assert_eq!(save.staging_bytes(), restore.staging_bytes());
        lower(&save, &c, &k).unwrap();
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
