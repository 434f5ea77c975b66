//! Shared building blocks for iteration plans.
//!
//! [`IterCtx`] carries the read-only inputs of strategy compilation and
//! the pure performance-model arithmetic; [`PlanCtx`] wraps it with an
//! in-progress [`WorkloadPlan`] and the semantic op emitters that replaced
//! the seed implementation's raw `DagBuilder` helpers.

use std::ops::Deref;

use zerosim_collectives::{CollectiveKind, CommGroup};
use zerosim_hw::{Cluster, GpuId, IoDir, MemLoc, SocketId, VolumeId};
use zerosim_model::GptConfig;

use crate::calib::Calibration;
use crate::options::TrainOptions;
use crate::plan::{Codec, OpId, PhaseStage, PlanOp, WorkloadKind, WorkloadPlan};

/// Everything an iteration planner needs to consult.
#[derive(Debug, Clone, Copy)]
pub struct IterCtx<'a> {
    /// The simulated cluster.
    pub cluster: &'a Cluster,
    /// The model being trained.
    pub model: &'a GptConfig,
    /// Run options.
    pub opts: &'a TrainOptions,
    /// Performance-model constants.
    pub calib: &'a Calibration,
}

impl<'a> IterCtx<'a> {
    /// Tokens processed per iteration across the whole run, including all
    /// gradient-accumulation micro-steps.
    pub fn total_tokens(&self) -> f64 {
        self.model
            .tokens_per_iteration(self.opts.per_gpu_batch, self.opts.num_gpus(self.cluster))
            * self.opts.grad_accum as f64
    }

    /// Forward FLOPs of one transformer layer over `tokens` tokens,
    /// divided across `mp` model-parallel ranks.
    pub fn layer_fwd_flops(&self, tokens: f64, mp: usize) -> f64 {
        let h = self.model.hidden_size as f64;
        let dense = 2.0 * self.model.layer_params() * tokens;
        let attention = 4.0 * self.model.seq_len as f64 * h * tokens;
        (dense + attention) / mp as f64
    }

    /// Forward FLOPs of the embedding + vocabulary projection over
    /// `tokens` tokens, divided across `mp` ranks.
    pub fn embedding_fwd_flops(&self, tokens: f64, mp: usize) -> f64 {
        2.0 * self.model.embedding_params() * tokens / mp as f64
    }

    /// Socket a rank's host-side partition lives on. A
    /// `offload_cross_socket_frac` share of ranks gets mis-placed on the
    /// neighbouring socket, reproducing the paper's observation that
    /// DeepSpeed's offload path is not NUMA-aware (Sec. V-A3).
    pub fn offload_socket(&self, rank: usize, gpu: GpuId) -> SocketId {
        let natural = self.cluster.gpu_socket(gpu);
        // The fraction is clamped >= 1e-9, so the stride is finite and
        // positive; realistic values are single digits.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let stride = (1.0 / self.calib.offload_cross_socket_frac.max(1e-9)).round() as usize;
        if stride > 0 && rank % stride.max(1) == stride.max(1) - 1 {
            SocketId {
                node: natural.node,
                socket: 1 - natural.socket,
            }
        } else {
            natural
        }
    }

    /// Number of layers grouped per communication bucket, bounding DAG
    /// size for very deep models.
    pub fn comm_bucket_layers(&self) -> usize {
        self.model.num_layers.div_ceil(48).max(1)
    }

    /// The span-log track for a GPU (its resource index, by convention).
    // Resource ids are small (one per GPU on the cluster).
    #[allow(clippy::cast_possible_truncation)]
    pub fn gpu_track(&self, gpu: GpuId) -> u32 {
        self.cluster.gpu_resource(gpu).0 as u32
    }
}

/// An [`IterCtx`] plus the [`WorkloadPlan`] being emitted.
///
/// Strategies describe one training iteration through these emitters;
/// none of them touches simkit. The expansion into tasks (collective ring
/// schedules, tier routing, jittered durations) happens later in
/// [`crate::lower::lower`].
#[derive(Debug)]
pub struct PlanCtx<'a> {
    ctx: IterCtx<'a>,
    plan: WorkloadPlan,
}

impl<'a> Deref for PlanCtx<'a> {
    type Target = IterCtx<'a>;
    fn deref(&self) -> &IterCtx<'a> {
        &self.ctx
    }
}

impl<'a> PlanCtx<'a> {
    /// Starts an empty plan of `kind` for `ctx` (see
    /// [`WorkloadPlan::of_kind`]): serving plans enter
    /// [`PhaseStage::Prefill`] or [`PhaseStage::Decode`] before emitting
    /// compute, checkpoint plans stay in [`PhaseStage::Checkpoint`].
    pub fn new(ctx: IterCtx<'a>, kind: WorkloadKind) -> Self {
        PlanCtx {
            ctx,
            plan: WorkloadPlan::of_kind(kind),
        }
    }

    /// Finalizes the plan.
    pub fn finish(self) -> WorkloadPlan {
        self.plan
    }

    /// Enters a new phase; subsequent ops carry this label.
    pub fn set_phase(&mut self, stage: PhaseStage, micro: u32) {
        self.plan.set_phase(stage, micro);
    }

    /// Number of ops emitted so far.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// True when no ops have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// The fixed per-iteration overhead every chain hangs off.
    pub fn prologue(&mut self) -> OpId {
        self.plan.push(PlanOp::Overhead, &[])
    }

    /// One layer's (or fused phase's) GPU compute: GEMM + element-wise
    /// spans, serialized on the GPU.
    pub fn layer_compute(
        &mut self,
        gpu: GpuId,
        flops: f64,
        label: &'static str,
        deps: &[OpId],
    ) -> OpId {
        self.plan
            .push(PlanOp::LayerCompute { gpu, flops, label }, deps)
    }

    /// A fixed-duration (un-jittered) GPU span.
    pub fn fixed_compute(
        &mut self,
        gpu: GpuId,
        secs: f64,
        label: &'static str,
        deps: &[OpId],
    ) -> OpId {
        self.plan
            .push(PlanOp::FixedCompute { gpu, secs, label }, deps)
    }

    /// The weight-update (GPU Adam) op for `params` parameters.
    pub fn gpu_adam(&mut self, gpu: GpuId, params: f64, deps: &[OpId]) -> OpId {
        self.plan.push(
            PlanOp::OptimizerStep {
                device: crate::plan::OptimizerDevice::Gpu(gpu),
                params,
            },
            deps,
        )
    }

    /// The CPU Adam op for `params` parameters on `socket`.
    pub fn cpu_adam(&mut self, socket: SocketId, params: f64, deps: &[OpId]) -> OpId {
        self.plan.push(
            PlanOp::OptimizerStep {
                device: crate::plan::OptimizerDevice::Cpu(socket),
                params,
            },
            deps,
        )
    }

    /// A collective over `group` with a per-flow inter-node rate ceiling
    /// (`f64::INFINITY` for raw RDMA-grade NCCL).
    pub fn collective(
        &mut self,
        kind: CollectiveKind,
        group: CommGroup,
        bytes: f64,
        cap: f64,
        deps: &[OpId],
    ) -> OpId {
        self.plan.push(
            PlanOp::Collective {
                kind,
                group,
                bytes,
                cap,
            },
            deps,
        )
    }

    /// A collective whose payload moves through a declared wire codec
    /// (ZeRO++-style quantized communication). `bytes` stays the
    /// full-precision payload; lowering and the analyzer price the wire
    /// at `bytes × codec.ratio`.
    #[allow(clippy::too_many_arguments)]
    pub fn collective_with_codec(
        &mut self,
        kind: CollectiveKind,
        group: CommGroup,
        bytes: f64,
        cap: f64,
        codec: Codec,
        deps: &[OpId],
    ) -> OpId {
        let id = self.collective(kind, group, bytes, cap, deps);
        self.plan.set_codec(id, codec);
        id
    }

    /// A point-to-point transfer between memory tiers; the route is
    /// resolved by the hardware model at lowering time.
    pub fn transfer(
        &mut self,
        src: MemLoc,
        dst: MemLoc,
        bytes: f64,
        label: &'static str,
        track: u32,
        deps: &[OpId],
    ) -> OpId {
        self.plan.push(
            PlanOp::TierTransfer {
                src,
                dst,
                bytes,
                label,
                track,
            },
            deps,
        )
    }

    /// A striped read/write against an NVMe volume from `socket`.
    #[allow(clippy::too_many_arguments)]
    pub fn volume_io(
        &mut self,
        volume: VolumeId,
        socket: SocketId,
        dir: IoDir,
        bytes: f64,
        label: &'static str,
        track: u32,
        deps: &[OpId],
    ) -> OpId {
        self.plan.push(
            PlanOp::VolumeIo {
                volume,
                socket,
                dir,
                bytes,
                label,
                track,
            },
            deps,
        )
    }

    /// A zero-cost join point over `deps`.
    pub fn barrier(&mut self, deps: &[OpId]) -> OpId {
        self.plan.push(PlanOp::Barrier, deps)
    }

    /// Appends `bytes` of KV-cache entries on `gpu` (serving plans only;
    /// residency tracked by planlint ZL001, zero-duration at lowering).
    pub fn kv_append(&mut self, gpu: GpuId, bytes: f64, deps: &[OpId]) -> OpId {
        self.plan.push(PlanOp::KvAppend { gpu, bytes }, deps)
    }

    /// The input-pipeline H2D staging for one GPU (token ids plus the
    /// framework's small per-iteration host traffic), preceded by the
    /// data-loader's DRAM activity on the GPU's socket.
    pub fn input_h2d(&mut self, gpu: GpuId, deps: &[OpId]) -> OpId {
        let socket = self.ctx.cluster.gpu_socket(gpu);
        let track = self.ctx.gpu_track(gpu);
        // Host-side shuffling/bookkeeping: DRAM-only traffic.
        let prep = self.transfer(
            MemLoc::Cpu(socket),
            MemLoc::Cpu(socket),
            self.ctx.calib.host_dram_bytes_per_iter,
            "host_prep",
            track,
            deps,
        );
        let bytes = (self.ctx.opts.per_gpu_batch * self.ctx.model.seq_len * 4) as f64
            + self.ctx.calib.host_pcie_bytes_per_iter;
        self.transfer(
            MemLoc::Cpu(socket),
            MemLoc::Gpu(gpu),
            bytes,
            "h2d",
            track,
            &[prep],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

    fn fixtures() -> (Cluster, GptConfig, TrainOptions, Calibration) {
        (
            Cluster::new(ClusterSpec::default()).unwrap(),
            GptConfig::default(),
            TrainOptions::single_node(),
            Calibration::default(),
        )
    }

    #[test]
    fn layer_flops_split_by_mp() {
        let (c, m, o, k) = fixtures();
        let ctx = IterCtx {
            cluster: &c,
            model: &m,
            opts: &o,
            calib: &k,
        };
        let f1 = ctx.layer_fwd_flops(4096.0, 1);
        let f4 = ctx.layer_fwd_flops(4096.0, 4);
        assert!((f1 / f4 - 4.0).abs() < 1e-12);
        assert_eq!(ctx.total_tokens(), 16384.0 * o.grad_accum as f64);
    }

    #[test]
    fn input_h2d_emits_prep_then_copy() {
        let (c, m, o, k) = fixtures();
        let ctx = IterCtx {
            cluster: &c,
            model: &m,
            opts: &o,
            calib: &k,
        };
        let mut p = PlanCtx::new(ctx, WorkloadKind::Iteration);
        assert!(p.is_empty());
        let pro = p.prologue();
        let g = GpuId { node: 0, gpu: 0 };
        p.input_h2d(g, &[pro]);
        assert_eq!(p.len(), 3); // prologue + host_prep + h2d
        let plan = p.finish();
        assert!(matches!(
            plan.nodes()[1].op,
            PlanOp::TierTransfer {
                label: "host_prep",
                ..
            }
        ));
        assert!(matches!(
            plan.nodes()[2].op,
            PlanOp::TierTransfer { label: "h2d", .. }
        ));
    }

    #[test]
    fn offload_socket_misplaces_some_ranks() {
        let (c, m, o, k) = fixtures();
        let ctx = IterCtx {
            cluster: &c,
            model: &m,
            opts: &o,
            calib: &k,
        };
        let gpus = o.gpus(&c).unwrap();
        let misplaced = gpus
            .iter()
            .enumerate()
            .filter(|(r, g)| ctx.offload_socket(*r, **g) != c.gpu_socket(**g))
            .count();
        assert!(misplaced >= 1, "some rank must land cross-socket");
        assert!(misplaced < gpus.len(), "not all ranks cross-socket");
    }

    #[test]
    fn comm_buckets_bound_dag_size() {
        let (c, _, o, k) = fixtures();
        let deep = GptConfig::paper_model(659);
        let ctx = IterCtx {
            cluster: &c,
            model: &deep,
            opts: &o,
            calib: &k,
        };
        assert!(ctx.comm_bucket_layers() >= 13);
        let shallow = GptConfig::paper_model(26);
        let ctx2 = IterCtx {
            cluster: &c,
            model: &shallow,
            opts: &o,
            calib: &k,
        };
        assert_eq!(ctx2.comm_bucket_layers(), 1);
    }
}
