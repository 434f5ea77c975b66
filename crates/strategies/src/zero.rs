//! DeepSpeed ZeRO stages 1–3, including the ZeRO-Offload (CPU) and
//! ZeRO-Infinity (NVMe) placements, as one parameterized planner.
//!
//! The three stages partition, respectively: optimizer states, then also
//! gradients, then also parameters (Table I). Offload variants move the
//! optimizer (and for stage 3 optionally the parameters) off the GPU; the
//! iteration plan then includes the host/NVMe staging traffic and the CPU
//! Adam spans the paper observes during the GPUs' idle time (Sec. V).

use zerosim_collectives::{CollectiveKind, CommGroup};
use zerosim_hw::{GpuId, IoDir, MemLoc, VolumeId};

use crate::builders::{IterCtx, PlanCtx};
use crate::error::StrategyError;
use crate::memory::MemoryPlan;
use crate::plan::{Codec, Dtype, OpId, PhaseStage, WorkloadKind, WorkloadPlan};

/// ZeRO optimization stage (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ZeroStage {
    /// Partition optimizer states.
    One,
    /// Partition optimizer states + gradients.
    Two,
    /// Partition optimizer states + gradients + parameters.
    Three,
}

impl ZeroStage {
    /// Stage number as reported by DeepSpeed configs.
    pub fn number(self) -> u8 {
        match self {
            ZeroStage::One => 1,
            ZeroStage::Two => 2,
            ZeroStage::Three => 3,
        }
    }

    /// True when gradients are partitioned (stages 2 and 3).
    pub fn partitions_gradients(self) -> bool {
        self >= ZeroStage::Two
    }

    /// True when parameters are partitioned (stage 3).
    pub fn partitions_parameters(self) -> bool {
        self == ZeroStage::Three
    }
}

/// Where a class of model state lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateTier {
    /// GPU HBM.
    Gpu,
    /// Host DRAM (ZeRO-Offload).
    Cpu,
    /// NVMe storage (ZeRO-Infinity).
    Nvme,
}

/// Rank-to-volume mapping for NVMe offload (the UNIX-soft-link trick of
/// Sec. V-E: each rank writes to an assigned disk/RAID0 volume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfinityPlacement {
    /// Volume used by rank `r` is `rank_volumes[r % len]`.
    pub rank_volumes: Vec<VolumeId>,
}

impl InfinityPlacement {
    /// Creates a placement.
    ///
    /// # Panics
    /// Panics on an empty volume list.
    pub fn new(rank_volumes: Vec<VolumeId>) -> Self {
        assert!(!rank_volumes.is_empty(), "placement needs volumes");
        InfinityPlacement { rank_volumes }
    }

    /// The volume rank `r` stages through.
    pub fn volume_for(&self, rank: usize) -> VolumeId {
        self.rank_volumes[rank % self.rank_volumes.len()]
    }
}

/// ZeRO++ communication-efficiency extensions layered on ZeRO-3
/// (arXiv 2306.10209). Each flag is independent; the paper's full ZeRO++
/// enables all three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ZeroPlusPlusFlags {
    /// qwZ: FP16→INT8 block quantization on parameter all-gathers. The
    /// plan declares a [`Codec`] on the gather and decodes explicitly
    /// before compute consumes the weights.
    pub quantize_weights: bool,
    /// hpZ: a secondary fp16 parameter shard partitioned *within* each
    /// node, so the backward re-gather is served over NVLink instead of
    /// the inter-node wire. Pure placement — no codec.
    pub hierarchical_params: bool,
    /// qgZ: FP16→INT4 block quantization on the gradient reduce-scatter,
    /// decoded per rank before the optimizer reads the shard.
    pub quantize_gradients: bool,
}

impl ZeroPlusPlusFlags {
    /// True when any extension is enabled.
    pub fn any(self) -> bool {
        self.quantize_weights || self.hierarchical_params || self.quantize_gradients
    }
}

/// qwZ weight quantization block size in elements (one scale per block).
const QWZ_BLOCK: usize = 2048;
/// qgZ gradient quantization block size in elements.
const QGZ_BLOCK: usize = 512;

/// Fully-resolved ZeRO variant: stage plus state placement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ZeroVariant {
    pub stage: ZeroStage,
    pub optimizer_tier: StateTier,
    pub params_tier: StateTier,
    pub placement: Option<InfinityPlacement>,
    pub zeropp: ZeroPlusPlusFlags,
}

impl ZeroVariant {
    /// Checks the placement against Table I; every violation the seed
    /// implementation asserted on is now a typed [`StrategyError`].
    pub(crate) fn validate(&self) -> Result<(), StrategyError> {
        if self.params_tier != StateTier::Gpu && self.stage != ZeroStage::Three {
            return Err(StrategyError::placement(format!(
                "parameter offload requires ZeRO-3 (Table I), got stage {}",
                self.stage.number()
            )));
        }
        if self.optimizer_tier == StateTier::Nvme && self.stage != ZeroStage::Three {
            return Err(StrategyError::placement(format!(
                "NVMe optimizer offload requires ZeRO-3 (Table I), got stage {}",
                self.stage.number()
            )));
        }
        let needs_placement =
            self.optimizer_tier == StateTier::Nvme || self.params_tier == StateTier::Nvme;
        if needs_placement != self.placement.is_some() {
            return Err(StrategyError::placement(
                "NVMe tiers require a volume placement (and only they do)",
            ));
        }
        if self.zeropp.any() {
            if self.stage != ZeroStage::Three {
                return Err(StrategyError::placement(format!(
                    "ZeRO++ extends ZeRO-3, got stage {}",
                    self.stage.number()
                )));
            }
            if self.optimizer_tier != StateTier::Gpu || self.params_tier != StateTier::Gpu {
                return Err(StrategyError::placement(
                    "ZeRO++ variants keep optimizer and parameters on GPU",
                ));
            }
        }
        Ok(())
    }
}

/// NVMe traffic per parameter per optimizer step, each direction
/// (momentum + variance read and written; the FP32 master copy stays in
/// host DRAM).
const NVME_RW_BYTES_PER_PARAM: f64 = 8.0;

pub(crate) fn memory_plan(ctx: &IterCtx<'_>, v: &ZeroVariant) -> Result<MemoryPlan, StrategyError> {
    v.validate()?;
    let p = ctx.model.num_params();
    let n = ctx.opts.num_gpus(ctx.cluster) as f64;
    let m = ctx.model;

    let params_gpu = if v.params_tier == StateTier::Gpu {
        if v.stage.partitions_parameters() {
            let primary = 2.0 * p / n;
            if v.zeropp.hierarchical_params {
                // hpZ trades HBM for NVLink-local re-gathers: a secondary
                // fp16 shard partitioned within the node rides next to
                // the global primary shard.
                primary + 2.0 * p / ctx.cluster.spec().gpus_per_node as f64
            } else {
                primary
            }
        } else {
            2.0 * p
        }
    } else {
        0.0
    };
    let grads_gpu = if v.stage.partitions_gradients() {
        2.0 * p / n
    } else {
        2.0 * p
    };
    let optimizer_gpu = if v.optimizer_tier == StateTier::Gpu {
        12.0 * p / n
    } else {
        0.0
    };
    let act_full = ctx.calib.act_coeff_ckpt
        * m.num_layers as f64
        * m.seq_len as f64
        * ctx.opts.per_gpu_batch as f64
        * m.hidden_size as f64
        * 2.0;
    // Offload variants also checkpoint activations to host memory
    // (DeepSpeed `cpu_checkpointing`), keeping only a working set on GPU.
    let offloaded = v.optimizer_tier != StateTier::Gpu;
    let act = if offloaded { 0.15 * act_full } else { act_full };
    let act_cpu_per_node = if offloaded {
        0.85 * act_full * ctx.cluster.spec().gpus_per_node as f64
    } else {
        0.0
    };
    let buffers = if v.stage == ZeroStage::Three {
        ctx.calib.zero3_buffer_bytes
    } else {
        ctx.calib.zero12_buffer_bytes
    };
    let per_gpu =
        params_gpu + grads_gpu + optimizer_gpu + act + ctx.calib.gpu_fixed_bytes + buffers;

    let nodes = ctx.opts.nodes as f64;
    let mut cpu_per_node = ctx.calib.host_base_bytes;
    match v.optimizer_tier {
        StateTier::Gpu => {}
        StateTier::Cpu => cpu_per_node += ctx.calib.offload_cpu_bytes_per_param * p / nodes,
        StateTier::Nvme => cpu_per_node += ctx.calib.infinity_cpu_bytes_per_param * p / nodes,
    }
    if v.params_tier == StateTier::Cpu {
        cpu_per_node += 6.0 * p / nodes; // fp16 copy + pinned staging
    }
    cpu_per_node += act_cpu_per_node;
    let mut nvme = 0.0;
    if v.optimizer_tier == StateTier::Nvme {
        nvme += ctx.calib.infinity_nvme_bytes_per_param * p;
    }
    if v.params_tier == StateTier::Nvme {
        nvme += 2.0 * p;
    }

    Ok(MemoryPlan {
        per_gpu_bytes: per_gpu,
        total_gpu_bytes: per_gpu * n,
        per_node_cpu_bytes: cpu_per_node,
        total_cpu_bytes: cpu_per_node * nodes,
        nvme_bytes: nvme,
        gpu_breakdown: vec![
            ("params_fp16".into(), params_gpu),
            ("grads_fp16".into(), grads_gpu),
            ("optimizer_fp32".into(), optimizer_gpu),
            ("activations".into(), act),
            ("buffers".into(), buffers),
            ("fixed".into(), ctx.calib.gpu_fixed_bytes),
        ],
    })
}

/// Describes one ZeRO training iteration as a [`WorkloadPlan`].
// Micro-step indices are tiny (grad-accum counts): fit u32.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn plan_iteration(
    ctx: &IterCtx<'_>,
    v: &ZeroVariant,
) -> Result<WorkloadPlan, StrategyError> {
    v.validate()?;
    // CPU offload's automatic placement is not NUMA-aware (Sec. V-A3);
    // the NVMe placements of Sec. V-E were hand-tuned by the authors, so
    // Infinity runs stage through each rank's natural socket.
    let rank_socket = |rank: usize, g: zerosim_hw::GpuId| {
        if v.optimizer_tier == StateTier::Nvme {
            ctx.cluster.gpu_socket(g)
        } else {
            ctx.offload_socket(rank, g)
        }
    };
    let gpus = ctx.opts.gpus(ctx.cluster)?;
    let n = gpus.len();
    let group = CommGroup::new(gpus.clone());
    let tokens_gpu = (ctx.opts.per_gpu_batch * ctx.model.seq_len) as f64;
    let layers = ctx.model.num_layers;
    let bucket = ctx.comm_bucket_layers();
    let params = ctx.model.num_params();
    let shard = params / n as f64;

    let mut p = PlanCtx::new(*ctx, WorkloadKind::Iteration);
    let prologue = p.prologue();
    let mut prev: Vec<OpId> = gpus.iter().map(|g| p.input_h2d(*g, &[prologue])).collect();

    let fwd_flops = ctx.layer_fwd_flops(tokens_gpu, 1);
    // Communication-stream serialization with a prefetch depth of two for
    // ZeRO-3's parameter gathers (DeepSpeed keeps the next layer's gather
    // in flight while the current one completes).
    let mut comm_chain: Vec<OpId> = Vec::new();
    let ds_cap = ctx.calib.ds_internode_cap;
    // ZeRO-3's layer-group gathers use smaller buckets still.
    let gather_cap = if v.stage.partitions_parameters() {
        ctx.calib.zero3_internode_cap
    } else {
        ds_cap
    };

    // hpZ: the backward re-gather is served from the secondary intra-node
    // shard, one all-gather per node over NVLink instead of the global
    // inter-node group. Groups are node-major like the rank list.
    let node_groups: Vec<CommGroup> = {
        let mut by_node: Vec<(usize, Vec<GpuId>)> = Vec::new();
        for g in &gpus {
            match by_node.iter_mut().find(|(node, _)| *node == g.node) {
                Some((_, members)) => members.push(*g),
                None => by_node.push((g.node, vec![*g])),
            }
        }
        by_node
            .into_iter()
            .map(|(_, members)| CommGroup::new(members))
            .collect()
    };
    let node_group_of: Vec<usize> = gpus
        .iter()
        .map(|g| {
            node_groups
                .iter()
                .position(|ng| ng.ranks().contains(g))
                .expect("every rank belongs to a node group")
        })
        .collect();
    // Explicit decode span after a quantized collective: a fused dequant
    // kernel, priced as one kernel launch.
    let dequant_s = ctx.calib.kernel_overhead_s;

    // Helper to fetch a bucket's parameters before use under ZeRO-3.
    // `secondary` marks the backward re-gather, which hpZ serves from the
    // intra-node shard.
    let gather_bucket = |p: &mut PlanCtx<'_>,
                         prev: &mut Vec<OpId>,
                         comm_chain: &mut Vec<OpId>,
                         bucket_params: f64,
                         secondary: bool| {
        let bytes = 2.0 * bucket_params;
        // Prefetch depth 2: this gather waits for the gather two back.
        let gate = if comm_chain.len() >= 2 {
            Some(comm_chain[comm_chain.len() - 2])
        } else {
            None
        };
        let mut fetch_done: Vec<OpId> = Vec::new();
        if v.params_tier != StateTier::Gpu {
            // Each rank pulls its shard from CPU (and NVMe first, if there).
            for (rank, g) in gpus.iter().enumerate() {
                let socket = rank_socket(rank, *g);
                let track = ctx.gpu_track(*g);
                let mut stage_deps: Vec<OpId> = vec![prologue];
                stage_deps.extend(gate);
                let mut last = p.barrier(&stage_deps);
                if v.params_tier == StateTier::Nvme {
                    let vol = v
                        .placement
                        .as_ref()
                        .expect("validated placement")
                        .volume_for(rank);
                    last = p.volume_io(
                        vol,
                        socket,
                        IoDir::Read,
                        bytes / n as f64,
                        "nvme_read",
                        track,
                        &[last],
                    );
                }
                let h2d = p.transfer(
                    MemLoc::Cpu(socket),
                    MemLoc::Gpu(*g),
                    bytes / n as f64,
                    "h2d",
                    track,
                    &[last],
                );
                fetch_done.push(h2d);
            }
        }
        let mut deps: Vec<OpId> = Vec::new();
        deps.extend(gate);
        deps.extend(fetch_done);
        if deps.is_empty() {
            deps.push(prologue);
        }
        if secondary && v.zeropp.hierarchical_params {
            // hpZ: per-node all-gathers from the secondary shard; the
            // inter-node wire carries nothing for this bucket.
            let hs: Vec<OpId> = node_groups
                .iter()
                .map(|ng| {
                    p.collective(
                        CollectiveKind::AllGather,
                        ng.clone(),
                        bytes,
                        gather_cap,
                        &deps,
                    )
                })
                .collect();
            let join = p.barrier(&hs);
            comm_chain.push(join);
            for (i, t) in prev.iter_mut().enumerate() {
                *t = p.barrier(&[*t, hs[node_group_of[i]]]);
            }
        } else if v.zeropp.quantize_weights {
            // qwZ: the gather moves INT8 blocks; each rank decodes before
            // compute consumes the weights.
            let h = p.collective_with_codec(
                CollectiveKind::AllGather,
                group.clone(),
                bytes,
                gather_cap,
                Codec::quantize(Dtype::Fp16, Dtype::Int8, QWZ_BLOCK),
                &deps,
            );
            comm_chain.push(h);
            for (i, t) in prev.iter_mut().enumerate() {
                *t = p.fixed_compute(gpus[i], dequant_s, "dequant", &[*t, h]);
            }
        } else {
            let h = p.collective(
                CollectiveKind::AllGather,
                group.clone(),
                bytes,
                gather_cap,
                &deps,
            );
            comm_chain.push(h);
            for t in prev.iter_mut() {
                // Compute on every rank now also depends on the gather.
                *t = p.barrier(&[*t, h]);
            }
        }
    };

    // ---- Micro-steps (gradient accumulation) ----
    // ZeRO-3 reduce-scatters every micro-step (partitioned gradients
    // accumulate in the shards); ZeRO-1/2 and the embedding sync only at
    // the accumulation boundary.
    let mut grad_d2h: Vec<Vec<OpId>> = vec![Vec::new(); n];
    // Every gradient collective: the optimizer step must wait for all of
    // them (each accumulates into the shards it updates), not just the
    // final one — intermediate reductions overlap with backward compute
    // but still gate the weight update.
    let mut grad_comms: Vec<OpId> = Vec::new();
    for micro in 0..ctx.opts.grad_accum {
        let boundary = micro + 1 == ctx.opts.grad_accum;
        let reduce_now = boundary || v.stage.partitions_parameters();
        // ---- Forward ----
        p.set_phase(PhaseStage::Forward, micro as u32);
        let mut remaining = layers;
        while remaining > 0 {
            let chunk = bucket.min(remaining);
            remaining -= chunk;
            let bucket_params = ctx.model.layer_params() * chunk as f64;
            if v.stage.partitions_parameters() {
                gather_bucket(&mut p, &mut prev, &mut comm_chain, bucket_params, false);
            }
            for _l in 0..chunk {
                for (i, g) in gpus.iter().enumerate() {
                    prev[i] = p.layer_compute(*g, fwd_flops, "gemm", &[prev[i]]);
                    if v.stage.partitions_parameters() {
                        prev[i] = p.fixed_compute(
                            *g,
                            ctx.calib.zero3_hook_s_per_layer,
                            "transform",
                            &[prev[i]],
                        );
                    }
                }
            }
        }
        let vocab_flops = ctx.embedding_fwd_flops(tokens_gpu, 1);
        for (i, g) in gpus.iter().enumerate() {
            prev[i] = p.layer_compute(*g, vocab_flops, "gemm", &[prev[i]]);
        }

        // ---- Backward ----
        p.set_phase(PhaseStage::Backward, micro as u32);
        let mut remaining = layers;
        while remaining > 0 {
            let chunk = bucket.min(remaining);
            remaining -= chunk;
            let bucket_params = ctx.model.layer_params() * chunk as f64;
            if v.stage.partitions_parameters() {
                gather_bucket(&mut p, &mut prev, &mut comm_chain, bucket_params, true);
            }
            for _l in 0..chunk {
                for (i, g) in gpus.iter().enumerate() {
                    prev[i] = p.layer_compute(*g, 2.0 * fwd_flops, "gemm", &[prev[i]]);
                    if v.stage.partitions_parameters() {
                        prev[i] = p.fixed_compute(
                            *g,
                            ctx.calib.zero3_hook_s_per_layer,
                            "transform",
                            &[prev[i]],
                        );
                    }
                }
            }
            if !reduce_now {
                continue;
            }
            // Gradient reduction, overlapped with the remaining backward
            // compute (ZeRO-2/3 reduce-scatter; ZeRO-1 all-reduce).
            let grad_bytes = 2.0 * bucket_params;
            let kind = if v.stage.partitions_gradients() {
                CollectiveKind::ReduceScatter
            } else {
                CollectiveKind::AllReduce
            };
            let mut deps: Vec<OpId> = prev.clone();
            deps.extend(comm_chain.last().copied());
            let h = if v.zeropp.quantize_gradients {
                // qgZ: INT4 blocks on the wire; each rank decodes its
                // received shard before the optimizer reads it.
                p.collective_with_codec(
                    kind,
                    group.clone(),
                    grad_bytes,
                    ds_cap,
                    Codec::quantize(Dtype::Fp16, Dtype::Int4, QGZ_BLOCK),
                    &deps,
                )
            } else {
                p.collective(kind, group.clone(), grad_bytes, ds_cap, &deps)
            };
            comm_chain.push(h);
            if v.zeropp.quantize_gradients {
                let dq: Vec<OpId> = gpus
                    .iter()
                    .map(|g| p.fixed_compute(*g, dequant_s, "dequant", &[h]))
                    .collect();
                grad_comms.push(p.barrier(&dq));
            } else {
                grad_comms.push(h);
            }
            if boundary && v.optimizer_tier != StateTier::Gpu {
                for (rank, g) in gpus.iter().enumerate() {
                    let socket = rank_socket(rank, *g);
                    let track = ctx.gpu_track(*g);
                    let t = p.transfer(
                        MemLoc::Gpu(*g),
                        MemLoc::Cpu(socket),
                        grad_bytes / n as f64,
                        "d2h",
                        track,
                        &[h],
                    );
                    grad_d2h[rank].push(t);
                }
            }
        }
    }
    // Embedding gradients.
    let emb_bytes = 2.0 * ctx.model.embedding_params();
    let kind = if v.stage.partitions_gradients() {
        CollectiveKind::ReduceScatter
    } else {
        CollectiveKind::AllReduce
    };
    let mut deps: Vec<OpId> = prev.clone();
    deps.extend(comm_chain.last().copied());
    let h = if v.zeropp.quantize_gradients {
        p.collective_with_codec(
            kind,
            group.clone(),
            emb_bytes,
            ds_cap,
            Codec::quantize(Dtype::Fp16, Dtype::Int4, QGZ_BLOCK),
            &deps,
        )
    } else {
        p.collective(kind, group.clone(), emb_bytes, ds_cap, &deps)
    };
    comm_chain.push(h);
    if v.zeropp.quantize_gradients {
        let dq: Vec<OpId> = gpus
            .iter()
            .map(|g| p.fixed_compute(*g, dequant_s, "dequant", &[h]))
            .collect();
        grad_comms.push(p.barrier(&dq));
    } else {
        grad_comms.push(h);
    }
    if v.optimizer_tier != StateTier::Gpu {
        for (rank, g) in gpus.iter().enumerate() {
            let socket = rank_socket(rank, *g);
            let track = ctx.gpu_track(*g);
            let t = p.transfer(
                MemLoc::Gpu(*g),
                MemLoc::Cpu(socket),
                emb_bytes / n as f64,
                "d2h",
                track,
                &[h],
            );
            grad_d2h[rank].push(t);
        }
    }

    // ---- Optimizer ----
    p.set_phase(
        PhaseStage::Step,
        ctx.opts.grad_accum.saturating_sub(1) as u32,
    );
    let last_comm = *comm_chain.last().expect("at least one gradient collective");
    let mut post_opt: Vec<OpId> = Vec::with_capacity(n);
    for (rank, g) in gpus.iter().enumerate() {
        let track = ctx.gpu_track(*g);
        let done = match v.optimizer_tier {
            StateTier::Gpu => {
                let mut deps = vec![prev[rank]];
                deps.extend(grad_comms.iter().copied());
                p.gpu_adam(*g, shard, &deps)
            }
            StateTier::Cpu => {
                let socket = rank_socket(rank, *g);
                let mut deps = grad_d2h[rank].clone();
                deps.extend(grad_comms.iter().copied());
                let adam = p.cpu_adam(socket, shard, &deps);
                if v.params_tier == StateTier::Gpu {
                    p.transfer(
                        MemLoc::Cpu(socket),
                        MemLoc::Gpu(*g),
                        2.0 * shard,
                        "h2d",
                        track,
                        &[adam],
                    )
                } else {
                    adam
                }
            }
            StateTier::Nvme => {
                let socket = rank_socket(rank, *g);
                let vol = v
                    .placement
                    .as_ref()
                    .expect("validated placement")
                    .volume_for(rank);
                let mut read_deps = grad_d2h[rank].clone();
                read_deps.extend(grad_comms.iter().copied());
                let read = p.volume_io(
                    vol,
                    socket,
                    IoDir::Read,
                    NVME_RW_BYTES_PER_PARAM * shard,
                    "nvme_read",
                    track,
                    &read_deps,
                );
                let adam = p.cpu_adam(socket, shard, &[read]);
                let write = p.volume_io(
                    vol,
                    socket,
                    IoDir::Write,
                    NVME_RW_BYTES_PER_PARAM * shard,
                    "nvme_write",
                    track,
                    &[adam],
                );
                if v.params_tier == StateTier::Nvme {
                    p.volume_io(
                        vol,
                        socket,
                        IoDir::Write,
                        2.0 * shard,
                        "nvme_write",
                        track,
                        &[adam],
                    )
                } else if v.params_tier == StateTier::Gpu {
                    let h2d = p.transfer(
                        MemLoc::Cpu(socket),
                        MemLoc::Gpu(*g),
                        2.0 * shard,
                        "h2d",
                        track,
                        &[adam],
                    );
                    p.barrier(&[h2d, write])
                } else {
                    write
                }
            }
        };
        post_opt.push(done);
    }

    // ---- Post-step parameter all-gather (stages 1 and 2) ----
    if !v.stage.partitions_parameters() {
        let mut deps = post_opt.clone();
        deps.push(last_comm);
        p.collective(
            CollectiveKind::AllGather,
            group,
            2.0 * params,
            ds_cap,
            &deps,
        );
    }

    Ok(p.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::lower::lower;
    use crate::options::TrainOptions;
    use zerosim_hw::{Cluster, ClusterSpec, NvmeId};
    use zerosim_model::GptConfig;
    use zerosim_simkit::{Dag, DagEngine, SimTime};

    fn plain(stage: ZeroStage) -> ZeroVariant {
        ZeroVariant {
            stage,
            optimizer_tier: StateTier::Gpu,
            params_tier: StateTier::Gpu,
            placement: None,
            zeropp: ZeroPlusPlusFlags::default(),
        }
    }

    fn fixtures() -> (Cluster, GptConfig, TrainOptions, Calibration) {
        (
            Cluster::new(ClusterSpec::default()).unwrap(),
            GptConfig::default(),
            TrainOptions::single_node(),
            Calibration::default(),
        )
    }

    fn build(ctx: &IterCtx<'_>, v: &ZeroVariant) -> Dag {
        let plan = plan_iteration(ctx, v).unwrap();
        assert!(plan.validate(ctx.cluster).is_ok());
        let mut lowered = lower(&plan, ctx.cluster, ctx.calib).unwrap();
        lowered.stamp(ctx.opts.jitter_seed);
        lowered.into_dag()
    }

    fn run(cluster: &mut Cluster, dag: &Dag) -> f64 {
        let mut eng = DagEngine::new(cluster.resource_slots());
        eng.run(cluster.net_mut(), dag, SimTime::ZERO, None)
            .unwrap()
            .makespan()
            .as_secs()
    }

    #[test]
    fn stage_ordering_and_flags() {
        assert!(ZeroStage::Two.partitions_gradients());
        assert!(!ZeroStage::One.partitions_gradients());
        assert!(ZeroStage::Three.partitions_parameters());
        assert_eq!(ZeroStage::Three.number(), 3);
    }

    #[test]
    fn memory_decreases_with_stage() {
        let (cluster, model, opts, calib) = fixtures();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let m1 = memory_plan(&ctx, &plain(ZeroStage::One))
            .unwrap()
            .per_gpu_bytes;
        let m2 = memory_plan(&ctx, &plain(ZeroStage::Two))
            .unwrap()
            .per_gpu_bytes;
        let m3 = memory_plan(&ctx, &plain(ZeroStage::Three))
            .unwrap()
            .per_gpu_bytes;
        assert!(m1 > m2, "ZeRO-2 must use less GPU memory than ZeRO-1");
        assert!(m2 > m3, "ZeRO-3 must use less GPU memory than ZeRO-2");
    }

    #[test]
    fn cpu_offload_moves_optimizer_off_gpu() {
        let (cluster, model, opts, calib) = fixtures();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let gpu_variant = plain(ZeroStage::Two);
        let mut cpu_variant = plain(ZeroStage::Two);
        cpu_variant.optimizer_tier = StateTier::Cpu;
        let pg = memory_plan(&ctx, &gpu_variant).unwrap();
        let pc = memory_plan(&ctx, &cpu_variant).unwrap();
        assert!(pc.per_gpu_bytes < pg.per_gpu_bytes);
        assert!(pc.per_node_cpu_bytes > pg.per_node_cpu_bytes);
    }

    #[test]
    fn all_plain_stages_execute() {
        for stage in [ZeroStage::One, ZeroStage::Two, ZeroStage::Three] {
            let (mut cluster, model, opts, calib) = fixtures();
            let ctx = IterCtx {
                cluster: &cluster,
                model: &model,
                opts: &opts,
                calib: &calib,
            };
            let dag = build(&ctx, &plain(stage));
            let secs = run(&mut cluster, &dag);
            assert!(secs > 0.1 && secs < 2.0, "{stage:?} took {secs}s");
        }
    }

    #[test]
    fn cpu_offload_is_slower_than_gpu_optimizer() {
        let (mut cluster, model, opts, calib) = fixtures();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let base_dag = build(&ctx, &plain(ZeroStage::Two));
        let base = run(&mut cluster, &base_dag);
        let mut v = plain(ZeroStage::Two);
        v.optimizer_tier = StateTier::Cpu;
        let (mut cluster2, ..) = fixtures();
        let ctx2 = IterCtx {
            cluster: &cluster2,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let dag = build(&ctx2, &v);
        let off = run(&mut cluster2, &dag);
        assert!(
            off > 1.5 * base,
            "CPU offload {off}s should be well above GPU {base}s"
        );
    }

    #[test]
    fn nvme_offload_is_slowest() {
        let (mut cluster, model, opts, calib) = fixtures();
        let d0 = NvmeId { node: 0, drive: 0 };
        let d1 = NvmeId { node: 0, drive: 1 };
        let vol = cluster.create_volume(vec![d0, d1]);
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let v = ZeroVariant {
            stage: ZeroStage::Three,
            optimizer_tier: StateTier::Nvme,
            params_tier: StateTier::Gpu,
            placement: Some(InfinityPlacement::new(vec![vol])),
            zeropp: ZeroPlusPlusFlags::default(),
        };
        let dag = build(&ctx, &v);
        let nvme_secs = run(&mut cluster, &dag);

        let (mut c2, ..) = fixtures();
        let ctx2 = IterCtx {
            cluster: &c2,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let base_dag = build(&ctx2, &plain(ZeroStage::Three));
        let base = run(&mut c2, &base_dag);
        assert!(
            nvme_secs > 3.0 * base,
            "NVMe {nvme_secs}s must dwarf plain ZeRO-3 {base}s"
        );
    }

    fn zeropp(qw: bool, hp: bool, qg: bool) -> ZeroVariant {
        let mut v = plain(ZeroStage::Three);
        v.zeropp = ZeroPlusPlusFlags {
            quantize_weights: qw,
            hierarchical_params: hp,
            quantize_gradients: qg,
        };
        v
    }

    #[test]
    fn all_zeropp_variants_execute_dual_node() {
        for (qw, hp, qg) in [
            (true, false, false),
            (false, true, false),
            (false, false, true),
        ] {
            let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
            let model = GptConfig::default();
            let opts = TrainOptions::dual_node();
            let calib = Calibration::default();
            let ctx = IterCtx {
                cluster: &cluster,
                model: &model,
                opts: &opts,
                calib: &calib,
            };
            let dag = build(&ctx, &zeropp(qw, hp, qg));
            let secs = run(&mut cluster, &dag);
            assert!(
                secs > 0.05 && secs < 5.0,
                "qw={qw} hp={hp} qg={qg} took {secs}s"
            );
        }
    }

    #[test]
    fn quantized_variants_cut_wire_bytes() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::default();
        let opts = TrainOptions::dual_node();
        let calib = Calibration::default();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let base = plan_iteration(&ctx, &plain(ZeroStage::Three))
            .unwrap()
            .collective_wire_bytes();
        let qwz = plan_iteration(&ctx, &zeropp(true, false, false))
            .unwrap()
            .collective_wire_bytes();
        let qgz = plan_iteration(&ctx, &zeropp(false, false, true))
            .unwrap()
            .collective_wire_bytes();
        assert!(
            qwz < base,
            "qwZ wire bytes {qwz} must be below ZeRO-3 {base}"
        );
        assert!(
            qgz < base,
            "qgZ wire bytes {qgz} must be below ZeRO-3 {base}"
        );
    }

    #[test]
    fn hpz_trades_memory_for_local_gathers() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::default();
        let opts = TrainOptions::dual_node();
        let calib = Calibration::default();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let base = memory_plan(&ctx, &plain(ZeroStage::Three))
            .unwrap()
            .per_gpu_bytes;
        let hpz = memory_plan(&ctx, &zeropp(false, true, false))
            .unwrap()
            .per_gpu_bytes;
        assert!(
            hpz > base,
            "hpZ secondary shard must cost GPU memory ({hpz} vs {base})"
        );
    }

    #[test]
    fn zeropp_requires_stage_three() {
        let mut v = zeropp(true, false, false);
        v.stage = ZeroStage::Two;
        let e = v.validate().unwrap_err();
        assert!(e.to_string().contains("ZeRO++ extends ZeRO-3"), "{e}");
    }

    #[test]
    fn zeropp_requires_gpu_tiers() {
        let mut v = zeropp(false, false, true);
        v.optimizer_tier = StateTier::Cpu;
        let e = v.validate().unwrap_err();
        assert!(e.to_string().contains("on GPU"), "{e}");
    }

    #[test]
    fn nvme_on_stage2_rejected() {
        let v = ZeroVariant {
            stage: ZeroStage::Two,
            optimizer_tier: StateTier::Nvme,
            params_tier: StateTier::Gpu,
            placement: None,
            zeropp: ZeroPlusPlusFlags::default(),
        };
        let e = v.validate().unwrap_err();
        assert!(e.to_string().contains("requires ZeRO-3"));
    }

    #[test]
    fn nvme_without_placement_rejected() {
        let v = ZeroVariant {
            stage: ZeroStage::Three,
            optimizer_tier: StateTier::Nvme,
            params_tier: StateTier::Gpu,
            placement: None,
            zeropp: ZeroPlusPlusFlags::default(),
        };
        let e = v.validate().unwrap_err();
        assert!(e.to_string().contains("require a volume placement"));
    }
}
