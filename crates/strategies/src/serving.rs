//! Serving strategies: prefill/decode plan emitters over the unified
//! workload IR.
//!
//! A serving deployment tensor-parallelizes the model over the world's
//! GPUs (TP spanning nodes when the deployment does — the same
//! configuration whose per-layer blocking all-reduces collapse dual-node
//! training throughput in the paper's Fig. 7-b; serving inherits the
//! identical wire-vs-protocol question at much smaller message sizes).
//! Two weight-residency policies are modelled:
//!
//! * [`ServingStrategy::Dense`] — FP16 weights resident in HBM, sharded
//!   by TP. The fast path when the model fits.
//! * [`ServingStrategy::NvmeStreamed`] — ZeRO-Inference-style weight
//!   streaming: each rank's shard lives on an NVMe scratch volume and is
//!   read bucket-by-bucket through host DRAM into HBM for every forward
//!   pass (prefill *and* each decode step). Trades TTFT/TPOT for serving
//!   models far past HBM, bottlenecked by the same per-drive bandwidth
//!   the paper characterizes in Sec. V-B.
//!
//! Emitted plans are [`WorkloadKind::Prefill`] / [`WorkloadKind::Decode`]
//! and flow through the identical `lower` → `stamp` → engine pipeline as
//! training iterations; KV-cache residency rides as [`PlanOp::KvAppend`]
//! ops that planlint ZL001 accounts cumulatively.

use zerosim_collectives::{CollectiveKind, CommGroup};
use zerosim_hw::{IoDir, MemLoc};
use zerosim_model::GptConfig;

use crate::builders::{IterCtx, PlanCtx};
use crate::error::StrategyError;
use crate::memory::MemoryPlan;
use crate::plan::{OpId, PhaseStage, WorkloadKind, WorkloadPlan};
use crate::zero::InfinityPlacement;

/// FP16 bytes per model parameter.
const WEIGHT_BYTES_PER_PARAM: f64 = 2.0;

/// KV-cache bytes one token adds across the whole model: FP16 key and
/// value vectors per layer (`2 · 2 · hidden · layers`).
pub fn kv_bytes_per_token(model: &GptConfig) -> f64 {
    4.0 * model.hidden_size as f64 * model.num_layers as f64
}

/// Weight-residency policy of a serving deployment. Tensor parallelism
/// spans every GPU the options grant (all GPUs of `opts.nodes` nodes).
#[derive(Debug, Clone, PartialEq)]
pub enum ServingStrategy {
    /// FP16 weights resident in HBM, TP-sharded.
    Dense,
    /// ZeRO-Inference-style NVMe weight streaming: rank shards live on
    /// scratch volumes and stream through DRAM per forward pass.
    NvmeStreamed {
        /// Volume each rank streams its shard through.
        placement: InfinityPlacement,
    },
}

impl ServingStrategy {
    /// Human-readable name for reports.
    pub fn display_name(&self) -> &'static str {
        match self {
            ServingStrategy::Dense => "Dense (TP)",
            ServingStrategy::NvmeStreamed { .. } => "ZeRO-Inference (NVMe stream)",
        }
    }

    /// The serving memory plan: weight residency per tier plus the fixed
    /// runtime footprint. KV-cache growth is *not* in here — it is
    /// plan-carried ([`crate::plan::PlanOp::KvAppend`]) because it grows
    /// per decode step; planlint adds it on top of this resident base.
    pub fn plan_memory(&self, ctx: &IterCtx<'_>) -> MemoryPlan {
        let tp = ctx.opts.num_gpus(ctx.cluster) as f64;
        let weights = ctx.model.num_params() * WEIGHT_BYTES_PER_PARAM;
        let (gpu_weights, nvme_bytes, cpu_stage) = match self {
            ServingStrategy::Dense => (weights / tp, 0.0, 0.0),
            // Streaming keeps one bucket of the shard live in HBM and a
            // double buffer staged in DRAM per node.
            ServingStrategy::NvmeStreamed { .. } => {
                let bucket_frac = bucket_layers(ctx.model) as f64 / ctx.model.num_layers as f64;
                let live = (weights / tp) * bucket_frac * 2.0; // double buffer
                (live, weights, (weights / tp) * bucket_frac * 4.0)
            }
        };
        let per_gpu = gpu_weights + ctx.calib.gpu_fixed_bytes;
        MemoryPlan {
            per_gpu_bytes: per_gpu,
            total_gpu_bytes: per_gpu * tp,
            per_node_cpu_bytes: ctx.calib.host_base_bytes + cpu_stage,
            total_cpu_bytes: (ctx.calib.host_base_bytes + cpu_stage) * ctx.opts.nodes as f64,
            nvme_bytes,
            gpu_breakdown: vec![
                ("weights".into(), gpu_weights),
                ("fixed".into(), ctx.calib.gpu_fixed_bytes),
            ],
        }
    }

    /// Describes prompt processing for one admitted batch:
    /// `prompt_tokens` total tokens across `requests` requests, ending
    /// with each request's first generated token emitted to the host.
    ///
    /// # Errors
    /// [`StrategyError::InvalidLayout`] when the options span no node or
    /// more nodes than the cluster has.
    pub fn plan_prefill(
        &self,
        ctx: &IterCtx<'_>,
        prompt_tokens: usize,
        requests: usize,
    ) -> Result<WorkloadPlan, StrategyError> {
        // Causal attention over a prompt sees on average half the prompt
        // as context.
        self.plan_forward(
            ctx,
            WorkloadKind::Prefill,
            0,
            prompt_tokens,
            prompt_tokens.div_ceil(2),
            requests,
        )
    }

    /// Describes decode step `step` for a running batch of `batch`
    /// sequences whose KV caches hold `kv_len` tokens each: one token per
    /// sequence through the model, attention over the resident cache, one
    /// KV append, one emitted token per sequence.
    ///
    /// Plans depend on `kv_len` only through the attention-context value
    /// passed here, so callers bucket `kv_len` (see
    /// [`crate::serving::kv_bucket`]) and reuse one lowered plan per
    /// (batch, bucket) pair across steps and requests.
    ///
    /// # Errors
    /// [`StrategyError::InvalidLayout`] when the options span no node or
    /// more nodes than the cluster has.
    pub fn plan_decode(
        &self,
        ctx: &IterCtx<'_>,
        step: u32,
        batch: usize,
        kv_len: usize,
    ) -> Result<WorkloadPlan, StrategyError> {
        self.plan_forward(ctx, WorkloadKind::Decode, step, batch, kv_len, batch)
    }

    /// Shared forward-pass emitter: `tokens` tokens through the model
    /// with `attn_ctx` tokens of attention context each, emitting
    /// `emitting` sampled tokens to the host at the end.
    #[allow(clippy::too_many_arguments)]
    fn plan_forward(
        &self,
        ctx: &IterCtx<'_>,
        kind: WorkloadKind,
        micro: u32,
        tokens: usize,
        attn_ctx: usize,
        emitting: usize,
    ) -> Result<WorkloadPlan, StrategyError> {
        let gpus = ctx.opts.gpus(ctx.cluster)?;
        let tp = gpus.len();
        let stage = match kind {
            WorkloadKind::Prefill => PhaseStage::Prefill,
            _ => PhaseStage::Decode,
        };
        let m = ctx.model;
        let h = m.hidden_size as f64;
        let toks = tokens as f64;

        // Per-layer FLOPs at `attn_ctx` context, split across TP ranks.
        let dense = 2.0 * m.layer_params() * toks;
        let attention = 4.0 * attn_ctx as f64 * h * toks;
        let layer_flops = (dense + attention) / tp as f64;
        // Two fused TP all-reduces per layer over the activation tensor.
        let ar_bytes_per_layer = 2.0 * toks * h * 2.0;
        let bucket = bucket_layers(m);
        let n_buckets = m.num_layers.div_ceil(bucket);
        let shard_bytes = m.num_params() * WEIGHT_BYTES_PER_PARAM / tp as f64;
        let bucket_weight_bytes = shard_bytes / n_buckets as f64;

        let mut p = PlanCtx::new(*ctx, kind);
        // Per-step frontend overhead (scheduler, sampling, launch) on
        // every rank — the fixed cost that makes small-batch decode
        // protocol-bound. Much smaller than the training prologue.
        let launch: Vec<OpId> = gpus
            .iter()
            .map(|&g| p.fixed_compute(g, ctx.calib.serve_step_overhead_s, "serve_step", &[]))
            .collect();

        // Token ids (4 B each) host-to-device on every TP rank.
        let mut chain: Vec<OpId> = gpus
            .iter()
            .zip(&launch)
            .map(|(&g, &l)| {
                let socket = ctx.cluster.gpu_socket(g);
                p.transfer(
                    MemLoc::Cpu(socket),
                    MemLoc::Gpu(g),
                    (tokens * 4) as f64,
                    "token_h2d",
                    ctx.gpu_track(g),
                    &[l],
                )
            })
            .collect();

        p.set_phase(stage, micro);
        let group = CommGroup::new(gpus.clone());
        // Per rank: the previous bucket's weight read (serializes each
        // rank's drive queue under streaming).
        let mut prev_read: Vec<Option<OpId>> = vec![None; tp];
        for b in 0..n_buckets {
            let layers_here = bucket.min(m.num_layers - b * bucket);
            // Streamed weights arrive before the bucket's compute.
            if let ServingStrategy::NvmeStreamed { placement } = self {
                for (r, &g) in gpus.iter().enumerate() {
                    let socket = ctx.cluster.gpu_socket(g);
                    let track = ctx.gpu_track(g);
                    let read_deps: Vec<OpId> = match prev_read[r] {
                        Some(prev) => vec![launch[r], prev],
                        None => vec![launch[r]],
                    };
                    let read = p.volume_io(
                        placement.volume_for(r),
                        socket,
                        IoDir::Read,
                        bucket_weight_bytes,
                        "weight_read",
                        track,
                        &read_deps,
                    );
                    prev_read[r] = Some(read);
                    let h2d = p.transfer(
                        MemLoc::Cpu(socket),
                        MemLoc::Gpu(g),
                        bucket_weight_bytes,
                        "weight_h2d",
                        track,
                        &[read],
                    );
                    chain[r] = p.barrier(&[chain[r], h2d]);
                }
            }
            for (r, &g) in gpus.iter().enumerate() {
                chain[r] =
                    p.layer_compute(g, layer_flops * layers_here as f64, "gemm", &[chain[r]]);
            }
            if tp > 1 {
                let deps: Vec<OpId> = chain.clone();
                let ar = p.collective(
                    CollectiveKind::AllReduce,
                    group.clone(),
                    ar_bytes_per_layer * layers_here as f64,
                    ctx.calib.megatron_internode_cap,
                    &deps,
                );
                chain.iter_mut().for_each(|c| *c = ar);
            }
        }
        // Vocabulary projection + sampling on every rank's shard.
        let vocab_flops = ctx.embedding_fwd_flops(toks, tp);
        for (r, &g) in gpus.iter().enumerate() {
            chain[r] = p.layer_compute(g, vocab_flops, "gemm", &[chain[r]]);
        }

        // KV-cache residency: `tokens` new cache entries, sharded by TP.
        let kv_per_gpu = toks * kv_bytes_per_token(m) / tp as f64;
        let kv: Vec<OpId> = gpus
            .iter()
            .enumerate()
            .map(|(r, &g)| p.kv_append(g, kv_per_gpu, &[chain[r]]))
            .collect();

        // Sampled token ids leave rank 0 for the serving frontend.
        let g0 = gpus[0];
        let done = p.barrier(&kv);
        p.transfer(
            MemLoc::Gpu(g0),
            MemLoc::Cpu(ctx.cluster.gpu_socket(g0)),
            (emitting * 4).max(4) as f64,
            "token_d2h",
            ctx.gpu_track(g0),
            &[done],
        );
        Ok(p.finish())
    }
}

/// Layers grouped per weight-stream/collective bucket (mirrors
/// [`IterCtx::comm_bucket_layers`] sizing: bounded DAG regardless of
/// depth).
fn bucket_layers(model: &GptConfig) -> usize {
    model.num_layers.div_ceil(24).max(1)
}

/// Rounds a KV length up to the lowering-cache granularity (64 tokens):
/// decode plans for the same `(batch, kv_bucket(kv_len))` share one
/// lowered DAG, so a serving run lowers O(buckets), not O(steps).
pub fn kv_bucket(kv_len: usize) -> usize {
    kv_len.div_ceil(64).max(1) * 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::lower::lower;
    use crate::options::TrainOptions;
    use zerosim_hw::{Cluster, ClusterSpec, NvmeId, VolumeId};
    use zerosim_simkit::{DagEngine, SimTime};

    fn fixtures() -> (Cluster, GptConfig, TrainOptions, Calibration) {
        (
            Cluster::new(ClusterSpec::default()).unwrap(),
            GptConfig::paper_model_with_params(1.4),
            TrainOptions::single_node(),
            Calibration::default(),
        )
    }

    fn run_plan(cluster: &mut Cluster, plan: &WorkloadPlan, calib: &Calibration) -> f64 {
        let mut lowered = lower(plan, cluster, calib).unwrap();
        let dag = lowered.stamp(0);
        let mut eng = DagEngine::new(cluster.resource_slots());
        eng.run(cluster.net_mut(), dag, SimTime::ZERO, None)
            .unwrap()
            .makespan()
            .as_secs()
    }

    #[test]
    fn dense_prefill_and_decode_plans_validate_and_run() {
        let (mut c, m, o, k) = fixtures();
        let ctx = IterCtx {
            cluster: &c,
            model: &m,
            opts: &o,
            calib: &k,
        };
        let s = ServingStrategy::Dense;
        let prefill = s.plan_prefill(&ctx, 512, 4).unwrap();
        assert_eq!(prefill.kind(), WorkloadKind::Prefill);
        prefill.validate(&c).unwrap();
        let decode = s.plan_decode(&ctx, 3, 4, 640).unwrap();
        assert_eq!(decode.kind(), WorkloadKind::Decode);
        decode.validate(&c).unwrap();
        // Prefill crunches 128x the tokens; it must cost more wall-clock.
        let t_prefill = run_plan(&mut c, &prefill, &k);
        let t_decode = run_plan(&mut c, &decode, &k);
        assert!(
            t_prefill > t_decode,
            "prefill {t_prefill}s vs decode {t_decode}s"
        );
        // KV accounting: 512 prompt tokens vs 4 decode tokens.
        let per_tok = kv_bytes_per_token(&m);
        assert!((prefill.kv_append_bytes() - 512.0 * per_tok).abs() < 1.0);
        assert!((decode.kv_append_bytes() - 4.0 * per_tok).abs() < 1.0);
    }

    #[test]
    fn nvme_streaming_moves_the_weights_every_step() {
        let (mut c, m, o, k) = fixtures();
        let d = |drive| NvmeId { node: 0, drive };
        let vol = c.create_volume(vec![d(0), d(1)]);
        let ctx = IterCtx {
            cluster: &c,
            model: &m,
            opts: &o,
            calib: &k,
        };
        let s = ServingStrategy::NvmeStreamed {
            placement: InfinityPlacement::new(vec![vol]),
        };
        let decode = s.plan_decode(&ctx, 0, 2, 64).unwrap();
        decode.validate(&c).unwrap();
        // The full FP16 model crosses NVMe + PCIe once per step.
        let weights = m.num_params() * WEIGHT_BYTES_PER_PARAM;
        assert!(
            decode.staging_bytes() > 2.0 * weights * 0.99,
            "staged {} vs weights {}",
            decode.staging_bytes(),
            weights
        );
        // Dense decode stages only token ids.
        let dense = ServingStrategy::Dense.plan_decode(&ctx, 0, 2, 64).unwrap();
        assert!(dense.staging_bytes() < 1e6);
    }

    #[test]
    fn kv_bucketing_is_monotone_and_coarse() {
        assert_eq!(kv_bucket(0), 64);
        assert_eq!(kv_bucket(1), 64);
        assert_eq!(kv_bucket(64), 64);
        assert_eq!(kv_bucket(65), 128);
        assert!(kv_bucket(1000) >= 1000);
    }

    #[test]
    fn serving_memory_plans_differ_by_residency() {
        let (mut c, m, o, k) = fixtures();
        let d = |drive| NvmeId { node: 0, drive };
        let _ = c.create_volume(vec![d(0), d(1)]);
        let ctx = IterCtx {
            cluster: &c,
            model: &m,
            opts: &o,
            calib: &k,
        };
        let dense = ServingStrategy::Dense.plan_memory(&ctx);
        let streamed = ServingStrategy::NvmeStreamed {
            placement: InfinityPlacement::new(vec![VolumeId(0)]),
        }
        .plan_memory(&ctx);
        assert!(dense.per_gpu_bytes > streamed.per_gpu_bytes);
        assert_eq!(dense.nvme_bytes, 0.0);
        assert!(streamed.nvme_bytes > 0.0);
    }
}
