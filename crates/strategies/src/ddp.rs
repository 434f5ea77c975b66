//! PyTorch Distributed Data-Parallel baseline.
//!
//! Every GPU holds a full replica (params + grads + optimizer states);
//! gradients are all-reduced in buckets overlapped with the backward pass;
//! the optimizer runs on-GPU over the full parameter set.

use zerosim_collectives::{CollectiveKind, CommGroup};
use zerosim_model::ModelStates;

use crate::builders::{IterCtx, PlanCtx};
use crate::error::StrategyError;
use crate::memory::MemoryPlan;
use crate::plan::{OpId, PhaseStage, WorkloadKind, WorkloadPlan};

/// Builds the memory plan for DDP.
pub(crate) fn memory_plan(ctx: &IterCtx<'_>) -> Result<MemoryPlan, StrategyError> {
    let p = ctx.model.num_params();
    let states = ModelStates::for_params(p);
    // Plain DDP scripts do not enable activation checkpointing.
    let act = ctx.activation_bytes(ctx.calib.act_coeff_nockpt);
    let per_gpu = states.total() + act + ctx.calib.gpu_fixed_bytes;
    let n = ctx.opts.num_gpus(ctx.cluster)? as f64;
    Ok(MemoryPlan {
        per_gpu_bytes: per_gpu,
        total_gpu_bytes: per_gpu * n,
        per_node_cpu_bytes: ctx.calib.host_base_bytes,
        total_cpu_bytes: ctx.calib.host_base_bytes * ctx.opts.nodes as f64,
        nvme_bytes: 0.0,
        gpu_breakdown: vec![
            ("params_fp16".into(), states.params),
            ("grads_fp16".into(), states.grads),
            ("optimizer_fp32".into(), states.optimizer),
            ("activations".into(), act),
            ("fixed".into(), ctx.calib.gpu_fixed_bytes),
        ],
    })
}

/// Describes one DDP training iteration as a [`WorkloadPlan`].
// Micro-step indices are tiny (grad-accum counts): fit u32.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn plan_iteration(ctx: &IterCtx<'_>) -> Result<WorkloadPlan, StrategyError> {
    let gpus = ctx.opts.gpus(ctx.cluster)?;
    let group = CommGroup::new(gpus.clone());
    let tokens_gpu = (ctx.opts.per_gpu_batch * ctx.model.seq_len) as f64;
    let layers = ctx.model.num_layers;
    let bucket = ctx.comm_bucket_layers();

    let mut p = PlanCtx::new(*ctx, WorkloadKind::Iteration);
    let prologue = p.prologue();
    let mut prev: Vec<OpId> = gpus.iter().map(|g| p.input_h2d(*g, &[prologue])).collect();

    let fwd_flops = ctx.layer_fwd_flops(tokens_gpu, 1);
    let vocab_flops = ctx.embedding_fwd_flops(tokens_gpu, 1);
    let mut comm_chain: Vec<OpId> = Vec::new();
    for micro in 0..ctx.opts.grad_accum {
        // Gradients accumulate locally; only the last micro-step syncs
        // (`torch.nn.parallel.DistributedDataParallel.no_sync`).
        let sync = micro + 1 == ctx.opts.grad_accum;

        // Forward.
        p.set_phase(PhaseStage::Forward, micro as u32);
        for _l in 0..layers {
            for (i, g) in gpus.iter().enumerate() {
                prev[i] = p.layer_compute(*g, fwd_flops, "gemm", &[prev[i]]);
            }
        }
        // Vocabulary projection + loss.
        for (i, g) in gpus.iter().enumerate() {
            prev[i] = p.layer_compute(*g, vocab_flops, "gemm", &[prev[i]]);
        }

        // Backward with bucketed, overlapped gradient all-reduce.
        p.set_phase(PhaseStage::Backward, micro as u32);
        let mut remaining = layers;
        while remaining > 0 {
            let chunk = bucket.min(remaining);
            remaining -= chunk;
            for _l in 0..chunk {
                for (i, g) in gpus.iter().enumerate() {
                    prev[i] = p.layer_compute(*g, 2.0 * fwd_flops, "gemm", &[prev[i]]);
                }
            }
            if !sync {
                continue;
            }
            let grad_bytes = 2.0 * ctx.model.layer_params() * chunk as f64;
            let mut deps: Vec<OpId> = prev.clone();
            deps.extend(comm_chain.last().copied());
            let h = p.collective(
                CollectiveKind::AllReduce,
                group.clone(),
                grad_bytes,
                ctx.calib.nccl_internode_cap,
                &deps,
            );
            comm_chain.push(h);
        }
    }
    // Embedding gradients.
    let mut deps: Vec<OpId> = prev.clone();
    deps.extend(comm_chain.last().copied());
    let h = p.collective(
        CollectiveKind::AllReduce,
        group,
        2.0 * ctx.model.embedding_params(),
        ctx.calib.nccl_internode_cap,
        &deps,
    );
    comm_chain.push(h);

    // Optimizer: full parameter set on every GPU.
    p.set_phase(
        PhaseStage::Step,
        ctx.opts.grad_accum.saturating_sub(1) as u32,
    );
    let params = ctx.model.num_params();
    let last_comm = *comm_chain.last().expect("at least one bucket");
    for (i, g) in gpus.iter().enumerate() {
        p.gpu_adam(*g, params, &[prev[i], last_comm]);
    }
    Ok(p.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::lower::lower;
    use crate::options::TrainOptions;
    use zerosim_hw::{Cluster, ClusterSpec};
    use zerosim_model::GptConfig;
    use zerosim_simkit::{DagEngine, SimTime};

    #[test]
    fn ddp_iteration_runs_and_is_compute_dominated() {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::default();
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let plan = plan_iteration(&ctx).unwrap();
        assert!(plan.validate(&cluster).is_ok());
        let mut lowered = lower(&plan, &cluster, &calib).unwrap();
        let dag = lowered.stamp(opts.jitter_seed);
        let mut eng = DagEngine::new(cluster.resource_slots());
        let out = eng
            .run(cluster.net_mut(), dag, SimTime::ZERO, None)
            .unwrap();
        let secs = out.makespan().as_secs();
        // The 1.4 B model iterates in hundreds of milliseconds.
        assert!(secs > 0.1 && secs < 1.5, "iteration took {secs}s");
    }

    #[test]
    fn memory_plan_is_16_bytes_per_param_plus_overheads() {
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
        let plan = memory_plan(&ctx).unwrap();
        let p = model.num_params();
        assert!(plan.per_gpu_bytes > 16.0 * p);
        assert!(plan.fits(&cluster), "1.4B DDP must fit");
        let big = GptConfig::paper_model(55); // 2.9 B
        let ctx_big = IterCtx {
            cluster: &cluster,
            model: &big,
            opts: &opts,
            calib: &calib,
        };
        assert!(
            !memory_plan(&ctx_big).unwrap().fits(&cluster),
            "2.9B DDP must not fit"
        );
    }
}
