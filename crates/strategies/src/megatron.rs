//! Megatron-LM model parallelism: tensor parallelism (TP), pipeline
//! parallelism (PP), and data parallelism (DP) composed as in the paper's
//! Sec. II-B.
//!
//! The paper runs Megatron with full model parallelism over the available
//! GPUs (TP=4 on one node; TP spanning both nodes when dual — the
//! configuration whose per-layer blocking all-reduces collapse dual-node
//! throughput, Fig. 7-b). The general `tp × pp × dp` implementation here
//! also enables the extension study of placing *pipeline* boundaries
//! across nodes instead, which moves only activations over RoCE.
//!
//! Pipeline schedule: microbatches flow through stages GPipe-style (all
//! forwards, then all backwards); bubbles emerge naturally from the DAG
//! engine's resource serialization rather than being modelled analytically.

#![allow(clippy::needless_range_loop)] // (r, s, t) indexing over 3-D chains reads better

use zerosim_collectives::{CollectiveKind, CommGroup};
use zerosim_hw::MemLoc;
use zerosim_model::ModelStates;

use crate::builders::{IterCtx, PlanCtx};
use crate::error::StrategyError;
use crate::memory::MemoryPlan;
use crate::placement::ParallelPlacement;
use crate::plan::{OpId, PhaseStage, WorkloadKind, WorkloadPlan};

/// Microbatches per iteration for a pipeline depth of `pp` (the paper's
/// nsys timeline shows four; deeper pipelines need at least `pp` to keep
/// bubbles bounded).
pub(crate) fn microbatches(pp: usize) -> usize {
    4usize.max(pp)
}

/// Resolves the locality-aware `(replica, stage, tp-rank)` placement for
/// this context's GPU set (TP innermost — see [`ParallelPlacement`]).
fn resolve(ctx: &IterCtx<'_>, tp: usize, pp: usize) -> Result<ParallelPlacement, StrategyError> {
    ParallelPlacement::resolve(ctx.opts.gpus(ctx.cluster)?, tp, pp)
}

/// Builds the memory plan for Megatron with the given degrees.
pub(crate) fn memory_plan(
    ctx: &IterCtx<'_>,
    tp: usize,
    pp: usize,
) -> Result<MemoryPlan, StrategyError> {
    let layout = resolve(ctx, tp, pp)?;
    let mp = (layout.tp * layout.pp) as f64;
    let p = ctx.model.num_params();
    let states = ModelStates::for_params(p / mp);
    // Activations are sliced by the model-parallel degree; the pipeline's
    // in-flight microbatches put the per-microbatch share back up to
    // roughly the single-stage figure, so mp slicing is the right
    // first-order model for both TP and PP.
    let m = ctx.model;
    let act = ctx.calib.act_coeff_nockpt
        * m.num_layers as f64
        * m.seq_len as f64
        * ctx.opts.per_gpu_batch as f64
        * m.hidden_size as f64
        * 2.0
        / mp;
    let per_gpu = states.total() + act + ctx.calib.gpu_fixed_bytes;
    let n = ctx.opts.num_gpus(ctx.cluster) as f64;
    Ok(MemoryPlan {
        per_gpu_bytes: per_gpu,
        total_gpu_bytes: per_gpu * n,
        per_node_cpu_bytes: ctx.calib.host_base_bytes,
        total_cpu_bytes: ctx.calib.host_base_bytes * ctx.opts.nodes as f64,
        nvme_bytes: 0.0,
        gpu_breakdown: vec![
            ("states_shard".into(), states.total()),
            ("activations".into(), act),
            ("fixed".into(), ctx.calib.gpu_fixed_bytes),
        ],
    })
}

/// Describes one Megatron training iteration (tensor-parallel degree
/// `tp`, pipeline depth `pp`, data parallelism over the remainder) as an
/// [`WorkloadPlan`].
///
/// # Errors
/// [`StrategyError::InvalidLayout`] if `tp × pp` does not divide the
/// participating GPU count, or if the model has fewer layers than
/// pipeline stages.
// Microbatch indices are tiny (grad-accum counts): fit u32.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn plan_iteration(
    ctx: &IterCtx<'_>,
    tp: usize,
    pp: usize,
) -> Result<WorkloadPlan, StrategyError> {
    let layout = resolve(ctx, tp, pp)?;
    let layers = ctx.model.num_layers;
    if layers < layout.pp {
        return Err(StrategyError::layout(format!(
            "model has {layers} layers but the pipeline has {} stages",
            layout.pp
        )));
    }

    // Gradient accumulation just means more pipeline microbatches before
    // the optimizer step; the per-layer tensor-parallel all-reduces still
    // run for every one of them.
    let mb_count = microbatches(layout.pp) * ctx.opts.grad_accum;
    // Same global token count as DDP for a fair FLOP comparison.
    let tokens_mb = ctx.total_tokens() / (layout.dp * mb_count) as f64;
    let seqs_mb = tokens_mb / ctx.model.seq_len as f64;
    // Two fused tensor-parallel all-reduces per layer over the activation
    // tensor of one microbatch.
    let ar_bytes_per_layer =
        2.0 * ctx.model.seq_len as f64 * seqs_mb * ctx.model.hidden_size as f64 * 2.0;
    // Activation tensor crossing a pipeline boundary, per TP rank.
    let boundary_bytes = (ctx.model.seq_len as f64 * seqs_mb * ctx.model.hidden_size as f64 * 2.0
        / layout.tp as f64)
        .max(1.0);

    // Layers per stage (last stage absorbs the remainder + vocab head).
    let per_stage = layers / layout.pp;
    let stage_layers = |s: usize| {
        if s + 1 == layout.pp {
            layers - per_stage * (layout.pp - 1)
        } else {
            per_stage
        }
    };

    let fwd_flops = ctx.layer_fwd_flops(tokens_mb, layout.tp);
    let vocab_flops = ctx.embedding_fwd_flops(tokens_mb, layout.tp);

    let mut p = PlanCtx::new(*ctx, WorkloadKind::Iteration);
    let prologue = p.prologue();

    // TP communication groups per (replica, stage).
    let tp_group = |r: usize, s: usize| CommGroup::new(layout.tp_group(r, s));

    // Per (replica, stage, tp-rank): last emitted op on that GPU.
    let mut chain: Vec<Vec<Vec<OpId>>> =
        vec![vec![vec![prologue; layout.tp]; layout.pp]; layout.dp];
    for r in 0..layout.dp {
        for s in 0..layout.pp {
            for t in 0..layout.tp {
                chain[r][s][t] = p.input_h2d(layout.gpu(r, s, t), &[prologue]);
            }
        }
    }

    // Forward completion markers per (mb, replica, stage), needed by the
    // backward passes.
    let mut fwd_marker: Vec<Vec<Vec<OpId>>> = vec![vec![Vec::new(); layout.dp]; mb_count];

    // ---- Forward passes (all microbatches) ----
    for mb in 0..mb_count {
        p.set_phase(PhaseStage::Forward, mb as u32);
        for r in 0..layout.dp {
            let mut boundary_in: Option<Vec<OpId>> = None; // per tp-rank
            for s in 0..layout.pp {
                let group = tp_group(r, s);
                if let Some(prev_stage) = boundary_in.take() {
                    // Receive activations from the previous stage.
                    for t in 0..layout.tp {
                        let src = layout.gpu(r, s - 1, t);
                        let dst = layout.gpu(r, s, t);
                        chain[r][s][t] = p.transfer(
                            MemLoc::Gpu(src),
                            MemLoc::Gpu(dst),
                            boundary_bytes,
                            "p2p_act",
                            ctx.gpu_track(src),
                            &[prev_stage[t], chain[r][s][t]],
                        );
                    }
                }
                for _l in 0..stage_layers(s) {
                    for t in 0..layout.tp {
                        let g = layout.gpu(r, s, t);
                        chain[r][s][t] = p.layer_compute(g, fwd_flops, "gemm", &[chain[r][s][t]]);
                    }
                    if layout.tp > 1 {
                        let deps: Vec<OpId> = chain[r][s].clone();
                        let h = p.collective(
                            CollectiveKind::AllReduce,
                            group.clone(),
                            ar_bytes_per_layer,
                            ctx.calib.megatron_internode_cap,
                            &deps,
                        );
                        for t in 0..layout.tp {
                            chain[r][s][t] = h;
                        }
                    }
                }
                if s + 1 == layout.pp {
                    // Vocabulary projection + loss on the last stage.
                    for t in 0..layout.tp {
                        let g = layout.gpu(r, s, t);
                        chain[r][s][t] = p.layer_compute(g, vocab_flops, "gemm", &[chain[r][s][t]]);
                    }
                }
                let deps: Vec<OpId> = chain[r][s].clone();
                fwd_marker[mb][r].push(p.barrier(&deps));
                boundary_in = Some(chain[r][s].clone());
            }
        }
    }

    // ---- Backward passes (reverse stage order per microbatch) ----
    for mb in 0..mb_count {
        p.set_phase(PhaseStage::Backward, mb as u32);
        for r in 0..layout.dp {
            let mut boundary_grad: Option<Vec<OpId>> = None;
            for s in (0..layout.pp).rev() {
                let group = tp_group(r, s);
                if let Some(next_stage) = boundary_grad.take() {
                    for t in 0..layout.tp {
                        let src = layout.gpu(r, s + 1, t);
                        let dst = layout.gpu(r, s, t);
                        chain[r][s][t] = p.transfer(
                            MemLoc::Gpu(src),
                            MemLoc::Gpu(dst),
                            boundary_bytes,
                            "p2p_grad",
                            ctx.gpu_track(src),
                            &[next_stage[t], chain[r][s][t]],
                        );
                    }
                }
                // Backward follows this stage's forward of the same mb.
                let fm = fwd_marker[mb][r][s];
                for t in 0..layout.tp {
                    chain[r][s][t] = p.barrier(&[chain[r][s][t], fm]);
                }
                for _l in 0..stage_layers(s) {
                    for t in 0..layout.tp {
                        let g = layout.gpu(r, s, t);
                        chain[r][s][t] =
                            p.layer_compute(g, 2.0 * fwd_flops, "gemm", &[chain[r][s][t]]);
                    }
                    if layout.tp > 1 {
                        let deps: Vec<OpId> = chain[r][s].clone();
                        let h = p.collective(
                            CollectiveKind::AllReduce,
                            group.clone(),
                            ar_bytes_per_layer,
                            ctx.calib.megatron_internode_cap,
                            &deps,
                        );
                        for t in 0..layout.tp {
                            chain[r][s][t] = h;
                        }
                    }
                }
                boundary_grad = Some(chain[r][s].clone());
            }
        }
    }

    // ---- Data-parallel gradient sync across replicas ----
    let shard = ctx.model.num_params() / (layout.tp * layout.pp) as f64;
    if layout.dp > 1 {
        for s in 0..layout.pp {
            for t in 0..layout.tp {
                let deps: Vec<OpId> = (0..layout.dp).map(|r| chain[r][s][t]).collect();
                let group = CommGroup::new(layout.dp_group(s, t));
                // Uncapped: the raw RDMA-grade NCCL path.
                let h = p.collective(
                    CollectiveKind::AllReduce,
                    group,
                    2.0 * shard,
                    f64::INFINITY,
                    &deps,
                );
                for r in 0..layout.dp {
                    chain[r][s][t] = h;
                }
            }
        }
    }

    // ---- Optimizer on each GPU over its model shard ----
    p.set_phase(PhaseStage::Step, mb_count.saturating_sub(1) as u32);
    for r in 0..layout.dp {
        for s in 0..layout.pp {
            for t in 0..layout.tp {
                let g = layout.gpu(r, s, t);
                p.gpu_adam(g, shard, &[chain[r][s][t]]);
            }
        }
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

    fn run_iter(nodes: usize, layers: usize, tp: usize, pp: usize) -> f64 {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::paper_model(layers);
        let opts = if nodes == 1 {
            TrainOptions::single_node()
        } else {
            TrainOptions::dual_node()
        };
        let calib = Calibration::default();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let plan = plan_iteration(&ctx, tp, pp).unwrap();
        assert!(plan.validate(&cluster).is_ok());
        let mut lowered = lower(&plan, &cluster, &calib).unwrap();
        let dag = lowered.stamp(opts.jitter_seed);
        let mut eng = DagEngine::new(cluster.resource_slots());
        eng.run(cluster.net_mut(), dag, SimTime::ZERO, None)
            .unwrap()
            .makespan()
            .as_secs()
    }

    #[test]
    fn dual_node_tensor_parallel_is_much_slower_per_token_share() {
        // Same model, 2× the GPUs and 2× the tokens; if communication were
        // free the iteration time would stay equal. The paper instead sees
        // a collapse (Sec. IV-C2); require at least 2× slowdown.
        let single = run_iter(1, 26, 4, 1);
        let dual = run_iter(2, 26, 8, 1);
        assert!(
            dual > 2.0 * single,
            "dual {dual}s vs single {single}s — inter-node TP should hurt"
        );
    }

    #[test]
    fn pipeline_across_nodes_beats_tensor_across_nodes() {
        // Extension study: TP within each node + PP across the node
        // boundary moves only activations over RoCE and should be far
        // faster than TP spanning nodes.
        let tp_across = run_iter(2, 26, 8, 1);
        let pp_across = run_iter(2, 26, 4, 2);
        assert!(
            pp_across < 0.5 * tp_across,
            "pp-across {pp_across}s vs tp-across {tp_across}s"
        );
    }

    #[test]
    fn pure_pipeline_runs_and_costs_more_than_tensor_locally() {
        // tp=1, pp=4 on one node: no TP all-reduces, but the GPipe bubbles
        // keep it from beating TP=4 by much at equal work.
        let t = run_iter(1, 26, 1, 4);
        assert!(t > 0.05 && t < 3.0, "pp iteration {t}s");
    }

    #[test]
    fn tp_pp_dp_composition_runs() {
        // tp=2, pp=2, dp=2 across two nodes.
        let t = run_iter(2, 26, 2, 2);
        assert!(t > 0.05, "{t}");
    }

    #[test]
    fn memory_is_sliced_by_model_parallel_degree() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::paper_model(107); // ~5.5 B
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let plan = memory_plan(&ctx, 4, 1).unwrap();
        assert!(plan.fits(&cluster), "Megatron fits ~5.5B on one node");
        let too_big = GptConfig::paper_model(140);
        let ctx2 = IterCtx {
            cluster: &cluster,
            model: &too_big,
            opts: &opts,
            calib: &calib,
        };
        assert!(!memory_plan(&ctx2, 4, 1).unwrap().fits(&cluster));
        // TP and PP slice model states identically.
        let tp_plan = memory_plan(&ctx, 4, 1).unwrap();
        let pp_plan = memory_plan(&ctx, 1, 4).unwrap();
        assert!((tp_plan.gpu_breakdown[0].1 - pp_plan.gpu_breakdown[0].1).abs() < 1.0);
    }

    #[test]
    fn invalid_layout_is_rejected() {
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
        let err = plan_iteration(&ctx, 3, 1).unwrap_err();
        assert!(
            err.to_string().contains("must divide the GPU count"),
            "{err}"
        );
        let err = plan_iteration(&ctx, 0, 1).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn deep_pipeline_needs_enough_layers() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = GptConfig::paper_model(2);
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let err = plan_iteration(&ctx, 1, 4).unwrap_err();
        assert!(err.to_string().contains("pipeline has"), "{err}");
    }
}
