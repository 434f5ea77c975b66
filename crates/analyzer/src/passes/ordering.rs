//! ZL003 — phase ordering / happens-before legality.
//!
//! The rules are schedule-agnostic: an edge is illegal only when *no*
//! valid execution schedule could satisfy it. A stage processes its
//! micro-batches in ascending order, so same-stage deps may only point
//! at earlier (or the same) micro-steps. Cross-stage deps within one
//! micro-step must respect forward → backward → step. Cross-stage deps
//! across micro-steps are free — backward of micro 0 waiting on the
//! forward of micro 3 is exactly what a non-pipelined schedule does, and
//! 1F1B makes forward of micro 1 wait on backward of micro 0. Two
//! stages are special: nothing except step-phase work may depend on a
//! step op (the weight update is iteration-final), and input-phase ops
//! may only depend on other input ops (the input pipeline precedes the
//! iteration). Checkpoint plans must stay inside the checkpoint phase.
//!
//! Serving plans reuse the same machinery with `micro` reinterpreted as
//! the decode-step index: ascending-micro ordering *is* autoregressive
//! token order, and the pass additionally checks decode-step effect
//! semantics — a KV-cache append or token emission must descend from its
//! own step's forward compute (a cache write or emitted token with no
//! compute behind it is meaningless in any schedule).
//!
//! `WorkloadPlan::validate` checks a subset of this from emission order;
//! this pass checks the actual dependency edges.

use zerosim_hw::MemLoc;
use zerosim_strategies::{PhaseStage, PlanNode, PlanOp, WorkloadKind};

use crate::diag::{LintCode, Site};
use crate::graph::Ancestors;
use crate::pass::{Artifacts, Pass, Sink};

/// ZL003 (see module docs).
#[derive(Debug)]
pub struct PhaseOrderingPass;

/// Stage rank within one micro-step; later stages may depend on earlier
/// ones, never the reverse.
fn rank(stage: PhaseStage) -> u8 {
    match stage {
        PhaseStage::Input => 0,
        PhaseStage::Forward | PhaseStage::Prefill => 1,
        PhaseStage::Backward | PhaseStage::Decode => 2,
        PhaseStage::Step => 3,
        PhaseStage::Checkpoint => 4,
    }
}

fn stage_name(stage: PhaseStage) -> &'static str {
    match stage {
        PhaseStage::Input => "input",
        PhaseStage::Forward => "forward",
        PhaseStage::Backward => "backward",
        PhaseStage::Step => "step",
        PhaseStage::Checkpoint => "checkpoint",
        PhaseStage::Prefill => "prefill",
        PhaseStage::Decode => "decode",
    }
}

fn kind_name(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::Iteration => "iteration",
        WorkloadKind::Checkpoint => "checkpoint",
        WorkloadKind::Prefill => "prefill",
        WorkloadKind::Decode => "decode",
    }
}

impl Pass for PhaseOrderingPass {
    fn code(&self) -> LintCode {
        LintCode::PhaseOrdering
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(plan) = art.plan else {
            return;
        };
        let nodes = plan.nodes();

        // Plan-kind rules: each workload kind owns a set of legal stages,
        // and only training iterations may update weights.
        let kind = plan.kind();
        for (i, n) in nodes.iter().enumerate() {
            if !kind.allowed_stages().contains(&n.phase.stage) {
                sink.report(
                    LintCode::PhaseOrdering,
                    Site::PlanOp(i),
                    format!(
                        "{} plan contains a {}-phase op",
                        kind_name(kind),
                        stage_name(n.phase.stage)
                    ),
                    "move the op into a plan of the matching workload kind".to_string(),
                );
            }
            if kind != WorkloadKind::Iteration && matches!(n.op, PlanOp::OptimizerStep { .. }) {
                sink.report(
                    LintCode::PhaseOrdering,
                    Site::PlanOp(i),
                    format!("{} plan runs an optimizer step", kind_name(kind)),
                    "weight updates belong to iteration plans".to_string(),
                );
            }
            if n.phase.stage == PhaseStage::Input && n.phase.micro != 0 {
                sink.report(
                    LintCode::PhaseOrdering,
                    Site::PlanOp(i),
                    format!("input-phase op labeled micro-step {}", n.phase.micro),
                    "the input pipeline precedes the first micro-step".to_string(),
                );
            }
        }

        // Dependency-edge legality.
        for (i, n) in nodes.iter().enumerate() {
            for d in plan.deps(i) {
                let j = d.index();
                let (pi, pj) = (n.phase, nodes[j].phase);
                if pj.stage == PhaseStage::Step && pi.stage != PhaseStage::Step {
                    sink.report(
                        LintCode::PhaseOrdering,
                        Site::PlanOp(i),
                        format!(
                            "{}-phase op depends on step-phase op {j}",
                            stage_name(pi.stage)
                        ),
                        "the weight update is iteration-final; nothing inside the \
                         iteration may wait on it"
                            .to_string(),
                    );
                } else if pi.stage == PhaseStage::Input && pj.stage != PhaseStage::Input {
                    sink.report(
                        LintCode::PhaseOrdering,
                        Site::PlanOp(i),
                        format!(
                            "input-phase op depends on {}-phase op {j}",
                            stage_name(pj.stage)
                        ),
                        "the input pipeline precedes the iteration".to_string(),
                    );
                } else if pj.stage == pi.stage && pj.micro > pi.micro {
                    sink.report(
                        LintCode::PhaseOrdering,
                        Site::PlanOp(i),
                        format!(
                            "{}-phase op of micro-step {} depends on op {j} of later \
                             micro-step {}",
                            stage_name(pi.stage),
                            pi.micro,
                            pj.micro
                        ),
                        "a stage processes its micro-batches in ascending order".to_string(),
                    );
                } else if pj.micro == pi.micro && rank(pj.stage) > rank(pi.stage) {
                    sink.report(
                        LintCode::PhaseOrdering,
                        Site::PlanOp(i),
                        format!(
                            "{}-phase op depends on {}-phase op {j} of the same micro-step",
                            stage_name(pi.stage),
                            stage_name(pj.stage)
                        ),
                        "within a micro-step the order is forward -> backward -> step".to_string(),
                    );
                }
            }
        }

        // Every optimizer step must be reachable from gradient work.
        // One ancestor group: the backward ops.
        let has_backward = nodes.iter().any(|n| n.phase.stage == PhaseStage::Backward);
        if has_backward {
            let backward: Vec<Option<usize>> = nodes
                .iter()
                .map(|n| (n.phase.stage == PhaseStage::Backward).then_some(0))
                .collect();
            let anc = Ancestors::new(plan, &backward);
            for (i, n) in nodes.iter().enumerate() {
                if matches!(n.op, PlanOp::OptimizerStep { .. }) && !anc.reaches(0, i) {
                    sink.report(
                        LintCode::PhaseOrdering,
                        Site::PlanOp(i),
                        "optimizer step does not depend on any backward-phase op".to_string(),
                        "an update without gradients is a no-op; wire the dependency".to_string(),
                    );
                }
            }
        }

        // Decode-step / token-emission semantics: in serving plans every
        // effect of a step — a KV-cache append or a token emission (the
        // device-to-host copy of sampled token ids) — must descend from
        // that same step's forward compute. `micro` is the decode-step
        // index, so "same micro" is "same token position": one ancestor
        // group per step that has compute, holding that compute.
        if kind.is_serving() {
            let is_compute = |n: &PlanNode| matches!(n.op, PlanOp::LayerCompute { .. });
            let mut steps: Vec<u32> = nodes
                .iter()
                .filter(|n| is_compute(n))
                .map(|n| n.phase.micro)
                .collect();
            steps.sort_unstable();
            steps.dedup();
            let step_group = |micro: u32| steps.binary_search(&micro).ok();
            let compute: Vec<Option<usize>> = nodes
                .iter()
                .map(|n| step_group(n.phase.micro).filter(|_| is_compute(n)))
                .collect();
            let anc = Ancestors::new(plan, &compute);
            for (i, n) in nodes.iter().enumerate() {
                let (what, help) = match &n.op {
                    PlanOp::KvAppend { .. } => (
                        "KV-cache append",
                        "a cache write with no compute behind it stores nothing; \
                         wire it to the step's forward pass",
                    ),
                    PlanOp::TierTransfer {
                        src: MemLoc::Gpu(_),
                        dst: MemLoc::Cpu(_),
                        ..
                    } if n.phase.stage != PhaseStage::Input => (
                        "token emission",
                        "a token cannot leave the device before its step's forward \
                         pass sampled it",
                    ),
                    _ => continue,
                };
                if !step_group(n.phase.micro).is_some_and(|g| anc.reaches(g, i)) {
                    sink.report(
                        LintCode::PhaseOrdering,
                        Site::PlanOp(i),
                        format!(
                            "{what} of decode step {} does not depend on that step's \
                             forward compute",
                            n.phase.micro
                        ),
                        help.to_string(),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use crate::pass::{AnalysisReport, PassManager};
    use zerosim_hw::{Cluster, ClusterSpec, GpuId};
    use zerosim_strategies::{OptimizerDevice, WorkloadPlan};

    fn run(plan: &WorkloadPlan) -> AnalysisReport {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(PhaseOrderingPass));
        pm.run(&Artifacts::new(&cluster).with_plan(plan))
    }

    fn g0() -> GpuId {
        GpuId { node: 0, gpu: 0 }
    }

    #[test]
    fn forward_backward_step_chain_is_clean() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        let f = plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        plan.set_phase(PhaseStage::Backward, 0);
        let b = plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 2e12,
                label: "gemm",
            },
            &[f],
        );
        plan.set_phase(PhaseStage::Step, 0);
        plan.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(g0()),
                params: 1e9,
            },
            &[b],
        );
        assert!(run(&plan).is_clean());
    }

    #[test]
    fn backward_before_forward_fires() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        let b = plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        plan.set_phase(PhaseStage::Forward, 0);
        plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[b],
        );
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(1));
        assert!(r.diagnostics[0]
            .message
            .contains("forward-phase op depends on backward"));
    }

    #[test]
    fn cross_stage_cross_micro_deps_are_legal_in_both_directions() {
        // 1F1B: forward of micro 1 depending on backward of micro 0 is
        // fine; so is the non-pipelined serialization where backward of
        // micro 0 waits for the forward of the *last* micro-batch.
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        let b0 = plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        plan.set_phase(PhaseStage::Forward, 1);
        plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[b0],
        );
        assert!(run(&plan).is_clean());

        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 3);
        let f3 = plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        plan.set_phase(PhaseStage::Backward, 0);
        plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[f3],
        );
        assert!(run(&plan).is_clean());
    }

    #[test]
    fn same_stage_dep_on_later_micro_fires() {
        // A stage consumes micro-batches in order: forward of micro 0
        // waiting on forward of micro 1 is unsatisfiable in any schedule.
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 1);
        let f1 = plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        plan.set_phase(PhaseStage::Forward, 0);
        plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[f1],
        );
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1);
        assert!(r.diagnostics[0].message.contains("later micro-step"));
    }

    #[test]
    fn nothing_inside_the_iteration_may_wait_on_the_step() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        let b = plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        plan.set_phase(PhaseStage::Step, 0);
        let s = plan.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(g0()),
                params: 1e9,
            },
            &[b],
        );
        plan.set_phase(PhaseStage::Forward, 1);
        plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[s],
        );
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(2));
        assert!(r.diagnostics[0].message.contains("step-phase op"));
    }

    #[test]
    fn unfed_optimizer_step_fires() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        plan.set_phase(PhaseStage::Step, 0);
        plan.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(g0()),
                params: 1e9,
            },
            &[],
        );
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(1));
        assert!(r.diagnostics[0].message.contains("optimizer step"));
    }

    #[test]
    fn checkpoint_kind_rules() {
        let mut plan = WorkloadPlan::of_kind(WorkloadKind::Checkpoint);
        plan.set_phase(PhaseStage::Forward, 0);
        plan.push(
            PlanOp::LayerCompute {
                gpu: g0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1);
        assert!(r.diagnostics[0].message.contains("checkpoint plan"));
    }
}
