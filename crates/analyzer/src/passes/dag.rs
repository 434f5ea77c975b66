//! ZL005 / ZL006 — dead-op and deadlock hygiene.
//!
//! ZL005 flags *dead* work: ops whose result nothing consumes. It reads
//! only the plan, so the analysis is semantic — every plan op with no
//! dependents must be a legitimate sink (a weight update, a persisting
//! write-back, or a step-phase parameter broadcast). Anything else — a
//! gradient collective nobody waits for, a compute op feeding nothing,
//! an unconsumed join — is flagged: its cost is simulated, but the
//! downstream work it should gate can start without it, so the timeline
//! silently loses a dependency. Warn-by-default, not an error.
//!
//! ZL006 detects dependency cycles and dangling edges in an untrusted
//! graph ([`crate::GraphView::from_edges`], attached with
//! [`Artifacts::with_graph`]). It skips the lowered DAG: a
//! [`zerosim_simkit::Dag`] is acyclic by construction, because
//! `DagBuilder::push` requires every dependency to precede its task.

use zerosim_hw::{IoDir, MemLoc};
use zerosim_strategies::{PhaseStage, PlanOp};

use crate::diag::{LintCode, Site};
use crate::pass::{Artifacts, Pass, Sink};

/// ZL005 (see module docs).
#[derive(Debug)]
pub struct DeadOpsPass;

/// Whether a dependent-less plan op is a legitimate sink of the
/// iteration (its effect is a state change, not a value someone reads).
fn is_legal_sink(op: &PlanOp, stage: PhaseStage) -> bool {
    match op {
        // The weight update itself.
        PlanOp::OptimizerStep { .. } => true,
        // Persisting state to a slower tier (checkpoint/offload
        // write-back): the write *is* the effect.
        PlanOp::VolumeIo {
            dir: IoDir::Write, ..
        } => true,
        PlanOp::TierTransfer { dst, .. } => {
            matches!(dst, MemLoc::Cpu(_) | MemLoc::Nvme(_))
        }
        // The post-step parameter broadcast (ZeRO-1/2): ranks end the
        // iteration holding fresh weights.
        PlanOp::Collective { .. } => stage == PhaseStage::Step,
        // Serving: a KV-cache append mutates cache state subsequent
        // decode steps read — the write *is* the effect. Token emission
        // (the GPU→CPU copy of sampled ids) is already covered by the
        // TierTransfer-to-CPU arm above.
        PlanOp::KvAppend { .. } => {
            matches!(stage, PhaseStage::Prefill | PhaseStage::Decode)
        }
        _ => false,
    }
}

impl Pass for DeadOpsPass {
    fn code(&self) -> LintCode {
        LintCode::DeadOps
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(plan) = art.plan else {
            return;
        };
        let nodes = plan.nodes();
        let mut consumed = vec![false; nodes.len()];
        for i in 0..nodes.len() {
            for d in plan.deps(i) {
                consumed[d.index()] = true;
            }
        }
        for (i, n) in nodes.iter().enumerate() {
            if consumed[i] || is_legal_sink(&n.op, n.phase.stage) {
                continue;
            }
            // The final op is the plan's completion by convention.
            if i + 1 == nodes.len() {
                continue;
            }
            let what = match &n.op {
                PlanOp::Collective { .. } => "collective that no op waits for",
                PlanOp::Barrier => "join that gates nothing",
                PlanOp::LayerCompute { .. }
                | PlanOp::FixedCompute { .. }
                | PlanOp::Dequant { .. } => "compute whose result nothing consumes",
                PlanOp::VolumeIo { .. } => "volume read that nothing consumes",
                _ => "op that nothing consumes",
            };
            sink.report(
                LintCode::DeadOps,
                Site::PlanOp(i),
                format!("dead op: {what}"),
                "wire the dependency (downstream work can currently start without \
                 this op) or drop the op"
                    .to_string(),
            );
        }
    }
}

/// ZL006 (see module docs).
#[derive(Debug)]
pub struct DagCyclePass;

impl Pass for DagCyclePass {
    fn code(&self) -> LintCode {
        LintCode::DagCycle
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(graph) = art.graph else {
            return;
        };
        if let Some((node, missing)) = graph.first_dangling() {
            sink.report(
                LintCode::DagCycle,
                Site::DagTask(node),
                format!("task depends on nonexistent task {missing}"),
                "the graph references a task that was never emitted".to_string(),
            );
        }
        if let Some(members) = graph.cycle_members() {
            let first = members[0];
            sink.report(
                LintCode::DagCycle,
                Site::DagTask(first),
                format!(
                    "dependency cycle: {} task(s) can never start (first: task {first})",
                    members.len()
                ),
                "break the cycle; the engine would deadlock at t=0".to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use crate::graph::GraphView;
    use crate::pass::{AnalysisReport, PassManager};
    use zerosim_hw::{Cluster, ClusterSpec};

    fn run_graph(graph: &GraphView) -> AnalysisReport {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(DagCyclePass));
        pm.run(&Artifacts::new(&cluster).with_graph(graph))
    }

    #[test]
    fn dead_collective_in_plan_warns_legal_sinks_do_not() {
        use zerosim_collectives::{CollectiveKind, CommGroup};
        use zerosim_hw::GpuId;
        use zerosim_strategies::{OptimizerDevice, PhaseStage, PlanOp, WorkloadPlan};

        let cluster = Cluster::new(ClusterSpec::default().with_nodes(1)).unwrap();
        let g0 = GpuId { node: 0, gpu: 0 };
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        let b = plan.push(
            PlanOp::LayerCompute {
                gpu: g0,
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        // Dead: a gradient reduction the optimizer never waits for.
        plan.push(
            PlanOp::Collective {
                kind: CollectiveKind::ReduceScatter,
                group: CommGroup::world(&cluster),
                bytes: 1e9,
                cap: 1.3e9,
                codec: None,
            },
            &[b],
        );
        plan.set_phase(PhaseStage::Step, 0);
        let s = plan.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(g0),
                params: 1e9,
            },
            &[b],
        );
        // Legal sink: the post-step parameter broadcast.
        plan.push(
            PlanOp::Collective {
                kind: CollectiveKind::AllGather,
                group: CommGroup::world(&cluster),
                bytes: 1e9,
                cap: 1.3e9,
                codec: None,
            },
            &[s],
        );

        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(DeadOpsPass));
        let r = pm.run(&Artifacts::new(&cluster).with_plan(&plan));
        assert!(r.is_clean(), "ZL005 defaults to warn");
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(1));
        assert!(r.diagnostics[0].message.contains("no op waits for"));
    }

    #[test]
    fn cycle_and_dangling_fire_on_untrusted_graphs() {
        let g = GraphView::from_edges(4, &[(0, 1), (1, 2), (2, 1), (9, 3)]);
        let r = run_graph(&g);
        assert_eq!(r.deny_count(), 2);
        assert!(r.diagnostics[0].message.contains("nonexistent task 9"));
        assert!(r.diagnostics[1].message.contains("cycle"));
        assert_eq!(r.diagnostics[1].site, Site::DagTask(1));
    }
}
