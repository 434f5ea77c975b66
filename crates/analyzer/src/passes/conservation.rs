//! ZL002 — per-shard produced/consumed byte conservation.
//!
//! Stricter than `WorkloadPlan::validate`: instead of trusting emission
//! order, the pass computes exact happens-before sets over the plan's
//! dependency rows ([`crate::graph::Ancestors`], one group per producer)
//! and requires that every op reading
//! staged bytes out of host DRAM or the NVMe pool can account for them —
//! either as resident state from the [`MemoryPlan`] or as bytes some
//! *ancestor* op actually moved there. An op that consumes bytes nobody
//! produced is reading garbage; the simulator would happily time the
//! transfer anyway, which is exactly why this must be a static check.
//!
//! GPU-sourced transfers are exempt (compute materializes activations
//! and gradients), as are same-node host-to-host copies (the input
//! pipeline's `host_prep` stages fresh batch bytes from the data loader).

use std::collections::HashSet;

use zerosim_hw::{IoDir, MemLoc};
use zerosim_strategies::PlanOp;

use crate::diag::{LintCode, Site};
use crate::graph::Ancestors;
use crate::pass::{Artifacts, Pass, Sink};

/// ZL002 (see module docs).
#[derive(Debug)]
pub struct ByteConservationPass;

/// A byte pool an op can stage into / consume from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pool {
    /// Host DRAM of one node.
    Cpu(usize),
    /// The aggregate NVMe scratch pool.
    Nvme,
}

impl Pool {
    fn describe(self) -> String {
        match self {
            Pool::Cpu(n) => format!("host DRAM of node {n}"),
            Pool::Nvme => "the NVMe pool".to_string(),
        }
    }
}

fn gb(bytes: f64) -> f64 {
    (bytes / 1e8).round() / 10.0
}

impl Pass for ByteConservationPass {
    fn code(&self) -> LintCode {
        LintCode::ByteConservation
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(plan) = art.plan else {
            return;
        };
        let nodes = plan.nodes();

        // Every op that moves bytes *into* a pool, in op order. Each
        // producer is its own ancestor group, numbered by its position.
        let mut producers: Vec<(Pool, f64)> = Vec::new();
        let mut producer_of: Vec<Option<usize>> = vec![None; nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            let staged = match &n.op {
                PlanOp::TierTransfer { dst, bytes, .. } => match dst {
                    MemLoc::Cpu(s) => Some((Pool::Cpu(s.node), *bytes)),
                    MemLoc::Nvme(_) => Some((Pool::Nvme, *bytes)),
                    MemLoc::Gpu(_) => None,
                },
                PlanOp::VolumeIo {
                    dir: IoDir::Read,
                    socket,
                    bytes,
                    ..
                } => Some((Pool::Cpu(socket.node), *bytes)),
                PlanOp::VolumeIo {
                    dir: IoDir::Write,
                    bytes,
                    ..
                } => Some((Pool::Nvme, *bytes)),
                _ => None,
            };
            if let Some((pool, bytes)) = staged {
                producer_of[i] = Some(producers.len());
                producers.push((pool, bytes));
            }
        }
        let anc = Ancestors::new(plan, &producer_of);

        // Resident state is a legitimate source of bytes.
        let cpu_credit = art.memory.map_or(0.0, |m| m.per_node_cpu_bytes);
        let nvme_credit = art.memory.map_or(0.0, |m| m.nvme_bytes);

        // Report only the first violation per pool: once one op reads
        // phantom bytes, everything downstream is tainted and repeating
        // the finding adds noise, not signal.
        let mut reported: HashSet<Pool> = HashSet::new();

        for (i, n) in nodes.iter().enumerate() {
            let consumed: Option<(Pool, f64)> = match &n.op {
                PlanOp::TierTransfer {
                    src: MemLoc::Cpu(s),
                    dst,
                    bytes,
                    ..
                } => {
                    // Same-node host->host staging materializes fresh
                    // bytes (data-loader output); don't charge the pool.
                    if matches!(dst, MemLoc::Cpu(d) if d.node == s.node) {
                        None
                    } else {
                        Some((Pool::Cpu(s.node), *bytes))
                    }
                }
                PlanOp::TierTransfer {
                    src: MemLoc::Nvme(_),
                    bytes,
                    ..
                } => Some((Pool::Nvme, *bytes)),
                PlanOp::VolumeIo {
                    dir: IoDir::Read,
                    bytes,
                    ..
                } => Some((Pool::Nvme, *bytes)),
                PlanOp::VolumeIo {
                    dir: IoDir::Write,
                    socket,
                    bytes,
                    ..
                } => Some((Pool::Cpu(socket.node), *bytes)),
                _ => None,
            };
            let Some((pool, bytes)) = consumed else {
                continue;
            };
            let credit = match pool {
                Pool::Cpu(_) => cpu_credit,
                Pool::Nvme => nvme_credit,
            };
            let produced: f64 = producers
                .iter()
                .enumerate()
                .filter(|(k, (ploc, _))| *ploc == pool && anc.reaches(*k, i))
                .map(|(_, (_, b))| b)
                .sum();
            // One byte of absolute slack plus relative tolerance keeps
            // f64 accumulation noise out of the verdict.
            if bytes > (credit + produced) * (1.0 + 1e-9) + 1.0 && reported.insert(pool) {
                sink.report(
                    LintCode::ByteConservation,
                    Site::PlanOp(i),
                    format!(
                        "op consumes {:.1} GB from {} but only {:.1} GB are resident \
                         or produced by its ancestors",
                        gb(bytes),
                        pool.describe(),
                        gb(credit + produced)
                    ),
                    "add the producing transfer (or a dependency on it) before this op".to_string(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use crate::pass::{AnalysisReport, PassManager};
    use zerosim_hw::{Cluster, ClusterSpec, GpuId, SocketId};
    use zerosim_strategies::{MemoryPlan, PhaseStage, WorkloadPlan};

    fn run(plan: &WorkloadPlan, memory: Option<&MemoryPlan>) -> AnalysisReport {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(ByteConservationPass));
        let mut art = Artifacts::new(&cluster).with_plan(plan);
        if let Some(m) = memory {
            art = art.with_memory(m);
        }
        pm.run(&art)
    }

    fn cpu0() -> MemLoc {
        MemLoc::Cpu(SocketId { node: 0, socket: 0 })
    }

    fn gpu0() -> MemLoc {
        MemLoc::Gpu(GpuId { node: 0, gpu: 0 })
    }

    #[test]
    fn produced_then_consumed_is_clean() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        let d2h = plan.push(
            PlanOp::TierTransfer {
                src: gpu0(),
                dst: cpu0(),
                bytes: 4e9,
                label: "d2h",
                track: 0,
            },
            &[],
        );
        plan.set_phase(PhaseStage::Step, 0);
        plan.push(
            PlanOp::TierTransfer {
                src: cpu0(),
                dst: gpu0(),
                bytes: 4e9,
                label: "h2d",
                track: 0,
            },
            &[d2h],
        );
        assert!(run(&plan, None).is_clean());
    }

    #[test]
    fn consuming_unproduced_bytes_fires_once_at_the_op() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Step, 0);
        // Two reads of phantom host bytes: only the first is reported.
        for _ in 0..2 {
            plan.push(
                PlanOp::TierTransfer {
                    src: cpu0(),
                    dst: gpu0(),
                    bytes: 4e9,
                    label: "h2d",
                    track: 0,
                },
                &[],
            );
        }
        let r = run(&plan, None);
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(0));
        assert!(r.diagnostics[0].message.contains("host DRAM of node 0"));
    }

    #[test]
    fn resident_state_and_staging_are_credited() {
        let mut plan = WorkloadPlan::new();
        // Same-node host staging is exempt as a consumer and counts as a
        // producer for downstream h2d.
        let prep = plan.push(
            PlanOp::TierTransfer {
                src: cpu0(),
                dst: cpu0(),
                bytes: 2e9,
                label: "host_prep",
                track: 0,
            },
            &[],
        );
        plan.set_phase(PhaseStage::Forward, 0);
        plan.push(
            PlanOp::TierTransfer {
                src: cpu0(),
                dst: gpu0(),
                bytes: 2e9,
                label: "h2d",
                track: 0,
            },
            &[prep],
        );
        assert!(run(&plan, None).is_clean());

        // Resident DRAM also covers reads without explicit producers.
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Step, 0);
        plan.push(
            PlanOp::TierTransfer {
                src: cpu0(),
                dst: gpu0(),
                bytes: 4e9,
                label: "h2d",
                track: 0,
            },
            &[],
        );
        let m = MemoryPlan {
            per_gpu_bytes: 0.0,
            total_gpu_bytes: 0.0,
            per_node_cpu_bytes: 8e9,
            total_cpu_bytes: 8e9,
            nvme_bytes: 0.0,
            gpu_breakdown: Vec::new(),
        };
        assert!(run(&plan, Some(&m)).is_clean());
    }

    #[test]
    fn producer_must_be_an_ancestor_not_just_earlier() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        // Producer exists earlier in emission order but the consumer does
        // not depend on it: emission order proves nothing.
        plan.push(
            PlanOp::TierTransfer {
                src: gpu0(),
                dst: cpu0(),
                bytes: 4e9,
                label: "d2h",
                track: 0,
            },
            &[],
        );
        plan.set_phase(PhaseStage::Step, 0);
        plan.push(
            PlanOp::TierTransfer {
                src: cpu0(),
                dst: gpu0(),
                bytes: 4e9,
                label: "h2d",
                track: 0,
            },
            &[],
        );
        let r = run(&plan, None);
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(1));
    }
}
