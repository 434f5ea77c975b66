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
//!
//! Codec-aware accounting: an op's `bytes` field is the full-precision
//! payload, but a declared [`zerosim_strategies::Codec`] means only
//! `bytes x ratio` encoded bytes actually move — pools are debited and
//! credited at the encoded size. The dual obligation: every `dequant`
//! marker asserts its inputs are encoded bytes, so some transfer-class
//! ancestor must *declare* the narrowing codec. Without the declaration
//! the decode consumes quantized bytes nobody produced — the deny is
//! sited at the nearest transfer ancestor (exactly the op whose codec
//! annotation is missing), which is what separates ZeRO++-style
//! quantization from a silent byte loss. That check asks about one group
//! (the narrowing-codec transfers) and finds the nearest transfer
//! ancestor with one forward sweep over the dependency rows.

use std::collections::HashSet;

use zerosim_hw::{IoDir, MemLoc};
use zerosim_strategies::{Codec, PlanNode, PlanOp};

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

/// True for a decode marker: a fixed-duration span labeled `dequant*`.
fn is_dequant(n: &PlanNode) -> bool {
    matches!(&n.op, PlanOp::FixedCompute { label, .. } if label.starts_with("dequant"))
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

        // Every op that moves bytes *into* a pool, in op order. Declared
        // codecs shrink the staged volume to the encoded size. Each
        // producer is its own ancestor group, numbered by its position.
        let mut producers: Vec<(Pool, f64)> = Vec::new();
        let mut producer_of: Vec<Option<usize>> = vec![None; nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            let wire = plan.codec_ratio_at(i);
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
                producers.push((pool, bytes * wire));
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
            let wire = plan.codec_ratio_at(i);
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
            let bytes = bytes * wire;
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

        // Decode-without-encoder: a `dequant` marker consumes encoded
        // bytes, so some transfer-class ancestor must declare a narrowing
        // codec. The deny is sited at the nearest transfer ancestor —
        // exactly the op whose codec declaration went missing.
        if !nodes.iter().any(is_dequant) {
            return;
        }
        let is_transfer = |p: usize| {
            matches!(
                nodes[p].op,
                PlanOp::Collective { .. } | PlanOp::TierTransfer { .. }
            )
        };
        // Group 0: the transfers that declare a narrowing codec.
        let encoders: Vec<Option<usize>> = (0..nodes.len())
            .map(|p| {
                (is_transfer(p) && plan.codec_at(p).is_some_and(Codec::is_narrowing)).then_some(0)
            })
            .collect();
        let encoded = Ancestors::new(plan, &encoders);
        // The highest-index transfer ancestor of every op: a dependency
        // outranks everything it descends from.
        let mut nearest: Vec<Option<usize>> = Vec::with_capacity(nodes.len());
        for i in 0..nodes.len() {
            let best = plan
                .deps(i)
                .iter()
                .map(|d| {
                    let p = d.index();
                    if is_transfer(p) {
                        Some(p)
                    } else {
                        nearest[p]
                    }
                })
                .max()
                .flatten();
            nearest.push(best);
        }
        let mut reported_ops: HashSet<usize> = HashSet::new();
        for (i, n) in nodes.iter().enumerate() {
            if !is_dequant(n) || encoded.reaches(0, i) {
                continue;
            }
            let site_op = nearest[i].unwrap_or(i);
            if reported_ops.insert(site_op) {
                sink.report(
                    LintCode::ByteConservation,
                    Site::PlanOp(site_op),
                    format!(
                        "dequantize marker at op {i} has no ancestor transfer declaring \
                         a narrowing codec: the decoded bytes were never produced"
                    ),
                    "declare the codec on the quantized transfer (set_codec) or drop \
                     the decode marker"
                        .to_string(),
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
