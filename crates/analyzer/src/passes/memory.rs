//! ZL001 — per-tier memory residency vs. hardware capacities.
//!
//! An abstract interpretation of byte liveness: the resident footprint
//! comes from the strategy's [`MemoryPlan`]; on top of it the pass
//! replays the workload plan phase by phase and adds the worst
//! single-phase *transient* staging bytes each tier receives
//! ([`PlanOp::TierTransfer`] / [`PlanOp::VolumeIo`] destinations). The
//! result is a static peak bound that can never be below what the
//! simulator observes, so an OOM config is flagged without running a
//! single flow — and the deny verdict reuses [`MemoryPlan::fits`]
//! verbatim, keeping ZL001 in exact agreement with the simulator's
//! capacity probe (`core::capacity`).
//!
//! Serving plans add a third byte class: [`PlanOp::KvAppend`] is
//! *cumulative* residency, not transient staging — the KV cache grows
//! monotonically over decode steps and is never freed within the
//! workload, so the pass sums appends per GPU (no per-phase max) and
//! counts the worst GPU's total as resident alongside the memory plan.
//! A batch whose cache outgrows HBM is denied statically.

use std::collections::HashMap;

use zerosim_hw::{Cluster, IoDir, MemLoc};
use zerosim_strategies::{MemoryPlan, Phase, PlanOp, WorkloadPlan};

use crate::diag::{LintCode, Severity, Site};
use crate::pass::{Artifacts, MemoryVerdict, Pass, Sink};

/// ZL001 (see module docs).
#[derive(Debug)]
pub struct MemoryResidencyPass;

/// Worst single-phase transient bytes per tier, plus the worst GPU's
/// cumulative KV-cache growth.
#[derive(Debug, Default, Clone, Copy)]
struct Transients {
    gpu: f64,
    cpu: f64,
    nvme: f64,
    /// Cumulative [`PlanOp::KvAppend`] bytes on the most-loaded GPU —
    /// residency growth over decode steps, never freed within the plan.
    kv: f64,
}

/// Per-phase transient staging bytes flowing *into* each tier.
fn transients(plan: &WorkloadPlan) -> Transients {
    // (phase, gpu) / (phase, node) -> staged bytes.
    let mut gpu: HashMap<(Phase, (usize, usize)), f64> = HashMap::new();
    let mut cpu: HashMap<(Phase, usize), f64> = HashMap::new();
    let mut nvme: HashMap<Phase, f64> = HashMap::new();
    // gpu -> cumulative KV bytes (no phase key: the cache accumulates).
    let mut kv: HashMap<(usize, usize), f64> = HashMap::new();
    for node in plan.nodes() {
        match &node.op {
            PlanOp::TierTransfer { dst, bytes, .. } => match *dst {
                MemLoc::Gpu(g) => {
                    *gpu.entry((node.phase, (g.node, g.gpu))).or_insert(0.0) += bytes;
                }
                MemLoc::Cpu(s) => {
                    *cpu.entry((node.phase, s.node)).or_insert(0.0) += bytes;
                }
                MemLoc::Nvme(_) => {
                    *nvme.entry(node.phase).or_insert(0.0) += bytes;
                }
            },
            PlanOp::VolumeIo { dir, bytes, .. } => match dir {
                // A write stages bytes onto the drives; a read stages
                // them back into host DRAM. Both are transient on top of
                // the resident plan.
                IoDir::Write => *nvme.entry(node.phase).or_insert(0.0) += bytes,
                IoDir::Read => {
                    if let PlanOp::VolumeIo { socket, .. } = &node.op {
                        *cpu.entry((node.phase, socket.node)).or_insert(0.0) += bytes;
                    }
                }
            },
            PlanOp::KvAppend { gpu: g, bytes } => {
                *kv.entry((g.node, g.gpu)).or_insert(0.0) += bytes;
            }
            _ => {}
        }
    }
    fn max_v<K>(m: &HashMap<K, f64>) -> f64 {
        m.values().copied().fold(0.0f64, f64::max)
    }
    Transients {
        gpu: max_v(&gpu),
        cpu: max_v(&cpu),
        nvme: max_v(&nvme),
        kv: max_v(&kv),
    }
}

fn verdict(cluster: &Cluster, memory: &MemoryPlan, t: Transients) -> MemoryVerdict {
    let mem = &cluster.spec().mem;
    #[allow(clippy::cast_precision_loss)]
    let nvme_capacity = cluster.spec().nvme_layout.len() as f64 * mem.nvme_bytes_per_drive;
    MemoryVerdict {
        per_gpu_resident: memory.per_gpu_bytes,
        kv_growth: t.kv,
        per_gpu_peak: memory.per_gpu_bytes + t.kv + t.gpu,
        gpu_capacity: mem.gpu_bytes,
        per_node_cpu_resident: memory.per_node_cpu_bytes,
        per_node_cpu_peak: memory.per_node_cpu_bytes + t.cpu,
        cpu_capacity: mem.cpu_bytes_per_node,
        nvme_resident: memory.nvme_bytes,
        nvme_peak: memory.nvme_bytes + t.nvme,
        nvme_capacity,
        fits: memory.fits(cluster),
        bottleneck: memory.bottleneck(cluster),
    }
}

fn gb(bytes: f64) -> f64 {
    (bytes / 1e8).round() / 10.0
}

impl Pass for MemoryResidencyPass {
    fn code(&self) -> LintCode {
        LintCode::MemoryResidency
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(memory) = art.memory else {
            return;
        };
        let t = art.plan.map(transients).unwrap_or_default();
        let v = verdict(art.cluster, memory, t);

        // Deny findings replicate MemoryPlan::fits exactly, one per
        // overflowing tier (checked in gpu -> cpu -> nvme order like
        // MemoryPlan::bottleneck).
        // KV-cache growth is genuine residency (decode steps only ever
        // append), so it rides in the GPU tier's deny bound — a serving
        // batch whose cache outgrows HBM is statically OOM.
        let gpu_help = if v.kv_growth > 0.0 {
            "shrink the running batch / generation length or shard the KV cache \
             across more GPUs (higher TP)"
        } else {
            "shard more state off the GPU (higher ZeRO stage / offload) or shrink the model"
        };
        let tiers = [
            (
                "gpu",
                "per-GPU",
                "HBM",
                v.per_gpu_resident + v.kv_growth,
                v.per_gpu_peak,
                v.gpu_capacity,
                gpu_help,
            ),
            (
                "cpu",
                "per-node host",
                "DRAM",
                v.per_node_cpu_resident,
                v.per_node_cpu_peak,
                v.cpu_capacity,
                "offload less to the host or push optimizer state to NVMe",
            ),
            (
                "nvme",
                "NVMe",
                "scratch volume",
                v.nvme_resident,
                v.nvme_peak,
                v.nvme_capacity,
                "add scratch drives to the volume or shrink the model",
            ),
        ];
        for (_, what, tier, resident, peak, cap, help) in tiers {
            if resident > cap {
                sink.report(
                    LintCode::MemoryResidency,
                    Site::Config,
                    format!(
                        "{what} residency {:.1} GB exceeds {tier} capacity {:.1} GB",
                        gb(resident),
                        gb(cap)
                    ),
                    help.to_string(),
                );
            } else if peak > cap {
                // Legal at rest but the plan's transient staging can spike
                // past the tier: advisory, never gate-failing on its own.
                sink.report_at_most(
                    LintCode::MemoryResidency,
                    Severity::Warning,
                    Site::Config,
                    format!(
                        "{what} static peak bound {:.1} GB (resident {:.1} GB + staging) \
                         exceeds {tier} capacity {:.1} GB",
                        gb(peak),
                        gb(resident),
                        gb(cap)
                    ),
                    "staging may overlap with frees the static bound cannot see; \
                     verify with a simulated run"
                        .to_string(),
                );
            }
        }
        sink.set_memory_verdict(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use crate::pass::PassManager;
    use zerosim_hw::{ClusterSpec, GpuId, SocketId};
    use zerosim_strategies::PhaseStage;

    fn run(
        cluster: &Cluster,
        memory: &MemoryPlan,
        plan: Option<&WorkloadPlan>,
    ) -> crate::pass::AnalysisReport {
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(MemoryResidencyPass));
        let mut art = Artifacts::new(cluster).with_memory(memory);
        if let Some(p) = plan {
            art = art.with_plan(p);
        }
        pm.run(&art)
    }

    fn mem(gpu: f64, cpu: f64, nvme: f64) -> MemoryPlan {
        MemoryPlan {
            per_gpu_bytes: gpu,
            total_gpu_bytes: gpu * 8.0,
            per_node_cpu_bytes: cpu,
            total_cpu_bytes: cpu * 2.0,
            nvme_bytes: nvme,
            gpu_breakdown: Vec::new(),
        }
    }

    #[test]
    fn fitting_plan_is_clean_and_carries_verdict() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        let r = run(&c, &mem(30e9, 100e9, 0.0), None);
        assert!(r.is_clean());
        let v = r.memory.unwrap();
        assert!(v.fits);
        assert_eq!(v.bottleneck, None);
        assert_eq!(v.per_gpu_peak, 30e9);
    }

    #[test]
    fn oom_tiers_each_fire_once() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        let r = run(&c, &mem(62e9, 2048e9, 99e12), None);
        assert_eq!(r.deny_count(), 3);
        let v = r.memory.clone().unwrap();
        assert!(!v.fits);
        assert_eq!(v.bottleneck, Some("gpu"));
        assert!(r.diagnostics[0].message.contains("HBM"));
    }

    #[test]
    fn transient_staging_raises_peak_to_warning() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        let g = GpuId { node: 0, gpu: 0 };
        let s = SocketId { node: 0, socket: 0 };
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        // Stage 20 GB into a GPU already holding 30 GB resident: peak
        // 50 GB > 40 GB HBM, but residency fits.
        plan.push(
            PlanOp::TierTransfer {
                src: MemLoc::Cpu(s),
                dst: MemLoc::Gpu(g),
                bytes: 20e9,
                label: "h2d",
                track: 0,
            },
            &[],
        );
        let r = run(&c, &mem(30e9, 100e9, 0.0), Some(&plan));
        assert_eq!(r.deny_count(), 0);
        assert_eq!(r.warning_count(), 1);
        let v = r.memory.unwrap();
        assert_eq!(v.per_gpu_peak, 50e9);
        assert!(v.fits);
    }
}
