//! ZL008 — codec pairing.
//!
//! A collective's [`zerosim_strategies::Codec`] puts encoded bytes on the
//! wire, and a [`PlanOp::Dequant`] turns them back into full precision.
//! `WorkloadPlan::validate` owns each codec's own rule (full-precision
//! input, strictly narrower output), so this pass checks only how
//! encoders and decodes pair up, in both directions, with one forward
//! walk over the plan:
//!
//! * **missing decode** — compute that reads full-precision bytes
//!   ([`PlanOp::LayerCompute`], [`PlanOp::OptimizerStep`]) must never be
//!   fed encoded bytes;
//! * **decode without encoder** — every [`PlanOp::Dequant`] must be fed
//!   encoded bytes, or it claims quantized bytes nobody produced. The
//!   deny is sited at the decode's nearest transfer ancestor (the
//!   highest-index collective or tier transfer it depends on): exactly
//!   the op whose codec went missing.
//!
//! The walk tracks whether each op's output is *encoded* (a codec'd
//! collective ran, no decode yet). Transfers, joins and other neutral
//! ops forward what they are fed; a decode or a compute op ends it.
//! Collectives are a deliberate exception: they neither receive nor
//! forward what they are fed. Strategy planners chain collectives with
//! serialization edges (`comm_chain`) that model stream ordering, not
//! buffer dataflow — forwarding across them would flag e.g. consecutive
//! qgZ reduces as double quantization when each operates on a distinct
//! bucket. Re-encoding quantized bytes is caught by `validate` instead,
//! which rejects a codec whose input dtype is already quantized.

use std::collections::HashSet;

use zerosim_strategies::PlanOp;

use crate::diag::{LintCode, Site};
use crate::pass::{Artifacts, Pass, Sink};

/// ZL008 (see module docs).
#[derive(Debug)]
pub struct CodecLegalityPass;

impl Pass for CodecLegalityPass {
    fn code(&self) -> LintCode {
        LintCode::CodecLegality
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(plan) = art.plan else {
            return;
        };
        let nodes = plan.nodes();
        let is_transfer = |p: usize| {
            matches!(
                nodes[p].op,
                PlanOp::Collective { .. } | PlanOp::TierTransfer { .. }
            )
        };
        // Per op, in emission order (deps only point backwards): whether
        // its output is encoded bytes awaiting decode, and its
        // highest-index transfer ancestor (a dependency outranks
        // everything it descends from).
        let mut flow: Vec<(bool, Option<usize>)> = Vec::with_capacity(nodes.len());
        let mut reported: HashSet<usize> = HashSet::new();
        for (i, n) in nodes.iter().enumerate() {
            let deps = plan.deps(i);
            let fed = deps.iter().any(|d| flow[d.index()].0);
            let nearest = deps
                .iter()
                .map(|d| {
                    let p = d.index();
                    if is_transfer(p) {
                        Some(p)
                    } else {
                        flow[p].1
                    }
                })
                .max()
                .flatten();
            let encoded = match &n.op {
                // Collectives drop what they are fed: their inbound edges
                // are stream serialization, not buffer dataflow.
                PlanOp::Collective { codec, .. } => codec.is_some(),
                PlanOp::Dequant { .. } => {
                    let site = nearest.unwrap_or(i);
                    if !fed && reported.insert(site) {
                        sink.report(
                            LintCode::CodecLegality,
                            Site::PlanOp(site),
                            format!(
                                "dequantize op {i} is not fed encoded bytes: no quantized \
                                 collective precedes it, so the decoded bytes were never \
                                 produced"
                            ),
                            "declare the codec on the quantized collective, or drop the \
                             decode"
                                .to_string(),
                        );
                    }
                    false
                }
                PlanOp::LayerCompute { .. } | PlanOp::OptimizerStep { .. } => {
                    if fed {
                        sink.report(
                            LintCode::CodecLegality,
                            Site::PlanOp(i),
                            "compute consumes encoded bytes without a decode: the codec's \
                             output dtype never reached full precision"
                                .to_string(),
                            "add a PlanOp::Dequant between the quantized collective and \
                             this op"
                                .to_string(),
                        );
                    }
                    false
                }
                _ => fed,
            };
            flow.push((encoded, nearest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use crate::pass::{AnalysisReport, PassManager};
    use zerosim_collectives::{CollectiveKind, CommGroup};
    use zerosim_hw::{Cluster, ClusterSpec, GpuId};
    use zerosim_strategies::{Codec, Dtype, OpId, OptimizerDevice, PhaseStage, WorkloadPlan};

    fn run(plan: &WorkloadPlan) -> AnalysisReport {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(CodecLegalityPass));
        pm.run(&Artifacts::new(&cluster).with_plan(plan))
    }

    fn g(gpu: usize) -> GpuId {
        GpuId { node: 0, gpu }
    }

    fn codec(dtype_out: Dtype) -> Option<Codec> {
        Some(Codec {
            dtype_in: Dtype::Fp16,
            dtype_out,
        })
    }

    fn collective(
        plan: &mut WorkloadPlan,
        kind: CollectiveKind,
        codec: Option<Codec>,
        deps: &[OpId],
    ) -> OpId {
        let op = PlanOp::Collective {
            kind,
            group: CommGroup::new(vec![g(0), g(1)]),
            bytes: 1e9,
            cap: f64::INFINITY,
            codec,
        };
        plan.push(op, deps)
    }

    fn gemm(plan: &mut WorkloadPlan, deps: &[OpId]) -> OpId {
        let op = PlanOp::LayerCompute {
            gpu: g(0),
            flops: 1e12,
            label: "gemm",
        };
        plan.push(op, deps)
    }

    #[test]
    fn quantize_then_dequant_then_compute_is_clean() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        let h = collective(
            &mut plan,
            CollectiveKind::AllGather,
            codec(Dtype::Int8),
            &[],
        );
        let dq = plan.push(PlanOp::Dequant { gpu: g(0) }, &[h]);
        gemm(&mut plan, &[dq]);
        assert!(run(&plan).is_clean());
    }

    #[test]
    fn compute_on_encoded_bytes_is_a_missing_decode() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        let h = collective(
            &mut plan,
            CollectiveKind::AllGather,
            codec(Dtype::Int8),
            &[],
        );
        gemm(&mut plan, &[h]);
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1);
        assert!(r.diagnostics[0].message.contains("without a decode"));
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(1));
    }

    /// A decode fed no encoded bytes is denied once per transfer it
    /// decodes, sited at that transfer: its codec is the one missing.
    #[test]
    fn decode_without_encoder_fires_once_at_the_nearest_transfer() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        let earlier = collective(&mut plan, CollectiveKind::AllGather, None, &[]);
        let fwd = gemm(&mut plan, &[earlier]);
        let h = collective(&mut plan, CollectiveKind::AllGather, None, &[]);
        for gpu in [0, 1] {
            plan.push(PlanOp::Dequant { gpu: g(gpu) }, &[fwd, h]);
        }
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1, "{}", r.render_text());
        let d = &r.diagnostics[0];
        assert_eq!(d.site, Site::PlanOp(h.index()));
        assert!(d.message.contains("dequantize op 3"), "{}", d.message);
        // A decode with no transfer upstream is sited at itself.
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        plan.push(PlanOp::Dequant { gpu: g(0) }, &[]);
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(0));
    }

    #[test]
    fn chained_collectives_do_not_propagate_encoding() {
        // comm_chain-style serialization: a second codec'd reduce depends
        // on the first, but operates on a distinct bucket. Must be clean.
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        let qgz = codec(Dtype::Int4);
        let h1 = collective(&mut plan, CollectiveKind::ReduceScatter, qgz, &[]);
        let h2 = collective(&mut plan, CollectiveKind::ReduceScatter, qgz, &[h1]);
        for h in [h1, h2] {
            let dq = plan.push(PlanOp::Dequant { gpu: g(0) }, &[h]);
            plan.push(
                PlanOp::OptimizerStep {
                    device: OptimizerDevice::Gpu(g(0)),
                    params: 1e9,
                },
                &[dq],
            );
        }
        let r = run(&plan);
        assert!(r.is_clean(), "{}", r.render_text());
    }
}
