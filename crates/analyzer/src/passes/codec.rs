//! ZL008 — codec legality on transfer ops.
//!
//! A declared [`Codec`] is a *claim* about what an op puts on the wire;
//! this pass checks the claim is internally consistent and that the plan
//! respects the encoded/decoded state of the bytes downstream:
//!
//! 1. **Declaration checks** — the codec sits on a transfer-class op
//!    (collective, tier transfer, volume I/O), its ratio matches the
//!    declared dtype pair, its block size is positive, and its input
//!    dtype is full-precision (re-encoding an already-quantized stream
//!    is double-quantization, statically visible in the dtypes).
//! 2. **Abstract taint walk** — each op is abstractly either *encoded*
//!    (a narrowing codec ran, no decode yet) or *decoded*. Compute that
//!    consumes full-precision bytes ([`PlanOp::LayerCompute`],
//!    [`PlanOp::OptimizerStep`]) must never see encoded input — that is
//!    a missing decode. A codec'd transfer fed encoded input is
//!    double-quantization on the dataflow.
//!
//! Collectives are a deliberate exception in the walk: they neither
//! receive nor forward incoming taint. Strategy planners chain
//! collectives with serialization edges (`comm_chain`) that model stream
//! ordering, not buffer dataflow — propagating taint across them would
//! flag e.g. consecutive qgZ reduces as double-quantization when each
//! operates on a distinct bucket. Double-quantization *through* a
//! collective is still caught statically by the dtype check in (1).

use zerosim_strategies::{Codec, PlanOp};

use crate::diag::{LintCode, Site};
use crate::pass::{Artifacts, Pass, Sink};

/// ZL008 (see module docs).
#[derive(Debug)]
pub struct CodecLegalityPass;

/// Relative tolerance on the declared ratio vs. the dtype-implied ratio.
const RATIO_TOLERANCE: f64 = 1e-9;

fn is_transfer_class(op: &PlanOp) -> bool {
    matches!(
        op,
        PlanOp::Collective { .. } | PlanOp::TierTransfer { .. } | PlanOp::VolumeIo { .. }
    )
}

fn declaration_diagnostics(i: usize, op: &PlanOp, codec: &Codec, sink: &mut Sink<'_>) -> bool {
    let mut ok = true;
    if !is_transfer_class(op) {
        sink.report(
            LintCode::CodecLegality,
            Site::PlanOp(i),
            "codec declared on a non-transfer op".to_string(),
            "codecs describe wire encodings; attach them to collectives, tier \
             transfers, or volume I/O"
                .to_string(),
        );
        ok = false;
    }
    let expected = codec.expected_ratio();
    if !codec.ratio.is_finite() || (codec.ratio - expected).abs() > expected * RATIO_TOLERANCE {
        sink.report(
            LintCode::CodecLegality,
            Site::PlanOp(i),
            format!(
                "codec ratio {} is inconsistent with {} -> {} (expected {})",
                codec.ratio,
                codec.dtype_in.label(),
                codec.dtype_out.label(),
                expected
            ),
            "declare the ratio implied by the dtype pair (Codec::quantize does)".to_string(),
        );
        ok = false;
    }
    if codec.block == 0 {
        sink.report(
            LintCode::CodecLegality,
            Site::PlanOp(i),
            "codec block size is zero".to_string(),
            "blockwise quantization needs at least one element per block".to_string(),
        );
        ok = false;
    }
    if codec.dtype_in.is_quantized() {
        sink.report(
            LintCode::CodecLegality,
            Site::PlanOp(i),
            format!(
                "codec input dtype {} is already quantized: double-quantization",
                codec.dtype_in.label()
            ),
            "decode to full precision before re-encoding, or fuse the codecs".to_string(),
        );
        ok = false;
    }
    ok
}

impl Pass for CodecLegalityPass {
    fn code(&self) -> LintCode {
        LintCode::CodecLegality
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(plan) = art.plan else {
            return;
        };
        let nodes = plan.nodes();

        for (id, codec) in plan.codecs() {
            declaration_diagnostics(id.index(), &nodes[id.index()].op, codec, sink);
        }

        // Abstract interpretation over emission order (deps only point
        // backwards, so this is a topological sweep). `tainted[i]` means
        // op `i`'s output is encoded bytes awaiting decode.
        let mut tainted = vec![false; nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            let incoming = plan.deps(i).iter().any(|d| tainted[d.index()]);
            let narrows = plan.codec_at(i).is_some_and(Codec::is_narrowing);
            tainted[i] = match &n.op {
                // Collectives drop incoming taint: their inbound edges are
                // stream-serialization, not buffer dataflow (module docs).
                PlanOp::Collective { .. } => narrows,
                PlanOp::TierTransfer { .. } | PlanOp::VolumeIo { .. } => {
                    if narrows && incoming {
                        sink.report(
                            LintCode::CodecLegality,
                            Site::PlanOp(i),
                            "transfer re-encodes bytes that are already encoded: \
                             double-quantization"
                                .to_string(),
                            "insert a dequantize marker before this transfer".to_string(),
                        );
                    }
                    narrows || incoming
                }
                PlanOp::FixedCompute { label, .. } if label.starts_with("dequant") => false,
                PlanOp::LayerCompute { .. } | PlanOp::OptimizerStep { .. } => {
                    if incoming {
                        sink.report(
                            LintCode::CodecLegality,
                            Site::PlanOp(i),
                            "compute consumes encoded bytes without a decode: the codec's \
                             output dtype never reached full precision"
                                .to_string(),
                            "add a dequantize marker (FixedCompute labeled 'dequant*') \
                             between the encoded transfer and this op"
                                .to_string(),
                        );
                    }
                    false
                }
                // Joins and neutral spans forward the abstract state.
                _ => incoming,
            };
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
    use zerosim_strategies::{Dtype, PhaseStage, WorkloadPlan};

    fn run(plan: &WorkloadPlan) -> AnalysisReport {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(CodecLegalityPass));
        pm.run(&Artifacts::new(&cluster).with_plan(plan))
    }

    fn g(gpu: usize) -> GpuId {
        GpuId { node: 0, gpu }
    }

    fn gather(plan: &mut WorkloadPlan, codec: Option<Codec>) -> zerosim_strategies::OpId {
        let id = plan.push(
            PlanOp::Collective {
                kind: CollectiveKind::AllGather,
                group: CommGroup::new(vec![g(0), g(1)]),
                bytes: 1e9,
                cap: f64::INFINITY,
            },
            &[],
        );
        if let Some(c) = codec {
            plan.set_codec(id, c);
        }
        id
    }

    #[test]
    fn quantize_then_dequant_then_compute_is_clean() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        let h = gather(
            &mut plan,
            Some(Codec::quantize(Dtype::Fp16, Dtype::Int8, 2048)),
        );
        let dq = plan.push(
            PlanOp::FixedCompute {
                gpu: g(0),
                secs: 1e-5,
                label: "dequant",
            },
            &[h],
        );
        plan.push(
            PlanOp::LayerCompute {
                gpu: g(0),
                flops: 1e12,
                label: "gemm",
            },
            &[dq],
        );
        assert!(run(&plan).is_clean());
    }

    #[test]
    fn compute_on_encoded_bytes_is_a_missing_decode() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        let h = gather(
            &mut plan,
            Some(Codec::quantize(Dtype::Fp16, Dtype::Int8, 2048)),
        );
        plan.push(
            PlanOp::LayerCompute {
                gpu: g(0),
                flops: 1e12,
                label: "gemm",
            },
            &[h],
        );
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1);
        assert!(r.diagnostics[0].message.contains("without a decode"));
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(1));
    }

    #[test]
    fn inconsistent_ratio_and_zero_block_fire() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        let mut bad = Codec::quantize(Dtype::Fp16, Dtype::Int8, 2048);
        bad.ratio = 0.25; // Fp16 -> Int8 implies 0.5
        bad.block = 0;
        gather(&mut plan, Some(bad));
        let r = run(&plan);
        assert_eq!(r.deny_count(), 2, "{}", r.render_text());
        assert!(r.diagnostics[0].message.contains("inconsistent"));
        assert!(r.diagnostics[1].message.contains("block size is zero"));
    }

    #[test]
    fn quantized_input_dtype_is_double_quantization() {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        gather(
            &mut plan,
            Some(Codec::quantize(Dtype::Int8, Dtype::Int4, 512)),
        );
        let r = run(&plan);
        assert_eq!(r.deny_count(), 1);
        assert!(r.diagnostics[0].message.contains("double-quantization"));
    }

    #[test]
    fn chained_collectives_do_not_propagate_taint() {
        // comm_chain-style serialization: a second codec'd reduce depends
        // on the first, but operates on a distinct bucket. Must be clean.
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        let c = Codec::quantize(Dtype::Fp16, Dtype::Int4, 512);
        let h1 = plan.push(
            PlanOp::Collective {
                kind: CollectiveKind::ReduceScatter,
                group: CommGroup::new(vec![g(0), g(1)]),
                bytes: 1e9,
                cap: f64::INFINITY,
            },
            &[],
        );
        plan.set_codec(h1, c);
        let h2 = plan.push(
            PlanOp::Collective {
                kind: CollectiveKind::ReduceScatter,
                group: CommGroup::new(vec![g(0), g(1)]),
                bytes: 1e9,
                cap: f64::INFINITY,
            },
            &[h1],
        );
        plan.set_codec(h2, c);
        for h in [h1, h2] {
            let dq = plan.push(
                PlanOp::FixedCompute {
                    gpu: g(0),
                    secs: 1e-5,
                    label: "dequant_grad",
                },
                &[h],
            );
            plan.push(
                PlanOp::OptimizerStep {
                    device: zerosim_strategies::OptimizerDevice::Gpu(g(0)),
                    params: 1e9,
                },
                &[dq],
            );
        }
        let r = run(&plan);
        assert!(r.is_clean(), "{}", r.render_text());
    }
}
