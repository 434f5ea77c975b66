//! The workload-plan intermediate representation (IR).
//!
//! Strategies no longer hand-emit raw simkit tasks. Instead they describe
//! one unit of work — a training iteration, a checkpoint snapshot, a
//! serving prefill, or one decode step — as a [`WorkloadPlan`] of
//! *semantic* operations (layer compute, collectives, tier transfers,
//! optimizer steps, KV-cache appends) with explicit dependencies and
//! phase labels. The [`crate::lower`] pass then compiles the plan to a
//! [`zerosim_simkit::Dag`] once per configuration, and the engine
//! re-stamps only the jittered durations per iteration or decode step.
//!
//! Training and inference share this one IR: the [`WorkloadKind`] carries
//! a per-kind validation contract (training conservation/ordering laws
//! for [`WorkloadKind::Iteration`], state movement for
//! [`WorkloadKind::Checkpoint`], KV-cache residency and token-batch
//! semantics for [`WorkloadKind::Prefill`]/[`WorkloadKind::Decode`]), so
//! lowering, stamping, the engines, and planlint serve both worlds
//! through one code path.
//!
//! Putting a typed IR between strategy semantics and DAG emission buys
//! three things the seed implementation lacked:
//!
//! 1. **Separation** — strategies emit semantic ops; they never touch
//!    simkit's `TaskSpec`, and only `zerosim-collectives` knows which
//!    schedule a collective gets.
//! 2. **Validation** — [`WorkloadPlan::validate`] machine-checks every
//!    plan against the cluster (collective payloads and ranks, route
//!    feasibility, phase ordering).
//! 3. **Caching** — plan structure is iteration-invariant, so the engine
//!    lowers once and re-stamps durations instead of rebuilding the DAG
//!    `warmup + measure` times per run.
//!
//! # Dependency layout
//!
//! A plan keeps its ops' dependencies in one [`zerosim_simkit::Csr`] edge
//! list, the layout the lowered [`zerosim_simkit::Dag`] and the analyzer's
//! graphs keep their edges in: one row per op, appended by
//! [`WorkloadPlan::push`] and read through [`WorkloadPlan::deps`]. This
//! module is the only one that knows how the edges are stored; validation,
//! lowering and the planlint passes read rows. [`PlanNode`] holds only the
//! op and its phase, so pushing an op allocates nothing of its own.

use std::collections::BTreeMap;

use zerosim_collectives::{CollectiveKind, CommGroup};
use zerosim_hw::{Cluster, GpuId, IoDir, MemLoc, SocketId, VolumeId};
use zerosim_simkit::Csr;

use crate::error::StrategyError;

/// Identifies an operation within one [`WorkloadPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// Index of the op in emission (topological) order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Which part of the workload an op belongs to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseStage {
    /// Input pipeline: iteration prologue, host prep, H2D staging.
    #[default]
    Input,
    /// Forward pass (per micro-step).
    Forward,
    /// Backward pass including gradient communication (per micro-step).
    Backward,
    /// Optimizer step and post-step parameter redistribution.
    Step,
    /// Checkpoint/restore traffic (state snapshots to DRAM/NVMe); only
    /// used by [`WorkloadKind::Checkpoint`] plans.
    Checkpoint,
    /// Serving prompt processing (one forward over the batched prompts);
    /// only used by [`WorkloadKind::Prefill`] plans.
    Prefill,
    /// Serving token generation (one forward per emitted token); only
    /// used by [`WorkloadKind::Decode`] plans, where `micro` is the
    /// decode-step index.
    Decode,
}

/// What a plan describes: a training iteration, a checkpoint/restore
/// state movement, or one unit of serving work (prefill / decode step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// One training iteration (forward/backward/step). Must contain at
    /// least one optimizer step.
    #[default]
    Iteration,
    /// A checkpoint snapshot or restore: pure state movement between
    /// memory tiers. Must move at least one byte of state and must not
    /// contain optimizer steps.
    Checkpoint,
    /// Serving prompt processing for one admitted batch: forward compute
    /// over the prompt tokens, KV-cache writes, and first-token emission.
    /// Must append KV-cache bytes, must contain forward compute, and must
    /// not contain optimizer steps.
    Prefill,
    /// One serving decode step for the running batch: forward compute at
    /// batch width 1-token-per-request over the resident KV cache, one
    /// KV append per request, token emission. Same contract as
    /// [`WorkloadKind::Prefill`]; the `micro` label is the decode-step
    /// index.
    Decode,
}

impl WorkloadKind {
    /// True for the serving kinds ([`WorkloadKind::Prefill`] /
    /// [`WorkloadKind::Decode`]).
    pub fn is_serving(self) -> bool {
        matches!(self, WorkloadKind::Prefill | WorkloadKind::Decode)
    }

    /// The phase stages ops of this kind may carry.
    pub fn allowed_stages(self) -> &'static [PhaseStage] {
        match self {
            WorkloadKind::Iteration => &[
                PhaseStage::Input,
                PhaseStage::Forward,
                PhaseStage::Backward,
                PhaseStage::Step,
            ],
            WorkloadKind::Checkpoint => &[PhaseStage::Checkpoint],
            WorkloadKind::Prefill => &[PhaseStage::Input, PhaseStage::Prefill],
            WorkloadKind::Decode => &[PhaseStage::Input, PhaseStage::Decode],
        }
    }
}

/// Phase label: stage plus the gradient-accumulation micro-step. The
/// default is [`Phase::INPUT`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Phase {
    /// Micro-step index (0-based); `Step` ops use the last micro-step.
    pub micro: u32,
    /// Stage within the micro-step.
    pub stage: PhaseStage,
}

impl Phase {
    /// The input phase (before the first micro-step).
    pub const INPUT: Phase = Phase {
        micro: 0,
        stage: PhaseStage::Input,
    };
}

/// Where an optimizer step executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptimizerDevice {
    /// Fused GPU Adam over the rank's shard.
    Gpu(GpuId),
    /// DeepSpeed's CPU Adam on a host socket (ZeRO-Offload/Infinity).
    Cpu(SocketId),
}

/// Element dtypes a [`Codec`] converts between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// 32-bit IEEE float.
    Fp32,
    /// 16-bit IEEE float.
    Fp16,
    /// 8-bit block-quantized integer.
    Int8,
    /// 4-bit block-quantized integer (two elements per byte).
    Int4,
}

impl Dtype {
    /// Bytes per element.
    pub fn bytes(self) -> f64 {
        match self {
            Dtype::Fp32 => 4.0,
            Dtype::Fp16 => 2.0,
            Dtype::Int8 => 1.0,
            Dtype::Int4 => 0.5,
        }
    }

    /// True for the block-quantized integer dtypes — data already run
    /// through a quantizer, which a second codec must not re-encode.
    pub fn is_quantized(self) -> bool {
        matches!(self, Dtype::Int8 | Dtype::Int4)
    }

    /// Stable lowercase label for diagnostics and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Dtype::Fp32 => "fp32",
            Dtype::Fp16 => "fp16",
            Dtype::Int8 => "int8",
            Dtype::Int4 => "int4",
        }
    }
}

/// A declared on-the-wire codec for one transfer-class op (collective,
/// tier transfer, or volume I/O).
///
/// Semantics: the op's `bytes` field keeps describing the *full-precision
/// payload*; a declared codec states that what actually moves (and lands
/// in the destination pool) is `bytes × ratio`. Decoding back to full
/// precision is an explicit compute op whose label starts with
/// `"dequant"` — the analyzer's ZL008 pass checks that every consumer of
/// quantized bytes sits behind such a decode, and ZL002 checks that every
/// decode has a declared encoder upstream (shrinkage without a codec is
/// a conservation bug, exactly as before).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Codec {
    /// Element dtype entering the encoder (e.g. FP16 weights).
    pub dtype_in: Dtype,
    /// Element dtype on the wire (e.g. INT8 for qwZ, INT4 for qgZ).
    pub dtype_out: Dtype,
    /// Quantization block size in elements (one scale per block). Purely
    /// declarative; ZL008 sanity-checks it, lowering does not use it.
    pub block: usize,
    /// Declared wire-size ratio: encoded bytes = payload bytes × ratio.
    pub ratio: f64,
}

impl Codec {
    /// A block quantizer whose ratio follows from the dtype pair.
    pub fn quantize(dtype_in: Dtype, dtype_out: Dtype, block: usize) -> Codec {
        Codec {
            dtype_in,
            dtype_out,
            block,
            ratio: dtype_out.bytes() / dtype_in.bytes(),
        }
    }

    /// The ratio implied by the dtype pair alone (ZL008 denies codecs
    /// whose declared `ratio` disagrees with this).
    pub fn expected_ratio(&self) -> f64 {
        self.dtype_out.bytes() / self.dtype_in.bytes()
    }

    /// True when the codec shrinks bytes (a quantizer, not an expander).
    pub fn is_narrowing(&self) -> bool {
        self.ratio < 1.0
    }
}

/// One semantic operation of a training iteration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanOp {
    /// The fixed per-iteration framework overhead every chain hangs off.
    Overhead,
    /// One layer's (or fused phase's) GPU compute: a GEMM span plus the
    /// trailing element-wise span, serialized on the GPU. The GEMM span
    /// is duration-jittered at stamping time.
    LayerCompute {
        /// GPU the layer runs on.
        gpu: GpuId,
        /// FLOPs of the span (drives the calibrated kernel-time model).
        flops: f64,
        /// Timeline label (`"gemm"` for the paper's kernels).
        label: &'static str,
    },
    /// A fixed-duration GPU span (e.g. ZeRO-3's per-layer module-hook
    /// "transform" stall). Not jittered.
    FixedCompute {
        /// GPU the span occupies.
        gpu: GpuId,
        /// Busy seconds.
        secs: f64,
        /// Timeline label.
        label: &'static str,
    },
    /// The weight update over `params` parameters.
    OptimizerStep {
        /// Where the update runs.
        device: OptimizerDevice,
        /// Parameters updated by this rank.
        params: f64,
    },
    /// A collective over `group` on a `bytes`-sized buffer, expanded by
    /// lowering via `zerosim-collectives` (ring / hierarchical schedules).
    Collective {
        /// Which collective.
        kind: CollectiveKind,
        /// Participating ranks.
        group: CommGroup,
        /// Buffer size in bytes (payload, not wire volume).
        bytes: f64,
        /// Per-flow inter-node rate ceiling (engine efficiency);
        /// `f64::INFINITY` for raw RDMA-grade NCCL.
        cap: f64,
    },
    /// A point-to-point transfer between memory tiers, routed by the
    /// hardware model at lowering time.
    TierTransfer {
        /// Source tier location.
        src: MemLoc,
        /// Destination tier location.
        dst: MemLoc,
        /// Payload bytes (floored to 1 byte at lowering).
        bytes: f64,
        /// Timeline label (`"h2d"`, `"d2h"`, `"host_prep"`, ...).
        label: &'static str,
        /// Timeline track (GPU resource index by convention).
        track: u32,
    },
    /// A striped read/write against an NVMe volume from `socket`:
    /// lowering emits one transfer per member drive plus a join.
    VolumeIo {
        /// The RAID0-style volume.
        volume: VolumeId,
        /// Socket issuing the I/O.
        socket: SocketId,
        /// Read or write.
        dir: IoDir,
        /// Total bytes across all stripes.
        bytes: f64,
        /// Timeline label (`"nvme_read"` / `"nvme_write"`).
        label: &'static str,
        /// Timeline track.
        track: u32,
    },
    /// A zero-cost join point over its dependencies.
    Barrier,
    /// Appends `bytes` of KV-cache entries on `gpu`'s HBM. Lowered to a
    /// zero-duration marker (the attention cost over the cache already
    /// rides in [`PlanOp::LayerCompute`] FLOPs); its significance is
    /// *residency*: planlint ZL001 accumulates these bytes as a
    /// first-class memory-tier resident growing over decode steps, and
    /// ZL005 treats the append as a legal effect sink (it mutates cache
    /// state subsequent decode steps read).
    KvAppend {
        /// GPU whose HBM holds the cache shard.
        gpu: GpuId,
        /// Bytes appended by this op.
        bytes: f64,
    },
}

/// An op plus its phase label; its dependencies are
/// [`WorkloadPlan::deps`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// The operation.
    pub op: PlanOp,
    /// Phase label at emission time.
    pub phase: Phase,
}

/// A typed, structure-invariant description of one unit of work: a
/// training iteration, a checkpoint snapshot, a serving prefill, or a
/// decode step (see [`WorkloadKind`]).
///
/// Built by strategies through [`crate::PlanCtx`]; compiled to a task
/// graph by [`crate::lower::lower`]. Acyclic by construction: deps may
/// only reference previously pushed ops. The dependencies live in one
/// [`Csr`] edge list, the layout the lowered [`zerosim_simkit::Dag`]
/// keeps its edges in, read through [`WorkloadPlan::deps`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadPlan {
    nodes: Vec<PlanNode>,
    /// Dependencies, one row per op.
    deps: Csr<OpId>,
    phase: Phase,
    kind: WorkloadKind,
    /// Declared wire codecs, keyed by op index (side table so the op
    /// variants stay codec-agnostic for out-of-tree matchers).
    codecs: BTreeMap<usize, Codec>,
}

impl WorkloadPlan {
    /// Creates an empty training-iteration plan in the [`Phase::INPUT`]
    /// phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty plan of `kind`. Checkpoint plans start in the
    /// [`PhaseStage::Checkpoint`] phase, every other kind in
    /// [`Phase::INPUT`]. Validation applies the kind's contract (see
    /// [`WorkloadKind`]).
    pub fn of_kind(kind: WorkloadKind) -> Self {
        let stage = match kind {
            WorkloadKind::Checkpoint => PhaseStage::Checkpoint,
            _ => PhaseStage::Input,
        };
        WorkloadPlan {
            phase: Phase { micro: 0, stage },
            kind,
            ..Self::default()
        }
    }

    /// What this plan describes.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Enters a new phase; subsequent ops carry this label.
    pub fn set_phase(&mut self, stage: PhaseStage, micro: u32) {
        self.phase = Phase { micro, stage };
    }

    /// Appends `op` after `deps`.
    ///
    /// # Panics
    /// Panics if a dependency does not precede the new op (plans are
    /// acyclic by construction, mirroring `DagBuilder`).
    pub fn push(&mut self, op: PlanOp, deps: &[OpId]) -> OpId {
        let id = OpId(self.nodes.len());
        for d in deps {
            assert!(d.0 < id.0, "dependency {d:?} does not precede op {id:?}");
        }
        self.nodes.push(PlanNode {
            op,
            phase: self.phase,
        });
        self.deps.push_row(deps);
        id
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan holds no ops.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in emission (topological) order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// The dependencies of the op at `index`, in the order they were
    /// pushed; every one precedes it. Index-based like
    /// [`WorkloadPlan::codec_at`], for passes iterating `nodes()` by
    /// position.
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    pub fn deps(&self, index: usize) -> &[OpId] {
        self.deps.row(index)
    }

    /// The node behind `id`.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this plan.
    pub fn node(&self, id: OpId) -> &PlanNode {
        &self.nodes[id.0]
    }

    /// Declares a wire codec on `id`, which must be a transfer-class op
    /// ([`PlanOp::Collective`] / [`PlanOp::TierTransfer`] /
    /// [`PlanOp::VolumeIo`]; enforced by [`WorkloadPlan::validate`]).
    ///
    /// # Panics
    /// Panics if `id` does not belong to this plan.
    pub fn set_codec(&mut self, id: OpId, codec: Codec) {
        assert!(id.0 < self.nodes.len(), "codec on unknown op {id:?}");
        self.codecs.insert(id.0, codec);
    }

    /// The codec declared on `id`, if any.
    pub fn codec(&self, id: OpId) -> Option<&Codec> {
        self.codecs.get(&id.0)
    }

    /// The codec declared on the op at `index`, if any. Index-based twin
    /// of [`WorkloadPlan::codec`] for passes iterating `nodes()` by
    /// position.
    pub fn codec_at(&self, index: usize) -> Option<&Codec> {
        self.codecs.get(&index)
    }

    /// The wire-size ratio of the op at `index`: the declared codec's
    /// ratio, or 1.0 when the op moves raw bytes.
    pub fn codec_ratio_at(&self, index: usize) -> f64 {
        self.codecs.get(&index).map_or(1.0, |c| c.ratio)
    }

    /// All declared codecs as `(op id, codec)` in op order.
    pub fn codecs(&self) -> impl Iterator<Item = (OpId, &Codec)> {
        self.codecs.iter().map(|(&i, c)| (OpId(i), c))
    }

    /// Removes every codec declaration, leaving the ops untouched — the
    /// "forgot to declare the quantizer" fault planlint's ZL002/ZL008
    /// property tests inject.
    pub fn strip_codecs(&mut self) {
        self.codecs.clear();
    }

    /// Total collective payload bytes (buffer sizes summed, not wire
    /// volume) — the quantity behind the paper's "ZeRO-3 moves 50% more"
    /// claim.
    pub fn collective_payload_bytes(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                PlanOp::Collective { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Total collective wire bytes, summed over every rank: the ring's
    /// closed form `n · bytes_sent_per_rank(n, S)`, which every schedule
    /// lowering picks moves. Codec-aware: a declared codec scales the
    /// payload before it is priced.
    pub fn collective_wire_bytes(&self) -> f64 {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match &n.op {
                PlanOp::Collective {
                    kind, group, bytes, ..
                } => {
                    let ranks = group.len();
                    let payload = *bytes * self.codec_ratio_at(i);
                    Some(ranks as f64 * kind.bytes_sent_per_rank(ranks, payload))
                }
                _ => None,
            })
            .sum()
    }

    /// Total bytes staged through host/NVMe tiers (TierTransfer +
    /// VolumeIo payloads).
    pub fn staging_bytes(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                PlanOp::TierTransfer { bytes, .. } | PlanOp::VolumeIo { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Total KV-cache bytes appended ([`PlanOp::KvAppend`] payloads) —
    /// the per-plan residency growth serving drivers and planlint ZL001
    /// account against GPU HBM.
    pub fn kv_append_bytes(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                PlanOp::KvAppend { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Machine-checks the plan against `cluster`:
    ///
    /// * structural acyclicity (every dep precedes its op);
    /// * phase ordering: `Input` ops depend only on `Input` ops, and only
    ///   `Step` ops may depend on `Step` ops (the optimizer is a sink);
    /// * per-kind phase membership: every op's stage must be one of
    ///   [`WorkloadKind::allowed_stages`] for the plan's kind, so training
    ///   plans cannot carry serving stages and vice versa;
    /// * every referenced GPU / socket / volume physically exists, and
    ///   every volume a `VolumeIo` touches sits on the issuing socket's
    ///   node, so every `TierTransfer` and `VolumeIo` has a resolvable
    ///   route;
    /// * collective payloads are positive and finite with all ranks on
    ///   the cluster;
    /// * optimizer steps carry positive parameter counts, run in the
    ///   `Step` phase, and at least one exists
    ///   ([`WorkloadKind::Iteration`] plans only);
    /// * [`WorkloadKind::Checkpoint`] plans contain no optimizer step,
    ///   move at least one tier-transfer or volume-I/O payload, and keep
    ///   all ops in the [`PhaseStage::Checkpoint`] phase;
    /// * [`WorkloadKind::Prefill`] / [`WorkloadKind::Decode`] plans
    ///   contain no optimizer step, contain forward compute, and append
    ///   at least one byte of KV cache (residency is the serving
    ///   contract); `KvAppend` ops are serving-only and must run in the
    ///   `Prefill`/`Decode` stage;
    /// * declared codecs sit on transfer-class ops (collective / tier
    ///   transfer / volume I/O) with a finite positive ratio. Deeper
    ///   codec legality (ratio vs. dtypes, decode placement, double
    ///   quantization) is planlint ZL008's domain, so a plan carrying a
    ///   *mis-declared* codec still lowers and lints.
    pub fn validate(&self, cluster: &Cluster) -> Result<(), StrategyError> {
        let spec = cluster.spec();
        let gpu_ok = |g: &GpuId| g.node < spec.nodes && g.gpu < spec.gpus_per_node;
        let socket_ok = |s: &SocketId| s.node < spec.nodes && s.socket < 2;
        let loc_ok = |l: &MemLoc| match l {
            MemLoc::Gpu(g) => gpu_ok(g),
            MemLoc::Cpu(s) => socket_ok(s),
            MemLoc::Nvme(d) => d.node < spec.nodes && d.drive < spec.nvme_layout.len(),
        };
        let err = |i: usize, msg: String| Err(StrategyError::plan(format!("op {i}: {msg}")));

        let mut optimizer_steps = 0usize;
        let mut state_moves = 0usize;
        let mut compute_spans = 0usize;
        let mut kv_appends = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            if !self.kind.allowed_stages().contains(&node.phase.stage) {
                return err(
                    i,
                    format!(
                        "{:?}-plan op in the {:?} phase",
                        self.kind, node.phase.stage
                    ),
                );
            }
            if self.kind != WorkloadKind::Iteration
                && matches!(node.op, PlanOp::OptimizerStep { .. })
            {
                return err(
                    i,
                    format!("{:?} plan contains an optimizer step", self.kind),
                );
            }
            for d in self.deps(i) {
                if d.0 >= i {
                    return err(i, format!("dependency {} does not precede it", d.0));
                }
                let dep = &self.nodes[d.0];
                if node.phase.stage == PhaseStage::Input && dep.phase.stage != PhaseStage::Input {
                    return err(i, "input-phase op depends on a later phase".into());
                }
                if dep.phase.stage == PhaseStage::Step && node.phase.stage != PhaseStage::Step {
                    return err(i, "non-step op depends on an optimizer-step op".into());
                }
            }
            match &node.op {
                PlanOp::Overhead | PlanOp::Barrier => {}
                PlanOp::LayerCompute { gpu, flops, .. } => {
                    compute_spans += 1;
                    if !gpu_ok(gpu) {
                        return err(i, format!("gpu {gpu:?} not on cluster"));
                    }
                    if !(flops.is_finite() && *flops > 0.0) {
                        return err(i, format!("non-positive flops {flops}"));
                    }
                }
                PlanOp::FixedCompute { gpu, secs, .. } => {
                    if !gpu_ok(gpu) {
                        return err(i, format!("gpu {gpu:?} not on cluster"));
                    }
                    if !(secs.is_finite() && *secs >= 0.0) {
                        return err(i, format!("bad duration {secs}"));
                    }
                }
                PlanOp::OptimizerStep { device, params } => {
                    optimizer_steps += 1;
                    let ok = match device {
                        OptimizerDevice::Gpu(g) => gpu_ok(g),
                        OptimizerDevice::Cpu(s) => socket_ok(s),
                    };
                    if !ok {
                        return err(i, format!("optimizer device {device:?} not on cluster"));
                    }
                    if !(params.is_finite() && *params > 0.0) {
                        return err(i, format!("non-positive params {params}"));
                    }
                    if node.phase.stage != PhaseStage::Step {
                        return err(i, "optimizer step outside the Step phase".into());
                    }
                }
                PlanOp::Collective { group, bytes, .. } => {
                    if !(bytes.is_finite() && *bytes > 0.0) {
                        return err(i, format!("non-positive collective bytes {bytes}"));
                    }
                    if let Some(g) = group.ranks().iter().find(|g| !gpu_ok(g)) {
                        return err(i, format!("collective rank {g:?} not on cluster"));
                    }
                }
                PlanOp::TierTransfer {
                    src, dst, bytes, ..
                } => {
                    if !loc_ok(src) || !loc_ok(dst) {
                        return err(i, format!("no physical route {src:?} -> {dst:?}"));
                    }
                    if !(bytes.is_finite() && *bytes >= 0.0) {
                        return err(i, format!("bad transfer bytes {bytes}"));
                    }
                    if *bytes > 0.0 {
                        state_moves += 1;
                    }
                }
                PlanOp::VolumeIo {
                    volume,
                    socket,
                    bytes,
                    ..
                } => {
                    let Ok(v) = cluster.try_volume(*volume) else {
                        return err(i, format!("volume {volume:?} not registered"));
                    };
                    if !socket_ok(socket) {
                        return err(i, format!("socket {socket:?} not on cluster"));
                    }
                    // Volume I/O stays on the issuing node: no route
                    // reaches another node's drives.
                    if let Some(m) = v.members.iter().find(|m| m.node != socket.node) {
                        return err(
                            i,
                            format!(
                                "volume {volume:?} drive {m:?} is not on node {}",
                                socket.node
                            ),
                        );
                    }
                    if !(bytes.is_finite() && *bytes >= 0.0) {
                        return err(i, format!("bad volume I/O bytes {bytes}"));
                    }
                    if *bytes > 0.0 {
                        state_moves += 1;
                    }
                }
                PlanOp::KvAppend { gpu, bytes } => {
                    if !gpu_ok(gpu) {
                        return err(i, format!("gpu {gpu:?} not on cluster"));
                    }
                    if !(bytes.is_finite() && *bytes >= 0.0) {
                        return err(i, format!("bad KV-append bytes {bytes}"));
                    }
                    if !matches!(node.phase.stage, PhaseStage::Prefill | PhaseStage::Decode) {
                        return err(i, "KV append outside a serving phase".into());
                    }
                    if *bytes > 0.0 {
                        kv_appends += 1;
                    }
                }
            }
        }
        for (&i, codec) in &self.codecs {
            let Some(node) = self.nodes.get(i) else {
                return Err(StrategyError::plan(format!(
                    "codec declared on unknown op {i}"
                )));
            };
            if !matches!(
                node.op,
                PlanOp::Collective { .. } | PlanOp::TierTransfer { .. } | PlanOp::VolumeIo { .. }
            ) {
                return err(i, "codec declared on a non-transfer op".into());
            }
            if !(codec.ratio.is_finite() && codec.ratio > 0.0) {
                return err(
                    i,
                    format!("codec ratio {} not finite-positive", codec.ratio),
                );
            }
        }
        match self.kind {
            WorkloadKind::Iteration => {
                if optimizer_steps == 0 {
                    return Err(StrategyError::plan(
                        "iteration plan contains no optimizer step",
                    ));
                }
            }
            WorkloadKind::Checkpoint => {
                if state_moves == 0 {
                    return Err(StrategyError::plan("checkpoint plan moves no state"));
                }
            }
            WorkloadKind::Prefill | WorkloadKind::Decode => {
                if compute_spans == 0 {
                    return Err(StrategyError::plan(
                        "serving plan contains no forward compute",
                    ));
                }
                if kv_appends == 0 {
                    return Err(StrategyError::plan(
                        "serving plan appends no KV-cache bytes",
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::{ClusterSpec, NvmeId};

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::default()).unwrap()
    }

    fn gpu0() -> GpuId {
        GpuId { node: 0, gpu: 0 }
    }

    #[test]
    fn minimal_plan_validates() {
        let c = cluster();
        let mut p = WorkloadPlan::new();
        let pro = p.push(PlanOp::Overhead, &[]);
        p.set_phase(PhaseStage::Forward, 0);
        let fwd = p.push(
            PlanOp::LayerCompute {
                gpu: gpu0(),
                flops: 1e12,
                label: "gemm",
            },
            &[pro],
        );
        p.set_phase(PhaseStage::Step, 0);
        p.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(gpu0()),
                params: 1e9,
            },
            &[fwd],
        );
        assert!(p.validate(&c).is_ok());
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn plan_without_optimizer_rejected() {
        let c = cluster();
        let mut p = WorkloadPlan::new();
        p.push(PlanOp::Overhead, &[]);
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("no optimizer step"));
    }

    #[test]
    fn step_phase_is_a_sink() {
        let c = cluster();
        let mut p = WorkloadPlan::new();
        p.set_phase(PhaseStage::Step, 0);
        let opt = p.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(gpu0()),
                params: 1.0,
            },
            &[],
        );
        p.set_phase(PhaseStage::Forward, 0);
        p.push(
            PlanOp::LayerCompute {
                gpu: gpu0(),
                flops: 1.0,
                label: "gemm",
            },
            &[opt],
        );
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("optimizer-step"));
    }

    #[test]
    fn offcluster_gpu_rejected() {
        let c = cluster();
        let mut p = WorkloadPlan::new();
        p.set_phase(PhaseStage::Step, 0);
        p.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(GpuId { node: 9, gpu: 0 }),
                params: 1.0,
            },
            &[],
        );
        assert!(p.validate(&c).is_err());
    }

    #[test]
    fn volume_io_needs_a_registered_volume_on_its_node() {
        let read_from = |node| {
            let mut p = WorkloadPlan::new();
            p.push(
                PlanOp::VolumeIo {
                    volume: VolumeId(0),
                    socket: SocketId { node, socket: 0 },
                    dir: IoDir::Read,
                    bytes: 1e6,
                    label: "nvme_read",
                    track: 0,
                },
                &[],
            );
            p.set_phase(PhaseStage::Step, 0);
            p.push(
                PlanOp::OptimizerStep {
                    device: OptimizerDevice::Gpu(gpu0()),
                    params: 1.0,
                },
                &[],
            );
            p
        };
        let mut c = cluster();
        let e = read_from(0).validate(&c).unwrap_err();
        assert!(e.to_string().contains("not registered"), "{e}");

        c.create_volume(vec![NvmeId { node: 0, drive: 0 }]);
        assert!(read_from(0).validate(&c).is_ok());
        // Node 1 cannot reach node 0's drive: a typed error, not the
        // routing panic lowering would otherwise hit.
        let e = read_from(1).validate(&c).unwrap_err();
        assert!(
            e.to_string()
                .contains("drive NvmeId { node: 0, drive: 0 } is not on node 1"),
            "{e}"
        );
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_dependency_panics() {
        let mut p = WorkloadPlan::new();
        p.push(PlanOp::Overhead, &[OpId(3)]);
    }

    #[test]
    fn checkpoint_plan_validates_without_optimizer() {
        let c = cluster();
        let mut p = WorkloadPlan::of_kind(WorkloadKind::Checkpoint);
        assert_eq!(p.kind(), WorkloadKind::Checkpoint);
        let d2h = p.push(
            PlanOp::TierTransfer {
                src: MemLoc::Gpu(gpu0()),
                dst: MemLoc::Cpu(SocketId { node: 0, socket: 0 }),
                bytes: 1e9,
                label: "ckpt_d2h",
                track: 0,
            },
            &[],
        );
        p.push(PlanOp::Barrier, &[d2h]);
        assert!(p.validate(&c).is_ok());
    }

    #[test]
    fn checkpoint_plan_must_move_state() {
        let c = cluster();
        let mut p = WorkloadPlan::of_kind(WorkloadKind::Checkpoint);
        p.push(PlanOp::Barrier, &[]);
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("moves no state"));
    }

    #[test]
    fn checkpoint_plan_rejects_optimizer_step() {
        let c = cluster();
        let mut p = WorkloadPlan::of_kind(WorkloadKind::Checkpoint);
        p.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(gpu0()),
                params: 1.0,
            },
            &[],
        );
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("optimizer step"));
    }

    #[test]
    fn iteration_plan_rejects_checkpoint_phase() {
        let c = cluster();
        let mut p = WorkloadPlan::new();
        p.set_phase(PhaseStage::Checkpoint, 0);
        p.push(PlanOp::Overhead, &[]);
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("Checkpoint phase"));
    }

    fn minimal_serving_plan(kind: WorkloadKind) -> WorkloadPlan {
        let mut p = WorkloadPlan::of_kind(kind);
        let stage = if kind == WorkloadKind::Prefill {
            PhaseStage::Prefill
        } else {
            PhaseStage::Decode
        };
        let h2d = p.push(
            PlanOp::TierTransfer {
                src: MemLoc::Cpu(SocketId { node: 0, socket: 0 }),
                dst: MemLoc::Gpu(gpu0()),
                bytes: 4096.0,
                label: "token_h2d",
                track: 0,
            },
            &[],
        );
        p.set_phase(stage, 0);
        let fwd = p.push(
            PlanOp::LayerCompute {
                gpu: gpu0(),
                flops: 1e12,
                label: "gemm",
            },
            &[h2d],
        );
        let kv = p.push(
            PlanOp::KvAppend {
                gpu: gpu0(),
                bytes: 1e6,
            },
            &[fwd],
        );
        p.push(
            PlanOp::TierTransfer {
                src: MemLoc::Gpu(gpu0()),
                dst: MemLoc::Cpu(SocketId { node: 0, socket: 0 }),
                bytes: 64.0,
                label: "token_d2h",
                track: 0,
            },
            &[kv],
        );
        p
    }

    #[test]
    fn prefill_and_decode_plans_validate() {
        let c = cluster();
        for kind in [WorkloadKind::Prefill, WorkloadKind::Decode] {
            let p = minimal_serving_plan(kind);
            assert_eq!(p.kind(), kind);
            assert!(kind.is_serving());
            assert!(p.validate(&c).is_ok(), "{kind:?}");
            assert_eq!(p.kv_append_bytes(), 1e6);
        }
    }

    #[test]
    fn serving_plan_rejects_optimizer_step() {
        let c = cluster();
        let mut p = minimal_serving_plan(WorkloadKind::Decode);
        p.set_phase(PhaseStage::Decode, 0);
        p.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(gpu0()),
                params: 1.0,
            },
            &[],
        );
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("optimizer step"));
    }

    #[test]
    fn serving_plan_must_append_kv_cache() {
        let c = cluster();
        let mut p = WorkloadPlan::of_kind(WorkloadKind::Prefill);
        p.set_phase(PhaseStage::Prefill, 0);
        p.push(
            PlanOp::LayerCompute {
                gpu: gpu0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("KV-cache"));
    }

    #[test]
    fn serving_plan_rejects_training_stages() {
        let c = cluster();
        let mut p = minimal_serving_plan(WorkloadKind::Prefill);
        p.set_phase(PhaseStage::Backward, 0);
        p.push(PlanOp::Overhead, &[]);
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("Backward"));
    }

    #[test]
    fn iteration_plan_rejects_kv_append() {
        let c = cluster();
        let mut p = WorkloadPlan::new();
        p.set_phase(PhaseStage::Forward, 0);
        p.push(
            PlanOp::KvAppend {
                gpu: gpu0(),
                bytes: 1e6,
            },
            &[],
        );
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("serving phase"));
    }

    #[test]
    fn codec_roundtrip_and_strip() {
        let c = cluster();
        let mut p = WorkloadPlan::new();
        p.set_phase(PhaseStage::Forward, 0);
        let coll = p.push(
            PlanOp::Collective {
                kind: zerosim_collectives::CollectiveKind::AllGather,
                group: CommGroup::new(vec![GpuId { node: 0, gpu: 0 }, GpuId { node: 0, gpu: 1 }]),
                bytes: 1e6,
                cap: f64::INFINITY,
            },
            &[],
        );
        p.set_phase(PhaseStage::Step, 0);
        p.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(gpu0()),
                params: 1.0,
            },
            &[coll],
        );
        let plain_wire = p.collective_wire_bytes();
        let codec = Codec::quantize(Dtype::Fp16, Dtype::Int8, 2048);
        assert_eq!(codec.ratio, 0.5);
        assert!(codec.is_narrowing());
        p.set_codec(coll, codec);
        assert!(p.validate(&c).is_ok());
        assert_eq!(p.codec(coll).unwrap().dtype_out, Dtype::Int8);
        assert_eq!(p.codec_ratio_at(coll.index()), 0.5);
        assert_eq!(p.codecs().count(), 1);
        // Halving the payload halves the scheduled wire volume.
        assert!((p.collective_wire_bytes() - plain_wire * 0.5).abs() < 1.0);
        p.strip_codecs();
        assert!(p.codec(coll).is_none());
        assert_eq!(p.collective_wire_bytes(), plain_wire);
    }

    #[test]
    fn codec_on_compute_op_rejected() {
        let c = cluster();
        let mut p = WorkloadPlan::new();
        p.set_phase(PhaseStage::Forward, 0);
        let fwd = p.push(
            PlanOp::LayerCompute {
                gpu: gpu0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        p.set_phase(PhaseStage::Step, 0);
        p.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(gpu0()),
                params: 1.0,
            },
            &[fwd],
        );
        p.set_codec(fwd, Codec::quantize(Dtype::Fp16, Dtype::Int8, 64));
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("non-transfer"));
    }

    #[test]
    fn non_finite_codec_ratio_rejected() {
        let c = cluster();
        let mut p = minimal_serving_plan(WorkloadKind::Prefill);
        let mut codec = Codec::quantize(Dtype::Fp16, Dtype::Int4, 128);
        codec.ratio = f64::NAN;
        p.set_codec(OpId(0), codec);
        let e = p.validate(&c).unwrap_err();
        assert!(e.to_string().contains("finite-positive"));
    }

    #[test]
    fn decode_plan_orders_micro_as_decode_step() {
        let c = cluster();
        let mut p = minimal_serving_plan(WorkloadKind::Decode);
        // A second decode step rides in the same plan as micro=1.
        p.set_phase(PhaseStage::Decode, 1);
        let fwd = p.push(
            PlanOp::LayerCompute {
                gpu: gpu0(),
                flops: 1e12,
                label: "gemm",
            },
            &[],
        );
        p.push(
            PlanOp::KvAppend {
                gpu: gpu0(),
                bytes: 2e6,
            },
            &[fwd],
        );
        assert!(p.validate(&c).is_ok());
        assert_eq!(p.kv_append_bytes(), 3e6);
    }
}
