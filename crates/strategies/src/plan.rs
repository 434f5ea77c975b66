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

/// A quantizing wire codec on one [`PlanOp::Collective`] (ZeRO++'s qwZ
/// and qgZ).
///
/// The collective's `bytes` field keeps describing the *full-precision
/// payload*; the codec states that what moves is `bytes × ratio()`.
/// [`WorkloadPlan::validate`] requires a full-precision input and a
/// strictly narrower output, so every legal codec quantizes. Decoding
/// back to full precision is an explicit [`PlanOp::Dequant`], and
/// planlint ZL008 checks the pairing: every consumer of encoded bytes
/// sits behind a decode, and every decode is fed encoded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codec {
    /// Element dtype entering the encoder (e.g. FP16 weights).
    pub dtype_in: Dtype,
    /// Element dtype on the wire (e.g. INT8 for qwZ, INT4 for qgZ).
    pub dtype_out: Dtype,
}

impl Codec {
    /// Wire-size ratio implied by the dtype pair: encoded bytes =
    /// payload bytes × ratio.
    pub fn ratio(&self) -> f64 {
        self.dtype_out.bytes() / self.dtype_in.bytes()
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
        /// The wire codec quantizing the payload, if any: lowering
        /// schedules `bytes × codec.ratio()`.
        codec: Option<Codec>,
    },
    /// Decodes a quantized collective's output back to full precision on
    /// `gpu`: one fused kernel launch. Consumers of encoded bytes must
    /// wait on one (planlint ZL008).
    Dequant {
        /// GPU running the decode kernel.
        gpu: GpuId,
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
    /// pushed; every one precedes it. Index-based, for passes iterating
    /// `nodes()` by position.
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

    /// Removes every collective's codec, leaving the rest of each op
    /// untouched — the "forgot to declare the quantizer" fault planlint's
    /// ZL008 property test injects.
    pub fn strip_codecs(&mut self) {
        for node in &mut self.nodes {
            if let PlanOp::Collective { codec, .. } = &mut node.op {
                *codec = None;
            }
        }
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
    /// lowering picks moves. Codec-aware: a collective's codec scales the
    /// payload before it is priced.
    pub fn collective_wire_bytes(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                PlanOp::Collective {
                    kind,
                    group,
                    bytes,
                    codec,
                    ..
                } => {
                    let ranks = group.len();
                    let payload = codec.map_or(*bytes, |c| bytes * c.ratio());
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

    /// Machine-checks the plan against `cluster`. This is the one owner
    /// of the plan's rank, route, cap and phase rules; [`crate::lower`]
    /// runs it first, and the planlint passes lint only what it cannot
    /// see. Dependencies precede their ops by construction
    /// ([`WorkloadPlan::push`]).
    ///
    /// * phase ordering: `Input` ops depend only on `Input` ops, and only
    ///   `Step` ops may depend on `Step` ops (the optimizer is a sink);
    /// * per-kind phase membership: every op's stage must be one of
    ///   [`WorkloadKind::allowed_stages`] for the plan's kind, so training
    ///   plans cannot carry serving stages and vice versa;
    /// * every referenced GPU and socket physically exists
    ///   ([`Cluster::check_loc`], the rule routing applies too), and `hw`
    ///   routes every `TierTransfer` ([`Cluster::try_route`]) and every
    ///   `VolumeIo` ([`Cluster::try_volume_io_routes`]: a registered
    ///   volume whose drives sit on the issuing socket's node);
    /// * collective payloads are positive and finite, per-flow caps are
    ///   positive (or `+∞`), and all ranks are on the cluster;
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
    /// * a collective's codec quantizes: its input dtype is full
    ///   precision (re-encoding quantized bytes is double quantization)
    ///   and its output dtype is strictly narrower. Whether every decode
    ///   pairs with an encoder is planlint ZL008's dataflow question.
    ///
    /// # Errors
    /// [`StrategyError::InvalidPlan`] naming the first offending op.
    pub fn validate(&self, cluster: &Cluster) -> Result<(), StrategyError> {
        let err = |i: usize, msg: String| Err(StrategyError::plan(format!("op {i}: {msg}")));
        // `hw` owns which devices exist; the message keeps op and device.
        let exists = |i: usize, what: &str, device: &dyn std::fmt::Debug, loc: MemLoc| {
            cluster
                .check_loc(loc)
                .or_else(|e| err(i, format!("{what} {device:?}: {e}")))
        };

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
                    exists(i, "compute gpu", gpu, MemLoc::Gpu(*gpu))?;
                    if !(flops.is_finite() && *flops > 0.0) {
                        return err(i, format!("non-positive flops {flops}"));
                    }
                }
                PlanOp::FixedCompute { gpu, secs, .. } => {
                    exists(i, "compute gpu", gpu, MemLoc::Gpu(*gpu))?;
                    if !(secs.is_finite() && *secs >= 0.0) {
                        return err(i, format!("bad duration {secs}"));
                    }
                }
                PlanOp::Dequant { gpu } => exists(i, "dequant gpu", gpu, MemLoc::Gpu(*gpu))?,
                PlanOp::OptimizerStep { device, params } => {
                    optimizer_steps += 1;
                    let loc = match device {
                        OptimizerDevice::Gpu(g) => MemLoc::Gpu(*g),
                        OptimizerDevice::Cpu(s) => MemLoc::Cpu(*s),
                    };
                    exists(i, "optimizer device", device, loc)?;
                    if !(params.is_finite() && *params > 0.0) {
                        return err(i, format!("non-positive params {params}"));
                    }
                    if node.phase.stage != PhaseStage::Step {
                        return err(i, "optimizer step outside the Step phase".into());
                    }
                }
                PlanOp::Collective {
                    group,
                    bytes,
                    cap,
                    codec,
                    ..
                } => {
                    if !(bytes.is_finite() && *bytes > 0.0) {
                        return err(i, format!("non-positive collective bytes {bytes}"));
                    }
                    // `+∞` leaves the wires as the only limit; NaN would
                    // vanish in the route's `f64::min`.
                    if cap.is_nan() || *cap <= 0.0 {
                        return err(i, format!("non-positive collective cap {cap}"));
                    }
                    for g in group.ranks() {
                        exists(i, "collective rank", g, MemLoc::Gpu(*g))?;
                    }
                    if let Some(c) = codec {
                        let (from, to) = (c.dtype_in.label(), c.dtype_out.label());
                        if c.dtype_in.is_quantized() {
                            return err(
                                i,
                                format!("codec input {from} is quantized: double quantization"),
                            );
                        }
                        if c.ratio() >= 1.0 {
                            return err(i, format!("codec {from} -> {to} does not narrow"));
                        }
                    }
                }
                PlanOp::TierTransfer {
                    src, dst, bytes, ..
                } => {
                    if let Err(e) = cluster.try_route(*src, *dst) {
                        return err(i, format!("transfer has no route: {e}"));
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
                    dir,
                    bytes,
                    ..
                } => {
                    if let Err(e) = cluster.try_volume_io_routes(*volume, *socket, *dir) {
                        return err(i, format!("volume I/O has no route: {e}"));
                    }
                    if !(bytes.is_finite() && *bytes >= 0.0) {
                        return err(i, format!("bad volume I/O bytes {bytes}"));
                    }
                    if *bytes > 0.0 {
                        state_moves += 1;
                    }
                }
                PlanOp::KvAppend { gpu, bytes } => {
                    exists(i, "KV-append gpu", gpu, MemLoc::Gpu(*gpu))?;
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

    /// One op in `stage` feeding the iteration's optimizer step.
    fn feeding_the_step(stage: PhaseStage, op: PlanOp) -> WorkloadPlan {
        let mut p = WorkloadPlan::new();
        p.set_phase(stage, 0);
        let o = p.push(op, &[]);
        p.set_phase(PhaseStage::Step, 0);
        p.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(gpu0()),
                params: 1.0,
            },
            &[o],
        );
        p
    }

    /// The five dtype pairs a codec may convert: full precision in,
    /// strictly narrower out.
    const LEGAL_CODECS: [(Dtype, Dtype); 5] = [
        (Dtype::Fp32, Dtype::Fp16),
        (Dtype::Fp32, Dtype::Int8),
        (Dtype::Fp32, Dtype::Int4),
        (Dtype::Fp16, Dtype::Int8),
        (Dtype::Fp16, Dtype::Int4),
    ];

    /// Every plan shape `lower` cannot run is the same typed error from
    /// both `validate` and `lower`: transfers `hw` cannot route,
    /// collective caps that are not positive, devices `hw` does not have
    /// (a collective rank, a compute GPU, a CPU optimizer's socket),
    /// codecs that re-encode quantized bytes or do not narrow, and the
    /// two dependency-edge rules (only step ops wait on a step op; input
    /// ops wait only on input ops).
    #[test]
    fn shapes_lowering_cannot_run_are_errors_from_validate_and_lower() {
        let c = cluster();
        let calib = crate::Calibration::default();
        let gpu = |node| MemLoc::Gpu(GpuId { node, gpu: 0 });
        let cpu = |node| MemLoc::Cpu(SocketId { node, socket: 0 });
        let nvme = |node| MemLoc::Nvme(NvmeId { node, drive: 0 });
        let transfer = |src, dst| {
            let op = PlanOp::TierTransfer {
                src,
                dst,
                bytes: 1e6,
                label: "x",
                track: 0,
            };
            feeding_the_step(PhaseStage::Forward, op)
        };
        let coded = |node, cap, codec| {
            let group = CommGroup::new(vec![gpu0(), GpuId { node, gpu: 0 }]);
            let kind = CollectiveKind::AllReduce;
            let op = PlanOp::Collective {
                kind,
                group,
                bytes: 1e9,
                cap,
                codec,
            };
            feeding_the_step(PhaseStage::Backward, op)
        };
        let collective = |node, cap| coded(node, cap, None);
        let codec = |dtype_in, dtype_out| {
            coded(
                1,
                1e9,
                Some(Codec {
                    dtype_in,
                    dtype_out,
                }),
            )
        };
        let compute = PlanOp::LayerCompute {
            gpu: gpu0(),
            flops: 1e12,
            label: "gemm",
        };
        // Forward of the next micro-batch waiting on the weight update.
        let mut waits_on_step = feeding_the_step(PhaseStage::Backward, compute.clone());
        waits_on_step.set_phase(PhaseStage::Forward, 1);
        waits_on_step.push(compute.clone(), &[OpId(1)]);
        // Input staging waiting on the forward pass.
        let mut input_waits = feeding_the_step(PhaseStage::Forward, compute);
        input_waits.set_phase(PhaseStage::Input, 0);
        input_waits.push(PlanOp::Overhead, &[OpId(0)]);
        let far_compute = PlanOp::LayerCompute {
            gpu: GpuId { node: 2, gpu: 0 },
            flops: 1e12,
            label: "gemm",
        };
        let mut third_socket = WorkloadPlan::new();
        third_socket.set_phase(PhaseStage::Step, 0);
        third_socket.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Cpu(SocketId { node: 0, socket: 2 }),
                params: 1.0,
            },
            &[],
        );

        let rows = [
            (transfer(gpu(0), nvme(0)), "unsupported route"),
            (transfer(gpu(0), gpu(0)), "to itself"),
            (transfer(gpu(0), cpu(1)), "cross-node"),
            (transfer(cpu(0), nvme(1)), "cross-node"),
            (collective(1, 0.0), "collective cap 0"),
            (collective(1, -1.0), "collective cap -1"),
            (collective(1, f64::NAN), "collective cap NaN"),
            (collective(2, 1e9), "rank GpuId { node: 2"),
            (
                codec(Dtype::Int8, Dtype::Int4),
                "codec input int8 is quantized: double quantization",
            ),
            (
                codec(Dtype::Fp16, Dtype::Fp32),
                "codec fp16 -> fp32 does not narrow",
            ),
            (
                codec(Dtype::Fp16, Dtype::Fp16),
                "codec fp16 -> fp16 does not narrow",
            ),
            (
                feeding_the_step(PhaseStage::Forward, far_compute),
                "Gpu(GpuId { node: 2, gpu: 0 }) does not exist on this cluster",
            ),
            (
                third_socket,
                "Cpu(SocketId { node: 0, socket: 2 }) does not exist on this cluster",
            ),
            (waits_on_step, "depends on an optimizer-step op"),
            (input_waits, "input-phase op depends"),
        ];
        for (plan, msg) in rows {
            let e = plan.validate(&c).unwrap_err().to_string();
            assert!(e.contains(msg), "{msg}: {e}");
            let e = crate::lower(&plan, &c, &calib).unwrap_err().to_string();
            assert!(e.contains(msg), "{msg}: {e}");
        }
        for cap in [1e9, f64::INFINITY] {
            assert!(crate::lower(&collective(1, cap), &c, &calib).is_ok());
        }
        for (dtype_in, dtype_out) in LEGAL_CODECS {
            assert!(crate::lower(&codec(dtype_in, dtype_out), &c, &calib).is_ok());
        }
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
        assert!(e.to_string().contains("unknown volume"), "{e}");

        c.create_volume(vec![NvmeId { node: 0, drive: 0 }]);
        assert!(read_from(0).validate(&c).is_ok());
        // Node 1 cannot reach node 0's drive: a typed error naming the
        // issuing socket and the drive, not the routing panic lowering
        // would otherwise hit.
        let e = read_from(1).validate(&c).unwrap_err().to_string();
        assert!(e.contains("cross-node"), "{e}");
        assert!(e.contains("SocketId { node: 1, socket: 0 }"), "{e}");
        assert!(e.contains("NvmeId { node: 0, drive: 0 }"), "{e}");
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
    fn checkpoint_plan_rejects_forward_work() {
        let c = cluster();
        let mut p = WorkloadPlan::of_kind(WorkloadKind::Checkpoint);
        p.set_phase(PhaseStage::Forward, 0);
        p.push(PlanOp::Overhead, &[]);
        let e = p.validate(&c).unwrap_err();
        assert!(e
            .to_string()
            .contains("Checkpoint-plan op in the Forward phase"));
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
    fn codec_scales_the_wire_and_strips() {
        let c = cluster();
        let codec = Codec {
            dtype_in: Dtype::Fp16,
            dtype_out: Dtype::Int8,
        };
        assert_eq!(codec.ratio(), 0.5);
        let with = |codec| {
            let op = PlanOp::Collective {
                kind: CollectiveKind::AllGather,
                group: CommGroup::new(vec![gpu0(), GpuId { node: 0, gpu: 1 }]),
                bytes: 1e6,
                cap: f64::INFINITY,
                codec,
            };
            feeding_the_step(PhaseStage::Forward, op)
        };
        let plain_wire = with(None).collective_wire_bytes();
        let mut p = with(Some(codec));
        assert!(p.validate(&c).is_ok());
        // Halving the payload halves the scheduled wire volume.
        assert!((p.collective_wire_bytes() - plain_wire * 0.5).abs() < 1.0);
        p.strip_codecs();
        assert_eq!(p, with(None));
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
