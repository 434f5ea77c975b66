//! Lowering: compiles a [`WorkloadPlan`] into an executable simkit [`Dag`].
//!
//! This is the **only** place in the strategy stack that knows about
//! `TaskSpec`s. Each semantic op expands to the exact task fragment the
//! seed implementation hand-emitted — collectives through
//! `zerosim-collectives` (ring / hierarchical schedules), tier transfers
//! through the hardware model's routing, volume I/O as striped per-drive
//! flows — so lowered DAGs are byte-identical to the pre-IR builders.
//!
//! Lowering separates **structure** from **stamping**:
//!
//! * *Structure* (topology, dependencies, routes, byte volumes) depends
//!   only on (strategy, model, cluster, options) and is computed once per
//!   configuration by [`lower`].
//! * *Stamping* ([`LoweredPlan::stamp`]) patches only the jitter-seeded
//!   GEMM durations (and their dependent element-wise spans) in place,
//!   once per iteration.
//!
//! The engine therefore performs one full DAG build per run instead of
//! `warmup + measure` of them; perfbench's traced op reports the two
//! halves as `lower.s` and `stamp.s`.
//!
//! Lowering allocates per DAG, not per task: routes are `Copy` values
//! whose links are copied into the DAG's link arena, labels are
//! `&'static str`, collectives query their group's precomputed ring
//! order, and one dependency buffer is reused across every op: it maps
//! the op's row of [`WorkloadPlan::deps`] to the tasks that finish those
//! ops, and [`DagBuilder`] appends it to the DAG's own edge list (the
//! same [`zerosim_simkit::Csr`] layout). `tests/lowering_allocs.rs` pins
//! the floor at under 0.5 allocations per emitted task.

use zerosim_collectives::emit_collective;
use zerosim_hw::Cluster;
use zerosim_simkit::{Dag, DagBuilder, SimTime, TaskId};

use crate::calib::Calibration;
use crate::error::StrategyError;
use crate::plan::{OptimizerDevice, PlanOp, WorkloadPlan};

/// One jitter-stamped GEMM span and its dependent element-wise span.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ComputeStamp {
    /// The GEMM compute task (jittered at stamping time).
    gemm: TaskId,
    /// The trailing element-wise task (its duration tracks the GEMM's).
    elementwise: TaskId,
    /// Un-jittered GEMM duration in seconds.
    base_gemm_s: f64,
}

/// A plan compiled to a [`Dag`] whose structure is iteration-invariant.
///
/// Call [`LoweredPlan::stamp`] with the iteration's jitter seed before
/// executing; stamping only rewrites compute durations and is O(#layers),
/// not O(#tasks).
#[derive(Debug, Clone)]
pub struct LoweredPlan {
    dag: Dag,
    stamps: Vec<ComputeStamp>,
    jitter_amp: f64,
    elementwise_frac: f64,
    kernel_overhead_s: f64,
    /// Seed of the durations currently written into `dag`, when known.
    /// Lets fault replays that re-execute the same iteration skip the
    /// re-stamp entirely: the stamped durations are a pure function of
    /// the seed.
    last_seed: Option<u64>,
}

impl LoweredPlan {
    /// Re-stamps the jittered GEMM durations for `seed` and returns the
    /// ready-to-run DAG.
    ///
    /// Stamping the seed already in place is a no-op (the memo that keeps
    /// fault-replay rollbacks from rewriting identical durations).
    pub fn stamp(&mut self, seed: u64) -> &Dag {
        if self.last_seed == Some(seed) {
            return &self.dag;
        }
        self.last_seed = Some(seed);
        for s in &self.stamps {
            let gemm_s = s.base_gemm_s * jitter_factor(self.jitter_amp, seed, s.gemm.index());
            self.dag
                .set_compute_duration(s.gemm, SimTime::from_secs(gemm_s));
            let ew_s = (self.elementwise_frac * gemm_s).max(self.kernel_overhead_s);
            self.dag
                .set_compute_duration(s.elementwise, SimTime::from_secs(ew_s));
        }
        &self.dag
    }

    /// The lowered DAG as last stamped (base durations if never stamped).
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Consumes the plan, returning the DAG as last stamped.
    pub fn into_dag(self) -> Dag {
        self.dag
    }

    /// Number of tasks in the lowered DAG.
    pub fn len(&self) -> usize {
        self.dag.len()
    }

    /// True when the DAG holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.dag.is_empty()
    }

    /// How many GEMM spans stamping rewrites per iteration (the per-
    /// iteration work; everything else is reused).
    pub fn stamped_tasks(&self) -> usize {
        self.stamps.len()
    }
}

/// Deterministic per-task jitter factor in `1 ± amp`, keyed on the
/// iteration seed and the GEMM task's position in the DAG (SplitMix64).
///
/// Bit-exact with the seed implementation's `IterCtx::jitter`, which
/// hashed `dag.len()` at emission time — lowering replays tasks in the
/// identical order, so the stamped durations reproduce the pre-IR
/// pipeline exactly.
fn jitter_factor(amp: f64, seed: u64, position: usize) -> f64 {
    if amp == 0.0 {
        return 1.0;
    }
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(position as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + amp * (2.0 * u - 1.0)
}

/// Compiles `plan` against `cluster` and `calib`.
///
/// The plan is first machine-checked by [`WorkloadPlan::validate`]
/// (ranks, routes, collective caps, phase ordering), so lowering never
/// meets an op it cannot route or a task `DagBuilder` would refuse.
///
/// GEMM durations in the returned [`LoweredPlan`] are un-jittered; call
/// [`LoweredPlan::stamp`] before running.
///
/// # Errors
/// [`StrategyError::InvalidPlan`] when validation rejects the plan.
pub fn lower(
    plan: &WorkloadPlan,
    cluster: &Cluster,
    calib: &Calibration,
) -> Result<LoweredPlan, StrategyError> {
    plan.validate(cluster)?;
    let mut b = DagBuilder::new();
    let mut stamps: Vec<ComputeStamp> = Vec::new();
    // Done-task per op: the TaskId downstream ops hook their deps onto.
    let mut done: Vec<TaskId> = Vec::with_capacity(plan.len());
    // Buffers reused by every op: its dependencies, then (volume I/O)
    // its per-drive transfers.
    let mut deps: Vec<TaskId> = Vec::new();
    let mut parts: Vec<TaskId> = Vec::new();

    for (i, node) in plan.nodes().iter().enumerate() {
        deps.clear();
        deps.extend(plan.deps(i).iter().map(|d| done[d.index()]));
        let task = match &node.op {
            PlanOp::Overhead => b.delay(SimTime::from_secs(calib.iteration_overhead_s), &deps),
            PlanOp::LayerCompute { gpu, flops, label } => {
                let res = cluster.gpu_resource(*gpu);
                // A transformer layer issues ~6 GEMM kernels; efficiency
                // is judged per kernel.
                let per_kernel = flops / 6.0;
                let base_gemm_s = 6.0 * calib.kernel_time_s(per_kernel);
                let gemm = b.compute(res, SimTime::from_secs(base_gemm_s), label, &deps);
                let ew_s = (calib.elementwise_frac * base_gemm_s).max(calib.kernel_overhead_s);
                let ew = b.compute(res, SimTime::from_secs(ew_s), "elementwise", &[gemm]);
                stamps.push(ComputeStamp {
                    gemm,
                    elementwise: ew,
                    base_gemm_s,
                });
                ew
            }
            PlanOp::FixedCompute { gpu, secs, label } => {
                let res = cluster.gpu_resource(*gpu);
                b.compute(res, SimTime::from_secs(*secs), label, &deps)
            }
            // A fused decode kernel, priced as one kernel launch.
            PlanOp::Dequant { gpu } => {
                let res = cluster.gpu_resource(*gpu);
                let secs = SimTime::from_secs(calib.kernel_overhead_s);
                b.compute(res, secs, "dequant", &deps)
            }
            PlanOp::OptimizerStep { device, params } => match device {
                OptimizerDevice::Gpu(g) => {
                    let res = cluster.gpu_resource(*g);
                    b.compute(
                        res,
                        SimTime::from_secs(calib.gpu_adam_time_s(*params)),
                        "weight_update",
                        &deps,
                    )
                }
                OptimizerDevice::Cpu(s) => {
                    let res = cluster.cpu_resource(*s);
                    b.compute(
                        res,
                        SimTime::from_secs(calib.cpu_adam_time_s(*params)),
                        "cpu_adam",
                        &deps,
                    )
                }
            },
            PlanOp::Collective {
                kind,
                group,
                bytes,
                cap,
                codec,
            } => {
                // A codec means the encoded blob is what moves: scale the
                // payload before the schedule prices it.
                let wire = codec.map_or(*bytes, |c| bytes * c.ratio());
                emit_collective(&mut b, cluster, group, *kind, wire, &deps, *cap).done
            }
            PlanOp::TierTransfer {
                src,
                dst,
                bytes,
                label,
                track,
            } => {
                let route = cluster.route(*src, *dst);
                b.transfer_capped(
                    route.links(),
                    bytes.max(1.0),
                    route.latency,
                    route.cap,
                    label,
                    *track,
                    &deps,
                )
            }
            PlanOp::VolumeIo {
                volume,
                socket,
                dir,
                bytes,
                label,
                track,
            } => {
                // Striped across the volume's member drives: one flow per
                // drive plus a join.
                let routes = cluster
                    .try_volume_io_routes(*volume, *socket, *dir)
                    .expect("validate resolved every volume I/O route");
                let k = routes.len() as f64;
                parts.clear();
                for r in routes {
                    parts.push(b.transfer_capped(
                        r.links(),
                        (bytes / k).max(1.0),
                        r.latency,
                        r.cap,
                        label,
                        *track,
                        &deps,
                    ));
                }
                b.marker(&parts)
            }
            PlanOp::Barrier => b.marker(&deps),
            // Residency, not time: the append itself is instantaneous
            // (attention cost over the cache rides in LayerCompute), so
            // it lowers to a join marker. Its bytes matter to planlint
            // ZL001 and the serving driver's KV accounting.
            PlanOp::KvAppend { .. } => b.marker(&deps),
        };
        done.push(task);
    }

    Ok(LoweredPlan {
        dag: b.build(),
        stamps,
        jitter_amp: calib.compute_jitter_frac,
        elementwise_frac: calib.elementwise_frac,
        kernel_overhead_s: calib.kernel_overhead_s,
        last_seed: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OptimizerDevice, PhaseStage, PlanOp};
    use zerosim_hw::{ClusterSpec, GpuId};

    fn fixtures() -> (Cluster, Calibration) {
        (
            Cluster::new(ClusterSpec::default()).unwrap(),
            Calibration::default(),
        )
    }

    fn small_plan() -> WorkloadPlan {
        let g = GpuId { node: 0, gpu: 0 };
        let mut p = WorkloadPlan::new();
        let pro = p.push(PlanOp::Overhead, &[]);
        p.set_phase(PhaseStage::Forward, 0);
        let fwd = p.push(
            PlanOp::LayerCompute {
                gpu: g,
                flops: 4e11,
                label: "gemm",
            },
            &[pro],
        );
        p.set_phase(PhaseStage::Step, 0);
        p.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(g),
                params: 1e9,
            },
            &[fwd],
        );
        p
    }

    #[test]
    fn lowering_expands_layer_compute_to_two_spans() {
        let (c, k) = fixtures();
        let lowered = lower(&small_plan(), &c, &k).unwrap();
        // delay + gemm + elementwise + weight_update.
        assert_eq!(lowered.len(), 4);
        assert_eq!(lowered.stamped_tasks(), 1);
    }

    #[test]
    fn stamping_changes_durations_not_structure() {
        let (c, k) = fixtures();
        let mut lowered = lower(&small_plan(), &c, &k).unwrap();
        let len = lowered.len();
        let d0 = lowered
            .stamp(0)
            .compute_demand(c.gpu_resource(GpuId { node: 0, gpu: 0 }));
        let d1 = lowered
            .stamp(1)
            .compute_demand(c.gpu_resource(GpuId { node: 0, gpu: 0 }));
        assert_ne!(d0, d1, "different seeds must stamp different jitter");
        assert_eq!(lowered.len(), len);
        // Stamping is deterministic per seed.
        let d0b = lowered
            .stamp(0)
            .compute_demand(c.gpu_resource(GpuId { node: 0, gpu: 0 }));
        assert_eq!(d0, d0b);
    }

    #[test]
    fn restamping_same_seed_is_a_memoized_noop() {
        let (c, k) = fixtures();
        let gpu = c.gpu_resource(GpuId { node: 0, gpu: 0 });
        let mut lowered = lower(&small_plan(), &c, &k).unwrap();
        let d = lowered.stamp(7).compute_demand(gpu);
        // Same seed again: memo hit, durations untouched (a fault replay
        // re-running one iteration must see identical stamped jitter).
        let d2 = lowered.stamp(7).compute_demand(gpu);
        assert_eq!(d, d2);
        // A different seed invalidates the memo, then returning to the
        // original seed reproduces the original durations exactly.
        let other = lowered.stamp(8).compute_demand(gpu);
        assert_ne!(d, other);
        assert_eq!(lowered.stamp(7).compute_demand(gpu), d);
    }

    #[test]
    fn zero_jitter_amp_is_identity() {
        assert_eq!(jitter_factor(0.0, 17, 99), 1.0);
        let f = jitter_factor(0.06, 17, 99);
        assert!((f - 1.0).abs() <= 0.06 + 1e-12);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let (c, k) = fixtures();
        let mut p = WorkloadPlan::new();
        p.push(PlanOp::Overhead, &[]); // no optimizer step
        assert!(lower(&p, &c, &k).is_err());
    }
}
