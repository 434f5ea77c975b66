//! Expansion of collectives into DAG task fragments.
//!
//! Every collective is compiled to the classic ring algorithm: `k` steps,
//! each step being one concurrent chunk flow per participating rank, with a
//! barrier between steps; large multi-node buffers take the two-level
//! schedule built from node-local rings. Each schedule moves the textbook
//! communication volume (all-reduce moves `2 (n−1)/n · S` per rank) and
//! yields realistic utilization *patterns*: bursts on NVLink within a
//! node, sustained pressure on RoCE across nodes — the distinction
//! Sec. IV-E of the paper builds its analysis on.

use zerosim_hw::Cluster;
use zerosim_simkit::{DagBuilder, TaskId};

use crate::group::{ring_route, CommGroup};

/// Which collective to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Reduce + broadcast fused: every rank ends with the reduced buffer.
    AllReduce,
    /// Every rank ends with the concatenation of all ranks' shards.
    AllGather,
    /// Every rank ends with one reduced shard.
    ReduceScatter,
}

impl CollectiveKind {
    /// Ring steps needed for `n` ranks.
    pub fn steps(&self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        match self {
            CollectiveKind::AllReduce => 2 * (n - 1),
            CollectiveKind::AllGather | CollectiveKind::ReduceScatter => n - 1,
        }
    }

    /// Bytes each rank transmits in total for a buffer of `bytes`
    /// (per-rank wire volume of the ring algorithm).
    pub fn bytes_sent_per_rank(&self, n: usize, bytes: f64) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let frac = (n - 1) as f64 / n as f64;
        match self {
            CollectiveKind::AllReduce => 2.0 * frac * bytes,
            CollectiveKind::AllGather | CollectiveKind::ReduceScatter => frac * bytes,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "allreduce",
            CollectiveKind::AllGather => "allgather",
            CollectiveKind::ReduceScatter => "reducescatter",
        }
    }
}

/// Handle to an emitted collective.
#[derive(Debug, Clone)]
pub struct CollectiveHandle {
    /// Joins when every rank has finished the collective.
    pub done: TaskId,
}

/// Appends the task fragment for `kind` over a `bytes`-sized buffer shared
/// by `group` to `dag`, starting after `deps`, with a per-flow rate
/// ceiling of `internode_cap` on inter-node hops (the effective NCCL
/// efficiency of the issuing engine, see [`crate::ring_route`];
/// `f64::INFINITY` leaves the wires as the only limit).
///
/// The schedule follows the buffer: hierarchical for a group spanning
/// nodes with equal rank counts once a rank's chunk reaches 30 MB,
/// otherwise a flat ring, coalesced below 8 MB chunks. Every schedule
/// moves the ring's closed form in total, `n · bytes_sent_per_rank(n, S)`
/// over a group of `n` ranks; the schedules differ in which links carry
/// the bytes.
///
/// Tracks in the span log are the GPU resource indices of the ranks; spans
/// are labelled with the collective name (matching the NCCL kernel names
/// the paper's nsys timelines show).
///
/// # Panics
/// Panics if `bytes` is not positive and finite.
pub fn emit_collective(
    dag: &mut DagBuilder,
    cluster: &Cluster,
    group: &CommGroup,
    kind: CollectiveKind,
    bytes: f64,
    deps: &[TaskId],
    internode_cap: f64,
) -> CollectiveHandle {
    if uses_hierarchical_schedule(group, bytes) {
        return emit_collective_hierarchical(dag, cluster, group, kind, bytes, deps, internode_cap);
    }
    let n = group.len().max(1) as f64;
    if bytes / n < COALESCE_BELOW_CHUNK {
        emit_collective_coalesced(dag, cluster, group, kind, bytes, deps, internode_cap)
    } else {
        emit_collective_stepwise(dag, cluster, group, kind, bytes, deps, internode_cap)
    }
}

/// Below ~8 MB per rank-chunk the ring is latency-bound and the
/// step-accurate expansion buys nothing; coalesce to keep DAGs small.
const COALESCE_BELOW_CHUNK: f64 = 8e6;

/// Above ~30 MB per rank-chunk, multi-node NCCL switches to the
/// hierarchical (intra-node ring + inter-node exchange) schedule that
/// crosses RoCE with S/2–S bytes instead of the flat ring's 1.75 S.
/// DDP's ~25 MB gradient buckets and Megatron's small activation
/// all-reduces stay on flat rings; ZeRO's whole-model-state collectives
/// go hierarchical.
const HIERARCHICAL_MIN_CHUNK: f64 = 30e6;

/// True when [`emit_collective`] picks the hierarchical (intra-node +
/// inter-node exchange) schedule for this collective.
fn uses_hierarchical_schedule(group: &CommGroup, bytes: f64) -> bool {
    let n = group.len().max(1) as f64;
    group.splits_into_equal_nodes() && bytes / n >= HIERARCHICAL_MIN_CHUNK
}

/// Two-level schedule for groups spanning nodes (the NCCL production
/// schedule on this topology): node-local ring phases over NVLink plus an
/// inter-node exchange over RoCE between corresponding ranks. For two
/// nodes the exchange is pairwise; for more, each rank-index column runs
/// a ring across the nodes.
///
/// Inter-node wire volume per node per direction: `S` for all-reduce,
/// `S/2` for all-gather and reduce-scatter on two nodes — matching the
/// RoCE averages of Table IV far better than a flat 8-rank ring (1.75 S)
/// would.
///
/// # Panics
/// Panics if `bytes` is not positive/finite or if the group's nodes do
/// not contribute equal rank counts.
pub fn emit_collective_hierarchical(
    dag: &mut DagBuilder,
    cluster: &Cluster,
    group: &CommGroup,
    kind: CollectiveKind,
    bytes: f64,
    deps: &[TaskId],
    internode_cap: f64,
) -> CollectiveHandle {
    assert!(
        bytes.is_finite() && bytes > 0.0,
        "collective size must be positive (got {bytes})"
    );
    let parts = group.node_partition();
    assert!(
        parts.len() >= 2 && parts.iter().all(|p| p.len() == parts[0].len()),
        "hierarchical schedule needs equal ranks per node"
    );
    let g = parts[0].len();
    let node_groups: Vec<CommGroup> = parts.iter().cloned().map(CommGroup::new).collect();
    // Cross-node "columns": one rank per node at the same local index.
    let columns: Vec<Vec<zerosim_hw::GpuId>> = (0..g)
        .map(|t| parts.iter().map(|p| p[t]).collect())
        .collect();

    // Inter-node exchange of `per_rank` bytes per column. Two nodes:
    // pairwise both ways; more nodes: a ring per column.
    let exchange = |dag: &mut DagBuilder,
                    per_rank: f64,
                    ring_kind: CollectiveKind,
                    label: &'static str,
                    deps: &[TaskId]|
     -> TaskId {
        if parts.len() == 2 {
            let mut tasks = Vec::with_capacity(2 * g);
            for col in &columns {
                let (a, b) = (col[0], col[1]);
                for (src, dst) in [(a, b), (b, a)] {
                    // NCCL's NIC assignment is not fully NUMA-aware on
                    // this topology: half the exchange flows take the
                    // neighbouring socket's NIC, producing the xGMI
                    // traffic the paper reports for dual-node ZeRO
                    // (Sec. IV-E2).
                    let natural = cluster.gpu_socket(src).socket;
                    let nic = if src.gpu % 2 == 0 {
                        natural
                    } else {
                        1 - natural
                    };
                    let mut route = cluster.route_internode_gpu(src, dst, nic, nic);
                    route.cap = route.cap.min(internode_cap);
                    // Resource ids are small (one per GPU on the cluster).
                    #[allow(clippy::cast_possible_truncation)]
                    let track = cluster.gpu_resource(src).0 as u32;
                    let t = dag.transfer_capped(
                        route.links(),
                        per_rank.max(1.0),
                        route.latency,
                        route.cap,
                        label,
                        track,
                        deps,
                    );
                    tasks.push(t);
                }
            }
            dag.marker(&tasks)
        } else {
            // Column buffer size: each node contributes one shard of its
            // node-local result, so the column collective always operates
            // on `bytes / g` total — for all-reduce each rank already
            // holds the full S/g shard, for all-gather/reduce-scatter the
            // per-node shards (S/n each) concatenate to the same S/g.
            let col_size = match ring_kind {
                CollectiveKind::AllReduce => per_rank,
                _ => per_rank * parts.len() as f64,
            };
            let mut dones = Vec::with_capacity(g);
            for col in &columns {
                let col_group = CommGroup::new(col.clone());
                // One rank per node: stays on the flat (coalesced) path.
                let h = emit_collective_coalesced(
                    dag,
                    cluster,
                    &col_group,
                    ring_kind,
                    col_size,
                    deps,
                    internode_cap,
                );
                dones.push(h.done);
            }
            dag.marker(&dones)
        }
    };

    let intra = |dag: &mut DagBuilder, k: CollectiveKind, b: f64, deps: &[TaskId]| -> TaskId {
        let dones: Vec<TaskId> = node_groups
            .iter()
            .map(|ng| emit_collective(dag, cluster, ng, k, b, deps, internode_cap).done)
            .collect();
        dag.marker(&dones)
    };

    let done = match kind {
        CollectiveKind::AllReduce => {
            let rs = intra(dag, CollectiveKind::ReduceScatter, bytes, deps);
            let ex = exchange(
                dag,
                bytes / g as f64,
                CollectiveKind::AllReduce,
                "allreduce",
                &[rs],
            );
            intra(dag, CollectiveKind::AllGather, bytes, &[ex])
        }
        CollectiveKind::AllGather => {
            let n = (g * parts.len()) as f64;
            let ex = exchange(dag, bytes / n, CollectiveKind::AllGather, "allgather", deps);
            intra(dag, CollectiveKind::AllGather, bytes, &[ex])
        }
        CollectiveKind::ReduceScatter => {
            let n = (g * parts.len()) as f64;
            let rs = intra(dag, CollectiveKind::ReduceScatter, bytes, deps);
            exchange(
                dag,
                bytes / n,
                CollectiveKind::ReduceScatter,
                "reducescatter",
                &[rs],
            )
        }
    };
    CollectiveHandle { done }
}

/// Step-accurate ring expansion: `steps` barrier-separated phases of one
/// chunk flow per rank. Highest fidelity; O(steps · ranks) tasks.
pub fn emit_collective_stepwise(
    dag: &mut DagBuilder,
    cluster: &Cluster,
    group: &CommGroup,
    kind: CollectiveKind,
    bytes: f64,
    deps: &[TaskId],
    internode_cap: f64,
) -> CollectiveHandle {
    assert!(
        bytes.is_finite() && bytes > 0.0,
        "collective size must be positive (got {bytes})"
    );
    let order = group.ring_order();
    let n = order.len();
    if n <= 1 {
        return CollectiveHandle {
            done: dag.marker(deps),
        };
    }

    let rings = group.ring_count();
    let steps = kind.steps(n);
    let chunk = (bytes / (n as f64) / rings as f64).max(1.0);
    let label = kind.label();

    // Each step waits on the previous step's barrier (the first on
    // `deps`); one buffer collects every step's transfers.
    let mut barrier: Option<TaskId> = None;
    let mut step_tasks = Vec::with_capacity(n * rings);
    for _ in 0..steps {
        let frontier = barrier.as_ref().map_or(deps, std::slice::from_ref);
        step_tasks.clear();
        for ring in 0..rings {
            for (i, &src) in order.iter().enumerate() {
                let dst = order[(i + 1) % n];
                let route = ring_route(cluster, src, dst, ring, internode_cap);
                // Resource ids are small (one per GPU on the cluster).
                #[allow(clippy::cast_possible_truncation)]
                let track = cluster.gpu_resource(src).0 as u32;
                let t = dag.transfer_capped(
                    route.links(),
                    chunk,
                    route.latency,
                    route.cap,
                    label,
                    track,
                    frontier,
                );
                step_tasks.push(t);
            }
        }
        // Barrier between ring steps.
        barrier = Some(dag.marker(&step_tasks));
    }

    CollectiveHandle {
        done: barrier.expect("a multi-rank ring takes at least one step"),
    }
}

/// Coalesced ring approximation: one aggregate flow per (rank, ring)
/// carrying that rank's total wire volume, with the pipeline depth folded
/// into the flow's startup latency (`steps × hop latency`). Same volumes
/// and the same bottleneck links as the stepwise form, O(ranks) tasks.
///
/// # Panics
/// Same conditions as [`emit_collective_stepwise`].
pub fn emit_collective_coalesced(
    dag: &mut DagBuilder,
    cluster: &Cluster,
    group: &CommGroup,
    kind: CollectiveKind,
    bytes: f64,
    deps: &[TaskId],
    internode_cap: f64,
) -> CollectiveHandle {
    assert!(
        bytes.is_finite() && bytes > 0.0,
        "collective size must be positive (got {bytes})"
    );
    let order = group.ring_order();
    let n = order.len();
    if n <= 1 {
        return CollectiveHandle {
            done: dag.marker(deps),
        };
    }
    let rings = group.ring_count();
    let steps = kind.steps(n) as u64;
    let volume = (kind.bytes_sent_per_rank(n, bytes) / rings as f64).max(1.0);
    let label = kind.label();
    let mut tasks = Vec::with_capacity(n * rings);
    for ring in 0..rings {
        for (i, &src) in order.iter().enumerate() {
            let dst = order[(i + 1) % n];
            let route = ring_route(cluster, src, dst, ring, internode_cap);
            // Resource ids are small (one per GPU on the cluster).
            #[allow(clippy::cast_possible_truncation)]
            let track = cluster.gpu_resource(src).0 as u32;
            let t = dag.transfer_capped(
                route.links(),
                volume,
                route.latency * steps,
                route.cap,
                label,
                track,
                deps,
            );
            tasks.push(t);
        }
    }
    CollectiveHandle {
        done: dag.marker(&tasks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::{ClusterSpec, GpuId};
    use zerosim_simkit::{DagEngine, SimTime as T};

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::default()).unwrap()
    }

    fn single_node_group(c: &Cluster) -> CommGroup {
        CommGroup::new(c.node_gpus(0))
    }

    #[test]
    fn step_counts() {
        let ar = CollectiveKind::AllReduce;
        assert_eq!(ar.steps(4), 6);
        assert_eq!(ar.steps(1), 0);
        assert_eq!(CollectiveKind::AllGather.steps(8), 7);
        assert_eq!(CollectiveKind::ReduceScatter.steps(4), 3);
    }

    #[test]
    fn allreduce_volume_is_2_frac() {
        let k = CollectiveKind::AllReduce;
        let v = k.bytes_sent_per_rank(4, 100.0);
        assert!((v - 150.0).abs() < 1e-9);
        assert_eq!(k.bytes_sent_per_rank(1, 100.0), 0.0);
    }

    #[test]
    fn zero3_extra_volume_is_half() {
        // ZeRO-3 swaps DDP's all-reduce (2·frac) for an all-gather +
        // reduce-scatter in fwd/bwd plus another all-gather: 3·frac —
        // the paper's "50% increase in communication volume".
        let n = 4;
        let s = 100.0;
        let ddp = CollectiveKind::AllReduce.bytes_sent_per_rank(n, s);
        let z3 = CollectiveKind::AllGather.bytes_sent_per_rank(n, s) * 2.0
            + CollectiveKind::ReduceScatter.bytes_sent_per_rank(n, s);
        assert!((z3 / ddp - 1.5).abs() < 1e-9);
    }

    #[test]
    fn coalesced_and_stepwise_agree_on_volume() {
        let c = cluster();
        let g = single_node_group(&c);
        for kind in [
            CollectiveKind::AllReduce,
            CollectiveKind::AllGather,
            CollectiveKind::ReduceScatter,
        ] {
            let mut b1 = DagBuilder::new();
            emit_collective_stepwise(&mut b1, &c, &g, kind, 64e6, &[], f64::INFINITY);
            let mut b2 = DagBuilder::new();
            emit_collective_coalesced(&mut b2, &c, &g, kind, 64e6, &[], f64::INFINITY);
            let v1 = b1.build().total_transfer_bytes();
            let v2 = b2.build().total_transfer_bytes();
            assert!(
                (v1 - v2).abs() < 1.0,
                "{kind:?}: stepwise {v1} vs coalesced {v2}"
            );
        }
    }

    #[test]
    fn auto_dispatch_coalesces_small_collectives() {
        let c = cluster();
        let g = single_node_group(&c);
        let mut small = DagBuilder::new();
        emit_collective(
            &mut small,
            &c,
            &g,
            CollectiveKind::AllReduce,
            4e6,
            &[],
            f64::INFINITY,
        );
        let mut big = DagBuilder::new();
        emit_collective(
            &mut big,
            &c,
            &g,
            CollectiveKind::AllReduce,
            400e6,
            &[],
            f64::INFINITY,
        );
        // Coalesced: 4 flows + 1 marker; stepwise: 6 steps × (4 flows + marker).
        assert!(small.len() < 8, "small collective should coalesce");
        assert!(big.len() > 20, "large collective should stay stepwise");
    }

    #[test]
    fn emitted_allreduce_moves_right_bytes() {
        let mut c = cluster();
        let g = single_node_group(&c);
        let mut b = DagBuilder::new();
        emit_collective_stepwise(
            &mut b,
            &c,
            &g,
            CollectiveKind::AllReduce,
            4e6,
            &[],
            f64::INFINITY,
        );
        let dag = b.build();
        // 6 steps × 4 flows of 1 MB chunks.
        assert!((dag.total_transfer_bytes() - 24e6).abs() < 1.0);
        let slots = c.resource_slots();
        let mut eng = DagEngine::new(slots);
        let out = eng.run(c.net_mut(), &dag, T::ZERO, None).unwrap();
        assert!(out.makespan() > T::ZERO);
    }

    #[test]
    fn single_rank_collective_is_noop() {
        let mut c = cluster();
        let g = CommGroup::new(vec![GpuId { node: 0, gpu: 0 }]);
        let mut b = DagBuilder::new();
        emit_collective(
            &mut b,
            &c,
            &g,
            CollectiveKind::AllReduce,
            1e6,
            &[],
            f64::INFINITY,
        );
        let dag = b.build();
        assert_eq!(dag.total_transfer_bytes(), 0.0);
        let mut eng = DagEngine::new(c.resource_slots());
        let out = eng.run(c.net_mut(), &dag, T::ZERO, None).unwrap();
        assert_eq!(out.makespan(), T::ZERO);
    }

    #[test]
    fn internode_collective_uses_both_nics() {
        let mut c = cluster();
        let g = CommGroup::world(&c);
        let mut b = DagBuilder::new();
        emit_collective(
            &mut b,
            &c,
            &g,
            CollectiveKind::AllReduce,
            8e6,
            &[],
            f64::INFINITY,
        );
        let dag = b.build();
        let mut rec = zerosim_simkit::BandwidthRecorder::new(T::from_ms(1.0));
        let mut eng = DagEngine::new(c.resource_slots());
        eng.run(c.net_mut(), &dag, T::ZERO, Some(&mut rec)).unwrap();
        // Both nodes' RoCE links must have carried traffic.
        for node in 0..2 {
            let roce: f64 = c
                .links(node, zerosim_hw::LinkClass::Roce)
                .iter()
                .map(|l| rec.total_bytes(*l))
                .sum();
            assert!(roce > 0.0, "node {node} RoCE unused");
        }
        // And NVLink should dominate RoCE in byte count (intra-node hops
        // are 3 of every 4 ring edges).
        let nvl: f64 = c
            .links(0, zerosim_hw::LinkClass::NvLink)
            .iter()
            .map(|l| rec.total_bytes(*l))
            .sum();
        let roce: f64 = c
            .links(0, zerosim_hw::LinkClass::Roce)
            .iter()
            .map(|l| rec.total_bytes(*l))
            .sum();
        assert!(nvl > roce);
    }

    #[test]
    fn allreduce_time_scales_with_bytes() {
        let mut c = cluster();
        let g = single_node_group(&c);
        let mut time_for = |bytes: f64| {
            let mut b = DagBuilder::new();
            emit_collective(
                &mut b,
                &c,
                &g,
                CollectiveKind::AllReduce,
                bytes,
                &[],
                f64::INFINITY,
            );
            let dag = b.build();
            let mut eng = DagEngine::new(c.resource_slots());
            eng.run(c.net_mut(), &dag, T::ZERO, None)
                .unwrap()
                .makespan()
                .as_secs()
        };
        let t1 = time_for(100e6);
        let t2 = time_for(200e6);
        assert!(t2 > 1.5 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bytes_panics() {
        let mut b = DagBuilder::new();
        let c = cluster();
        let g = single_node_group(&c);
        emit_collective(
            &mut b,
            &c,
            &g,
            CollectiveKind::AllReduce,
            0.0,
            &[],
            f64::INFINITY,
        );
    }
}
