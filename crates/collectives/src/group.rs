//! Communication groups and topology-aware ring construction.

use zerosim_hw::{Cluster, GpuId, Route};

/// An ordered set of GPU ranks participating in a collective.
///
/// The group keeps its ranks twice: in user order and in NCCL's node-major
/// ring order, sorted once at construction so that the per-collective
/// queries (the emitters' ring order, [`CommGroup::splits_into_equal_nodes`],
/// [`CommGroup::node_count`]) allocate nothing. Which rings a collective
/// builds, and over which NICs, is the emitters' decision alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommGroup {
    ranks: Vec<GpuId>,
    /// The ranks sorted by (node, GPU index).
    ring: Vec<GpuId>,
}

impl CommGroup {
    /// Creates a group from the given ranks.
    ///
    /// # Panics
    /// Panics on an empty rank list or duplicate ranks.
    pub fn new(ranks: Vec<GpuId>) -> Self {
        assert!(!ranks.is_empty(), "a communication group needs ranks");
        let mut ring = ranks.clone();
        // `GpuId` orders by (node, gpu): exactly the ring order.
        ring.sort_unstable();
        assert!(
            ring.windows(2).all(|w| w[0] != w[1]),
            "duplicate ranks in group"
        );
        CommGroup { ranks, ring }
    }

    /// All GPUs of the cluster, in NCCL's node-major ring order.
    pub fn world(cluster: &Cluster) -> Self {
        CommGroup::new(cluster.all_gpus())
    }

    /// The ranks in ring order (node-major, GPU index within node), which
    /// minimizes inter-node hops exactly as NCCL's ring search does on this
    /// topology.
    pub(crate) fn ring_order(&self) -> &[GpuId] {
        &self.ring
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True for a single-rank group (collectives degenerate to no-ops).
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The ranks in user order.
    pub fn ranks(&self) -> &[GpuId] {
        &self.ranks
    }

    /// True when all ranks live on one node.
    pub fn is_single_node(&self) -> bool {
        let n = self.ranks[0].node;
        self.ranks.iter().all(|g| g.node == n)
    }

    /// Number of parallel rings to build: one per NIC (two) when the group
    /// spans nodes, otherwise one (NVLink rings are already full-bandwidth
    /// per GPU pair in this model).
    pub(crate) fn ring_count(&self) -> usize {
        if self.is_single_node() {
            1
        } else {
            2
        }
    }

    /// The ranks of each node, node-ascending, as runs of the ring order.
    fn node_runs(&self) -> impl Iterator<Item = &[GpuId]> {
        self.ring.chunk_by(|a, b| a.node == b.node)
    }

    /// Number of distinct nodes the group spans.
    pub fn node_count(&self) -> usize {
        self.node_runs().count()
    }

    /// True when the group spans two or more nodes, each contributing the
    /// same rank count — the precondition of the hierarchical collective
    /// schedule.
    pub fn splits_into_equal_nodes(&self) -> bool {
        let nodes = self.node_count();
        nodes >= 2 && self.node_runs().all(|r| r.len() * nodes == self.ring.len())
    }

    /// The ranks grouped by node, node-ascending, each sorted by GPU index.
    pub fn node_partition(&self) -> Vec<Vec<GpuId>> {
        self.node_runs().map(<[GpuId]>::to_vec).collect()
    }
}

/// The route a ring step takes from `a` to its ring successor `b`,
/// using NIC `ring` on both sides for inter-node hops. Inter-node hops are
/// additionally limited to `internode_cap` bytes/second per flow — pass
/// `f64::INFINITY` for raw RDMA-grade efficiency (large-bucket NCCL rings,
/// as plain PyTorch DDP achieves) or a lower value for the partitioned
/// small-bucket traffic DeepSpeed's ZeRO engine issues.
pub(crate) fn ring_route(
    cluster: &Cluster,
    a: GpuId,
    b: GpuId,
    ring: usize,
    internode_cap: f64,
) -> Route {
    if a.node == b.node {
        cluster.route(zerosim_hw::MemLoc::Gpu(a), zerosim_hw::MemLoc::Gpu(b))
    } else {
        let mut r = cluster.route_internode_gpu(a, b, ring, ring);
        r.cap = r.cap.min(internode_cap);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::default()).unwrap()
    }

    #[test]
    fn world_group_is_node_major() {
        let c = cluster();
        let g = CommGroup::world(&c);
        assert_eq!(g.len(), 8);
        let order = g.ring_order();
        assert_eq!(order[0], GpuId { node: 0, gpu: 0 });
        assert_eq!(order[3], GpuId { node: 0, gpu: 3 });
        assert_eq!(order[4], GpuId { node: 1, gpu: 0 });
        assert!(!g.is_single_node());
        assert_eq!(g.ring_count(), 2);
    }

    #[test]
    fn single_node_group() {
        let c = cluster();
        let g = CommGroup::new(c.node_gpus(0));
        assert!(g.is_single_node());
        assert_eq!(g.ring_count(), 1);
    }

    #[test]
    fn ring_route_intra_vs_inter() {
        let c = cluster();
        let intra = ring_route(
            &c,
            GpuId { node: 0, gpu: 0 },
            GpuId { node: 0, gpu: 1 },
            0,
            f64::INFINITY,
        );
        assert_eq!(intra.hops(), 1);
        let inter = ring_route(
            &c,
            GpuId { node: 0, gpu: 3 },
            GpuId { node: 1, gpu: 0 },
            0,
            4.0e9,
        );
        assert_eq!(inter.cap, 4.0e9);
        assert!(inter.hops() > 4);
    }

    #[test]
    fn node_shape_queries_follow_ring_order() {
        let g = |node, gpu| GpuId { node, gpu };
        let even = CommGroup::new(vec![g(1, 1), g(0, 2), g(1, 0), g(0, 0)]);
        assert_eq!(even.ring_order(), &[g(0, 0), g(0, 2), g(1, 0), g(1, 1)]);
        assert_eq!(even.node_count(), 2);
        assert!(even.splits_into_equal_nodes());
        assert_eq!(
            even.node_partition(),
            vec![vec![g(0, 0), g(0, 2)], vec![g(1, 0), g(1, 1)]]
        );
        let uneven = CommGroup::new(vec![g(0, 0), g(0, 1), g(2, 3)]);
        assert_eq!(uneven.node_count(), 2);
        assert!(!uneven.splits_into_equal_nodes());
        let one_node = CommGroup::new(vec![g(3, 1), g(3, 0)]);
        assert_eq!(one_node.node_count(), 1);
        assert!(!one_node.splits_into_equal_nodes());
    }

    #[test]
    #[should_panic(expected = "duplicate ranks")]
    fn duplicate_ranks_panic() {
        let g = GpuId { node: 0, gpu: 0 };
        CommGroup::new(vec![g, g]);
    }
}
