//! Cluster specification: every capacity, latency, and layout knob, with
//! defaults set to the paper's testbed (Tables II and III).

use std::fmt;

/// Per-direction (or, for DRAM, half-duplex aggregate) link bandwidths in
/// bytes/second.
///
/// Defaults follow Table III of the paper:
/// * DRAM: 8 channels × 25.6 GBps per socket, half-duplex → 204.8 GBps;
/// * xGMI: 3 links × 36 GBps per direction → 108 GBps per direction;
/// * PCIe 4.0 x16 (GPU, NIC): 32 GBps per direction;
/// * PCIe 4.0 x4 (NVMe): 8 GBps per direction;
/// * NVLink 3.0: 4 links × 25 GBps per direction per GPU pair → 100 GBps;
/// * RoCE: 200 Gbps per direction per NIC, derated to the 93% the paper's
///   same-socket stress test attains (protocol + PFC overhead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBandwidths {
    /// Half-duplex aggregate DRAM bandwidth per socket.
    pub dram_socket: f64,
    /// Per-direction aggregate xGMI bandwidth between the two sockets.
    pub xgmi_dir: f64,
    /// Per-direction PCIe bandwidth per GPU.
    pub pcie_gpu_dir: f64,
    /// Per-direction PCIe bandwidth per NIC.
    pub pcie_nic_dir: f64,
    /// Per-direction PCIe bandwidth per NVMe drive slot.
    pub pcie_nvme_dir: f64,
    /// Per-direction NVLink bandwidth per ordered GPU pair.
    pub nvlink_pair_dir: f64,
    /// Per-direction attainable RoCE bandwidth per NIC.
    pub roce_dir: f64,
}

impl Default for LinkBandwidths {
    fn default() -> Self {
        LinkBandwidths {
            dram_socket: 204.8e9,
            xgmi_dir: 108e9,
            pcie_gpu_dir: 32e9,
            pcie_nic_dir: 32e9,
            pcie_nvme_dir: 8e9,
            nvlink_pair_dir: 100e9,
            roce_dir: 0.93 * 25e9,
        }
    }
}

/// The EPYC I/O-die SerDes-pair contention model (Sec. III-C4).
///
/// Traffic whose route enters and leaves a socket's IOD through two SerDes
/// sets shares a virtual *pair link* (one per unordered pair of sets, both
/// directions pooled). The three class capacities are calibrated so the
/// paper's four stress-test outcomes are reproduced exactly:
///
/// | scenario | pairs crossed | attained |
/// |---|---|---|
/// | same-socket CPU-RoCE | none (DRAM is not a SerDes set) | 93% |
/// | same-socket GPU-RoCE | (PCIe-GPU, PCIe-NIC) @13 GBps ×2 GPUs | 52% |
/// | cross-socket CPU-RoCE | (xGMI, PCIe-NIC) @23.5 GBps | 47% |
/// | cross-socket GPU-RoCE | (PCIe-GPU, xGMI) @10.5 GBps ×2 GPUs | 42% |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IodModel {
    /// Pair capacity when both sets are PCIe (bytes/second, bidirectional
    /// pooled).
    pub pcie_pcie: f64,
    /// Pair capacity between a GPU PCIe set and the xGMI sets.
    pub pcie_gpu_xgmi: f64,
    /// Pair capacity between the xGMI sets and a NIC/NVMe PCIe set.
    pub xgmi_pcie_io: f64,
    /// Extra one-way latency added per pair crossing, seconds. Dominates
    /// the 7× small-message latency gap between same- and cross-socket
    /// RoCE (Fig. 3).
    pub crossing_latency_s: f64,
}

impl Default for IodModel {
    fn default() -> Self {
        IodModel {
            pcie_pcie: 13.0e9,
            pcie_gpu_xgmi: 10.5e9,
            xgmi_pcie_io: 23.5e9,
            crossing_latency_s: 10e-6,
        }
    }
}

/// First-order NVMe device model (Intel D7-P5600-class, Sec. V-B3).
///
/// Writes land in an on-drive DRAM cache at the burst rate until the cache
/// fills, then drop to the NAND sustained rate; reads stream from NAND.
/// Both directions are modelled as token-bucket links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmeDeviceModel {
    /// DRAM cache capacity absorbing write bursts, bytes.
    pub cache_bytes: f64,
    /// Burst service rate (cache-hit), bytes/second.
    pub burst: f64,
    /// Sustained NAND write rate, bytes/second.
    pub sustained_write: f64,
    /// Sustained NAND read rate, bytes/second.
    pub sustained_read: f64,
    /// Per-request latency, seconds.
    pub latency_s: f64,
}

impl Default for NvmeDeviceModel {
    fn default() -> Self {
        NvmeDeviceModel {
            cache_bytes: 1.2e9,
            burst: 6.8e9,
            sustained_write: 2.2e9,
            sustained_read: 4.2e9,
            latency_s: 30e-6,
        }
    }
}

/// Startup latencies for the fixed interconnects, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// GPU↔GPU NVLink hop.
    pub nvlink_s: f64,
    /// PCIe hop (GPU/NIC/NVMe ↔ CPU root complex).
    pub pcie_s: f64,
    /// xGMI hop between sockets.
    pub xgmi_s: f64,
    /// RoCE NIC-to-NIC (through the SN3700 switch), one way.
    pub roce_s: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            nvlink_s: 1.8e-6,
            pcie_s: 0.7e-6,
            xgmi_s: 0.6e-6,
            roce_s: 1.9e-6,
        }
    }
}

/// Memory tier capacities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryCapacities {
    /// HBM per GPU, bytes (A100 SXM4 40 GB).
    pub gpu_bytes: f64,
    /// DRAM per node, bytes (16 × 64 GB).
    pub cpu_bytes_per_node: f64,
    /// Capacity per scratch NVMe drive, bytes (3.2 TB).
    pub nvme_bytes_per_drive: f64,
}

impl Default for MemoryCapacities {
    fn default() -> Self {
        MemoryCapacities {
            gpu_bytes: 40e9,
            cpu_bytes_per_node: 1024e9,
            nvme_bytes_per_drive: 3.2e12,
        }
    }
}

/// Placement of one scratch NVMe drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmeDrivePlacement {
    /// Socket the drive's PCIe lanes terminate on.
    pub socket: usize,
}

/// One aggregation tier of the inter-node fabric.
///
/// A tier partitions the nodes into contiguous groups of
/// `nodes_per_group`; traffic between nodes in *different* groups at this
/// tier traverses the source group's shared uplink and the destination
/// group's shared downlink (each an aggregate of `up_bytes_per_s` per
/// direction). Tiers nest: group sizes must be non-descending and each
/// tier's size a multiple of the previous tier's (equal sizes model two
/// stacked aggregates over the same partition, e.g. a pod uplink under a
/// two-pod spine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricTier {
    /// Nodes per group at this tier (contiguous node ranges).
    pub nodes_per_group: usize,
    /// Aggregate uplink capacity per group per direction, bytes/second.
    pub up_bytes_per_s: f64,
    /// Extra one-way latency per crossing of this tier, seconds.
    pub latency_s: f64,
}

/// The inter-node switching fabric above the per-NIC RoCE uplinks.
///
/// An empty tier list models the paper's testbed: every NIC plugs into one
/// non-blocking switch (the SN3700), so inter-node routes consist of the
/// two RoCE wires only. Generated topologies (see `TopologySpec`) add one
/// tier per oversubscribed aggregation level.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FabricSpec {
    /// Aggregation tiers, leaf-most first.
    pub tiers: Vec<FabricTier>,
}

impl FabricSpec {
    /// Most aggregation tiers a fabric may have. Every in-tree topology
    /// uses at most 2; the limit sizes [`crate::Route`]'s inline link
    /// storage.
    pub const MAX_TIERS: usize = 4;

    /// True when no aggregation tier is modeled (paper-style flat switch).
    pub fn is_flat(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Group index of `node` at `tier`.
    pub fn group_of(&self, node: usize, tier: usize) -> usize {
        node / self.tiers[tier].nodes_per_group
    }

    /// Number of groups at `tier` for a cluster of `nodes` nodes.
    pub fn groups_at(&self, nodes: usize, tier: usize) -> usize {
        nodes / self.tiers[tier].nodes_per_group
    }

    /// Highest tier at which `a` and `b` fall into different groups, or
    /// `None` when they share the leaf switch (traffic between them uses
    /// no fabric aggregate).
    pub fn crossing_tier(&self, a: usize, b: usize) -> Option<usize> {
        (0..self.tiers.len())
            .rev()
            .find(|&t| self.group_of(a, t) != self.group_of(b, t))
    }

    /// Validates the tier count, nesting and capacities against a node
    /// count.
    ///
    /// # Errors
    /// The first problem found, as a [`FabricError`].
    pub fn validate(&self, nodes: usize) -> Result<(), FabricError> {
        if self.tiers.len() > Self::MAX_TIERS {
            return Err(FabricError::TooManyTiers {
                tiers: self.tiers.len(),
            });
        }
        let mut prev = 1usize;
        for (t, tier) in self.tiers.iter().enumerate() {
            let size = tier.nodes_per_group;
            if size < 2 {
                return Err(FabricError::GroupTooSmall { tier: t, size });
            }
            if t > 0 && (size < prev || !size.is_multiple_of(prev)) {
                return Err(FabricError::NotNested {
                    tier: t,
                    size,
                    prev,
                });
            }
            if !nodes.is_multiple_of(size) {
                return Err(FabricError::NotDividing {
                    tier: t,
                    size,
                    nodes,
                });
            }
            if !tier.up_bytes_per_s.is_finite() || tier.up_bytes_per_s <= 0.0 {
                return Err(FabricError::BadUplink { tier: t });
            }
            if !tier.latency_s.is_finite() || tier.latency_s < 0.0 {
                return Err(FabricError::BadLatency { tier: t });
            }
            prev = size;
        }
        Ok(())
    }
}

/// Why [`FabricSpec::validate`] rejects a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FabricError {
    /// More tiers than [`FabricSpec::MAX_TIERS`]: a route crossing them
    /// all would not fit a [`crate::Route`].
    TooManyTiers {
        /// Tiers in the spec.
        tiers: usize,
    },
    /// A tier's groups hold fewer than 2 nodes.
    GroupTooSmall {
        /// Tier index, leaf-most first.
        tier: usize,
        /// Nodes per group.
        size: usize,
    },
    /// A tier's group size is not a multiple of the tier below it.
    NotNested {
        /// Tier index.
        tier: usize,
        /// Nodes per group.
        size: usize,
        /// The previous tier's nodes per group.
        prev: usize,
    },
    /// A tier's group size does not divide the node count.
    NotDividing {
        /// Tier index.
        tier: usize,
        /// Nodes per group.
        size: usize,
        /// Nodes in the cluster.
        nodes: usize,
    },
    /// A tier's uplink capacity is not finite and positive.
    BadUplink {
        /// Tier index.
        tier: usize,
    },
    /// A tier's latency is not finite and non-negative.
    BadLatency {
        /// Tier index.
        tier: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FabricError::TooManyTiers { tiers } => write!(
                f,
                "fabric has {tiers} tiers; at most {} are supported",
                FabricSpec::MAX_TIERS
            ),
            FabricError::GroupTooSmall { tier, size } => write!(
                f,
                "fabric tier {tier}: groups need at least 2 nodes (got {size})"
            ),
            FabricError::NotNested { tier, size, prev } => write!(
                f,
                "fabric tier {tier}: group size {size} must be a non-descending multiple of the previous tier's {prev}"
            ),
            FabricError::NotDividing { tier, size, nodes } => write!(
                f,
                "fabric tier {tier}: group size {size} does not divide {nodes} nodes"
            ),
            FabricError::BadUplink { tier } => write!(
                f,
                "fabric tier {tier}: uplink capacity must be finite and positive"
            ),
            FabricError::BadLatency { tier } => write!(
                f,
                "fabric tier {tier}: latency must be finite and non-negative"
            ),
        }
    }
}

impl std::error::Error for FabricError {}

/// Complete description of a cluster to simulate.
///
/// [`ClusterSpec::default`] is the paper's testbed: two XE8545 nodes, four
/// A100-40GB per node (two per socket), one ConnectX-6 per socket, and two
/// scratch NVMe drives on socket 1 (the mdadm RAID0 scratch volume of
/// Table II). Use the `with_*` methods to derive variants:
///
/// ```
/// use zerosim_hw::ClusterSpec;
/// let single = ClusterSpec::default().with_nodes(1);
/// assert_eq!(single.nodes, 1);
/// assert_eq!(single.gpus_per_node, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of compute nodes.
    pub nodes: usize,
    /// GPUs per node (split evenly across the two sockets).
    pub gpus_per_node: usize,
    /// Link capacities.
    pub bw: LinkBandwidths,
    /// I/O-die contention model.
    pub iod: IodModel,
    /// NVMe device behaviour.
    pub nvme_dev: NvmeDeviceModel,
    /// Scratch drive layout, identical on every node.
    pub nvme_layout: Vec<NvmeDrivePlacement>,
    /// Link startup latencies.
    pub lat: LatencyModel,
    /// Memory tier capacities.
    pub mem: MemoryCapacities,
    /// Inter-node switching fabric above the NIC uplinks (empty = the
    /// paper's single non-blocking switch).
    pub fabric: FabricSpec,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            nodes: 2,
            gpus_per_node: 4,
            bw: LinkBandwidths::default(),
            iod: IodModel::default(),
            nvme_dev: NvmeDeviceModel::default(),
            // Table II: two scratch D7-P5600 on CPU #1.
            nvme_layout: vec![
                NvmeDrivePlacement { socket: 1 },
                NvmeDrivePlacement { socket: 1 },
            ],
            lat: LatencyModel::default(),
            mem: MemoryCapacities::default(),
            fabric: FabricSpec::default(),
        }
    }
}

impl ClusterSpec {
    /// Number of sockets per node (fixed at two, as on the XE8545).
    pub const SOCKETS_PER_NODE: usize = 2;

    /// Returns a copy with a different node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Returns a copy with a different scratch-drive layout (applied to
    /// every node).
    pub fn with_nvme_layout(mut self, layout: Vec<NvmeDrivePlacement>) -> Self {
        self.nvme_layout = layout;
        self
    }

    /// Returns a copy with a different per-node GPU count (must stay a
    /// multiple of [`ClusterSpec::SOCKETS_PER_NODE`]).
    pub fn with_gpus_per_node(mut self, gpus_per_node: usize) -> Self {
        self.gpus_per_node = gpus_per_node;
        self
    }

    /// Returns a copy with a different inter-node fabric.
    pub fn with_fabric(mut self, fabric: FabricSpec) -> Self {
        self.fabric = fabric;
        self
    }

    /// GPUs per socket.
    pub fn gpus_per_socket(&self) -> usize {
        self.gpus_per_node / Self::SOCKETS_PER_NODE
    }

    /// Total GPUs in the cluster.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Total CPU sockets in the cluster.
    pub fn total_sockets(&self) -> usize {
        self.nodes * Self::SOCKETS_PER_NODE
    }

    /// Scratch NVMe capacity of one node: its drive count times the
    /// per-drive capacity, in bytes. The NVMe tier's fit check compares
    /// against it.
    pub fn nvme_bytes_per_node(&self) -> f64 {
        self.nvme_layout.len() as f64 * self.mem.nvme_bytes_per_drive
    }

    /// Validates internal consistency: the node layout, and every rate,
    /// latency and capacity [`crate::Cluster::new`] builds links from or
    /// the memory-fit check reads. A spec that passes builds without a
    /// panic.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster needs at least one node".into());
        }
        if self.gpus_per_node == 0 || !self.gpus_per_node.is_multiple_of(Self::SOCKETS_PER_NODE) {
            return Err(format!(
                "gpus_per_node must be a positive multiple of {} (got {})",
                Self::SOCKETS_PER_NODE,
                self.gpus_per_node
            ));
        }
        for (i, d) in self.nvme_layout.iter().enumerate() {
            if d.socket >= Self::SOCKETS_PER_NODE {
                return Err(format!(
                    "nvme drive {i} placed on unknown socket {}",
                    d.socket
                ));
            }
        }
        let (bw, iod, nvme, lat, mem) = (&self.bw, &self.iod, &self.nvme_dev, &self.lat, &self.mem);
        let positive = [
            ("bw.dram_socket", bw.dram_socket),
            ("bw.xgmi_dir", bw.xgmi_dir),
            ("bw.pcie_gpu_dir", bw.pcie_gpu_dir),
            ("bw.pcie_nic_dir", bw.pcie_nic_dir),
            ("bw.pcie_nvme_dir", bw.pcie_nvme_dir),
            ("bw.nvlink_pair_dir", bw.nvlink_pair_dir),
            ("bw.roce_dir", bw.roce_dir),
            ("iod.pcie_pcie", iod.pcie_pcie),
            ("iod.pcie_gpu_xgmi", iod.pcie_gpu_xgmi),
            ("iod.xgmi_pcie_io", iod.xgmi_pcie_io),
            ("nvme_dev.sustained_write", nvme.sustained_write),
            ("nvme_dev.sustained_read", nvme.sustained_read),
            ("mem.gpu_bytes", mem.gpu_bytes),
            ("mem.cpu_bytes_per_node", mem.cpu_bytes_per_node),
            ("mem.nvme_bytes_per_drive", mem.nvme_bytes_per_drive),
        ];
        if let Some((name, v)) = positive.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0)) {
            return Err(format!("{name} must be finite and positive (got {v})"));
        }
        let non_negative = [
            ("iod.crossing_latency_s", iod.crossing_latency_s),
            ("nvme_dev.cache_bytes", nvme.cache_bytes),
            ("nvme_dev.latency_s", nvme.latency_s),
            ("lat.nvlink_s", lat.nvlink_s),
            ("lat.pcie_s", lat.pcie_s),
            ("lat.xgmi_s", lat.xgmi_s),
            ("lat.roce_s", lat.roce_s),
        ];
        if let Some((name, v)) = non_negative
            .iter()
            .find(|(_, v)| !(v.is_finite() && *v >= 0.0))
        {
            return Err(format!("{name} must be finite and non-negative (got {v})"));
        }
        // Each drive's write and read token buckets serve at the burst
        // rate until its cache fills, then at a sustained rate.
        if !(nvme.burst.is_finite() && nvme.burst >= nvme.sustained_write.max(nvme.sustained_read))
        {
            return Err(format!(
                "nvme_dev.burst must be finite and at least both sustained rates (got {})",
                nvme.burst
            ));
        }
        self.fabric.validate(self.nodes).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let s = ClusterSpec::default();
        assert_eq!(s.nodes, 2);
        assert_eq!(s.gpus_per_node, 4);
        assert_eq!(s.gpus_per_socket(), 2);
        assert_eq!(s.total_gpus(), 8);
        assert_eq!(s.total_sockets(), 4);
        assert_eq!(s.nvme_layout.len(), 2);
        assert!(s.validate().is_ok());
        // Table III spot checks.
        assert_eq!(s.bw.pcie_gpu_dir, 32e9);
        assert_eq!(s.bw.pcie_nvme_dir, 8e9);
        assert_eq!(s.bw.nvlink_pair_dir, 100e9);
        assert_eq!(s.mem.gpu_bytes, 40e9);
    }

    #[test]
    fn with_nodes_builder() {
        let s = ClusterSpec::default().with_nodes(1);
        assert_eq!(s.nodes, 1);
        assert_eq!(s.total_gpus(), 4);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validation_rejects_bad_specs() {
        assert!(ClusterSpec::default().with_nodes(0).validate().is_err());
        let mut odd = ClusterSpec::default();
        odd.gpus_per_node = 3;
        assert!(odd.validate().is_err());
        let bad_drive =
            ClusterSpec::default().with_nvme_layout(vec![NvmeDrivePlacement { socket: 5 }]);
        assert!(bad_drive.validate().is_err());
    }

    /// One row per rate, latency and capacity `Cluster::new` or the fit
    /// check reads: each bad value is a typed error from both `validate`
    /// and `Cluster::new`, never a panic while the links are built.
    #[test]
    fn every_rate_latency_and_capacity_is_checked() {
        type Row = (&'static str, fn(&mut ClusterSpec));
        let rows: [Row; 24] = [
            ("NaN DRAM", |s| s.bw.dram_socket = f64::NAN),
            ("zero xGMI", |s| s.bw.xgmi_dir = 0.0),
            ("negative GPU PCIe", |s| s.bw.pcie_gpu_dir = -1.0),
            ("infinite NIC PCIe", |s| s.bw.pcie_nic_dir = f64::INFINITY),
            ("zero NVMe PCIe", |s| s.bw.pcie_nvme_dir = 0.0),
            ("NaN NVLink", |s| s.bw.nvlink_pair_dir = f64::NAN),
            ("negative RoCE", |s| s.bw.roce_dir = -1.0),
            ("NaN IOD PCIe pair", |s| s.iod.pcie_pcie = f64::NAN),
            ("zero IOD GPU-xGMI pair", |s| s.iod.pcie_gpu_xgmi = 0.0),
            ("negative IOD xGMI-I/O pair", |s| s.iod.xgmi_pcie_io = -1.0),
            ("NaN IOD crossing latency", |s| {
                s.iod.crossing_latency_s = f64::NAN
            }),
            ("negative NVMe cache", |s| s.nvme_dev.cache_bytes = -1.0),
            ("burst below sustained write", |s| s.nvme_dev.burst = 1e9),
            ("burst below sustained read", |s| s.nvme_dev.burst = 3e9),
            ("NaN NVMe burst", |s| s.nvme_dev.burst = f64::NAN),
            ("zero sustained write", |s| s.nvme_dev.sustained_write = 0.0),
            ("NaN sustained read", |s| {
                s.nvme_dev.sustained_read = f64::NAN
            }),
            ("negative NVMe latency", |s| s.nvme_dev.latency_s = -1e-6),
            ("NaN NVLink latency", |s| s.lat.nvlink_s = f64::NAN),
            ("negative PCIe latency", |s| s.lat.pcie_s = -1e-6),
            ("infinite xGMI latency", |s| s.lat.xgmi_s = f64::INFINITY),
            ("NaN RoCE latency", |s| s.lat.roce_s = f64::NAN),
            ("zero HBM", |s| s.mem.gpu_bytes = 0.0),
            ("NaN NVMe drive capacity", |s| {
                s.mem.nvme_bytes_per_drive = f64::NAN
            }),
        ];
        for (what, spoil) in rows {
            let mut spec = ClusterSpec::default();
            spoil(&mut spec);
            assert!(spec.validate().is_err(), "{what}");
            assert!(crate::Cluster::new(spec).is_err(), "{what}");
        }
        let mut dram = ClusterSpec::default();
        dram.mem.cpu_bytes_per_node = -1.0;
        let msg = dram.validate().unwrap_err();
        assert!(msg.contains("mem.cpu_bytes_per_node"), "{msg}");
        // A zero latency is legal: the ideal-IOD ablation uses one.
        let mut ideal = ClusterSpec::default();
        ideal.iod.crossing_latency_s = 0.0;
        assert!(ideal.validate().is_ok());
        assert_eq!(ClusterSpec::default().nvme_bytes_per_node(), 6.4e12);
    }

    #[test]
    fn fabric_validation() {
        let tier = |npg: usize, cap: f64| FabricTier {
            nodes_per_group: npg,
            up_bytes_per_s: cap,
            latency_s: 1e-6,
        };
        // Flat fabric is always fine.
        assert!(FabricSpec::default().validate(7).is_ok());
        // One tier of 4-node groups over 8 nodes.
        let f = FabricSpec {
            tiers: vec![tier(4, 100e9)],
        };
        assert!(f.validate(8).is_ok());
        assert_eq!(f.groups_at(8, 0), 2);
        assert_eq!(f.group_of(5, 0), 1);
        assert_eq!(f.crossing_tier(0, 3), None);
        assert_eq!(f.crossing_tier(0, 4), Some(0));
        // Nested tiers: crossing tier is the highest differing one.
        let two = FabricSpec {
            tiers: vec![tier(2, 50e9), tier(4, 80e9)],
        };
        assert!(two.validate(8).is_ok());
        assert_eq!(two.crossing_tier(0, 1), None);
        assert_eq!(two.crossing_tier(0, 2), Some(0));
        assert_eq!(two.crossing_tier(0, 4), Some(1));
        // Rejections: non-dividing, non-nesting, bad capacity.
        assert!(f.validate(6).is_err());
        let bad_nest = FabricSpec {
            tiers: vec![tier(4, 50e9), tier(6, 80e9)],
        };
        assert!(bad_nest.validate(12).is_err());
        let bad_cap = FabricSpec {
            tiers: vec![tier(2, -1.0)],
        };
        assert!(bad_cap.validate(4).is_err());
        // ClusterSpec validation picks fabric errors up.
        let spec = ClusterSpec::default()
            .with_nodes(4)
            .with_fabric(FabricSpec {
                tiers: vec![tier(3, 10e9)],
            });
        assert!(spec.validate().is_err());
    }
}
