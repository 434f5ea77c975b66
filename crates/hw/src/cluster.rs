//! The simulated cluster: builds every link of Fig. 2 into a
//! [`FlowNet`] and answers routing queries between memory locations.

use std::collections::HashMap;

use zerosim_simkit::{FlowNet, LinkId, ResourceId, SimTime, TokenBucket};

use crate::error::HwError;
use crate::ids::{GpuId, LinkClass, NvmeId, SerdesSet, SocketId, VolumeId};
use crate::route::{MemLoc, Route};
use crate::spec::ClusterSpec;

/// Direction of an NVMe access from the host's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDir {
    /// Host → drive.
    Write,
    /// Drive → host.
    Read,
}

/// A registered NVMe volume (single drive or mdadm-style RAID0 stripe set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvmeVolume {
    /// Member drives; I/O is striped evenly across them.
    pub members: Vec<NvmeId>,
}

/// The simulated cluster.
///
/// Owns the [`FlowNet`] containing every physical and virtual link, the
/// per-class link registries used for Table IV-style reporting, and the
/// routing logic (including the I/O-die SerDes-pair contention model).
///
/// ```
/// use zerosim_hw::{Cluster, ClusterSpec, MemLoc, GpuId};
///
/// # fn main() -> Result<(), String> {
/// let cluster = Cluster::new(ClusterSpec::default())?;
/// let r = cluster.route(
///     MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
///     MemLoc::Gpu(GpuId { node: 0, gpu: 3 }),
/// );
/// assert_eq!(r.hops(), 1); // direct NVLink
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Cluster {
    spec: ClusterSpec,
    net: FlowNet,
    /// `[node][socket]` half-duplex DRAM links.
    dram: Vec<Vec<LinkId>>,
    /// `[node][dir]`: dir 0 = socket0→socket1.
    xgmi: Vec<[LinkId; 2]>,
    /// `[node][gpu]` GPU→CPU direction.
    pcie_gpu_up: Vec<Vec<LinkId>>,
    /// `[node][gpu]` CPU→GPU direction.
    pcie_gpu_down: Vec<Vec<LinkId>>,
    /// `[node][socket]` CPU→NIC direction.
    pcie_nic_tx: Vec<Vec<LinkId>>,
    /// `[node][socket]` NIC→CPU direction.
    pcie_nic_rx: Vec<Vec<LinkId>>,
    /// `[node][drive]` host→drive wire.
    pcie_nvme_w: Vec<Vec<LinkId>>,
    /// `[node][drive]` drive→host wire.
    pcie_nvme_r: Vec<Vec<LinkId>>,
    /// `[node][drive]` device write service (token bucket).
    nvme_dev_w: Vec<Vec<LinkId>>,
    /// `[node][drive]` device read service (token bucket).
    nvme_dev_r: Vec<Vec<LinkId>>,
    /// `(node, src_gpu, dst_gpu)` → directed NVLink.
    nvlink: HashMap<(usize, usize, usize), LinkId>,
    /// `[node][nic]` NIC→switch.
    roce_tx: Vec<Vec<LinkId>>,
    /// `[node][nic]` switch→NIC.
    roce_rx: Vec<Vec<LinkId>>,
    /// SerDes-pair virtual links: `(node, socket, min(a,b), max(a,b))`.
    pairs: HashMap<(usize, usize, SerdesSet, SerdesSet), LinkId>,
    /// `[tier][group]` aggregated fabric uplinks (group → spine).
    fabric_up: Vec<Vec<LinkId>>,
    /// `[tier][group]` aggregated fabric downlinks (spine → group).
    fabric_down: Vec<Vec<LinkId>>,
    /// Per-(node, class) link groups for reporting.
    class_links: HashMap<(usize, LinkClass), Vec<LinkId>>,
    volumes: Vec<NvmeVolume>,
}

impl Cluster {
    /// Builds the cluster described by `spec`.
    ///
    /// # Errors
    /// Returns the validation error string if `spec` is inconsistent.
    pub fn new(spec: ClusterSpec) -> Result<Self, String> {
        spec.validate()?;
        let mut net = FlowNet::new();
        let nodes = spec.nodes;
        let gpn = spec.gpus_per_node;
        let spn = ClusterSpec::SOCKETS_PER_NODE;

        let mut class_links: HashMap<(usize, LinkClass), Vec<LinkId>> = HashMap::new();
        let reg = |map: &mut HashMap<(usize, LinkClass), Vec<LinkId>>,
                   node: usize,
                   class: LinkClass,
                   id: LinkId| {
            map.entry((node, class)).or_default().push(id);
        };

        let mut dram = Vec::new();
        let mut xgmi = Vec::new();
        let mut pcie_gpu_up = Vec::new();
        let mut pcie_gpu_down = Vec::new();
        let mut pcie_nic_tx = Vec::new();
        let mut pcie_nic_rx = Vec::new();
        let mut pcie_nvme_w = Vec::new();
        let mut pcie_nvme_r = Vec::new();
        let mut nvme_dev_w = Vec::new();
        let mut nvme_dev_r = Vec::new();
        let mut nvlink = HashMap::new();
        let mut roce_tx = Vec::new();
        let mut roce_rx = Vec::new();
        let mut pairs = HashMap::new();

        for n in 0..nodes {
            // DRAM: one half-duplex link per socket.
            let mut node_dram = Vec::new();
            for s in 0..spn {
                let id = net.add_link(format!("n{n}s{s}.dram"), spec.bw.dram_socket);
                reg(&mut class_links, n, LinkClass::Dram, id);
                node_dram.push(id);
            }
            dram.push(node_dram);

            // xGMI: one directed aggregate per direction.
            let a = net.add_link(format!("n{n}.xgmi.s0s1"), spec.bw.xgmi_dir);
            let b = net.add_link(format!("n{n}.xgmi.s1s0"), spec.bw.xgmi_dir);
            reg(&mut class_links, n, LinkClass::Xgmi, a);
            reg(&mut class_links, n, LinkClass::Xgmi, b);
            xgmi.push([a, b]);

            // PCIe to GPUs.
            let mut up = Vec::new();
            let mut down = Vec::new();
            for g in 0..gpn {
                let u = net.add_link(format!("n{n}g{g}.pcie.up"), spec.bw.pcie_gpu_dir);
                let d = net.add_link(format!("n{n}g{g}.pcie.down"), spec.bw.pcie_gpu_dir);
                reg(&mut class_links, n, LinkClass::PcieGpu, u);
                reg(&mut class_links, n, LinkClass::PcieGpu, d);
                up.push(u);
                down.push(d);
            }
            pcie_gpu_up.push(up);
            pcie_gpu_down.push(down);

            // PCIe to NICs + RoCE uplinks (one NIC per socket).
            let mut ntx = Vec::new();
            let mut nrx = Vec::new();
            let mut rtx = Vec::new();
            let mut rrx = Vec::new();
            for s in 0..spn {
                let tx = net.add_link(format!("n{n}nic{s}.pcie.tx"), spec.bw.pcie_nic_dir);
                let rx = net.add_link(format!("n{n}nic{s}.pcie.rx"), spec.bw.pcie_nic_dir);
                reg(&mut class_links, n, LinkClass::PcieNic, tx);
                reg(&mut class_links, n, LinkClass::PcieNic, rx);
                ntx.push(tx);
                nrx.push(rx);
                let t = net.add_link(format!("n{n}nic{s}.roce.tx"), spec.bw.roce_dir);
                let r = net.add_link(format!("n{n}nic{s}.roce.rx"), spec.bw.roce_dir);
                reg(&mut class_links, n, LinkClass::Roce, t);
                reg(&mut class_links, n, LinkClass::Roce, r);
                rtx.push(t);
                rrx.push(r);
            }
            pcie_nic_tx.push(ntx);
            pcie_nic_rx.push(nrx);
            roce_tx.push(rtx);
            roce_rx.push(rrx);

            // NVMe drives: PCIe wire + bucketed device service per direction.
            let mut pw = Vec::new();
            let mut pr = Vec::new();
            let mut dw = Vec::new();
            let mut dr = Vec::new();
            for (d, _pl) in spec.nvme_layout.iter().enumerate() {
                let w = net.add_link(format!("n{n}nvme{d}.pcie.w"), spec.bw.pcie_nvme_dir);
                let r = net.add_link(format!("n{n}nvme{d}.pcie.r"), spec.bw.pcie_nvme_dir);
                reg(&mut class_links, n, LinkClass::PcieNvme, w);
                reg(&mut class_links, n, LinkClass::PcieNvme, r);
                pw.push(w);
                pr.push(r);
                let m = &spec.nvme_dev;
                let bw = net.add_bucketed_link(
                    format!("n{n}nvme{d}.dev.w"),
                    TokenBucket::new(m.cache_bytes, m.burst, m.sustained_write),
                );
                let br = net.add_bucketed_link(
                    format!("n{n}nvme{d}.dev.r"),
                    TokenBucket::new(
                        m.cache_bytes,
                        m.burst.min(m.sustained_read * 1.6),
                        m.sustained_read,
                    ),
                );
                reg(&mut class_links, n, LinkClass::NvmeDev, bw);
                reg(&mut class_links, n, LinkClass::NvmeDev, br);
                dw.push(bw);
                dr.push(br);
            }
            pcie_nvme_w.push(pw);
            pcie_nvme_r.push(pr);
            nvme_dev_w.push(dw);
            nvme_dev_r.push(dr);

            // NVLink: directed link per ordered GPU pair.
            for i in 0..gpn {
                for j in 0..gpn {
                    if i == j {
                        continue;
                    }
                    let id = net.add_link(format!("n{n}.nvlink.{i}to{j}"), spec.bw.nvlink_pair_dir);
                    reg(&mut class_links, n, LinkClass::NvLink, id);
                    nvlink.insert((n, i, j), id);
                }
            }

            // SerDes-pair virtual links used by the IOD contention model:
            // only the pairs a route crosses (GPU–xGMI, GPU–NIC, xGMI–NIC
            // and xGMI–NVMe). Socket-local GPU–GPU traffic takes NVLink and
            // no route pairs a drive with a GPU or a NIC.
            let gps = spec.gpus_per_socket();
            for s in 0..spn {
                let mut sets: Vec<SerdesSet> = Vec::new();
                for lg in 0..gps {
                    sets.push(SerdesSet::PcieGpu(lg));
                }
                sets.push(SerdesSet::PcieNic);
                for (d, pl) in spec.nvme_layout.iter().enumerate() {
                    if pl.socket == s {
                        sets.push(SerdesSet::PcieNvme(d));
                    }
                }
                sets.push(SerdesSet::Xgmi);
                for x in 0..sets.len() {
                    for y in (x + 1)..sets.len() {
                        let (a, b) = (sets[x].min(sets[y]), sets[x].max(sets[y]));
                        if !Self::routed_pair(a, b) {
                            continue;
                        }
                        let cap = Self::pair_capacity(&spec, a, b);
                        let id = net.add_link(format!("n{n}s{s}.iod.{a:?}-{b:?}"), cap);
                        reg(&mut class_links, n, LinkClass::IodPair, id);
                        pairs.insert((n, s, a, b), id);
                    }
                }
            }
        }

        // Fabric aggregation tiers: one up/down aggregate per group per
        // tier. Registered for reporting under the group's first node.
        let mut fabric_up = Vec::new();
        let mut fabric_down = Vec::new();
        for (t, tier) in spec.fabric.tiers.iter().enumerate() {
            let mut ups = Vec::new();
            let mut downs = Vec::new();
            for g in 0..spec.fabric.groups_at(nodes, t) {
                let up = net.add_link(format!("fab{t}g{g}.up"), tier.up_bytes_per_s);
                let down = net.add_link(format!("fab{t}g{g}.down"), tier.up_bytes_per_s);
                let home = g * tier.nodes_per_group;
                reg(&mut class_links, home, LinkClass::Fabric, up);
                reg(&mut class_links, home, LinkClass::Fabric, down);
                ups.push(up);
                downs.push(down);
            }
            fabric_up.push(ups);
            fabric_down.push(downs);
        }

        Ok(Cluster {
            spec,
            net,
            dram,
            xgmi,
            pcie_gpu_up,
            pcie_gpu_down,
            pcie_nic_tx,
            pcie_nic_rx,
            pcie_nvme_w,
            pcie_nvme_r,
            nvme_dev_w,
            nvme_dev_r,
            nvlink,
            roce_tx,
            roce_rx,
            pairs,
            fabric_up,
            fabric_down,
            class_links,
            volumes: Vec::new(),
        })
    }

    /// Appends to `route` the fabric links (source-side uplinks then
    /// destination-side downlinks) an inter-node transfer `a_node →
    /// b_node` traverses above the NIC tier, and returns their extra
    /// latency. Appends nothing on the paper's flat switch and for nodes
    /// sharing their leaf group.
    fn fabric_path(&self, route: &mut Route, a_node: usize, b_node: usize) -> f64 {
        let Some(top) = self.spec.fabric.crossing_tier(a_node, b_node) else {
            return 0.0;
        };
        let mut lat = 0.0;
        for t in 0..=top {
            route.push(self.fabric_up[t][self.spec.fabric.group_of(a_node, t)]);
            lat += self.spec.fabric.tiers[t].latency_s;
        }
        for t in (0..=top).rev() {
            route.push(self.fabric_down[t][self.spec.fabric.group_of(b_node, t)]);
            lat += self.spec.fabric.tiers[t].latency_s;
        }
        lat
    }

    /// Locality distance between two nodes: 0 for the same node, 1 for
    /// nodes sharing a leaf switch (or any pair on a flat fabric), and
    /// `2 + t` when the highest fabric tier the pair crosses is `t`.
    pub fn node_distance(&self, a_node: usize, b_node: usize) -> usize {
        if a_node == b_node {
            return 0;
        }
        match self.spec.fabric.crossing_tier(a_node, b_node) {
            None => 1,
            Some(t) => 2 + t,
        }
    }

    /// Number of distinct locality levels GPU pairs can fall into:
    /// `2 + fabric tiers` (same node / same leaf switch / per tier).
    pub fn locality_levels(&self) -> usize {
        2 + self.spec.fabric.tiers.len()
    }

    /// One-direction bandwidth available across the contiguous even
    /// bisection of the node set (nodes `0..n/2` vs `n/2..n`), from the
    /// built links: the NIC aggregate of the smaller half, narrowed by
    /// every fabric tier whose group uplinks the cut crossing traverses.
    ///
    /// Returns `None` for single-node clusters (no cut to measure).
    pub fn bisection_bandwidth(&self) -> Option<f64> {
        let half = self.spec.nodes / 2;
        if half == 0 {
            return None;
        }
        let nics = (half * ClusterSpec::SOCKETS_PER_NODE) as f64;
        let mut bw = nics * self.spec.bw.roce_dir;
        for (t, tier) in self.spec.fabric.tiers.iter().enumerate() {
            let groups_in_half = half / tier.nodes_per_group;
            if groups_in_half == 0 {
                // The tier's groups span the cut: cross-cut pairs share a
                // group here, so its aggregates are never traversed.
                continue;
            }
            let cap: f64 = (0..groups_in_half)
                .map(|g| self.net.link_capacity(self.fabric_up[t][g]))
                .sum();
            bw = bw.min(cap);
        }
        Some(bw)
    }

    /// True when some route crosses the IOD between SerDes sets `a` and
    /// `b`: every pair with the xGMI sets, and a GPU with its socket's NIC.
    fn routed_pair(a: SerdesSet, b: SerdesSet) -> bool {
        matches!(
            (a, b),
            (SerdesSet::Xgmi, _)
                | (_, SerdesSet::Xgmi)
                | (SerdesSet::PcieGpu(_), SerdesSet::PcieNic)
                | (SerdesSet::PcieNic, SerdesSet::PcieGpu(_))
        )
    }

    /// Capacity of the virtual pair link between SerDes sets `a` and `b`
    /// (Sec. III-C4 calibration).
    fn pair_capacity(spec: &ClusterSpec, a: SerdesSet, b: SerdesSet) -> f64 {
        let gpu_involved = matches!(a, SerdesSet::PcieGpu(_)) || matches!(b, SerdesSet::PcieGpu(_));
        match (a.is_xgmi() || b.is_xgmi(), gpu_involved) {
            (false, _) => spec.iod.pcie_pcie,
            (true, true) => spec.iod.pcie_gpu_xgmi,
            (true, false) => spec.iod.xgmi_pcie_io,
        }
    }

    /// The specification this cluster was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Immutable access to the underlying flow network.
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    /// Mutable access to the underlying flow network (needed to run the
    /// DAG engine against this cluster).
    pub fn net_mut(&mut self) -> &mut FlowNet {
        &mut self.net
    }

    /// Links of `class` on `node` (Table IV per-node aggregation groups).
    pub fn links(&self, node: usize, class: LinkClass) -> &[LinkId] {
        self.class_links
            .get(&(node, class))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All GPUs of `node` in index order.
    pub fn node_gpus(&self, node: usize) -> Vec<GpuId> {
        (0..self.spec.gpus_per_node)
            .map(|gpu| GpuId { node, gpu })
            .collect()
    }

    /// All GPUs in the cluster, node-major.
    pub fn all_gpus(&self) -> Vec<GpuId> {
        (0..self.spec.nodes)
            .flat_map(|n| self.node_gpus(n))
            .collect()
    }

    /// Engine resource id of a GPU's compute queue.
    pub fn gpu_resource(&self, g: GpuId) -> ResourceId {
        ResourceId(g.node * self.spec.gpus_per_node + g.gpu)
    }

    /// Engine resource id of a CPU socket's compute capacity.
    pub fn cpu_resource(&self, s: SocketId) -> ResourceId {
        ResourceId(self.spec.total_gpus() + s.node * ClusterSpec::SOCKETS_PER_NODE + s.socket)
    }

    /// Slot counts for [`zerosim_simkit::DagEngine::new`]: one compute slot
    /// per GPU, one per CPU socket.
    pub fn resource_slots(&self) -> Vec<usize> {
        vec![1; self.spec.total_gpus() + self.spec.total_sockets()]
    }

    /// Socket hosting `g`'s PCIe link.
    pub fn gpu_socket(&self, g: GpuId) -> SocketId {
        g.socket(self.spec.gpus_per_socket())
    }

    fn pair_link(&self, node: usize, socket: usize, a: SerdesSet, b: SerdesSet) -> LinkId {
        let (lo, hi) = (a.min(b), a.max(b));
        *self
            .pairs
            .get(&(node, socket, lo, hi))
            .unwrap_or_else(|| panic!("no pair link n{node}s{socket} {lo:?}-{hi:?}"))
    }

    fn xgmi_dir(&self, node: usize, from_socket: usize, to_socket: usize) -> LinkId {
        debug_assert_ne!(from_socket, to_socket);
        if from_socket == 0 {
            self.xgmi[node][0]
        } else {
            self.xgmi[node][1]
        }
    }

    /// Route between two memory locations on the *same node*, or between
    /// GPUs/CPUs on different nodes using topology-preferred (same-socket)
    /// NICs. For explicit NIC selection use
    /// [`Cluster::route_internode_gpu`].
    ///
    /// # Panics
    /// Panics on unsupported endpoint combinations (e.g. NVMe on a remote
    /// node), which plan validation rejects through [`Cluster::try_route`]
    /// before a plan is lowered.
    pub fn route(&self, from: MemLoc, to: MemLoc) -> Route {
        self.try_route(from, to).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Cluster::route`]: plan validation resolves
    /// every tier transfer through it.
    ///
    /// # Errors
    /// [`HwError`] describing why the pair has no modeled path: endpoints
    /// off-cluster, cross-node GPU↔CPU / CPU↔NVMe pairs, GPU self-routes,
    /// or combinations the fabric does not support at all.
    pub fn try_route(&self, from: MemLoc, to: MemLoc) -> Result<Route, HwError> {
        self.check_loc(from)?;
        self.check_loc(to)?;
        match (from, to) {
            (MemLoc::Gpu(a), MemLoc::Gpu(b)) if a == b => Err(HwError::SelfRoute { at: from }),
            (MemLoc::Gpu(a), MemLoc::Gpu(b)) if a.node == b.node => Ok(self.route_gpu_gpu(a, b)),
            (MemLoc::Gpu(a), MemLoc::Gpu(b)) => {
                let src_nic = self.gpu_socket(a).socket;
                let dst_nic = self.gpu_socket(b).socket;
                Ok(self.route_internode_gpu(a, b, src_nic, dst_nic))
            }
            (MemLoc::Gpu(g), MemLoc::Cpu(c)) | (MemLoc::Cpu(c), MemLoc::Gpu(g))
                if g.node != c.node =>
            {
                Err(HwError::CrossNode { from, to })
            }
            (MemLoc::Gpu(g), MemLoc::Cpu(c)) => Ok(self.route_gpu_cpu(g, c, true)),
            (MemLoc::Cpu(c), MemLoc::Gpu(g)) => Ok(self.route_gpu_cpu(g, c, false)),
            (MemLoc::Cpu(a), MemLoc::Cpu(b)) if a.node == b.node => Ok(self.route_cpu_cpu(a, b)),
            (MemLoc::Cpu(a), MemLoc::Cpu(b)) => {
                Ok(self.route_internode_cpu_via(a, b, a.socket, b.socket))
            }
            (MemLoc::Cpu(c), MemLoc::Nvme(d)) | (MemLoc::Nvme(d), MemLoc::Cpu(c))
                if c.node != d.node =>
            {
                Err(HwError::CrossNode { from, to })
            }
            (MemLoc::Cpu(c), MemLoc::Nvme(d)) => Ok(self.route_cpu_nvme(c, d, IoDir::Write)),
            (MemLoc::Nvme(d), MemLoc::Cpu(c)) => Ok(self.route_cpu_nvme(c, d, IoDir::Read)),
            (from, to) => Err(HwError::UnsupportedRoute { from, to }),
        }
    }

    /// Checks that `loc` names a device this cluster actually has: the
    /// one device-existence rule routing and plan validation share.
    ///
    /// # Errors
    /// [`HwError::OffCluster`] when the node, GPU, socket or drive index
    /// is out of range.
    pub fn check_loc(&self, loc: MemLoc) -> Result<(), HwError> {
        let ok = match loc {
            MemLoc::Gpu(g) => g.node < self.spec.nodes && g.gpu < self.spec.gpus_per_node,
            MemLoc::Cpu(s) => s.node < self.spec.nodes && s.socket < ClusterSpec::SOCKETS_PER_NODE,
            MemLoc::Nvme(d) => d.node < self.spec.nodes && d.drive < self.spec.nvme_layout.len(),
        };
        if ok {
            Ok(())
        } else {
            Err(HwError::OffCluster { loc })
        }
    }

    fn route_gpu_gpu(&self, a: GpuId, b: GpuId) -> Route {
        assert_eq!(a.node, b.node);
        assert_ne!(a.gpu, b.gpu, "route from a GPU to itself");
        let l = self.nvlink[&(a.node, a.gpu, b.gpu)];
        Route::new(&[l], SimTime::from_secs(self.spec.lat.nvlink_s))
    }

    fn route_gpu_cpu(&self, g: GpuId, c: SocketId, gpu_to_cpu: bool) -> Route {
        assert_eq!(g.node, c.node, "GPU-CPU routes are intra-node");
        let gs = self.gpu_socket(g);
        let n = g.node;
        let local_gpu = g.gpu % self.spec.gpus_per_socket();
        let pcie = if gpu_to_cpu {
            self.pcie_gpu_up[n][g.gpu]
        } else {
            self.pcie_gpu_down[n][g.gpu]
        };
        let dram = self.dram[n][c.socket];
        let mut lat = self.spec.lat.pcie_s;
        // GPU -> CPU crosses PCIe first; CPU -> GPU starts at DRAM and
        // traverses the same sets in the opposite order.
        let mut route = Route::new(&[if gpu_to_cpu { pcie } else { dram }], SimTime::ZERO);
        if gs.socket != c.socket {
            // Crosses the GPU-side IOD between the GPU PCIe set and xGMI.
            let pair = self.pair_link(n, gs.socket, SerdesSet::PcieGpu(local_gpu), SerdesSet::Xgmi);
            if gpu_to_cpu {
                route.push(pair);
                route.push(self.xgmi_dir(n, gs.socket, c.socket));
            } else {
                route.push(self.xgmi_dir(n, c.socket, gs.socket));
                route.push(pair);
            }
            lat += self.spec.lat.xgmi_s + self.spec.iod.crossing_latency_s;
        }
        route.push(if gpu_to_cpu { dram } else { pcie });
        route.latency = SimTime::from_secs(lat);
        route
    }

    fn route_cpu_cpu(&self, a: SocketId, b: SocketId) -> Route {
        assert_eq!(a.node, b.node);
        if a.socket == b.socket {
            return Route::new(&[self.dram[a.node][a.socket]], SimTime::from_secs(0.1e-6));
        }
        Route::new(
            &[
                self.dram[a.node][a.socket],
                self.xgmi_dir(a.node, a.socket, b.socket),
                self.dram[a.node][b.socket],
            ],
            SimTime::from_secs(self.spec.lat.xgmi_s),
        )
    }

    /// Explicit inter-node GPU route via chosen NICs (GPUDirect RDMA).
    pub fn route_internode_gpu(&self, a: GpuId, b: GpuId, src_nic: usize, dst_nic: usize) -> Route {
        assert_ne!(a.node, b.node, "use route() for intra-node GPU pairs");
        let mut lat = self.spec.lat.pcie_s * 2.0 + self.spec.lat.roce_s;

        // Source side: GPU -> NIC.
        let gs = self.gpu_socket(a);
        let local = a.gpu % self.spec.gpus_per_socket();
        let mut route = Route::new(&[self.pcie_gpu_up[a.node][a.gpu]], SimTime::ZERO);
        if gs.socket == src_nic {
            route.push(self.pair_link(
                a.node,
                gs.socket,
                SerdesSet::PcieGpu(local),
                SerdesSet::PcieNic,
            ));
        } else {
            route.push(self.pair_link(
                a.node,
                gs.socket,
                SerdesSet::PcieGpu(local),
                SerdesSet::Xgmi,
            ));
            route.push(self.xgmi_dir(a.node, gs.socket, src_nic));
            route.push(self.pair_link(a.node, src_nic, SerdesSet::Xgmi, SerdesSet::PcieNic));
            lat += self.spec.lat.xgmi_s + 2.0 * self.spec.iod.crossing_latency_s;
        }
        route.push(self.pcie_nic_tx[a.node][src_nic]);
        route.push(self.roce_tx[a.node][src_nic]);

        // Switch fabric between the NICs (no-op on the flat testbed).
        lat += self.fabric_path(&mut route, a.node, b.node);

        // Destination side: NIC -> GPU.
        route.push(self.roce_rx[b.node][dst_nic]);
        route.push(self.pcie_nic_rx[b.node][dst_nic]);
        let ds = self.gpu_socket(b);
        let dlocal = b.gpu % self.spec.gpus_per_socket();
        if ds.socket == dst_nic {
            route.push(self.pair_link(
                b.node,
                ds.socket,
                SerdesSet::PcieGpu(dlocal),
                SerdesSet::PcieNic,
            ));
        } else {
            route.push(self.pair_link(b.node, dst_nic, SerdesSet::Xgmi, SerdesSet::PcieNic));
            route.push(self.xgmi_dir(b.node, dst_nic, ds.socket));
            route.push(self.pair_link(
                b.node,
                ds.socket,
                SerdesSet::PcieGpu(dlocal),
                SerdesSet::Xgmi,
            ));
            lat += self.spec.lat.xgmi_s + 2.0 * self.spec.iod.crossing_latency_s;
        }
        route.push(self.pcie_gpu_down[b.node][b.gpu]);

        if gs.socket == src_nic && ds.socket == dst_nic {
            lat += 2.0 * self.spec.iod.crossing_latency_s;
        }
        route.latency = SimTime::from_secs(lat);
        route
    }

    /// Inter-node CPU route via chosen NICs; [`Cluster::route`] picks
    /// each side's same-socket NIC, the perftest cross-socket scenarios
    /// pick others.
    pub fn route_internode_cpu_via(
        &self,
        a: SocketId,
        b: SocketId,
        src_nic: usize,
        dst_nic: usize,
    ) -> Route {
        let mut lat = self.spec.lat.roce_s + 2.0 * self.spec.lat.pcie_s;
        let mut route = Route::new(&[self.dram[a.node][a.socket]], SimTime::ZERO);
        if a.socket != src_nic {
            route.push(self.xgmi_dir(a.node, a.socket, src_nic));
            route.push(self.pair_link(a.node, src_nic, SerdesSet::Xgmi, SerdesSet::PcieNic));
            lat += self.spec.lat.xgmi_s + self.spec.iod.crossing_latency_s;
        }
        route.push(self.pcie_nic_tx[a.node][src_nic]);
        route.push(self.roce_tx[a.node][src_nic]);
        lat += self.fabric_path(&mut route, a.node, b.node);
        route.push(self.roce_rx[b.node][dst_nic]);
        route.push(self.pcie_nic_rx[b.node][dst_nic]);
        if b.socket != dst_nic {
            route.push(self.pair_link(b.node, dst_nic, SerdesSet::Xgmi, SerdesSet::PcieNic));
            route.push(self.xgmi_dir(b.node, dst_nic, b.socket));
            lat += self.spec.lat.xgmi_s + self.spec.iod.crossing_latency_s;
        }
        route.push(self.dram[b.node][b.socket]);
        route.latency = SimTime::from_secs(lat);
        route
    }

    fn route_cpu_nvme(&self, c: SocketId, d: NvmeId, dir: IoDir) -> Route {
        assert_eq!(c.node, d.node, "NVMe routes are intra-node");
        let n = c.node;
        let drive_socket = self.spec.nvme_layout[d.drive].socket;
        let mut lat = self.spec.lat.pcie_s + self.spec.nvme_dev.latency_s;
        let mut route = Route::new(&[self.dram[n][c.socket]], SimTime::ZERO);
        if c.socket != drive_socket {
            route.push(self.xgmi_dir(
                n,
                if dir == IoDir::Write {
                    c.socket
                } else {
                    drive_socket
                },
                if dir == IoDir::Write {
                    drive_socket
                } else {
                    c.socket
                },
            ));
            route.push(self.pair_link(
                n,
                drive_socket,
                SerdesSet::Xgmi,
                SerdesSet::PcieNvme(d.drive),
            ));
            lat += self.spec.lat.xgmi_s + self.spec.iod.crossing_latency_s;
        }
        match dir {
            IoDir::Write => {
                route.push(self.pcie_nvme_w[n][d.drive]);
                route.push(self.nvme_dev_w[n][d.drive]);
            }
            IoDir::Read => {
                route.push(self.pcie_nvme_r[n][d.drive]);
                route.push(self.nvme_dev_r[n][d.drive]);
                route.reverse();
            }
        }
        route.latency = SimTime::from_secs(lat);
        route
    }

    /// Registers a volume striping evenly across `members`.
    ///
    /// # Panics
    /// Panics if `members` is empty or references an unknown drive.
    pub fn create_volume(&mut self, members: Vec<NvmeId>) -> VolumeId {
        self.try_create_volume(members)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Cluster::create_volume`].
    ///
    /// # Errors
    /// [`HwError::EmptyVolume`] or [`HwError::UnknownDrive`].
    pub fn try_create_volume(&mut self, members: Vec<NvmeId>) -> Result<VolumeId, HwError> {
        if members.is_empty() {
            return Err(HwError::EmptyVolume);
        }
        for m in &members {
            if m.drive >= self.spec.nvme_layout.len() || m.node >= self.spec.nodes {
                return Err(HwError::UnknownDrive { drive: *m });
            }
        }
        let id = VolumeId(self.volumes.len());
        self.volumes.push(NvmeVolume { members });
        Ok(id)
    }

    /// The volume registered under `id`.
    ///
    /// # Panics
    /// Panics if `id` is unknown.
    pub fn volume(&self, id: VolumeId) -> &NvmeVolume {
        self.try_volume(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Cluster::volume`].
    ///
    /// # Errors
    /// [`HwError::UnknownVolume`] when `id` was never registered.
    pub fn try_volume(&self, id: VolumeId) -> Result<&NvmeVolume, HwError> {
        self.volumes
            .get(id.0)
            .ok_or(HwError::UnknownVolume { volume: id })
    }

    /// Number of registered NVMe volumes.
    pub fn volume_count(&self) -> usize {
        self.volumes.len()
    }

    /// Routes for a striped I/O of any size against `volume` issued from
    /// CPU socket `from`: one route per member, in member order, each
    /// carrying `1 / member_count` of the bytes. Every check runs before
    /// the first route is yielded, and the routes are built on demand, so
    /// the call allocates nothing.
    ///
    /// # Errors
    /// [`HwError`] when the socket is off-cluster, the volume is
    /// unknown, or a member drive sits on a different node than `from`.
    pub fn try_volume_io_routes(
        &self,
        volume: VolumeId,
        from: SocketId,
        dir: IoDir,
    ) -> Result<impl ExactSizeIterator<Item = Route> + '_, HwError> {
        self.check_loc(MemLoc::Cpu(from))?;
        let v = self.try_volume(volume)?;
        if let Some(m) = v.members.iter().find(|m| m.node != from.node) {
            return Err(HwError::CrossNode {
                from: MemLoc::Cpu(from),
                to: MemLoc::Nvme(*m),
            });
        }
        Ok(v.members
            .iter()
            .map(move |m| self.route_cpu_nvme(from, *m, dir)))
    }

    /// A human-readable topology dump (Fig. 2 substitute).
    ///
    /// Renders generated topologies faithfully: the fabric tier stack with
    /// per-tier oversubscription and the contiguous-cut bisection
    /// bandwidth, then a node template (nodes are identical, so large
    /// clusters show the first two and summarize the rest).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let spec = &self.spec;
        let spn = ClusterSpec::SOCKETS_PER_NODE;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cluster: {} node(s), {} GPUs/node ({} GPUs total), {} NVMe drive(s)/node",
            spec.nodes,
            spec.gpus_per_node,
            spec.total_gpus(),
            spec.nvme_layout.len()
        );
        if spec.fabric.is_flat() {
            let _ = writeln!(
                out,
                "fabric: single non-blocking switch, RoCE {:.1} GBps/dir/NIC",
                spec.bw.roce_dir / 1e9
            );
        } else {
            for (t, tier) in spec.fabric.tiers.iter().enumerate() {
                let nic_aggregate = (tier.nodes_per_group * spn) as f64 * spec.bw.roce_dir;
                let _ = writeln!(
                    out,
                    "fabric tier {t}: {} group(s) of {} node(s), uplink {:.1} GBps/dir \
                     ({:.2}:1 oversubscribed)",
                    spec.fabric.groups_at(spec.nodes, t),
                    tier.nodes_per_group,
                    tier.up_bytes_per_s / 1e9,
                    nic_aggregate / tier.up_bytes_per_s
                );
            }
        }
        if let Some(bisect) = self.bisection_bandwidth() {
            let _ = writeln!(
                out,
                "bisection: {:.1} GBps/dir (contiguous even cut)",
                bisect / 1e9
            );
        }
        let shown = spec.nodes.min(2);
        for n in 0..shown {
            let _ = writeln!(out, "node {n}:");
            for s in 0..spn {
                let gpus: Vec<usize> = (0..spec.gpus_per_node)
                    .filter(|g| g / spec.gpus_per_socket() == s)
                    .collect();
                let drives: Vec<usize> = spec
                    .nvme_layout
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.socket == s)
                    .map(|(i, _)| i)
                    .collect();
                let _ = writeln!(
                    out,
                    "  socket {s}: DRAM {:.1} GBps | GPUs {gpus:?} | NIC {s} | NVMe {drives:?}",
                    spec.bw.dram_socket / 1e9
                );
            }
        }
        if spec.nodes > shown {
            let _ = writeln!(out, "... {} more identical node(s)", spec.nodes - shown);
        }
        let _ = writeln!(
            out,
            "links: xGMI {:.0} GBps/dir, NVLink {:.0} GBps/dir/pair, RoCE {:.1} GBps/dir/NIC",
            spec.bw.xgmi_dir / 1e9,
            spec.bw.nvlink_pair_dir / 1e9,
            spec.bw.roce_dir / 1e9
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::default()).expect("default spec is valid")
    }

    #[test]
    fn builds_expected_link_groups() {
        let c = cluster();
        // Per node: 2 DRAM, 2 xGMI, 8 PCIe-GPU (4 GPUs × 2 dirs), 4 PCIe-NIC,
        // 4 PCIe-NVMe (2 drives × 2 dirs), 4 NVMe device services (2 drives
        // × read/write), 12 NVLink (4P2 ordered pairs), 4 RoCE, and 12 IOD
        // pairs: on each socket, xGMI with every other set (2 GPUs, the NIC
        // and socket 1's 2 drives) plus the 2 GPU–NIC pairs, 5 + 7.
        assert_eq!(c.links(0, LinkClass::Dram).len(), 2);
        assert_eq!(c.links(0, LinkClass::Xgmi).len(), 2);
        assert_eq!(c.links(0, LinkClass::PcieGpu).len(), 8);
        assert_eq!(c.links(0, LinkClass::PcieNic).len(), 4);
        assert_eq!(c.links(0, LinkClass::PcieNvme).len(), 4);
        assert_eq!(c.links(0, LinkClass::NvmeDev).len(), 4);
        assert_eq!(c.links(0, LinkClass::NvLink).len(), 12);
        assert_eq!(c.links(0, LinkClass::Roce).len(), 4);
        assert_eq!(c.links(0, LinkClass::IodPair).len(), 12);
        assert_eq!(c.links(1, LinkClass::NvLink).len(), 12);
        assert_eq!(c.links(1, LinkClass::IodPair).len(), 12);
        assert!(c.links(2, LinkClass::Dram).is_empty());
        assert_eq!(c.net().link_count(), 2 * 52);
    }

    #[test]
    fn gpu_gpu_same_node_uses_nvlink() {
        let c = cluster();
        let r = c.route(
            MemLoc::Gpu(GpuId { node: 0, gpu: 1 }),
            MemLoc::Gpu(GpuId { node: 0, gpu: 2 }),
        );
        assert_eq!(r.hops(), 1);
        assert_eq!(c.net().link_capacity(r.links()[0]), 100e9);
    }

    #[test]
    fn gpu_cpu_same_socket_route() {
        let c = cluster();
        let r = c.route(
            MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
            MemLoc::Cpu(SocketId { node: 0, socket: 0 }),
        );
        // pcie up + dram, no IOD pair.
        assert_eq!(r.hops(), 2);
    }

    #[test]
    fn gpu_cpu_cross_socket_crosses_iod() {
        let c = cluster();
        let r = c.route(
            MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
            MemLoc::Cpu(SocketId { node: 0, socket: 1 }),
        );
        // pcie + pair + xgmi + dram.
        assert_eq!(r.hops(), 4);
        let names: Vec<&str> = r.links().iter().map(|l| c.net().link_name(*l)).collect();
        assert!(names.iter().any(|n| n.contains("iod")), "{names:?}");
    }

    #[test]
    fn internode_gpu_same_socket_nics() {
        let c = cluster();
        let r = c.route(
            MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
            MemLoc::Gpu(GpuId { node: 1, gpu: 0 }),
        );
        let names: Vec<&str> = r.links().iter().map(|l| c.net().link_name(*l)).collect();
        // GPUDirect: no DRAM on the path.
        assert!(!names.iter().any(|n| n.contains("dram")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("roce.tx")));
        assert!(names.iter().any(|n| n.contains("roce.rx")));
        // Same-socket NIC: exactly one IOD pair per side (PCIe-PCIe class).
        let iod_count = names.iter().filter(|n| n.contains("iod")).count();
        assert_eq!(iod_count, 2);
    }

    #[test]
    fn internode_gpu_cross_socket_nics() {
        let c = cluster();
        let a = GpuId { node: 0, gpu: 0 }; // socket 0
        let b = GpuId { node: 1, gpu: 0 };
        let r = c.route_internode_gpu(a, b, 1, 1); // force remote NICs
        let names: Vec<&str> = r.links().iter().map(|l| c.net().link_name(*l)).collect();
        assert!(names.iter().any(|n| n.contains("xgmi")), "{names:?}");
        let iod_count = names.iter().filter(|n| n.contains("iod")).count();
        assert_eq!(iod_count, 4); // two crossings per side
    }

    #[test]
    fn cpu_nvme_routes() {
        let c = cluster();
        // Drive 0 is on socket 1; from socket 1: no xGMI.
        let r = c.route(
            MemLoc::Cpu(SocketId { node: 0, socket: 1 }),
            MemLoc::Nvme(NvmeId { node: 0, drive: 0 }),
        );
        let names: Vec<&str> = r.links().iter().map(|l| c.net().link_name(*l)).collect();
        assert!(!names.iter().any(|n| n.contains("xgmi")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("dev.w")));

        // From socket 0: crosses xGMI + IOD pair.
        let r2 = c.route(
            MemLoc::Cpu(SocketId { node: 0, socket: 0 }),
            MemLoc::Nvme(NvmeId { node: 0, drive: 0 }),
        );
        let names2: Vec<&str> = r2.links().iter().map(|l| c.net().link_name(*l)).collect();
        assert!(names2.iter().any(|n| n.contains("xgmi")));
        assert!(names2.iter().any(|n| n.contains("iod")));
    }

    #[test]
    fn nvme_read_route_is_reversed() {
        let c = cluster();
        let r = c.route(
            MemLoc::Nvme(NvmeId { node: 0, drive: 1 }),
            MemLoc::Cpu(SocketId { node: 0, socket: 1 }),
        );
        let names: Vec<&str> = r.links().iter().map(|l| c.net().link_name(*l)).collect();
        assert!(names.first().unwrap().contains("dev.r"), "{names:?}");
        assert!(names.last().unwrap().contains("dram"), "{names:?}");
    }

    #[test]
    fn volumes_stripe_across_members() {
        let mut c = cluster();
        let v = c.create_volume(vec![
            NvmeId { node: 0, drive: 0 },
            NvmeId { node: 0, drive: 1 },
        ]);
        let routes = c
            .try_volume_io_routes(v, SocketId { node: 0, socket: 1 }, IoDir::Write)
            .unwrap();
        assert_eq!(routes.len(), 2);
        assert_eq!(c.volume(v).members.len(), 2);
    }

    #[test]
    fn resource_ids_are_disjoint() {
        let c = cluster();
        let mut seen = std::collections::HashSet::new();
        for g in c.all_gpus() {
            assert!(seen.insert(c.gpu_resource(g)));
        }
        for n in 0..2 {
            for s in 0..2 {
                assert!(seen.insert(c.cpu_resource(SocketId { node: n, socket: s })));
            }
        }
        assert_eq!(c.resource_slots().len(), seen.len());
    }

    #[test]
    fn try_route_rejects_infeasible_pairs() {
        let c = cluster();
        let g0 = MemLoc::Gpu(GpuId { node: 0, gpu: 0 });
        let nv = MemLoc::Nvme(NvmeId { node: 0, drive: 0 });
        assert!(matches!(
            c.try_route(g0, nv),
            Err(HwError::UnsupportedRoute { .. })
        ));
        assert!(matches!(
            c.try_route(g0, g0),
            Err(HwError::SelfRoute { .. })
        ));
        assert!(matches!(
            c.try_route(g0, MemLoc::Cpu(SocketId { node: 1, socket: 0 })),
            Err(HwError::CrossNode { .. })
        ));
        assert!(matches!(
            c.try_route(g0, MemLoc::Gpu(GpuId { node: 5, gpu: 0 })),
            Err(HwError::OffCluster { .. })
        ));
        assert!(c
            .try_route(MemLoc::Cpu(SocketId { node: 0, socket: 0 }), nv)
            .is_ok());
    }

    #[test]
    fn try_volume_apis_reject_bad_inputs() {
        let mut c = cluster();
        assert!(matches!(
            c.try_create_volume(Vec::new()),
            Err(HwError::EmptyVolume)
        ));
        assert!(matches!(
            c.try_create_volume(vec![NvmeId { node: 0, drive: 9 }]),
            Err(HwError::UnknownDrive { .. })
        ));
        assert!(matches!(
            c.try_volume(VolumeId(0)),
            Err(HwError::UnknownVolume { .. })
        ));
        let v = c
            .try_create_volume(vec![NvmeId { node: 1, drive: 0 }])
            .unwrap();
        // Volume on node 1 cannot be reached from a node-0 socket.
        assert!(matches!(
            c.try_volume_io_routes(v, SocketId { node: 0, socket: 0 }, IoDir::Write),
            Err(HwError::CrossNode { .. })
        ));
        assert_eq!(
            c.try_volume_io_routes(v, SocketId { node: 1, socket: 0 }, IoDir::Read)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn describe_mentions_topology() {
        let c = cluster();
        let d = c.describe();
        assert!(d.contains("node 0"));
        assert!(d.contains("node 1"));
        assert!(d.contains("NVLink"));
    }

    fn tiered_cluster() -> Cluster {
        // 8 nodes: 2-node leaf groups (2:1 oversubscribed) under 4-node
        // spine halves (4:1 against each half's NIC aggregate).
        let spec = ClusterSpec::default()
            .with_nodes(8)
            .with_fabric(crate::FabricSpec {
                tiers: vec![
                    crate::FabricTier {
                        nodes_per_group: 2,
                        up_bytes_per_s: 2.0 * 2.0 * 0.93 * 25e9 / 2.0,
                        latency_s: 1e-6,
                    },
                    crate::FabricTier {
                        nodes_per_group: 4,
                        up_bytes_per_s: 4.0 * 2.0 * 0.93 * 25e9 / 4.0,
                        latency_s: 2e-6,
                    },
                ],
            });
        Cluster::new(spec).expect("tiered spec is valid")
    }

    #[test]
    fn flat_internode_routes_carry_no_fabric_links() {
        let c = cluster();
        let r = c.route(
            MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
            MemLoc::Gpu(GpuId { node: 1, gpu: 0 }),
        );
        assert!(!r
            .links()
            .iter()
            .any(|l| c.net().link_name(*l).starts_with("fab")));
        assert!(c.links(0, LinkClass::Fabric).is_empty());
    }

    #[test]
    fn tiered_routes_traverse_the_crossing_tiers() {
        let c = tiered_cluster();
        let names = |r: &crate::Route| -> Vec<String> {
            r.links()
                .iter()
                .map(|l| c.net().link_name(*l).to_string())
                .collect()
        };
        // Same leaf group: no fabric hops.
        let same = c.route(
            MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
            MemLoc::Gpu(GpuId { node: 1, gpu: 0 }),
        );
        assert!(!names(&same).iter().any(|n| n.starts_with("fab")));
        // Cross-spine: leaf up + spine up + spine down + leaf down, in order.
        let cross = c.route(
            MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
            MemLoc::Gpu(GpuId { node: 7, gpu: 0 }),
        );
        let fab: Vec<String> = names(&cross)
            .into_iter()
            .filter(|n| n.starts_with("fab"))
            .collect();
        assert_eq!(
            fab,
            ["fab0g0.up", "fab1g0.up", "fab1g1.down", "fab0g3.down"]
        );
        // CPU routes cross the same fabric.
        let cpu = c.route(
            MemLoc::Cpu(SocketId { node: 1, socket: 0 }),
            MemLoc::Cpu(SocketId { node: 6, socket: 0 }),
        );
        assert!(names(&cpu).iter().any(|n| n.starts_with("fab1")));
    }

    #[test]
    fn the_longest_route_fills_the_inline_capacity() {
        // Four nested tiers over 32 nodes; crossing the top tier with
        // both NICs on the far socket builds the longest route there is.
        let tier = |nodes_per_group| crate::FabricTier {
            nodes_per_group,
            up_bytes_per_s: 100e9,
            latency_s: 1e-6,
        };
        let tiers: Vec<_> = [2, 4, 8, 16].into_iter().map(tier).collect();
        let spec = ClusterSpec::default()
            .with_nodes(32)
            .with_fabric(crate::FabricSpec {
                tiers: tiers.clone(),
            });
        let c = Cluster::new(spec).expect("four tiers are within the limit");
        let r = c.route_internode_gpu(GpuId { node: 0, gpu: 0 }, GpuId { node: 31, gpu: 0 }, 1, 1);
        assert_eq!(r.hops(), crate::Route::MAX_HOPS);
        // A fifth tier is rejected before any link is built.
        let mut five = tiers;
        five.push(tier(32));
        let fabric = crate::FabricSpec { tiers: five };
        assert_eq!(
            fabric.validate(32),
            Err(crate::FabricError::TooManyTiers { tiers: 5 })
        );
        let msg =
            Cluster::new(ClusterSpec::default().with_nodes(32).with_fabric(fabric)).unwrap_err();
        assert!(msg.contains("at most 4"), "{msg}");
    }

    #[test]
    fn node_distance_follows_tiers() {
        let c = tiered_cluster();
        assert_eq!(c.node_distance(3, 3), 0);
        assert_eq!(c.node_distance(0, 1), 1); // same leaf group
        assert_eq!(c.node_distance(0, 3), 2); // differ at tier 0 only
        assert_eq!(c.node_distance(0, 7), 3); // cross-spine
        assert_eq!(c.locality_levels(), 4);
        let flat = cluster();
        assert_eq!(flat.node_distance(0, 1), 1);
        assert_eq!(flat.locality_levels(), 2);
    }

    #[test]
    fn bisection_narrows_with_tiers() {
        // Flat 2-node: limited by one node's two NICs.
        let flat = cluster();
        assert_eq!(flat.bisection_bandwidth().unwrap(), 2.0 * 0.93 * 25e9);
        // Tiered: the spine tier (8:1 vs the half's NIC aggregate) binds.
        let c = tiered_cluster();
        assert_eq!(
            c.bisection_bandwidth().unwrap(),
            4.0 * 2.0 * 0.93 * 25e9 / 4.0
        );
        // Single node: no cut.
        let one = Cluster::new(ClusterSpec::default().with_nodes(1)).unwrap();
        assert!(one.bisection_bandwidth().is_none());
    }

    #[test]
    fn describe_renders_tiers_and_summarizes_nodes() {
        let tiered = tiered_cluster();
        let d = tiered.describe();
        assert!(d.contains("fabric tier 0"), "{d}");
        assert!(d.contains("fabric tier 1"), "{d}");
        assert!(d.contains("oversubscribed"), "{d}");
        assert!(d.contains("bisection"), "{d}");
        assert!(d.contains("... 6 more identical node(s)"), "{d}");
        let flat_cluster = cluster();
        let flat = flat_cluster.describe();
        assert!(flat.contains("single non-blocking switch"), "{flat}");
    }

    #[test]
    fn pair_capacity_classes() {
        let spec = ClusterSpec::default();
        assert_eq!(
            Cluster::pair_capacity(&spec, SerdesSet::PcieGpu(0), SerdesSet::PcieNic),
            spec.iod.pcie_pcie
        );
        assert_eq!(
            Cluster::pair_capacity(&spec, SerdesSet::PcieGpu(1), SerdesSet::Xgmi),
            spec.iod.pcie_gpu_xgmi
        );
        assert_eq!(
            Cluster::pair_capacity(&spec, SerdesSet::Xgmi, SerdesSet::PcieNic),
            spec.iod.xgmi_pcie_io
        );
    }
}
