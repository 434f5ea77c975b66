//! `zerosim-hw` — the simulated hardware testbed.
//!
//! Models the paper's cluster (two Dell PowerEdge XE8545 nodes, Sec. III-A)
//! as a [`zerosim_simkit::FlowNet`]: per-socket DRAM, xGMI, PCIe links to
//! GPUs / NICs / NVMe drives, per-pair NVLink meshes, RoCE uplinks through
//! the SN3700 switch, token-bucket NVMe devices, and the virtual
//! SerDes-pair links of the EPYC I/O-die contention model (Sec. III-C4).
//!
//! The central type is [`Cluster`]: build one from a [`ClusterSpec`]
//! (defaults = Tables II/III), then ask it for [`Route`]s between
//! [`MemLoc`]s and feed those routes into DAG transfer tasks.
//!
//! ```
//! use zerosim_hw::{Cluster, ClusterSpec, MemLoc, GpuId, SocketId};
//!
//! # fn main() -> Result<(), String> {
//! let cluster = Cluster::new(ClusterSpec::default().with_nodes(1))?;
//! let route = cluster.route(
//!     MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
//!     MemLoc::Cpu(SocketId { node: 0, socket: 0 }),
//! );
//! assert_eq!(route.hops(), 2); // PCIe + DRAM
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod error;
mod ids;
mod route;
mod spec;
mod topology;

pub use cluster::{Cluster, IoDir, NvmeVolume};
pub use error::HwError;
pub use ids::{GpuId, LinkClass, NicId, NodeId, NvmeId, SerdesSet, SocketId, VolumeId};
pub use route::{MemLoc, Route};
pub use spec::{
    ClusterSpec, FabricError, FabricSpec, FabricTier, IodModel, LatencyModel, LinkBandwidths,
    MemoryCapacities, NvmeDeviceModel, NvmeDrivePlacement,
};
pub use topology::TopologySpec;
