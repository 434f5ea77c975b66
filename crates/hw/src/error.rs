//! Typed errors for routing and volume queries.
//!
//! `hw` owns the answer to "can this endpoint pair be routed": the
//! `try_*` queries ([`crate::Cluster::try_route`],
//! [`crate::Cluster::try_volume_io_routes`]) return these errors, and
//! plan validation in `zerosim-strategies` calls them for every tier
//! transfer and volume I/O before a plan is lowered. The panicking
//! [`crate::Cluster::route`] family serves callers whose endpoints are
//! feasible by construction: lowering a validated plan, and the
//! collective schedules' rings.

use std::fmt;

use crate::ids::{NvmeId, VolumeId};
use crate::route::MemLoc;

/// A routing or volume query the hardware model cannot satisfy.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HwError {
    /// The endpoint combination has no modeled path (e.g. GPU↔NVMe
    /// without a host bounce, or NVMe↔NVMe).
    UnsupportedRoute {
        /// Source location.
        from: MemLoc,
        /// Destination location.
        to: MemLoc,
    },
    /// Source and destination are the same device.
    SelfRoute {
        /// The device routed to itself.
        at: MemLoc,
    },
    /// The endpoint pair must be intra-node (GPU↔CPU, CPU↔NVMe) but
    /// spans two nodes.
    CrossNode {
        /// Source location.
        from: MemLoc,
        /// Destination location.
        to: MemLoc,
    },
    /// The location references a node, GPU, socket, or drive the
    /// cluster does not have.
    OffCluster {
        /// The nonexistent location.
        loc: MemLoc,
    },
    /// The volume id was never registered.
    UnknownVolume {
        /// The unregistered id.
        volume: VolumeId,
    },
    /// A volume needs at least one member drive.
    EmptyVolume,
    /// A volume member references a drive the cluster does not have.
    UnknownDrive {
        /// The nonexistent member.
        drive: NvmeId,
    },
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::UnsupportedRoute { from, to } => {
                write!(f, "unsupported route {from:?} -> {to:?}")
            }
            HwError::SelfRoute { at } => {
                write!(f, "route from a GPU to itself ({at:?})")
            }
            HwError::CrossNode { from, to } => {
                write!(
                    f,
                    "cross-node route {from:?} -> {to:?} (GPU-CPU and NVMe routes are intra-node)"
                )
            }
            HwError::OffCluster { loc } => {
                write!(f, "memory location {loc:?} does not exist on this cluster")
            }
            HwError::UnknownVolume { volume } => write!(f, "unknown volume {volume:?}"),
            HwError::EmptyVolume => write!(f, "a volume needs at least one member"),
            HwError::UnknownDrive { drive } => {
                write!(f, "volume member {drive:?} does not exist")
            }
        }
    }
}

impl std::error::Error for HwError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GpuId;

    #[test]
    fn errors_render_the_legacy_panic_texts() {
        let g = MemLoc::Gpu(GpuId { node: 0, gpu: 0 });
        let n = MemLoc::Nvme(NvmeId { node: 0, drive: 0 });
        assert!(HwError::UnsupportedRoute { from: g, to: n }
            .to_string()
            .starts_with("unsupported route"));
        assert!(HwError::SelfRoute { at: g }
            .to_string()
            .contains("route from a GPU to itself"));
        assert_eq!(
            HwError::EmptyVolume.to_string(),
            "a volume needs at least one member"
        );
        assert!(HwError::UnknownDrive {
            drive: NvmeId { node: 9, drive: 9 }
        }
        .to_string()
        .contains("does not exist"));
    }
}
