//! Memory locations and routes between them.
//!
//! A [`Route`] stores its links inline, in a fixed array sized by the
//! longest path a [`crate::Cluster`] can build (12 links plus 2 per fabric
//! tier, with at most [`FabricSpec::MAX_TIERS`] tiers). Routing therefore
//! allocates nothing; DAG builders copy the links into their DAG's link
//! arena.

use std::fmt;

use zerosim_simkit::{LinkId, SimTime};

use crate::ids::{GpuId, NvmeId, SocketId};
use crate::spec::FabricSpec;

/// A location data can live in (and be transferred between).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLoc {
    /// A GPU's HBM.
    Gpu(GpuId),
    /// A CPU socket's DRAM (NUMA-local).
    Cpu(SocketId),
    /// A scratch NVMe drive.
    Nvme(NvmeId),
}

impl MemLoc {
    /// The node this location belongs to.
    pub fn node(&self) -> usize {
        match self {
            MemLoc::Gpu(g) => g.node,
            MemLoc::Cpu(s) => s.node,
            MemLoc::Nvme(d) => d.node,
        }
    }
}

/// A concrete path through the simulated fabric.
///
/// Produced by [`crate::Cluster`] routing queries; consumed by DAG builders
/// as the `route`/`latency`/`cap` arguments of transfer tasks.
///
/// A route is a `Copy` value: its links live inline, in a fixed array of
/// [`Route::MAX_HOPS`] slots, so asking the cluster for a route never
/// allocates. Read them with [`Route::links`].
#[derive(Clone, Copy)]
pub struct Route {
    /// Links crossed, in order, in the first `len` slots. The unused tail
    /// repeats the first link, which keeps the array initialized without
    /// a placeholder id.
    links: [LinkId; Route::MAX_HOPS],
    len: usize,
    /// Total startup latency of the path.
    pub latency: SimTime,
    /// Per-flow rate ceiling (`f64::INFINITY` when uncapped).
    pub cap: f64,
}

impl Route {
    /// The longest route a [`crate::Cluster`] builds: a GPU-to-GPU
    /// inter-node path crossing the I/O die and xGMI on both sides
    /// (12 links) plus an uplink and a downlink per fabric tier.
    pub const MAX_HOPS: usize = 12 + 2 * FabricSpec::MAX_TIERS;

    /// Creates a route with no per-flow cap.
    ///
    /// # Panics
    /// Panics if `links` is empty or longer than [`Route::MAX_HOPS`].
    pub fn new(links: &[LinkId], latency: SimTime) -> Self {
        let (&first, rest) = links
            .split_first()
            .expect("a route crosses at least one link");
        let mut route = Route {
            links: [first; Route::MAX_HOPS],
            len: 1,
            latency,
            cap: f64::INFINITY,
        };
        for &l in rest {
            route.push(l);
        }
        route
    }

    /// Appends `link` to the path.
    ///
    /// # Panics
    /// Panics when the route already holds [`Route::MAX_HOPS`] links;
    /// [`FabricSpec::validate`] bounds the tier count so that no cluster
    /// route gets there.
    pub(crate) fn push(&mut self, link: LinkId) {
        assert!(
            self.len < Route::MAX_HOPS,
            "route longer than {} links",
            Route::MAX_HOPS
        );
        self.links[self.len] = link;
        self.len += 1;
    }

    /// Reverses the links crossed so far.
    pub(crate) fn reverse(&mut self) {
        self.links[..self.len].reverse();
    }

    /// Links crossed, in order.
    pub fn links(&self) -> &[LinkId] {
        &self.links[..self.len]
    }

    /// Number of links crossed.
    pub fn hops(&self) -> usize {
        self.len
    }
}

impl PartialEq for Route {
    fn eq(&self, other: &Self) -> bool {
        self.links() == other.links() && self.latency == other.latency && self.cap == other.cap
    }
}

impl fmt::Debug for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Route")
            .field("links", &self.links())
            .field("latency", &self.latency)
            .field("cap", &self.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memloc_node() {
        assert_eq!(MemLoc::Gpu(GpuId { node: 1, gpu: 2 }).node(), 1);
        assert_eq!(MemLoc::Cpu(SocketId { node: 0, socket: 1 }).node(), 0);
        assert_eq!(MemLoc::Nvme(NvmeId { node: 1, drive: 0 }).node(), 1);
    }

    #[test]
    fn route_basics() {
        let mut net = zerosim_simkit::FlowNet::new();
        let l = net.add_link("test", 1.0);
        let m = net.add_link("other", 1.0);
        let mut r = Route::new(&[l], SimTime::from_us(5.0));
        assert_eq!(r.hops(), 1);
        assert!(r.cap.is_infinite());
        r.push(m);
        assert_eq!(r.links(), &[l, m]);
        r.reverse();
        assert_eq!(r.links(), &[m, l]);
        assert_eq!(r, Route::new(&[m, l], SimTime::from_us(5.0)));
        assert_ne!(r, Route::new(&[m], SimTime::from_us(5.0)));
    }
}
