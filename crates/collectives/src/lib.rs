//! `zerosim-collectives` — NCCL-like collective communication on the
//! simulated cluster.
//!
//! [`emit_collective`] expands a collective ([`CollectiveKind`]) into a
//! task fragment and picks its schedule: ring steps of concurrent chunk
//! flows over topology-aware routes ([`CommGroup`] orders ranks node-major
//! and uses one ring per NIC across nodes), coalesced for small chunks,
//! or the hierarchical intra-node + inter-node exchange for large
//! multi-node buffers. The schedule decides which links carry the bytes,
//! never how many: every schedule moves the ring's closed form,
//! `n · CollectiveKind::bytes_sent_per_rank(n, S)` over `n` ranks, so
//! volume accounting reads the closed form and only this crate knows
//! which schedule a collective gets.
//!
//! ```
//! use zerosim_collectives::{emit_collective, CollectiveKind, CommGroup};
//! use zerosim_hw::{Cluster, ClusterSpec};
//! use zerosim_simkit::{DagBuilder, DagEngine, SimTime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cluster = Cluster::new(ClusterSpec::default().with_nodes(1))?;
//! let group = CommGroup::world(&cluster);
//! let mut dag = DagBuilder::new();
//! let (kind, cap) = (CollectiveKind::AllReduce, f64::INFINITY);
//! emit_collective(&mut dag, &cluster, &group, kind, 100e6, &[], cap);
//! let mut engine = DagEngine::new(cluster.resource_slots());
//! let out = engine.run(cluster.net_mut(), &dag.build(), SimTime::ZERO, None)?;
//! assert!(out.makespan() > SimTime::ZERO);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod emit;
mod group;

pub use emit::{
    emit_collective, emit_collective_coalesced, emit_collective_hierarchical,
    emit_collective_stepwise, CollectiveHandle, CollectiveKind,
};
pub use group::{ring_route, CommGroup};
