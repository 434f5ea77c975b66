//! Parameterized cluster-topology generators.
//!
//! The paper's testbed is two nodes on one switch; production clusters are
//! thousands of GPUs behind multi-tier fabrics. A [`TopologySpec`] is a
//! small, named generator that *lowers* into the existing
//! [`ClusterSpec`]/[`Cluster`](crate::Cluster) route model: nodes keep the
//! XE8545 internals (sockets, xGMI, PCIe, NVLink, IOD contention), while
//! the generator decides how many nodes exist and what aggregation tiers
//! ([`FabricSpec`]) sit between their NICs.
//!
//! Three families are provided:
//!
//! * [`TopologySpec::Flat`] — N paper-style nodes on one non-blocking
//!   switch. `Flat { nodes: 2 }` (the default) lowers to exactly
//!   [`ClusterSpec::default`], so everything built on the golden paper
//!   configs is unchanged byte for byte.
//! * [`TopologySpec::FatTree`] — racks of nodes behind rail-optimized
//!   top-of-rack uplinks with a configurable oversubscription ratio
//!   (1.0 = full bisection, 2.0 = half, ...).
//! * [`TopologySpec::NvlinkIslands`] — NVLink islands (nodes with a wider
//!   all-to-all NVLink mesh) grouped into pods behind pod uplinks, pods
//!   joined by a two-half spine; pod and spine oversubscription are
//!   independent knobs.
//!
//! ```
//! use zerosim_hw::{Cluster, TopologySpec};
//!
//! let topo = TopologySpec::FatTree { racks: 4, nodes_per_rack: 2, oversubscription: 2.0 };
//! let cluster = Cluster::new(topo.build().unwrap()).unwrap();
//! assert_eq!(cluster.spec().nodes, 8);
//! assert_eq!(
//!     cluster.bisection_bandwidth().unwrap(),
//!     topo.bisection_bandwidth().unwrap(),
//! );
//! ```

use std::fmt;

use crate::spec::{ClusterSpec, FabricSpec, FabricTier};

/// A named, parameterized cluster topology that lowers to a
/// [`ClusterSpec`]: flat switches, fat trees, or NVLink-island pods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// N paper-style nodes on a single non-blocking switch.
    Flat {
        /// Number of nodes.
        nodes: usize,
    },
    /// Racks of paper-style nodes behind oversubscribed ToR uplinks.
    FatTree {
        /// Number of racks.
        racks: usize,
        /// Nodes per rack.
        nodes_per_rack: usize,
        /// Ratio of the rack's NIC aggregate to its uplink capacity
        /// (1.0 = non-blocking).
        oversubscription: f64,
    },
    /// NVLink islands in pods over a two-half spine.
    NvlinkIslands {
        /// Number of pods (must be even so the spine has two halves).
        pods: usize,
        /// Islands (nodes) per pod.
        islands_per_pod: usize,
        /// GPUs per island (all-to-all NVLink inside the island; must be a
        /// positive multiple of [`ClusterSpec::SOCKETS_PER_NODE`]).
        gpus_per_island: usize,
        /// Pod-uplink oversubscription against the pod's NIC aggregate.
        pod_oversubscription: f64,
        /// Spine oversubscription against one half's pod-uplink aggregate.
        spine_oversubscription: f64,
    },
}

impl Default for TopologySpec {
    /// The paper's testbed: two flat nodes.
    fn default() -> Self {
        TopologySpec::Flat { nodes: 2 }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Flat { nodes } => write!(f, "flat:{nodes}"),
            TopologySpec::FatTree {
                racks,
                nodes_per_rack,
                oversubscription,
            } => write!(f, "fat-tree:{racks}x{nodes_per_rack}:{oversubscription}"),
            TopologySpec::NvlinkIslands {
                pods,
                islands_per_pod,
                gpus_per_island,
                pod_oversubscription,
                spine_oversubscription,
            } => write!(
                f,
                "pods:{pods}x{islands_per_pod}x{gpus_per_island}:{pod_oversubscription}:{spine_oversubscription}"
            ),
        }
    }
}

impl TopologySpec {
    /// Most GPUs a generated cluster may have: 8× the largest in-tree
    /// topology (128 GPUs), which leaves room for 256-GPU studies.
    /// [`TopologySpec::build`] rejects anything larger before a single
    /// link is built.
    pub const MAX_GPUS: usize = 1024;

    /// Number of nodes this topology generates (saturating at
    /// `usize::MAX` for absurd dimensions).
    pub fn nodes(&self) -> usize {
        match self {
            TopologySpec::Flat { nodes } => *nodes,
            TopologySpec::FatTree {
                racks,
                nodes_per_rack,
                ..
            } => racks.saturating_mul(*nodes_per_rack),
            TopologySpec::NvlinkIslands {
                pods,
                islands_per_pod,
                ..
            } => pods.saturating_mul(*islands_per_pod),
        }
    }

    /// GPUs per node this topology generates.
    pub fn gpus_per_node(&self) -> usize {
        match self {
            TopologySpec::NvlinkIslands {
                gpus_per_island, ..
            } => *gpus_per_island,
            _ => ClusterSpec::default().gpus_per_node,
        }
    }

    /// Total GPUs this topology generates (saturating, like
    /// [`TopologySpec::nodes`]).
    pub fn total_gpus(&self) -> usize {
        self.nodes().saturating_mul(self.gpus_per_node())
    }

    /// Lowers the topology into a full [`ClusterSpec`] (paper defaults for
    /// everything inside a node).
    ///
    /// # Errors
    /// Returns a human-readable description of the first invalid
    /// parameter (more than [`TopologySpec::MAX_GPUS`] GPUs, zero counts,
    /// odd pod counts, oversubscription < 1, ...).
    pub fn build(&self) -> Result<ClusterSpec, String> {
        if self.total_gpus() > Self::MAX_GPUS {
            return Err(format!(
                "topology {self} has more than {} GPUs",
                Self::MAX_GPUS
            ));
        }
        let base = ClusterSpec::default();
        let nic_dir = base.bw.roce_dir;
        let switch_lat = base.lat.roce_s;
        let spn = ClusterSpec::SOCKETS_PER_NODE;
        let spec = match *self {
            TopologySpec::Flat { nodes } => base.with_nodes(nodes),
            TopologySpec::FatTree {
                racks,
                nodes_per_rack,
                oversubscription,
            } => {
                if racks == 0 || nodes_per_rack < 2 {
                    return Err("fat-tree needs at least 1 rack of 2 nodes".into());
                }
                check_oversub("rack", oversubscription)?;
                let rack_aggregate = (nodes_per_rack * spn) as f64 * nic_dir;
                base.with_nodes(racks * nodes_per_rack)
                    .with_fabric(FabricSpec {
                        tiers: vec![FabricTier {
                            nodes_per_group: nodes_per_rack,
                            up_bytes_per_s: rack_aggregate / oversubscription,
                            latency_s: switch_lat,
                        }],
                    })
            }
            TopologySpec::NvlinkIslands {
                pods,
                islands_per_pod,
                gpus_per_island,
                pod_oversubscription,
                spine_oversubscription,
            } => {
                if pods < 2 || !pods.is_multiple_of(2) {
                    return Err(format!("pods must be even and >= 2 (got {pods})"));
                }
                if islands_per_pod < 2 {
                    return Err("need at least 2 islands per pod".into());
                }
                check_oversub("pod", pod_oversubscription)?;
                check_oversub("spine", spine_oversubscription)?;
                let nodes = pods * islands_per_pod;
                let pod_aggregate = (islands_per_pod * spn) as f64 * nic_dir;
                let pod_up = pod_aggregate / pod_oversubscription;
                let half_pods = pods / 2;
                base.with_nodes(nodes)
                    .with_gpus_per_node(gpus_per_island)
                    .with_fabric(FabricSpec {
                        tiers: vec![
                            FabricTier {
                                nodes_per_group: islands_per_pod,
                                up_bytes_per_s: pod_up,
                                latency_s: switch_lat,
                            },
                            FabricTier {
                                nodes_per_group: half_pods * islands_per_pod,
                                up_bytes_per_s: half_pods as f64 * pod_up / spine_oversubscription,
                                latency_s: 2.0 * switch_lat,
                            },
                        ],
                    })
            }
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Closed-form one-direction bandwidth across the contiguous even node
    /// bisection, from the generator's own parameters. The lowered
    /// [`Cluster::bisection_bandwidth`](crate::Cluster::bisection_bandwidth)
    /// must agree exactly — that equality is the generator's conformance
    /// property.
    ///
    /// Returns `None` for single-node topologies.
    pub fn bisection_bandwidth(&self) -> Option<f64> {
        let base = ClusterSpec::default();
        let nic_dir = base.bw.roce_dir;
        let spn = ClusterSpec::SOCKETS_PER_NODE as f64;
        let half = self.nodes() / 2;
        if half == 0 {
            return None;
        }
        let nic_cut = half as f64 * spn * nic_dir;
        Some(match *self {
            TopologySpec::Flat { .. } => nic_cut,
            TopologySpec::FatTree {
                nodes_per_rack,
                oversubscription,
                ..
            } => {
                let rack_up = (nodes_per_rack as f64) * spn * nic_dir / oversubscription;
                let racks_in_half = half / nodes_per_rack;
                if racks_in_half == 0 {
                    // Single rack: the cut stays under one ToR.
                    nic_cut
                } else {
                    nic_cut.min(racks_in_half as f64 * rack_up)
                }
            }
            TopologySpec::NvlinkIslands {
                pods,
                islands_per_pod,
                pod_oversubscription,
                spine_oversubscription,
                ..
            } => {
                let pod_up = (islands_per_pod as f64) * spn * nic_dir / pod_oversubscription;
                let half_pods = (pods / 2) as f64;
                nic_cut
                    .min(half_pods * pod_up)
                    .min(half_pods * pod_up / spine_oversubscription)
            }
        })
    }

    /// Parses the compact CLI syntax used by `planlint --topology` and
    /// `planfind --topology`:
    ///
    /// * `paper` — the two-node testbed ([`TopologySpec::default`]);
    /// * `flat:<nodes>`;
    /// * `fat-tree:<racks>x<nodes_per_rack>:<oversub>`;
    /// * `pods:<pods>x<islands>x<gpus>:<pod_oversub>:<spine_oversub>`.
    ///
    /// A topology must have at most [`TopologySpec::MAX_GPUS`] (1,024)
    /// GPUs; generated fabrics use at most 2 of the
    /// [`FabricSpec::MAX_TIERS`] tiers a cluster may have.
    ///
    /// # Errors
    /// Returns a usage-style description of the malformed field, or of
    /// the first invalid parameter [`TopologySpec::build`] finds.
    pub fn parse(s: &str) -> Result<Self, String> {
        let fields: Vec<&str> = s.split(':').collect();
        let topo = match fields[0] {
            "paper" => TopologySpec::default(),
            "flat" => TopologySpec::Flat {
                nodes: parse_count(fields.get(1), "flat:<nodes>")?,
            },
            "fat-tree" => {
                let dims = parse_dims(
                    fields.get(1),
                    2,
                    "fat-tree:<racks>x<nodes_per_rack>:<oversub>",
                )?;
                TopologySpec::FatTree {
                    racks: dims[0],
                    nodes_per_rack: dims[1],
                    oversubscription: parse_ratio(fields.get(2), "fat-tree oversubscription")?,
                }
            }
            "pods" => {
                let dims = parse_dims(
                    fields.get(1),
                    3,
                    "pods:<pods>x<islands>x<gpus>:<pod>:<spine>",
                )?;
                TopologySpec::NvlinkIslands {
                    pods: dims[0],
                    islands_per_pod: dims[1],
                    gpus_per_island: dims[2],
                    pod_oversubscription: parse_ratio(fields.get(2), "pod oversubscription")?,
                    spine_oversubscription: parse_ratio(fields.get(3), "spine oversubscription")?,
                }
            }
            other => {
                return Err(format!(
                    "unknown topology family '{other}' (expected paper, flat, fat-tree, or pods)"
                ))
            }
        };
        // Surface parameter errors at parse time so CLIs fail fast.
        topo.build()?;
        Ok(topo)
    }
}

fn check_oversub(what: &str, ratio: f64) -> Result<(), String> {
    if !ratio.is_finite() || ratio < 1.0 {
        return Err(format!(
            "{what} oversubscription must be >= 1.0 (got {ratio})"
        ));
    }
    Ok(())
}

fn parse_count(field: Option<&&str>, usage: &str) -> Result<usize, String> {
    field
        .and_then(|f| f.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .ok_or_else(|| format!("expected {usage}"))
}

fn parse_dims(field: Option<&&str>, want: usize, usage: &str) -> Result<Vec<usize>, String> {
    let dims: Vec<usize> = field
        .map(|f| {
            f.split('x')
                .filter_map(|d| d.parse::<usize>().ok())
                .collect()
        })
        .unwrap_or_default();
    if dims.len() != want || dims.contains(&0) {
        return Err(format!("expected {usage}"));
    }
    Ok(dims)
}

fn parse_ratio(field: Option<&&str>, what: &str) -> Result<f64, String> {
    let r = field
        .and_then(|f| f.parse::<f64>().ok())
        .ok_or_else(|| format!("expected a numeric {what}"))?;
    check_oversub(what, r)?;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;

    #[test]
    fn default_lowers_to_the_paper_testbed() {
        let spec = TopologySpec::default().build().unwrap();
        assert_eq!(spec, ClusterSpec::default());
    }

    #[test]
    fn flat_scales_node_count_only() {
        let spec = TopologySpec::Flat { nodes: 16 }.build().unwrap();
        assert_eq!(spec.nodes, 16);
        assert!(spec.fabric.is_flat());
        assert_eq!(spec.gpus_per_node, 4);
    }

    #[test]
    fn fat_tree_oversubscription_sets_uplinks() {
        let topo = TopologySpec::FatTree {
            racks: 4,
            nodes_per_rack: 4,
            oversubscription: 2.0,
        };
        let spec = topo.build().unwrap();
        assert_eq!(spec.nodes, 16);
        assert_eq!(spec.fabric.tiers.len(), 1);
        let tier = spec.fabric.tiers[0];
        assert_eq!(tier.nodes_per_group, 4);
        // 4 nodes × 2 NICs × roce / 2.
        assert_eq!(tier.up_bytes_per_s, 4.0 * 2.0 * 0.93 * 25e9 / 2.0);
    }

    #[test]
    fn nvlink_islands_build_two_tiers() {
        let topo = TopologySpec::NvlinkIslands {
            pods: 4,
            islands_per_pod: 4,
            gpus_per_island: 8,
            pod_oversubscription: 2.0,
            spine_oversubscription: 2.0,
        };
        let spec = topo.build().unwrap();
        assert_eq!(spec.nodes, 16);
        assert_eq!(spec.gpus_per_node, 8);
        assert_eq!(spec.fabric.tiers.len(), 2);
        assert_eq!(spec.fabric.tiers[0].nodes_per_group, 4);
        assert_eq!(spec.fabric.tiers[1].nodes_per_group, 8);
        assert_eq!(topo.total_gpus(), 128);
    }

    #[test]
    fn bisection_closed_forms_match_lowered_clusters() {
        let topos = [
            TopologySpec::default(),
            TopologySpec::Flat { nodes: 8 },
            TopologySpec::FatTree {
                racks: 4,
                nodes_per_rack: 2,
                oversubscription: 4.0,
            },
            TopologySpec::FatTree {
                racks: 2,
                nodes_per_rack: 8,
                oversubscription: 1.0,
            },
            TopologySpec::NvlinkIslands {
                pods: 2,
                islands_per_pod: 4,
                gpus_per_island: 8,
                pod_oversubscription: 1.0,
                spine_oversubscription: 4.0,
            },
        ];
        for topo in topos {
            let cluster = Cluster::new(topo.build().unwrap()).unwrap();
            assert_eq!(
                cluster.bisection_bandwidth(),
                topo.bisection_bandwidth(),
                "{topo}"
            );
        }
    }

    #[test]
    fn parse_round_trips_display() {
        for s in ["flat:4", "fat-tree:4x2:2", "pods:2x4x8:1.5:4"] {
            let topo = TopologySpec::parse(s).unwrap();
            let again = TopologySpec::parse(&topo.to_string()).unwrap();
            assert_eq!(topo, again, "{s}");
        }
        assert_eq!(
            TopologySpec::parse("paper").unwrap(),
            TopologySpec::default()
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for s in [
            "mesh:4",
            "flat:0",
            "flat:x",
            "fat-tree:4x2",
            "fat-tree:4x2:0.5",
            "pods:3x4x8:2:2", // odd pod count
            "pods:2x4x7:2:2", // odd GPUs per island
        ] {
            assert!(TopologySpec::parse(s).is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn size_limit_is_1024_gpus() {
        // 256 nodes × 4 GPUs sits exactly at the limit; one more node
        // does not, and neither do dimensions whose product overflows.
        assert_eq!(TopologySpec::parse("flat:256").unwrap().total_gpus(), 1024);
        for s in [
            "flat:257",
            "flat:100000",
            "pods:64x64x64:2:2",
            "fat-tree:18446744073709551615x2:1",
        ] {
            let err = TopologySpec::parse(s).unwrap_err();
            assert!(err.contains("more than 1024 GPUs"), "{s}: {err}");
        }
    }
}
