//! Bandwidth stress tests (Sec. III-C2/3, Fig. 4): four bidirectional
//! test kernels hammer the inter-node path while every interconnect is
//! sampled.

use std::collections::BTreeMap;

use zerosim_hw::{Cluster, ClusterSpec, GpuId, LinkClass, SocketId};
use zerosim_simkit::{BandwidthRecorder, BandwidthStats, DagBuilder, DagEngine, SimTime, TaskId};

/// Which stress scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StressScenario {
    /// Four CPU kernels (two per socket) exercising CPU-memory RoCE.
    CpuRoce {
        /// Use the neighbouring CPU's NIC.
        cross_socket: bool,
    },
    /// Four GPUDirect kernels (one per GPU) exercising GPU-memory RoCE.
    GpuRoce {
        /// Use the neighbouring CPU's NIC.
        cross_socket: bool,
    },
}

impl StressScenario {
    /// Display name matching Fig. 4's panels.
    pub fn label(&self) -> String {
        match self {
            StressScenario::CpuRoce { cross_socket } => format!(
                "CPU-RoCE ({}-socket)",
                if *cross_socket { "cross" } else { "same" }
            ),
            StressScenario::GpuRoce { cross_socket } => format!(
                "GPU-RoCE ({}-socket)",
                if *cross_socket { "cross" } else { "same" }
            ),
        }
    }
}

/// Result of one stress run.
#[derive(Debug, Clone)]
pub struct StressOutcome {
    /// Scenario that produced this outcome.
    pub scenario: StressScenario,
    /// Average/p90/peak bytes-per-second per interconnect class (node 0).
    pub per_class: BTreeMap<LinkClass, BandwidthStats>,
    /// Attained node-aggregate bidirectional RoCE bandwidth as a fraction
    /// of the theoretical 2 NICs × 50 GBps.
    pub roce_fraction: f64,
}

impl StressOutcome {
    /// Stats of one class (zeros when the class was idle).
    pub fn class(&self, class: LinkClass) -> BandwidthStats {
        self.per_class.get(&class).copied().unwrap_or_default()
    }
}

/// Bytes each kernel pushes per direction.
const KERNEL_BYTES: f64 = 40e9;
/// Transfers the kernel is chopped into (sustains pressure, lets the
/// sampler see a steady pattern).
const KERNEL_CHUNKS: usize = 10;

/// Runs `scenario` on a fresh default (two-node) cluster.
pub fn stress_test(scenario: StressScenario) -> StressOutcome {
    stress_test_on(&ClusterSpec::default(), scenario)
}

/// Runs `scenario` on a cluster built from `spec`.
///
/// # Panics
/// Panics if `spec` has fewer than two nodes.
pub fn stress_test_on(spec: &ClusterSpec, scenario: StressScenario) -> StressOutcome {
    assert!(spec.nodes >= 2, "stress test needs two nodes");
    let mut cluster = Cluster::new(spec.clone()).expect("valid spec");
    let mut dag = DagBuilder::new();

    // Each kernel: a chain of chunk transfers in each direction.
    let emit_chain = |dag: &mut DagBuilder, route: zerosim_hw::Route, track: u32| {
        let mut prev: Option<TaskId> = None;
        for _ in 0..KERNEL_CHUNKS {
            let t = dag.transfer_capped(
                route.links(),
                KERNEL_BYTES / KERNEL_CHUNKS as f64,
                route.latency,
                route.cap,
                "stress",
                track,
                prev.as_slice(),
            );
            prev = Some(t);
        }
    };

    match scenario {
        StressScenario::CpuRoce { cross_socket } => {
            for socket in 0..ClusterSpec::SOCKETS_PER_NODE {
                let nic = if cross_socket { 1 - socket } else { socket };
                let a = SocketId { node: 0, socket };
                let b = SocketId { node: 1, socket };
                // Two kernels per CPU, each bidirectional.
                for k in 0..2 {
                    let fwd = cluster.route_internode_cpu_via(a, b, nic, nic);
                    let rev = cluster.route_internode_cpu_via(b, a, nic, nic);
                    // Track ids are tiny (sockets x kernels).
                    #[allow(clippy::cast_possible_truncation)]
                    let track = (socket * 2 + k) as u32;
                    emit_chain(&mut dag, fwd, track);
                    emit_chain(&mut dag, rev, track);
                }
            }
        }
        StressScenario::GpuRoce { cross_socket } => {
            for gpu in 0..spec.gpus_per_node {
                let a = GpuId { node: 0, gpu };
                let b = GpuId { node: 1, gpu };
                let socket = cluster.gpu_socket(a).socket;
                let nic = if cross_socket { 1 - socket } else { socket };
                let fwd = cluster.route_internode_gpu(a, b, nic, nic);
                let rev = cluster.route_internode_gpu(b, a, nic, nic);
                // Track ids are tiny (one per GPU).
                #[allow(clippy::cast_possible_truncation)]
                let track = gpu as u32;
                emit_chain(&mut dag, fwd, track);
                emit_chain(&mut dag, rev, track);
            }
        }
    }

    let dag = dag.build();
    let mut rec = BandwidthRecorder::new(SimTime::from_ms(100.0));
    let mut engine = DagEngine::new(cluster.resource_slots());
    engine
        .run(cluster.net_mut(), &dag, SimTime::ZERO, Some(&mut rec))
        .expect("stress DAG cannot deadlock");

    let mut per_class = BTreeMap::new();
    for class in [
        LinkClass::Dram,
        LinkClass::Xgmi,
        LinkClass::PcieGpu,
        LinkClass::PcieNic,
        LinkClass::Roce,
    ] {
        per_class.insert(class, rec.stats(cluster.links(0, class)));
    }
    let theoretical = 2.0 * 2.0 * 25e9; // 2 NICs × 50 GBps bidirectional
    let roce_fraction = per_class[&LinkClass::Roce].avg / theoretical;

    StressOutcome {
        scenario,
        per_class,
        roce_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_socket_cpu_roce_attains_93_percent() {
        let out = stress_test(StressScenario::CpuRoce {
            cross_socket: false,
        });
        assert!(
            (out.roce_fraction - 0.93).abs() < 0.03,
            "attained {:.1}% of theoretical RoCE",
            out.roce_fraction * 100.0
        );
        // DRAM carries the payload on both ends.
        assert!(out.class(LinkClass::Dram).avg > 10e9);
    }

    #[test]
    fn cross_socket_cpu_roce_attains_47_percent() {
        let out = stress_test(StressScenario::CpuRoce { cross_socket: true });
        assert!(
            (out.roce_fraction - 0.47).abs() < 0.04,
            "attained {:.1}%",
            out.roce_fraction * 100.0
        );
        // xGMI must be busy.
        assert!(out.class(LinkClass::Xgmi).avg > 5e9);
    }

    #[test]
    fn same_socket_gpu_roce_attains_52_percent() {
        let out = stress_test(StressScenario::GpuRoce {
            cross_socket: false,
        });
        assert!(
            (out.roce_fraction - 0.52).abs() < 0.04,
            "attained {:.1}%",
            out.roce_fraction * 100.0
        );
        // GPUDirect: no significant DRAM traffic (Sec. III-C3).
        assert!(out.class(LinkClass::Dram).avg < 1e9);
        assert!(out.class(LinkClass::PcieGpu).avg > 5e9);
    }

    #[test]
    fn cross_socket_gpu_roce_attains_42_percent() {
        let out = stress_test(StressScenario::GpuRoce { cross_socket: true });
        assert!(
            (out.roce_fraction - 0.42).abs() < 0.04,
            "attained {:.1}%",
            out.roce_fraction * 100.0
        );
        assert!(out.class(LinkClass::Xgmi).avg > 5e9);
    }

    #[test]
    fn labels() {
        assert_eq!(
            StressScenario::CpuRoce { cross_socket: true }.label(),
            "CPU-RoCE (cross-socket)"
        );
        assert_eq!(
            StressScenario::GpuRoce {
                cross_socket: false
            }
            .label(),
            "GPU-RoCE (same-socket)"
        );
    }
}
