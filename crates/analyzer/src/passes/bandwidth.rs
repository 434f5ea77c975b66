//! ZL004 — bandwidth feasibility and wire- vs protocol-bound link
//! classification.
//!
//! Walks the transfer tasks of the lowered DAG and aggregates per-link
//! demand: every [`TaskKind::Transfer`] adds its bytes and its per-flow
//! cap to each link of its route. The DAG is what the simulator runs, so
//! the pass sees exactly the flows the engine starts. That covers the
//! collective schedule `zerosim-collectives` picked (flat ring, coalesced
//! or hierarchical, and which NIC each ring crosses), `hw`'s tier-transfer
//! routes and the striped volume I/O. Lowering has already shrunk each
//! codec-carrying op to its encoded wire size, so a qwZ/qgZ plan's
//! inter-node volume drops below plain ZeRO-3's here without the pass
//! knowing about codecs. Each loaded link is then classified:
//! **wire-bound** when the physical rate is the binding constraint, or
//! **protocol-bound** when a per-flow engine-efficiency ceiling (the
//! paper's DeepSpeed/NCCL caps) binds below the wire — statically
//! reproducing the paper's headline observation that the RoCE fabric is
//! protocol-bound for ZeRO while NVLink stays wire-bound.
//!
//! The pass denies nothing: `DagBuilder` refuses empty routes and
//! non-positive sizes and caps, and `ClusterSpec::validate` keeps every
//! link rate finite and positive. Its one finding is the dark-wire
//! advisory.

use zerosim_simkit::{LinkId, TaskKind};

use crate::diag::{LintCode, Severity, Site};
use crate::pass::{Artifacts, BoundKind, LinkVerdict, Pass, Sink};

/// ZL004 (see module docs).
#[derive(Debug)]
pub struct BandwidthFeasibilityPass;

/// Attainment (per-flow cap / wire rate) below which a protocol-bound
/// link is advisory-flagged: the wire is effectively dark. Only the
/// *bottleneck-wire* hop of a route is judged — the paper's worst
/// calibrated engine (ZeRO-3 at 0.85 GB/s over 23.25 GB/s RoCE) attains
/// ~3.7% on the RoCE bottleneck, so golden configs sit above this line.
const DARK_WIRE_ATTAINMENT: f64 = 0.02;

#[derive(Debug, Clone, Copy)]
struct Load {
    demand_bytes: f64,
    flows: usize,
    flow_cap: f64,
    /// True when some flow's slowest *wire* is this link — the dark-wire
    /// advisory only makes sense there. The fast intra-node hops of an
    /// inter-node route are always far below their wire rate; that is
    /// the bottleneck's fault, not a protocol problem on the fast hop.
    route_bottleneck: bool,
}

impl Load {
    const IDLE: Load = Load {
        demand_bytes: 0.0,
        flows: 0,
        flow_cap: f64::INFINITY,
        route_bottleneck: false,
    };
}

impl Pass for BandwidthFeasibilityPass {
    fn code(&self) -> LintCode {
        LintCode::BandwidthFeasibility
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(dag) = art.dag else {
            return;
        };
        let net = art.cluster.net();
        // Dense by link index; `loaded` names the links in first-touch
        // order.
        let mut loads = vec![Load::IDLE; net.link_count()];
        let mut loaded: Vec<LinkId> = Vec::new();
        for id in dag.task_ids() {
            let TaskKind::Transfer {
                route, bytes, cap, ..
            } = dag.task(id).kind
            else {
                continue;
            };
            let links = dag.route(route);
            let min_wire = links
                .iter()
                .map(|l| net.link_capacity(*l))
                .fold(f64::INFINITY, f64::min);
            for &link in links {
                let wire = net.link_capacity(link);
                let load = &mut loads[link.index()];
                if load.flows == 0 {
                    loaded.push(link);
                }
                load.demand_bytes += bytes;
                load.flows += 1;
                load.flow_cap = load.flow_cap.min(cap);
                // Tolerant equality: equal-capacity wires are all bottlenecks.
                load.route_bottleneck |= wire <= min_wire * (1.0 + 1e-9);
            }
        }

        // Classify every loaded link; hottest first so the verdict order
        // can be cross-checked against the simulated hot-link ranking.
        loaded.sort_by(|a, b| {
            loads[b.index()]
                .demand_bytes
                .partial_cmp(&loads[a.index()].demand_bytes)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index().cmp(&b.index()))
        });
        for link in loaded {
            let load = loads[link.index()];
            let wire = net.link_capacity(link);
            let name = net.link_name(link).to_string();
            let bound = if load.flow_cap < wire {
                BoundKind::Protocol
            } else {
                BoundKind::Wire
            };
            if bound == BoundKind::Protocol && load.route_bottleneck {
                let attainment = load.flow_cap / wire;
                if attainment < DARK_WIRE_ATTAINMENT {
                    sink.report_at_most(
                        LintCode::BandwidthFeasibility,
                        Severity::Warning,
                        Site::Link(name.clone()),
                        format!(
                            "per-flow cap {:.2} GB/s attains only {:.1}% of the {:.2} GB/s wire",
                            load.flow_cap / 1e9,
                            attainment * 100.0,
                            wire / 1e9
                        ),
                        "the protocol ceiling leaves the wire dark; raise the engine \
                         efficiency or use fewer, larger flows"
                            .to_string(),
                    );
                }
            }
            sink.push_link_verdict(LinkVerdict {
                name,
                wire_capacity: wire,
                flow_cap: load.flow_cap,
                demand_bytes: load.demand_bytes,
                flows: load.flows,
                bound,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use crate::pass::{AnalysisReport, PassManager};
    use zerosim_collectives::{CollectiveKind, CommGroup};
    use zerosim_hw::{Cluster, ClusterSpec, GpuId, IoDir, NvmeId, SocketId};
    use zerosim_strategies::{
        lower, Calibration, OptimizerDevice, PhaseStage, PlanOp, WorkloadPlan,
    };

    /// `op` in `stage`, feeding the iteration's optimizer step: the
    /// smallest plan `lower` accepts around one transfer-class op.
    fn feeding_the_step(stage: PhaseStage, op: PlanOp) -> WorkloadPlan {
        let mut plan = WorkloadPlan::new();
        plan.set_phase(stage, 0);
        let o = plan.push(op, &[]);
        plan.set_phase(PhaseStage::Step, 0);
        plan.push(
            PlanOp::OptimizerStep {
                device: OptimizerDevice::Gpu(GpuId { node: 0, gpu: 0 }),
                params: 1e9,
            },
            &[o],
        );
        plan
    }

    fn run(cluster: &Cluster, plan: &WorkloadPlan) -> AnalysisReport {
        let lowered = lower(plan, cluster, &Calibration::default()).unwrap();
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(BandwidthFeasibilityPass));
        pm.run(&Artifacts::new(cluster).with_dag(lowered.dag()))
    }

    #[test]
    fn single_node_allreduce_is_wire_bound_on_nvlink() {
        let cluster = Cluster::new(ClusterSpec::default().with_nodes(1)).unwrap();
        let plan = feeding_the_step(
            PhaseStage::Backward,
            PlanOp::Collective {
                kind: CollectiveKind::AllReduce,
                group: CommGroup::world(&cluster),
                bytes: 2.8e9,
                cap: f64::INFINITY,
            },
        );
        let r = run(&cluster, &plan);
        assert!(r.is_clean());
        assert!(!r.links.is_empty());
        for v in &r.links {
            assert_eq!(v.bound, BoundKind::Wire, "{}", v.name);
            assert!(v.name.contains("nvlink"), "{}", v.name);
        }
    }

    #[test]
    fn capped_internode_collective_is_protocol_bound_on_roce() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let plan = feeding_the_step(
            PhaseStage::Backward,
            PlanOp::Collective {
                kind: CollectiveKind::AllReduce,
                group: CommGroup::world(&cluster),
                bytes: 2.8e9,
                cap: 1.3e9, // DeepSpeed engine efficiency
            },
        );
        let r = run(&cluster, &plan);
        assert!(r.is_clean(), "{}", r.render_text());
        let roce: Vec<&LinkVerdict> = r.links.iter().filter(|v| v.name.contains("roce")).collect();
        assert!(!roce.is_empty());
        for v in roce {
            assert_eq!(v.bound, BoundKind::Protocol, "{}", v.name);
            assert!(v.flow_cap <= 1.3e9);
        }
        // Intra-node NVLink hops of the same collective stay wire-bound.
        assert!(r
            .links
            .iter()
            .filter(|v| v.name.contains("nvlink"))
            .all(|v| v.bound == BoundKind::Wire));
    }

    #[test]
    fn volume_io_loads_both_drives() {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let v = cluster.create_volume(vec![
            NvmeId { node: 0, drive: 0 },
            NvmeId { node: 0, drive: 1 },
        ]);
        let plan = feeding_the_step(
            PhaseStage::Step,
            PlanOp::VolumeIo {
                volume: v,
                socket: SocketId { node: 0, socket: 1 },
                dir: IoDir::Write,
                bytes: 8e9,
                label: "nvme_write",
                track: 0,
            },
        );
        let r = run(&cluster, &plan);
        assert!(r.is_clean());
        let dev: Vec<&LinkVerdict> = r
            .links
            .iter()
            .filter(|l| l.name.contains("dev.w"))
            .collect();
        assert_eq!(dev.len(), 2);
        for d in dev {
            assert!((d.demand_bytes - 4e9).abs() < 1.0);
            assert_eq!(d.flows, 1, "one striped flow per drive");
        }
    }
}
