//! ZL004 — bandwidth feasibility and wire- vs protocol-bound link
//! classification.
//!
//! Statically expands every flow-generating op (collectives along their
//! ring routes, tier transfers along `hw` routes, striped volume I/O)
//! and aggregates per-link demand. Each loaded link is then classified:
//! **wire-bound** when the physical rate is the binding constraint, or
//! **protocol-bound** when a per-flow engine-efficiency ceiling (the
//! paper's DeepSpeed/NCCL caps) binds below the wire — statically
//! reproducing the paper's headline observation that the RoCE fabric is
//! protocol-bound for ZeRO while NVLink stays wire-bound.
//!
//! Deny findings are *infeasibilities*: endpoints with no modeled path,
//! off-cluster collective ranks, or demand across a zero-capacity link.
//!
//! Codec-aware pricing: ops carrying a declared
//! [`zerosim_strategies::Codec`] put only `bytes x ratio` on the wire, so
//! demand is accumulated at the encoded size — this is how a qwZ/qgZ
//! plan's statically-reported inter-node volume drops below plain
//! ZeRO-3's without any change to the payload semantics.

use std::collections::HashMap;

use zerosim_collectives::ring_route;
use zerosim_hw::Cluster;
use zerosim_simkit::LinkId;
use zerosim_strategies::PlanOp;

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

#[derive(Debug, Default, Clone, Copy)]
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

/// Accumulates one flow's demand across its route. The per-flow cap and
/// the route's minimum wire capacity come from the caller so the
/// bottleneck hop can be identified.
fn add_route(
    loads: &mut HashMap<LinkId, Load>,
    cluster: &Cluster,
    links: &[LinkId],
    bytes: f64,
    cap: f64,
) {
    let min_wire = links
        .iter()
        .map(|l| cluster.net().link_capacity(*l))
        .fold(f64::INFINITY, f64::min);
    for link in links {
        let wire = cluster.net().link_capacity(*link);
        let e = loads.entry(*link).or_insert(Load {
            demand_bytes: 0.0,
            flows: 0,
            flow_cap: f64::INFINITY,
            route_bottleneck: false,
        });
        e.demand_bytes += bytes;
        e.flows += 1;
        e.flow_cap = e.flow_cap.min(cap);
        // Tolerant equality: equal-capacity wires are all bottlenecks.
        e.route_bottleneck |= wire <= min_wire * (1.0 + 1e-9);
    }
}

fn on_cluster(cluster: &Cluster, g: zerosim_hw::GpuId) -> bool {
    g.node < cluster.spec().nodes && g.gpu < cluster.spec().gpus_per_node
}

impl Pass for BandwidthFeasibilityPass {
    fn code(&self) -> LintCode {
        LintCode::BandwidthFeasibility
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(plan) = art.plan else {
            return;
        };
        let cluster = art.cluster;
        let mut loads: HashMap<LinkId, Load> = HashMap::new();

        for (i, node) in plan.nodes().iter().enumerate() {
            // Declared codecs shrink the wire volume to the encoded size.
            let ratio = plan.codec_ratio_at(i);
            match &node.op {
                PlanOp::Collective {
                    kind,
                    group,
                    bytes,
                    cap,
                } => {
                    let n = group.len();
                    if n <= 1 {
                        continue;
                    }
                    if let Some(bad) = group.ranks().iter().find(|g| !on_cluster(cluster, **g)) {
                        sink.report(
                            LintCode::BandwidthFeasibility,
                            Site::PlanOp(i),
                            format!("collective rank {bad:?} is not on the cluster"),
                            "collectives may only span GPUs the hardware model has".to_string(),
                        );
                        continue;
                    }
                    // Static ring model: each rank sends its wire share to
                    // its ring successor, split evenly across the rings.
                    let order = group.ring_order();
                    let rings = group.ring_count().max(1);
                    #[allow(clippy::cast_precision_loss)]
                    let per_ring = kind.bytes_sent_per_rank(n, *bytes * ratio) / rings as f64;
                    for w in 0..n {
                        let (a, b) = (order[w], order[(w + 1) % n]);
                        for ring in 0..rings {
                            let route = ring_route(cluster, a, b, ring, *cap);
                            add_route(&mut loads, cluster, route.links(), per_ring, route.cap);
                        }
                    }
                }
                PlanOp::TierTransfer {
                    src, dst, bytes, ..
                } => match cluster.try_route(*src, *dst) {
                    Ok(route) => {
                        let wire_bytes = (bytes * ratio).max(1.0);
                        add_route(&mut loads, cluster, route.links(), wire_bytes, route.cap);
                    }
                    Err(e) => sink.report(
                        LintCode::BandwidthFeasibility,
                        Site::PlanOp(i),
                        format!("transfer has no feasible route: {e}"),
                        "fix the endpoints or bounce through a supported tier".to_string(),
                    ),
                },
                PlanOp::VolumeIo {
                    volume,
                    socket,
                    dir,
                    bytes,
                    ..
                } => match cluster.try_volume_io_routes(*volume, *socket, *dir) {
                    Ok(routes) => {
                        #[allow(clippy::cast_precision_loss)]
                        let per_drive = (bytes * ratio / routes.len().max(1) as f64).max(1.0);
                        for route in &routes {
                            add_route(&mut loads, cluster, route.links(), per_drive, route.cap);
                        }
                    }
                    Err(e) => sink.report(
                        LintCode::BandwidthFeasibility,
                        Site::PlanOp(i),
                        format!("volume I/O has no feasible route: {e}"),
                        "register the volume on the issuing node".to_string(),
                    ),
                },
                _ => {}
            }
        }

        // Classify every loaded link; hottest first so the verdict order
        // can be cross-checked against the simulated hot-link ranking.
        let mut entries: Vec<(LinkId, Load)> = loads.into_iter().collect();
        entries.sort_by(|a, b| {
            b.1.demand_bytes
                .partial_cmp(&a.1.demand_bytes)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.index().cmp(&b.0.index()))
        });
        for (link, load) in entries {
            let wire = cluster.net().link_capacity(link);
            let name = cluster.net().link_name(link).to_string();
            if wire <= 0.0 {
                sink.report(
                    LintCode::BandwidthFeasibility,
                    Site::Link(name.clone()),
                    format!(
                        "plan pushes {:.2} GB across zero-capacity link",
                        load.demand_bytes / 1e9
                    ),
                    "flows across a dead link never finish".to_string(),
                );
            }
            let bound = if load.flow_cap < wire {
                BoundKind::Protocol
            } else {
                BoundKind::Wire
            };
            if bound == BoundKind::Protocol && wire > 0.0 && load.route_bottleneck {
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
    use zerosim_hw::{ClusterSpec, GpuId, IoDir, MemLoc, NvmeId, SocketId};
    use zerosim_strategies::{PhaseStage, WorkloadPlan};

    fn run(cluster: &Cluster, plan: &WorkloadPlan) -> AnalysisReport {
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(BandwidthFeasibilityPass));
        pm.run(&Artifacts::new(cluster).with_plan(plan))
    }

    #[test]
    fn single_node_allreduce_is_wire_bound_on_nvlink() {
        let cluster = Cluster::new(ClusterSpec::default().with_nodes(1)).unwrap();
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        plan.push(
            PlanOp::Collective {
                kind: CollectiveKind::AllReduce,
                group: CommGroup::world(&cluster),
                bytes: 2.8e9,
                cap: f64::INFINITY,
            },
            &[],
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
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Backward, 0);
        plan.push(
            PlanOp::Collective {
                kind: CollectiveKind::AllReduce,
                group: CommGroup::world(&cluster),
                bytes: 2.8e9,
                cap: 1.3e9, // DeepSpeed engine efficiency
            },
            &[],
        );
        let r = run(&cluster, &plan);
        assert!(r.is_clean(), "{}", r.render_text());
        let roce: Vec<&LinkVerdict> = r.links.iter().filter(|v| v.name.contains("roce")).collect();
        assert!(!roce.is_empty());
        for v in roce {
            assert_eq!(v.bound, BoundKind::Protocol, "{}", v.name);
            assert!(v.flow_cap <= 1.3e9);
        }
        // Intra-node NVLink hops of the same ring stay wire-bound.
        assert!(r
            .links
            .iter()
            .filter(|v| v.name.contains("nvlink"))
            .all(|v| v.bound == BoundKind::Wire));
    }

    #[test]
    fn unroutable_transfer_and_bad_rank_fire() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Forward, 0);
        plan.push(
            PlanOp::TierTransfer {
                src: MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
                dst: MemLoc::Nvme(NvmeId { node: 0, drive: 0 }),
                bytes: 1e9,
                label: "bad",
                track: 0,
            },
            &[],
        );
        plan.push(
            PlanOp::Collective {
                kind: CollectiveKind::AllGather,
                group: CommGroup::new(vec![GpuId { node: 0, gpu: 0 }, GpuId { node: 7, gpu: 0 }]),
                bytes: 1e9,
                cap: f64::INFINITY,
            },
            &[],
        );
        let r = run(&cluster, &plan);
        assert_eq!(r.deny_count(), 2);
        assert_eq!(r.diagnostics[0].site, Site::PlanOp(0));
        assert!(r.diagnostics[0].message.contains("no feasible route"));
        assert_eq!(r.diagnostics[1].site, Site::PlanOp(1));
        assert!(r.diagnostics[1].message.contains("not on the cluster"));
    }

    #[test]
    fn volume_io_loads_both_drives() {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let v = cluster.create_volume(vec![
            NvmeId { node: 0, drive: 0 },
            NvmeId { node: 0, drive: 1 },
        ]);
        let mut plan = WorkloadPlan::new();
        plan.set_phase(PhaseStage::Step, 0);
        plan.push(
            PlanOp::VolumeIo {
                volume: v,
                socket: SocketId { node: 0, socket: 1 },
                dir: IoDir::Write,
                bytes: 8e9,
                label: "nvme_write",
                track: 0,
            },
            &[],
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
        }
    }
}
