//! ZL009 — static step-time lower bounds from the lowered DAG.
//!
//! Walks the lowered task graph's critical path, pricing every task at a
//! rate no schedule can beat, and emits a [`StepTimeBound`] verdict:
//!
//! * **Compute** is priced at its calibrated duration discounted by the
//!   jitter half-width (`1 - compute_jitter_frac`), the fastest draw the
//!   stamping stage can produce.
//! * **Transfers** are priced twice: at *wire speed-of-light* — startup
//!   latency plus bytes over the slowest hop's physical rate, contention
//!   ignored — and at the *protocol ceiling*, which additionally applies
//!   the per-flow engine-efficiency cap. The protocol path is the
//!   tighter bound and the one compared against simulated iteration
//!   time; the gap between the two is the statically-provable cost of
//!   the protocol ceilings the paper measured.
//!
//! Both are true lower bounds: the simulator adds contention (max-min
//! fair sharing), resource-slot queueing, and upward jitter on top.
//! A non-finite price (a transfer routed across a zero-capacity link)
//! is a deny — the plan can never finish, so no bound exists.

use zerosim_simkit::TaskKind;

use crate::diag::{LintCode, Site};
use crate::pass::{Artifacts, Pass, Sink, StepTimeBound};

/// ZL009 (see module docs).
#[derive(Debug)]
pub struct StepTimeBoundPass;

impl Pass for StepTimeBoundPass {
    fn code(&self) -> LintCode {
        LintCode::StepTimeBound
    }

    fn run(&self, art: &Artifacts<'_>, sink: &mut Sink<'_>) {
        let Some(dag) = art.dag else {
            return;
        };
        let Some(calib) = art.calib else {
            return;
        };
        let cluster = art.cluster;
        let jitter_floor = (1.0 - calib.compute_jitter_frac).max(0.0);

        let n = dag.len();
        // Earliest-finish times under each pricing; `None` poisons the
        // bound (a task that can never finish).
        let mut wire_finish = vec![0.0_f64; n];
        let mut proto_finish = vec![0.0_f64; n];
        // Per-task protocol-path bookkeeping for the verdict breakdown.
        let mut proto_pred: Vec<Option<usize>> = vec![None; n];
        let mut is_transfer = vec![false; n];
        let mut poisoned = false;

        for id in dag.task_ids() {
            let i = id.index();
            let spec = dag.task(id);
            let (wire_price, proto_price, transfer) = match &spec.kind {
                TaskKind::Compute { duration, .. } => {
                    let d = duration.as_secs() * jitter_floor;
                    (d, d, false)
                }
                TaskKind::Delay { duration } => {
                    let d = duration.as_secs();
                    (d, d, false)
                }
                TaskKind::Marker => (0.0, 0.0, false),
                TaskKind::Transfer {
                    route,
                    bytes,
                    latency,
                    cap,
                } => {
                    let min_wire = dag
                        .route(*route)
                        .iter()
                        .map(|l| cluster.net().link_capacity(*l))
                        .fold(f64::INFINITY, f64::min);
                    let wire = latency.as_secs() + bytes / min_wire;
                    let proto = latency.as_secs() + bytes / min_wire.min(*cap);
                    if !proto.is_finite() {
                        if !poisoned {
                            sink.report(
                                LintCode::StepTimeBound,
                                Site::DagTask(i),
                                format!(
                                    "transfer of {:.2} GB crosses a zero-capacity link: \
                                     no finite step-time bound exists",
                                    bytes / 1e9
                                ),
                                "the flow can never finish; fix the route or the link rate"
                                    .to_string(),
                            );
                        }
                        poisoned = true;
                    }
                    (wire, proto, true)
                }
            };
            let mut wire_start = 0.0_f64;
            let mut proto_start = 0.0_f64;
            for p in dag.preds(id) {
                wire_start = wire_start.max(wire_finish[p.index()]);
                if proto_finish[p.index()] > proto_start {
                    proto_start = proto_finish[p.index()];
                    proto_pred[i] = Some(p.index());
                }
            }
            wire_finish[i] = wire_start + wire_price;
            proto_finish[i] = proto_start + proto_price;
            is_transfer[i] = transfer;
        }

        if poisoned || n == 0 {
            return;
        }

        let wire_sol_s = wire_finish.iter().fold(0.0_f64, |a, b| a.max(*b));
        let (end, protocol_s) =
            proto_finish
                .iter()
                .enumerate()
                .fold(
                    (0, 0.0_f64),
                    |acc, (i, t)| {
                        if *t > acc.1 {
                            (i, *t)
                        } else {
                            acc
                        }
                    },
                );

        // Back-walk the protocol critical path for the breakdown.
        let mut critical_tasks = 0;
        let mut transfer_s = 0.0;
        let mut compute_s = 0.0;
        let mut cursor = Some(end);
        while let Some(i) = cursor {
            critical_tasks += 1;
            let start = proto_pred[i].map_or(0.0, |p| proto_finish[p]);
            let price = proto_finish[i] - start;
            if is_transfer[i] {
                transfer_s += price;
            } else {
                compute_s += price;
            }
            cursor = proto_pred[i];
        }

        sink.set_step_bound(StepTimeBound {
            wire_sol_s,
            protocol_s,
            critical_tasks,
            transfer_s,
            compute_s,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintConfig;
    use crate::pass::{AnalysisReport, PassManager};
    use zerosim_hw::{Cluster, ClusterSpec};
    use zerosim_simkit::{Dag, DagBuilder};
    use zerosim_strategies::{lower, Calibration, IterCtx, StrategyPlan, TrainOptions};

    fn analyze(cluster: &Cluster, dag: &Dag, calib: &Calibration) -> AnalysisReport {
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(StepTimeBoundPass));
        pm.run(
            &Artifacts::new(cluster)
                .with_dag(dag)
                .with_calibration(calib),
        )
    }

    #[test]
    fn bound_exists_and_orders_wire_below_protocol() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let model = zerosim_model::GptConfig::paper_model_with_params(1.4);
        let opts = TrainOptions::dual_node();
        let calib = Calibration::default();
        let ctx = IterCtx {
            cluster: &cluster,
            model: &model,
            opts: &opts,
            calib: &calib,
        };
        let strategy = zerosim_strategies::Strategy::Zero {
            stage: zerosim_strategies::ZeroStage::Three,
        };
        let plan = strategy.plan_iteration(&ctx).unwrap();
        let lowered = lower(&plan, &cluster, &calib).unwrap();
        let r = analyze(&cluster, lowered.dag(), &calib);
        assert!(r.is_clean());
        let b = r.bound.expect("ZL009 emitted a bound");
        assert!(b.protocol_s > 0.0);
        assert!(
            b.wire_sol_s <= b.protocol_s * (1.0 + 1e-9),
            "wire SoL {} must not exceed protocol bound {}",
            b.wire_sol_s,
            b.protocol_s
        );
        assert!(b.critical_tasks > 0);
        assert!(b.transfer_s >= 0.0 && b.compute_s > 0.0);
    }

    #[test]
    fn missing_calibration_skips_silently() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let mut pm = PassManager::new(LintConfig::new());
        pm.register(Box::new(StepTimeBoundPass));
        let dag = DagBuilder::new().build();
        let r = pm.run(&Artifacts::new(&cluster).with_dag(&dag));
        assert!(r.is_clean());
        assert!(r.bound.is_none());
    }

    #[test]
    fn synthetic_dag_prices_wire_and_protocol_exactly() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        // A real inter-tier route gives us genuine LinkIds to price.
        let route = cluster.route(
            zerosim_hw::MemLoc::Gpu(zerosim_hw::GpuId { node: 0, gpu: 0 }),
            zerosim_hw::MemLoc::Cpu(zerosim_hw::SocketId { node: 0, socket: 0 }),
        );
        let min_wire = route
            .links()
            .iter()
            .map(|l| cluster.net().link_capacity(*l))
            .fold(f64::INFINITY, f64::min);
        let cap = min_wire / 4.0;
        let bytes = 8e9;
        let dur = zerosim_simkit::SimTime::from_secs(0.25);

        let mut b = DagBuilder::new();
        let c = b.compute(zerosim_simkit::ResourceId(0), dur, "k", &[]);
        b.transfer_capped(route.links(), bytes, route.latency, cap, "x", 0, &[c]);
        let dag = b.build();

        let calib = Calibration::default();
        let r = analyze(&cluster, &dag, &calib);
        assert!(r.is_clean());
        let bd = r.bound.unwrap();
        let compute = 0.25 * (1.0 - calib.compute_jitter_frac);
        let lat = route.latency.as_secs();
        assert!((bd.wire_sol_s - (compute + lat + bytes / min_wire)).abs() < 1e-9);
        assert!((bd.protocol_s - (compute + lat + bytes / cap)).abs() < 1e-9);
        assert_eq!(bd.critical_tasks, 2);
        assert!((bd.compute_s - compute).abs() < 1e-9);
        assert!((bd.transfer_s - (lat + bytes / cap)).abs() < 1e-9);
    }
}
