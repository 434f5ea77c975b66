//! Property-based tests over the simulation kernel and the domain layers.
//!
//! Ported from `proptest` to the in-house `zerosim-testkit` harness so the
//! workspace tests hermetically (no registry access). Semantics of every
//! property are unchanged; all now run ≥ 64 cases (the seed suite ran some
//! at 16–32). Tune with `ZEROSIM_PT_CASES` / replay with `ZEROSIM_PT_SEED`.

use std::panic::AssertUnwindSafe;

use zerosim_analyzer::Ancestors;
use zerosim_collectives::{CollectiveKind, CommGroup};
use zerosim_core::max_model_size;
use zerosim_hw::{
    Cluster, ClusterSpec, GpuId, IoDir, MemLoc, NvmeId, SocketId, TopologySpec, VolumeId,
};
use zerosim_model::GptConfig;
use zerosim_simkit::{
    BandwidthRecorder, BandwidthStats, DagBuilder, DagEngine, FaultKind, FaultSchedule, FlowNet,
    FlowObserver, LinkId, NullObserver, ResourceId, SimTime, TaskId, TaskKind, TokenBucket,
};
use zerosim_strategies::{
    lower, Calibration, IterCtx, OptimizerDevice, PhaseStage, PlanOp, Strategy, StrategyPlan,
    TrainOptions, WorkloadPlan, ZeroStage,
};
use zerosim_testkit::domain::{flow_paths, link_caps};
use zerosim_testkit::gen::{f64_range, tuple3, u64_range, usize_range, vec_of};
use zerosim_testkit::{prop, prop_assert, prop_assert_eq};

// ---------- flow network ----------

prop! {
    /// Max-min fair rates never exceed any crossed link's capacity, and
    /// every flow gets a positive rate.
    #[cases(64)]
    fn maxmin_rates_respect_capacities(
        caps in link_caps(2, 5),
        flows in flow_paths(6, 1, 7),
    ) {
        let mut net = FlowNet::new();
        let links: Vec<LinkId> = caps
            .iter()
            .enumerate()
            .map(|(i, c)| net.add_link(format!("l{i}"), *c))
            .collect();
        let mut ids = Vec::new();
        for (route_idx, bytes) in &flows {
            let mut route: Vec<LinkId> = route_idx
                .iter()
                .map(|i| links[i % links.len()])
                .collect();
            route.dedup();
            ids.push((net.start_flow(&route, *bytes).unwrap(), route));
        }
        // Per-flow rates positive.
        let rates: Vec<f64> = ids
            .iter()
            .map(|(id, _)| net.flow_rate(*id).unwrap())
            .collect();
        for r in &rates {
            prop_assert!(*r > 0.0);
        }
        // Per-link aggregate within capacity (small numerical slack).
        for (li, link) in links.iter().enumerate() {
            let total: f64 = ids
                .iter()
                .zip(&rates)
                .filter(|((_, route), _)| route.contains(link))
                .map(|(_, r)| *r)
                .sum();
            prop_assert!(
                total <= caps[li] * (1.0 + 1e-9) + 1e-6,
                "link {li}: {total} > {}",
                caps[li]
            );
        }
    }

    /// Every byte put into the network comes out: the recorder total per
    /// link equals the flow volume times the number of times the flow
    /// crosses that link.
    #[cases(64)]
    fn bytes_are_conserved(bytes in vec_of(f64_range(1.0, 1e8), 1, 5)) {
        let mut net = FlowNet::new();
        let a = net.add_link("a", 1e7);
        let b = net.add_link("b", 2e7);
        for v in &bytes {
            net.start_flow(&[a, b], *v).unwrap();
        }
        let mut rec = BandwidthRecorder::new(SimTime::from_ms(10.0));
        net.drain(&mut rec).unwrap();
        let total: f64 = bytes.iter().sum();
        prop_assert!((rec.total_bytes(a) - total).abs() < total * 1e-6 + 1.0);
        prop_assert!((rec.total_bytes(b) - total).abs() < total * 1e-6 + 1.0);
    }

    /// Completion time is monotone in flow size.
    #[cases(64)]
    fn drain_time_monotone_in_bytes(
        size in f64_range(1.0, 1e9),
        extra in f64_range(1.0, 1e9),
    ) {
        let time_for = |v: f64| {
            let mut net = FlowNet::new();
            let l = net.add_link("l", 1e8);
            net.start_flow(&[l], v).unwrap();
            net.drain(&mut NullObserver).unwrap()
        };
        prop_assert!(time_for(size + extra) >= time_for(size));
    }

    /// The incremental dirty-component solver is bit-identical to a full
    /// recompute under random interleavings of flow arrivals, completions,
    /// cancellations, and link fault events on random topologies. Shadow
    /// verification is the oracle: every solve is checked bitwise against
    /// `reference_solve`, an independent full solver, and panics on the
    /// first diverging rate or demand. The flow slab's own contract is
    /// checked directly: completions come in ascending id order, and a
    /// retired id stays retired after later flows reuse its slot.
    #[cases(64)]
    fn incremental_solver_matches_full_recompute(
        caps in link_caps(2, 8),
        ops in vec_of(
            tuple3(usize_range(0, 6), usize_range(0, 9999), f64_range(0.1, 1e9)),
            4,
            40,
        ),
    ) {
        let mut net = FlowNet::new();
        net.set_shadow_verify(true);
        let n = caps.len();
        let links: Vec<LinkId> = caps
            .iter()
            .enumerate()
            .map(|(i, c)| net.add_link(format!("l{i}"), *c))
            .collect();
        let mut active: Vec<zerosim_simkit::FlowId> = Vec::new();
        let mut retired: Vec<zerosim_simkit::FlowId> = Vec::new();
        for (op, sel, value) in &ops {
            match op {
                // Flow arrival (40% of ops), occasionally rate-capped.
                0 | 1 => {
                    // A two-hop route may visit the same link twice.
                    let mut route = vec![links[sel % n]];
                    if sel / n % 2 == 1 {
                        route.push(links[(sel / 2) % n]);
                    }
                    let cap = if sel % 5 == 0 { *value * 0.25 } else { f64::INFINITY };
                    active.push(net.start_flow_capped(&route, *value, cap).unwrap());
                }
                // Advance to the next completion.
                2 => {
                    if let Some((_, done)) =
                        net.advance_to_next_event(SimTime::ZERO, &mut NullObserver)
                    {
                        prop_assert!(
                            done.windows(2).all(|w| w[0] < w[1]),
                            "completions out of id order: {done:?}"
                        );
                        active.retain(|f| !done.contains(f));
                        retired.extend(done);
                    }
                }
                // Cancellation.
                3 => {
                    if !active.is_empty() {
                        let victim = active.remove(sel % active.len());
                        prop_assert!(net.cancel_flow(victim), "live flow {victim:?} not cancelled");
                        retired.push(victim);
                    }
                }
                // Fault events: degrade or restore a link.
                4 => {
                    let factor = 0.05 + (*value % 1.0).abs() * 1.4 + 0.01;
                    net.scale_link(links[sel % n], factor).unwrap();
                }
                _ => net.restore_link(links[sel % n]).unwrap(),
            }
            // After every event: re-converge (shadow-checked) and read every
            // rate and demand back.
            for f in &active {
                prop_assert!(net.flow_rate(*f).is_some(), "live flow {f:?} lost its rate");
            }
            for link in &links {
                prop_assert!(net.link_demand(*link).is_finite());
            }
            // Retired ids never resolve again, whoever holds their slot.
            for f in &retired {
                prop_assert!(
                    net.flow_rate(*f).is_none() && net.flow_remaining(*f).is_none(),
                    "retired flow {f:?} still resolves"
                );
                prop_assert!(!net.cancel_flow(*f), "retired flow {f:?} cancelled again");
            }
        }
    }

    /// Token buckets conserve tokens: serving below the sustained rate
    /// never drains them.
    #[cases(64)]
    fn token_bucket_never_drains_below_sustained(
        cap in f64_range(1.0, 1e10),
        sustained in f64_range(1.0, 1e9),
        dt in f64_range(0.001, 100.0),
    ) {
        let mut bucket = TokenBucket::new(cap, sustained * 2.0, sustained);
        bucket.advance(dt, sustained * 0.9);
        prop_assert!((bucket.tokens() - cap).abs() < 1e-3 * cap + 1e-6);
    }

    /// Bandwidth stats are ordered: avg ≤ p90 ≤ peak for non-negative
    /// sample sets.
    #[cases(64)]
    fn stats_ordering(samples in vec_of(f64_range(0.0, 1e12), 10, 99)) {
        let s = BandwidthStats::from_samples(&samples);
        prop_assert!(s.avg <= s.peak + 1e-9);
        prop_assert!(s.p90 <= s.peak + 1e-9);
    }
}

// ---------- engine ----------

prop! {
    /// A chain of compute tasks takes exactly the sum of durations;
    /// independent tasks on distinct resources take the max.
    #[cases(64)]
    fn engine_chain_vs_parallel(durations in vec_of(u64_range(1, 1_000_000), 2, 5)) {
        let mut net = FlowNet::new();
        let mut chain = DagBuilder::new();
        let mut prev = None;
        for d in &durations {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(chain.compute(
                ResourceId(0),
                SimTime::from_nanos(*d),
                "k",
                &deps,
            ));
        }
        let mut eng = DagEngine::new(vec![1]);
        let serial = eng
            .run(&mut net, &chain.build(), SimTime::ZERO, None)
            .unwrap()
            .makespan();
        prop_assert_eq!(serial.as_nanos(), durations.iter().sum::<u64>());

        let mut par = DagBuilder::new();
        for (i, d) in durations.iter().enumerate() {
            par.compute(ResourceId(i), SimTime::from_nanos(*d), "k", &[]);
        }
        let mut eng = DagEngine::new(vec![1; durations.len()]);
        let parallel = eng
            .run(&mut net, &par.build(), SimTime::ZERO, None)
            .unwrap()
            .makespan();
        prop_assert_eq!(parallel.as_nanos(), *durations.iter().max().unwrap());
    }

    /// The engine finishes every DAG made of valid tasks (no deadlocks),
    /// and the observer sees exactly the transfer volume.
    #[cases(64)]
    fn random_dags_complete(
        spec in vec_of(
            tuple3(usize_range(0, 3), u64_range(1, 1_000_000), f64_range(1.0, 1e7)),
            1,
            23,
        ),
    ) {
        let mut net = FlowNet::new();
        let l0 = net.add_link("l0", 1e8);
        let l1 = net.add_link("l1", 5e7);
        let mut b = DagBuilder::new();
        let mut all = Vec::new();
        let mut expected_bytes = 0.0;
        for (kind, dur, bytes) in &spec {
            // Depend on up to two random-ish earlier tasks.
            let deps: Vec<_> = all.iter().rev().take((*dur % 3) as usize).copied().collect();
            let t = match kind {
                0 => b.compute(ResourceId((*dur % 2) as usize), SimTime::from_nanos(*dur), "c", &deps),
                1 => {
                    expected_bytes += *bytes;
                    b.transfer(&[l0, l1], *bytes, SimTime::from_nanos(*dur), "x", 0, &deps)
                }
                _ => b.delay(SimTime::from_nanos(*dur), &deps),
            };
            all.push(t);
        }
        struct Tally(f64);
        impl FlowObserver for Tally {
            fn on_transfer(&mut self, link: LinkId, _: SimTime, _: f64, bytes: f64) {
                if link.index() == 0 {
                    self.0 += bytes;
                }
            }
        }
        let mut tally = Tally(0.0);
        let mut eng = DagEngine::new(vec![1, 1]);
        let out = eng.run(&mut net, &b.build(), SimTime::ZERO, Some(&mut tally));
        prop_assert!(out.is_ok());
        prop_assert!((tally.0 - expected_bytes).abs() < expected_bytes * 1e-6 + 1.0);
    }
}

// ---------- domain layers ----------

prop! {
    /// Parameter counting is strictly monotone in depth and matches the
    /// closed-form layer delta.
    #[cases(64)]
    fn params_monotone_in_layers(layers in usize_range(1, 700)) {
        let a = GptConfig::paper_model(layers).num_params();
        let b = GptConfig::paper_model(layers + 1).num_params();
        let delta = b - a;
        prop_assert!((delta - GptConfig::paper_model(1).layer_params()).abs() < 1.0);
    }

    /// Memory plans grow with model size for every strategy.
    #[cases(64)]
    fn memory_plans_monotone(layers in usize_range(2, 300)) {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let memory = |strategy: &Strategy, layers: usize| {
            let model = GptConfig::paper_model(layers);
            let ctx = IterCtx { cluster: &cluster, model: &model, opts: &opts, calib: &calib };
            strategy.plan_memory(&ctx).unwrap()
        };
        for strategy in [
            Strategy::Ddp,
            Strategy::Megatron { tp: 4, pp: 1 },
            Strategy::Zero { stage: ZeroStage::Three },
        ] {
            let small = memory(&strategy, layers);
            let large = memory(&strategy, layers + 1);
            prop_assert!(large.per_gpu_bytes > small.per_gpu_bytes);
        }
    }

    /// Capacity search is monotone in GPU memory: more HBM never fits a
    /// smaller model.
    #[cases(64)]
    fn capacity_monotone_in_gpu_memory(extra_gb in f64_range(0.0, 80.0)) {
        let base = ClusterSpec::default();
        let mut bigger = base.clone();
        bigger.mem.gpu_bytes += extra_gb * 1e9;
        let opts = TrainOptions::single_node();
        let calib = Calibration::default();
        let strategy = Strategy::Zero { stage: ZeroStage::Two };
        let a = max_model_size(&Cluster::new(base).unwrap(), &strategy, &opts, &calib)
            .unwrap()
            .unwrap()
            .params;
        let b = max_model_size(&Cluster::new(bigger).unwrap(), &strategy, &opts, &calib)
            .unwrap()
            .unwrap()
            .params;
        prop_assert!(b >= a);
    }

    /// Routing is total over same-node endpoints and never returns an
    /// empty path.
    #[cases(64)]
    fn routes_are_total_and_nonempty(
        a in usize_range(0, 4),
        b in usize_range(0, 4),
        s in usize_range(0, 2),
    ) {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let ga = GpuId { node: 0, gpu: a };
        let gb = GpuId { node: 0, gpu: b };
        if a != b {
            let r = cluster.route(MemLoc::Gpu(ga), MemLoc::Gpu(gb));
            prop_assert!(r.hops() >= 1);
        }
        let r = cluster.route(MemLoc::Gpu(ga), MemLoc::Cpu(SocketId { node: 0, socket: s }));
        prop_assert!(r.hops() >= 2);
        let r = cluster.route(
            MemLoc::Cpu(SocketId { node: 0, socket: s }),
            MemLoc::Nvme(zerosim_hw::NvmeId { node: 0, drive: 0 }),
        );
        prop_assert!(r.hops() >= 3);
    }
}

// ---------- plan validity vs lowerability ----------

/// The `k`-th of 33 memory locations: on each of nodes 0..=2, indices up
/// to one past the default two-node cluster's (5 GPUs, 3 sockets, 3
/// drives).
fn memloc(k: usize) -> MemLoc {
    let (node, i) = (k / 11, k % 11);
    match i {
        0..=4 => MemLoc::Gpu(GpuId { node, gpu: i }),
        5..=7 => MemLoc::Cpu(SocketId {
            node,
            socket: i - 5,
        }),
        _ => MemLoc::Nvme(NvmeId { node, drive: i - 8 }),
    }
}

/// A one-op iteration plan: `op` in the backward phase feeding the
/// optimizer step.
fn one_op_iteration(op: PlanOp) -> WorkloadPlan {
    let mut plan = WorkloadPlan::new();
    plan.set_phase(PhaseStage::Backward, 0);
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

prop! {
    /// `validate` accepts exactly the plans `lower` can compile, and
    /// neither panics: tier transfers between locations of every kind
    /// with indices up to one past the cluster, two-rank collectives with
    /// caps from {0, −1, NaN, 1e9, +∞}, and volume I/O from any socket
    /// against a node-0 volume, a node-1 volume or an unregistered one.
    #[cases(64)]
    fn validity_and_lowerability_agree(
        src in usize_range(0, 33),
        dst in usize_range(0, 33),
        coll in tuple3(usize_range(0, 15), usize_range(0, 15), usize_range(0, 5)),
        io in tuple3(usize_range(0, 9), usize_range(0, 3), usize_range(0, 2)),
    ) {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let drive = |node, drive| NvmeId { node, drive };
        cluster.create_volume(vec![drive(0, 0), drive(0, 1)]);
        cluster.create_volume(vec![drive(1, 0)]);
        let calib = Calibration::default();

        let (a, b, cap) = coll;
        let gpu = |k: usize| GpuId { node: k / 5, gpu: k % 5 };
        let ranks = if a == b { vec![gpu(a)] } else { vec![gpu(a), gpu(b)] };
        let (socket, volume, dir) = io;
        let plans = [
            one_op_iteration(PlanOp::TierTransfer {
                src: memloc(src),
                dst: memloc(dst),
                bytes: 1e6,
                label: "x",
                track: 0,
            }),
            one_op_iteration(PlanOp::Collective {
                kind: CollectiveKind::AllReduce,
                group: CommGroup::new(ranks),
                bytes: 1e9,
                cap: [0.0, -1.0, f64::NAN, 1e9, f64::INFINITY][cap],
                codec: None,
            }),
            one_op_iteration(PlanOp::VolumeIo {
                volume: VolumeId(volume),
                socket: SocketId {
                    node: socket / 3,
                    socket: socket % 3,
                },
                dir: if dir == 0 { IoDir::Write } else { IoDir::Read },
                bytes: 1e6,
                label: "nvme",
                track: 0,
            }),
        ];
        for plan in &plans {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                (plan.validate(&cluster).is_ok(), lower(plan, &cluster, &calib).is_ok())
            }));
            let Ok((valid, lowers)) = outcome else {
                return Err(format!("validate or lower panicked on {:?}", plan.nodes()[0].op));
            };
            prop_assert!(
                valid == lowers,
                "validate {valid}, lower {lowers}: {:?}",
                plan.nodes()[0].op
            );
        }
    }
}

// ---------- collectives ----------

prop! {
    /// Stepwise, coalesced and hierarchical expansions move the ring's
    /// closed-form total, `n · bytes_sent_per_rank(n, S)`, for every
    /// collective kind and buffer size.
    #[cases(64)]
    fn collective_emitters_agree_on_volume(
        bytes in f64_range(1e6, 2e9),
        kind_idx in usize_range(0, 3),
    ) {
        use zerosim_collectives::{
            emit_collective_coalesced, emit_collective_hierarchical, emit_collective_stepwise,
            CollectiveKind, CommGroup,
        };
        let kind = [
            CollectiveKind::AllReduce,
            CollectiveKind::AllGather,
            CollectiveKind::ReduceScatter,
        ][kind_idx];
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let group = CommGroup::new(cluster.node_gpus(0));
        let mut b1 = DagBuilder::new();
        emit_collective_stepwise(&mut b1, &cluster, &group, kind, bytes, &[], f64::INFINITY);
        let mut b2 = DagBuilder::new();
        emit_collective_coalesced(&mut b2, &cluster, &group, kind, bytes, &[], f64::INFINITY);
        let v1 = b1.build().total_transfer_bytes();
        let v2 = b2.build().total_transfer_bytes();
        prop_assert!((v1 - v2).abs() < 16.0, "{kind:?}: {v1} vs {v2}");
        // And the analytic per-rank volume matches.
        let expected = 4.0 * kind.bytes_sent_per_rank(4, bytes);
        prop_assert!((v1 - expected).abs() < 16.0, "{v1} vs analytic {expected}");
        // The hierarchical schedule moves the same closed form over the
        // whole world: on two nodes (pairwise exchange) and on four
        // (column rings).
        let four_nodes = TopologySpec::parse("flat:4").unwrap().build().unwrap();
        for spec in [ClusterSpec::default(), four_nodes] {
            let cluster = Cluster::new(spec).unwrap();
            let world = CommGroup::world(&cluster);
            let mut b = DagBuilder::new();
            emit_collective_hierarchical(
                &mut b, &cluster, &world, kind, bytes, &[], f64::INFINITY,
            );
            let v = b.build().total_transfer_bytes();
            let n = world.len();
            let expected = n as f64 * kind.bytes_sent_per_rank(n, bytes);
            prop_assert!(
                (v - expected).abs() < 16.0,
                "{kind:?} over {n} ranks: {v} vs analytic {expected}"
            );
        }
    }

    /// The hierarchical schedule crosses RoCE with at most the flat ring's
    /// inter-node volume, and completes with the same membership.
    #[cases(64)]
    fn hierarchical_crosses_less_roce_than_flat(bytes in f64_range(3e8, 4e9)) {
        use zerosim_collectives::{
            emit_collective_hierarchical, emit_collective_stepwise, CollectiveKind, CommGroup,
        };
        use zerosim_hw::LinkClass;
        let roce_bytes = |hierarchical: bool, bytes: f64| -> f64 {
            let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
            let group = CommGroup::world(&cluster);
            let mut b = DagBuilder::new();
            if hierarchical {
                emit_collective_hierarchical(
                    &mut b, &cluster, &group, CollectiveKind::AllReduce, bytes, &[],
                    f64::INFINITY,
                );
            } else {
                emit_collective_stepwise(
                    &mut b, &cluster, &group, CollectiveKind::AllReduce, bytes, &[],
                    f64::INFINITY,
                );
            }
            let dag = b.build();
            let mut rec = BandwidthRecorder::new(SimTime::from_ms(10.0));
            let mut eng = DagEngine::new(cluster.resource_slots());
            eng.run(cluster.net_mut(), &dag, SimTime::ZERO, Some(&mut rec))
                .unwrap();
            cluster
                .links(0, LinkClass::Roce)
                .iter()
                .map(|l| rec.total_bytes(*l))
                .sum()
        };
        let flat = roce_bytes(false, bytes);
        let hier = roce_bytes(true, bytes);
        prop_assert!(hier < flat, "hierarchical {hier} >= flat {flat}");
        // Hierarchical all-reduce moves S per node per direction => 2S on
        // node 0's tx+rx.
        prop_assert!((hier - 2.0 * bytes).abs() < 0.02 * bytes, "hier {hier} vs 2S {}", 2.0*bytes);
    }

    /// Collective completion time is monotone in the per-flow inter-node
    /// cap (a slower effective NCCL never finishes earlier).
    #[cases(64)]
    fn collective_time_monotone_in_cap(cap_gb in f64_range(1.0, 12.0)) {
        use zerosim_collectives::{emit_collective, CollectiveKind, CommGroup};
        let time_with = |cap: f64| {
            let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
            let group = CommGroup::world(&cluster);
            let mut b = DagBuilder::new();
            emit_collective(&mut b, &cluster, &group, CollectiveKind::AllGather, 1e9, &[], cap);
            let dag = b.build();
            let mut eng = DagEngine::new(cluster.resource_slots());
            eng.run(cluster.net_mut(), &dag, SimTime::ZERO, None)
                .unwrap()
                .makespan()
                .as_secs()
        };
        let slow = time_with(cap_gb * 1e9 / 2.0);
        let fast = time_with(cap_gb * 1e9);
        prop_assert!(slow >= fast * 0.999, "slow {slow} < fast {fast}");
    }
}

// ---------- DAG executor ----------

/// Shared generator shape for the executor properties: a random mixed DAG
/// of compute / transfer / delay / marker tasks with random fan-in. Each
/// transfer crosses a suffix of `links` (1 to 3 links, picked by its
/// duration); each marker names every dependency twice. Returns the
/// DAG and every transfer with the route it was given.
fn mixed_random_dag(
    spec: &[(usize, u64, usize)],
    links: &[LinkId],
) -> (zerosim_simkit::Dag, Vec<(TaskId, Vec<LinkId>)>) {
    let mut b = DagBuilder::new();
    let mut all = Vec::new();
    let mut transfers = Vec::new();
    for (kind, dur, fan) in spec {
        let deps: Vec<_> = all.iter().rev().take(*fan).copied().collect();
        let t = match kind {
            0 => b.compute(
                ResourceId((*dur % 2) as usize),
                SimTime::from_nanos(*dur),
                "c",
                &deps,
            ),
            1 => {
                let hops = links.len().min(1 + (*dur % 3) as usize);
                let route = &links[links.len() - hops..];
                let t = b.transfer(route, (*dur + 1) as f64, SimTime::ZERO, "x", 0, &deps);
                transfers.push((t, route.to_vec()));
                t
            }
            2 => b.delay(SimTime::from_nanos(*dur), &deps),
            _ => b.marker(&[deps.as_slice(), deps.as_slice()].concat()),
        };
        all.push(t);
    }
    (b.build(), transfers)
}

prop! {
    /// The executor's ready-set updates preserve topological legality: on
    /// random mixed DAGs, no task finishes before any of its predecessors,
    /// and delays finish exactly their duration after their latest
    /// predecessor.
    #[cases(64)]
    fn batched_ready_set_preserves_topological_order(
        spec in vec_of(
            tuple3(usize_range(0, 4), u64_range(1, 500_000), usize_range(0, 3)),
            2,
            40,
        ),
    ) {
        let mut net = FlowNet::new();
        let l = net.add_link("l", 1e8);
        let (dag, _) = mixed_random_dag(&spec, &[l]);
        let mut eng = DagEngine::new(vec![2, 2]);
        eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
        let task_finish = eng.task_finish();
        for t in dag.task_ids() {
            for p in dag.preds(t) {
                prop_assert!(
                    task_finish[p.index()] <= task_finish[t.index()],
                    "task {t:?} finished before its predecessor {p:?}"
                );
            }
            // Delays never overlap their dependencies: the full duration
            // elapses after the last predecessor completes.
            if let (2, dur, _) = spec[t.index()] {
                let latest_pred = dag
                    .preds(t)
                    .iter()
                    .map(|p| task_finish[p.index()])
                    .max()
                    .unwrap_or(SimTime::ZERO);
                prop_assert_eq!(
                    task_finish[t.index()],
                    latest_pred + SimTime::from_nanos(dur)
                );
            }
        }
    }

    /// Event-count conservation: independent executors retire exactly one
    /// completion per task and start exactly one flow per transfer, and
    /// their per-task finish times and event-loop tick counts agree
    /// bitwise.
    #[cases(64)]
    fn event_counts_are_conserved_across_executors(
        spec in vec_of(
            tuple3(usize_range(0, 4), u64_range(1, 500_000), usize_range(0, 3)),
            2,
            40,
        ),
    ) {
        let run = || {
            let mut net = FlowNet::new();
            let l = net.add_link("l", 1e8);
            let (dag, transfers) = mixed_random_dag(&spec, &[l]);
            let mut eng = DagEngine::new(vec![2, 2]);
            let out = eng.run(&mut net, &dag, SimTime::ZERO, None).unwrap();
            (out, eng, dag.len(), transfers.len())
        };
        let (first, first_eng, n, transfers) = run();
        let (second, second_eng, ..) = run();
        let first_stats = first_eng.stats();
        prop_assert_eq!(first_stats.tasks_finished, n as u64);
        prop_assert_eq!(first_stats.flows_started, transfers as u64);
        prop_assert_eq!(first_stats, second_eng.stats());
        prop_assert_eq!(first_eng.task_finish(), second_eng.task_finish());
        prop_assert_eq!(first.finished, second.finished);
    }

    /// The compact layout round-trips: on random mixed DAGs with repeated
    /// dependencies, `succs(t)` holds exactly the tasks whose `preds` name
    /// `t`, ascending and with multiplicity, and every transfer reads back
    /// from the link arena the route it was built with.
    #[cases(64)]
    fn csr_successors_invert_preds_and_routes_round_trip(
        spec in vec_of(
            tuple3(usize_range(0, 4), u64_range(1, 500_000), usize_range(0, 3)),
            1,
            40,
        ),
    ) {
        let mut net = FlowNet::new();
        let links: Vec<LinkId> = (0..3).map(|i| net.add_link(format!("l{i}"), 1e8)).collect();
        let (dag, transfers) = mixed_random_dag(&spec, &links);
        for t in dag.task_ids() {
            let naming_t: Vec<TaskId> = dag
                .task_ids()
                .flat_map(|s| dag.preds(s).iter().filter(|&&p| p == t).map(move |_| s))
                .collect();
            prop_assert_eq!(dag.succs(t), naming_t.as_slice());
        }
        for (t, route) in &transfers {
            let TaskKind::Transfer { route: range, .. } = &dag.task(*t).kind else {
                panic!("task {t:?} was built as a transfer");
            };
            prop_assert_eq!(dag.route(*range), route.as_slice());
        }
    }
}

prop! {
    /// Run state does not leak from one run into the next: DAG B, run on
    /// an engine whose previous run (DAG A) a node loss cut short, matches
    /// B run on a fresh engine over a copy of the same network in its
    /// outcome, finish times, spans and work counters. The loss strikes
    /// at one of A's finish instants, when successors sit in the ready
    /// queue, timers and flows are pending and, with one slot per
    /// resource and links fast enough for compute to fill most of the
    /// run, tasks often wait for a slot.
    #[cases(64)]
    fn a_reused_engine_runs_like_a_fresh_one(
        a in vec_of(
            tuple3(usize_range(0, 4), u64_range(1, 500_000), usize_range(0, 3)),
            2,
            40,
        ),
        b in vec_of(
            tuple3(usize_range(0, 4), u64_range(1, 500_000), usize_range(0, 3)),
            2,
            40,
        ),
        pick in usize_range(0, 40),
    ) {
        let mut net = FlowNet::new();
        let links: Vec<LinkId> = (0..3).map(|i| net.add_link(format!("l{i}"), 1e10)).collect();
        let (dag_a, _) = mixed_random_dag(&a, &links);
        let (dag_b, _) = mixed_random_dag(&b, &links);
        let mut healthy = DagEngine::new(vec![1, 1]);
        healthy
            .run(&mut net.clone(), &dag_a, SimTime::ZERO, None)
            .unwrap();
        let finish = healthy.task_finish();
        let at = finish[pick % finish.len()];
        let loss = FaultSchedule::new(0)
            .at(at.as_secs(), FaultKind::NodeLoss { node: 0 })
            .unwrap();

        let mut reused = DagEngine::new(vec![1, 1]);
        let lost = reused
            .run_faulted(&mut net, &dag_a, SimTime::ZERO, None, &mut loss.cursor())
            .unwrap();
        prop_assert!(lost.interrupted);
        let spans_before = reused.spans().spans().len();
        let stats_before = reused.stats();
        let mut fresh_net = net.clone();
        let again = reused.run(&mut net, &dag_b, lost.finished, None).unwrap();

        let mut fresh = DagEngine::new(vec![1, 1]);
        let first = fresh
            .run(&mut fresh_net, &dag_b, lost.finished, None)
            .unwrap();
        prop_assert_eq!(again, first);
        prop_assert_eq!(reused.task_finish(), fresh.task_finish());
        prop_assert_eq!(&reused.spans().spans()[spans_before..], fresh.spans().spans());
        prop_assert_eq!(reused.stats().delta_since(&stats_before), fresh.stats());
    }
}

// ---------- analyzer ancestor sets ----------

prop! {
    /// Grouped ancestor queries agree with brute-force reachability: on
    /// random plans (up to three dependencies per op, repeats allowed),
    /// group `g` reaches op `i` exactly when a depth-first walk up `i`'s
    /// dependencies meets an op of group `g`. `wide` spreads the groups
    /// over 70 ids, so a bitset spans two words; otherwise three groups
    /// hold many ops each.
    #[cases(64)]
    fn grouped_ancestors_match_brute_force_reachability(
        spec in vec_of(
            tuple3(usize_range(0, 4), u64_range(0, u64::MAX), usize_range(0, 100)),
            1,
            48,
        ),
        wide in usize_range(0, 2),
    ) {
        let mut plan = WorkloadPlan::new();
        let mut ids = Vec::new();
        let mut group_of = Vec::new();
        for (i, &(fan, salt, group)) in spec.iter().enumerate() {
            let deps: Vec<_> = (0..if i == 0 { 0 } else { fan })
                .map(|k| ids[usize::try_from((salt >> (16 * k)) % i as u64).expect("below i")])
                .collect();
            ids.push(plan.push(PlanOp::Barrier, &deps));
            group_of.push(if wide == 1 {
                (group < 70).then_some(group)
            } else {
                (group % 4 < 3).then_some(group % 4)
            });
        }
        let anc = Ancestors::new(&plan, &group_of);
        let groups = group_of.iter().flatten().max().map_or(0, |g| g + 1);
        for i in 0..plan.len() {
            let mut seen = vec![false; plan.len()];
            let mut stack: Vec<usize> = plan.deps(i).iter().map(|d| d.index()).collect();
            while let Some(p) = stack.pop() {
                if !seen[p] {
                    seen[p] = true;
                    stack.extend(plan.deps(p).iter().map(|d| d.index()));
                }
            }
            for g in 0..=groups {
                let brute = (0..plan.len()).any(|p| seen[p] && group_of[p] == Some(g));
                prop_assert!(
                    anc.reaches(g, i) == brute,
                    "group {g} at op {i}: reaches says {}, the walk {brute}",
                    !brute
                );
            }
        }
    }
}

// ---------- token-bucket links under the engine ----------

prop! {
    /// Random DAGs over a bucketed link always complete, conserve bytes,
    /// and never finish faster than the burst rate allows or slower than
    /// the sustained rate demands.
    #[cases(64)]
    fn bucketed_links_bound_completion_time(
        transfers in vec_of(f64_range(1e6, 5e9), 1, 5),
        cache in f64_range(1e8, 4e9),
    ) {
        let burst = 6e9;
        let sustained = 2e9;
        let mut net = FlowNet::new();
        let dev = net.add_bucketed_link("nvme", TokenBucket::new(cache, burst, sustained));
        let mut b = DagBuilder::new();
        let mut prev = None;
        let total: f64 = transfers.iter().sum();
        for bytes in &transfers {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.transfer(&[dev], *bytes, SimTime::ZERO, "io", 0, &deps));
        }
        struct Tally(f64);
        impl FlowObserver for Tally {
            fn on_transfer(&mut self, _: LinkId, _: SimTime, _: f64, bytes: f64) {
                self.0 += bytes;
            }
        }
        let mut tally = Tally(0.0);
        let mut eng = DagEngine::new(vec![]);
        let out = eng
            .run(&mut net, &b.build(), SimTime::ZERO, Some(&mut tally))
            .unwrap();
        let secs = out.makespan().as_secs();
        prop_assert!((tally.0 - total).abs() < total * 1e-6 + 8.0);
        // Bounds: can't beat the burst rate; can't be slower than
        // sustained (the cache only ever helps).
        prop_assert!(secs >= total / burst * 0.999, "{secs} vs {}", total / burst);
        prop_assert!(secs <= total / sustained * 1.001 + 1e-6);
    }
}
