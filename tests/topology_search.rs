//! Topology-generator and `planfind` invariants, end to end.
//!
//! The generators in `zerosim_hw::TopologySpec` must lower into clusters
//! that behave exactly like hand-written `ClusterSpec`s: routes stay
//! symmetric, every device the spec names is reachable, the closed-form
//! bisection formula matches the lowered flow network, and — the golden
//! anchor — the default topology is *the* paper cluster, byte-identical
//! digests included. On top of that sit the `planfind` acceptance
//! checks: the capacity edge between DDP and the sharded plans on the
//! paper testbed, and pinned, width-invariant search digests.

use zerosim_analyzer::{analyze_strategy, LintConfig};
use zerosim_bench::data::golden_specs;
use zerosim_core::{search_plans, CandidateOutcome, SearchConfig, SearchReport, SweepRunner};
use zerosim_hw::{Cluster, ClusterSpec, GpuId, MemLoc, NvmeId, SocketId, TopologySpec};
use zerosim_model::GptConfig;
use zerosim_strategies::{Calibration, Strategy, TrainOptions};

/// One representative of each generator family, all small enough to
/// exercise in debug builds: a flat RoCE group, an oversubscribed
/// two-rack fat-tree, and a two-pod NVLink-island hierarchy whose pod
/// and spine tiers both narrow.
fn sample_topologies() -> Vec<TopologySpec> {
    vec![
        TopologySpec::Flat { nodes: 4 },
        TopologySpec::FatTree {
            racks: 2,
            nodes_per_rack: 2,
            oversubscription: 4.0,
        },
        TopologySpec::NvlinkIslands {
            pods: 2,
            islands_per_pod: 2,
            gpus_per_island: 4,
            pod_oversubscription: 2.0,
            spine_oversubscription: 2.0,
        },
    ]
}

#[test]
fn every_memloc_on_a_generated_cluster_is_routable() {
    for topo in sample_topologies() {
        let spec = topo.build().expect("sample topology builds");
        let cluster = Cluster::new(spec.clone()).expect("sample topology lowers");
        let anchor = MemLoc::Gpu(GpuId { node: 0, gpu: 0 });
        // Every GPU the spec names reaches GPU 0/0 (GPU self-routes are
        // the one defined error).
        for node in 0..spec.nodes {
            for gpu in 0..spec.gpus_per_node {
                let loc = MemLoc::Gpu(GpuId { node, gpu });
                if loc == anchor {
                    assert!(cluster.try_route(loc, anchor).is_err(), "self-route");
                    continue;
                }
                cluster
                    .try_route(loc, anchor)
                    .unwrap_or_else(|e| panic!("{topo:?}: {loc:?} -> anchor: {e}"));
            }
        }
        // Every CPU socket reaches a node-local GPU and the remote CPU
        // mesh; every NVMe drive reaches its local socket.
        for node in 0..spec.nodes {
            for socket in 0..ClusterSpec::SOCKETS_PER_NODE {
                let cpu = MemLoc::Cpu(SocketId { node, socket });
                let local_gpu = MemLoc::Gpu(GpuId { node, gpu: 0 });
                cluster
                    .try_route(cpu, local_gpu)
                    .unwrap_or_else(|e| panic!("{topo:?}: {cpu:?} -> local GPU: {e}"));
                let far_cpu = MemLoc::Cpu(SocketId {
                    node: (node + 1) % spec.nodes,
                    socket,
                });
                cluster
                    .try_route(cpu, far_cpu)
                    .unwrap_or_else(|e| panic!("{topo:?}: {cpu:?} -> {far_cpu:?}: {e}"));
            }
            for drive in 0..spec.nvme_layout.len() {
                let nvme = MemLoc::Nvme(NvmeId { node, drive });
                let cpu = MemLoc::Cpu(SocketId { node, socket: 0 });
                cluster
                    .try_route(cpu, nvme)
                    .unwrap_or_else(|e| panic!("{topo:?}: {cpu:?} -> {nvme:?}: {e}"));
            }
        }
    }
}

#[test]
fn generated_routes_are_symmetric_in_latency_and_hop_count() {
    for topo in sample_topologies() {
        let spec = topo.build().expect("sample topology builds");
        let cluster = Cluster::new(spec.clone()).expect("sample topology lowers");
        let last = spec.nodes - 1;
        let pairs = [
            // Same node, adjacent GPUs (NVLink).
            (
                MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
                MemLoc::Gpu(GpuId { node: 0, gpu: 1 }),
            ),
            // The longest GPU path: first node to last node, crossing
            // every fabric tier the generator built.
            (
                MemLoc::Gpu(GpuId { node: 0, gpu: 0 }),
                MemLoc::Gpu(GpuId {
                    node: last,
                    gpu: spec.gpus_per_node - 1,
                }),
            ),
            // Cross-node CPU mesh.
            (
                MemLoc::Cpu(SocketId { node: 0, socket: 0 }),
                MemLoc::Cpu(SocketId {
                    node: last,
                    socket: 1,
                }),
            ),
        ];
        for (a, b) in pairs {
            let fwd = cluster
                .try_route(a, b)
                .unwrap_or_else(|e| panic!("{topo:?}: {a:?} -> {b:?}: {e}"));
            let rev = cluster
                .try_route(b, a)
                .unwrap_or_else(|e| panic!("{topo:?}: {b:?} -> {a:?}: {e}"));
            assert_eq!(
                fwd.latency, rev.latency,
                "{topo:?}: latency asymmetry {a:?} <-> {b:?}"
            );
            assert_eq!(
                fwd.hops(),
                rev.hops(),
                "{topo:?}: hop-count asymmetry {a:?} <-> {b:?}"
            );
        }
    }
}

#[test]
fn closed_form_bisection_matches_the_lowered_flow_network() {
    let mut topologies = sample_topologies();
    // Push the asymmetric corners too: a single-rack tree (cut under one
    // ToR), a heavily oversubscribed spine, and the degenerate one-node
    // cluster (no cut at all).
    topologies.push(TopologySpec::FatTree {
        racks: 1,
        nodes_per_rack: 4,
        oversubscription: 2.0,
    });
    topologies.push(TopologySpec::NvlinkIslands {
        pods: 4,
        islands_per_pod: 2,
        gpus_per_island: 2,
        pod_oversubscription: 1.0,
        spine_oversubscription: 8.0,
    });
    topologies.push(TopologySpec::Flat { nodes: 1 });
    for topo in topologies {
        let cluster = Cluster::new(topo.build().expect("topology builds")).expect("lowers");
        assert_eq!(
            topo.bisection_bandwidth(),
            cluster.bisection_bandwidth(),
            "{topo:?}: generator closed form disagrees with the built links"
        );
    }
}

#[test]
fn default_topology_is_the_paper_cluster_spec() {
    // The golden anchor: the default generator output is *equal* to the
    // hand-written paper spec, so every digest computed on one holds on
    // the other by construction.
    assert_eq!(
        TopologySpec::default().build().unwrap(),
        ClusterSpec::default()
    );
    assert_eq!(
        TopologySpec::parse("paper").unwrap(),
        TopologySpec::default()
    );
    for nodes in [1usize, 2, 4] {
        assert_eq!(
            TopologySpec::Flat { nodes }.build().unwrap(),
            ClusterSpec::default().with_nodes(nodes),
            "flat:{nodes} must lower to the paper spec at {nodes} node(s)"
        );
    }
}

#[test]
fn golden_dozen_digests_survive_the_topology_generator() {
    // Rebuild each golden spec's cluster through the generator; the spec
    // structs must match field-for-field across the whole dozen...
    let originals = golden_specs();
    let mut regenerated = golden_specs();
    for spec in &mut regenerated {
        let nodes = spec.cluster.nodes;
        spec.cluster = TopologySpec::Flat { nodes }
            .build()
            .expect("flat topology builds");
    }
    for (orig, regen) in originals.iter().zip(&regenerated) {
        assert_eq!(
            orig.cluster, regen.cluster,
            "generated cluster drifted for {}",
            orig.label
        );
    }
    // ...and a 1- and 2-node spot check must run to identical digests.
    let runner = SweepRunner::new(1);
    for idx in [1usize, 7] {
        let want = runner
            .run_parallel(vec![originals[idx].clone()])
            .expect("golden spec runs");
        let got = runner
            .run_parallel(vec![regenerated[idx].clone()])
            .expect("regenerated spec runs");
        assert_eq!(
            want[0].digest, got[0].digest,
            "digest drifted for {}",
            originals[idx].label
        );
    }
}

#[test]
fn zl004_covers_fabric_links_on_an_oversubscribed_fat_tree() {
    // On a 4:1-oversubscribed two-rack tree, DDP's all-reduce crosses
    // the ToR uplinks; the bandwidth pass walks real routes, so the
    // fabric tier must show up in the link verdicts without any
    // analyzer-side topology knowledge.
    let topo = TopologySpec::FatTree {
        racks: 2,
        nodes_per_rack: 2,
        oversubscription: 4.0,
    };
    let cluster = Cluster::new(topo.build().unwrap()).unwrap();
    let report = analyze_strategy(
        &cluster,
        &Strategy::Ddp,
        &GptConfig::paper_model_with_params(1.4),
        &TrainOptions::for_nodes(4),
        &Calibration::default(),
        LintConfig::new(),
    )
    .expect("DDP plans on the generated tree");
    let fabric: Vec<&str> = report
        .links
        .iter()
        .map(|l| l.name.as_str())
        .filter(|n| n.starts_with("fab"))
        .collect();
    assert!(
        fabric.iter().any(|n| n.starts_with("fab0g")),
        "expected ToR uplink verdicts, got fabric links {fabric:?} among {:?}",
        report
            .links
            .iter()
            .map(|l| l.name.as_str())
            .collect::<Vec<_>>()
    );
}

/// Runs `config` at widths 1 and 2 (the memory verdicts run serially,
/// the vetting and simulation on the runner), checks that both reports
/// carry `digest` and render alike, and returns the serial report.
fn pinned_search(config: &SearchConfig, digest: u64) -> SearchReport {
    let serial = search_plans(config).expect("search runs serially");
    let fanned = search_plans(&config.clone().with_workers(2)).expect("search runs fanned");
    for (width, report) in [(1, &serial), (2, &fanned)] {
        assert_eq!(
            report.digest(),
            digest,
            "{} at {:.1} B drifted at width {width}:\n{}",
            report.topology,
            report.model_params / 1e9,
            report.render_text(usize::MAX)
        );
    }
    assert_eq!(
        serial.render_text(usize::MAX),
        fanned.render_text(usize::MAX)
    );
    serial
}

/// How many candidates `report` pruned for exactly `reason`.
fn pruned_for(report: &SearchReport, reason: &str) -> usize {
    report
        .candidates
        .iter()
        .filter(|c| matches!(&c.outcome, CandidateOutcome::Pruned { reason: r } if r == reason))
        .count()
}

#[test]
fn planfind_prunes_ddp_at_the_capacity_edge_on_the_paper_testbed() {
    // 5.6 B on the two-node testbed: a full replica no longer fits a
    // single GPU, so the static pass must reject DDP on memory grounds
    // while the sharded plans survive to simulation and win the ranking.
    let report = pinned_search(
        &SearchConfig::new(
            TopologySpec::default(),
            GptConfig::paper_model_with_params(5.6),
        ),
        0x9008_7bfc_48d2_e6ad,
    );
    let ddp = report
        .candidates
        .iter()
        .find(|c| c.strategy_name == "PyTorch DDP")
        .expect("DDP is always enumerated");
    match &ddp.outcome {
        CandidateOutcome::Pruned { reason } => {
            assert!(reason.contains("fit"), "DDP pruned for {reason:?}")
        }
        other => panic!("DDP must be statically pruned at 5.6 B, got {other:?}"),
    }
    assert!(
        report.candidates.iter().any(|c| c.strategy_name == "ZeRO-3"
            && matches!(c.outcome, CandidateOutcome::Simulated { .. })),
        "ZeRO-3 must survive to simulation"
    );
    let best = report.best().expect("some plan fits at 5.6 B");
    assert_ne!(best.strategy_name, "PyTorch DDP");
}

#[test]
fn planfind_ranks_ddp_first_and_stays_width_invariant_on_the_paper_testbed() {
    // 1.4 B everywhere-fits: the known-best golden strategy is plain
    // DDP, and fanning the survivor sweeps across workers must not
    // change a byte of the report.
    let report = pinned_search(
        &SearchConfig::new(
            TopologySpec::default(),
            GptConfig::paper_model_with_params(1.4),
        ),
        0x5558_2127_5941_c82c,
    );
    assert_eq!(
        report.best().expect("1.4 B fits").strategy_name,
        "PyTorch DDP"
    );
}

#[test]
fn planfind_pins_the_one_node_capacity_edge_and_the_all_pruned_grid() {
    // 8 B on one node (perfbench's planfind_edge search): seven of ten
    // candidates die on the memory verdict, three are vetted and run.
    let edge = pinned_search(
        &SearchConfig::new(
            TopologySpec::Flat { nodes: 1 },
            GptConfig::paper_model_with_params(8.0),
        ),
        0x1120_3657_bda7_5bba,
    );
    assert_eq!(edge.enumerated(), 10);
    assert_eq!(pruned_for(&edge, "does not fit (gpu tier)"), 7);
    assert_eq!((edge.simulated(), edge.failed()), (3, 0));

    // 1,000 B (the CLI's largest size) fits nowhere: every candidate is
    // pruned on memory alone.
    let all = pinned_search(
        &SearchConfig::new(
            TopologySpec::Flat { nodes: 1 },
            GptConfig::paper_model_with_params(1000.0),
        ),
        0xd522_301a_6658_1e98,
    );
    assert_eq!(all.enumerated(), 10);
    assert_eq!(pruned_for(&all, "does not fit (gpu tier)"), 10);
}
