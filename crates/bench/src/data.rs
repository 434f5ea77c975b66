//! Shared fixtures and runners for the experiment harness.

use std::sync::atomic::{AtomicUsize, Ordering};

use zerosim_core::{max_model_size, CapacityResult, RunConfig, SweepRun, SweepRunner, SweepSpec};
use zerosim_hw::{ClusterSpec, NvmeDrivePlacement, NvmeId, VolumeId};
use zerosim_model::GptConfig;
use zerosim_strategies::{InfinityPlacement, Strategy, TrainOptions, ZeroStage};

/// Worker count used by [`runner`] (set once by the `repro` binary's
/// `--workers` flag; defaults to 1 = serial, fully deterministic either
/// way).
static SWEEP_WORKERS: AtomicUsize = AtomicUsize::new(1);

/// Sets the worker count used by every experiment sweep.
pub fn set_sweep_workers(workers: usize) {
    SWEEP_WORKERS.store(workers.max(1), Ordering::Relaxed);
}

/// The configured sweep worker count.
pub fn sweep_workers() -> usize {
    SWEEP_WORKERS.load(Ordering::Relaxed).max(1)
}

/// A sweep runner at the configured width.
pub fn runner() -> SweepRunner {
    SweepRunner::new(sweep_workers())
}

/// Fans `specs` over [`runner`], panicking on configuration errors (the
/// experiment harness only sweeps configurations that are known to fit).
pub fn sweep(specs: Vec<SweepSpec>) -> Vec<SweepRun> {
    runner()
        .run_parallel(specs)
        .expect("experiment sweep configurations run")
}

/// A sweep spec over the default paper cluster: `strategy` at `model` on
/// `nodes` nodes (quick single-iteration measurement unless `thorough`).
pub fn spec(
    label: impl Into<String>,
    strategy: Strategy,
    model: GptConfig,
    nodes: usize,
    thorough: bool,
) -> SweepSpec {
    let cfg = if thorough {
        RunConfig::default()
    } else {
        RunConfig::quick()
    };
    SweepSpec::new(label, strategy, model, TrainOptions::for_nodes(nodes)).with_run(cfg)
}

/// ZeRO-Infinity striped over a spec's first volume, which
/// [`paper_infinity`] makes the paper's scratch volume.
pub fn infinity(offload_params: bool) -> Strategy {
    Strategy::ZeroInfinity {
        offload_params,
        placement: InfinityPlacement::new(vec![VolumeId(0)]),
    }
}

/// ZeRO-Infinity striped over the paper's scratch volume (drives 0 and 1
/// of node 0, the spec's first volume) on the default paper cluster.
pub fn paper_infinity(
    label: impl Into<String>,
    offload_params: bool,
    model: GptConfig,
    opts: TrainOptions,
) -> SweepSpec {
    let d = |drive| NvmeId { node: 0, drive };
    SweepSpec::new(label, infinity(offload_params), model, opts).with_volume(vec![d(0), d(1)])
}

/// ZeRO-`stage` with the optimizer offloaded to CPU memory and the
/// parameters kept on the GPU.
pub fn cpu_offload(stage: ZeroStage) -> Strategy {
    Strategy::ZeroOffload {
        stage,
        offload_params: false,
    }
}

/// The five baseline configurations of Sec. IV, in figure order.
pub fn baselines(nodes: usize) -> Vec<(&'static str, Strategy)> {
    let tp = nodes * 4;
    vec![
        ("PyTorch DDP", Strategy::Ddp),
        ("Megatron-LM", Strategy::Megatron { tp, pp: 1 }),
        (
            "ZeRO-1",
            Strategy::Zero {
                stage: ZeroStage::One,
            },
        ),
        (
            "ZeRO-2",
            Strategy::Zero {
                stage: ZeroStage::Two,
            },
        ),
        (
            "ZeRO-3",
            Strategy::Zero {
                stage: ZeroStage::Three,
            },
        ),
    ]
}

/// The achieved-model-size search for `spec`'s strategy and options on
/// the cluster and volumes [`SweepSpec::build_sim`] makes of it (`spec`'s
/// model is ignored).
pub fn capacity_of(spec: &SweepSpec) -> CapacityResult {
    let sim = spec.build_sim().expect("experiment clusters build");
    max_model_size(sim.cluster(), &spec.strategy, &spec.opts, sim.calibration())
        .expect("experiment node counts are on the cluster")
        .expect("every experiment strategy fits at least one layer")
}

/// Capacity search for `strategy` on `nodes` nodes of the paper cluster.
pub fn capacity(strategy: &Strategy, nodes: usize) -> CapacityResult {
    capacity_of(&spec(
        "capacity",
        strategy.clone(),
        GptConfig::paper_model(1),
        nodes,
        false,
    ))
}

/// `spec` retargeted at the largest paper-shaped model its strategy fits
/// ([`capacity_of`]), returned with that capacity.
pub fn at_capacity(mut spec: SweepSpec) -> (CapacityResult, SweepSpec) {
    let cap = capacity_of(&spec);
    spec.model = GptConfig::paper_model(cap.num_layers);
    (cap, spec)
}

/// The NVMe data-placement configurations of Fig. 14 / Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmeConfig {
    /// Single drive on socket 1.
    A,
    /// Two drives on socket 1, one RAID0 (the paper's default scratch).
    B,
    /// Two drives split across sockets, one RAID0 spanning both.
    C,
    /// Two drives split across sockets, no RAID (rank → local drive).
    D,
    /// Four drives (two per socket), one RAID0 spanning all.
    E,
    /// Four drives, two per-socket RAID0 volumes (rank → local volume).
    F,
    /// Four drives, no RAID (rank → local drive).
    G,
}

impl NvmeConfig {
    /// All seven configurations in paper order.
    pub const ALL: [NvmeConfig; 7] = [
        NvmeConfig::A,
        NvmeConfig::B,
        NvmeConfig::C,
        NvmeConfig::D,
        NvmeConfig::E,
        NvmeConfig::F,
        NvmeConfig::G,
    ];

    /// Configuration letter.
    pub fn letter(&self) -> char {
        match self {
            NvmeConfig::A => 'A',
            NvmeConfig::B => 'B',
            NvmeConfig::C => 'C',
            NvmeConfig::D => 'D',
            NvmeConfig::E => 'E',
            NvmeConfig::F => 'F',
            NvmeConfig::G => 'G',
        }
    }

    /// Scratch drive layout per node.
    pub fn layout(&self) -> Vec<NvmeDrivePlacement> {
        let s = |socket| NvmeDrivePlacement { socket };
        match self {
            NvmeConfig::A => vec![s(1)],
            NvmeConfig::B => vec![s(1), s(1)],
            NvmeConfig::C | NvmeConfig::D => vec![s(0), s(1)],
            NvmeConfig::E | NvmeConfig::F | NvmeConfig::G => vec![s(0), s(0), s(1), s(1)],
        }
    }

    /// The cluster spec for this configuration (default cluster with this
    /// config's scratch-drive layout).
    pub fn cluster(&self) -> ClusterSpec {
        ClusterSpec::default().with_nvme_layout(self.layout())
    }

    /// The volume member groups, in creation order, as plain data —
    /// creating them in this order yields `VolumeId(0), VolumeId(1), ...`
    /// on any cluster with this config's [`NvmeConfig::layout`].
    pub fn volume_groups(&self) -> Vec<Vec<NvmeId>> {
        let d = |drive| NvmeId { node: 0, drive };
        match self {
            NvmeConfig::A => vec![vec![d(0)]],
            NvmeConfig::B | NvmeConfig::C => vec![vec![d(0), d(1)]],
            NvmeConfig::D => vec![vec![d(0)], vec![d(1)]],
            NvmeConfig::E => vec![vec![d(0), d(1), d(2), d(3)]],
            NvmeConfig::F => vec![vec![d(0), d(1)], vec![d(2), d(3)]],
            NvmeConfig::G => (0..4).map(|i| vec![d(i)]).collect(),
        }
    }

    /// Rank → volume mapping respecting node topology where the config
    /// allows it (ranks 0,1 live on socket 0; 2,3 on socket 1). Indices
    /// refer to [`NvmeConfig::volume_groups`] creation order.
    pub fn placement(&self) -> InfinityPlacement {
        let v = VolumeId;
        let rank_volumes = match self {
            NvmeConfig::A | NvmeConfig::B | NvmeConfig::C | NvmeConfig::E => vec![v(0); 4],
            NvmeConfig::D | NvmeConfig::F => vec![v(0), v(0), v(1), v(1)],
            NvmeConfig::G => (0..4).map(v).collect(),
        };
        InfinityPlacement::new(rank_volumes)
    }

    /// A single-node ZeRO-Infinity sweep spec on this configuration's
    /// cluster and volumes at `model` under `run`; `offload_params` moves
    /// the parameters to NVMe as well as the optimizer state.
    pub fn spec(
        &self,
        label: impl Into<String>,
        offload_params: bool,
        model: GptConfig,
        run: RunConfig,
    ) -> SweepSpec {
        let strategy = Strategy::ZeroInfinity {
            offload_params,
            placement: self.placement(),
        };
        let mut s = SweepSpec::new(label, strategy, model, TrainOptions::single_node())
            .with_cluster(self.cluster())
            .with_run(run);
        for group in self.volume_groups() {
            s = s.with_volume(group);
        }
        s
    }
}

/// The paper's golden `(strategy, nodes)` matrix, in golden order: the
/// 11 configurations that run on a plain paper cluster. The 12th golden
/// configuration, ZeRO-Infinity, needs an NVMe volume, which
/// [`paper_infinity`] adds to its spec (see [`golden_specs`]).
pub fn golden_matrix() -> Vec<(Strategy, usize)> {
    let zero = |stage| Strategy::Zero { stage };
    let offload = |stage, offload_params| Strategy::ZeroOffload {
        stage,
        offload_params,
    };
    vec![
        (Strategy::Ddp, 1),
        (Strategy::Ddp, 2),
        (Strategy::Megatron { tp: 4, pp: 1 }, 1),
        (Strategy::Megatron { tp: 8, pp: 1 }, 2),
        (Strategy::Megatron { tp: 4, pp: 2 }, 2),
        (zero(ZeroStage::One), 1),
        (zero(ZeroStage::Two), 1),
        (zero(ZeroStage::Three), 1),
        (zero(ZeroStage::Three), 2),
        (offload(ZeroStage::Two, false), 1),
        (offload(ZeroStage::Three, true), 1),
    ]
}

/// The [`golden_matrix`] plus the ZeRO-Infinity configuration: 12 sweep
/// specs in fixed order.
///
/// This is the canonical regression workload: `tests/sweep_determinism.rs`
/// pins its width-invariance.
pub fn golden_specs() -> Vec<SweepSpec> {
    let model = GptConfig::paper_model_with_params(1.4);
    let run = RunConfig {
        allow_overflow: true,
        ..RunConfig::quick()
    };
    let mut specs: Vec<SweepSpec> = golden_matrix()
        .into_iter()
        .enumerate()
        .map(|(i, (strategy, nodes))| {
            SweepSpec::new(
                format!("golden-{i:02} {} {nodes}n", strategy.name()),
                strategy,
                model,
                TrainOptions::for_nodes(nodes),
            )
            .with_run(run)
        })
        .collect();
    // Config 12: ZeRO-Infinity over a two-drive RAID0 scratch volume.
    specs.push(
        paper_infinity(
            "golden-11 ZeRO-Infinity 1n",
            true,
            model,
            TrainOptions::single_node(),
        )
        .with_run(run),
    );
    specs
}

/// The offload configurations compared in Sec. V (Figs. 11/12).
pub fn offload_strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("ZeRO-2 (CPU)", cpu_offload(ZeroStage::Two)),
        ("ZeRO-3 (CPU)", cpu_offload(ZeroStage::Three)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_cover_five_configs() {
        assert_eq!(baselines(1).len(), 5);
        assert!(matches!(
            baselines(2)[1].1,
            Strategy::Megatron { tp: 8, pp: 1 }
        ));
    }

    #[test]
    fn nvme_configs_have_expected_drive_counts() {
        assert_eq!(NvmeConfig::A.layout().len(), 1);
        assert_eq!(NvmeConfig::B.layout().len(), 2);
        assert_eq!(NvmeConfig::E.layout().len(), 4);
        let model = GptConfig::paper_model_with_params(1.4);
        for c in NvmeConfig::ALL {
            let spec = c.spec("placement", false, model, RunConfig::quick());
            let sim = spec.build_sim().expect("every NVMe config builds");
            assert_eq!(c.placement().rank_volumes.len(), 4);
            assert_eq!(sim.cluster().volume_count(), c.volume_groups().len());
        }
    }

    #[test]
    fn capacity_runner_works() {
        let cap = capacity(&Strategy::Ddp, 1);
        assert!(cap.billions() > 1.0 && cap.billions() < 2.5);
    }
}
