//! The four workloads: inputs made from the seed, one op, the compile
//! step `setup_s` times, and each workload's invariants.
//!
//! The golden matrix is a frozen copy of the experiment harness's golden
//! dozen, so the harness can change without changing what this benchmark
//! measures.

use std::hint::black_box;

use zerosim_core::{
    search_plans, ArrivalProcess, RunConfig, SearchConfig, SearchReport, ServeSpec, SweepSpec,
    TraceConfig, TrainingSim,
};
use zerosim_hw::{Cluster, ClusterSpec, NvmeId, TopologySpec, VolumeId};
use zerosim_model::GptConfig;
use zerosim_simkit::SimTime;
use zerosim_strategies::{
    kv_bucket, lower, Calibration, InfinityPlacement, IterCtx, LoweredPlan, ServingStrategy,
    Strategy, StrategyPlan, TrainOptions, ZeroStage,
};

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One pass of the 12 golden paper configurations.
    Golden12,
    /// ZeRO-3 on a 14 B wide model over a 32-GPU NVLink-island pod cluster.
    Pods32Zero3,
    /// The capacity-edge placement search (8 B model on one flat node).
    PlanfindEdge,
    /// Open-loop Poisson serving of 400 requests on dense TP=4.
    ServeOpen,
}

/// The pod topology of [`Workload::Pods32Zero3`].
const PODS_TOPOLOGY: &str = "pods:2x2x8:2:2";
/// The lowest static prune fraction a `planfind_edge` op may report.
const PLANFIND_MIN_PRUNE: f64 = 0.5;
/// Requests in one `serve_open` trace; every one must complete.
const SERVE_REQUESTS: usize = 400;

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Golden12,
        Workload::Pods32Zero3,
        Workload::PlanfindEdge,
        Workload::ServeOpen,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Golden12 => "golden12",
            Workload::Pods32Zero3 => "pods32_zero3",
            Workload::PlanfindEdge => "planfind_edge",
            Workload::ServeOpen => "serve_open",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's inputs for `seed`: the jitter seed of the training
    /// workloads, the trace seed of `serve_open`. The search has no seed
    /// input, so `planfind_edge` is the same for every seed.
    ///
    /// # Errors
    /// A description of an input that fails to build.
    pub(crate) fn inputs(self, seed: u64) -> Result<Inputs, String> {
        let quick = RunConfig {
            allow_overflow: true,
            ..RunConfig::quick()
        };
        Ok(match self {
            Workload::Golden12 => Inputs::Training(golden12(seed, quick)),
            Workload::Pods32Zero3 => {
                let topology = TopologySpec::parse(PODS_TOPOLOGY)?;
                let opts = TrainOptions::for_nodes(topology.nodes()).with_jitter_seed(seed);
                Inputs::Training(vec![SweepSpec::new(
                    "pods32 ZeRO-3 14B",
                    Strategy::Zero {
                        stage: ZeroStage::Three,
                    },
                    GptConfig::wide_model_with_params(14.0),
                    opts,
                )
                .with_cluster(topology.build()?)
                .with_run(quick)])
            }
            Workload::PlanfindEdge => Inputs::Search(SearchConfig::new(
                TopologySpec::Flat { nodes: 1 },
                GptConfig::paper_model_with_params(8.0),
            )),
            Workload::ServeOpen => Inputs::Serve(
                ServeSpec::new(
                    "serve_open dense TP=4",
                    ServingStrategy::Dense,
                    GptConfig::paper_model_with_params(1.4),
                    TrainOptions::single_node(),
                    TraceConfig {
                        requests: SERVE_REQUESTS,
                        arrivals: ArrivalProcess::Open { rate_rps: 60.0 },
                        prompt_tokens: (128, 512),
                        output_tokens: (16, 48),
                        seed,
                    },
                )
                .with_max_batch(8),
            ),
        })
    }
}

/// The golden strategy × node-count matrix plus ZeRO-Infinity over a
/// two-drive RAID0 volume: 12 specs in fixed order at the 1.4 B paper
/// model.
fn golden12(seed: u64, run: RunConfig) -> Vec<SweepSpec> {
    let model = GptConfig::paper_model_with_params(1.4);
    let zero = |stage| Strategy::Zero { stage };
    let offload = |stage, offload_params| Strategy::ZeroOffload {
        stage,
        offload_params,
    };
    let matrix = [
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
    ];
    let opts = |nodes| TrainOptions::for_nodes(nodes).with_jitter_seed(seed);
    let mut specs: Vec<SweepSpec> = matrix
        .into_iter()
        .enumerate()
        .map(|(i, (strategy, nodes))| {
            let label = format!("golden-{i:02} {} {nodes}n", strategy.name());
            SweepSpec::new(label, strategy, model, opts(nodes)).with_run(run)
        })
        .collect();
    let drive = |drive| NvmeId { node: 0, drive };
    specs.push(
        SweepSpec::new(
            "golden-11 ZeRO-Infinity 1n",
            Strategy::ZeroInfinity {
                offload_params: true,
                placement: InfinityPlacement::new(vec![VolumeId(0)]),
            },
            model,
            opts(1),
        )
        .with_volume(vec![drive(0), drive(1)])
        .with_run(run),
    );
    specs
}

/// A workload's prepared inputs.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one value per run
pub(crate) enum Inputs {
    /// Training configurations, each run by [`SweepSpec::execute`].
    Training(Vec<SweepSpec>),
    /// One placement search.
    Search(SearchConfig),
    /// One serving run.
    Serve(ServeSpec),
}

/// What one op returns: its digest plus what the traced run cross-checks.
#[derive(Debug, Clone)]
pub(crate) struct OpOutput {
    /// Fingerprint of everything the op simulated.
    pub digest: u64,
    /// The workload-specific result.
    pub detail: Detail,
}

/// Workload-specific op result.
#[derive(Debug, Clone)]
pub(crate) enum Detail {
    /// Simulated iteration time of each training configuration, in order.
    Training(Vec<SimTime>),
    /// The search report.
    Search(SearchReport),
    /// A serving run (its digest is all the traced run checks).
    Serve,
}

/// Order-sensitive digest combiner.
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29)
}

/// Cluster build, memory and iteration planning, and lowering: the
/// per-configuration compile step.
fn compile(
    cluster: &ClusterSpec,
    volumes: &[Vec<NvmeId>],
    strategy: &dyn StrategyPlan,
    model: &GptConfig,
    opts: &TrainOptions,
    calib: &Calibration,
) -> Result<LoweredPlan, String> {
    let mut cluster = Cluster::new(cluster.clone())?;
    for members in volumes {
        cluster.create_volume(members.clone());
    }
    let ctx = IterCtx {
        cluster: &cluster,
        model,
        opts,
        calib,
    };
    black_box(strategy.plan_memory(&ctx).map_err(|e| e.to_string())?);
    let plan = strategy.plan_iteration(&ctx).map_err(|e| e.to_string())?;
    lower(&plan, &cluster, calib).map_err(|e| e.to_string())
}

impl Inputs {
    /// Runs one op. Fails on an error from the program or a broken
    /// workload invariant: a zero iteration time, a search pruning less
    /// than [`PLANFIND_MIN_PRUNE`], or a serve run that leaves requests
    /// unfinished.
    ///
    /// # Errors
    /// A description of the failure.
    pub(crate) fn run_op(&self) -> Result<OpOutput, String> {
        match self {
            Inputs::Training(specs) => {
                let mut digest = 0;
                let mut iter_times = Vec::with_capacity(specs.len());
                for spec in specs {
                    let run = spec.execute().map_err(|e| format!("{}: {e}", spec.label))?;
                    if run.report.iter_time == SimTime::ZERO {
                        return Err(format!("{}: zero iteration time", spec.label));
                    }
                    digest = fold(digest, run.digest);
                    iter_times.push(run.report.iter_time);
                }
                Ok(OpOutput {
                    digest,
                    detail: Detail::Training(iter_times),
                })
            }
            Inputs::Search(cfg) => {
                let report = search_plans(cfg).map_err(|e| e.to_string())?;
                if report.prune_fraction() < PLANFIND_MIN_PRUNE {
                    return Err(format!(
                        "prune fraction {} below {PLANFIND_MIN_PRUNE}",
                        report.prune_fraction()
                    ));
                }
                Ok(OpOutput {
                    digest: report.digest(),
                    detail: Detail::Search(report),
                })
            }
            Inputs::Serve(spec) => {
                let run = spec.execute().map_err(|e| e.to_string())?;
                if run.report.requests != spec.trace.requests {
                    return Err(format!(
                        "{} of {} requests completed",
                        run.report.requests, spec.trace.requests
                    ));
                }
                Ok(OpOutput {
                    digest: run.digest,
                    detail: Detail::Serve,
                })
            }
        }
    }

    /// The compile step that `setup_s` times, outside any op: cluster,
    /// plans, and lowering for every training configuration; for the
    /// search, the same for every candidate `first` enumerated (stopping
    /// where a candidate cannot plan, as the search does); for serving, a
    /// fresh simulator, the sampled trace, and the lowered plans of the
    /// first request's prefill and first decode step.
    ///
    /// # Errors
    /// A description of a compile step that failed.
    pub(crate) fn setup(&self, first: &OpOutput) -> Result<(), String> {
        match (self, &first.detail) {
            (Inputs::Training(specs), _) => {
                for s in specs {
                    let lowered = compile(
                        &s.cluster,
                        &s.volumes,
                        &s.strategy,
                        &s.model,
                        &s.opts,
                        &s.calibration,
                    )?;
                    black_box(lowered);
                }
            }
            (Inputs::Search(cfg), Detail::Search(report)) => {
                let cluster = cfg.topology.build()?;
                let opts = TrainOptions::for_nodes(cfg.topology.nodes());
                for c in &report.candidates {
                    let lowered = compile(
                        &cluster,
                        &[],
                        &c.strategy,
                        &cfg.model,
                        &opts,
                        &cfg.calibration,
                    );
                    black_box(lowered.ok());
                }
            }
            (Inputs::Serve(spec), _) => {
                let mut sim = TrainingSim::with_calibration(spec.cluster.clone(), spec.calibration)
                    .map_err(|e| e.to_string())?;
                for members in &spec.volumes {
                    sim.cluster_mut().create_volume(members.clone());
                }
                let trace = spec.trace.sample();
                let prompt = trace.first().ok_or("empty trace")?.prompt_tokens;
                let ctx = IterCtx {
                    cluster: sim.cluster(),
                    model: &spec.model,
                    opts: &spec.opts,
                    calib: sim.calibration(),
                };
                let prefill = spec.strategy.plan_prefill(&ctx, prompt, 1);
                let decode = spec.strategy.plan_decode(&ctx, 0, 1, kv_bucket(prompt + 1));
                for plan in [prefill, decode] {
                    let plan = plan.map_err(|e| e.to_string())?;
                    let lowered = lower(&plan, sim.cluster(), sim.calibration());
                    black_box(lowered.map_err(|e| e.to_string())?);
                }
            }
            (Inputs::Search(_), _) => return Err("search setup needs a search op".into()),
        }
        Ok(())
    }
}
