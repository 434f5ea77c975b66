//! Fleet-scale resilience economics: node losses sampled into
//! [`FaultSchedule`]s, Young/Daly checkpoint-interval selection, and the
//! Monte-Carlo ensemble runner behind the `fleetplan` cost search.
//!
//! The fault layer so far (PR 3) answered "what does *one* fault cost"
//! with hand-written scenarios. At production scale the question becomes
//! statistical: given a *failure rate* λ, what checkpoint cadence and
//! cluster configuration minimize dollars-to-train? This module provides
//! the three pieces:
//!
//! 1. **Node-loss sampling** — [`FleetProfile`] holds one optional
//!    per-node MTBF, and [`FleetProfile::sample_schedule`] draws each
//!    node's exponential time to its one fatal failure into an ordinary
//!    [`FaultSchedule`]. Sampling is deterministic: each node owns an RNG
//!    stream forked from the schedule seed and a stable tag, so the same
//!    seed yields a byte-identical schedule, and sampled schedules pass
//!    planlint ZL007 clean by construction (one loss per node, no
//!    degradation windows).
//! 2. **Young/Daly** — [`young_interval_s`] (τ = √(2·C·M)) and the
//!    higher-order [`daly_interval_s`] refinement convert a *measured*
//!    checkpoint cost ([`crate::TrainingSim::checkpoint_cost`]) and a
//!    system MTBF into the optimal checkpoint interval;
//!    [`waste_fraction`] is the first-order waste model
//!    `W = C/τ + (τ/2 + R)/M` they minimize.
//! 3. **Monte-Carlo validation** — [`run_ensemble`] fans N sampled
//!    schedules of one configuration across the deterministic
//!    [`SweepRunner`] (input-ordered, so results are byte-identical at
//!    any worker width) into goodput/TTR distributions, and
//!    [`young_daly_bracket`] replays the *same* sampled fault sequences
//!    at 0.5×, 1×, and 2× the Young/Daly interval to check the analytic
//!    optimum against simulated goodput.
//!
//! [`fleet_search`] composes all of it with [`crate::search_plans`] and
//! the [`CostModel`]/[`PowerModel`] layers to rank
//! (strategy × placement × checkpoint-interval) by dollars-to-train —
//! ROADMAP item 5's "cheapest configuration to train model X in T days
//! at failure rate λ".

use zerosim_hw::{Cluster, TopologySpec};
use zerosim_model::GptConfig;
use zerosim_simkit::{mix, nearest_rank, FaultKind, FaultSchedule};
use zerosim_strategies::{RecoveryPolicy, TrainOptions};
use zerosim_testkit::rng::Rng;

use crate::cost::CostModel;
use crate::energy::PowerModel;
use crate::engine::RunConfig;
use crate::error::CoreError;
use crate::faults::FaultConfig;
use crate::report::mix_str;
use crate::search::{search_plans, SearchConfig};
use crate::sweep::{SweepRunner, SweepSpec};

/// Hours per simulated-fleet day, used to convert per-day failure rates
/// into MTBF seconds.
const SECS_PER_DAY: f64 = 86_400.0;

/// The node-loss process a fleet samples: exponential node-fatal
/// failures (kernel panic, PSU, baseboard) at one per-node MTBF. Each
/// node fails at most once, and a loss aborts the run into the
/// checkpoint/restart path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetProfile {
    /// Per-node mean time between node-fatal failures, seconds; `None`
    /// samples no failures.
    pub node: Option<f64>,
}

/// The node-fatal share of the aggregate per-node failure rate
/// [`FleetProfile::from_node_rate`] takes.
const FATAL_FRACTION: f64 = 0.4;

impl FleetProfile {
    /// No node losses: every sampled schedule is empty.
    pub fn healthy() -> Self {
        FleetProfile::default()
    }

    /// Node-fatal failures, exponentially distributed with the given
    /// per-node MTBF — the process Young/Daly analysis assumes, and the
    /// one the bracket validation samples.
    pub fn node_only(mtbf_s: f64) -> Self {
        FleetProfile { node: Some(mtbf_s) }
    }

    /// Node losses at the node-fatal share of an aggregate failure rate
    /// of `failures_per_node_day` (failures per node per day, all classes
    /// combined). 40% of the failures kill the node, following the
    /// fleet-incident breakdowns reported for large GPU training clusters
    /// (roughly half the incidents kill the job); the rest degrade a run
    /// without rolling it back and are not sampled.
    pub fn from_node_rate(failures_per_node_day: f64) -> Self {
        FleetProfile::node_only(SECS_PER_DAY / (failures_per_node_day * FATAL_FRACTION))
    }

    /// System MTBF for *fatal* (node-loss) failures across `nodes` nodes:
    /// the per-node mean divided by the node count, or `None` when the
    /// profile has no node-fatal hazard. This is the `M` Young/Daly
    /// consumes at fleet scale, where losses are far rarer than the
    /// sampling horizon.
    pub fn fatal_mtbf_s(&self, nodes: usize) -> Option<f64> {
        self.node.map(|mtbf_s| mtbf_s / nodes.max(1) as f64)
    }

    /// The *effective* fatal MTBF the sampled process realizes over a
    /// finite horizon: [`FleetProfile::sample_schedule`] caps losses at
    /// one per node (a lost node stays lost), so over a window `W` the
    /// expected loss count is `n·(1 − e^{−W/M_node})` — below the
    /// uncapped `n·W/M_node` once `W` is comparable to the per-node mean.
    /// Young/Daly must be fed the rate the run will actually face;
    /// [`young_daly_bracket`] uses this, and it converges to
    /// [`FleetProfile::fatal_mtbf_s`] as `W/M_node → 0`.
    pub fn effective_fatal_mtbf_s(&self, nodes: usize, horizon_s: f64) -> Option<f64> {
        let mtbf_node = self.node?;
        if !positive(horizon_s) || !non_negative(mtbf_node) {
            return Some(f64::INFINITY);
        }
        // A per-node MTBF of 0 loses every node at once: `e^{−W/0} = 0`,
        // so `n` losses over the horizon.
        let expected = nodes.max(1) as f64 * (1.0 - (-horizon_s / mtbf_node).exp());
        if expected <= 0.0 {
            return Some(f64::INFINITY);
        }
        Some(horizon_s / expected)
    }

    /// Inverts [`FleetProfile::effective_fatal_mtbf_s`]: the per-node
    /// MTBF whose capped sampling realizes `target_eff_mtbf_s` over
    /// `horizon_s` on `nodes` nodes. Returns `None` when the target is
    /// unreachable — the cap bounds the expected loss count at `n`, so
    /// effective MTBFs below `horizon/n` cannot be realized.
    pub fn node_mtbf_for_effective(
        nodes: usize,
        horizon_s: f64,
        target_eff_mtbf_s: f64,
    ) -> Option<f64> {
        if !positive(horizon_s) || !positive(target_eff_mtbf_s) {
            return None;
        }
        let frac = horizon_s / (nodes.max(1) as f64 * target_eff_mtbf_s);
        if frac >= 1.0 {
            return None;
        }
        Some(-horizon_s / (1.0 - frac).ln())
    }

    /// Samples this profile against `cluster` into a seed-stamped
    /// [`FaultSchedule`] covering `[0, horizon_s)`.
    ///
    /// Determinism contract: each node draws its time to failure from its
    /// own RNG stream seeded by `mix(mix(seed, node tag), node index)`, so
    /// the same `(profile, cluster, horizon, seed)` always yields a
    /// digest-identical schedule. Each node dies at most once — a lost
    /// node stays lost for the rest of the schedule (ZL007 denies a
    /// second loss, and the restart machinery models the recovery) — so
    /// the schedules pass planlint ZL007 with no findings.
    ///
    /// # Errors
    /// [`CoreError::BadScenario`] when `horizon_s` is not finite and
    /// positive.
    pub fn sample_schedule(
        &self,
        cluster: &Cluster,
        horizon_s: f64,
        seed: u64,
    ) -> Result<FaultSchedule, CoreError> {
        if !(horizon_s.is_finite() && horizon_s > 0.0) {
            return Err(CoreError::BadScenario(format!(
                "sampling horizon must be finite and positive, got {horizon_s}"
            )));
        }
        const TAG_NODE: u64 = 0x6e6f_6465; // "node"
        let mut s = FaultSchedule::new(seed);
        let Some(mtbf_s) = self.node else {
            return Ok(s);
        };
        for node in 0..cluster.spec().nodes {
            let mut rng = Rng::new(mix(mix(seed, TAG_NODE), node as u64));
            let t = time_to_failure(mtbf_s, &mut rng);
            if t < horizon_s {
                s = s.at(t, FaultKind::NodeLoss { node })?;
            }
        }
        Ok(s)
    }
}

/// Draws one exponential time to failure (seconds) with mean `mtbf_s` by
/// inverse-CDF sampling.
fn time_to_failure(mtbf_s: f64, rng: &mut Rng) -> f64 {
    // `next_f64` is in [0, 1); `1 - u` is in (0, 1], so the log is finite
    // and the sampled time non-negative.
    let u = rng.next_f64();
    -mtbf_s * (1.0 - u).ln()
}

/// NaN-safe strict positivity: false for NaN, zero, and negatives.
fn positive(x: f64) -> bool {
    x > 0.0
}

/// NaN-safe non-negativity: false for NaN and negatives.
fn non_negative(x: f64) -> bool {
    x >= 0.0
}

/// NaN-safe finite strict positivity (rejects `+∞` too).
fn finite_positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// A system MTBF the interval formulas can use: finite and non-negative.
/// `0` means failures without pause; `+∞` means no failures at all.
fn finite_mtbf(mtbf_s: f64) -> bool {
    mtbf_s.is_finite() && non_negative(mtbf_s)
}

/// Young's optimal checkpoint interval `τ = √(2·C·M)` for a checkpoint
/// that costs `ckpt_cost_s` seconds under a system MTBF of `mtbf_s`
/// seconds. Returns `+∞` (never checkpoint) when the cost is not
/// positive or the MTBF is negative or infinite; an MTBF of 0 (failures
/// without pause) gives `τ = 0`.
pub fn young_interval_s(ckpt_cost_s: f64, mtbf_s: f64) -> f64 {
    if !positive(ckpt_cost_s) || !finite_mtbf(mtbf_s) {
        return f64::INFINITY;
    }
    (2.0 * ckpt_cost_s * mtbf_s).sqrt()
}

/// Daly's higher-order refinement of [`young_interval_s`]:
/// `τ = √(2·C·M)·[1 + ⅓·√(C/2M) + ⅑·(C/2M)] − C` for `C < 2M`, and
/// `τ = M` once checkpoints cost more than the mean failure interval can
/// amortize. Agrees with Young to first order and stays accurate when
/// `C` is a non-trivial fraction of `M` — exactly the compressed-MTBF
/// regime the Monte-Carlo validation runs in. Degenerate inputs map as in
/// [`young_interval_s`]; `M = 0` takes the `τ = M` branch.
pub fn daly_interval_s(ckpt_cost_s: f64, mtbf_s: f64) -> f64 {
    if !positive(ckpt_cost_s) || !finite_mtbf(mtbf_s) {
        return f64::INFINITY;
    }
    if ckpt_cost_s >= 2.0 * mtbf_s {
        return mtbf_s;
    }
    let x = (ckpt_cost_s / (2.0 * mtbf_s)).sqrt();
    (2.0 * ckpt_cost_s * mtbf_s).sqrt() * (1.0 + x / 3.0 + x * x / 9.0) - ckpt_cost_s
}

/// First-order expected waste fraction of a checkpointed run: checkpoint
/// overhead `C/τ` plus expected rework-and-recovery `(τ/2 + R)/M` per
/// failure interval, clamped to `[0, 1]`. `R` is the time lost per
/// failure beyond rework (restart delay + restore traffic). An MTBF of 0
/// (failures without pause) wastes everything; an infinite one, nothing.
pub fn waste_fraction(ckpt_cost_s: f64, interval_s: f64, mtbf_s: f64, recover_s: f64) -> f64 {
    if mtbf_s == 0.0 {
        return 1.0;
    }
    if !positive(interval_s) || !finite_positive(mtbf_s) {
        return 0.0;
    }
    (ckpt_cost_s.max(0.0) / interval_s + (interval_s / 2.0 + recover_s.max(0.0)) / mtbf_s).min(1.0)
}

/// Converts a checkpoint interval in seconds to whole committed
/// iterations (the unit [`RecoveryPolicy::checkpoint_interval`] uses),
/// rounding to nearest and never below 1.
pub fn interval_iters(interval_s: f64, iter_s: f64) -> usize {
    if !positive(iter_s) || !interval_s.is_finite() {
        return 1;
    }
    // Clamped before the cast: intervals beyond ~1e6 iterations mean
    // "effectively never" and lose nothing to saturation.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let k = (interval_s / iter_s).round().clamp(1.0, 1e6) as usize;
    k
}

/// Configuration of a Monte-Carlo fault ensemble over one training
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleConfig {
    /// Sampled schedules to run (the acceptance floor is 32 for bench
    /// artifacts; tests use fewer).
    pub samples: usize,
    /// Sampling horizon, seconds — how much simulated time the hazard
    /// processes cover. Pick it ≥ the expected faulted wall time so
    /// late-run faults are represented.
    pub horizon_s: f64,
    /// Base seed; sample `i` draws from `mix(seed, i)`.
    pub seed: u64,
    /// Worker threads. Results are input-ordered and byte-identical at
    /// any width.
    pub workers: usize,
    /// Checkpoint cadence and restart charging for every sample.
    pub policy: RecoveryPolicy,
}

impl EnsembleConfig {
    /// An ensemble of `samples` schedules over `horizon_s` seconds with
    /// seed 0, one worker, a generous recovery budget, and DRAM
    /// checkpoints every 4 iterations.
    pub fn new(samples: usize, horizon_s: f64) -> Self {
        EnsembleConfig {
            samples,
            horizon_s,
            seed: 0,
            workers: 1,
            policy: RecoveryPolicy::every(4).with_max_recoveries(64),
        }
    }

    /// Replaces the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the recovery policy.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Order statistics of one ensemble metric. Percentiles are nearest-rank
/// ([`nearest_rank`]), like every other percentile in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnsembleStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median: the sorted sample of rank `ceil(n / 2)`.
    pub p50: f64,
    /// 99th percentile: the sorted sample of rank `ceil(0.99·n)`.
    pub p99: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl EnsembleStats {
    /// Stats over `values` (empty input yields all zeros).
    pub fn from_samples(values: &[f64]) -> Self {
        if values.is_empty() {
            return EnsembleStats::default();
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        EnsembleStats {
            mean: v.iter().sum::<f64>() / v.len() as f64,
            p50: nearest_rank(&v, 0.5),
            p99: nearest_rank(&v, 0.99),
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    fn digest_into(&self, h: u64) -> u64 {
        let mut h = mix(h, self.mean.to_bits());
        h = mix(h, self.p50.to_bits());
        h = mix(h, self.p99.to_bits());
        h = mix(h, self.min.to_bits());
        mix(h, self.max.to_bits())
    }
}

/// The result of one Monte-Carlo fault ensemble: goodput and
/// time-to-recover distributions over N sampled schedules of a single
/// training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleReport {
    /// The base spec's label.
    pub label: String,
    /// Samples attempted.
    pub samples: usize,
    /// Samples that failed outright (e.g. the recovery budget was
    /// exhausted); excluded from the distributions but folded into the
    /// digest.
    pub failed: usize,
    /// Goodput distribution over successful samples, TFLOP/s.
    pub goodput_tflops: EnsembleStats,
    /// Mean time-to-recover distribution over successful samples, seconds.
    pub ttr_s: EnsembleStats,
    /// Fault events consumed across all successful samples.
    pub faults_applied: usize,
    /// Node-loss recoveries across all successful samples.
    pub recoveries: usize,
    /// Replayed iterations across all successful samples.
    pub replayed_iterations: usize,
    /// Checkpoints taken across all successful samples.
    pub checkpoints_taken: usize,
    /// Order-independent fingerprint of every sample's outcome (schedule
    /// digests, per-sample goodput, failures). Equal digests mean the
    /// ensemble saw byte-identical results — `verify.sh` compares them
    /// across `--workers` widths.
    pub digest: u64,
}

/// Runs `cfg.samples` sampled schedules of `profile` against the training
/// configuration in `base` (its `faults` field is ignored — the policy
/// comes from `cfg`, the schedule from the sampler), fanning the samples
/// across a [`SweepRunner`].
///
/// Results are input-ordered, so the report — including its digest — is
/// byte-identical at any `cfg.workers` width.
///
/// # Errors
/// [`CoreError::BadCluster`] when the base cluster spec does not build;
/// [`CoreError::BadScenario`] for an invalid horizon. Per-sample run
/// failures do **not** abort the ensemble; they are counted in
/// [`EnsembleReport::failed`].
pub fn run_ensemble(
    base: &SweepSpec,
    profile: &FleetProfile,
    cfg: &EnsembleConfig,
) -> Result<EnsembleReport, CoreError> {
    let cluster = Cluster::new(base.cluster.clone()).map_err(CoreError::BadCluster)?;
    let mut schedule_digests = Vec::with_capacity(cfg.samples);
    let mut specs = Vec::with_capacity(cfg.samples);
    for i in 0..cfg.samples {
        let schedule = profile.sample_schedule(&cluster, cfg.horizon_s, mix(cfg.seed, i as u64))?;
        schedule_digests.push(schedule.digest());
        let mut spec = base.clone();
        spec.label = format!("{} / s{i:02}", base.label);
        spec.faults = FaultConfig::new(schedule, cfg.policy.clone());
        specs.push(spec);
    }
    let outcomes = SweepRunner::new(cfg.workers.max(1)).run_each(specs);

    let mut goodput = Vec::new();
    let mut ttr = Vec::new();
    let mut failed = 0usize;
    let mut faults_applied = 0usize;
    let mut recoveries = 0usize;
    let mut replayed = 0usize;
    let mut checkpoints = 0usize;
    let mut h = mix_str(0x464c_4545_u64, &base.label);
    h = mix(h, cfg.samples as u64);
    h = mix(h, cfg.horizon_s.to_bits());
    h = mix(h, cfg.seed);
    for (i, outcome) in outcomes.iter().enumerate() {
        h = mix(h, schedule_digests[i]);
        match outcome {
            Ok(run) => {
                let res = &run.report.resilience;
                goodput.push(res.goodput_tflops());
                ttr.push(res.time_to_recover().as_secs());
                faults_applied += res.faults_applied;
                recoveries += res.recoveries;
                replayed += res.replayed_iterations;
                checkpoints += res.checkpoints_taken;
                h = mix(h, run.digest);
                h = mix(h, res.goodput_flops.to_bits());
                h = mix(h, res.recoveries as u64);
                h = mix(h, res.replayed_iterations as u64);
            }
            Err(e) => {
                failed += 1;
                h = mix_str(h, &e.to_string());
            }
        }
    }
    let goodput_tflops = EnsembleStats::from_samples(&goodput);
    let ttr_s = EnsembleStats::from_samples(&ttr);
    h = goodput_tflops.digest_into(h);
    h = ttr_s.digest_into(h);
    Ok(EnsembleReport {
        label: base.label.clone(),
        samples: cfg.samples,
        failed,
        goodput_tflops,
        ttr_s,
        faults_applied,
        recoveries,
        replayed_iterations: replayed,
        checkpoints_taken: checkpoints,
        digest: h,
    })
}

/// One point of a Young/Daly bracketing sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BracketPoint {
    /// Checkpoint interval in committed iterations.
    pub interval_iters: usize,
    /// Ensemble mean goodput at that interval, TFLOP/s.
    pub mean_goodput_tflops: f64,
    /// Failed samples at that interval.
    pub failed: usize,
    /// The underlying [`EnsembleReport::digest`].
    pub digest: u64,
}

/// The result of validating the Young/Daly interval against simulated
/// goodput: the same sampled fault sequences replayed at half, exactly,
/// and twice the analytic optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct YoungDalyBracket {
    /// The base spec's label.
    pub label: String,
    /// Measured checkpoint cost `C`, seconds.
    pub ckpt_cost_s: f64,
    /// System fatal MTBF `M`, seconds.
    pub mtbf_s: f64,
    /// The Daly interval `τ(C, M)`, seconds.
    pub interval_s: f64,
    /// Ensemble at `max(1, τ/2)` iterations.
    pub half: BracketPoint,
    /// Ensemble at the Young/Daly interval.
    pub opt: BracketPoint,
    /// Ensemble at `2τ` iterations.
    pub double: BracketPoint,
}

impl YoungDalyBracket {
    /// True when the Young/Daly interval strictly beats both bracket
    /// points on ensemble mean goodput — the acceptance criterion
    /// `verify.sh` gates on.
    pub fn yd_wins(&self) -> bool {
        self.opt.mean_goodput_tflops > self.half.mean_goodput_tflops
            && self.opt.mean_goodput_tflops > self.double.mean_goodput_tflops
    }

    /// Stable fingerprint of the whole bracket.
    pub fn digest(&self) -> u64 {
        let mut h = mix_str(0x5944_4252, &self.label); // "YDBR"
        h = mix(h, self.ckpt_cost_s.to_bits());
        h = mix(h, self.mtbf_s.to_bits());
        h = mix(h, self.interval_s.to_bits());
        for p in [&self.half, &self.opt, &self.double] {
            h = mix(h, p.interval_iters as u64);
            h = mix(h, p.mean_goodput_tflops.to_bits());
            h = mix(h, p.failed as u64);
            h = mix(h, p.digest);
        }
        h
    }
}

/// Validates the Young/Daly interval for one configuration by simulation:
/// computes `τ = daly(C, M)` from the measured checkpoint cost and the
/// profile's fatal MTBF, converts it to iterations with `iter_s`, and
/// runs three ensembles — at half, exactly, and twice that interval —
/// over the **same** sampled fault sequences (sampling depends only on
/// the profile, cluster, horizon, and seed, never on the policy).
///
/// The optimum interval is clamped to ≥ 2 iterations so the half point
/// is a distinct cadence.
///
/// # Errors
/// [`CoreError::BadScenario`] when the profile has no node-fatal hazard
/// (there is nothing for checkpoints to protect against), plus everything
/// [`run_ensemble`] returns.
pub fn young_daly_bracket(
    base: &SweepSpec,
    profile: &FleetProfile,
    cfg: &EnsembleConfig,
    ckpt_cost_s: f64,
    iter_s: f64,
) -> Result<YoungDalyBracket, CoreError> {
    let mtbf_s = profile
        .effective_fatal_mtbf_s(base.cluster.nodes, cfg.horizon_s)
        .ok_or_else(|| {
            CoreError::BadScenario("profile has no node-fatal hazard to bracket against".into())
        })?;
    let interval_s = daly_interval_s(ckpt_cost_s, mtbf_s);
    let k_opt = interval_iters(interval_s, iter_s).max(2);
    let run_at = |k: usize| -> Result<BracketPoint, CoreError> {
        let cfg_k = EnsembleConfig {
            policy: RecoveryPolicy {
                checkpoint_interval: k,
                ..cfg.policy.clone()
            },
            ..cfg.clone()
        };
        let report = run_ensemble(base, profile, &cfg_k)?;
        Ok(BracketPoint {
            interval_iters: k,
            mean_goodput_tflops: report.goodput_tflops.mean,
            failed: report.failed,
            digest: report.digest,
        })
    };
    Ok(YoungDalyBracket {
        label: base.label.clone(),
        ckpt_cost_s,
        mtbf_s,
        interval_s,
        half: run_at((k_opt / 2).max(1))?,
        opt: run_at(k_opt)?,
        double: run_at(k_opt * 2)?,
    })
}

/// What `fleetplan` searches: a model on a topology under a failure rate,
/// with the economic constants that turn goodput into dollars.
#[derive(Debug, Clone)]
pub struct FleetCostConfig {
    /// The cluster shape to search.
    pub topology: TopologySpec,
    /// The model to train.
    pub model: GptConfig,
    /// Aggregate failures per node per day (λ), finite and ≥ 0; 0
    /// disables the hazard model and reduces the ranking to healthy
    /// cost-to-train.
    pub rate_per_node_day: f64,
    /// Optional training deadline in days, finite and positive;
    /// configurations that cannot finish in time are marked infeasible
    /// and ranked last.
    pub deadline_days: Option<f64>,
    /// Total training tokens, finite and positive; defaults to the
    /// Chinchilla-style 20 tokens/parameter when `None`.
    pub tokens: Option<f64>,
    /// Worker threads for the placement-search stage.
    pub workers: usize,
    /// How many ranked placements to cost in full (checkpoint-cost
    /// measurement + economics), from the top of the throughput ranking;
    /// at least 1.
    pub top: usize,
}

/// Electricity price the fleet search charges, USD per kWh.
const ENERGY_USD_PER_KWH: f64 = 0.12;

/// Capital amortization horizon, years: a run is charged
/// `capital × train_days / (365 × AMORTIZE_YEARS)`.
const AMORTIZE_YEARS: f64 = 3.0;

impl FleetCostConfig {
    /// A search with one worker and the top 4 placements costed. Every
    /// search prices runs with the default [`CostModel`] and
    /// [`PowerModel`] (list-price capital), 0.12 $/kWh and 3-year
    /// amortization, and samples each placement with
    /// [`RunConfig::quick`].
    pub fn new(topology: TopologySpec, model: GptConfig, rate_per_node_day: f64) -> Self {
        FleetCostConfig {
            topology,
            model,
            rate_per_node_day,
            deadline_days: None,
            tokens: None,
            workers: 1,
            top: 4,
        }
    }

    /// Replaces the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the number of placements costed in full.
    pub fn with_top(mut self, top: usize) -> Self {
        self.top = top;
        self
    }
}

/// One costed configuration in a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCandidate {
    /// Strategy display name.
    pub strategy_name: String,
    /// `dp x tp x pp` placement label.
    pub placement: String,
    /// Healthy throughput, TFLOP/s.
    pub throughput_tflops: f64,
    /// Measured checkpoint cost `C`, seconds.
    pub ckpt_cost_s: f64,
    /// Young/Daly checkpoint interval at the configured failure rate,
    /// seconds (`+∞` when λ = 0).
    pub interval_s: f64,
    /// The interval in committed iterations.
    pub interval_iters: usize,
    /// Analytic waste fraction `C/τ + (τ/2 + R)/M` at that interval.
    pub waste_fraction: f64,
    /// Failure-adjusted goodput, TFLOP/s.
    pub goodput_tflops: f64,
    /// Days to train the configured token budget at that goodput.
    pub train_days: f64,
    /// Capital cost of the hardware the run occupies, USD.
    pub capital_usd: f64,
    /// Energy cost of the full training run, USD.
    pub energy_usd: f64,
    /// NVMe flash-endurance (drive replacement) cost of the run, USD.
    pub wear_usd: f64,
    /// Amortized capital + energy + NVMe wear: the ranking key, USD.
    pub dollars_to_train: f64,
    /// Whether the run meets the deadline (always true without one).
    pub feasible: bool,
}

/// The ranked result of a [`fleet_search`] run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The searched topology, rendered.
    pub topology: String,
    /// Model size in parameters.
    pub model_params: f64,
    /// The configured failure rate, failures per node per day.
    pub rate_per_node_day: f64,
    /// Total training tokens costed.
    pub tokens: f64,
    /// The deadline, if any, days.
    pub deadline_days: Option<f64>,
    /// Costed configurations, cheapest feasible first.
    pub candidates: Vec<FleetCandidate>,
    /// The underlying placement search's digest (covers the full grid).
    pub search_digest: u64,
}

impl FleetReport {
    /// The winning (cheapest feasible) configuration, if any.
    pub fn best(&self) -> Option<&FleetCandidate> {
        self.candidates.first()
    }

    /// A stable fingerprint of the whole costed ranking.
    pub fn digest(&self) -> u64 {
        let mut h = mix_str(0x464c_4545_5424, &self.topology); // "FLEET$"
        h = mix(h, self.model_params.to_bits());
        h = mix(h, self.rate_per_node_day.to_bits());
        h = mix(h, self.tokens.to_bits());
        h = mix(h, self.deadline_days.unwrap_or(f64::NAN).to_bits());
        h = mix(h, self.search_digest);
        for c in &self.candidates {
            h = mix_str(h, &c.strategy_name);
            h = mix_str(h, &c.placement);
            h = mix(h, c.throughput_tflops.to_bits());
            h = mix(h, c.ckpt_cost_s.to_bits());
            h = mix(h, c.interval_s.to_bits());
            h = mix(h, c.interval_iters as u64);
            h = mix(h, c.goodput_tflops.to_bits());
            h = mix(h, c.train_days.to_bits());
            h = mix(h, c.dollars_to_train.to_bits());
            h = mix(h, u64::from(c.feasible));
        }
        h
    }

    /// Renders the costed ranking as a table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "fleetplan: {} | model {:.1} B | λ = {:.2}/node-day | {:.1e} tokens{}\n",
            self.topology,
            self.model_params / 1e9,
            self.rate_per_node_day,
            self.tokens,
            self.deadline_days
                .map_or(String::new(), |d| format!(" | deadline {d:.0} d")),
        );
        out.push_str(
            "rank  strategy                      placement              \
             ckpt(s)  τ(iters)  goodput    days     $-to-train\n",
        );
        for (i, c) in self.candidates.iter().enumerate() {
            out.push_str(&format!(
                "{:>4}. {:<28} {:<22} {:>7.2} {:>9} {:>8.1}T {:>7.1} {:>12.0}{}\n",
                i + 1,
                c.strategy_name,
                c.placement,
                c.ckpt_cost_s,
                c.interval_iters,
                c.goodput_tflops,
                c.train_days,
                c.dollars_to_train,
                if c.feasible {
                    ""
                } else {
                    "  [misses deadline]"
                },
            ));
        }
        out
    }
}

/// Runs the fleet cost search: placement search ([`search_plans`]) →
/// re-simulate the top `cfg.top` survivors for full reports (a
/// [`SweepRunner`] of `cfg.workers`) → measure the checkpoint cost →
/// Young/Daly interval at the configured failure rate → analytic goodput
/// → dollars-to-train (amortized capital + energy) → rank
/// cheapest-feasible first.
///
/// # Errors
/// [`CoreError::BadConfig`], before anything is simulated, when `top`
/// is 0, the failure rate is negative or not finite, or the token budget
/// or deadline is not finite and positive; [`CoreError::BadCluster`] when
/// the topology does not build; and any error re-simulating a ranked
/// candidate (the search stage itself isolates per-candidate failures).
pub fn fleet_search(cfg: &FleetCostConfig) -> Result<FleetReport, CoreError> {
    check_costable(cfg)?;
    let run_cfg = RunConfig::quick();
    let search = search_plans(
        &SearchConfig::new(cfg.topology, cfg.model)
            .with_run(run_cfg)
            .with_workers(cfg.workers),
    )?;
    let spec = cfg.topology.build().map_err(CoreError::BadCluster)?;
    let nodes = cfg.topology.nodes();
    let opts = TrainOptions::for_nodes(nodes);
    let tokens = cfg.tokens.unwrap_or_else(|| 20.0 * cfg.model.num_params());
    let train_flops = cfg.model.iteration_flops(tokens).total();
    let profile = if cfg.rate_per_node_day > 0.0 {
        Some(FleetProfile::from_node_rate(cfg.rate_per_node_day))
    } else {
        None
    };
    let mtbf_s = profile
        .as_ref()
        .and_then(|p| p.fatal_mtbf_s(nodes))
        .unwrap_or(f64::INFINITY);

    let (placements, specs): (Vec<String>, Vec<SweepSpec>) = search
        .ranking()
        .into_iter()
        .take(cfg.top)
        .map(|c| {
            let run = SweepSpec::new(c.strategy_name.clone(), c.strategy.clone(), cfg.model, opts)
                .with_cluster(spec.clone())
                .with_run(run_cfg);
            (c.placement(), run)
        })
        .unzip();
    // The checkpoint plan depends on the model, options and cluster, not
    // on the strategy: one measurement on a fresh simulator prices every
    // candidate.
    let ckpt_cost_s = match specs.first() {
        Some(first) => first.build_sim()?.checkpoint_cost(&cfg.model, &opts)?,
        None => 0.0,
    };
    let runs = SweepRunner::new(cfg.workers).run_parallel(specs)?;
    let mut candidates = Vec::with_capacity(runs.len());
    for (placement, run) in placements.into_iter().zip(runs) {
        let report = run.report;
        let interval_s = daly_interval_s(ckpt_cost_s, mtbf_s);
        let iter_s = report.iter_time.as_secs();
        let k = interval_iters(interval_s, iter_s);
        // Time lost per failure beyond rework: restart + restore (the
        // restore plan mirrors the save, so its cost is ≈ C).
        let recover_s = RecoveryPolicy::every(1).restart_delay_s + ckpt_cost_s;
        let waste = waste_fraction(ckpt_cost_s, interval_s, mtbf_s, recover_s);
        let goodput_flops = report.throughput_flops() * (1.0 - waste);
        let train_days = train_flops / goodput_flops / SECS_PER_DAY;
        let cost =
            CostModel::default().estimate(&report, spec.gpus_per_node, spec.nvme_layout.len());
        let capital_usd = cost.capital_usd;
        let energy = PowerModel::default().estimate(&report, spec.gpus_per_node);
        let energy_usd =
            energy.avg_power_w() * (train_days * SECS_PER_DAY) / 3.6e6 * ENERGY_USD_PER_KWH;
        // Flash endurance is a consumable like energy: NVMe-offload
        // candidates pay for the drive lifetime their write traffic buys.
        let wear_usd = cost.wear_usd(train_days * SECS_PER_DAY);
        let dollars_to_train =
            capital_usd * train_days / (365.0 * AMORTIZE_YEARS) + energy_usd + wear_usd;
        let feasible = cfg.deadline_days.is_none_or(|d| train_days <= d);
        candidates.push(FleetCandidate {
            strategy_name: run.label,
            placement,
            throughput_tflops: report.throughput_tflops(),
            ckpt_cost_s,
            interval_s,
            interval_iters: k,
            waste_fraction: waste,
            goodput_tflops: goodput_flops / 1e12,
            train_days,
            capital_usd,
            energy_usd,
            wear_usd,
            dollars_to_train,
            feasible,
        });
    }
    // Cheapest feasible first; infeasible configurations sink to the
    // bottom but stay visible (ties broken by name for determinism).
    candidates.sort_by(|a, b| {
        b.feasible
            .cmp(&a.feasible)
            .then(a.dollars_to_train.total_cmp(&b.dollars_to_train))
            .then_with(|| a.strategy_name.cmp(&b.strategy_name))
            .then_with(|| a.placement.cmp(&b.placement))
    });
    Ok(FleetReport {
        topology: search.topology.clone(),
        model_params: cfg.model.num_params(),
        rate_per_node_day: cfg.rate_per_node_day,
        tokens,
        deadline_days: cfg.deadline_days,
        candidates,
        search_digest: search.digest(),
    })
}

/// Rejects the [`FleetCostConfig`] values the cost model cannot honour:
/// they would cost no placement, or price a run at NaN, zero or negative
/// days and dollars.
fn check_costable(cfg: &FleetCostConfig) -> Result<(), CoreError> {
    let reject = |msg: String| Err(CoreError::BadConfig(msg));
    if cfg.top == 0 {
        return reject("a fleet search must cost at least one placement (top = 0)".into());
    }
    let rate = cfg.rate_per_node_day;
    if !(rate.is_finite() && rate >= 0.0) {
        return reject(format!(
            "failure rate must be finite and non-negative, got {rate}"
        ));
    }
    if let Some(tokens) = cfg.tokens.filter(|t| !finite_positive(*t)) {
        return reject(format!(
            "token budget must be finite and positive, got {tokens}"
        ));
    }
    if let Some(days) = cfg.deadline_days.filter(|d| !finite_positive(*d)) {
        return reject(format!(
            "deadline must be finite and positive days, got {days}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::default()).unwrap()
    }

    #[test]
    fn exponential_sampling_matches_mtbf() {
        let mut rng = Rng::new(7);
        let n = 4000;
        let mean = (0..n).map(|_| time_to_failure(50.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 5.0, "mean {mean}");
        assert_eq!(FleetProfile::node_only(50.0).fatal_mtbf_s(1), Some(50.0));
    }

    #[test]
    fn sampled_schedules_are_seed_deterministic() {
        let c = cluster();
        let p = FleetProfile::node_only(8.0);
        let a = p.sample_schedule(&c, 20.0, 42).unwrap();
        let b = p.sample_schedule(&c, 20.0, 42).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.events(), b.events());
        let other = p.sample_schedule(&c, 20.0, 43).unwrap();
        assert_ne!(a.digest(), other.digest());
    }

    #[test]
    fn node_loss_is_capped_at_one_per_node() {
        let c = cluster();
        // MTBF far below the horizon: an uncapped renewal would emit many.
        let p = FleetProfile::node_only(0.5);
        let s = p.sample_schedule(&c, 100.0, 5).unwrap();
        let losses = s
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeLoss { .. }))
            .count();
        assert_eq!(losses, c.spec().nodes);
    }

    #[test]
    fn young_daly_formulas() {
        // τ_young = √(2·C·M).
        assert!((young_interval_s(10.0, 7200.0) - 379.473).abs() < 0.01);
        // Daly ≈ Young − C when C ≪ M.
        let daly = daly_interval_s(10.0, 7200.0);
        assert!((daly - (379.473 * (1.0 + 0.02635 / 3.0 + 0.000694 / 9.0) - 10.0)).abs() < 0.5);
        // Degenerate inputs never checkpoint.
        assert_eq!(young_interval_s(0.0, 100.0), f64::INFINITY);
        assert_eq!(daly_interval_s(1.0, f64::INFINITY), f64::INFINITY);
        // C ≥ 2M pins τ to M.
        assert_eq!(daly_interval_s(50.0, 10.0), 10.0);
        // M = 0 is failures without pause: checkpoint continuously, and
        // everything is waste. M = ∞ never fails: never checkpoint, and
        // nothing is waste.
        assert_eq!(young_interval_s(10.0, 0.0), 0.0);
        assert_eq!(daly_interval_s(10.0, 0.0), 0.0);
        assert_eq!(waste_fraction(10.0, 100.0, 0.0, 1.0), 1.0);
        assert_eq!(young_interval_s(10.0, f64::INFINITY), f64::INFINITY);
        assert_eq!(daly_interval_s(10.0, f64::INFINITY), f64::INFINITY);
        assert_eq!(waste_fraction(10.0, 100.0, f64::INFINITY, 1.0), 0.0);
        // The analytic waste is minimized near τ_young.
        let c = 0.1;
        let m = 8.0;
        let opt = young_interval_s(c, m);
        let w = |tau: f64| waste_fraction(c, tau, m, 0.0);
        assert!(w(opt) < w(opt / 2.0));
        assert!(w(opt) < w(opt * 2.0));
    }

    #[test]
    fn interval_iters_rounds_and_clamps() {
        assert_eq!(interval_iters(10.0, 3.0), 3);
        assert_eq!(interval_iters(0.1, 3.0), 1);
        assert_eq!(interval_iters(f64::INFINITY, 3.0), 1);
        assert_eq!(interval_iters(10.0, 0.0), 1);
    }

    #[test]
    fn ensemble_stats_order_statistics() {
        let s = EnsembleStats::from_samples(&[3.0, 1.0, 2.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.p50, 2.0); // rank ceil(4 × 0.5) = 2 of 4 samples
        assert_eq!(EnsembleStats::from_samples(&[]), EnsembleStats::default());
    }

    #[test]
    fn healthy_profile_samples_empty_schedules() {
        let c = cluster();
        let s = FleetProfile::healthy()
            .sample_schedule(&c, 10.0, 1)
            .unwrap();
        assert!(s.is_empty());
        assert_eq!(FleetProfile::healthy().fatal_mtbf_s(2), None);
    }

    #[test]
    fn bad_horizon_is_rejected() {
        let c = cluster();
        for h in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                FleetProfile::node_only(10.0).sample_schedule(&c, h, 0),
                Err(CoreError::BadScenario(_))
            ));
        }
    }

    #[test]
    fn effective_mtbf_round_trips_through_the_cap() {
        // Inverting the one-loss cap and measuring it back is identity.
        // (The target must sit above the horizon/n floor — the cap bounds
        // expected losses at n, so 12 s is reachable even at one node.)
        let target = 12.0;
        let horizon = 10.0;
        for nodes in [1, 2, 4] {
            let m_node = FleetProfile::node_mtbf_for_effective(nodes, horizon, target).unwrap();
            let p = FleetProfile::node_only(m_node);
            let eff = p.effective_fatal_mtbf_s(nodes, horizon).unwrap();
            assert!((eff - target).abs() < 1e-9, "nodes {nodes}: eff {eff}");
            // The capped process is always rarer than the raw renewal
            // rate implies, so the effective MTBF exceeds mean/n.
            assert!(eff >= p.fatal_mtbf_s(nodes).unwrap());
        }
        // Unreachable targets (expected losses would exceed n) are None.
        assert!(FleetProfile::node_mtbf_for_effective(1, 10.0, 5.0).is_none());
        // The long-horizon limit recovers the uncapped system MTBF.
        let p = FleetProfile::node_only(1000.0);
        let eff = p.effective_fatal_mtbf_s(2, 1.0).unwrap();
        assert!((eff - 500.0).abs() / 500.0 < 1e-3, "eff {eff}");
        // A per-node MTBF of 0 loses all n nodes at once: horizon / n. An
        // infinite one loses none.
        let eff = |m: f64| FleetProfile::node_only(m).effective_fatal_mtbf_s(4, 10.0);
        assert_eq!(eff(0.0), Some(2.5));
        assert_eq!(eff(f64::INFINITY), Some(f64::INFINITY));
    }

    #[test]
    fn fleet_search_rejects_configurations_it_cannot_cost() {
        let base = FleetCostConfig::new(
            TopologySpec::parse("flat:1").unwrap(),
            GptConfig::paper_model_with_params(1.4),
            0.05,
        );
        let rate = |rate_per_node_day| FleetCostConfig {
            rate_per_node_day,
            ..base.clone()
        };
        let tokens = |t| FleetCostConfig {
            tokens: Some(t),
            ..base.clone()
        };
        let deadline = |d| FleetCostConfig {
            deadline_days: Some(d),
            ..base.clone()
        };
        let rows = [
            ("top 0", base.clone().with_top(0)),
            ("negative rate", rate(-0.1)),
            ("NaN rate", rate(f64::NAN)),
            ("infinite rate", rate(f64::INFINITY)),
            ("NaN tokens", tokens(f64::NAN)),
            ("zero tokens", tokens(0.0)),
            ("negative tokens", tokens(-5.0)),
            ("infinite tokens", tokens(f64::INFINITY)),
            ("NaN deadline", deadline(f64::NAN)),
            ("zero deadline", deadline(0.0)),
            ("negative deadline", deadline(-3.0)),
            ("infinite deadline", deadline(f64::INFINITY)),
        ];
        for (what, cfg) in rows {
            let result = fleet_search(&cfg);
            assert!(
                matches!(result, Err(CoreError::BadConfig(_))),
                "{what}: {result:?}"
            );
        }
    }

    #[test]
    fn from_node_rate_splits_the_rate() {
        let p = FleetProfile::from_node_rate(2.0);
        // 40% of 2/day fatal ⇒ MTBF = 86400 / 0.8.
        let m = p.node.unwrap();
        assert!((m - SECS_PER_DAY / 0.8).abs() < 1e-6);
        // System fatal MTBF divides by node count.
        assert!((p.fatal_mtbf_s(4).unwrap() - m / 4.0).abs() < 1e-6);
    }
}
