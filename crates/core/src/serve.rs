//! Serving characterization: continuous batching of synthetic request
//! traces over prefill/decode workload plans.
//!
//! [`serve`] drives a [`zerosim_strategies::ServingStrategy`] the way
//! [`TrainingSim::run`] drives a training strategy: plans are lowered
//! through the same `lower` → `stamp` → engine pipeline, flows share the
//! same network solver, and the result is a [`ServeReport`] with the two
//! latency metrics serving papers report — **TTFT** (time to first
//! token: request arrival → end of its prefill) and **TPOT** (time per
//! output token over the decode phase) — as p50/p99 percentiles.
//!
//! The scheduler is continuous batching (Orca-style): a waiting queue
//! feeds a running batch of at most `max_batch` sequences; admission
//! runs a batched prefill (prefill-priority), and every scheduler tick
//! otherwise advances the whole running batch by one decode step.
//! Decode plans depend on the batch size and the KV length only through
//! [`zerosim_strategies::kv_bucket`] granularity, so a serve run lowers
//! O(batch-shapes × KV-buckets) plans, not O(tokens) — the serving
//! equivalent of training's lower-once/re-stamp cache.
//!
//! Traces are synthetic and deterministic: [`TraceConfig::sample`] draws
//! arrivals and token lengths from the workspace RNG
//! ([`zerosim_testkit::rng::Rng`]), so the same seed replays the same
//! trace on every platform, and [`crate::SweepRunner`] fans [`ServeSpec`]s
//! across the hermetic thread pool with input-ordered, width-independent
//! results, exactly as it does training specs.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use zerosim_hw::{ClusterSpec, NvmeId};
use zerosim_model::GptConfig;
use zerosim_simkit::{mix, nearest_rank, DagEngine, SimTime};
use zerosim_strategies::{
    kv_bucket, kv_bytes_per_token, lower, Calibration, IterCtx, LoweredPlan, ServingStrategy,
    TrainOptions, WorkloadKind,
};
use zerosim_testkit::rng::Rng;

use crate::engine::TrainingSim;
use crate::error::{ensure_fits, CoreError};
use crate::report::mix_str;
use crate::sweep::{build_sim, Execute};

/// How requests enter the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open loop: Poisson arrivals at `rate_rps` requests per second,
    /// independent of completions (the load-test that exposes queueing).
    Open {
        /// Mean arrival rate in requests per second.
        rate_rps: f64,
    },
    /// Closed loop: `concurrency` clients, each issuing its next request
    /// the moment the previous one completes.
    Closed {
        /// Number of always-busy clients.
        concurrency: usize,
    },
}

/// A synthetic request-trace distribution (deterministic per seed).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Total requests in the trace.
    pub requests: usize,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Inclusive `[min, max]` prompt length in tokens.
    pub prompt_tokens: (usize, usize),
    /// Inclusive `[min, max]` output length in tokens.
    pub output_tokens: (usize, usize),
    /// RNG seed; the trace is a pure function of this config.
    pub seed: u64,
}

impl TraceConfig {
    /// A small closed-loop trace for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        TraceConfig {
            requests: 8,
            arrivals: ArrivalProcess::Closed { concurrency: 4 },
            prompt_tokens: (64, 256),
            output_tokens: (8, 32),
            seed,
        }
    }

    /// Materializes the trace. Deterministic: the same config always
    /// yields the same requests, on every platform and worker count.
    ///
    /// Closed-loop traces mark requests beyond the initial `concurrency`
    /// window with [`f64::INFINITY`] arrivals; the driver releases one
    /// each time a request completes.
    pub fn sample(&self) -> Vec<Request> {
        let mut rng = Rng::new(self.seed);
        let mut t = 0.0f64;
        (0..self.requests)
            .map(|i| {
                let arrival_s = match self.arrivals {
                    ArrivalProcess::Open { rate_rps } => {
                        // Exponential inter-arrival via inverse transform.
                        let u = rng.next_f64();
                        t += -(1.0 - u).ln() / rate_rps.max(1e-9);
                        t
                    }
                    ArrivalProcess::Closed { concurrency } => {
                        if i < concurrency.max(1) {
                            0.0
                        } else {
                            f64::INFINITY
                        }
                    }
                };
                Request {
                    arrival_s,
                    prompt_tokens: sample_range(&mut rng, self.prompt_tokens),
                    output_tokens: sample_range(&mut rng, self.output_tokens).max(1),
                }
            })
            .collect()
    }
}

fn sample_range(rng: &mut Rng, (lo, hi): (usize, usize)) -> usize {
    if hi <= lo {
        lo
    } else {
        rng.usize_in(lo, hi + 1)
    }
}

/// One request of a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival time in seconds ([`f64::INFINITY`] for closed-loop
    /// requests released on completion of an earlier one).
    pub arrival_s: f64,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Tokens to generate (≥ 1; the first is produced by prefill).
    pub output_tokens: usize,
}

/// The measured outcome of one serving characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Serving strategy display name.
    pub strategy: &'static str,
    /// Model parameter count.
    pub model_params: f64,
    /// Nodes the deployment spans.
    pub nodes: usize,
    /// Requests served to completion.
    pub requests: usize,
    /// Tokens generated (first tokens + decode tokens).
    pub tokens_generated: usize,
    /// Median time-to-first-token.
    pub ttft_p50: SimTime,
    /// 99th-percentile time-to-first-token.
    pub ttft_p99: SimTime,
    /// Median time-per-output-token over the decode phase.
    pub tpot_p50: SimTime,
    /// 99th-percentile time-per-output-token.
    pub tpot_p99: SimTime,
    /// Virtual wall-clock from first arrival to last completion.
    pub wall: SimTime,
    /// Batched prefills executed.
    pub prefills: usize,
    /// Decode steps executed (each advances the whole running batch).
    pub decode_steps: usize,
    /// Distinct plans lowered (cache misses); decode reuse makes this
    /// O(batch-shapes × KV-buckets), not O(steps).
    pub plan_lowerings: usize,
    /// Peak KV-cache residency across the deployment, in bytes.
    pub kv_peak_bytes: f64,
}

impl ServeReport {
    /// Aggregate generation throughput in tokens per second.
    pub fn tokens_per_s(&self) -> f64 {
        self.tokens_generated as f64 / self.wall.as_secs().max(1e-12)
    }

    /// Order-insensitive digest over everything *measured*. Excludes
    /// `plan_lowerings` — cache behavior describes how the run was
    /// computed, not what it measured (same rationale as
    /// [`crate::TrainingReport::digest`] excluding solver counters).
    pub fn digest(&self) -> u64 {
        let mut h = mix_str(0x5E57_u64, self.strategy);
        h = mix(h, self.model_params.to_bits());
        h = mix(h, self.nodes as u64);
        h = mix(h, self.requests as u64);
        h = mix(h, self.tokens_generated as u64);
        for t in [
            self.ttft_p50,
            self.ttft_p99,
            self.tpot_p50,
            self.tpot_p99,
            self.wall,
        ] {
            h = mix(h, t.as_nanos());
        }
        h = mix(h, self.prefills as u64);
        h = mix(h, self.decode_steps as u64);
        h = mix(h, self.kv_peak_bytes.to_bits());
        h
    }
}

#[derive(Debug, Clone, Copy)]
struct ReqState {
    arrival: SimTime,
    prompt: usize,
    output: usize,
    first_token: SimTime,
    generated: usize,
    kv_tokens: usize,
}

/// Runs one serving characterization on `sim`'s cluster.
///
/// The scheduler loop: release arrivals up to the virtual clock; when
/// waiting requests and batch slots exist, admit them with one batched
/// prefill (TTFT = prefill end − arrival); otherwise advance the running
/// batch one decode step. Completed requests free their slots; under a
/// closed-loop trace each completion releases the next request.
///
/// # Errors
/// [`CoreError::DoesNotFit`] when the strategy's resident footprint
/// overflows a tier; [`CoreError::InvalidConfig`] when `opts` spans no
/// node or more nodes than the cluster has ([`TrainOptions::gpus`]) or a
/// plan fails validation; [`CoreError::Sim`] if a DAG cannot execute.
#[allow(clippy::too_many_lines)]
pub fn serve(
    sim: &mut TrainingSim,
    strategy: &ServingStrategy,
    model: &GptConfig,
    opts: &TrainOptions,
    trace: &TraceConfig,
    max_batch: usize,
) -> Result<ServeReport, CoreError> {
    // The node-count rule is `TrainOptions::gpus`'; the memory planner
    // counts GPUs unchecked, so it runs first.
    opts.gpus(sim.cluster())?;
    let memory = strategy.plan_memory(&IterCtx {
        cluster: sim.cluster(),
        model,
        opts,
        calib: sim.calibration(),
    });
    ensure_fits(&memory, sim.cluster())?;

    let requests = trace.sample();
    // Quantize finite arrivals onto the simulator's tick grid up front.
    // The loop compares them against tick-quantized [`SimTime`] clocks;
    // a sub-tick remainder makes `arrival <= t` unsatisfiable after the
    // idle branch jumps `t` to that same (rounded-down) arrival, and the
    // scheduler spins forever re-arming the jump — the open-loop
    // admission hang. Closed-loop infinite arrivals stay infinite.
    let mut arrivals: Vec<f64> = requests
        .iter()
        .map(|r| {
            if r.arrival_s.is_finite() {
                SimTime::from_secs(r.arrival_s).as_secs()
            } else {
                r.arrival_s
            }
        })
        .collect();
    let mut st: Vec<ReqState> = requests
        .iter()
        .map(|r| ReqState {
            arrival: SimTime::ZERO,
            prompt: r.prompt_tokens,
            output: r.output_tokens,
            first_token: SimTime::ZERO,
            generated: 0,
            kv_tokens: 0,
        })
        .collect();

    // No serve output reads spans: the log is cleared after every run.
    let mut engine = DagEngine::new(sim.cluster().resource_slots());
    // Lowered plans by kind and shape: a prefill by the admitted (total
    // prompt tokens, request count), a decode step by (batch, KV bucket).
    let mut plans: HashMap<(WorkloadKind, usize, usize), LoweredPlan> = HashMap::new();
    let mut plan_lowerings = 0usize;

    let max_batch = max_batch.max(1);
    let kv_per_token = kv_bytes_per_token(model);
    let mut pending: VecDeque<usize> = (0..st.len()).collect();
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut running: Vec<usize> = Vec::new();
    let mut admitted: Vec<usize> = Vec::new();

    let mut t = SimTime::ZERO;
    let mut seed = opts.jitter_seed;
    let mut prefills = 0usize;
    let mut decode_steps = 0usize;
    let mut tokens_generated = 0usize;
    let mut kv_peak_bytes = 0.0f64;
    let mut ttft: Vec<SimTime> = Vec::new();
    let mut tpot: Vec<SimTime> = Vec::new();
    let mut done = 0usize;

    while done < st.len() {
        // Release every pending request that has arrived by now.
        while let Some(&i) = pending.front() {
            if arrivals[i] <= t.as_secs() {
                st[i].arrival = SimTime::from_secs(arrivals[i]);
                waiting.push_back(i);
                pending.pop_front();
            } else {
                break;
            }
        }
        if running.is_empty() && waiting.is_empty() {
            // Idle: jump to the next (finite) arrival.
            let next = pending
                .front()
                .map(|&i| arrivals[i])
                .filter(|a| a.is_finite());
            match next {
                Some(a) => {
                    t = SimTime::from_secs(a);
                    continue;
                }
                None => break, // nothing left that can ever arrive
            }
        }

        // Admission runs one batched prefill over the free slots;
        // otherwise the whole running batch takes one decode step.
        let prefill = !waiting.is_empty() && running.len() < max_batch;
        let key = if prefill {
            admitted.clear();
            while running.len() + admitted.len() < max_batch {
                match waiting.pop_front() {
                    Some(i) => admitted.push(i),
                    None => break,
                }
            }
            let prompt_sum: usize = admitted.iter().map(|&i| st[i].prompt).sum();
            (WorkloadKind::Prefill, prompt_sum, admitted.len())
        } else {
            let kv_len = running.iter().map(|&i| st[i].kv_tokens).max().unwrap_or(1);
            (WorkloadKind::Decode, running.len(), kv_bucket(kv_len))
        };
        let lowered = match plans.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let ctx = IterCtx {
                    cluster: sim.cluster(),
                    model,
                    opts,
                    calib: sim.calibration(),
                };
                let plan = match key {
                    (WorkloadKind::Prefill, prompt_sum, count) => {
                        strategy.plan_prefill(&ctx, prompt_sum, count)?
                    }
                    (_, batch, bucket) => strategy.plan_decode(&ctx, 0, batch, bucket)?,
                };
                plan_lowerings += 1;
                e.insert(lower(&plan, sim.cluster(), sim.calibration())?)
            }
        };
        let dag = lowered.stamp(seed);
        seed += 1;
        let out = engine.run(sim.cluster_mut().net_mut(), dag, t, None)?;
        engine.clear_spans();
        t = out.finished;

        if prefill {
            prefills += 1;
            for &i in &admitted {
                // Prefill emits each admitted request's first token.
                st[i].first_token = t;
                st[i].generated = 1;
                st[i].kv_tokens = st[i].prompt + 1;
                tokens_generated += 1;
                ttft.push(t - st[i].arrival);
            }
            running.extend_from_slice(&admitted);
        } else {
            decode_steps += 1;
            running.retain(|&i| {
                st[i].generated += 1;
                st[i].kv_tokens += 1;
                tokens_generated += 1;
                if st[i].generated >= st[i].output {
                    // Completed: decode latency per token after the first.
                    done += 1;
                    if st[i].output > 1 {
                        tpot.push((t - st[i].first_token) / (st[i].output as u64 - 1));
                    }
                    // Closed loop: the client immediately issues its next
                    // request (one release per completion, even when
                    // several requests finish in the same step).
                    if let Some(j) = pending.iter().copied().find(|&j| arrivals[j].is_infinite()) {
                        arrivals[j] = t.as_secs();
                    }
                    false
                } else {
                    true
                }
            });
        }

        let kv_now: f64 = running
            .iter()
            .map(|&i| st[i].kv_tokens as f64 * kv_per_token)
            .sum();
        kv_peak_bytes = kv_peak_bytes.max(kv_now);
    }

    ttft.sort_unstable();
    tpot.sort_unstable();
    Ok(ServeReport {
        strategy: strategy.display_name(),
        model_params: model.num_params(),
        nodes: opts.nodes,
        requests: done,
        tokens_generated,
        ttft_p50: nearest_rank(&ttft, 0.50),
        ttft_p99: nearest_rank(&ttft, 0.99),
        tpot_p50: nearest_rank(&tpot, 0.50),
        tpot_p99: nearest_rank(&tpot, 0.99),
        wall: t,
        prefills,
        decode_steps,
        plan_lowerings,
        kv_peak_bytes,
    })
}

/// A complete, self-contained description of one serving run — the
/// serving analogue of [`crate::SweepSpec`]: everything needed to
/// rebuild the run from nothing, so it executes identically on any
/// worker.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Caller-chosen identifier carried through to [`ServeRun::label`].
    pub label: String,
    /// The cluster to build (each run owns a fresh one).
    pub cluster: ClusterSpec,
    /// Performance-model constants.
    pub calibration: Calibration,
    /// NVMe volumes to create, in order, before the run (volume `i`
    /// becomes `VolumeId(i)`).
    pub volumes: Vec<Vec<NvmeId>>,
    /// The serving strategy to characterize.
    pub strategy: ServingStrategy,
    /// The model being served.
    pub model: GptConfig,
    /// Topology options (`nodes`, jitter seed; batch fields unused).
    pub opts: TrainOptions,
    /// The request trace to replay.
    pub trace: TraceConfig,
    /// Continuous-batching slot count.
    pub max_batch: usize,
}

impl ServeSpec {
    /// A spec over the default paper cluster with default calibration.
    pub fn new(
        label: impl Into<String>,
        strategy: ServingStrategy,
        model: GptConfig,
        opts: TrainOptions,
        trace: TraceConfig,
    ) -> Self {
        ServeSpec {
            label: label.into(),
            cluster: ClusterSpec::default(),
            calibration: Calibration::default(),
            volumes: Vec::new(),
            strategy,
            model,
            opts,
            trace,
            max_batch: 8,
        }
    }

    /// Replaces the cluster spec.
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Appends an NVMe volume (created before the run, in call order).
    pub fn with_volume(mut self, members: Vec<NvmeId>) -> Self {
        self.volumes.push(members);
        self
    }

    /// Replaces the continuous-batching slot count.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Builds a fresh simulator, exactly as [`crate::SweepSpec::build_sim`]
    /// does, and executes this spec to completion.
    ///
    /// # Errors
    /// [`CoreError::BadCluster`] when the cluster or a volume does not
    /// build, plus whatever [`serve`] returns.
    pub fn execute(&self) -> Result<ServeRun, CoreError> {
        let mut sim = build_sim(&self.cluster, self.calibration, &self.volumes)?;
        let report = serve(
            &mut sim,
            &self.strategy,
            &self.model,
            &self.opts,
            &self.trace,
            self.max_batch,
        )?;
        Ok(ServeRun {
            label: self.label.clone(),
            digest: report.digest(),
            report,
        })
    }
}

/// One completed serving entry: label, full report, and its digest.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The originating [`ServeSpec::label`].
    pub label: String,
    /// [`ServeReport::digest`] of `report`.
    pub digest: u64,
    /// The full serving result.
    pub report: ServeReport,
}

impl Execute for ServeSpec {
    type Run = ServeRun;

    fn execute(&self) -> Result<ServeRun, CoreError> {
        ServeSpec::execute(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_spec(seed: u64) -> ServeSpec {
        ServeSpec::new(
            "dense-1n",
            ServingStrategy::Dense,
            GptConfig::paper_model_with_params(1.4),
            TrainOptions::single_node(),
            TraceConfig::quick(seed),
        )
        .with_max_batch(4)
    }

    #[test]
    fn trace_sampling_is_deterministic_per_seed() {
        let cfg = TraceConfig {
            requests: 32,
            arrivals: ArrivalProcess::Open { rate_rps: 10.0 },
            prompt_tokens: (64, 512),
            output_tokens: (16, 128),
            seed: 7,
        };
        let a = cfg.sample();
        let b = cfg.sample();
        assert_eq!(a, b, "same seed, same trace");
        let c = TraceConfig { seed: 8, ..cfg }.sample();
        assert_ne!(a, c, "different seed, different trace");
        // Open-loop arrivals are strictly increasing and finite.
        for w in a.windows(2) {
            assert!(w[0].arrival_s < w[1].arrival_s);
        }
        for r in &a {
            assert!(r.arrival_s.is_finite());
            assert!((64..=512).contains(&r.prompt_tokens));
            assert!((16..=128).contains(&r.output_tokens));
        }
    }

    #[test]
    fn closed_loop_marks_late_requests_infinite() {
        let t = TraceConfig::quick(0).sample();
        assert_eq!(t.iter().filter(|r| r.arrival_s == 0.0).count(), 4);
        assert_eq!(t.iter().filter(|r| r.arrival_s.is_infinite()).count(), 4);
    }

    #[test]
    fn dense_serve_reports_sane_latencies() {
        let run = dense_spec(42).execute().unwrap();
        let r = &run.report;
        assert_eq!(r.requests, 8, "every request completes");
        assert!(r.tokens_generated >= 8 * 8, "at least min output each");
        // Decode is token-at-a-time: TPOT well under TTFT (which pays a
        // whole prompt's compute).
        assert!(
            r.tpot_p50 < r.ttft_p50,
            "{:?} vs {:?}",
            r.tpot_p50,
            r.ttft_p50
        );
        assert!(r.ttft_p50 > SimTime::ZERO);
        assert!(r.ttft_p99 >= r.ttft_p50);
        assert!(r.tpot_p99 >= r.tpot_p50);
        assert!(r.tokens_per_s() > 1.0);
        assert!(r.kv_peak_bytes > 0.0);
        // The (batch, KV-bucket) cache keeps lowering sublinear in steps.
        assert!(r.decode_steps > r.plan_lowerings, "cache must hit");
    }

    #[test]
    fn serve_is_deterministic_per_seed_and_worker_width() {
        let base = dense_spec(42).execute().unwrap();
        let again = dense_spec(42).execute().unwrap();
        assert_eq!(base.digest, again.digest);
        let other = dense_spec(43).execute().unwrap();
        assert_ne!(base.digest, other.digest, "seed must matter");

        let specs = |n: u64| (0..4).map(|i| dense_spec(n + i)).collect::<Vec<_>>();
        let serial: Vec<u64> = specs(0)
            .iter()
            .map(|s| s.execute().unwrap().digest)
            .collect();
        for workers in [1, 4] {
            let par = crate::SweepRunner::new(workers)
                .run_parallel(specs(0))
                .unwrap();
            let digests: Vec<u64> = par.iter().map(|r| r.digest).collect();
            assert_eq!(digests, serial, "width {workers} changed results");
        }
    }

    #[test]
    fn node_counts_outside_the_cluster_are_typed_errors() {
        for nodes in [0, 3] {
            let mut spec = dense_spec(0);
            spec.opts = TrainOptions::for_nodes(nodes);
            let err = spec.execute().unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn oversized_dense_model_is_rejected() {
        let mut spec = dense_spec(0);
        spec.model = GptConfig::paper_model_with_params(90.0);
        let err = spec.execute().unwrap_err();
        assert!(
            matches!(err, CoreError::DoesNotFit { tier: "gpu", .. }),
            "{err}"
        );
    }
}
