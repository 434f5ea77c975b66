//! ext14 — serving latency: TTFT/TPOT percentiles under continuous
//! batching.
//!
//! The paper characterizes *training* bandwidth; this extension asks the
//! same where-does-the-time-go question of inference. Two studies:
//!
//! 1. **Golden deployments** — the 1.4 B paper model served three ways:
//!    dense TP over one node (NVLink collectives), dense TP spanning two
//!    nodes (every decode step's all-reduces cross RoCE — the serving
//!    analogue of Megatron's Fig. 7-b collapse), and ZeRO-Inference-style
//!    NVMe weight streaming on one node (HBM holds only the KV cache and
//!    a double-buffered layer group; every step re-reads the weights).
//! 2. **Decode regime sweep** — TPOT versus batch size for the two dense
//!    deployments, decomposed against the fixed per-step serving overhead
//!    ([`zerosim_strategies::Calibration::serve_step_overhead_s`]). On
//!    one node decode never reaches the wire: the frontend overhead plus
//!    the small-kernel efficiency floor (decode GEMMs sit far left on the
//!    `gemm_eff` curve — the memory-bound regime) set a per-step cost
//!    that is nearly flat in batch size, so continuous batching buys
//!    throughput almost for free. Crossing nodes turns decode
//!    *wire-bound*: every layer's tensor-parallel all-reduce pays the
//!    RoCE hop, the serving analogue of Megatron's Fig. 7-b collapse.
//!
//! Everything is seed-stamped and byte-identical at any worker width:
//! `verify.sh` renders the artifact at `--workers` 1 and 4 and compares
//! the two, and `tests/serve_determinism.rs` pins the golden digests and
//! checks that their latencies keep their order.

use zerosim_core::{ArrivalProcess, ServeRun, ServeSpec, SweepRunner, TraceConfig};
use zerosim_hw::{ClusterSpec, NvmeId, VolumeId};
use zerosim_model::GptConfig;
use zerosim_report::Table;
use zerosim_simkit::SimTime;
use zerosim_strategies::{Calibration, InfinityPlacement, ServingStrategy, TrainOptions};

use crate::data;

/// Model size served by the golden deployments (the paper's 1.4 B
/// baseline).
pub const SERVE_MODEL_BILLIONS: f64 = 1.4;

/// Seed stamped onto every golden serving trace.
pub const SERVE_SEED: u64 = 1405;

/// The golden request trace: closed loop (8 always-busy clients), mixed
/// prompt lengths, short chat-style completions.
pub fn golden_trace() -> TraceConfig {
    TraceConfig {
        requests: 24,
        arrivals: ArrivalProcess::Closed { concurrency: 8 },
        prompt_tokens: (128, 512),
        output_tokens: (16, 48),
        seed: SERVE_SEED,
    }
}

/// The three golden deployments of [`SERVE_MODEL_BILLIONS`]; specs are
/// self-contained, so they replay identically on any worker.
pub fn golden_deployments() -> Vec<ServeSpec> {
    let model = GptConfig::paper_model_with_params(SERVE_MODEL_BILLIONS);
    let d = |drive| NvmeId { node: 0, drive };
    vec![
        ServeSpec::new(
            "Dense TP=4 @ 1 node",
            ServingStrategy::Dense,
            model,
            TrainOptions::single_node(),
            golden_trace(),
        ),
        ServeSpec::new(
            "Dense TP=8 @ 2 nodes",
            ServingStrategy::Dense,
            model,
            TrainOptions::for_nodes(2),
            golden_trace(),
        )
        .with_cluster(ClusterSpec::default().with_nodes(2)),
        ServeSpec::new(
            "ZeRO-Inference NVMe @ 1 node",
            ServingStrategy::NvmeStreamed {
                placement: InfinityPlacement::new(vec![VolumeId(0)]),
            },
            model,
            TrainOptions::single_node(),
            golden_trace(),
        )
        .with_volume(vec![d(0), d(1)]),
    ]
}

/// Runs the golden deployments across `workers` threads.
///
/// # Panics
/// Panics when a golden deployment fails to fit or run — these are the
/// artifact's own baseline shapes, so that is a harness bug.
pub fn golden_runs(workers: usize) -> Vec<ServeRun> {
    SweepRunner::new(workers)
        .run_parallel(golden_deployments())
        .expect("golden serving deployments run")
}

fn ms(t: SimTime) -> String {
    format!("{:.1}", t.as_secs() * 1e3)
}

/// Renders the golden-deployment latency table.
pub fn latency_table(runs: &[ServeRun]) -> String {
    let mut t = Table::new(vec![
        "deployment",
        "TTFT p50 ms",
        "TTFT p99 ms",
        "TPOT p50 ms",
        "TPOT p99 ms",
        "tok/s",
        "KV peak GB",
        "steps",
        "lowerings",
    ]);
    for run in runs {
        let r = &run.report;
        t.row(vec![
            run.label.clone(),
            ms(r.ttft_p50),
            ms(r.ttft_p99),
            ms(r.tpot_p50),
            ms(r.tpot_p99),
            format!("{:.0}", r.tokens_per_s()),
            format!("{:.2}", r.kv_peak_bytes / 1e9),
            format!("{}", r.prefills + r.decode_steps),
            format!("{}", r.plan_lowerings),
        ]);
    }
    t.render()
}

/// One row of the decode regime sweep: a dense deployment at a fixed
/// closed-loop batch, with the TPOT decomposition that names its
/// bottleneck.
#[derive(Debug, Clone)]
pub struct RegimePoint {
    /// Nodes the deployment spans.
    pub nodes: usize,
    /// Closed-loop concurrency (= the steady decode batch).
    pub batch: usize,
    /// Median time per output token, seconds.
    pub tpot_s: f64,
    /// Fraction of TPOT that is the fixed serving-frontend overhead.
    pub overhead_share: f64,
    /// Fraction of TPOT added by crossing nodes (vs the matched
    /// single-node batch); zero for single-node rows.
    pub wire_share: f64,
}

impl RegimePoint {
    /// The dominant term: `protocol` (fixed overhead), `wire` (inter-node
    /// collectives), or `compute`.
    pub fn verdict(&self) -> &'static str {
        if self.overhead_share >= 0.5 {
            "protocol-bound"
        } else if self.wire_share > self.overhead_share {
            "wire-bound"
        } else {
            "compute-bound"
        }
    }
}

/// The decode regime sweep: dense serving at 1 and 2 nodes, closed-loop
/// batch 1/4/8, fixed 32-token completions so every decode step runs at
/// the nominal batch.
///
/// # Panics
/// Panics when a sweep cell fails to run (same rationale as
/// [`golden_runs`]).
pub fn regime_sweep(workers: usize) -> Vec<RegimePoint> {
    let model = GptConfig::paper_model_with_params(SERVE_MODEL_BILLIONS);
    let batches = [1usize, 4, 8];
    let mut specs = Vec::new();
    for nodes in [1usize, 2] {
        for &batch in &batches {
            let trace = TraceConfig {
                requests: 2 * batch,
                arrivals: ArrivalProcess::Closed { concurrency: batch },
                prompt_tokens: (256, 256),
                output_tokens: (32, 32),
                seed: SERVE_SEED,
            };
            specs.push(
                ServeSpec::new(
                    format!("dense {nodes}n b{batch}"),
                    ServingStrategy::Dense,
                    model,
                    TrainOptions::for_nodes(nodes),
                    trace,
                )
                .with_cluster(ClusterSpec::default().with_nodes(nodes))
                .with_max_batch(batch),
            );
        }
    }
    let runs = SweepRunner::new(workers)
        .run_parallel(specs)
        .expect("regime sweep runs");
    let overhead = Calibration::default().serve_step_overhead_s;
    let (single, dual) = runs.split_at(batches.len());
    let mut points = Vec::new();
    for (nodes, rows) in [(1usize, single), (2usize, dual)] {
        for (k, run) in rows.iter().enumerate() {
            let tpot = run.report.tpot_p50.as_secs();
            let wire_share = if nodes == 1 {
                0.0
            } else {
                (1.0 - single[k].report.tpot_p50.as_secs() / tpot).max(0.0)
            };
            points.push(RegimePoint {
                nodes,
                batch: batches[k],
                tpot_s: tpot,
                overhead_share: (overhead / tpot).min(1.0),
                wire_share,
            });
        }
    }
    points
}

/// Renders the regime-sweep table.
pub fn regime_table(points: &[RegimePoint]) -> String {
    let mut t = Table::new(vec![
        "config",
        "batch",
        "TPOT ms",
        "overhead %",
        "wire %",
        "bound by",
    ]);
    for p in points {
        t.row(vec![
            format!("dense @ {} node(s)", p.nodes),
            format!("{}", p.batch),
            format!("{:.1}", p.tpot_s * 1e3),
            format!("{:.0}", p.overhead_share * 100.0),
            format!("{:.0}", p.wire_share * 100.0),
            p.verdict().to_string(),
        ]);
    }
    t.render()
}

/// The full ext14 artifact: golden-deployment latencies plus the decode
/// regime sweep.
pub fn ext14_serving_latency() -> String {
    let workers = data::sweep_workers();
    let runs = golden_runs(workers);
    let nvme_over_dense =
        runs[2].report.ttft_p50.as_secs() / runs[0].report.ttft_p50.as_secs().max(1e-12);
    let points = regime_sweep(workers);
    format!(
        "ext14 — serving the {SERVE_MODEL_BILLIONS} B paper model: TTFT/TPOT percentiles\n\
         under continuous batching (closed loop, 8 clients, seed {SERVE_SEED}):\n{}\n\
         NVMe weight streaming re-reads every layer group from flash each\n\
         step, so it trades {nvme_over_dense:.1}x the dense TTFT (and far worse TPOT)\n\
         for an HBM footprint that no longer holds the weights at all.\n\n\
         Decode regime sweep — median TPOT vs batch, decomposed against the\n\
         fixed per-step frontend overhead and the inter-node all-reduce\n\
         delta:\n{}",
        latency_table(&runs),
        regime_table(&points),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_deployments_order_and_shape() {
        let specs = golden_deployments();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].label, "Dense TP=4 @ 1 node");
        assert!(specs[2].volumes.len() == 1 && specs[2].volumes[0].len() == 2);
    }

    #[test]
    fn nvme_streaming_costs_ttft() {
        let runs = golden_runs(2);
        let dense = &runs[0].report;
        let nvme = &runs[2].report;
        assert_eq!(dense.requests, golden_trace().requests);
        assert_eq!(nvme.requests, golden_trace().requests);
        assert!(
            nvme.ttft_p50 > dense.ttft_p50,
            "streaming weights from flash must cost first-token latency: {:?} vs {:?}",
            nvme.ttft_p50,
            dense.ttft_p50
        );
        assert!(nvme.tpot_p50 > dense.tpot_p50);
    }

    #[test]
    fn decode_batches_for_free_on_node_and_goes_wire_bound_across() {
        let points = regime_sweep(2);
        let at = |nodes: usize, batch: usize| {
            points
                .iter()
                .find(|p| p.nodes == nodes && p.batch == batch)
                .expect("sweep cell present")
        };
        // Single node: per-step cost is overhead + kernel floors, so TPOT
        // is nearly flat in batch — batching is (almost) free throughput.
        let b1 = at(1, 1);
        assert!(
            at(1, 8).tpot_s < 1.1 * b1.tpot_s,
            "8x the batch must cost <10% extra TPOT: {:?} vs {b1:?}",
            at(1, 8)
        );
        assert!(
            b1.overhead_share > 0.3,
            "the fixed frontend overhead must be a first-order term: {b1:?}"
        );
        assert_ne!(b1.verdict(), "wire-bound");
        // Two nodes: every layer's all-reduce crosses RoCE.
        let cross = at(2, 8);
        assert_eq!(cross.verdict(), "wire-bound");
        assert!(
            cross.wire_share > 0.2,
            "crossing nodes must add all-reduce latency: {cross:?}"
        );
        // TPOT grows monotonically with batch on a fixed deployment.
        for nodes in [1, 2] {
            assert!(at(nodes, 8).tpot_s >= at(nodes, 1).tpot_s);
        }
    }
}
