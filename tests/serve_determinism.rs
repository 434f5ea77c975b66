//! Serving runs are deterministic: the golden ext14 deployments
//! ([`zerosim_bench::experiments::serving::golden_deployments`]) yield
//! pinned digests, latencies in their expected order, and the same
//! ordered label and digest vectors at any worker width; trace sampling
//! is a pure function of its seed, and re-executing a spec reproduces its
//! report byte-for-byte — scheduling must never leak into serving
//! results.

use zerosim_bench::experiments::serving::{golden_deployments, golden_trace};
use zerosim_core::{SweepRunner, TraceConfig};

/// `ServeRun::digest` of each golden deployment, in `golden_deployments()`
/// order. Every prefill and decode step is its own short engine run, so
/// these pins cover the executor's event order on the serving path, which
/// the training digest pins never reach.
const GOLDEN_SERVE_DIGESTS: [(&str, u64); 3] = [
    ("Dense TP=4 @ 1 node", 0x6ef8_f0b1_01b3_93e5),
    ("Dense TP=8 @ 2 nodes", 0xd12e_f057_85df_a437),
    ("ZeRO-Inference NVMe @ 1 node", 0x3c45_9aa8_48fe_516b),
];

#[test]
fn golden_serving_sweep_is_width_invariant() {
    let specs = golden_deployments();
    assert_eq!(specs.len(), 3, "golden serving matrix must stay at 3");

    // Serial execution is the reference ordering.
    let reference = SweepRunner::new(1)
        .run_parallel(specs.clone())
        .expect("golden deployments run");
    assert_eq!(reference.len(), 3);
    let pinned: Vec<(&str, u64)> = reference
        .iter()
        .map(|r| (r.label.as_str(), r.digest))
        .collect();
    assert_eq!(
        pinned, GOLDEN_SERVE_DIGESTS,
        "golden serving digests drifted"
    );
    // Every request completes, percentiles are ordered, and the
    // (batch x KV-bucket) plan cache hits.
    for run in &reference {
        let r = &run.report;
        assert_eq!(
            r.requests,
            golden_trace().requests,
            "{}: every request must complete",
            run.label
        );
        assert!(r.ttft_p99 >= r.ttft_p50, "{}: TTFT p99 < p50", run.label);
        assert!(r.tpot_p99 >= r.tpot_p50, "{}: TPOT p99 < p50", run.label);
        assert!(
            r.decode_steps > r.plan_lowerings,
            "{}: {} decode steps took {} lowerings; the plan cache never hit",
            run.label,
            r.decode_steps,
            r.plan_lowerings
        );
    }
    // A dense first token pays a whole prompt, so it costs more than a
    // dense decode token. NVMe streaming is exempt: there every decode
    // step re-reads the weights that prefill amortizes over the batch.
    for run in &reference[..2] {
        assert!(
            run.report.ttft_p50 > run.report.tpot_p50,
            "{}: dense TTFT p50 must exceed TPOT p50",
            run.label
        );
    }
    // Streaming weights from NVMe costs latency over keeping them resident.
    let (dense, nvme) = (&reference[0].report, &reference[2].report);
    assert!(nvme.ttft_p50 > dense.ttft_p50, "NVMe TTFT p50 <= dense");
    assert!(nvme.tpot_p50 > dense.tpot_p50, "NVMe TPOT p50 <= dense");

    for workers in [2usize, 4] {
        let runs = SweepRunner::new(workers)
            .run_parallel(specs.clone())
            .expect("golden deployments run");
        let labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
        let expect_labels: Vec<&str> = reference.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, expect_labels, "ordering broke at {workers} workers");
        for (run, want) in runs.iter().zip(&reference) {
            assert_eq!(
                run.digest, want.digest,
                "{}: digest changed at {workers} workers",
                run.label
            );
            assert_eq!(run.report, want.report, "{}: report drifted", run.label);
        }
    }
}

#[test]
fn serve_spec_replays_byte_identically_and_tracks_its_seed() {
    let spec = &golden_deployments()[0];
    let a = spec.clone().execute().expect("dense deployment runs");
    let b = spec.clone().execute().expect("dense deployment runs");
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.report, b.report);

    // A different trace seed must change the measurement.
    let mut reseeded = spec.clone();
    reseeded.trace.seed ^= 1;
    let c = reseeded.execute().expect("dense deployment runs");
    assert_ne!(a.digest, c.digest, "the trace seed must matter");
}

/// Every serving run terminates with all requests served under both
/// arrival processes. Folded in from the former `open_loop_hang.rs`
/// regression test for the open-loop admission hang: an
/// `ArrivalProcess::Open` arrival with a sub-tick remainder could never
/// satisfy `arrival <= t` after the idle branch jumped the clock to
/// that same (tick-rounded-down) arrival, so the scheduler spun forever
/// re-arming the jump. Closed-loop traces never exposed it because
/// their arrivals are 0.0 or released at an already-quantized
/// completion time — which is why this sweep covers both processes.
#[test]
fn both_arrival_processes_terminate_across_seeds() {
    use zerosim_core::{ArrivalProcess, ServeSpec};
    use zerosim_strategies::{ServingStrategy, TrainOptions};

    let arrivals = [
        ArrivalProcess::Open { rate_rps: 10.0 },
        ArrivalProcess::Closed { concurrency: 2 },
    ];
    for arrival in arrivals {
        for seed in 0..20u64 {
            let trace = TraceConfig {
                requests: 4,
                arrivals: arrival,
                prompt_tokens: (64, 128),
                output_tokens: (4, 8),
                seed,
            };
            let spec = ServeSpec::new(
                format!("{arrival:?}-{seed}"),
                ServingStrategy::Dense,
                zerosim_model::GptConfig::paper_model_with_params(1.4),
                TrainOptions::single_node(),
                trace,
            );
            let run = spec.execute().expect("serving run completes");
            assert_eq!(run.report.requests, 4, "{arrival:?} seed {seed}");
        }
    }
}

#[test]
fn trace_sampling_is_a_pure_function_of_the_config() {
    let cfg = golden_trace();
    assert_eq!(cfg.sample(), cfg.sample());
    let other = TraceConfig {
        seed: cfg.seed + 1,
        ..cfg.clone()
    };
    assert_ne!(cfg.sample(), other.sample());
}
