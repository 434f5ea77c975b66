//! Resilience study: the five paper strategies under a canonical fault
//! matrix — degraded RoCE, a straggling GPU, an NVMe stall, and a node
//! loss recovered from checkpoints — answering "which strategy degrades
//! most gracefully when the cluster stops being healthy?".
//!
//! Run with: `cargo run --release --example resilience`

use zerosim_bench::experiments::resilience::{run_cell, MATRIX_BILLIONS, MATRIX_SEED};
use zerosim_core::FaultScenario;
use zerosim_hw::GpuId;
use zerosim_model::GptConfig;
use zerosim_strategies::Strategy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The full strategy × fault matrix (also available as `repro ext11`).
    println!(
        "{}",
        zerosim_bench::experiments::resilience::goodput_table()
    );

    // Determinism: the same seed and schedule reproduce the report
    // byte-for-byte — fault injection composes with the stamped-DAG
    // cache instead of breaking it.
    let model = GptConfig::paper_model_with_params(MATRIX_BILLIONS);
    let scenario = FaultScenario::Straggler {
        gpu: GpuId { node: 0, gpu: 1 },
        factor: 0.7,
        at_s: 0.0,
    };
    let a = run_cell(&Strategy::Ddp, &model, &scenario);
    let b = run_cell(&Strategy::Ddp, &model, &scenario);
    assert_eq!(a.digest(), b.digest());
    println!(
        "\ndeterminism: two seed-{MATRIX_SEED} straggler runs -> digest {:#018x} twice",
        a.digest()
    );
    let m = &a.resilience;
    println!(
        "straggler cell: {:.1} TFLOP/s goodput, p50 {:.0} ms / p99 {:.0} ms, {} fault event(s)",
        m.goodput_tflops(),
        m.iter_p50.as_millis(),
        m.iter_p99.as_millis(),
        m.faults_applied
    );
    Ok(())
}
