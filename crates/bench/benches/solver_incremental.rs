//! Solver scorecard (DESIGN.md §9): incremental max-min solve cost on the
//! dual-node ZeRO-3 11.4 B configuration, and parallel-sweep speedup on
//! the ext11 fault-matrix sweep.
//!
//! Emits `BENCH_solver.json` at the repository root with:
//!
//! * `solver`: wall-clock and [`SolverStats`] work counters of one run,
//!   and the links-touched-per-solve reduction against a full re-solve.
//!   A full re-solve touches every link of the network on every solve, so
//!   the reduction is `link_count / mean_links_per_solve` — no second
//!   simulation needed.
//! * `sweep`: ext11 rendered at 1 and 8 workers, wall-clock speedup,
//!   byte-identity of the two renderings, and the machine's core count
//!   (speedup is honest, not normalized: on a 1-core box it hovers
//!   near 1×, while the links-touched reduction is hardware-invariant).
//!
//! Run with `cargo bench -p zerosim-bench --bench solver_incremental`;
//! `--quick` (or `ZEROSIM_BENCH_QUICK=1`) drops to single-iteration
//! timing for CI smoke.
//!
//! [`SolverStats`]: zerosim_simkit::SolverStats

use std::time::Instant;

use zerosim_core::{RunConfig, TrainingReport, TrainingSim};
use zerosim_hw::ClusterSpec;
use zerosim_model::GptConfig;
use zerosim_strategies::{Strategy, TrainOptions, ZeroStage};
use zerosim_testkit::json::Json;

/// One characterization run of dual-node ZeRO-3 at 11.4 B parameters,
/// with shadow verification off so the timing measures the solver itself,
/// not the cross-check. Returns the report and the network's link count.
fn zero3_11b_run() -> (TrainingReport, usize) {
    let mut sim = TrainingSim::new(ClusterSpec::default()).expect("default spec valid");
    sim.cluster_mut().net_mut().set_shadow_verify(false);
    let strategy = Strategy::Zero {
        stage: ZeroStage::Three,
    };
    let model = GptConfig::paper_model_with_params(11.4);
    let run = RunConfig {
        allow_overflow: true,
        ..RunConfig::quick()
    };
    let report = sim
        .run(&strategy, &model, &TrainOptions::dual_node(), &run)
        .expect("dual-node ZeRO-3 11.4 B runs");
    (report, sim.cluster().net().link_count())
}

/// Times `f` over `iters` runs, returning (best wall seconds, last value).
fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let value = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    (best, last.expect("at least one iteration"))
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("ZEROSIM_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let solver_iters = if quick { 1 } else { 3 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Part 1: incremental solve cost against a full re-solve's.
    let (wall_s, (report, link_count)) = time_best(solver_iters, zero3_11b_run);
    let solver = report.solver;
    let links_per_solve = solver.mean_links_per_solve();
    let reduction = link_count as f64 / links_per_solve;
    println!("solver: dual-node ZeRO-3 11.4 B (quick run, shadow off)");
    println!(
        "  incremental {wall_s:>8.3} s  {links_per_solve:>9.1} links/solve  ({} solves, {} full)",
        solver.solves, solver.full_solves
    );
    println!("  full re-solve would touch all {link_count} links on every solve");
    println!("  links-touched-per-solve reduction: {reduction:.1}x");

    // Part 2: ext11 fault-matrix sweep at 1 vs. 8 workers, identical bytes.
    let sweep_iters = if quick { 1 } else { 2 };
    let (serial_s, serial_out) = time_best(sweep_iters, || zerosim_bench::render_with("ext11", 1));
    let (wide_s, wide_out) = time_best(sweep_iters, || zerosim_bench::render_with("ext11", 8));
    assert_eq!(
        serial_out, wide_out,
        "ext11 must render byte-identically at any sweep width"
    );
    let speedup = serial_s / wide_s;
    println!("sweep: ext11 fault matrix, {cores} core(s)");
    println!("  1 worker  {serial_s:>8.3} s");
    println!("  8 workers {wide_s:>8.3} s  ({speedup:.2}x)");

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("solver_incremental".into())),
        ("quick".into(), Json::Bool(quick)),
        ("cores".into(), num(cores as f64)),
        (
            "solver".into(),
            Json::Obj(vec![
                (
                    "config".into(),
                    Json::Str("dual-node ZeRO-3 11.4B quick".into()),
                ),
                ("incremental_wall_s".into(), num(wall_s)),
                ("incremental_solves".into(), num(solver.solves as f64)),
                ("full_links_per_solve".into(), num(link_count as f64)),
                ("incremental_links_per_solve".into(), num(links_per_solve)),
                ("links_per_solve_reduction".into(), num(reduction)),
            ]),
        ),
        (
            "sweep".into(),
            Json::Obj(vec![
                ("artifact".into(), Json::Str("ext11".into())),
                ("serial_wall_s".into(), num(serial_s)),
                ("workers8_wall_s".into(), num(wide_s)),
                ("speedup".into(), num(speedup)),
                ("outputs_identical".into(), Json::Bool(true)),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");
    std::fs::write(path, doc.render() + "\n").expect("write BENCH_solver.json");
    println!("wrote BENCH_solver.json");

    assert!(
        reduction >= 5.0,
        "links-touched-per-solve reduction {reduction:.1}x is below the 5x floor"
    );
}
