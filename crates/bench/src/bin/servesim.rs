//! `servesim` — serving characterization: TTFT/TPOT percentiles under
//! continuous batching (the CLI front end of [`zerosim_core::serve`]).
//!
//! Usage:
//!
//! ```text
//! servesim [--strategy dense|nvme] [--model B] [--nodes N] [--batch N]
//!          [--requests N] [--arrivals open:RPS|closed:C]
//!          [--prompt LO,HI] [--output LO,HI] [--seed S]
//!          [--workers N] [--json] [--bench PATH]
//! ```
//!
//! * `--strategy` — `dense` (weights resident, TP over all GPUs) or
//!   `nvme` (ZeRO-Inference-style weight streaming from a 2-drive
//!   volume on node 0).
//! * `--model B` — paper-shaped model of `B` billion parameters.
//! * `--nodes N` — nodes the deployment spans (TP widens accordingly).
//! * `--batch N` — continuous-batching slot count.
//! * `--requests N`, `--arrivals`, `--prompt`, `--output`, `--seed` —
//!   the synthetic trace (deterministic per seed). `--prompt` and
//!   `--output` take inclusive token ranges `LO,HI` with `1 <= LO <= HI`.
//! * `--workers N` — fan-out for the `--bench` scorecard sweeps; results
//!   are byte-identical at any width (only wall-clock changes).
//! * `--json` — machine-readable report instead of text.
//! * `--bench PATH` — instead of the single run, write the serving
//!   scorecard: the three golden ext14 deployments plus the decode
//!   regime sweep, with width-invariant digests and the sanity verdict
//!   `verify.sh` gates on.
//!
//! Exit status: 0 on success, 1 when the run fails, 2 on usage errors
//! (including a zero `--nodes`, `--batch` or `--requests`).

use std::time::Instant;

use zerosim_bench::cli::{
    parse_billions, parse_count, parse_or_exit, parse_range, take_flag, take_value, usage_error,
};
use zerosim_bench::experiments::serving::{
    golden_runs, golden_trace, regime_sweep, RegimePoint, SERVE_SEED,
};
use zerosim_core::{ArrivalProcess, ServeRun, ServeSpec, TraceConfig};
use zerosim_hw::{ClusterSpec, NvmeId, VolumeId};
use zerosim_model::GptConfig;
use zerosim_strategies::{InfinityPlacement, ServingStrategy, TrainOptions};
use zerosim_testkit::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: servesim [--strategy dense|nvme] [--model B] [--nodes N] [--batch N] \
         [--requests N] [--arrivals open:RPS|closed:C] [--prompt LO,HI] [--output LO,HI] \
         [--seed S] [--workers N] [--json] [--bench PATH]"
    );
    std::process::exit(2);
}

fn parse_arrivals(raw: Option<String>) -> ArrivalProcess {
    let Some(raw) = raw else {
        return ArrivalProcess::Closed { concurrency: 8 };
    };
    let bad = || -> ! {
        usage_error(&format!(
            "--arrivals: expected open:RPS or closed:C, got {raw:?}"
        ))
    };
    if let Some(rate) = raw.strip_prefix("open:") {
        match rate.parse() {
            Ok(rate_rps) if rate_rps > 0.0 => ArrivalProcess::Open { rate_rps },
            _ => bad(),
        }
    } else if let Some(c) = raw.strip_prefix("closed:") {
        match c.parse() {
            Ok(concurrency) if concurrency > 0 => ArrivalProcess::Closed { concurrency },
            _ => bad(),
        }
    } else {
        bad()
    }
}

fn run_json(run: &ServeRun) -> Json {
    let r = &run.report;
    Json::Obj(vec![
        ("label".into(), Json::Str(run.label.clone())),
        ("strategy".into(), Json::Str(r.strategy.into())),
        ("nodes".into(), Json::Num(r.nodes as f64)),
        ("requests".into(), Json::Num(r.requests as f64)),
        (
            "tokens_generated".into(),
            Json::Num(r.tokens_generated as f64),
        ),
        ("ttft_p50_ms".into(), Json::Num(r.ttft_p50.as_secs() * 1e3)),
        ("ttft_p99_ms".into(), Json::Num(r.ttft_p99.as_secs() * 1e3)),
        ("tpot_p50_ms".into(), Json::Num(r.tpot_p50.as_secs() * 1e3)),
        ("tpot_p99_ms".into(), Json::Num(r.tpot_p99.as_secs() * 1e3)),
        ("tokens_per_s".into(), Json::Num(r.tokens_per_s())),
        ("kv_peak_gb".into(), Json::Num(r.kv_peak_bytes / 1e9)),
        ("prefills".into(), Json::Num(r.prefills as f64)),
        ("decode_steps".into(), Json::Num(r.decode_steps as f64)),
        ("plan_lowerings".into(), Json::Num(r.plan_lowerings as f64)),
        ("digest".into(), Json::Str(format!("{:016x}", run.digest))),
    ])
}

fn regime_json(p: &RegimePoint) -> Json {
    Json::Obj(vec![
        ("nodes".into(), Json::Num(p.nodes as f64)),
        ("batch".into(), Json::Num(p.batch as f64)),
        ("tpot_ms".into(), Json::Num(p.tpot_s * 1e3)),
        ("overhead_share".into(), Json::Num(p.overhead_share)),
        ("wire_share".into(), Json::Num(p.wire_share)),
        ("bound_by".into(), Json::Str(p.verdict().into())),
    ])
}

/// The `--bench` scorecard: golden deployments + regime sweep, combined
/// digest, and the sanity verdict `verify.sh` greps for.
fn bench_scorecard(workers: usize) -> Json {
    let t0 = Instant::now();
    let runs = golden_runs(workers);
    let points = regime_sweep(workers);
    let mut serve_digest = 0x5345_5256u64; // "SERV"
    for run in &runs {
        serve_digest = serve_digest.rotate_left(17) ^ run.digest;
    }
    let trace = golden_trace();
    // Sanity: every request completes, percentiles are ordered, the plan
    // cache hits, dense first tokens cost more than dense decode tokens
    // (prefill pays a whole prompt; NVMe streaming is exempt — there
    // *every* decode step re-reads the weights prefill amortizes over the
    // batch), and streaming weights from NVMe costs first-token latency
    // over keeping them resident.
    let sane = runs.iter().all(|run| {
        let r = &run.report;
        r.requests == trace.requests
            && r.ttft_p99 >= r.ttft_p50
            && r.tpot_p99 >= r.tpot_p50
            && r.decode_steps > r.plan_lowerings
    }) && runs[..2]
        .iter()
        .all(|run| run.report.ttft_p50 > run.report.tpot_p50)
        && runs[2].report.ttft_p50 > runs[0].report.ttft_p50
        && runs[2].report.tpot_p50 > runs[0].report.tpot_p50;
    let nvme_ttft_ratio =
        runs[2].report.ttft_p50.as_secs() / runs[0].report.ttft_p50.as_secs().max(1e-12);
    Json::Obj(vec![
        ("seed".into(), Json::Num(SERVE_SEED as f64)),
        ("requests".into(), Json::Num(trace.requests as f64)),
        (
            "deployments".into(),
            Json::Arr(runs.iter().map(run_json).collect()),
        ),
        (
            "regime".into(),
            Json::Arr(points.iter().map(regime_json).collect()),
        ),
        ("nvme_ttft_ratio".into(), Json::Num(nvme_ttft_ratio)),
        ("sane".into(), Json::Bool(sane)),
        (
            "serve_digest".into(),
            Json::Str(format!("{serve_digest:016x}")),
        ),
        ("wall_secs".into(), Json::Num(t0.elapsed().as_secs_f64())),
    ])
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let json = take_flag(&mut args, "--json");
    let strategy_name = take_value(&mut args, "--strategy").unwrap_or_else(|| "dense".into());
    let billions =
        take_value(&mut args, "--model").map_or(1.4, |raw| parse_billions(&raw, "--model"));
    let nodes = parse_count(take_value(&mut args, "--nodes"), "--nodes", 1);
    let batch = parse_count(take_value(&mut args, "--batch"), "--batch", 8);
    let requests = parse_count(take_value(&mut args, "--requests"), "--requests", 24);
    let arrivals = parse_arrivals(take_value(&mut args, "--arrivals"));
    let prompt = parse_range(take_value(&mut args, "--prompt"), "--prompt", (128, 512));
    let output = parse_range(take_value(&mut args, "--output"), "--output", (16, 48));
    let seed: u64 = parse_or_exit(take_value(&mut args, "--seed"), "--seed", SERVE_SEED);
    let workers: usize = parse_or_exit(take_value(&mut args, "--workers"), "--workers", 1);
    let bench_path = take_value(&mut args, "--bench");
    if !args.is_empty() {
        eprintln!("unexpected arguments: {args:?}");
        usage();
    }

    if let Some(path) = bench_path {
        let scorecard = bench_scorecard(workers);
        std::fs::write(&path, scorecard.render()).expect("write bench scorecard");
        eprintln!("[scorecard written to {path}]");
        return;
    }

    let model = GptConfig::paper_model_with_params(billions);
    let trace = TraceConfig {
        requests,
        arrivals,
        prompt_tokens: prompt,
        output_tokens: output,
        seed,
    };
    let label = format!("{strategy_name} @ {nodes} node(s)");
    let mut spec = match strategy_name.as_str() {
        "dense" => ServeSpec::new(
            label,
            ServingStrategy::Dense,
            model,
            TrainOptions::for_nodes(nodes),
            trace,
        ),
        "nvme" => {
            let d = |drive| NvmeId { node: 0, drive };
            ServeSpec::new(
                label,
                ServingStrategy::NvmeStreamed {
                    placement: InfinityPlacement::new(vec![VolumeId(0)]),
                },
                model,
                TrainOptions::for_nodes(nodes),
                trace,
            )
            .with_volume(vec![d(0), d(1)])
        }
        other => usage_error(&format!(
            "unknown strategy {other:?} (expected dense or nvme)"
        )),
    }
    .with_cluster(ClusterSpec::default().with_nodes(nodes))
    .with_max_batch(batch);
    spec.opts.jitter_seed = seed;

    let t0 = Instant::now();
    let run = match spec.execute() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("servesim: {e}");
            std::process::exit(1);
        }
    };
    let wall_secs = t0.elapsed().as_secs_f64();
    if json {
        println!("{}", run_json(&run).render());
    } else {
        let r = &run.report;
        println!(
            "servesim: {} — {} on {} node(s), batch {batch}, seed {seed}",
            run.label, r.strategy, r.nodes
        );
        println!(
            "  requests {}  tokens {}  wall {:.2}s  throughput {:.0} tok/s",
            r.requests,
            r.tokens_generated,
            r.wall.as_secs(),
            r.tokens_per_s()
        );
        println!(
            "  TTFT p50/p99 {:.1}/{:.1} ms   TPOT p50/p99 {:.1}/{:.1} ms",
            r.ttft_p50.as_secs() * 1e3,
            r.ttft_p99.as_secs() * 1e3,
            r.tpot_p50.as_secs() * 1e3,
            r.tpot_p99.as_secs() * 1e3
        );
        println!(
            "  prefills {}  decode steps {}  plans lowered {}  KV peak {:.2} GB",
            r.prefills,
            r.decode_steps,
            r.plan_lowerings,
            r.kv_peak_bytes / 1e9
        );
        eprintln!("[run completed in {wall_secs:.2}s]");
    }
}
