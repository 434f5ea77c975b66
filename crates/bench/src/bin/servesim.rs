//! `servesim` — serving characterization: TTFT/TPOT percentiles under
//! continuous batching (the CLI front end of [`zerosim_core::serve`]).
//!
//! Usage:
//!
//! ```text
//! servesim [--strategy dense|nvme] [--model B] [--nodes N] [--batch N]
//!          [--requests N] [--arrivals open:RPS|closed:C]
//!          [--prompt LO,HI] [--output LO,HI] [--seed S] [--json]
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
//! * `--json` — machine-readable report instead of text.
//!
//! The golden deployments and the decode regime sweep are `repro ext14`.
//!
//! Exit status: 0 on success, 1 when the run fails, 2 on usage errors
//! (including a zero `--nodes`, `--batch` or `--requests`).

use std::time::Instant;

use zerosim_bench::cli::{
    parse_billions, parse_count, parse_or_exit, parse_range, take_flag, take_value, usage_error,
};
use zerosim_bench::experiments::serving::SERVE_SEED;
use zerosim_core::{ArrivalProcess, ServeRun, ServeSpec, TraceConfig};
use zerosim_hw::{ClusterSpec, NvmeId, VolumeId};
use zerosim_model::GptConfig;
use zerosim_strategies::{InfinityPlacement, ServingStrategy, TrainOptions};
use zerosim_testkit::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: servesim [--strategy dense|nvme] [--model B] [--nodes N] [--batch N] \
         [--requests N] [--arrivals open:RPS|closed:C] [--prompt LO,HI] [--output LO,HI] \
         [--seed S] [--json]"
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
    if !args.is_empty() {
        eprintln!("unexpected arguments: {args:?}");
        usage();
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
