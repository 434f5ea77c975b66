//! `planfind` — auto-parallelism placement search over a parameterized
//! topology (the CLI front end of [`zerosim_core::search_plans`]).
//!
//! Usage:
//!
//! ```text
//! planfind [--topology SPEC] [--model B | --model wide:B]
//!          [--workers N] [--top N] [--json]
//! ```
//!
//! * `--topology SPEC` — the cluster shape to search against:
//!   `paper` (default, the two-node testbed), `flat:<nodes>`,
//!   `fat-tree:<racks>x<nodes_per_rack>:<oversub>`, or
//!   `pods:<pods>x<islands>x<gpus>:<pod_oversub>:<spine_oversub>`, with
//!   at most 1,024 GPUs (a larger topology is a usage error).
//! * `--model B` — paper-shaped model of `B` billion parameters
//!   (depth-scaled, h = 2048); `--model wide:B` uses the fixed-depth
//!   wide shape for cluster-scale models.
//! * `--workers N` — simulation fan-out, N ≥ 1, clamped to the machine's
//!   cores; results are byte-identical at any width (only wall-clock
//!   changes).
//! * `--top N` — ranked plans to print, N ≥ 1 (default 5).
//! * `--json` — machine-readable report instead of text: candidate
//!   counts, prune fraction, the worker count the search ran at (and the
//!   requested one, when the machine clamped it), digest, wall time,
//!   ranking and every candidate's outcome.
//!
//! Exit status: 0 on success (even when every candidate prunes), 1 when
//! the topology cannot be built, 2 on usage errors.

use std::time::Instant;

use zerosim_bench::cli::{
    parse_count, parse_model, parse_topology, take_flag, take_value, workers_ran,
};
use zerosim_core::{search_plans, CandidateOutcome, SearchConfig, SearchReport, SweepRunner};
use zerosim_testkit::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: planfind [--topology SPEC] [--model B|wide:B] [--workers N] \
         [--top N] [--json]"
    );
    eprintln!("topologies: paper | flat:<nodes> | fat-tree:<racks>x<npr>:<over> |");
    eprintln!("            pods:<pods>x<islands>x<gpus>:<pod_over>:<spine_over>");
    std::process::exit(2);
}

fn report_json(report: &SearchReport, workers: usize, wall_secs: f64) -> Json {
    let candidates: Vec<Json> = report
        .candidates
        .iter()
        .map(|c| {
            let (status, detail) = match &c.outcome {
                CandidateOutcome::Pruned { reason } => ("pruned", Json::Str(reason.clone())),
                CandidateOutcome::Simulated {
                    throughput_flops, ..
                } => ("simulated", Json::Num(throughput_flops / 1e12)),
                CandidateOutcome::Failed { error } => ("failed", Json::Str(error.clone())),
            };
            Json::Obj(vec![
                ("strategy".into(), Json::Str(c.strategy_name.clone())),
                ("placement".into(), Json::Str(c.placement())),
                ("spans".into(), Json::Str(c.spans.clone())),
                ("status".into(), Json::Str(status.into())),
                ("detail".into(), detail),
            ])
        })
        .collect();
    let ranking: Vec<Json> = report
        .ranking()
        .into_iter()
        .map(|c| Json::Str(format!("{} {}", c.strategy_name, c.placement())))
        .collect();
    let mut fields = vec![
        ("topology".into(), Json::Str(report.topology.clone())),
        ("total_gpus".into(), Json::Num(report.total_gpus as f64)),
        (
            "model_billions".into(),
            Json::Num(report.model_params / 1e9),
        ),
        ("enumerated".into(), Json::Num(report.enumerated() as f64)),
        ("pruned".into(), Json::Num(report.pruned() as f64)),
        ("simulated".into(), Json::Num(report.simulated() as f64)),
        ("failed".into(), Json::Num(report.failed() as f64)),
        ("prune_fraction".into(), Json::Num(report.prune_fraction())),
    ];
    let effective = SweepRunner::effective_workers(workers);
    fields.push(("workers".into(), Json::Num(effective as f64)));
    if effective != workers {
        fields.push(("requested_workers".into(), Json::Num(workers as f64)));
    }
    fields.extend([
        ("wall_secs".into(), Json::Num(wall_secs)),
        (
            "digest".into(),
            Json::Str(format!("{:016x}", report.digest())),
        ),
        ("ranking".into(), Json::Arr(ranking)),
        ("candidates".into(), Json::Arr(candidates)),
    ]);
    Json::Obj(fields)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let json = take_flag(&mut args, "--json");
    let topology = parse_topology(take_value(&mut args, "--topology"));
    let model = parse_model(&take_value(&mut args, "--model").unwrap_or_else(|| "1.4".into()));
    let workers = parse_count(take_value(&mut args, "--workers"), "--workers", 1);
    let top = parse_count(take_value(&mut args, "--top"), "--top", 5);
    if !args.is_empty() {
        eprintln!("unexpected arguments: {args:?}");
        usage();
    }

    let cfg = SearchConfig::new(topology, model).with_workers(workers);
    let t0 = Instant::now();
    let report = match search_plans(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("planfind: {e}");
            std::process::exit(1);
        }
    };
    let wall_secs = t0.elapsed().as_secs_f64();

    if json {
        println!("{}", report_json(&report, workers, wall_secs).render());
    } else {
        print!("{}", report.render_text(top));
        eprintln!(
            "[search completed in {wall_secs:.2}s at {}]",
            workers_ran(workers)
        );
    }
}
