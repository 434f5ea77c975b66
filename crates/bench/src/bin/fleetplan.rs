//! `fleetplan` — resilience-economics search: rank (strategy ×
//! placement × checkpoint interval) by dollars-to-train under a fleet
//! failure rate (the CLI front end of [`zerosim_core::fleet_search`]).
//!
//! Usage:
//!
//! ```text
//! fleetplan [--topology SPEC] [--model B | --model wide:B] [--rate L]
//!           [--days T] [--tokens N] [--workers N] [--top N] [--json]
//! ```
//!
//! * `--topology SPEC` — the fleet shape: `paper` (default), `flat:<nodes>`,
//!   `fat-tree:<racks>x<nodes_per_rack>:<oversub>`, or
//!   `pods:<pods>x<islands>x<gpus>:<pod_oversub>:<spine_oversub>`.
//! * `--model B` — paper-shaped model of `B` billion parameters;
//!   `--model wide:B` uses the fixed-depth wide shape.
//! * `--rate L` — aggregate failures per node per day (default 0.05), a
//!   finite number ≥ 0; only its 40% node-fatal share enters the cost,
//!   and `0` reduces the ranking to healthy cost-to-train.
//! * `--days T` — training deadline, a finite number of days > 0;
//!   configurations that cannot finish in `T` days rank last and are
//!   flagged.
//! * `--tokens N` — training tokens, a finite number > 0 (default
//!   Chinchilla 20/parameter).
//! * `--workers N` — simulation fan-out, N ≥ 1, clamped to the machine's
//!   cores; results are byte-identical at any width (only wall-clock
//!   changes).
//! * `--top N` — placements costed in full from the throughput ranking,
//!   N ≥ 1 (default 4).
//! * `--json` — machine-readable report instead of text.
//!
//! The Young/Daly bracket validation on the golden configurations is
//! `repro ext13`.
//!
//! Exit status: 0 on success, 1 when the search fails, 2 on usage errors.

use std::time::Instant;

use zerosim_bench::cli::{
    parse_count, parse_model, parse_or_exit, parse_topology, take_flag, take_value, usage_error,
    workers_ran,
};
use zerosim_core::{fleet_search, FleetCostConfig, FleetReport};
use zerosim_testkit::json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: fleetplan [--topology SPEC] [--model B|wide:B] [--rate L] [--days T] \
         [--tokens N] [--workers N] [--top N] [--json]"
    );
    eprintln!("topologies: paper | flat:<nodes> | fat-tree:<racks>x<npr>:<over> |");
    eprintln!("            pods:<pods>x<islands>x<gpus>:<pod_over>:<spine_over>");
    std::process::exit(2);
}

/// Parses `raw` for `flag` as a finite number above zero. Exits with a
/// usage error otherwise.
fn parse_positive(raw: &str, flag: &str) -> f64 {
    match raw.parse::<f64>() {
        Ok(value) if value.is_finite() && value > 0.0 => value,
        _ => usage_error(&format!(
            "{flag}: expected a finite positive number, got {raw:?}"
        )),
    }
}

fn report_json(report: &FleetReport) -> Json {
    let candidates: Vec<Json> = report
        .candidates
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("strategy".into(), Json::Str(c.strategy_name.clone())),
                ("placement".into(), Json::Str(c.placement.clone())),
                ("throughput_tflops".into(), Json::Num(c.throughput_tflops)),
                ("ckpt_cost_s".into(), Json::Num(c.ckpt_cost_s)),
                ("interval_s".into(), Json::Num(c.interval_s)),
                ("interval_iters".into(), Json::Num(c.interval_iters as f64)),
                ("waste_fraction".into(), Json::Num(c.waste_fraction)),
                ("goodput_tflops".into(), Json::Num(c.goodput_tflops)),
                ("train_days".into(), Json::Num(c.train_days)),
                ("capital_usd".into(), Json::Num(c.capital_usd)),
                ("energy_usd".into(), Json::Num(c.energy_usd)),
                ("wear_usd".into(), Json::Num(c.wear_usd)),
                ("dollars_to_train".into(), Json::Num(c.dollars_to_train)),
                ("feasible".into(), Json::Bool(c.feasible)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("topology".into(), Json::Str(report.topology.clone())),
        (
            "model_billions".into(),
            Json::Num(report.model_params / 1e9),
        ),
        (
            "rate_per_node_day".into(),
            Json::Num(report.rate_per_node_day),
        ),
        ("tokens".into(), Json::Num(report.tokens)),
        (
            "deadline_days".into(),
            report.deadline_days.map_or(Json::Null, Json::Num),
        ),
        (
            "search_digest".into(),
            Json::Str(format!("{:016x}", report.search_digest)),
        ),
        (
            "digest".into(),
            Json::Str(format!("{:016x}", report.digest())),
        ),
        ("candidates".into(), Json::Arr(candidates)),
    ])
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let json = take_flag(&mut args, "--json");
    let topology = parse_topology(take_value(&mut args, "--topology"));
    let model = parse_model(&take_value(&mut args, "--model").unwrap_or_else(|| "1.4".into()));
    let rate: f64 = parse_or_exit(take_value(&mut args, "--rate"), "--rate", 0.05);
    if !(rate.is_finite() && rate >= 0.0) {
        usage_error(&format!(
            "--rate: expected a non-negative failure rate, got {rate}"
        ));
    }
    let days = take_value(&mut args, "--days").map(|raw| parse_positive(&raw, "--days"));
    let tokens = take_value(&mut args, "--tokens").map(|raw| parse_positive(&raw, "--tokens"));
    let workers = parse_count(take_value(&mut args, "--workers"), "--workers", 1);
    let top = parse_count(take_value(&mut args, "--top"), "--top", 4);
    if !args.is_empty() {
        eprintln!("unexpected arguments: {args:?}");
        usage();
    }

    let mut cfg = FleetCostConfig::new(topology, model, rate)
        .with_workers(workers)
        .with_top(top);
    cfg.deadline_days = days;
    cfg.tokens = tokens;
    let t0 = Instant::now();
    let report = match fleet_search(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleetplan: {e}");
            std::process::exit(1);
        }
    };
    let wall_secs = t0.elapsed().as_secs_f64();

    if json {
        println!("{}", report_json(&report).render());
    } else {
        print!("{}", report.render_text());
        eprintln!(
            "[search completed in {wall_secs:.2}s at {}]",
            workers_ran(workers)
        );
    }
}
