//! Regenerates the paper's tables and figures on the simulated cluster.
//!
//! Usage: `repro [--out DIR] [--workers N] <artifact>...` where artifact
//! ∈ {fig1..fig13, table1..table6, ext1..ext15, scorecard, all}. With
//! `--out`, each artifact is also written to `DIR/<id>.txt`. `--workers N`
//! (N ≥ 1) fans every artifact's simulation runs across N threads —
//! output is byte-identical at any width.

use std::time::Instant;

use zerosim_bench::cli::{parse_count, take_value, usage_error};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = take_value(&mut args, "--out");
    let workers = parse_count(take_value(&mut args, "--workers"), "--workers", 1);
    zerosim_bench::data::set_sweep_workers(workers);
    {
        // Report both the requested and the (clamped) effective width so
        // oversubscribed runs are visible rather than silently slower.
        let runner = zerosim_bench::data::runner();
        if runner.workers() != runner.requested_workers() {
            eprintln!(
                "[sweep workers: requested {} -> effective {} (clamped to machine)]",
                runner.requested_workers(),
                runner.workers()
            );
        } else {
            eprintln!("[sweep workers: {}]", runner.workers());
        }
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: repro [--out DIR] [--workers N] <artifact>... | all");
        eprintln!("artifacts: {}", zerosim_bench::ARTIFACTS.join(" "));
        std::process::exit(2);
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        zerosim_bench::ARTIFACTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in &ids {
        if !zerosim_bench::ARTIFACTS.contains(id) {
            usage_error(&format!(
                "unknown artifact {id:?}; known: {}",
                zerosim_bench::ARTIFACTS.join(" ")
            ));
        }
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    for id in ids {
        let t0 = Instant::now();
        let body = zerosim_bench::render(id);
        println!("================ {id} ================");
        println!("{body}");
        if let Some(dir) = &out_dir {
            std::fs::write(format!("{dir}/{id}.txt"), &body).expect("write artifact");
        }
        eprintln!("[{id} generated in {:?}]", t0.elapsed());
    }
}
