//! `perfbench` — host-time benchmark of ZeroSim (see the crate README).
//!
//! ```text
//! perfbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--json PATH] [--trace-out PATH]
//! perfbench compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zerosim_perfbench::compare::compare;
use zerosim_perfbench::metrics::Declared;
use zerosim_perfbench::runner::{
    render_text, results_json, run_workload, summary_line, DEFAULT_SECONDS,
};
use zerosim_perfbench::trace::Tracer;
use zerosim_perfbench::workloads::Workload;

const USAGE: &str =
    "usage: perfbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--json PATH] [--trace-out PATH]
       perfbench compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
workloads: golden12 pods32_zero3 planfind_edge serve_open";

/// Where results and traces go unless `--json` / `--trace-out` say else.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// Variables that switch the simulator onto a verification path; a run
/// with any of them set would not measure the production program.
const GUARDED_ENV: [&str; 3] = ["ZEROSIM_SHADOW", "ZEROSIM_ENGINE", "ZEROSIM_ENGINE_SHADOW"];

/// Why `run` refuses to measure.
#[derive(Debug)]
enum Refusal {
    DebugBuild,
    EnvSet(&'static str),
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::DebugBuild => write!(f, "debug build; rebuild with --release"),
            Refusal::EnvSet(var) => {
                write!(f, "{var} is set; unset it to measure the default engine")
            }
        }
    }
}

fn refusal() -> Option<Refusal> {
    if cfg!(debug_assertions) {
        return Some(Refusal::DebugBuild);
    }
    GUARDED_ENV
        .into_iter()
        .find(|var| std::env::var_os(var).is_some())
        .map(Refusal::EnvSet)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

#[derive(Debug)]
struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                a.workloads = vec![w];
            }
            "--seed" => {
                let raw = value()?;
                a.seed = raw
                    .parse()
                    .map_err(|_| format!("--seed: expected a whole number, got {raw:?}"))?;
            }
            "--seconds" => {
                let raw = value()?;
                a.seconds = raw
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds: expected 0 < S <= 3600, got {raw:?}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                };
            }
            "--json" => a.json = Some(PathBuf::from(value()?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(a)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    if let Some(r) = refusal() {
        eprintln!("perfbench: refusing to run: {r}");
        return ExitCode::from(2);
    }
    let label = match a.workloads.as_slice() {
        [one] => one.name(),
        _ => "all",
    };
    let stem = format!("{label}-seed{}", a.seed);
    let traced = if a.trace { "-traced" } else { "" };
    let json = a
        .json
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("results-{stem}{traced}.json")));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench run: seed {}, {} s per workload, trace {}, {cores} core(s), single-threaded",
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );

    let mut tracer = a.trace.then(Tracer::new);
    let mut results = Vec::with_capacity(a.workloads.len());
    for &w in &a.workloads {
        let r = run_workload(w, a.seed, a.seconds, tracer.as_mut());
        print!("{}", render_text(&r));
        results.push(r);
    }

    let mut outputs = vec![(
        json,
        results_json(&results, a.seed, a.seconds, a.trace).render(),
    )];
    if let Some(tr) = &tracer {
        let path = a
            .trace_out
            .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("trace-{stem}.json")));
        outputs.push((path, tr.to_chrome_json().render()));
    }
    for (path, text) in &outputs {
        if let Err(e) = write_file(path, text) {
            eprintln!("perfbench: cannot write {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    println!("{}", summary_line(&results, a.trace).render());
    if results.iter().all(|r| r.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return usage_error(&format!("unknown flag {flag:?}"));
    }
    let declared = match Declared::load() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut files = Vec::with_capacity(args.len());
    for path in args {
        match std::fs::read_to_string(path) {
            Ok(text) => files.push((path.clone(), text)),
            Err(e) => {
                eprintln!("perfbench: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match compare(&files, &declared) {
        Ok((report, bad)) => {
            print!("{report}");
            if bad {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => usage_error(&e),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown subcommand {other:?}")),
        None => usage_error("missing subcommand"),
    }
}
