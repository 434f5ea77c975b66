//! Argument handling shared by the command-line binaries, and the one
//! strategy table they look strategies up in by [`Strategy::name`].
//! Every usage error prints one line to stderr and exits with status 2.

use zerosim_core::{SweepRunner, SweepSpec};
use zerosim_hw::TopologySpec;
use zerosim_model::GptConfig;
use zerosim_strategies::{Strategy, TrainOptions, ZeroStage};

use crate::data::{cpu_offload, infinity, paper_infinity};

/// Prints `message` to stderr and exits with the usage-error status 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Removes `flag` from `args`, returning whether it was present.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// Removes `flag` and the value after it from `args`, returning the value
/// (`None` when the flag is absent). Exits when the flag has no value.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        usage_error(&format!("{flag} needs an argument"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

/// Parses `raw` as a `T`, or returns `default` when the flag was absent.
/// Exits when the value does not parse.
pub fn parse_or_exit<T: std::str::FromStr>(raw: Option<String>, flag: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match raw {
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|e| usage_error(&format!("{flag}: {e}"))),
        None => default,
    }
}

/// The largest paper-shaped model, in billions of parameters, the tools
/// accept. The paper shape adds depth as it grows (1,000 B is ~20,000
/// layers), and planning and lowering every `planfind` candidate at this
/// size fits in 4 GB of address space.
pub const MAX_BILLIONS: f64 = 1000.0;

/// Parses a paper-shaped model size in billions of parameters for `what`
/// (a flag or positional argument). Exits unless it is a finite number
/// from the shape's embedding-only size up to [`MAX_BILLIONS`].
pub fn parse_billions(raw: &str, what: &str) -> f64 {
    let floor = GptConfig::paper_model(0).num_params();
    match raw.parse::<f64>() {
        Ok(b) if b * 1e9 >= floor && b <= MAX_BILLIONS => b,
        _ => usage_error(&format!(
            "{what}: expected a model size from {:.2} to {MAX_BILLIONS} billion parameters, \
             got {raw:?}",
            floor / 1e9
        )),
    }
}

/// Parses a count (nodes, batch slots, requests, workers, ranked rows)
/// for `flag`, or returns `default` when the flag was absent. Exits
/// unless it is a positive integer; a node count above the cluster's is
/// the library's typed error.
pub fn parse_count(raw: Option<String>, flag: &str, default: usize) -> usize {
    let count = parse_or_exit(raw, flag, default);
    if count == 0 {
        usage_error(&format!("{flag}: expected a positive integer, got 0"));
    }
    count
}

/// `N worker(s)` for the width a search asked for `requested` workers
/// runs at ([`SweepRunner::effective_workers`]), naming the request when
/// the machine clamped it, for the tools' completion lines.
pub fn workers_ran(requested: usize) -> String {
    let effective = SweepRunner::effective_workers(requested);
    if effective == requested {
        format!("{effective} worker(s)")
    } else {
        format!("{effective} worker(s), requested {requested} (clamped to machine)")
    }
}

/// Parses an inclusive token range `LO,HI` (a single `N` means `N,N`) for
/// `flag`, or returns `default` when the flag was absent. Exits unless
/// both bounds are integers with `1 <= LO <= HI`.
pub fn parse_range(raw: Option<String>, flag: &str, default: (usize, usize)) -> (usize, usize) {
    let Some(raw) = raw else { return default };
    let parse = |s: &str| -> usize {
        s.trim()
            .parse()
            .unwrap_or_else(|e| usage_error(&format!("{flag}: {e}")))
    };
    let (lo, hi) = match raw.split(',').collect::<Vec<_>>().as_slice() {
        [one] => {
            let v = parse(one);
            (v, v)
        }
        [lo, hi] => (parse(lo), parse(hi)),
        _ => usage_error(&format!("{flag}: expected LO,HI, got {raw:?}")),
    };
    if lo == 0 || lo > hi {
        usage_error(&format!("{flag}: expected 1 <= LO <= HI, got {raw:?}"));
    }
    (lo, hi)
}

/// Parses `--model B` (paper-shaped, depth-scaled) or `--model wide:B`
/// (fixed-depth wide shape). Exits unless `B` is a size that shape can
/// take.
pub fn parse_model(raw: &str) -> GptConfig {
    let Some(digits) = raw.strip_prefix("wide:") else {
        return GptConfig::paper_model_with_params(parse_billions(raw, "--model"));
    };
    match digits.parse::<f64>() {
        Ok(b) if b.is_finite() && b > 0.0 => GptConfig::wide_model_with_params(b),
        _ => usage_error(&format!(
            "--model: expected a positive size in billions, got {raw:?}"
        )),
    }
}

/// Parses `--topology SPEC`, or the paper testbed when absent. Exits when
/// the spec does not parse.
pub fn parse_topology(raw: Option<String>) -> TopologySpec {
    match raw {
        Some(raw) => TopologySpec::parse(&raw)
            .unwrap_or_else(|e| usage_error(&format!("--topology {raw}: {e}"))),
        None => TopologySpec::default(),
    }
}

/// The one strategy table: every strategy the command-line tools run,
/// in listing order, each looked up by its [`Strategy::name`]. The
/// CPU-offload variants keep parameters on the GPU unless the name says
/// `opt+param`, and ZeRO-Infinity stripes over the volume
/// [`strategy_by_name`] creates.
pub fn strategies() -> Vec<Strategy> {
    let zero = |stage| Strategy::Zero { stage };
    vec![
        Strategy::Ddp,
        Strategy::Megatron { tp: 4, pp: 1 },
        Strategy::Megatron { tp: 8, pp: 1 },
        Strategy::Megatron { tp: 4, pp: 2 },
        zero(ZeroStage::One),
        zero(ZeroStage::Two),
        zero(ZeroStage::Three),
        cpu_offload(ZeroStage::One),
        cpu_offload(ZeroStage::Two),
        cpu_offload(ZeroStage::Three),
        Strategy::ZeroOffload {
            stage: ZeroStage::Three,
            offload_params: true,
        },
        infinity(false),
        infinity(true),
        Strategy::qwz(),
        Strategy::hpz(),
        Strategy::qgz(),
    ]
}

/// The names [`strategy_by_name`] accepts, in [`strategies`] order.
pub fn strategy_names() -> Vec<String> {
    strategies().iter().map(Strategy::name).collect()
}

/// A spec, labelled `name`, training the [`strategies`] entry named
/// `name` at `model` under `opts` on the paper cluster. The ZeRO-Infinity
/// entries get the two-drive volume on node 0
/// ([`crate::data::paper_infinity`]).
///
/// # Errors
/// Names outside [`strategy_names`]; the message lists them.
pub fn strategy_by_name(
    name: &str,
    model: GptConfig,
    opts: TrainOptions,
) -> Result<SweepSpec, String> {
    let Some(strategy) = strategies().into_iter().find(|s| s.name() == name) else {
        return Err(format!(
            "unknown strategy {name:?}; strategies: {}",
            strategy_names().join(", ")
        ));
    };
    Ok(match strategy {
        Strategy::ZeroInfinity { offload_params, .. } => {
            paper_infinity(name, offload_params, model, opts)
        }
        strategy => SweepSpec::new(name, strategy, model, opts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_core::{CoreError, RunConfig};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn take_value_and_flag_consume_what_they_return() {
        let mut a = args(&["--json", "--top", "3", "extra"]);
        assert!(take_flag(&mut a, "--json"));
        assert!(!take_flag(&mut a, "--json"));
        assert_eq!(take_value(&mut a, "--top").as_deref(), Some("3"));
        assert_eq!(take_value(&mut a, "--top"), None);
        assert_eq!(a, args(&["extra"]));
        assert_eq!(parse_or_exit(Some("7".into()), "--n", 1usize), 7);
        assert_eq!(parse_or_exit(None, "--n", 1usize), 1);
    }

    #[test]
    fn models_and_topologies_parse() {
        assert_eq!(
            parse_model("1.4").num_params(),
            GptConfig::paper_model_with_params(1.4).num_params()
        );
        assert_eq!(
            parse_model("wide:14").num_params(),
            GptConfig::wide_model_with_params(14.0).num_params()
        );
        assert_eq!(parse_topology(None), TopologySpec::default());
        assert_eq!(parse_billions("0.7", "--sizes"), 0.7);
        assert_eq!(parse_count(None, "--nodes", 1), 1);
        assert_eq!(parse_count(Some("3".into()), "--nodes", 1), 3);
        assert_eq!(parse_range(None, "--prompt", (128, 512)), (128, 512));
        assert_eq!(parse_range(Some("5".into()), "--output", (16, 48)), (5, 5));
        assert_eq!(
            parse_range(Some("1, 9".into()), "--output", (16, 48)),
            (1, 9)
        );
    }

    #[test]
    fn the_strategy_table_is_keyed_by_registry_name() {
        let model = GptConfig::paper_model_with_params(1.4);
        let names = strategy_names();
        assert_eq!(names.len(), 16);
        for name in &names {
            let spec = strategy_by_name(name, model, TrainOptions::single_node()).unwrap();
            assert_eq!(&spec.label, name);
            assert_eq!(&spec.strategy.name(), name);
        }
        for (strategy, _) in crate::data::golden_matrix() {
            assert!(names.contains(&strategy.name()), "{}", strategy.name());
        }
        for old in ["megatron", "zero3", "zero1-cpu", "infinity"] {
            let err = strategy_by_name(old, model, TrainOptions::single_node()).unwrap_err();
            assert!(err.contains("PyTorch DDP"), "{err}");
        }
    }

    #[test]
    fn infinity_on_two_nodes_is_a_typed_error() {
        let model = GptConfig::paper_model_with_params(1.4);
        let spec = strategy_by_name(
            "ZeRO-Infinity (NVME opt)",
            model,
            TrainOptions::for_nodes(2),
        )
        .unwrap();
        // Node 1's ranks would stripe onto node 0's drives: `hw` names the
        // issuing socket and the drive.
        let err = spec.with_run(RunConfig::quick()).execute().unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("cross-node route Cpu(SocketId { node: 1"),
            "{msg}"
        );
        assert!(msg.contains("Nvme(NvmeId { node: 0, drive: 0 })"), "{msg}");
    }
}
