//! Argument handling shared by the command-line binaries. Every usage
//! error prints one line to stderr and exits with status 2.

use zerosim_core::TrainingSim;
use zerosim_hw::{NvmeId, TopologySpec};
use zerosim_model::GptConfig;
use zerosim_strategies::{InfinityPlacement, Strategy, ZeroStage};

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

/// Parses `--model B` (paper-shaped, depth-scaled) or `--model wide:B`
/// (fixed-depth wide shape). Exits unless `B` is a positive number.
pub fn parse_model(raw: &str) -> GptConfig {
    let (wide, digits) = match raw.strip_prefix("wide:") {
        Some(rest) => (true, rest),
        None => (false, raw),
    };
    let billions: f64 = match digits.parse() {
        Ok(b) if b > 0.0 => b,
        _ => usage_error(&format!(
            "--model: expected a positive size in billions, got {raw:?}"
        )),
    };
    if wide {
        GptConfig::wide_model_with_params(billions)
    } else {
        GptConfig::paper_model_with_params(billions)
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

/// The strategy names [`strategy_by_name`] accepts.
pub const STRATEGY_NAMES: [&str; 9] = [
    "ddp",
    "megatron",
    "zero1",
    "zero2",
    "zero3",
    "zero1-cpu",
    "zero2-cpu",
    "zero3-cpu",
    "infinity",
];

/// Builds the strategy `name` for `nodes` nodes: Megatron uses TP = 4 per
/// node, the CPU-offload variants keep parameters on the GPU, and
/// `infinity` creates a two-drive volume on node 0 of `sim`'s cluster.
///
/// # Errors
/// Names outside [`STRATEGY_NAMES`].
pub fn strategy_by_name(
    name: &str,
    nodes: usize,
    sim: &mut TrainingSim,
) -> Result<Strategy, String> {
    let offload = |stage| Strategy::ZeroOffload {
        stage,
        offload_params: false,
    };
    Ok(match name {
        "ddp" => Strategy::Ddp,
        "megatron" => Strategy::Megatron {
            tp: 4 * nodes,
            pp: 1,
        },
        "zero1" => Strategy::Zero {
            stage: ZeroStage::One,
        },
        "zero2" => Strategy::Zero {
            stage: ZeroStage::Two,
        },
        "zero3" => Strategy::Zero {
            stage: ZeroStage::Three,
        },
        "zero1-cpu" => offload(ZeroStage::One),
        "zero2-cpu" => offload(ZeroStage::Two),
        "zero3-cpu" => offload(ZeroStage::Three),
        "infinity" => {
            let d = |drive| NvmeId { node: 0, drive };
            let vol = sim.cluster_mut().create_volume(vec![d(0), d(1)]);
            Strategy::ZeroInfinity {
                offload_params: false,
                placement: InfinityPlacement::new(vec![vol]),
            }
        }
        other => return Err(format!("unknown strategy {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

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
    }

    #[test]
    fn every_listed_strategy_name_builds() {
        let mut sim = TrainingSim::new(ClusterSpec::default()).unwrap();
        for name in STRATEGY_NAMES {
            assert!(strategy_by_name(name, 1, &mut sim).is_ok(), "{name}");
        }
        assert!(strategy_by_name("zero4", 1, &mut sim).is_err());
    }
}
