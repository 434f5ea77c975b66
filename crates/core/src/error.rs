//! Error type of the characterization engine.

use std::error::Error;
use std::fmt;

use zerosim_hw::Cluster;
use zerosim_simkit::SimError;
use zerosim_strategies::{MemoryPlan, StrategyError};

/// Errors from running a training characterization.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The underlying simulation failed.
    Sim(SimError),
    /// The configuration does not fit the hardware's memory tiers.
    DoesNotFit {
        /// The tier that overflows first.
        tier: &'static str,
        /// Bytes requested on the most-loaded unit of that tier.
        requested: f64,
    },
    /// The cluster specification was invalid.
    BadCluster(String),
    /// A fault scenario did not resolve against the cluster (unknown
    /// node/GPU, non-physical factor, invalid time). See
    /// [`crate::FaultScenario::compile`].
    BadScenario(String),
    /// A search setting that no strategy judges was out of range: a
    /// fleet search it cannot cost (see [`crate::fleet_search`]).
    BadConfig(String),
    /// The strategy layer rejected the training configuration (a node
    /// count outside the cluster, bad parallel layout, state placement
    /// violating Table I, invalid plan).
    InvalidConfig(StrategyError),
    /// Node losses outran the recovery budget of the fault policy (see
    /// [`crate::FaultConfig`]).
    RecoveryExhausted {
        /// The `max_recoveries` budget that was exhausted.
        budget: usize,
    },
    /// The achieved-model-size search kept fitting past any physical model
    /// scale, which means the memory model (not the configuration) is
    /// broken. See [`crate::max_model_size`].
    CapacityDiverged {
        /// The layer count the exponential probe reached before giving up.
        probed_layers: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::DoesNotFit { tier, requested } => write!(
                f,
                "configuration does not fit: {tier} tier needs {:.1} GB",
                requested / 1e9
            ),
            CoreError::BadCluster(msg) => write!(f, "invalid cluster: {msg}"),
            CoreError::BadScenario(msg) => write!(f, "invalid fault scenario: {msg}"),
            CoreError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            CoreError::RecoveryExhausted { budget } => write!(
                f,
                "node loss exhausted the recovery budget ({budget} recoveries)"
            ),
            CoreError::CapacityDiverged { probed_layers } => write!(
                f,
                "capacity search still fits at {probed_layers} layers; check the memory model"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<StrategyError> for CoreError {
    fn from(e: StrategyError) -> Self {
        CoreError::InvalidConfig(e)
    }
}

/// The memory-fit check shared by training and serving: the first tier
/// `memory` overflows on `cluster` becomes [`CoreError::DoesNotFit`].
pub(crate) fn ensure_fits(memory: &MemoryPlan, cluster: &Cluster) -> Result<(), CoreError> {
    let Some(tier) = memory.bottleneck(cluster) else {
        return Ok(());
    };
    let requested = match tier {
        "gpu" => memory.per_gpu_bytes,
        "cpu" => memory.per_node_cpu_bytes,
        _ => memory.nvme_bytes,
    };
    Err(CoreError::DoesNotFit { tier, requested })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::DoesNotFit {
            tier: "gpu",
            requested: 50e9,
        };
        assert!(e.to_string().contains("gpu"));
        assert!(e.to_string().contains("50.0 GB"));
        let s = CoreError::Sim(SimError::Deadlock { pending: 1 });
        assert!(Error::source(&s).is_some());
        assert!(CoreError::BadCluster("x".into()).to_string().contains("x"));
        assert!(CoreError::BadScenario("node 9".into())
            .to_string()
            .contains("fault scenario: node 9"));
        let b = CoreError::BadConfig("top = 0".into());
        assert_eq!(b.to_string(), "invalid configuration: top = 0");
        assert!(Error::source(&b).is_none());
        let c = CoreError::from(StrategyError::layout("tp=3"));
        assert!(c.to_string().contains("tp=3"));
        assert!(Error::source(&c).is_some());
        let r = CoreError::RecoveryExhausted { budget: 2 };
        assert!(r.to_string().contains("2 recoveries"));
        assert!(Error::source(&r).is_none());
        let d = CoreError::CapacityDiverged {
            probed_layers: 1 << 22,
        };
        assert!(d.to_string().contains("4194304 layers"));
        assert!(Error::source(&d).is_none());
    }

    #[test]
    fn configuration_errors_do_not_pose_as_strategy_errors() {
        use zerosim_hw::TopologySpec;
        use zerosim_model::GptConfig;

        let top = crate::fleet_search(
            &crate::FleetCostConfig::new(
                TopologySpec::Flat { nodes: 1 },
                GptConfig::paper_model_with_params(1.4),
                0.05,
            )
            .with_top(0),
        )
        .unwrap_err();
        let message = top.to_string();
        assert!(
            !message.contains("invalid parallel layout")
                && !message.contains("invalid iteration plan"),
            "{message}"
        );
    }
}
