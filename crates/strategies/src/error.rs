//! Typed configuration errors for strategy compilation.
//!
//! Every precondition that the seed implementation enforced with a panic
//! (`expect("zero family")`, Megatron layout asserts, missing NVMe
//! placements) is now a [`StrategyError`] so callers — the
//! characterization engine, sweeps, out-of-tree strategies — can report
//! infeasible configurations instead of aborting.

use std::error::Error;
use std::fmt;

/// Why a strategy could not compile (model, cluster, options) into a
/// memory plan or iteration plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StrategyError {
    /// A parallel layout does not match the participating hardware
    /// (e.g. Megatron `tp × pp` not dividing the GPU count).
    InvalidLayout(String),
    /// A state placement violates Table I (e.g. parameter offload
    /// without ZeRO-3, NVMe tiers without a volume placement).
    InvalidPlacement(String),
    /// The emitted iteration plan failed validation against the cluster
    /// (collective payloads and ranks, route feasibility, phase
    /// ordering).
    InvalidPlan(String),
}

impl StrategyError {
    /// Convenience constructor for layout errors.
    pub fn layout(msg: impl Into<String>) -> Self {
        StrategyError::InvalidLayout(msg.into())
    }

    /// Convenience constructor for placement errors.
    pub fn placement(msg: impl Into<String>) -> Self {
        StrategyError::InvalidPlacement(msg.into())
    }

    /// Convenience constructor for plan-validation errors.
    pub fn plan(msg: impl Into<String>) -> Self {
        StrategyError::InvalidPlan(msg.into())
    }
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::InvalidLayout(m) => write!(f, "invalid parallel layout: {m}"),
            StrategyError::InvalidPlacement(m) => write!(f, "invalid state placement: {m}"),
            StrategyError::InvalidPlan(m) => write!(f, "invalid iteration plan: {m}"),
        }
    }
}

impl Error for StrategyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        assert!(StrategyError::layout("tp=3").to_string().contains("tp=3"));
        assert!(StrategyError::placement("no volume")
            .to_string()
            .contains("no volume"));
        assert!(StrategyError::plan("cycle").to_string().contains("cycle"));
    }
}
