//! A name-keyed registry of [`StrategyPlan`] implementations.
//!
//! The engine and the sweep drivers are strategy-agnostic: they accept
//! `&dyn StrategyPlan` and never match on the [`crate::Strategy`] enum.
//! The registry is the discovery side of that seam — callers look up
//! strategies by name (CLI flags, sweep configs) and out-of-tree
//! implementations register alongside the built-ins.

use crate::StrategyPlan;

/// A registry mapping short names to boxed [`StrategyPlan`]s.
#[derive(Debug, Default)]
pub struct StrategyRegistry {
    entries: Vec<(String, Box<dyn StrategyPlan>)>,
}

impl StrategyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        StrategyRegistry {
            entries: Vec::new(),
        }
    }

    /// Registers `strategy` under `key`, replacing any previous entry
    /// with the same key.
    pub fn register(&mut self, key: impl Into<String>, strategy: Box<dyn StrategyPlan>) {
        let key = key.into();
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = strategy;
        } else {
            self.entries.push((key, strategy));
        }
    }

    /// Looks a strategy up by key.
    pub fn get(&self, key: &str) -> Option<&dyn StrategyPlan> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, s)| s.as_ref())
    }

    /// Registered keys, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Iterates over `(key, strategy)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &dyn StrategyPlan)> {
        self.entries.iter().map(|(k, s)| (k.as_str(), s.as_ref()))
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The paper's Fig. 4/5 strategy matrix: DDP, Megatron (full TP),
    /// ZeRO 1–3, and the CPU offload variants. ZeRO-Infinity is excluded
    /// because it additionally needs NVMe volumes registered on the
    /// cluster; register it per-run with the concrete placement.
    pub fn paper() -> Self {
        use crate::{Strategy, ZeroStage};
        let mut r = StrategyRegistry::new();
        let all: Vec<Strategy> = vec![
            Strategy::Ddp,
            Strategy::Megatron { tp: 4, pp: 1 },
            Strategy::Zero {
                stage: ZeroStage::One,
            },
            Strategy::Zero {
                stage: ZeroStage::Two,
            },
            Strategy::Zero {
                stage: ZeroStage::Three,
            },
            Strategy::ZeroOffload {
                stage: ZeroStage::Two,
                offload_params: false,
            },
            Strategy::ZeroOffload {
                stage: ZeroStage::Three,
                offload_params: true,
            },
        ];
        for s in all {
            r.register(s.name(), Box::new(s));
        }
        r
    }

    /// Extends the registry with the three ZeRO++ strategies
    /// (arXiv 2306.10209): qwZ, hpZ, and qgZ. Kept out of [`Self::paper`]
    /// so the Fig. 4/5 sweep matrix is unchanged; planlint and ext15
    /// opt in explicitly.
    #[must_use]
    pub fn with_zeropp(mut self) -> Self {
        use crate::Strategy;
        for s in [Strategy::qwz(), Strategy::hpz(), Strategy::qgz()] {
            self.register(s.name(), Box::new(s));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;

    #[test]
    fn paper_registry_has_the_figure_legends() {
        let r = StrategyRegistry::paper();
        assert!(r.len() >= 7);
        assert!(r.get("PyTorch DDP").is_some());
        assert!(r.get("ZeRO-3").is_some());
        assert!(r.get("nonexistent").is_none());
        assert!(!r.is_empty());
        assert_eq!(r.names().len(), r.len());
        assert_eq!(r.iter().count(), r.len());
    }

    #[test]
    fn zeropp_family_registers_on_top_of_paper() {
        let r = StrategyRegistry::paper().with_zeropp();
        assert!(r.get("ZeRO++ (qwZ)").is_some());
        assert!(r.get("ZeRO++ (hpZ)").is_some());
        assert!(r.get("ZeRO++ (qgZ)").is_some());
        assert_eq!(r.len(), StrategyRegistry::paper().len() + 3);
    }

    #[test]
    fn register_replaces_same_key() {
        let mut r = StrategyRegistry::new();
        r.register("a", Box::new(Strategy::Ddp));
        r.register("a", Box::new(Strategy::Megatron { tp: 4, pp: 1 }));
        assert_eq!(r.len(), 1);
        assert!(r.get("a").unwrap().display_name().contains("Megatron"));
    }
}
