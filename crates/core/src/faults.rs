//! Fault scenarios and the configuration of resilient runs.
//!
//! [`FaultScenario`] is the cluster-level vocabulary — "RoCE at 50%",
//! "GPU 3 is a straggler", "node 1 dies at t = 4 s" — compiled down to
//! the simkit [`FaultSchedule`] of raw link/resource events by resolving
//! link classes and GPU ids against the hardware model; a scenario that
//! does not resolve is a typed error. [`FaultConfig`] bundles a schedule
//! with the checkpoint/restart policy ([`RecoveryPolicy`]; snapshots go
//! to host DRAM) consumed by [`crate::TrainingSim::run_resilient`].

use std::borrow::Cow;

use zerosim_hw::{Cluster, GpuId, LinkClass, MemLoc};
use zerosim_simkit::{FaultKind, FaultSchedule};
use zerosim_strategies::RecoveryPolicy;

use crate::error::CoreError;

/// Everything a resilient run needs besides the training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// The timed fault events to inject.
    pub schedule: FaultSchedule,
    /// Checkpoint cadence and restart charging.
    pub policy: RecoveryPolicy,
}

impl FaultConfig {
    /// An empty schedule with no checkpointing: the configuration
    /// [`crate::TrainingSim::run`] and a default [`crate::SweepSpec`] run
    /// with.
    pub fn healthy() -> Self {
        FaultConfig {
            schedule: FaultSchedule::default(),
            policy: RecoveryPolicy::none(),
        }
    }

    /// A schedule with no checkpointing (for faults that degrade but do
    /// not kill: link degradation, stragglers, NVMe stalls).
    pub fn without_checkpoints(schedule: FaultSchedule) -> Self {
        FaultConfig {
            schedule,
            policy: RecoveryPolicy::none(),
        }
    }

    /// A full resilient configuration.
    pub fn new(schedule: FaultSchedule, policy: RecoveryPolicy) -> Self {
        FaultConfig { schedule, policy }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::healthy()
    }
}

/// A named cluster-level fault scenario, compiled against a [`Cluster`]
/// into raw simkit events. This is the vocabulary of the paper-style
/// fault matrix swept by `zerosim-bench`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultScenario {
    /// No faults.
    Healthy,
    /// Every link of `class` on `node` runs at `factor` × nominal from
    /// `at_s`, restored after `dur_s` (or for the rest of the run when
    /// `dur_s` is `None`).
    DegradeClass {
        /// Node whose links degrade.
        node: usize,
        /// Interconnect class (e.g. [`LinkClass::Roce`]).
        class: LinkClass,
        /// Fraction of nominal capacity in `(0, ∞)`.
        factor: f64,
        /// Onset, seconds.
        at_s: f64,
        /// Window length, seconds; `None` = permanent.
        dur_s: Option<f64>,
    },
    /// One GPU computes at `factor` × nominal speed from `at_s` onward.
    Straggler {
        /// The slow GPU.
        gpu: GpuId,
        /// Speed multiplier in `(0, 1]`.
        factor: f64,
        /// Onset, seconds.
        at_s: f64,
    },
    /// The NVMe devices on `node` stall to `factor` × nominal service
    /// rate for `dur_s` seconds (write-cache exhaustion / GC pause).
    NvmeStall {
        /// Node whose drives stall.
        node: usize,
        /// Fraction of nominal service rate.
        factor: f64,
        /// Onset, seconds.
        at_s: f64,
        /// Stall length, seconds.
        dur_s: f64,
    },
    /// `node` disappears at `at_s`; the engine aborts and the core layer
    /// restarts from the last checkpoint.
    NodeLoss {
        /// The lost node.
        node: usize,
        /// Failure time, seconds.
        at_s: f64,
    },
}

impl FaultScenario {
    /// Short display label for tables.
    ///
    /// Fixed scenarios borrow a static string; only the parameterized
    /// variants allocate, so ensemble sweeps that label thousands of
    /// healthy/loss samples stop churning the allocator.
    pub fn label(&self) -> Cow<'static, str> {
        match self {
            FaultScenario::Healthy => Cow::Borrowed("healthy"),
            FaultScenario::DegradeClass { class, factor, .. } => {
                Cow::Owned(format!("{class}@{:.0}%", factor * 100.0))
            }
            FaultScenario::Straggler { factor, .. } => {
                Cow::Owned(format!("straggler {factor:.1}x"))
            }
            FaultScenario::NvmeStall { .. } => Cow::Borrowed("nvme stall"),
            FaultScenario::NodeLoss { .. } => Cow::Borrowed("node loss"),
        }
    }

    /// Compiles the scenario against `cluster` into a seed-stamped
    /// [`FaultSchedule`] of raw link/resource events.
    ///
    /// # Errors
    /// [`CoreError::BadScenario`] when the scenario does not resolve
    /// against the cluster (node or GPU index out of range, a factor that
    /// is not finite and positive), and [`CoreError::Sim`] for an event
    /// time that is negative or not finite; a bad scenario never compiles
    /// to nothing.
    pub fn compile(&self, cluster: &Cluster, seed: u64) -> Result<FaultSchedule, CoreError> {
        let nodes = cluster.spec().nodes;
        let check_node = |node: usize| -> Result<(), CoreError> {
            if node >= nodes {
                return Err(CoreError::BadScenario(format!(
                    "node {node} out of range (cluster has {nodes} nodes)"
                )));
            }
            Ok(())
        };
        let check_factor = |factor: f64| -> Result<(), CoreError> {
            if !(factor.is_finite() && factor > 0.0) {
                return Err(CoreError::BadScenario(format!(
                    "factor must be finite and positive, got {factor}"
                )));
            }
            Ok(())
        };
        let mut s = FaultSchedule::new(seed);
        match self {
            FaultScenario::Healthy => {}
            FaultScenario::DegradeClass {
                node,
                class,
                factor,
                at_s,
                dur_s,
            } => {
                check_node(*node)?;
                check_factor(*factor)?;
                for &link in cluster.links(*node, *class) {
                    s = s.at(
                        *at_s,
                        FaultKind::ScaleLink {
                            link,
                            factor: *factor,
                        },
                    )?;
                    if let Some(dur) = dur_s {
                        s = s.at(*at_s + *dur, FaultKind::RestoreLink { link })?;
                    }
                }
            }
            FaultScenario::Straggler { gpu, factor, at_s } => {
                cluster
                    .check_loc(MemLoc::Gpu(*gpu))
                    .map_err(|e| CoreError::BadScenario(e.to_string()))?;
                check_factor(*factor)?;
                s = s.at(
                    *at_s,
                    FaultKind::SlowResource {
                        resource: cluster.gpu_resource(*gpu).0,
                        factor: *factor,
                    },
                )?;
            }
            FaultScenario::NvmeStall {
                node,
                factor,
                at_s,
                dur_s,
            } => {
                check_node(*node)?;
                check_factor(*factor)?;
                for &link in cluster.links(*node, LinkClass::NvmeDev) {
                    s = s.at(
                        *at_s,
                        FaultKind::ScaleLink {
                            link,
                            factor: *factor,
                        },
                    )?;
                    s = s.at(*at_s + *dur_s, FaultKind::RestoreLink { link })?;
                }
            }
            FaultScenario::NodeLoss { node, at_s } => {
                check_node(*node)?;
                s = s.at(*at_s, FaultKind::NodeLoss { node: *node })?;
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::default()).unwrap()
    }

    #[test]
    fn healthy_compiles_to_empty() {
        let c = cluster();
        let s = FaultScenario::Healthy.compile(&c, 7).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.seed(), 7);
        assert_eq!(FaultConfig::default(), FaultConfig::healthy());
    }

    #[test]
    fn degrade_class_emits_one_event_per_link() {
        let c = cluster();
        let links = c.links(0, LinkClass::Roce).len();
        assert!(links > 0);
        let windowed = FaultScenario::DegradeClass {
            node: 0,
            class: LinkClass::Roce,
            factor: 0.5,
            at_s: 1.0,
            dur_s: Some(2.0),
        }
        .compile(&c, 0)
        .unwrap();
        assert_eq!(windowed.len(), 2 * links);
        let permanent = FaultScenario::DegradeClass {
            node: 0,
            class: LinkClass::Roce,
            factor: 0.5,
            at_s: 1.0,
            dur_s: None,
        }
        .compile(&c, 0)
        .unwrap();
        assert_eq!(permanent.len(), links);
    }

    #[test]
    fn straggler_targets_the_gpu_resource() {
        let c = cluster();
        let gpu = GpuId { node: 0, gpu: 2 };
        let s = FaultScenario::Straggler {
            gpu,
            factor: 0.7,
            at_s: 0.5,
        }
        .compile(&c, 0)
        .unwrap();
        assert_eq!(s.len(), 1);
        match &s.events()[0].kind {
            FaultKind::SlowResource { resource, factor } => {
                assert_eq!(*resource, c.gpu_resource(gpu).0);
                assert_eq!(*factor, 0.7);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(FaultScenario::Healthy.label(), "healthy");
        assert!(FaultScenario::NodeLoss { node: 0, at_s: 1.0 }
            .label()
            .contains("node loss"));
        assert!(matches!(FaultScenario::Healthy.label(), Cow::Borrowed(_)));
    }

    #[test]
    fn compile_rejects_bad_scenarios() {
        let c = cluster();
        let nodes = c.spec().nodes;
        let bad_node = FaultScenario::NodeLoss {
            node: nodes,
            at_s: 1.0,
        };
        assert!(matches!(
            bad_node.compile(&c, 0),
            Err(CoreError::BadScenario(_))
        ));
        let bad_gpu = FaultScenario::Straggler {
            gpu: GpuId {
                node: 0,
                gpu: c.spec().gpus_per_node,
            },
            factor: 0.5,
            at_s: 0.0,
        };
        assert!(matches!(
            bad_gpu.compile(&c, 0),
            Err(CoreError::BadScenario(_))
        ));
        let bad_factor = FaultScenario::DegradeClass {
            node: 0,
            class: LinkClass::Roce,
            factor: 0.0,
            at_s: 0.0,
            dur_s: None,
        };
        assert!(matches!(
            bad_factor.compile(&c, 0),
            Err(CoreError::BadScenario(_))
        ));
        let bad_time = FaultScenario::NodeLoss {
            node: 0,
            at_s: -1.0,
        };
        assert!(matches!(
            bad_time.compile(&c, 0),
            Err(CoreError::BadScenario(_)) | Err(CoreError::Sim(_))
        ));
    }
}
