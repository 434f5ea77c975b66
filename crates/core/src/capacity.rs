//! Achieved-model-size search (Fig. 6 / Fig. 13-a methodology): grow the
//! layer count until the configuration no longer fits, exactly as the
//! paper varies layers "until it reaches the maximum size that particular
//! hardware/software configuration can handle". [`max_model_size`] is the
//! one entry point: a node count outside the cluster and a probe that
//! never stops fitting come back as typed errors, never as panics.

use zerosim_hw::Cluster;
use zerosim_model::GptConfig;
use zerosim_strategies::{Calibration, IterCtx, Strategy, StrategyPlan, TrainOptions};

use crate::error::CoreError;

/// Result of a capacity search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityResult {
    /// Largest fitting layer count.
    pub num_layers: usize,
    /// Parameter count of that model.
    pub params: f64,
}

impl CapacityResult {
    /// Parameters in billions.
    pub fn billions(&self) -> f64 {
        self.params / 1e9
    }
}

/// Finds the largest paper-shaped model `strategy` can fit.
///
/// Returns `Ok(None)` when even a single layer does not fit.
/// Configurations the strategy rejects
/// ([`zerosim_strategies::StrategyError`]) count as not fitting.
///
/// # Errors
/// [`CoreError::InvalidConfig`] with [`TrainOptions::num_gpus`]' layout error
/// when `opts` spans no node or more nodes than `cluster` has, and
/// [`CoreError::CapacityDiverged`] when the
/// exponential probe still fits past 2²¹ layers (a memory-model bug, not
/// a configuration property).
pub fn max_model_size(
    cluster: &Cluster,
    strategy: &Strategy,
    opts: &TrainOptions,
    calib: &Calibration,
) -> Result<Option<CapacityResult>, CoreError> {
    // A planner error below reads as "does not fit", so the node-count
    // rule is checked first, by its owner.
    opts.num_gpus(cluster)?;
    let fits = |layers: usize| -> bool {
        let model = GptConfig::paper_model(layers);
        let ctx = IterCtx {
            cluster,
            model: &model,
            opts,
            calib,
        };
        strategy
            .plan_memory(&ctx)
            .map(|m| m.fits(cluster))
            .unwrap_or(false)
    };
    if !fits(1) {
        return Ok(None);
    }
    // Exponential probe.
    let mut lo = 1usize;
    let mut hi = 2usize;
    while fits(hi) {
        lo = hi;
        hi *= 2;
        if hi > 1 << 21 {
            return Err(CoreError::CapacityDiverged { probed_layers: hi });
        }
    }
    // Binary search in (lo, hi].
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let model = GptConfig::paper_model(lo);
    Ok(Some(CapacityResult {
        num_layers: lo,
        params: model.num_params(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;
    use zerosim_strategies::ZeroStage;

    fn fixtures() -> (Cluster, TrainOptions, Calibration) {
        (
            Cluster::new(ClusterSpec::default()).unwrap(),
            TrainOptions::single_node(),
            Calibration::default(),
        )
    }

    #[test]
    fn capacity_ordering_matches_paper_single_node() {
        let (cluster, opts, calib) = fixtures();
        let cap = |s: &Strategy| {
            max_model_size(&cluster, s, &opts, &calib)
                .unwrap()
                .expect("fits at least one layer")
                .billions()
        };
        let ddp = cap(&Strategy::Ddp);
        let megatron = cap(&Strategy::Megatron { tp: 4, pp: 1 });
        let z1 = cap(&Strategy::Zero {
            stage: ZeroStage::One,
        });
        let z2 = cap(&Strategy::Zero {
            stage: ZeroStage::Two,
        });
        let z3 = cap(&Strategy::Zero {
            stage: ZeroStage::Three,
        });
        // Fig. 6-a ordering: DDP ≪ Z1 < Z2 ≈ Megatron < Z3.
        assert!(ddp < z1, "ddp {ddp} < z1 {z1}");
        assert!(z1 < z2, "z1 {z1} < z2 {z2}");
        assert!(z2 < z3, "z2 {z2} < z3 {z3}");
        assert!(megatron > 3.0 * ddp, "megatron {megatron} ≫ ddp {ddp}");
        assert!(z3 > megatron, "z3 {z3} > megatron {megatron}");
        // Magnitudes within ±25% of the paper's Fig. 6-a.
        assert!((ddp - 1.4).abs() < 0.4, "ddp {ddp} vs paper 1.4");
        assert!(
            (megatron - 5.5).abs() / 5.5 < 0.25,
            "megatron {megatron} vs 5.5"
        );
        assert!((z3 - 6.6).abs() / 6.6 < 0.25, "z3 {z3} vs 6.6");
    }

    #[test]
    fn dual_node_doubles_zero_capacity_but_not_ddp() {
        let (cluster, single, calib) = fixtures();
        let dual = TrainOptions::dual_node();
        let z3_single = max_model_size(
            &cluster,
            &Strategy::Zero {
                stage: ZeroStage::Three,
            },
            &single,
            &calib,
        )
        .unwrap()
        .unwrap()
        .billions();
        let z3_dual = max_model_size(
            &cluster,
            &Strategy::Zero {
                stage: ZeroStage::Three,
            },
            &dual,
            &calib,
        )
        .unwrap()
        .unwrap()
        .billions();
        assert!(z3_dual > 1.6 * z3_single, "{z3_dual} vs {z3_single}");
        let ddp_single = max_model_size(&cluster, &Strategy::Ddp, &single, &calib)
            .unwrap()
            .unwrap()
            .billions();
        let ddp_dual = max_model_size(&cluster, &Strategy::Ddp, &dual, &calib)
            .unwrap()
            .unwrap()
            .billions();
        assert!(
            (ddp_single - ddp_dual).abs() < 1e-9,
            "DDP capacity is replica-bound"
        );
    }

    #[test]
    fn node_counts_outside_the_cluster_are_typed_errors() {
        let (cluster, _, calib) = fixtures();
        for s in [
            Strategy::Ddp,
            Strategy::Megatron { tp: 4, pp: 1 },
            Strategy::Zero {
                stage: ZeroStage::Three,
            },
        ] {
            for nodes in [0, 3] {
                let opts = TrainOptions::for_nodes(nodes);
                let err = max_model_size(&cluster, &s, &opts, &calib).unwrap_err();
                assert!(matches!(err, CoreError::InvalidConfig(_)), "{s:?}: {err}");
            }
        }
    }

    #[test]
    fn offload_extends_capacity() {
        let (cluster, opts, calib) = fixtures();
        let plain = max_model_size(
            &cluster,
            &Strategy::Zero {
                stage: ZeroStage::Two,
            },
            &opts,
            &calib,
        )
        .unwrap()
        .unwrap()
        .billions();
        let offload = max_model_size(
            &cluster,
            &Strategy::ZeroOffload {
                stage: ZeroStage::Two,
                offload_params: false,
            },
            &opts,
            &calib,
        )
        .unwrap()
        .unwrap()
        .billions();
        assert!(offload > 1.5 * plain, "offload {offload} vs plain {plain}");
    }
}
