//! Training-run options shared by every strategy.

use zerosim_hw::{Cluster, GpuId};

use crate::error::StrategyError;

/// Options for a simulated training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainOptions {
    /// Sequences per GPU per iteration (the paper uses 16 everywhere).
    pub per_gpu_batch: usize,
    /// Number of nodes participating (1 or 2 on the paper's cluster).
    pub nodes: usize,
    /// Seed for the per-kernel duration jitter of this iteration; the
    /// characterization engine varies it per iteration so sampled
    /// percentile statistics behave like real hardware counters.
    pub jitter_seed: u64,
    /// Gradient-accumulation micro-steps per optimizer step (DeepSpeed's
    /// `gradient_accumulation_steps`). Communication for non-partitioned
    /// gradients happens only at the accumulation boundary.
    pub grad_accum: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            per_gpu_batch: 16,
            nodes: 1,
            jitter_seed: 0,
            grad_accum: 1,
        }
    }
}

impl TrainOptions {
    /// Single-node run with the paper's batch size.
    pub fn single_node() -> Self {
        Self::default()
    }

    /// Dual-node run with the paper's batch size.
    pub fn dual_node() -> Self {
        Self::for_nodes(2)
    }

    /// Run spanning `nodes` nodes with the paper's batch size (generated
    /// topologies go well beyond the paper's two).
    pub fn for_nodes(nodes: usize) -> Self {
        TrainOptions {
            nodes,
            ..Self::default()
        }
    }

    /// This configuration with a different jitter seed.
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// This configuration with `steps` gradient-accumulation micro-steps.
    ///
    /// # Panics
    /// Panics if `steps` is zero.
    pub fn with_grad_accum(mut self, steps: usize) -> Self {
        assert!(steps >= 1, "gradient accumulation needs at least one step");
        self.grad_accum = steps;
        self
    }

    /// Total participating GPUs: every GPU of the run's nodes. This is
    /// the one owner of the node-count rule; [`TrainOptions::gpus`] and
    /// every planner ask it.
    ///
    /// # Errors
    /// [`StrategyError::InvalidLayout`] when the run spans no node or more
    /// nodes than the cluster has.
    pub fn num_gpus(&self, cluster: &Cluster) -> Result<usize, StrategyError> {
        let have = cluster.spec().nodes;
        if self.nodes == 0 || self.nodes > have {
            return Err(StrategyError::layout(format!(
                "run wants {} nodes, cluster has {have}",
                self.nodes
            )));
        }
        Ok(self.nodes * cluster.spec().gpus_per_node)
    }

    /// The GPUs participating in this run, node-major.
    ///
    /// # Errors
    /// [`TrainOptions::num_gpus`]' layout error.
    pub fn gpus(&self, cluster: &Cluster) -> Result<Vec<GpuId>, StrategyError> {
        self.num_gpus(cluster)?;
        Ok((0..self.nodes).flat_map(|n| cluster.node_gpus(n)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

    #[test]
    fn gpu_selection() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        assert_eq!(TrainOptions::single_node().gpus(&c).unwrap().len(), 4);
        assert_eq!(TrainOptions::dual_node().gpus(&c).unwrap().len(), 8);
        assert_eq!(TrainOptions::dual_node().num_gpus(&c).unwrap(), 8);
    }

    #[test]
    fn node_counts_outside_the_cluster_are_layout_errors() {
        let c = Cluster::new(ClusterSpec::default().with_nodes(1)).unwrap();
        for nodes in [0, 2] {
            let opts = TrainOptions::for_nodes(nodes);
            let err = opts.num_gpus(&c).unwrap_err();
            assert!(matches!(err, StrategyError::InvalidLayout(_)), "{err}");
            assert!(
                err.to_string().contains(&format!("wants {nodes} nodes")),
                "{err}"
            );
            assert_eq!(opts.gpus(&c).unwrap_err(), err);
        }
    }
}
