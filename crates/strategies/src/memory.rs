//! Memory placement plans: how many bytes each tier holds under a given
//! strategy, and whether the placement fits the hardware.

use zerosim_hw::Cluster;

/// Per-tier memory requirement of a training configuration.
///
/// Quantities are totals across the run (the paper reports per-node and
/// total figures; per-GPU peaks decide feasibility).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// Peak bytes on the most-loaded GPU.
    pub per_gpu_bytes: f64,
    /// Total GPU bytes across all participating GPUs.
    pub total_gpu_bytes: f64,
    /// Peak host (CPU DRAM) bytes on the most-loaded node.
    pub per_node_cpu_bytes: f64,
    /// Total host bytes across participating nodes.
    pub total_cpu_bytes: f64,
    /// Total bytes placed on NVMe volumes.
    pub nvme_bytes: f64,
    /// Labelled components of the per-GPU figure, for reporting.
    pub gpu_breakdown: Vec<(String, f64)>,
}

impl MemoryPlan {
    /// Grand total across all tiers (the stacked bars of Fig. 11-b /
    /// Fig. 13-c).
    pub fn total(&self) -> f64 {
        self.total_gpu_bytes + self.total_cpu_bytes + self.nvme_bytes
    }

    /// True when every tier fits its capacity on `cluster`.
    pub fn fits(&self, cluster: &Cluster) -> bool {
        self.bottleneck(cluster).is_none()
    }

    /// The tier that overflows first (`"gpu"`, `"cpu"`, then `"nvme"`),
    /// if any.
    pub fn bottleneck(&self, cluster: &Cluster) -> Option<&'static str> {
        let spec = cluster.spec();
        if self.per_gpu_bytes > spec.mem.gpu_bytes {
            Some("gpu")
        } else if self.per_node_cpu_bytes > spec.mem.cpu_bytes_per_node {
            Some("cpu")
        } else if self.nvme_bytes > spec.nvme_bytes_per_node() {
            Some("nvme")
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerosim_hw::ClusterSpec;

    fn plan(gpu: f64, cpu: f64, nvme: f64) -> MemoryPlan {
        MemoryPlan {
            per_gpu_bytes: gpu,
            total_gpu_bytes: gpu * 4.0,
            per_node_cpu_bytes: cpu,
            total_cpu_bytes: cpu,
            nvme_bytes: nvme,
            gpu_breakdown: vec![("states".into(), gpu)],
        }
    }

    #[test]
    fn fit_checks_each_tier() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        assert!(plan(39e9, 500e9, 1e12).fits(&c));
        assert_eq!(plan(41e9, 0.0, 0.0).bottleneck(&c), Some("gpu"));
        assert_eq!(plan(1e9, 2000e9, 0.0).bottleneck(&c), Some("cpu"));
        assert_eq!(plan(1e9, 1e9, 99e12).bottleneck(&c), Some("nvme"));
        assert_eq!(plan(1e9, 1e9, 1e9).bottleneck(&c), None);
    }

    #[test]
    fn totals() {
        let p = plan(10e9, 100e9, 5e9);
        assert_eq!(p.total(), 40e9 + 100e9 + 5e9);
    }
}
