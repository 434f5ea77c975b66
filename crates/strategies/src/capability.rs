//! The ZeRO stage / offload capability matrix (Table I of the paper).

use crate::zero::{StateTier, ZeroStage};

/// What a DeepSpeed ZeRO stage partitions and where it may offload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroCapability {
    /// Stage number (0 = DeepSpeed disabled).
    pub stage: u8,
    /// Optimizer states are partitioned.
    pub partitions_optimizer: bool,
    /// Gradients are partitioned.
    pub partitions_gradients: bool,
    /// Parameters are partitioned.
    pub partitions_parameters: bool,
    /// Optimizer states may be offloaded to CPU memory.
    pub optimizer_cpu_offload: bool,
    /// Optimizer states may be offloaded to NVMe.
    pub optimizer_nvme_offload: bool,
    /// Parameters may be offloaded to CPU memory.
    pub parameter_cpu_offload: bool,
    /// Parameters may be offloaded to NVMe.
    pub parameter_nvme_offload: bool,
}

impl ZeroCapability {
    /// The capability row for `stage` — Table I verbatim.
    pub fn for_stage(stage: ZeroStage) -> Self {
        match stage {
            ZeroStage::One => ZeroCapability {
                stage: 1,
                partitions_optimizer: true,
                partitions_gradients: false,
                partitions_parameters: false,
                optimizer_cpu_offload: true,
                optimizer_nvme_offload: false,
                parameter_cpu_offload: false,
                parameter_nvme_offload: false,
            },
            ZeroStage::Two => ZeroCapability {
                stage: 2,
                partitions_optimizer: true,
                partitions_gradients: true,
                partitions_parameters: false,
                optimizer_cpu_offload: true,
                optimizer_nvme_offload: false,
                parameter_cpu_offload: false,
                parameter_nvme_offload: false,
            },
            ZeroStage::Three => ZeroCapability {
                stage: 3,
                partitions_optimizer: true,
                partitions_gradients: true,
                partitions_parameters: true,
                optimizer_cpu_offload: true,
                optimizer_nvme_offload: true,
                parameter_cpu_offload: true,
                parameter_nvme_offload: true,
            },
        }
    }

    /// Whether this row lets the optimizer states live on `tier`.
    pub(crate) fn allows_optimizer_on(&self, tier: StateTier) -> bool {
        match tier {
            StateTier::Gpu => true,
            StateTier::Cpu => self.optimizer_cpu_offload,
            StateTier::Nvme => self.optimizer_nvme_offload,
        }
    }

    /// Whether this row lets the parameters live on `tier`.
    pub(crate) fn allows_parameters_on(&self, tier: StateTier) -> bool {
        match tier {
            StateTier::Gpu => true,
            StateTier::Cpu => self.parameter_cpu_offload,
            StateTier::Nvme => self.parameter_nvme_offload,
        }
    }

    /// All three rows in stage order.
    pub fn table() -> [ZeroCapability; 3] {
        [
            Self::for_stage(ZeroStage::One),
            Self::for_stage(ZeroStage::Two),
            Self::for_stage(ZeroStage::Three),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper() {
        let t = ZeroCapability::table();
        // Stage 1: optimizer only, CPU offload only.
        assert!(t[0].partitions_optimizer && !t[0].partitions_gradients);
        assert!(t[0].optimizer_cpu_offload && !t[0].optimizer_nvme_offload);
        // Stage 2 adds gradients, still no NVMe.
        assert!(t[1].partitions_gradients && !t[1].partitions_parameters);
        assert!(!t[1].optimizer_nvme_offload && !t[1].parameter_cpu_offload);
        // Stage 3: everything.
        assert!(t[2].partitions_parameters);
        assert!(t[2].optimizer_nvme_offload && t[2].parameter_nvme_offload);
        assert_eq!([t[0].stage, t[1].stage, t[2].stage], [1, 2, 3]);
    }
}
