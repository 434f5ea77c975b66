//! Mixed-precision model-state and activation memory accounting.
//!
//! With FP16 training and Adam, the model states per parameter are (ZeRO
//! paper / Sec. II-C):
//!
//! * 2 bytes FP16 parameters,
//! * 2 bytes FP16 gradients,
//! * 12 bytes FP32 optimizer state (master copy, momentum, variance).
//!
//! ZeRO stages partition these across the data-parallel degree; Megatron
//! tensor/pipeline parallelism slices all of them by the model-parallel
//! degree. This module provides the raw byte quantities; the `strategies`
//! crate applies partitioning.

use crate::config::GptConfig;

/// Bytes per parameter in FP16.
pub const FP16_BYTES: f64 = 2.0;
/// Bytes per parameter for FP32 Adam optimizer state (master + m + v).
pub const ADAM_FP32_BYTES: f64 = 12.0;

/// Model-state byte totals for the *whole* (unpartitioned) model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelStates {
    /// FP16 parameter bytes (2 P).
    pub params: f64,
    /// FP16 gradient bytes (2 P).
    pub grads: f64,
    /// FP32 optimizer-state bytes (12 P).
    pub optimizer: f64,
}

impl ModelStates {
    /// Computes states for a model with `num_params` parameters.
    pub fn for_params(num_params: f64) -> Self {
        ModelStates {
            params: FP16_BYTES * num_params,
            grads: FP16_BYTES * num_params,
            optimizer: ADAM_FP32_BYTES * num_params,
        }
    }

    /// Total bytes (the classic 16 P).
    pub fn total(&self) -> f64 {
        self.params + self.grads + self.optimizer
    }
}

impl GptConfig {
    /// Model states for this configuration.
    pub fn model_states(&self) -> ModelStates {
        ModelStates::for_params(self.num_params())
    }

    /// Activation memory per GPU in bytes, assuming activation
    /// checkpointing at layer boundaries (the Megatron/DeepSpeed default
    /// for the paper's model sizes).
    ///
    /// Stored: the layer-boundary activations (`s·b·h` FP16 values per
    /// layer) plus a working set for the layer being recomputed, folded
    /// into the `ACT_COEFF` calibration constant.
    pub fn activation_bytes(&self, per_gpu_batch: usize) -> f64 {
        /// Effective FP16 values stored per (layer, token, hidden-unit),
        /// calibrated so PyTorch DDP tops out at the paper's 1.4 B model on
        /// a 40 GB A100 (Fig. 6-a).
        const ACT_COEFF: f64 = 3.0;
        let s = self.seq_len as f64;
        let b = per_gpu_batch as f64;
        let h = self.hidden_size as f64;
        let l = self.num_layers as f64;
        ACT_COEFF * l * s * b * h * FP16_BYTES
    }
}

/// Fixed per-GPU memory overhead that does not scale with the model: CUDA
/// context, framework allocator slack, cuBLAS/NCCL workspaces. Calibrated
/// jointly with [`GptConfig::activation_bytes`].
pub const GPU_FIXED_OVERHEAD_BYTES: f64 = 4.0e9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_bytes_per_param() {
        let s = ModelStates::for_params(1e9);
        assert_eq!(s.params, 2e9);
        assert_eq!(s.grads, 2e9);
        assert_eq!(s.optimizer, 12e9);
        assert_eq!(s.total(), 16e9);
    }

    #[test]
    fn ddp_capacity_matches_paper() {
        // The paper's DDP tops out at 1.4 B params on a 40 GB A100
        // (Fig. 6-a): the 26-layer model must fit, the next size (2.9 B)
        // must not.
        let fits = |layers: usize| {
            let c = GptConfig::paper_model(layers);
            let need = c.model_states().total() + c.activation_bytes(16) + GPU_FIXED_OVERHEAD_BYTES;
            need <= 40e9
        };
        assert!(fits(26), "1.4B model should fit under DDP");
        assert!(!fits(55), "2.9B model should not fit under DDP");
    }

    #[test]
    fn activations_scale_with_batch_and_layers() {
        let c = GptConfig::default();
        assert_eq!(c.activation_bytes(32), 2.0 * c.activation_bytes(16));
        let deeper = GptConfig::paper_model(52);
        assert_eq!(deeper.activation_bytes(16), 2.0 * c.activation_bytes(16));
    }
}
