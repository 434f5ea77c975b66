//! Mixed-precision model-state memory accounting.
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
//! crate applies partitioning and owns the activation and fixed-overhead
//! model (`Calibration`'s activation coefficients and `gpu_fixed_bytes`).

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
}

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
}
