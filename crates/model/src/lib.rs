//! `zerosim-model` — GPT-2-like workload mathematics.
//!
//! Everything the paper's workload implies analytically, with no
//! simulation involved:
//!
//! * [`GptConfig`] — the model shape (Sec. III-B2) and parameter counting;
//! * [`IterationFlops`] — the DeepSpeed-FLOPS-profiler substitute;
//! * [`ModelStates`] — FP16/Adam model-state bytes (2/2/12 per parameter);
//!   the strategies' memory planners add activations and fixed overheads
//!   from their calibration;
//! * [`ModelPreset`] — named model sizes.
//!
//! The paper's training data (a WikiExtractor dump) shapes no result: only
//! tokens per iteration do, and [`GptConfig::tokens_per_iteration`]
//! computes them. This crate has no runtime dependencies.
//!
//! ```
//! use zerosim_model::GptConfig;
//! let model = GptConfig::paper_model_with_params(1.4);
//! assert_eq!(model.num_layers, 26);
//! let states = model.model_states();
//! assert!((states.total() / model.num_params() - 16.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod flops;
mod states;
mod zoo;

pub use config::GptConfig;
pub use flops::IterationFlops;
pub use states::{ModelStates, ADAM_FP32_BYTES, FP16_BYTES};
pub use zoo::ModelPreset;
