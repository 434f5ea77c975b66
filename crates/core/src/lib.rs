//! `zerosim-core` — the characterization engine reproducing the paper's
//! measurement methodology.
//!
//! [`TrainingSim`] owns a simulated cluster and runs strategies on it,
//! producing [`TrainingReport`]s with:
//!
//! * compute throughput (model FLOPs / iteration time, the DeepSpeed
//!   FLOPS-profiler convention, Sec. III-B3);
//! * per-interconnect bandwidth statistics and utilization patterns
//!   (Table IV, Figs. 9/10/12);
//! * memory placement per tier (Sec. IV-D / V);
//! * device timelines (Fig. 5);
//! * resilience accounting: goodput, iteration-time percentiles, and
//!   fault, replay and recovery counts (all zero on a healthy run).
//!
//! [`max_model_size`] performs the achieved-model-size search of Fig. 6.
//!
//! ```
//! use zerosim_core::{max_model_size, TrainingSim};
//! use zerosim_hw::ClusterSpec;
//! use zerosim_strategies::{Calibration, Strategy, TrainOptions, ZeroStage};
//!
//! # fn main() -> Result<(), zerosim_core::CoreError> {
//! let sim = TrainingSim::new(ClusterSpec::default())?;
//! let cap = max_model_size(
//!     sim.cluster(),
//!     &Strategy::Zero { stage: ZeroStage::Three },
//!     &TrainOptions::single_node(),
//!     sim.calibration(),
//! )?
//! .expect("fits");
//! assert!(cap.billions() > 5.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod capacity;
mod cost;
mod energy;
mod engine;
mod error;
mod faults;
mod fleet;
mod report;
mod search;
mod serve;
mod sweep;
mod timeline;

pub use analysis::{attribute_all_gpus, attribute_gpu, attribute_worst_gpu, TimeBreakdown};
pub use capacity::{max_model_size, CapacityResult};
pub use cost::{CostModel, CostReport};
pub use energy::{EnergyReport, PowerModel};
pub use engine::{RunConfig, TrainingSim};
pub use error::CoreError;
pub use faults::{FaultConfig, FaultScenario};
pub use fleet::{
    daly_interval_s, fleet_search, interval_iters, run_ensemble, waste_fraction,
    young_daly_bracket, young_interval_s, BracketPoint, EnsembleConfig, EnsembleReport,
    EnsembleStats, FleetCandidate, FleetCostConfig, FleetProfile, FleetReport, YoungDalyBracket,
};
pub use report::{BandwidthReport, HotLink, ResilienceMetrics, TrainingReport};
pub use search::{search_plans, CandidateOutcome, PlanCandidate, SearchConfig, SearchReport};
pub use serve::{serve, ArrivalProcess, Request, ServeReport, ServeRun, ServeSpec, TraceConfig};
pub use sweep::{Execute, SweepRun, SweepRunner, SweepSpec};
pub use timeline::{profile_tracks, to_chrome_trace, TrackProfile};

// Re-export the pieces callers need alongside the engine.
pub use zerosim_simkit::{EngineStats, FaultKind, FaultSchedule};
pub use zerosim_strategies::{
    Calibration, IterCtx, LoweredPlan, RecoveryPolicy, ServingStrategy, Strategy, StrategyError,
    StrategyPlan, TrainOptions,
};
