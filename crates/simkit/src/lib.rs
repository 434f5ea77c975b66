//! `zerosim-simkit` — the simulation kernel underneath ZeroSim.
//!
//! This crate provides the domain-agnostic machinery the rest of the
//! workspace builds on:
//!
//! * [`SimTime`] — integer-nanosecond virtual time;
//! * [`flow`] — a flow-level network simulator with max-min fair bandwidth
//!   sharing (progressive filling) and token-bucket variable-rate links;
//! * [`csr`] — compressed sparse row edge lists, the one layout of every
//!   dependency graph (task graphs, workload plans, analyzer graphs);
//! * [`dag`] — task graphs of compute spans, transfers, and delays;
//! * [`engine`] — the discrete-event executor that runs a DAG against a
//!   flow network and a set of compute resources;
//! * [`record`] — time-bucketed bandwidth recording (avg / p90 / peak, as
//!   the paper's hardware counters report) and timeline span logs.
//!
//! # Example
//!
//! Simulate two GPUs exchanging gradients over a shared link while one of
//! them computes:
//!
//! ```
//! use zerosim_simkit::dag::{DagBuilder, ResourceId};
//! use zerosim_simkit::engine::DagEngine;
//! use zerosim_simkit::flow::FlowNet;
//! use zerosim_simkit::record::BandwidthRecorder;
//! use zerosim_simkit::SimTime;
//!
//! # fn main() -> Result<(), zerosim_simkit::SimError> {
//! let mut net = FlowNet::new();
//! let nvlink = net.add_link("nvlink", 25e9);
//!
//! let mut b = DagBuilder::new();
//! let fwd = b.compute(ResourceId(0), SimTime::from_ms(3.0), "fwd", &[]);
//! b.transfer(&[nvlink], 100e6, SimTime::from_us(10.0), "allreduce", 0, &[fwd]);
//!
//! let mut rec = BandwidthRecorder::new(SimTime::from_ms(1.0));
//! let mut engine = DagEngine::new(vec![1, 1]);
//! let outcome = engine.run(&mut net, &b.build(), SimTime::ZERO, Some(&mut rec))?;
//! assert!(outcome.makespan() > SimTime::from_ms(3.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bucket;
pub mod csr;
pub mod dag;
pub mod engine;
mod error;
pub mod fault;
pub mod flow;
pub mod record;
mod time;

pub use bucket::TokenBucket;
pub use csr::{Csr, NodeIndex};
pub use dag::{Dag, DagBuilder, ResourceId, RouteRange, TaskId, TaskKind};
pub use engine::{DagEngine, RunOutcome};
pub use error::SimError;
pub use fault::{mix, FaultCursor, FaultEvent, FaultKind, FaultSchedule};
pub use flow::{FlowId, FlowNet, FlowObserver, LinkId, NullObserver};
pub use record::{
    nearest_rank, BandwidthRecorder, BandwidthStats, EngineStats, SolverStats, Span, SpanLog,
};
pub use time::SimTime;
