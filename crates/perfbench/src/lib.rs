//! `zerosim-perfbench` — the host-time benchmark of ZeroSim.
//!
//! Four workloads (`golden12`, `pods32_zero3`, `planfind_edge`,
//! `serve_open`) run single-threaded as closed loops of ops. The untraced
//! run measures the end-to-end metrics; a separate traced op rebuilds the
//! pipeline from public calls with a timer around every layer. Every
//! timing is host time, what the simulator costs to run; simulated
//! results are correctness checks only. See `README.md`.
//!
//! Linking this crate installs [`alloc::CountingAlloc`] as the global
//! allocator.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod clock;
pub mod compare;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
