//! Zero-dependency test substrate for the ZeroSim workspace.
//!
//! The workspace must build and test **hermetically** — with no registry
//! access whatsoever — so everything the tests and tools used to pull
//! from crates.io lives here instead:
//!
//! * [`rng`] — a deterministic [splitmix64 + xoshiro256**] generator with
//!   explicit seeding. Same seed ⇒ same sequence, on every platform.
//! * [`gen`] — composable value generators with failure-case shrinking
//!   (the `proptest` replacement's strategy layer).
//! * [`prop`](mod@prop) — the property runner: case counts and seeds come from
//!   `ZEROSIM_PT_CASES` / `ZEROSIM_PT_SEED`, and a failing case prints
//!   the seed needed to replay it before panicking.
//! * [`json`] — a minimal JSON value with a renderer and a parser (the
//!   `serde_json` replacement): the CLIs and the analyzer render reports
//!   with it, and perfbench reads its result files back.
//! * [`domain`] — generators for the flow solver's inputs (link-capacity
//!   vectors and flow paths) expressed as plain data so this crate stays
//!   dependency-free.
//! * [`pool`] — a scoped thread pool on `std::thread` only
//!   (the `rayon` replacement) with deterministic input-ordered result
//!   collection; `core::sweep` fans parallel simulation runs over it.
//!
//! # Quick start
//!
//! ```
//! use zerosim_testkit::gen::{f64_range, vec_of};
//! use zerosim_testkit::prop::{check, Config};
//!
//! // Every element of a generated capacity vector is positive.
//! check(
//!     "caps_positive",
//!     &Config::from_env(64),
//!     &vec_of(f64_range(1.0, 1e9), 1, 8),
//!     |caps| {
//!         for c in caps {
//!             if *c <= 0.0 {
//!                 return Err(format!("non-positive capacity {c}"));
//!             }
//!         }
//!         Ok(())
//!     },
//! );
//! ```
//!
//! [splitmix64 + xoshiro256**]: https://prng.di.unimi.it/

pub mod domain;
pub mod gen;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;

pub use gen::Gen;
pub use json::{Json, JsonError};
pub use pool::ThreadPool;
pub use prop::{check, Config};
pub use rng::Rng;
