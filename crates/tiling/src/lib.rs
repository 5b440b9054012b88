//! # tempora-tiling — time-tiled, parallel execution of the engines
//!
//! The blocking layer of the *tempora* workspace (paper §3.4), combining
//! the temporal-vectorization engines of `tempora-core` with time-space
//! tiling and the `tempora-parallel` executor:
//!
//! * [`sweeps`] — in-place pipelined sweeps for the eight grid benchmarks,
//!   Jacobi and Gauss-Seidel alike: every sweep of the engine is cut into
//!   chunks of anchors (the paper's parallelogram tiles), and one
//!   wavefront lets the next sweep follow through the same array as soon
//!   as the slabs it reads are final — no tile buffers, no copies, with
//!   scalar / multi-load ("auto") / temporal sweeps.
//! * [`lcs_rect`] — tiling with pipelined wavefronts for LCS: one band
//!   sweep per `VL` rows, resumed across the block columns as [`Sweeps`]
//!   resumes the grid kinds' sweeps, and the paper's `lcsA`/`lcsB`
//!   wavefront-array rectangles for scalar rows.
//!
//! Each scheme is exposed as one **reusable workspace** — [`Sweeps`],
//! generic over the kernel through `tempora_core::engine::KernelSpace` so
//! one type serves every dimensionality, and [`LcsRect`] — that validates
//! the geometry, resolves the engine, and allocates every arena **once**;
//! repeated `advance` / `run` calls are then allocation-free. These
//! workspaces are the whole execution layer behind `tempora_plan::Plan`:
//! an untiled plan is their smallest schedule — one chunk per sweep, one
//! block column — on a one-thread pool.
//!
//! [`Sweeps::new`] and [`LcsRect::new`] take the
//! `tempora_core::engine::Engine` their caller resolved once
//! (`KernelSpace::resolve`, by capability; `lcs::resolve` for LCS,
//! degenerate geometries honestly portable); both report the engine that
//! runs, for per-series reporting in the bench harness. Each allocates its
//! temporal scratch only for sweeps that host the vector schedule.
//!
//! Every parallel path is bit-identical to the one-thread schedule and the
//! scalar references, for every thread count, engine selection and mode —
//! verified by the test suites of each module and the cross-crate
//! integration tests. Why the in-place wavefront is race-free — the
//! hazard argument — is in the [`sweeps`] module docs, next to the checker
//! that enforces it in test and debug builds.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lcs_rect;
pub mod sweeps;

pub use lcs_rect::LcsRect;
pub use sweeps::{Mode, Sweeps};

// The tests of the two workspaces `sweeps` replaced, under the module
// paths (`ghost::tests::…`, `skew::tests::…`) the repo's test floor is
// keyed by; the modules must sit at the crate root to keep them (each is
// `#[cfg(test)]` in the file).
include!("floor_names.rs");
