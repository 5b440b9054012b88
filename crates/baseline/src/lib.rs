//! # tempora-baseline — spatial vectorization baselines
//!
//! Two of the three pre-existing solutions to the data alignment conflict
//! that the paper compares against (§2.2), implemented from scratch:
//!
//! * [`reorg`] — aligned loads + inter-register shuffles;
//! * [`dlt`] — Dimension-Lifting Transpose (Henretty CC'11).
//!
//! The third, multi-load (overlapping unaligned loads, Algorithm 2 — the
//! code shape auto-vectorizing compilers emit, the paper's "auto"
//! curves), is `tempora_core::spatial`: the same sweep parts the tiled
//! executor cuts every other method into, run by `Method::Multiload` for
//! all five Jacobi benchmarks and by `Method::Dlt` on a size DLT cannot
//! lift.
//!
//! None of these applies to Gauss-Seidel stencils — that is the gap the
//! temporal scheme (in `tempora-core`) fills.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dlt;
pub mod reorg;
