//! # tempora-core — temporal vectorization engines
//!
//! The primary contribution of the reproduced paper ("Temporal
//! Vectorization for Stencils", SC'21): engines that vectorize stencils in
//! the *iteration space*, packing `VL` consecutive time levels into each
//! SIMD register and paying a constant reorganization cost per produced
//! vector regardless of vector length, stencil order and dimensionality.
//!
//! | module | contents |
//! |---|---|
//! | [`engine`] | unified dispatch (portable vs `std::arch` AVX2, `TEMPORA_ENGINE`) and the one [`engine::KernelSpace`] trait every layer above the tile is written against |
//! | [`t1d`] | 1-D Jacobi and Gauss-Seidel engines (Algorithm 3), phase API |
//! | [`t1d_avx2`] | AVX2 tiles (hand-scheduled steady states): Heat-1D, GS-1D |
//! | [`t1d_band`] | skewed (parallelogram) 1-D Gauss-Seidel bands (§3.4) |
//! | [`t2d`] | 2-D outer-loop engine: Heat-2D, 2D9P, Life (`i32×8`), GS-2D |
//! | [`t2d_avx2`] | AVX2 tiles (hand-scheduled steady states): Heat-2D, 2D9P, Life, GS-2D |
//! | [`t2d_band`] / [`t3d_band`] | skewed 2-D/3-D Gauss-Seidel bands |
//! | [`t3d`] | 3-D outer-loop engine: Heat-3D, GS-3D |
//! | [`t3d_avx2`] | AVX2 tiles (hand-scheduled steady states): Heat-3D, GS-3D |
//! | [`lcs`] | the LCS dynamic program as a temporal 1-D stencil (`i32×8`) |
//! | [`lcs_avx2`] | hand-scheduled AVX2 integer steady state for LCS |
//! | [`spatial`] | kernel-generic multi-load steps (the "auto" in-tile kernel) |
//! | [`kernels`] | operand-convention adapters between stencils and engines |
//!
//! The portable 2-D/3-D engines expose the same prologue / steady-state /
//! epilogue three-phase split as the 1-D engine. The boundary phases are
//! one `#[inline(always)]` source: each AVX2 engine instantiates them a
//! second time inside its own `#[target_feature(enable = "avx2,fma")]`
//! tile sandwich, so a whole tile is compiled for the ISA its plan
//! resolved (outside a feature context `f64::mul_add` is a libm call) and
//! stays bit-identical to the scalar oracle; see [`engine`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod kernels;
pub mod lcs;
pub mod lcs_avx2;
pub mod spatial;
pub mod t1d;
pub mod t1d_avx2;
pub mod t1d_band;
pub mod t2d;
pub mod t2d_avx2;
pub mod t2d_band;
pub mod t3d;
pub mod t3d_avx2;
pub mod t3d_band;
