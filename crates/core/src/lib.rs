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
//! | [`t1d`] | 1-D Jacobi and Gauss-Seidel sweeps (Algorithm 3): phases, resumable parts, and the one ring steady state of both kernels and both engines |
//! | [`t1d_avx2`] | the AVX2 codegen sandwiches around those sweeps, and the strides whose ring they keep in registers |
//! | [`slab`] | the 2-D/3-D sweep, written once over a slab shape: resumable three-phase driver (its parts are the §3.4 parallelogram tiles), in-place scalar step, and the per-dimension row updates (Heat-2D, 2D9P, Life at `i32×8`, GS-2D, Heat-3D, GS-3D), one steady row per dimension |
//! | [`slab_avx2`] | the AVX2 codegen sandwiches around that driver |
//! | [`lcs`] | the LCS dynamic program as a temporal 1-D stencil (`i32×8`): tile phases, the one ring steady state, engine-taking entry points |
//! | [`lcs_avx2`] | the AVX2 codegen sandwich around the LCS tile, and the shape predicate of its dispatch |
//! | [`spatial`] | kernel-generic multi-load steps (the "auto" in-tile kernel) |
//! | [`kernels`] | operand-convention adapters between stencils and engines |
//!
//! Every sweep is the same three phases — scalar prologue, vector steady
//! state, scalar epilogue — and can be cut between any two anchors of its
//! steady state and resumed, which is how `tempora-tiling` pipelines
//! sweeps through one array. The phases — the steady state included, which
//! is generic over the lane vocabulary it computes in
//! ([`tempora_simd::Lanes`]) — are one `#[inline(always)]` source: the
//! portable engine instantiates it for the baseline target with `Packs`,
//! and the AVX2 engine instantiates it a second time with
//! [`tempora_simd::arch::Ymm`] inside a
//! `#[target_feature(enable = "avx2,fma")]` sandwich (one sandwich for all
//! 2-D/3-D kernels, generic over their row updates), so a whole tile is
//! compiled for the ISA its plan resolved (outside a feature context
//! `f64::mul_add` is a libm call) and stays bit-identical to the scalar
//! oracle; see [`engine`] and [`slab`]. No module here names an intrinsic:
//! of `tempora_simd::arch` they import `avx2_available` and the `Ymm`
//! token only.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod kernels;
pub mod lcs;
pub mod lcs_avx2;
pub mod slab;
pub mod slab_avx2;
pub mod spatial;
pub mod t1d;
pub mod t1d_avx2;

// The slab suite's entry points under the module paths of the six files
// `slab` replaced (`t2d::tests::…` and so on): the repo's test floor is
// keyed by those names, and the modules must sit at the crate root to
// keep them (each is `#[cfg(test)]` in the file).
include!("slab_floor_names.rs");
