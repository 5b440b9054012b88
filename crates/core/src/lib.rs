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
//! | [`engine`] | unified dispatch (portable vs `std::arch` AVX2 and AVX-512, `TEMPORA_ENGINE`), the one [`engine::KernelSpace`] trait every layer above the tile is written against, and the codegen context of each resolved engine |
//! | [`t1d`] | the one 1-D sweep (Algorithm 3) of Heat-1D, GS-1D and the LCS bands: phases, resumable parts, the engine dispatch, the one ring steady state of the two 3-point kernels on every engine, and the strides whose ring it keeps in registers |
//! | [`slab`] | the 2-D/3-D sweep, written once over a slab shape: resumable three-phase driver (its parts are the §3.4 parallelogram tiles), in-place scalar step, and the per-dimension row updates (Heat-2D, 2D9P, Life at `i32×8`, GS-2D, Heat-3D, GS-3D), one steady row per dimension |
//! | [`lcs`] | the LCS dynamic program as a temporal 1-D stencil (`i32×8`, `i32×16`): its kernel on the 1-D sweep — the band's update, `B`'s lane layout, its ring steady state —, the band sweep entry point (its parts are the block columns of a tiled run), the resolution of an LCS run and the strides whose band ring lives in registers |
//! | [`spatial`] | kernel-generic multi-load steps (the "auto" in-tile kernel) |
//! | [`kernels`] | operand-convention adapters between stencils and engines |
//!
//! Every sweep is the same three phases — a front, the vector steady
//! state, a back (at either end steady iterations whose lanes outside the
//! grid are masked to the boundary value) — and can be cut between any two
//! anchors of its steady state and resumed, which is how `tempora-tiling`
//! pipelines sweeps through one array. The phases — the steady state included, which
//! is generic over the lane vocabulary it computes in
//! ([`tempora_simd::Lanes`]) — are one `#[inline(always)]` source: the
//! portable engine instantiates it for the baseline target with `Packs`,
//! and the AVX2 engine instantiates it a second time with
//! [`tempora_simd::arch::Ymm`] inside that token's codegen sandwich,
//! [`tempora_simd::arch::Ymm::run`] (`#[target_feature(enable =
//! "avx2,fma")]`), the AVX-512 engine a third time with `Zmm` inside
//! [`tempora_simd::arch::Zmm::run`]. Every dispatch in this crate hands
//! `run` an `#[inline(always)]` closure over its phase function, so a
//! whole tile is compiled for the ISA its plan resolved (outside a feature
//! context `f64::mul_add` is a libm call) and stays bit-identical to the
//! scalar oracle; see [`engine`] and [`slab`]. No module here names an
//! intrinsic or enters a feature context itself: of `tempora_simd::arch`
//! they import the two capability probes and the `Ymm` and `Zmm` tokens
//! only.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod kernels;
pub mod lcs;
pub mod slab;
pub mod spatial;
pub mod t1d;

// The entry points of the slab, 1-D and LCS suites under the module paths
// of files that are gone (`t2d::tests::…`, `t1d_avx2::tests::…` and so
// on): the repo's test floor is keyed by those names, and the modules
// must sit at the crate root to keep them (each is `#[cfg(test)]` in the
// file).
include!("floor_names.rs");
