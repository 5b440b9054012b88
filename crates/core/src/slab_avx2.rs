//! The AVX2 (`std::arch`) engine of the slab tile: the codegen sandwiches
//! around the driver of [`crate::slab`].
//!
//! The driver — ring rotation, prologue, epilogue, scalar steps and the
//! steady rows — is one `#[inline(always)]` *source*, and so are the
//! kernels' vector formulas and the lane vocabulary they are written in
//! ([`tempora_simd::Lanes`]). The portable engine instantiates all of it
//! for baseline x86-64 with rows that compute in `Packs`; this module
//! instantiates it a second time inside
//! `#[target_feature(enable = "avx2,fma")]` functions with rows that
//! compute in [`Ymm`], whose methods are the exact instructions the
//! paper's §3.3 analysis assumes — `vfmadd231pd` for the f64 stencil
//! updates, a `vpaddd` tree plus the `vpsravd` rule-table bit test for
//! the integer Life update, and one lane-crossing rotate (`vpermpd` /
//! `vpermd`) plus one in-lane blend (`vblendpd` / `vpblendd`) per
//! produced input vector, whatever the dimension. So a whole sweep, not
//! just its steady rows, is compiled for the ISA the plan resolved. Why it
//! matters: outside a feature context `f64::mul_add` is a call into
//! libm's `fma`, which made the scalar boundary slabs ≈ 20× slower per
//! point than the vector loop they bracket. A hardware `vfmadd` and
//! libm's `fma` are both the exactly-rounded fused operation, so results
//! stay bit-identical to the portable engine and to the scalar
//! references.
//!
//! Use [`crate::engine`] for transparent runtime dispatch.

#[cfg(target_arch = "x86_64")]
use {
    crate::slab::{self, Rows, Scratch},
    core::ops::RangeInclusive,
    tempora_grid::{SlabLayout, SlabsMut},
    tempora_simd::{arch::Ymm, Scalar},
};

/// [`slab::sweep_body`] compiled for AVX2+FMA end to end — boundary
/// phases and steady rows of a part as one codegen context — for `rows`
/// that compute in `Ymm`, the proof that AVX2+FMA are available.
#[cfg(target_arch = "x86_64")]
pub(crate) fn sweep<T, const VL: usize, const COUNT: bool, R>(
    _isa: Ymm,
    lay: &SlabLayout<T>,
    a: SlabsMut<'_, T>,
    rows: &R,
    xs: RangeInclusive<usize>,
    s: usize,
    sc: &mut Scratch<T, VL>,
) where
    T: Scalar,
    R: Rows<T, VL>,
{
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sandwich<T, const VL: usize, const COUNT: bool, R>(
        lay: &SlabLayout<T>,
        a: SlabsMut<'_, T>,
        rows: &R,
        xs: RangeInclusive<usize>,
        s: usize,
        sc: &mut Scratch<T, VL>,
    ) where
        T: Scalar,
        R: Rows<T, VL>,
    {
        slab::sweep_body::<T, VL, COUNT, R>(lay, a, rows, xs, s, sc);
    }
    // SAFETY: a `Ymm` exists only where AVX2+FMA are available.
    unsafe { sandwich::<T, VL, COUNT, R>(lay, a, rows, xs, s, sc) }
}

/// [`slab::scalar_sweep_body`] compiled for AVX2+FMA (step remainders and
/// scalar sweeps of a plan that resolved the AVX2 engine).
#[cfg(target_arch = "x86_64")]
pub(crate) fn scalar_sweep<T, const VL: usize, R>(
    _isa: Ymm,
    lay: &SlabLayout<T>,
    a: SlabsMut<'_, T>,
    rows: &R,
    xs: RangeInclusive<usize>,
    bufs: &mut [Vec<T>; 2],
) where
    T: Scalar,
    R: Rows<T, VL>,
{
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sandwich<T, const VL: usize, R>(
        lay: &SlabLayout<T>,
        a: SlabsMut<'_, T>,
        rows: &R,
        xs: RangeInclusive<usize>,
        bufs: &mut [Vec<T>; 2],
    ) where
        T: Scalar,
        R: Rows<T, VL>,
    {
        slab::scalar_sweep_body(lay, a, rows, xs, bufs);
    }
    // SAFETY: a `Ymm` exists only where AVX2+FMA are available.
    unsafe { sandwich(lay, a, rows, xs, bufs) }
}
