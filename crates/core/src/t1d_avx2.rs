//! The `std::arch` engines of the 1-D temporal sweep — Heat-1D, GS-1D and
//! the LCS bands alike: the codegen sandwiches around [`crate::t1d`], AVX2
//! at four `f64` (eight `i32`) lanes and AVX-512 at eight (sixteen).
//!
//! The sweep — prologue, steady state, epilogue — the scalar step, the
//! kernels' vector formulas and the lane vocabulary they are written in
//! are one `#[inline(always)]` *source*. The portable engine instantiates
//! it for baseline x86-64 with `Packs`; this module instantiates it again
//! inside `#[target_feature(enable = "avx2,fma")]` functions with [`Ymm`],
//! whose methods are the exact AVX instruction mix the paper's §3.3
//! analysis assumes — `vfmadd231pd` for the stencil, one `vpermpd`
//! (lane-crossing rotate) plus one `vblendpd` (in-lane) for the
//! input-vector production; for LCS `vpcmpeqd` with the `B` load folded
//! in, `vpmaxsd`, `vpblendvb`, one `vpermd` plus one `vpblendd` — and
//! with the strides in [`REGISTER_STRIDES`] (LCS:
//! [`crate::lcs_avx2::REGISTER_STRIDES`]) unrolled so that every ring slot
//! is a `ymm` register; and once more inside
//! `#[target_feature(enable = "avx512f,avx2,fma")]` with [`Zmm`] — one
//! `vpermpd zmm` plus one `k`-mask blend per output vector, the same two
//! reorganisations at twice the width (LCS: a `vpcmpeqd` into a mask
//! register, a masked `vpsubd` and one `valignd`) — with the strides in
//! [`ZMM_REGISTER_STRIDES`] in `zmm` registers. So the whole sweep is
//! compiled for the ISA the plan resolved. Outside a feature context
//! `f64::mul_add` is a call into libm's `fma`; inside it is one `vfmadd`.
//! Both are the exactly-rounded fused operation, so results stay
//! bit-identical to the portable engine (and therefore to the scalar
//! reference) — do not move a phase back out of the feature context. The
//! scalar step of an AVX-512 plan runs in the AVX2 sandwich: a scalar
//! `vfmadd` is the same instruction in either.
//!
//! `t1d::sweep` is the one dispatch into them.

use core::ops::RangeInclusive;
#[cfg(target_arch = "x86_64")]
use {
    crate::kernels::Kernel1d,
    crate::t1d::{self, Line, Scratch1d},
    tempora_simd::arch::{Ymm, Zmm},
    tempora_simd::Scalar,
};

/// The strides whose AVX2 steady state keeps the ring in registers: one
/// instantiation of the unrolled body each (the `match` of the 3-point
/// kernels' [`Line::steady`]). Every other stride runs the rolled loop over the
/// in-memory ring: same results, under half the speed.
pub const REGISTER_STRIDES: RangeInclusive<usize> = 2..=13;

/// The strides whose AVX-512 steady state keeps the ring in registers:
/// every stride the ring holds (`t1d::RING_CAP - 1`), since 32 `zmm`
/// registers hold `s + 1 = 17` ring vectors beside the kernel's operands.
pub const ZMM_REGISTER_STRIDES: RangeInclusive<usize> = 2..=16;

/// The anchors `xs` of one 1-D temporal sweep ([`t1d::sweep_body`]'s
/// contract) compiled for AVX2+FMA end to end, for a `kern` that computes
/// in `Ymm`, the proof that AVX2+FMA are available.
#[cfg(target_arch = "x86_64")]
// Justification: `t1d::sweep_body`'s contract, argument for argument.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep<T: Scalar, const VL: usize, const COUNT: bool, K: Line<T, VL>>(
    _isa: Ymm,
    a: &mut [T],
    first: usize,
    n: usize,
    kern: &K,
    s: usize,
    scratch: &mut Scratch1d<T, VL>,
    xs: RangeInclusive<usize>,
) {
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sandwich<T: Scalar, const VL: usize, const COUNT: bool, K: Line<T, VL>>(
        a: &mut [T],
        first: usize,
        n: usize,
        kern: &K,
        s: usize,
        scratch: &mut Scratch1d<T, VL>,
        xs: RangeInclusive<usize>,
    ) {
        t1d::sweep_body::<T, VL, COUNT, true, K>(a, first, n, kern, s, scratch, xs);
    }
    // SAFETY: a `Ymm` exists only where AVX2+FMA are available.
    unsafe { sandwich::<T, VL, COUNT, K>(a, first, n, kern, s, scratch, xs) }
}

/// [`sweep`] at the AVX-512 width: the same anchors contract, compiled for
/// AVX-512F+AVX2+FMA end to end, for a `kern` that computes in `Zmm`, the
/// proof that they are available.
#[cfg(target_arch = "x86_64")]
// Justification: `t1d::sweep_body`'s contract, argument for argument.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_zmm<T: Scalar, const VL: usize, const COUNT: bool, K: Line<T, VL>>(
    _isa: Zmm,
    a: &mut [T],
    first: usize,
    n: usize,
    kern: &K,
    s: usize,
    scratch: &mut Scratch1d<T, VL>,
    xs: RangeInclusive<usize>,
) {
    /// # Safety
    /// Caller must ensure AVX-512F+AVX2+FMA are available
    /// (`tempora_simd::arch::avx512_available()`).
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn sandwich<T: Scalar, const VL: usize, const COUNT: bool, K: Line<T, VL>>(
        a: &mut [T],
        first: usize,
        n: usize,
        kern: &K,
        s: usize,
        scratch: &mut Scratch1d<T, VL>,
        xs: RangeInclusive<usize>,
    ) {
        t1d::sweep_body::<T, VL, COUNT, true, K>(a, first, n, kern, s, scratch, xs);
    }
    // SAFETY: a `Zmm` exists only where AVX-512F+AVX2+FMA are available.
    unsafe { sandwich::<T, VL, COUNT, K>(a, first, n, kern, s, scratch, xs) }
}

/// [`t1d::scalar_cells`] compiled for AVX2+FMA (step remainders and scalar
/// sweeps of a plan that resolved either `std::arch` engine).
#[cfg(target_arch = "x86_64")]
pub(crate) fn scalar_sweep<K: Kernel1d>(
    _isa: Ymm,
    a: &mut [f64],
    first: usize,
    kern: &K,
    xs: RangeInclusive<usize>,
    old_west: &mut f64,
) {
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sandwich<K: Kernel1d>(
        a: &mut [f64],
        first: usize,
        kern: &K,
        xs: RangeInclusive<usize>,
        old_west: &mut f64,
    ) {
        t1d::scalar_cells(a, first, kern, xs, old_west);
    }
    // SAFETY: a `Ymm` exists only where AVX2+FMA are available.
    unsafe { sandwich(a, first, kern, xs, old_west) }
}

#[cfg(test)]
mod tests {
    use super::ZMM_REGISTER_STRIDES;
    use crate::engine::{tests::run_whole, Engine, KernelSpace};
    use crate::kernels::{GsKern1d, JacobiKern1d};
    use tempora_grid::{fill_random_1d, Boundary, Grid1};
    use tempora_stencil::{reference, Gs1dCoeffs, Heat1dCoeffs};

    /// The `std::arch` columns this host runs: AVX2 at `s = 2..=7` and the
    /// steps around its four lanes, AVX-512 at every stride its registers
    /// hold and the steps around eight.
    fn columns() -> Vec<(Engine, Vec<usize>, [usize; 3])> {
        let mut columns = vec![];
        if tempora_simd::arch::avx2_available() {
            columns.push((Engine::Avx2, Vec::from_iter(2..=7), [4, 8, 13]));
        }
        if tempora_simd::arch::avx512_available() {
            columns.push((
                Engine::Avx512,
                Vec::from_iter(ZMM_REGISTER_STRIDES),
                [8, 13, 16],
            ));
        }
        columns
    }

    #[test]
    fn avx2_engine_matches_reference_bitwise() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        for (engine, strides, all_steps) in columns() {
            for &n in &[16usize, 63, 200, 1000] {
                for &s in &strides {
                    for steps in all_steps {
                        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.4));
                        fill_random_1d(&mut g, (n + s + steps) as u64, -1.0, 1.0);
                        let ours = run_whole(engine, &g, &kern, steps, s);
                        let gold = reference::heat1d(&g, c, steps);
                        assert!(
                            ours.interior_eq(&gold),
                            "{engine:?} n={n} s={s} steps={steps} {:?}",
                            ours.first_diff(&gold)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gs1d_avx2_matches_reference_bitwise() {
        let c = Gs1dCoeffs::new(0.4, 0.35, 0.25);
        let kern = GsKern1d(c);
        for (engine, strides, all_steps) in columns() {
            for &n in &[16usize, 63, 200, 777] {
                for &s in &strides {
                    for steps in all_steps {
                        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(-0.3));
                        fill_random_1d(&mut g, (2 * n + s + steps) as u64, -1.0, 1.0);
                        let ours = run_whole(engine, &g, &kern, steps, s);
                        let gold = reference::gs1d(&g, c, steps);
                        assert!(
                            ours.interior_eq(&gold),
                            "{engine:?} n={n} s={s} steps={steps} {:?}",
                            ours.first_diff(&gold)
                        );
                    }
                }
            }
            // Degenerate n < VL·s runs scalar steps, in the engine's
            // codegen context.
            for n in 1..GsKern1d::vl(engine) * 4 {
                let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.1));
                fill_random_1d(&mut g, n as u64, -1.0, 1.0);
                let ours = run_whole(engine, &g, &kern, 8, 4);
                let gold = reference::gs1d(&g, c, 8);
                assert!(ours.interior_eq(&gold), "{engine:?} n={n}");
            }
        }
    }
}
