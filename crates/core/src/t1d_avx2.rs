//! The AVX2 (`std::arch`) engine of the 1-D temporal sweeps (Jacobi *and*
//! Gauss-Seidel): the codegen sandwiches around [`crate::t1d`].
//!
//! The sweep — prologue, steady state, epilogue — the scalar step, the
//! kernels' vector formulas and the lane vocabulary they are written in
//! are one `#[inline(always)]` *source*. The portable engine instantiates
//! it for baseline x86-64 with `Packs`; this module instantiates it a
//! second time inside `#[target_feature(enable = "avx2,fma")]` functions
//! with [`Ymm`], whose methods are the exact AVX instruction mix the
//! paper's §3.3 analysis assumes — `vfmadd231pd` for the stencil, one
//! `vpermpd` (lane-crossing rotate) plus one `vblendpd` (in-lane) for the
//! input-vector production — and with the strides in [`REGISTER_STRIDES`]
//! unrolled so that every ring slot is a `ymm` register. So the whole
//! sweep is compiled for the ISA the plan resolved. Outside a feature
//! context `f64::mul_add` is a call into libm's `fma`; inside it is one
//! `vfmadd`. Both are the exactly-rounded fused operation, so results
//! stay bit-identical to the portable engine (and therefore to the scalar
//! reference) — do not move a phase back out of the feature context.
//!
//! Use [`crate::engine`] for transparent runtime dispatch.

use core::ops::RangeInclusive;
#[cfg(target_arch = "x86_64")]
use {
    crate::kernels::Kernel1d,
    crate::t1d::{self, Scratch1d},
    tempora_simd::arch::Ymm,
};

/// The strides whose AVX2 steady state keeps the ring in registers: one
/// instantiation of the unrolled body each (the `match` in
/// `t1d::steady_ring`). Every other stride runs the rolled loop over the
/// in-memory ring: same results, under half the speed.
pub const REGISTER_STRIDES: RangeInclusive<usize> = 2..=13;

/// The anchors `xs` of one Heat-1D or GS-1D temporal sweep
/// ([`t1d::sweep_body`]'s contract) compiled for AVX2+FMA end to end, computing
/// in `isa`, the proof that AVX2+FMA are available. The layers above
/// reach this through [`crate::engine::KernelSpace`].
#[cfg(target_arch = "x86_64")]
// Justification: `t1d::sweep_body`'s contract, argument for argument.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep<const COUNT: bool, K: Kernel1d>(
    isa: Ymm,
    a: &mut [f64],
    first: usize,
    n: usize,
    kern: &K,
    s: usize,
    scratch: &mut Scratch1d<4>,
    xs: RangeInclusive<usize>,
) {
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    // Justification: `t1d::sweep_body`'s contract, argument for argument.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sandwich<const COUNT: bool, K: Kernel1d>(
        isa: Ymm,
        a: &mut [f64],
        first: usize,
        n: usize,
        kern: &K,
        s: usize,
        scratch: &mut Scratch1d<4>,
        xs: RangeInclusive<usize>,
    ) {
        t1d::sweep_body::<4, COUNT, true, K, Ymm>(isa, a, first, n, kern, s, scratch, xs);
    }
    // SAFETY: a `Ymm` exists only where AVX2+FMA are available.
    unsafe { sandwich::<COUNT, K>(isa, a, first, n, kern, s, scratch, xs) }
}

/// [`t1d::scalar_cells`] compiled for AVX2+FMA (step remainders and scalar
/// sweeps of a plan that resolved the AVX2 engine).
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
    use crate::engine::{tests::run_whole, Engine};
    use crate::kernels::{GsKern1d, JacobiKern1d};
    use tempora_grid::{fill_random_1d, Boundary, Grid1};
    use tempora_stencil::{reference, Gs1dCoeffs, Heat1dCoeffs};

    #[test]
    fn avx2_engine_matches_reference_bitwise() {
        if !tempora_simd::arch::avx2_available() {
            return;
        }
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        for &n in &[16usize, 63, 200, 1000] {
            for s in 2..=7 {
                for steps in [4usize, 8, 13] {
                    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.4));
                    fill_random_1d(&mut g, (n + s + steps) as u64, -1.0, 1.0);
                    let ours = run_whole(Engine::Avx2, &g, &kern, steps, s);
                    let gold = reference::heat1d(&g, c, steps);
                    assert!(
                        ours.interior_eq(&gold),
                        "n={n} s={s} steps={steps} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
    }

    #[test]
    fn gs1d_avx2_matches_reference_bitwise() {
        if !tempora_simd::arch::avx2_available() {
            return;
        }
        let c = Gs1dCoeffs::new(0.4, 0.35, 0.25);
        let kern = GsKern1d(c);
        for &n in &[16usize, 63, 200, 777] {
            for s in 2..=7 {
                for steps in [4usize, 8, 13] {
                    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(-0.3));
                    fill_random_1d(&mut g, (2 * n + s + steps) as u64, -1.0, 1.0);
                    let ours = run_whole(Engine::Avx2, &g, &kern, steps, s);
                    let gold = reference::gs1d(&g, c, steps);
                    assert!(
                        ours.interior_eq(&gold),
                        "n={n} s={s} steps={steps} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
        // Degenerate n < VL·s falls back to the portable tile.
        for n in 1..=15 {
            let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.1));
            fill_random_1d(&mut g, n as u64, -1.0, 1.0);
            let ours = run_whole(Engine::Avx2, &g, &kern, 8, 4);
            let gold = reference::gs1d(&g, c, 8);
            assert!(ours.interior_eq(&gold), "n={n}");
        }
    }
}
