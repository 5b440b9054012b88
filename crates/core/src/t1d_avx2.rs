//! Hand-scheduled AVX2 (`std::arch`) variants of the 1-D temporal
//! engines (Jacobi *and* Gauss-Seidel).
//!
//! The portable engine in [`crate::t1d`] leaves instruction selection to
//! LLVM; these variants pin the steady state to the exact AVX instruction
//! mix the paper's §3.3 analysis assumes — `vfmadd231pd` for the stencil,
//! one `vpermpd` (lane-crossing rotate) plus one `vblendpd` (in-lane) for
//! the input-vector production. The steady state is written once
//! (`imp::ring_sweep`), for both kernels — Gauss-Seidel feeds the previous
//! *output* vector back as the newest-west operand (§3.4) — and enters at
//! any anchor, so a sweep can be cut into the parts of
//! [`crate::t1d::sweep`]. It is instantiated per stride in
//! [`REGISTER_STRIDES`] with the ring length `s + 1` a constant and the
//! loop unrolled that wide, so every ring slot is a `ymm` register: a
//! produced input vector is first consumed `s - 1` iterations later, and
//! only with the ring in registers does that hop cost the arithmetic's
//! latency alone (§3.3's reason for the stride; README, "Where the time
//! goes in a tile"). The remaining strides run the same function's rolled
//! loop over the ring in memory. All grid access sits behind one hoisted
//! bound, the contract the prologue establishes.
//!
//! Prologue, epilogue and the scalar step are the portable engine's
//! *source* ([`crate::t1d::tile_prologue`] / [`crate::t1d::tile_epilogue`]
//! / [`crate::t1d::scalar_cells`], all `#[inline(always)]`), instantiated
//! a second time inside this module's
//! `#[target_feature(enable = "avx2,fma")]` functions, so the whole sweep
//! is compiled for the ISA the plan resolved. Outside a feature
//! context `f64::mul_add` is a call into libm's `fma`; inside it is one
//! `vfmadd`. Both are the exactly-rounded fused operation, so results
//! stay bit-identical to the portable engine (and therefore to the scalar
//! reference) — do not move a phase back out of the feature context.
//!
//! Use [`crate::engine`] for transparent runtime dispatch.

use crate::kernels::Kernel1d;
use crate::t1d::{self, Scratch1d};
use core::ops::RangeInclusive;

/// Maximum supported space stride of the AVX2 path.
pub const MAX_STRIDE: usize = 15;

/// The strides whose steady state keeps the ring in registers: one
/// instantiation of the unrolled body each (the `match` in
/// `imp::steady_ring`). Every other stride up to [`MAX_STRIDE`] runs the
/// rolled loop over the in-memory ring: same results, under half the speed.
pub const REGISTER_STRIDES: RangeInclusive<usize> = 2..=13;

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::*;
    use crate::t1d::RING_CAP;
    use tempora_simd::arch::avx2::{self, __m256d};
    use tempora_simd::Pack;

    const VL: usize = 4;

    /// The anchors `xs` of one temporal sweep — [`t1d::sweep`] with the
    /// AVX2 steady state: prologue when `xs` starts at anchor 1, epilogue
    /// when it ends at `x_max` — in one AVX2+FMA codegen context.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sweep<K: Kernel1d>(
        a: &mut [f64],
        first: usize,
        n: usize,
        kern: &K,
        s: usize,
        scratch: &mut Scratch1d<4>,
        xs: RangeInclusive<usize>,
    ) {
        assert!((K::MIN_STRIDE..=MAX_STRIDE).contains(&s));
        assert!(n >= VL * s, "n={n} below VL*s: run scalar");
        let x_max = n + 1 - VL * s;
        let (x0, x1) = (*xs.start(), *xs.end());
        if x0 == 1 {
            assert_eq!(first, 0, "the prologue reads from the halo cell");
            // The portable engine's prologue, inlined into this feature
            // context: scalar head triangles plus the initial ring.
            t1d::tile_prologue::<4, K>(a, kern, s, scratch);
        }
        let Scratch1d { ring, o_prev, .. } = scratch;
        // SAFETY: AVX2+FMA availability is this fn's own caller contract.
        *o_prev = unsafe { steady_ring(a, first, kern, s, ring, *o_prev, x0, x1) };
        if x1 == x_max {
            t1d::tile_epilogue::<4, K>(a, first, n, kern, s, scratch, x_max);
        }
    }

    /// The AVX2 steady state over the anchors `x0 ..= x_max`, in place, on
    /// the window `a` that starts at cell `first`: the one dispatch on the
    /// stride. On entry ring slot `j % (s+1)` holds `V(j)` for
    /// `j ∈ x0-1 ..= x0-1+s` and `o_prev` is `O(x0-1)` (read by
    /// Gauss-Seidel only); on exit the same holds for
    /// `j ∈ x_max ..= x_max+s` and `O(x_max)` is returned.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    // Justification: the steady state's operands (window, kernel, stride, ring, carried output vector, anchor range) are its contract; a params struct would sit between the loop and its registers.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn steady_ring<K: Kernel1d>(
        a: &mut [f64],
        first: usize,
        kern: &K,
        s: usize,
        ring: &mut [Pack<f64, 4>; RING_CAP],
        o_prev: Pack<f64, 4>,
        x0: usize,
        x_max: usize,
    ) -> Pack<f64, 4> {
        // SAFETY: availability, every arm's contract, is this fn's own.
        unsafe {
            match s {
                2 => ring_sweep::<3, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                3 => ring_sweep::<4, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                4 => ring_sweep::<5, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                5 => ring_sweep::<6, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                6 => ring_sweep::<7, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                7 => ring_sweep::<8, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                8 => ring_sweep::<9, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                9 => ring_sweep::<10, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                10 => ring_sweep::<11, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                11 => ring_sweep::<12, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                12 => ring_sweep::<13, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                13 => ring_sweep::<14, K>(a, first, kern, s, ring, o_prev, x0, x_max),
                _ => ring_sweep::<0, K>(a, first, kern, s, ring, o_prev, x0, x_max),
            }
        }
    }

    /// The steady-state body, written once. `R = s + 1` is the ring
    /// length as a constant: whole chunks of `R` iterations run unrolled
    /// with the ring in a local `[__m256d; R]` whose every index is a
    /// compile-time constant, so each slot is a `ymm` register —
    /// iteration `x+k` reads `V(x+k-1)`, `V(x+k)`, `V(x+k+1)` from `r[k]`,
    /// `r[(k+1) % R]`, `r[(k+2) % R]` and overwrites the dead `r[k]` with
    /// the `V(x+k+s)` it produces (`x+k+s ≡ x+k-1 mod R`), which leaves
    /// `r[k] = V(x+R-1+k)`: the entry layout of the next chunk. The rolled
    /// loop below it indexes the ring in memory (`V(x-1)`, `V(x)` carried
    /// in registers, indices tracked incrementally) and serves the `< R`
    /// remainder iterations — and, as `R = 0`, the strides outside
    /// [`REGISTER_STRIDES`] from start to end.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    // Justification: as for `steady_ring`, whose arguments these are.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn ring_sweep<const R: usize, K: Kernel1d>(
        a: &mut [f64],
        first: usize,
        kern: &K,
        s: usize,
        ring: &mut [Pack<f64, 4>; RING_CAP],
        o_prev: Pack<f64, 4>,
        x0: usize,
        x_max: usize,
    ) -> Pack<f64, 4> {
        let rlen = s + 1;
        assert!(x0 >= 1 && rlen <= RING_CAP && (R == 0 || R == rlen));
        debug_assert_eq!(R != 0, REGISTER_STRIDES.contains(&s));
        // From here on `a[i]` is cell `x0 + i` and iteration `i` is anchor
        // `x0 + i`. The one bound of the loop: every store `a[i]` and
        // every bottom load `a[i + VL·s]` below has `i < n`. The parts of
        // a sweep establish it (the window of a part reaches from its
        // first anchor to `VL·s` past its last).
        assert!(first <= x0 && x0 <= x_max);
        let a = &mut a[x0 - first..];
        let n = x_max + 1 - x0;
        assert!(n - 1 + VL * s < a.len());
        let (w, c, e) = kern.coeffs();
        let (cw, cc, ce) = (avx2::splat(w), avx2::splat(c), avx2::splat(e));
        let mut o_prev = avx2::from_pack(o_prev);
        // One iteration: `west·w + (v0·c + vp1·e)`, the same fused tree as
        // the scalar oracle `l.mul_add(w, m.mul_add(c, r*e))`; the
        // finished top lane a[t+4][x] is stored, and V(x+s) — vpermpd
        // rotate + vblendpd bottom insert — returned with O(x).
        let step = |a: &mut [f64], i: usize, west: __m256d, v0: __m256d, vp1: __m256d| {
            // SAFETY: AVX2/FMA intrinsics under this fn's availability
            // contract; `i < n` at both call sites, so `i` and `i + VL·s`
            // are in bounds by the hoisted
            // `assert!(n - 1 + VL * s < a.len())` above.
            unsafe {
                let o = avx2::fmadd(west, cw, avx2::fmadd(v0, cc, avx2::mul(vp1, ce)));
                *a.get_unchecked_mut(i) = avx2::extract_top(o);
                (o, avx2::shift_up_insert(o, *a.get_unchecked(i + VL * s)))
            }
        };
        let mut i = 0;
        if R > 0 {
            // Slot of V(x0-1): r[k] = V(x0-1+i+k), and whole chunks leave
            // the rotation as it is.
            let rot = (x0 - 1) % R;
            let mut r = [cw; R];
            for k in 0..R {
                r[k] = avx2::from_pack(ring[(rot + k) % R]);
            }
            while i + R <= n {
                for k in 0..R {
                    let west = if K::IS_GS { o_prev } else { r[k] };
                    (o_prev, r[k]) = step(a, i + k, west, r[(k + 1) % R], r[(k + 2) % R]);
                }
                i += R;
            }
            for k in 0..R {
                ring[(rot + k) % R] = avx2::to_pack(r[k]);
            }
        }
        let ring = &mut ring[..rlen];
        let x = x0 + i;
        let mut im1 = (x - 1) % rlen;
        let mut ip1 = (x + 1) % rlen;
        let mut vm1 = avx2::from_pack(ring[im1]);
        let mut v0 = avx2::from_pack(ring[x % rlen]);
        for i in i..n {
            let vp1 = avx2::from_pack(ring[ip1]);
            let west = if K::IS_GS { o_prev } else { vm1 };
            let v;
            (o_prev, v) = step(a, i, west, v0, vp1);
            // V(x+s) reuses the dead V(x-1) slot ((x+s) ≡ (x-1) mod s+1).
            ring[im1] = avx2::to_pack(v);
            vm1 = v0;
            v0 = vp1;
            im1 = if im1 + 1 == rlen { 0 } else { im1 + 1 };
            ip1 = if ip1 + 1 == rlen { 0 } else { ip1 + 1 };
        }
        avx2::to_pack(o_prev)
    }

    /// [`t1d::scalar_cells`] instantiated in an AVX2+FMA codegen context.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scalar_sweep<K: Kernel1d>(
        a: &mut [f64],
        first: usize,
        kern: &K,
        xs: RangeInclusive<usize>,
        old_west: &mut f64,
    ) {
        t1d::scalar_cells(a, first, kern, xs, old_west);
    }
}

/// The anchors `xs` of one Heat-1D or GS-1D temporal sweep
/// ([`t1d::sweep`]'s contract) compiled for AVX2+FMA end to end: the
/// portable engine's boundary phases instantiated under the sweep's ISA
/// around the hand-scheduled steady state. Panics if AVX2+FMA are
/// unavailable. The layers above reach this through
/// [`crate::engine::KernelSpace`].
#[cfg(target_arch = "x86_64")]
pub fn sweep_avx2<K: Kernel1d>(
    a: &mut [f64],
    first: usize,
    n: usize,
    kern: &K,
    s: usize,
    scratch: &mut Scratch1d<4>,
    xs: RangeInclusive<usize>,
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::sweep(a, first, n, kern, s, scratch, xs) }
}

/// [`t1d::scalar_cells`] compiled for AVX2+FMA (step remainders and scalar
/// sweeps of a plan that resolved the AVX2 engine). Panics if AVX2+FMA are
/// unavailable.
#[cfg(target_arch = "x86_64")]
pub fn scalar_sweep_avx2<K: Kernel1d>(
    a: &mut [f64],
    first: usize,
    kern: &K,
    xs: RangeInclusive<usize>,
    old_west: &mut f64,
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::scalar_sweep(a, first, kern, xs, old_west) }
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
