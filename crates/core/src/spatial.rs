//! Kernel-generic multi-load (spatially vectorized) Jacobi steps — the
//! in-tile kernel of the paper's "auto" curves (§2.2, Algorithm 2), one
//! per dimensionality, written against the same kernel adapters as the
//! temporal engines and, like them, over a range of outer slabs of a
//! window of the buffers, so a step can be cut into parts.
//! [`crate::engine::KernelSpace::multiload_sweep`] is the dimension-free
//! entry point the tiled and plan layers call.
//!
//! Each step takes the [`Engine`] its plan resolved and runs in that
//! codegen context: the bodies are `#[inline(always)]` and instantiated
//! once for baseline x86-64 and once inside a
//! `#[target_feature(enable = "avx2,fma")]` wrapper, where the packs'
//! `mul_add`s are `vfmadd`s instead of four calls into libm's `fma` per
//! vector. This is the comparison the paper is about — a spatial baseline
//! measured through libm calls is not a baseline. Results are
//! bit-identical in both contexts (both fused operations are exactly
//! rounded).

use crate::engine::Engine;
use crate::kernels::{Kernel1d, Kernel3d, Nbhd, Nbhd3, Pack2d};
use core::ops::RangeInclusive;
use tempora_grid::{SlabLayout, Slabs, SlabsMut};
#[cfg(target_arch = "x86_64")]
use tempora_simd::arch::avx2_available;
use tempora_simd::{Pack, Packs, Scalar};

/// The step bodies instantiated in an AVX2+FMA codegen context.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    /// [`step_1d`] compiled for AVX2+FMA.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn step_1d<K: Kernel1d>(
        src: Slabs<'_, f64>,
        dst: SlabsMut<'_, f64>,
        xs: RangeInclusive<usize>,
        kern: &K,
    ) {
        step_1d_body(src, dst, xs, kern);
    }

    /// [`step_2d`] compiled for AVX2+FMA.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn step_2d<T: Scalar, K: Pack2d<T, 4, Packs>>(
        lay: &SlabLayout<T>,
        src: Slabs<'_, T>,
        dst: SlabsMut<'_, T>,
        xs: RangeInclusive<usize>,
        kern: &K,
    ) {
        step_2d_body(lay, src, dst, xs, kern);
    }

    /// [`step_3d`] compiled for AVX2+FMA.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn step_3d<K: Kernel3d>(
        lay: &SlabLayout<f64>,
        src: Slabs<'_, f64>,
        dst: SlabsMut<'_, f64>,
        xs: RangeInclusive<usize>,
        kern: &K,
    ) {
        step_3d_body(lay, src, dst, xs, kern);
    }
}

/// The cells `xs` of one multi-load (spatially vectorized) Jacobi step on
/// 1-D buffers: `dst[xs]` from `src[xs.start() - 1 ..= xs.end() + 1]`,
/// halos untouched. Bit-identical to the `multiload` baseline; callers
/// ping-pong their own buffers, so no step allocates.
pub fn step_1d<K: Kernel1d>(
    engine: Engine,
    src: Slabs<'_, f64>,
    dst: SlabsMut<'_, f64>,
    xs: RangeInclusive<usize>,
    kern: &K,
) {
    match engine {
        #[cfg(target_arch = "x86_64")]
        Engine::Avx2 => {
            assert!(avx2_available(), "AVX2+FMA not available on this CPU");
            // SAFETY: availability asserted above.
            unsafe { avx2::step_1d(src, dst, xs, kern) }
        }
        _ => step_1d_body(src, dst, xs, kern),
    }
}

#[inline(always)]
fn step_1d_body<K: Kernel1d>(
    src: Slabs<'_, f64>,
    dst: SlabsMut<'_, f64>,
    xs: RangeInclusive<usize>,
    kern: &K,
) {
    const N: usize = 4;
    let (a, b) = (src.data, dst.data);
    // a[x - sa] and b[x - sb] are cell x.
    let (sa, sb) = (src.first, dst.first);
    let (mut x, x1) = (*xs.start(), *xs.end());
    while x + N <= x1 + 1 {
        let l = Pack::<f64, N>::load(a, x - 1 - sa);
        let m = Pack::<f64, N>::load(a, x - sa);
        let r = Pack::<f64, N>::load(a, x + 1 - sa);
        kern.pack(Packs, l, m, r).store(b, x - sb);
        x += N;
    }
    for x in x..=x1 {
        b[x - sb] = kern.scalar(0.0, a[x - 1 - sa], a[x - sa], a[x + 1 - sa]);
    }
}

/// The outer slabs `xs` of one multi-load Jacobi step on 2-D buffers laid
/// out as `lay` (vectorized along `y`): `dst[xs]` from
/// `src[xs.start() - 1 ..= xs.end() + 1]`. Bit-identical to the
/// `multiload` baseline.
pub fn step_2d<T: Scalar, K: Pack2d<T, 4, Packs>>(
    engine: Engine,
    lay: &SlabLayout<T>,
    src: Slabs<'_, T>,
    dst: SlabsMut<'_, T>,
    xs: RangeInclusive<usize>,
    kern: &K,
) {
    match engine {
        #[cfg(target_arch = "x86_64")]
        Engine::Avx2 => {
            assert!(avx2_available(), "AVX2+FMA not available on this CPU");
            // SAFETY: availability asserted above.
            unsafe { avx2::step_2d(lay, src, dst, xs, kern) }
        }
        _ => step_2d_body(lay, src, dst, xs, kern),
    }
}

#[inline(always)]
fn step_2d_body<T: Scalar, K: Pack2d<T, 4, Packs>>(
    lay: &SlabLayout<T>,
    src: Slabs<'_, T>,
    dst: SlabsMut<'_, T>,
    xs: RangeInclusive<usize>,
    kern: &K,
) {
    const N: usize = 4;
    let (ny, p) = (lay.shape.width - 2, lay.pitch);
    let (a, b) = (src.data, dst.data);
    let zero = Pack::<T, N>::splat(T::ZERO);
    for x in xs {
        let (ra, r) = ((x - src.first) * p, (x - dst.first) * p);
        let rows = [ra - p, ra, ra + p];
        let mut y = 1;
        while y + N <= ny + 1 {
            let at = |row: usize, d: usize| Pack::<T, N>::load(a, rows[row] + y + d - 1);
            let v = if K::IS_BOX {
                [
                    [at(0, 0), at(0, 1), at(0, 2)],
                    [at(1, 0), at(1, 1), at(1, 2)],
                    [at(2, 0), at(2, 1), at(2, 2)],
                ]
            } else {
                [
                    [zero, at(0, 1), zero],
                    [at(1, 0), at(1, 1), at(1, 2)],
                    [zero, at(2, 1), zero],
                ]
            };
            let nb = Nbhd {
                v,
                new_n: zero,
                new_w: zero,
            };
            kern.pack(Packs, nb).store(b, r + y);
            y += N;
        }
        for y in y..=ny {
            let v = [
                [a[rows[0] + y - 1], a[rows[0] + y], a[rows[0] + y + 1]],
                [a[rows[1] + y - 1], a[rows[1] + y], a[rows[1] + y + 1]],
                [a[rows[2] + y - 1], a[rows[2] + y], a[rows[2] + y + 1]],
            ];
            b[r + y] = kern.scalar(Nbhd {
                v,
                new_n: T::ZERO,
                new_w: T::ZERO,
            });
        }
    }
}

/// The outer slabs `xs` of one multi-load Jacobi step on 3-D buffers laid
/// out as `lay` (vectorized along `z`): `dst[xs]` from
/// `src[xs.start() - 1 ..= xs.end() + 1]`. Bit-identical to the
/// `multiload` baseline.
pub fn step_3d<K: Kernel3d>(
    engine: Engine,
    lay: &SlabLayout<f64>,
    src: Slabs<'_, f64>,
    dst: SlabsMut<'_, f64>,
    xs: RangeInclusive<usize>,
    kern: &K,
) {
    match engine {
        #[cfg(target_arch = "x86_64")]
        Engine::Avx2 => {
            assert!(avx2_available(), "AVX2+FMA not available on this CPU");
            // SAFETY: availability asserted above.
            unsafe { avx2::step_3d(lay, src, dst, xs, kern) }
        }
        _ => step_3d_body(lay, src, dst, xs, kern),
    }
}

#[inline(always)]
fn step_3d_body<K: Kernel3d>(
    lay: &SlabLayout<f64>,
    src: Slabs<'_, f64>,
    dst: SlabsMut<'_, f64>,
    xs: RangeInclusive<usize>,
    kern: &K,
) {
    const N: usize = 4;
    let (ny, nz) = (lay.shape.rows - 2, lay.shape.width - 2);
    let (p, pl) = (lay.pitch, lay.slab);
    let (a, b) = (src.data, dst.data);
    let zero = Pack::<f64, N>::splat(0.0);
    for x in xs {
        for y in 1..=ny {
            // Row (x, y) of the source and of the destination.
            let (r, rb) = ((x - src.first) * pl + y * p, (x - dst.first) * pl + y * p);
            let mut z = 1;
            while z + N <= nz + 1 {
                let nb = Nbhd3 {
                    xm: Pack::<f64, N>::load(a, r - pl + z),
                    ym: Pack::<f64, N>::load(a, r - p + z),
                    zm: Pack::<f64, N>::load(a, r + z - 1),
                    m: Pack::<f64, N>::load(a, r + z),
                    zp: Pack::<f64, N>::load(a, r + z + 1),
                    yp: Pack::<f64, N>::load(a, r + p + z),
                    xp: Pack::<f64, N>::load(a, r + pl + z),
                    new_xm: zero,
                    new_ym: zero,
                    new_zm: zero,
                };
                kern.pack(Packs, nb).store(b, rb + z);
                z += N;
            }
            for z in z..=nz {
                let nb = Nbhd3 {
                    xm: a[r - pl + z],
                    ym: a[r - p + z],
                    zm: a[r + z - 1],
                    m: a[r + z],
                    zp: a[r + z + 1],
                    yp: a[r + p + z],
                    xp: a[r + pl + z],
                    new_xm: 0.0,
                    new_ym: 0.0,
                    new_zm: 0.0,
                };
                b[rb + z] = kern.scalar(nb);
            }
        }
    }
}
