//! Kernel-generic multi-load (spatially vectorized) Jacobi steps — the
//! in-tile kernel of the paper's "auto" curves (§2.2, Algorithm 2), one
//! per dimensionality, written against the same kernel adapters as the
//! temporal engines. [`crate::engine::KernelSpace::multiload_step`] is the
//! dimension-free entry point the tiled and plan layers call.
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
use crate::kernels::{Kernel1d, Kernel2d, Kernel3d, Nbhd, Nbhd3};
use tempora_grid::{Grid2, Grid3};
#[cfg(target_arch = "x86_64")]
use tempora_simd::arch::avx2_available;
use tempora_simd::{Pack, Scalar};

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
    pub unsafe fn step_1d<K: Kernel1d>(src: &[f64], dst: &mut [f64], n: usize, kern: &K) {
        step_1d_body(src, dst, n, kern);
    }

    /// [`step_2d`] compiled for AVX2+FMA.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn step_2d<T: Scalar, K: Kernel2d<T>>(src: &Grid2<T>, dst: &mut Grid2<T>, kern: &K) {
        step_2d_body(src, dst, kern);
    }

    /// [`step_3d`] compiled for AVX2+FMA.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn step_3d<K: Kernel3d<f64>>(src: &Grid3<f64>, dst: &mut Grid3<f64>, kern: &K) {
        step_3d_body(src, dst, kern);
    }
}

/// One multi-load (spatially vectorized) Jacobi step on a 1-D buffer:
/// `dst[1..=n]` from `src`, halos untouched. Bit-identical to the
/// `multiload` baseline; callers ping-pong their own buffers, so no step
/// allocates.
pub fn step_1d<K: Kernel1d>(engine: Engine, src: &[f64], dst: &mut [f64], n: usize, kern: &K) {
    match engine {
        #[cfg(target_arch = "x86_64")]
        Engine::Avx2 => {
            assert!(avx2_available(), "AVX2+FMA not available on this CPU");
            // SAFETY: availability asserted above.
            unsafe { avx2::step_1d(src, dst, n, kern) }
        }
        _ => step_1d_body(src, dst, n, kern),
    }
}

#[inline(always)]
fn step_1d_body<K: Kernel1d>(src: &[f64], dst: &mut [f64], n: usize, kern: &K) {
    const N: usize = 4;
    let mut x = 1;
    while x + N <= n + 1 {
        let l = Pack::<f64, N>::load(src, x - 1);
        let m = Pack::<f64, N>::load(src, x);
        let r = Pack::<f64, N>::load(src, x + 1);
        kern.pack(l, m, r).store(dst, x);
        x += N;
    }
    for x in x..=n {
        dst[x] = kern.scalar(0.0, src[x - 1], src[x], src[x + 1]);
    }
}

/// One multi-load Jacobi step on a 2-D buffer grid (vectorized along `y`).
/// Bit-identical to the `multiload` baseline.
pub fn step_2d<T: Scalar, K: Kernel2d<T>>(
    engine: Engine,
    src: &Grid2<T>,
    dst: &mut Grid2<T>,
    kern: &K,
) {
    match engine {
        #[cfg(target_arch = "x86_64")]
        Engine::Avx2 => {
            assert!(avx2_available(), "AVX2+FMA not available on this CPU");
            // SAFETY: availability asserted above.
            unsafe { avx2::step_2d(src, dst, kern) }
        }
        _ => step_2d_body(src, dst, kern),
    }
}

#[inline(always)]
fn step_2d_body<T: Scalar, K: Kernel2d<T>>(src: &Grid2<T>, dst: &mut Grid2<T>, kern: &K) {
    const N: usize = 4;
    let (nx, ny, p) = (src.nx(), src.ny(), src.pitch());
    let a = src.data();
    let b = dst.data_mut();
    let zero = Pack::<T, N>::splat(T::ZERO);
    for x in 1..=nx {
        let r = x * p;
        let rows = [r - p, r, r + p];
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
            kern.pack(Nbhd {
                v,
                new_n: zero,
                new_w: zero,
            })
            .store(b, r + y);
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

/// One multi-load Jacobi step on a 3-D buffer grid (vectorized along `z`).
/// Bit-identical to the `multiload` baseline.
pub fn step_3d<K: Kernel3d<f64>>(engine: Engine, src: &Grid3<f64>, dst: &mut Grid3<f64>, kern: &K) {
    match engine {
        #[cfg(target_arch = "x86_64")]
        Engine::Avx2 => {
            assert!(avx2_available(), "AVX2+FMA not available on this CPU");
            // SAFETY: availability asserted above.
            unsafe { avx2::step_3d(src, dst, kern) }
        }
        _ => step_3d_body(src, dst, kern),
    }
}

#[inline(always)]
fn step_3d_body<K: Kernel3d<f64>>(src: &Grid3<f64>, dst: &mut Grid3<f64>, kern: &K) {
    const N: usize = 4;
    let (nx, ny, nz) = (src.nx(), src.ny(), src.nz());
    let (p, pl) = (src.pitch(), src.plane());
    let a = src.data();
    let b = dst.data_mut();
    let zero = Pack::<f64, N>::splat(0.0);
    for x in 1..=nx {
        for y in 1..=ny {
            let r = x * pl + y * p;
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
                kern.pack(nb).store(b, r + z);
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
                b[r + z] = kern.scalar(nb);
            }
        }
    }
}
