//! Skewed-band (parallelogram) execution of the 2-D Gauss-Seidel engine.
//!
//! The 2-D analogue of [`crate::t1d_band`]: parallelogram tiles lean left
//! along the **outer** dimension `x` (whole `y`-rows move as units), the
//! single in-place array carries the inter-tile staircase, and the
//! temporal vector algebra is unchanged from the rectangular engine
//! [`crate::t2d`] — only the prologue/steady/epilogue row ranges shift.
//!
//! Staircase invariants (per row, identical to the 1-D case): when a tile
//! anchored at rows `[xl, xr]` starts, rows `≥ xl` hold the band-base
//! level, row `xl-k` holds level `k`, and level `k`'s rightmost row read
//! of level `k-1` finds it intact because the windows shrink by one row
//! per level.
//!
//! As in [`crate::t1d_band`] ("One source, two codegen contexts"), the
//! scalar band, the row update and the band prologue/epilogue are
//! `#[inline(always)]` so [`band_temporal_gs2d_avx2`] and
//! [`band_scalar_gs2d_avx2`] instantiate them a second time under
//! `avx2,fma`, where `mul_add` is a `vfmadd` instead of a libm call.

use crate::kernels::{Kernel2d, Nbhd};
use crate::t2d::{pack_rows, unpack_lane};
use tempora_grid::Grid2;
use tempora_simd::Pack;

/// Scalar 2-D Gauss-Seidel row update over one row `x` (columns
/// `1..=ny`), in place: the newest north row, the row itself and the old
/// south row are sliced once, and the serial newest-west chain is carried
/// in a register.
#[inline(always)]
fn gs_row<K: Kernel2d<f64>>(a: &mut [f64], x: usize, ny: usize, p: usize, kern: &K) {
    let w = ny + 2;
    let (above, rest) = a.split_at_mut(x * p);
    let (cur, below) = rest.split_at_mut(p);
    let (north, cur, south) = (&above[(x - 1) * p..][..w], &mut cur[..w], &below[..w]);
    let mut west = cur[0];
    let mut m = cur[1];
    for y in 1..=ny {
        let e = cur[y + 1];
        let o = kern.scalar(Nbhd {
            v: [
                [0.0, 0.0, 0.0], // old north operands unused by GS kernels
                [0.0, m, e],
                [0.0, south[y], 0.0],
            ],
            new_n: north[y],
            new_w: west,
        });
        cur[y] = o;
        west = o;
        m = e;
    }
}

/// One scalar skewed band: advance levels `1..=vl` over row windows
/// `[xl-(k-1), xr-(k-1)] ∩ [1, nx]`, in place.
#[inline(always)]
pub fn band_scalar_gs2d<K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    xl: usize,
    xr: usize,
    vl: usize,
    kern: &K,
) {
    debug_assert!(K::IS_GS);
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    let a = g.data_mut();
    for k in 1..=vl {
        let lo = xl.saturating_sub(k - 1).max(1);
        let hi = (xr + 1).saturating_sub(k).min(nx);
        for x in lo..=hi {
            gs_row(a, x, ny, p, kern);
        }
    }
}

/// One temporally vectorized skewed band (2-D Gauss-Seidel),
/// bit-identical to [`band_scalar_gs2d`]. Edge or narrow tiles fall back
/// to the scalar band.
pub fn band_temporal_gs2d<const VL: usize, K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch2d<VL>,
) {
    debug_assert!(K::IS_GS);
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    let (nx, ny) = (g.nx(), g.ny());
    assert_eq!(sc.ny, ny, "scratch shape mismatch");
    if !crate::t1d_band::vector_band_shape::<VL>(xl, xr, nx, s) {
        band_scalar_gs2d(g, xl, xr, VL, kern);
        return;
    }
    let (x_start, x_max) = band_prologue2d::<VL, K>(g, xl, xr, s, kern, sc);
    band_steady2d::<VL, K>(g, s, kern, sc, x_start, x_max);
    band_epilogue2d::<VL, K>(g, xr, s, kern, sc, x_max);
}

/// Phase 1 of a 2-D temporal band: scalar prologue rows plus the initial
/// ring rows `V(x_start, ·) ..= V(x_start+s, ·)` and the previous output
/// row `O(x_start-1, ·)` in `sc.o_prev`. Returns `(x_start, x_max)`.
/// One source for the portable and AVX2 steady states. Callers must have
/// checked [`crate::t1d_band::vector_band_shape`].
#[inline(always)]
fn band_prologue2d<const VL: usize, K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch2d<VL>,
) -> (usize, usize) {
    let (ny, p) = (g.ny(), g.pitch());
    let bc = g.boundary().value();
    let a = g.data_mut();
    let x_start = xl - (VL - 1);
    let x_max = xr + 1 - VL * s;
    debug_assert!(x_max >= x_start);
    let w = ny + 2;

    // Prologue rows, stashing the row each pass is about to clobber.
    for k in 1..VL {
        sc.saved[k - 1][..w].copy_from_slice(&a[(x_start + (VL - k) * s) * p..][..w]);
        let lo = xl - (k - 1);
        let hi = x_start + (VL - k) * s;
        for x in lo..=hi {
            gs_row(a, x, ny, p, kern);
        }
    }

    // Initial ring rows V(x_start) ..= V(x_start+s) and O(x_start-1, ·):
    // lane i of V(x) is the staircase row x + (VL-1-i)·s, except that the
    // first vector's lower lanes come from the stashed rows.
    let rlen = s + 1;
    let a = &*a;
    let staircase = |x: usize| -> [&[f64]; VL] {
        core::array::from_fn(|i| &a[(x + (VL - 1 - i) * s) * p..][..w])
    };
    for j in 0..=s {
        let x = x_start + j;
        let mut rows = staircase(x);
        if j == 0 {
            for (i, row) in rows.iter_mut().enumerate().take(VL - 1) {
                *row = &sc.saved[i][..w];
            }
        }
        let dst = &mut sc.ring[x % rlen];
        dst[0] = Pack::splat(bc);
        dst[ny + 1] = Pack::splat(bc);
        pack_rows(dst, rows);
    }
    sc.o_prev[0] = Pack::splat(bc);
    sc.o_prev[ny + 1] = Pack::splat(bc);
    pack_rows(&mut sc.o_prev, staircase(x_start - 1));
    (x_start, x_max)
}

/// Portable steady state of a 2-D temporal band (identical to the
/// rectangular engine's inner loop).
fn band_steady2d<const VL: usize, K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    s: usize,
    kern: &K,
    sc: &mut BandScratch2d<VL>,
    x_start: usize,
    x_max: usize,
) {
    let (ny, p) = (g.ny(), g.pitch());
    let bc = g.boundary().value();
    let a = g.data_mut();
    let rlen = s + 1;
    let zero = Pack::<f64, VL>::splat(0.0);
    for x in x_start..=x_max {
        let i0 = x % rlen;
        let ip1 = (x + 1) % rlen;
        let ips = (x + s) % rlen;
        let mut wrow = core::mem::take(&mut sc.ring[ips]);
        {
            let r0 = &sc.ring[i0];
            let rp1 = &sc.ring[ip1];
            let mut o_west = Pack::splat(bc);
            for y in 1..=ny {
                let nb = Nbhd {
                    v: [
                        [zero, zero, zero],
                        [r0[y - 1], r0[y], r0[y + 1]],
                        [zero, rp1[y], zero],
                    ],
                    new_n: sc.o_prev[y],
                    new_w: o_west,
                };
                let o = kern.pack(nb);
                a[x * p + y] = o.top();
                let bottom = a[(x + VL * s) * p + y];
                wrow[y] = o.shift_up_insert(bottom);
                sc.o_cur[y] = o;
                o_west = o;
            }
            // Halo packs of the produced row.
            wrow[0] = Pack::splat(bc);
            wrow[ny + 1] = Pack::splat(bc);
        }
        sc.ring[ips] = wrow;
        core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
        sc.o_cur[0] = Pack::splat(bc);
        sc.o_cur[ny + 1] = Pack::splat(bc);
    }
}

/// Phase 3 of a 2-D temporal band: materialize register-resident levels
/// into the staircase, then finish each level scalar.
#[inline(always)]
fn band_epilogue2d<const VL: usize, K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch2d<VL>,
    x_max: usize,
) {
    let (ny, p) = (g.ny(), g.pitch());
    let a = g.data_mut();
    let w = ny + 2;
    let rlen = s + 1;
    for j in x_max + 1..=x_max + s {
        let src = &sc.ring[j % rlen];
        for i in 1..VL {
            unpack_lane(src, i, &mut a[(j + (VL - 1 - i) * s) * p..][..w]);
        }
    }
    for i in 0..VL - 1 {
        unpack_lane(&sc.o_prev, i, &mut a[(x_max + (VL - 1 - i) * s) * p..][..w]);
    }
    for k in 1..=VL {
        let lo = x_max + (VL - k) * s + 1;
        let hi = xr + 1 - k;
        for x in lo..=hi {
            gs_row(a, x, ny, p, kern);
        }
    }
}

/// One temporally vectorized skewed band (2-D Gauss-Seidel) with the
/// hand-scheduled AVX2 steady state — the same scheduling
/// (`vfmadd231pd`, `vpermpd`, `vblendpd`) as `crate::t2d_avx2`, with the newest-north
/// operand from the previous output row and the newest-west operand from
/// the previous output vector in a register (§3.4). Prologue, epilogue
/// and the scalar fallback of edge or narrow tiles are the source of
/// [`band_temporal_gs2d`], compiled under this band's ISA, so results
/// stay bit-identical to it and to [`band_scalar_gs2d`]. Panics without
/// AVX2+FMA.
#[cfg(target_arch = "x86_64")]
pub fn band_temporal_gs2d_avx2(
    g: &mut Grid2<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &crate::kernels::GsKern2d,
    sc: &mut BandScratch2d<4>,
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    assert!(
        s >= crate::kernels::GsKern2d::MIN_STRIDE,
        "stride {s} illegal for this kernel"
    );
    assert_eq!(sc.ny, g.ny(), "scratch shape mismatch");
    // SAFETY: availability asserted above.
    unsafe { imp::band_gs2d(g, xl, xr, s, kern, sc) }
}

/// [`band_scalar_gs2d`] compiled for AVX2+FMA (scalar bands of a
/// workspace that resolved the AVX2 engine). Panics without AVX2+FMA.
#[cfg(target_arch = "x86_64")]
pub fn band_scalar_gs2d_avx2<K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    xl: usize,
    xr: usize,
    vl: usize,
    kern: &K,
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::band_scalar(g, xl, xr, vl, kern) }
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::{band_epilogue2d, band_prologue2d, band_scalar_gs2d, BandScratch2d, Grid2, Pack};
    use crate::kernels::{GsKern2d, Kernel2d};
    use tempora_simd::arch::avx2;

    /// The sandwich of one AVX2 band — shape check, scalar fallback or
    /// prologue → steady state → epilogue — as **one** AVX2+FMA codegen
    /// context: the `#[inline(always)]` phase functions are instantiated
    /// here, under this fn's features.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn band_gs2d(
        g: &mut Grid2<f64>,
        xl: usize,
        xr: usize,
        s: usize,
        kern: &GsKern2d,
        sc: &mut BandScratch2d<4>,
    ) {
        const VL: usize = 4;
        if !crate::t1d_band::vector_band_shape::<VL>(xl, xr, g.nx(), s) {
            band_scalar_gs2d(g, xl, xr, VL, kern);
            return;
        }
        let (x_start, x_max) = band_prologue2d::<VL, GsKern2d>(g, xl, xr, s, kern, sc);
        // SAFETY: AVX2+FMA availability is this fn's own caller contract.
        unsafe { band_steady_gs2d_avx2(g, s, kern, sc, x_start, x_max) };
        band_epilogue2d::<VL, GsKern2d>(g, xr, s, kern, sc, x_max);
    }

    /// [`band_scalar_gs2d`] instantiated in an AVX2+FMA codegen context.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn band_scalar<K: Kernel2d<f64>>(
        g: &mut Grid2<f64>,
        xl: usize,
        xr: usize,
        vl: usize,
        kern: &K,
    ) {
        band_scalar_gs2d(g, xl, xr, vl, kern);
    }

    /// The AVX2 steady state of one skewed 2-D Gauss-Seidel band:
    /// identical algebra and iteration order to
    /// [`super::band_steady2d`].
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn band_steady_gs2d_avx2(
        g: &mut Grid2<f64>,
        s: usize,
        kern: &GsKern2d,
        sc: &mut BandScratch2d<4>,
        x_start: usize,
        x_max: usize,
    ) {
        const VL: usize = 4;
        let (ny, p) = (g.ny(), g.pitch());
        let bc = g.boundary().value();
        let a = g.data_mut();
        let rlen = s + 1;
        let cn = avx2::splat(kern.0.cn);
        let cw = avx2::splat(kern.0.cw);
        let cc = avx2::splat(kern.0.cc);
        let ce = avx2::splat(kern.0.ce);
        let cs = avx2::splat(kern.0.cs);
        // SAFETY: every unsafe op in the band steady-state loop is an
        // `arch::avx2` vocabulary call whose sole precondition is
        // AVX2/FMA availability — discharged by this fn's own
        // `#[target_feature(enable = "avx2,fma")]` caller contract. All
        // grid and ring accesses use checked slice indexing; the deepest
        // read `a[(x_max + VL·s)·p + y]` is in bounds because the band
        // shape check verified `x_max + VL·s ≤ nx + 1` before dispatch.
        unsafe {
            for x in x_start..=x_max {
                let i0 = x % rlen;
                let ip1 = (x + 1) % rlen;
                let ips = (x + s) % rlen;
                let mut wrow = core::mem::take(&mut sc.ring[ips]);
                {
                    let r0 = &sc.ring[i0];
                    let rp1 = &sc.ring[ip1];
                    let mut o_west = avx2::splat(bc); // O(x, 0): y-boundary
                    let mut m = avx2::from_pack(r0[1]);
                    for y in 1..=ny {
                        let e = avx2::from_pack(r0[y + 1]);
                        let sth = avx2::from_pack(rp1[y]);
                        let n_new = avx2::from_pack(sc.o_prev[y]);
                        // new_n·cn + (new_w·cw + (m·cc + (e·ce + s·cs))),
                        // the same fused tree as Gs2dCoeffs::apply.
                        let o = avx2::fmadd(
                            n_new,
                            cn,
                            avx2::fmadd(
                                o_west,
                                cw,
                                avx2::fmadd(m, cc, avx2::fmadd(e, ce, avx2::mul(sth, cs))),
                            ),
                        );
                        a[x * p + y] = avx2::extract_top(o);
                        let bottom = a[(x + VL * s) * p + y];
                        wrow[y] = avx2::to_pack(avx2::shift_up_insert(o, bottom));
                        sc.o_cur[y] = avx2::to_pack(o);
                        o_west = o;
                        m = e;
                    }
                    wrow[0] = Pack::splat(bc);
                    wrow[ny + 1] = Pack::splat(bc);
                }
                sc.ring[ips] = wrow;
                core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
                sc.o_cur[0] = Pack::splat(bc);
                sc.o_cur[ny + 1] = Pack::splat(bc);
            }
        }
    }
}

/// Scratch for the banded 2-D engine.
pub struct BandScratch2d<const VL: usize> {
    ring: Vec<Vec<Pack<f64, VL>>>,
    o_prev: Vec<Pack<f64, VL>>,
    o_cur: Vec<Pack<f64, VL>>,
    saved: Vec<Vec<f64>>,
    ny: usize,
}

impl<const VL: usize> BandScratch2d<VL> {
    /// Allocate scratch for stride `s` and inner extent `ny`.
    pub fn new(s: usize, ny: usize) -> Self {
        let w = ny + 2;
        BandScratch2d {
            ring: (0..s + 1).map(|_| vec![Pack::splat(0.0); w]).collect(),
            o_prev: vec![Pack::splat(0.0); w],
            o_cur: vec![Pack::splat(0.0); w],
            saved: (0..VL).map(|_| vec![0.0; w]).collect(),
            ny,
        }
    }
}

/// Decompose one band of height `VL` into skewed row-blocks of anchor
/// width `block` and execute them in ascending order.
pub fn band_sweep_gs2d<const VL: usize, K: Kernel2d<f64>>(
    g: &mut Grid2<f64>,
    block: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch2d<VL>,
    temporal: bool,
) {
    let nx = g.nx();
    let span = nx + VL - 1;
    let nblocks = span.div_ceil(block);
    for i in 0..nblocks {
        let xl = i * block + 1;
        let xr = ((i + 1) * block).min(span);
        if temporal {
            band_temporal_gs2d::<VL, K>(g, xl, xr, s, kern, sc);
        } else {
            band_scalar_gs2d(g, xl, xr, VL, kern);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::GsKern2d;
    use tempora_grid::{fill_random_2d, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::Gs2dCoeffs;

    fn run_banded(
        g: &Grid2<f64>,
        kern: &GsKern2d,
        steps: usize,
        block: usize,
        s: usize,
        temporal: bool,
    ) -> Grid2<f64> {
        const VL: usize = 4;
        let mut g = g.clone();
        let mut sc = BandScratch2d::<VL>::new(s, g.ny());
        for _ in 0..steps / VL {
            band_sweep_gs2d::<VL, _>(&mut g, block, s, kern, &mut sc, temporal);
        }
        for _ in 0..steps % VL {
            let (mut ra, mut rb) = (vec![0.0; g.ny() + 2], vec![0.0; g.ny() + 2]);
            crate::t2d::scalar_step_inplace(&mut g, kern, &mut ra, &mut rb);
        }
        g
    }

    #[test]
    fn scalar_banded_sweep_matches_reference() {
        let c = Gs2dCoeffs::classic(0.22);
        let kern = GsKern2d(c);
        for &(nx, ny, block) in &[(30usize, 9usize, 8usize), (48, 17, 16), (25, 6, 25)] {
            let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(0.2));
            fill_random_2d(&mut g, (nx * ny) as u64, -1.0, 1.0);
            let ours = run_banded(&g, &kern, 8, block, 2, false);
            let gold = reference::gs2d(&g, c, 8);
            assert!(
                ours.interior_eq(&gold),
                "nx={nx} block={block} diff {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn temporal_banded_sweep_matches_reference() {
        let c = Gs2dCoeffs::new(0.19, 0.23, 0.21, 0.17, 0.2);
        let kern = GsKern2d(c);
        for &(nx, ny, block, s) in &[
            (128usize, 10usize, 32usize, 2usize),
            (150, 7, 50, 3),
            (96, 16, 48, 2),
        ] {
            let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(-0.4));
            fill_random_2d(&mut g, (nx + ny) as u64, -1.0, 1.0);
            for steps in [4usize, 8, 10] {
                let ours = run_banded(&g, &kern, steps, block, s, true);
                let gold = reference::gs2d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} block={block} s={s} steps={steps} diff {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_band_matches_scalar_oracle_bitwise() {
        if !tempora_simd::arch::avx2_available() {
            return;
        }
        const VL: usize = 4;
        let c = Gs2dCoeffs::new(0.19, 0.23, 0.21, 0.17, 0.2);
        let kern = GsKern2d(c);
        for &(nx, ny, block, s) in &[
            (128usize, 10usize, 32usize, 2usize),
            (150, 7, 50, 3),
            (96, 16, 48, 2),
            (40, 8, 10, 2), // every tile narrow: pure scalar fallback
        ] {
            let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(-0.4));
            fill_random_2d(&mut g, (nx + ny) as u64, -1.0, 1.0);
            for steps in [4usize, 8, 10] {
                let mut ours = g.clone();
                let mut sc = BandScratch2d::<VL>::new(s, ny);
                let span = nx + VL - 1;
                for _ in 0..steps / VL {
                    for i in 0..span.div_ceil(block) {
                        let xl = i * block + 1;
                        let xr = ((i + 1) * block).min(span);
                        band_temporal_gs2d_avx2(&mut ours, xl, xr, s, &kern, &mut sc);
                    }
                }
                for _ in 0..steps % VL {
                    let (mut ra, mut rb) = (vec![0.0; ny + 2], vec![0.0; ny + 2]);
                    crate::t2d::scalar_step_inplace(&mut ours, &kern, &mut ra, &mut rb);
                }
                let gold = reference::gs2d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} block={block} s={s} steps={steps} diff {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn narrow_blocks_fall_back() {
        let c = Gs2dCoeffs::classic(0.15);
        let kern = GsKern2d(c);
        let mut g = Grid2::new(40, 8, 1, Boundary::Dirichlet(0.0));
        fill_random_2d(&mut g, 2, -1.0, 1.0);
        let ours = run_banded(&g, &kern, 8, 10, 2, true);
        let gold = reference::gs2d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
