//! Skewed-band (parallelogram) execution of the 3-D Gauss-Seidel engine —
//! [`crate::t1d_band`] with whole `(y, z)` planes as the unit of the
//! outer dimension.
//!
//! As in [`crate::t1d_band`] ("One source, two codegen contexts"), the
//! scalar band, the slab update and the band prologue/epilogue are
//! `#[inline(always)]` so [`band_temporal_gs3d_avx2`] and
//! [`band_scalar_gs3d_avx2`] instantiate them a second time under
//! `avx2,fma`, where `mul_add` is a `vfmadd` instead of a libm call.

use crate::kernels::{Kernel3d, Nbhd3};
use crate::t2d::{pack_rows, unpack_lane};
use crate::t3d::fill_shell;
use tempora_grid::Grid3;
use tempora_simd::Pack;

/// Scalar in-place 3-D Gauss-Seidel update of one slab `x`: per `z`-row
/// the five operand rows are sliced once, and the serial newest-`z-1`
/// chain is carried in a register.
#[inline(always)]
fn gs_slab<K: Kernel3d<f64>>(
    a: &mut [f64],
    x: usize,
    ny: usize,
    nz: usize,
    p: usize,
    pl: usize,
    kern: &K,
) {
    let wz = nz + 2;
    for y in 1..=ny {
        let r = x * pl + y * p;
        let (before, rest) = a.split_at_mut(r);
        let (cur, after) = rest.split_at_mut(p);
        let (new_xm, new_ym) = (&before[r - pl..][..wz], &before[r - p..][..wz]);
        let (cur, yp, xp) = (&mut cur[..wz], &after[..wz], &after[pl - p..][..wz]);
        let mut new_zm = cur[0];
        let mut m = cur[1];
        for z in 1..=nz {
            let zp = cur[z + 1];
            let o = kern.scalar(Nbhd3 {
                xm: 0.0,
                ym: 0.0,
                zm: 0.0,
                m,
                zp,
                yp: yp[z],
                xp: xp[z],
                new_xm: new_xm[z],
                new_ym: new_ym[z],
                new_zm,
            });
            cur[z] = o;
            new_zm = o;
            m = zp;
        }
    }
}

/// One scalar skewed band over slab windows `[xl-(k-1), xr-(k-1)] ∩ [1, nx]`.
#[inline(always)]
pub fn band_scalar_gs3d<K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    xl: usize,
    xr: usize,
    vl: usize,
    kern: &K,
) {
    debug_assert!(K::IS_GS);
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let a = g.data_mut();
    for k in 1..=vl {
        let lo = xl.saturating_sub(k - 1).max(1);
        let hi = (xr + 1).saturating_sub(k).min(nx);
        for x in lo..=hi {
            gs_slab(a, x, ny, nz, p, pl, kern);
        }
    }
}

/// Scratch for the banded 3-D engine.
pub struct BandScratch3d<const VL: usize> {
    ring: Vec<Vec<Pack<f64, VL>>>,
    o_prev: Vec<Pack<f64, VL>>,
    o_cur: Vec<Pack<f64, VL>>,
    saved: Vec<Vec<f64>>,
    ny: usize,
    nz: usize,
}

impl<const VL: usize> BandScratch3d<VL> {
    /// Allocate scratch for stride `s` and inner extents `ny × nz`.
    pub fn new(s: usize, ny: usize, nz: usize) -> Self {
        let wp = (ny + 2) * (nz + 2);
        BandScratch3d {
            ring: (0..s + 1).map(|_| vec![Pack::splat(0.0); wp]).collect(),
            o_prev: vec![Pack::splat(0.0); wp],
            o_cur: vec![Pack::splat(0.0); wp],
            saved: (0..VL).map(|_| vec![0.0; wp]).collect(),
            ny,
            nz,
        }
    }
}

/// One temporally vectorized skewed band (3-D Gauss-Seidel),
/// bit-identical to [`band_scalar_gs3d`]; edge/narrow tiles fall back.
pub fn band_temporal_gs3d<const VL: usize, K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch3d<VL>,
) {
    debug_assert!(K::IS_GS);
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    assert_eq!((sc.ny, sc.nz), (ny, nz), "scratch shape mismatch");
    if !crate::t1d_band::vector_band_shape::<VL>(xl, xr, nx, s) {
        band_scalar_gs3d(g, xl, xr, VL, kern);
        return;
    }
    let (x_start, x_max) = band_prologue3d::<VL, K>(g, xl, xr, s, kern, sc);
    band_steady3d::<VL, K>(g, s, kern, sc, x_start, x_max);
    band_epilogue3d::<VL, K>(g, xr, s, kern, sc, x_max);
}

/// Phase 1 of a 3-D temporal band: scalar prologue slabs plus the initial
/// ring planes and the previous output plane `O(x_start-1, ·, ·)` in
/// `sc.o_prev` (with row 0 of `sc.o_cur` reset to the boundary value — it
/// feeds the first plane's `y = 1` newest-north reads). Returns
/// `(x_start, x_max)`. One source for the portable and AVX2 steady
/// states.
#[inline(always)]
fn band_prologue3d<const VL: usize, K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch3d<VL>,
) -> (usize, usize) {
    let (ny, nz) = (g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let bc = g.boundary().value();
    let a = g.data_mut();
    let x_start = xl - (VL - 1);
    let x_max = xr + 1 - VL * s;
    let wz = nz + 2;

    // Prologue slabs, stashing the slab each pass is about to clobber.
    for k in 1..VL {
        let src = (x_start + (VL - k) * s) * pl;
        let dst = &mut sc.saved[k - 1];
        for y in 0..ny + 2 {
            dst[y * wz..][..wz].copy_from_slice(&a[src + y * p..][..wz]);
        }
        for x in xl - (k - 1)..=x_start + (VL - k) * s {
            gs_slab(a, x, ny, nz, p, pl, kern);
        }
    }

    // Initial ring planes and O(x_start-1): lane i of V(x) is the
    // staircase slab x + (VL-1-i)·s, except that the first vector's lower
    // lanes come from the stashed slabs. Only the halo shell of a ring
    // plane is read before the steady state writes it; of o_prev only the
    // interior is read, of o_cur only row 0.
    let rlen = s + 1;
    let a = &*a;
    let staircase = |x: usize, y: usize| -> [&[f64]; VL] {
        core::array::from_fn(|i| &a[(x + (VL - 1 - i) * s) * pl + y * p..][..wz])
    };
    for j in 0..=s {
        let x = x_start + j;
        let dst = &mut sc.ring[x % rlen];
        fill_shell(dst, ny, wz, Pack::splat(bc));
        for y in 1..=ny {
            let mut rows = staircase(x, y);
            if j == 0 {
                for (i, row) in rows.iter_mut().enumerate().take(VL - 1) {
                    *row = &sc.saved[i][y * wz..][..wz];
                }
            }
            pack_rows(&mut dst[y * wz..][..wz], rows);
        }
    }
    for y in 1..=ny {
        pack_rows(&mut sc.o_prev[y * wz..][..wz], staircase(x_start - 1, y));
    }
    sc.o_cur[..wz].fill(Pack::splat(bc));
    (x_start, x_max)
}

/// Portable steady state of a 3-D temporal band.
fn band_steady3d<const VL: usize, K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    s: usize,
    kern: &K,
    sc: &mut BandScratch3d<VL>,
    x_start: usize,
    x_max: usize,
) {
    let (ny, nz) = (g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let bc = g.boundary().value();
    let a = g.data_mut();
    let wz = nz + 2;
    let lp = |y: usize, z: usize| y * wz + z;
    let rlen = s + 1;
    let zero = Pack::<f64, VL>::splat(0.0);
    for x in x_start..=x_max {
        let i0 = x % rlen;
        let ip1 = (x + 1) % rlen;
        let ips = (x + s) % rlen;
        let mut wplane = core::mem::take(&mut sc.ring[ips]);
        {
            let r0 = &sc.ring[i0];
            let rp1 = &sc.ring[ip1];
            for y in 1..=ny {
                let mut o_z = Pack::splat(bc);
                for z in 1..=nz {
                    let idx = lp(y, z);
                    let nb = Nbhd3 {
                        xm: zero,
                        ym: zero,
                        zm: zero,
                        m: r0[idx],
                        zp: r0[idx + 1],
                        yp: r0[idx + wz],
                        xp: rp1[idx],
                        new_xm: sc.o_prev[idx],
                        new_ym: sc.o_cur[idx - wz],
                        new_zm: o_z,
                    };
                    let o = kern.pack(nb);
                    a[x * pl + y * p + z] = o.top();
                    let bottom = a[(x + VL * s) * pl + y * p + z];
                    wplane[idx] = o.shift_up_insert(bottom);
                    sc.o_cur[idx] = o;
                    o_z = o;
                }
            }
            for z in 0..wz {
                wplane[lp(0, z)] = Pack::splat(bc);
                wplane[lp(ny + 1, z)] = Pack::splat(bc);
            }
            for y in 1..=ny {
                wplane[lp(y, 0)] = Pack::splat(bc);
                wplane[lp(y, nz + 1)] = Pack::splat(bc);
            }
        }
        sc.ring[ips] = wplane;
        core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
        for z in 0..wz {
            sc.o_cur[lp(0, z)] = Pack::splat(bc);
        }
    }
}

/// Phase 3 of a 3-D temporal band: materialize register-resident levels,
/// then finish each level scalar.
#[inline(always)]
fn band_epilogue3d<const VL: usize, K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    xr: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch3d<VL>,
    x_max: usize,
) {
    let (ny, nz) = (g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let a = g.data_mut();
    let wz = nz + 2;
    let rlen = s + 1;
    for j in x_max + 1..=x_max + s {
        let src = &sc.ring[j % rlen];
        for i in 1..VL {
            let slab = (j + (VL - 1 - i) * s) * pl;
            for y in 1..=ny {
                unpack_lane(&src[y * wz..][..wz], i, &mut a[slab + y * p..][..wz]);
            }
        }
    }
    for i in 0..VL - 1 {
        let slab = (x_max + (VL - 1 - i) * s) * pl;
        for y in 1..=ny {
            unpack_lane(&sc.o_prev[y * wz..][..wz], i, &mut a[slab + y * p..][..wz]);
        }
    }
    for k in 1..=VL {
        let lo = x_max + (VL - k) * s + 1;
        let hi = xr + 1 - k;
        for x in lo..=hi {
            gs_slab(a, x, ny, nz, p, pl, kern);
        }
    }
}

/// One temporally vectorized skewed band (3-D Gauss-Seidel) with the
/// hand-scheduled AVX2 steady state — the same scheduling
/// (`vfmadd231pd`, `vpermpd`, `vblendpd`) as `crate::t3d_avx2`, with newest operands
/// from the previous output plane (`x-1`), the output plane being filled
/// (`y-1`) and the previous output register (`z-1`), exactly as in the
/// portable steady state (§3.4). Prologue, epilogue and the scalar
/// fallback of edge or narrow tiles are the source of
/// [`band_temporal_gs3d`], compiled under this band's ISA, so results
/// stay bit-identical to it and to [`band_scalar_gs3d`]. Panics without
/// AVX2+FMA.
#[cfg(target_arch = "x86_64")]
pub fn band_temporal_gs3d_avx2(
    g: &mut Grid3<f64>,
    xl: usize,
    xr: usize,
    s: usize,
    kern: &crate::kernels::GsKern3d,
    sc: &mut BandScratch3d<4>,
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    assert!(
        s >= crate::kernels::GsKern3d::MIN_STRIDE,
        "stride {s} illegal for this kernel"
    );
    assert_eq!((sc.ny, sc.nz), (g.ny(), g.nz()), "scratch shape mismatch");
    // SAFETY: availability asserted above.
    unsafe { imp::band_gs3d(g, xl, xr, s, kern, sc) }
}

/// [`band_scalar_gs3d`] compiled for AVX2+FMA (scalar bands of a
/// workspace that resolved the AVX2 engine). Panics without AVX2+FMA.
#[cfg(target_arch = "x86_64")]
pub fn band_scalar_gs3d_avx2<K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
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
    use super::{band_epilogue3d, band_prologue3d, band_scalar_gs3d, BandScratch3d, Grid3, Pack};
    use crate::kernels::{GsKern3d, Kernel3d};
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
    pub unsafe fn band_gs3d(
        g: &mut Grid3<f64>,
        xl: usize,
        xr: usize,
        s: usize,
        kern: &GsKern3d,
        sc: &mut BandScratch3d<4>,
    ) {
        const VL: usize = 4;
        if !crate::t1d_band::vector_band_shape::<VL>(xl, xr, g.nx(), s) {
            band_scalar_gs3d(g, xl, xr, VL, kern);
            return;
        }
        let (x_start, x_max) = band_prologue3d::<VL, GsKern3d>(g, xl, xr, s, kern, sc);
        // SAFETY: AVX2+FMA availability is this fn's own caller contract.
        unsafe { band_steady_gs3d_avx2(g, s, kern, sc, x_start, x_max) };
        band_epilogue3d::<VL, GsKern3d>(g, xr, s, kern, sc, x_max);
    }

    /// [`band_scalar_gs3d`] instantiated in an AVX2+FMA codegen context.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn band_scalar<K: Kernel3d<f64>>(
        g: &mut Grid3<f64>,
        xl: usize,
        xr: usize,
        vl: usize,
        kern: &K,
    ) {
        band_scalar_gs3d(g, xl, xr, vl, kern);
    }

    /// The AVX2 steady state of one skewed 3-D Gauss-Seidel band:
    /// identical algebra and iteration order to
    /// [`super::band_steady3d`].
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn band_steady_gs3d_avx2(
        g: &mut Grid3<f64>,
        s: usize,
        kern: &GsKern3d,
        sc: &mut BandScratch3d<4>,
        x_start: usize,
        x_max: usize,
    ) {
        const VL: usize = 4;
        let (ny, nz) = (g.ny(), g.nz());
        let (p, pl) = (g.pitch(), g.plane());
        let bc = g.boundary().value();
        let a = g.data_mut();
        let wz = nz + 2;
        let lp = |y: usize, z: usize| y * wz + z;
        let rlen = s + 1;
        let cxm = avx2::splat(kern.0.cxm);
        let cym = avx2::splat(kern.0.cym);
        let czm = avx2::splat(kern.0.czm);
        let cc = avx2::splat(kern.0.cc);
        let czp = avx2::splat(kern.0.czp);
        let cyp = avx2::splat(kern.0.cyp);
        let cxp = avx2::splat(kern.0.cxp);
        // SAFETY: every unsafe op in the band steady-state loop is an
        // `arch::avx2` vocabulary call whose sole precondition is
        // AVX2/FMA availability — discharged by this fn's own
        // `#[target_feature(enable = "avx2,fma")]` caller contract. All
        // grid and ring accesses use checked slice indexing; the deepest
        // read `a[(x_max + VL·s)·pl + …]` is in bounds because the band
        // shape check verified `x_max + VL·s ≤ nx + 1` before dispatch.
        unsafe {
            for x in x_start..=x_max {
                let i0 = x % rlen;
                let ip1 = (x + 1) % rlen;
                let ips = (x + s) % rlen;
                let mut wplane = core::mem::take(&mut sc.ring[ips]);
                {
                    let r0 = &sc.ring[i0];
                    let rp1 = &sc.ring[ip1];
                    for y in 1..=ny {
                        let mut o_z = avx2::splat(bc); // O(x, y, 0): z-boundary
                        let mut m = avx2::from_pack(r0[lp(y, 1)]);
                        for z in 1..=nz {
                            let idx = lp(y, z);
                            let zp = avx2::from_pack(r0[idx + 1]);
                            let yp = avx2::from_pack(r0[idx + wz]);
                            let xp = avx2::from_pack(rp1[idx]);
                            let new_xm = avx2::from_pack(sc.o_prev[idx]);
                            let new_ym = avx2::from_pack(sc.o_cur[idx - wz]);
                            // The same fused tree as Gs3dCoeffs::apply.
                            let o = avx2::fmadd(
                                new_xm,
                                cxm,
                                avx2::fmadd(
                                    new_ym,
                                    cym,
                                    avx2::fmadd(
                                        o_z,
                                        czm,
                                        avx2::fmadd(
                                            m,
                                            cc,
                                            avx2::fmadd(
                                                zp,
                                                czp,
                                                avx2::fmadd(yp, cyp, avx2::mul(xp, cxp)),
                                            ),
                                        ),
                                    ),
                                ),
                            );
                            a[x * pl + y * p + z] = avx2::extract_top(o);
                            let bottom = a[(x + VL * s) * pl + y * p + z];
                            wplane[idx] = avx2::to_pack(avx2::shift_up_insert(o, bottom));
                            sc.o_cur[idx] = avx2::to_pack(o);
                            o_z = o;
                            m = zp;
                        }
                    }
                    for z in 0..wz {
                        wplane[lp(0, z)] = Pack::splat(bc);
                        wplane[lp(ny + 1, z)] = Pack::splat(bc);
                    }
                    for y in 1..=ny {
                        wplane[lp(y, 0)] = Pack::splat(bc);
                        wplane[lp(y, nz + 1)] = Pack::splat(bc);
                    }
                }
                sc.ring[ips] = wplane;
                core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
                for z in 0..wz {
                    sc.o_cur[lp(0, z)] = Pack::splat(bc);
                }
            }
        }
    }
}

/// Decompose one band of height `VL` into skewed slab-blocks and execute
/// them in ascending order.
pub fn band_sweep_gs3d<const VL: usize, K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    block: usize,
    s: usize,
    kern: &K,
    sc: &mut BandScratch3d<VL>,
    temporal: bool,
) {
    let nx = g.nx();
    let span = nx + VL - 1;
    let nblocks = span.div_ceil(block);
    for i in 0..nblocks {
        let xl = i * block + 1;
        let xr = ((i + 1) * block).min(span);
        if temporal {
            band_temporal_gs3d::<VL, K>(g, xl, xr, s, kern, sc);
        } else {
            band_scalar_gs3d(g, xl, xr, VL, kern);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::GsKern3d;
    use tempora_grid::{fill_random_3d, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::Gs3dCoeffs;

    fn run_banded(
        g: &Grid3<f64>,
        kern: &GsKern3d,
        steps: usize,
        block: usize,
        s: usize,
        temporal: bool,
    ) -> Grid3<f64> {
        const VL: usize = 4;
        let mut g = g.clone();
        let mut sc = BandScratch3d::<VL>::new(s, g.ny(), g.nz());
        for _ in 0..steps / VL {
            band_sweep_gs3d::<VL, _>(&mut g, block, s, kern, &mut sc, temporal);
        }
        for _ in 0..steps % VL {
            let wp = (g.ny() + 2) * (g.nz() + 2);
            let (mut pa, mut pb) = (vec![0.0; wp], vec![0.0; wp]);
            crate::t3d::scalar_step_inplace(&mut g, kern, &mut pa, &mut pb);
        }
        g
    }

    #[test]
    fn scalar_banded_sweep_matches_reference() {
        let c = Gs3dCoeffs::classic(0.12);
        let kern = GsKern3d(c);
        for &(nx, block) in &[(20usize, 6usize), (33, 11), (16, 16)] {
            let mut g = Grid3::new(nx, 5, 6, 1, Boundary::Dirichlet(0.3));
            fill_random_3d(&mut g, nx as u64, -1.0, 1.0);
            let ours = run_banded(&g, &kern, 8, block, 2, false);
            let gold = reference::gs3d(&g, c, 8);
            assert!(
                ours.interior_eq(&gold),
                "nx={nx} block={block} diff {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn temporal_banded_sweep_matches_reference() {
        let c = Gs3dCoeffs::new(0.14, 0.11, 0.1, 0.22, 0.09, 0.12, 0.08);
        let kern = GsKern3d(c);
        for &(nx, block, s) in &[(96usize, 32usize, 2usize), (120, 40, 3)] {
            let mut g = Grid3::new(nx, 5, 7, 1, Boundary::Dirichlet(-0.1));
            fill_random_3d(&mut g, (nx + s) as u64, -1.0, 1.0);
            for steps in [4usize, 8] {
                let ours = run_banded(&g, &kern, steps, block, s, true);
                let gold = reference::gs3d(&g, c, steps);
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
        let c = Gs3dCoeffs::new(0.14, 0.11, 0.1, 0.22, 0.09, 0.12, 0.08);
        let kern = GsKern3d(c);
        for &(nx, block, s) in &[
            (96usize, 32usize, 2usize),
            (120, 40, 3),
            (30, 8, 2), // every tile narrow: pure scalar fallback
        ] {
            let mut g = Grid3::new(nx, 5, 7, 1, Boundary::Dirichlet(-0.1));
            fill_random_3d(&mut g, (nx + s) as u64, -1.0, 1.0);
            for steps in [4usize, 8] {
                let mut ours = g.clone();
                let mut sc = BandScratch3d::<VL>::new(s, ours.ny(), ours.nz());
                let span = nx + VL - 1;
                for _ in 0..steps / VL {
                    for i in 0..span.div_ceil(block) {
                        let xl = i * block + 1;
                        let xr = ((i + 1) * block).min(span);
                        band_temporal_gs3d_avx2(&mut ours, xl, xr, s, &kern, &mut sc);
                    }
                }
                for _ in 0..steps % VL {
                    let wp = (ours.ny() + 2) * (ours.nz() + 2);
                    let (mut pa, mut pb) = (vec![0.0; wp], vec![0.0; wp]);
                    crate::t3d::scalar_step_inplace(&mut ours, &kern, &mut pa, &mut pb);
                }
                let gold = reference::gs3d(&g, c, steps);
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
        let c = Gs3dCoeffs::classic(0.1);
        let kern = GsKern3d(c);
        let mut g = Grid3::new(30, 4, 4, 1, Boundary::Dirichlet(0.0));
        fill_random_3d(&mut g, 7, -1.0, 1.0);
        let ours = run_banded(&g, &kern, 8, 8, 2, true);
        let gold = reference::gs3d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
