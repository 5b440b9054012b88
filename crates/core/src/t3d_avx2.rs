//! Hand-scheduled AVX2 (`std::arch`) steady states for the 3-D temporal
//! engines: Heat-3D (3D7P star Jacobi) and GS-3D.
//!
//! Same division of labour as [`crate::t2d_avx2`]: the wavefront-plane
//! ring, prologue, epilogue and boundary handling are the portable
//! engine's *source* ([`crate::t3d::tile_prologue`] /
//! [`crate::t3d::tile_epilogue`], `#[inline(always)]`), instantiated a
//! second time inside this module's
//! `#[target_feature(enable = "avx2,fma")]` tile sandwich, so the whole
//! tile is compiled for the ISA the plan resolved — outside a feature
//! context each of a 3D7P point's seven `mul_add`s is a call into libm's
//! `fma`, which used to make the boundary slabs 77 % of a 40³ tile. Only
//! the steady state is additionally pinned to the paper's §3.3
//! instruction mix (`vfmadd231pd` + one `vpermpd` + one `vblendpd` per
//! produced input vector — the per-point reorganization cost does not
//! grow with dimensionality). A hardware `vfmadd` and libm's `fma` are
//! both exactly rounded, so results stay bit-identical to the portable
//! engine and therefore to the scalar references.
//!
//! Use [`crate::engine`] for transparent runtime dispatch.

#[cfg(target_arch = "x86_64")]
use crate::kernels::Kernel3d;
#[cfg(target_arch = "x86_64")]
use crate::t3d::{self, Scratch3d};
#[cfg(target_arch = "x86_64")]
use tempora_grid::Grid3;

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::*;
    use crate::kernels::{GsKern3d, JacobiKern3d};
    use tempora_simd::arch::avx2;

    /// AVX2 steady state of the Heat-3D (3D7P star Jacobi) tile: same
    /// loop structure as [`t3d::tile_steady`].
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn steady_heat3d(
        g: &mut Grid3<f64>,
        kern: &JacobiKern3d,
        s: usize,
        sc: &mut Scratch3d<f64, 4>,
        x_max: usize,
    ) {
        const VL: usize = 4;
        let (ny, nz) = (g.ny(), g.nz());
        let (p, pl) = (g.pitch(), g.plane());
        let wz = nz + 2;
        let rlen = s + 2;
        let lp = |y: usize, z: usize| y * wz + z;
        let a = g.data_mut();
        let cxm = avx2::splat(kern.0.cxm);
        let cym = avx2::splat(kern.0.cym);
        let czm = avx2::splat(kern.0.czm);
        let cc = avx2::splat(kern.0.cc);
        let czp = avx2::splat(kern.0.czp);
        let cyp = avx2::splat(kern.0.cyp);
        let cxp = avx2::splat(kern.0.cxp);
        // SAFETY: every unsafe op in the steady-state loop is an
        // `arch::avx2` vocabulary call whose sole precondition is
        // AVX2/FMA availability — discharged by this fn's own
        // `#[target_feature(enable = "avx2,fma")]` caller contract. All
        // grid and ring accesses use checked slice indexing; the deepest
        // read `a[(x_max + VL·s)·pl + …]` is in bounds because the
        // shared prologue established `x_max + VL·s ≤ nx + 1`.
        unsafe {
            for x in 1..=x_max {
                let im1 = (x - 1) % rlen;
                let i0 = x % rlen;
                let ip1 = (x + 1) % rlen;
                let ips = (x + s) % rlen;
                let mut wplane = core::mem::take(&mut sc.ring[ips]);
                {
                    let rm1 = &sc.ring[im1];
                    let r0 = &sc.ring[i0];
                    let rp1 = &sc.ring[ip1];
                    for y in 1..=ny {
                        // z-west and centre packs carried in registers.
                        let mut zm = avx2::from_pack(r0[lp(y, 0)]);
                        let mut m = avx2::from_pack(r0[lp(y, 1)]);
                        for z in 1..=nz {
                            let idx = lp(y, z);
                            let zp = avx2::from_pack(r0[idx + 1]);
                            let xm = avx2::from_pack(rm1[idx]);
                            let ym = avx2::from_pack(r0[idx - wz]);
                            let yp = avx2::from_pack(r0[idx + wz]);
                            let xp = avx2::from_pack(rp1[idx]);
                            // The same fused tree as Heat3dCoeffs::apply.
                            let o = avx2::fmadd(
                                xm,
                                cxm,
                                avx2::fmadd(
                                    ym,
                                    cym,
                                    avx2::fmadd(
                                        zm,
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
                            zm = m;
                            m = zp;
                        }
                    }
                }
                sc.ring[ips] = wplane;
            }
        }
    }

    /// AVX2 steady state of the GS-3D (3D7P Gauss-Seidel) tile: newest
    /// operands come from the previous output plane (`x-1`), the current
    /// output plane being filled (`y-1`) and the previous output register
    /// (`z-1`), exactly as in the portable steady state (§3.4).
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn steady_gs3d(
        g: &mut Grid3<f64>,
        kern: &GsKern3d,
        s: usize,
        sc: &mut Scratch3d<f64, 4>,
        x_max: usize,
    ) {
        const VL: usize = 4;
        let (ny, nz) = (g.ny(), g.nz());
        let (p, pl) = (g.pitch(), g.plane());
        let bc = g.boundary().value();
        let wz = nz + 2;
        let rlen = s + 2;
        let lp = |y: usize, z: usize| y * wz + z;
        let a = g.data_mut();
        let cxm = avx2::splat(kern.0.cxm);
        let cym = avx2::splat(kern.0.cym);
        let czm = avx2::splat(kern.0.czm);
        let cc = avx2::splat(kern.0.cc);
        let czp = avx2::splat(kern.0.czp);
        let cyp = avx2::splat(kern.0.cyp);
        let cxp = avx2::splat(kern.0.cxp);
        // SAFETY: every unsafe op in the steady-state loop is an
        // `arch::avx2` vocabulary call whose sole precondition is
        // AVX2/FMA availability — discharged by this fn's own
        // `#[target_feature(enable = "avx2,fma")]` caller contract. All
        // grid and ring accesses use checked slice indexing; the deepest
        // read `a[(x_max + VL·s)·pl + …]` is in bounds because the
        // shared prologue established `x_max + VL·s ≤ nx + 1`.
        unsafe {
            for x in 1..=x_max {
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
                }
                sc.ring[ips] = wplane;
                core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
                // Refresh the halo packs of the new o_cur (the y = 1 reads of
                // the next slab look at row 0).
                for z in 0..wz {
                    sc.o_cur[lp(0, z)] = tempora_simd::Pack::splat(bc);
                }
            }
        }
    }
    /// The three-phase sandwich of one AVX2 tile — degenerate fallback,
    /// prologue, the given steady state, epilogue — as **one** AVX2+FMA
    /// codegen context: the `#[inline(always)]` phase functions of
    /// [`t3d`] are instantiated here, under this fn's features, so their
    /// `mul_add`s are `vfmadd`s instead of libm calls and their Jacobi
    /// rows vectorize.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`); `steady` may rely on
    /// that guarantee.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_with<K: Kernel3d<f64>>(
        g: &mut Grid3<f64>,
        kern: &K,
        s: usize,
        sc: &mut Scratch3d<f64, 4>,
        steady: impl FnOnce(&mut Grid3<f64>, &K, usize, &mut Scratch3d<f64, 4>, usize),
    ) {
        if t3d::tile_fallback_if_degenerate::<f64, 4, K>(g, kern, s, sc) {
            return;
        }
        let x_max = t3d::tile_prologue::<f64, 4, K>(g, kern, s, sc);
        steady(g, kern, s, sc, x_max);
        t3d::tile_epilogue::<f64, 4, K>(g, kern, s, sc, x_max);
    }

    /// [`t3d::scalar_step_inplace`] instantiated in an AVX2+FMA codegen
    /// context.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scalar_step<K: Kernel3d<f64>>(
        g: &mut Grid3<f64>,
        kern: &K,
        plane_a: &mut [f64],
        plane_b: &mut [f64],
    ) {
        t3d::scalar_step_inplace(g, kern, plane_a, plane_b);
    }
}

/// Check AVX2+FMA availability and run one whole tile — boundary phases
/// and the given steady state — in the AVX2 codegen context.
#[cfg(target_arch = "x86_64")]
fn tile_with<K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<f64, 4>,
    steady: impl FnOnce(&mut Grid3<f64>, &K, usize, &mut Scratch3d<f64, 4>, usize),
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::tile_with(g, kern, s, sc, steady) }
}

/// One Heat-3D temporal tile compiled for AVX2+FMA end to end: the
/// portable engine's boundary phases instantiated under the tile's ISA
/// around the hand-scheduled steady state (degenerate `nx < VL·s` tiles
/// run the scalar schedule, same context). Panics if AVX2+FMA are
/// unavailable. The tiled layer reaches this through
/// [`crate::engine::KernelSpace`].
#[cfg(target_arch = "x86_64")]
pub fn tile_heat3d_avx2(
    g: &mut Grid3<f64>,
    kern: &crate::kernels::JacobiKern3d,
    s: usize,
    sc: &mut Scratch3d<f64, 4>,
) {
    tile_with(g, kern, s, sc, |g, k, s, sc, xm| {
        // SAFETY: tile_with asserted AVX2+FMA availability.
        unsafe { imp::steady_heat3d(g, k, s, sc, xm) }
    });
}

/// One GS-3D temporal tile with the AVX2 steady state; see
/// [`tile_heat3d_avx2`].
#[cfg(target_arch = "x86_64")]
pub fn tile_gs3d_avx2(
    g: &mut Grid3<f64>,
    kern: &crate::kernels::GsKern3d,
    s: usize,
    sc: &mut Scratch3d<f64, 4>,
) {
    tile_with(g, kern, s, sc, |g, k, s, sc, xm| {
        // SAFETY: tile_with asserted AVX2+FMA availability.
        unsafe { imp::steady_gs3d(g, k, s, sc, xm) }
    });
}

/// [`t3d::scalar_step_inplace`] compiled for AVX2+FMA (step remainders
/// and scalar sweeps of a plan that resolved the AVX2 engine). Panics if
/// AVX2+FMA are unavailable.
#[cfg(target_arch = "x86_64")]
pub fn scalar_step_avx2<K: Kernel3d<f64>>(
    g: &mut Grid3<f64>,
    kern: &K,
    plane_a: &mut [f64],
    plane_b: &mut [f64],
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::scalar_step(g, kern, plane_a, plane_b) }
}

/// Drive `steps` time steps through whole AVX2 tiles; the `steps mod 4`
/// remainder runs scalar in the same codegen context, exactly like
/// [`t3d::run`].
#[cfg(target_arch = "x86_64")]
fn run_with<K: Kernel3d<f64>>(
    grid: &Grid3<f64>,
    kern: &K,
    steps: usize,
    s: usize,
    tile: impl Fn(&mut Grid3<f64>, &K, usize, &mut Scratch3d<f64, 4>),
) -> Grid3<f64> {
    assert_eq!(grid.halo(), 1, "temporal engines use halo width 1");
    let mut g = grid.clone();
    let mut sc = Scratch3d::<f64, 4>::new(s, g.ny(), g.nz());
    for _ in 0..steps / 4 {
        tile(&mut g, kern, s, &mut sc);
    }
    for _ in 0..steps % 4 {
        scalar_step_avx2(&mut g, kern, &mut sc.plane_a, &mut sc.plane_b);
    }
    g
}

/// Run `steps` Heat-3D time steps with the AVX2 steady state; panics if
/// AVX2+FMA are unavailable (use [`crate::engine`] for dispatch).
#[cfg(target_arch = "x86_64")]
pub fn run_heat3d_avx2(
    grid: &Grid3<f64>,
    kern: &crate::kernels::JacobiKern3d,
    steps: usize,
    s: usize,
) -> Grid3<f64> {
    run_with(grid, kern, steps, s, tile_heat3d_avx2)
}

/// Run `steps` GS-3D time steps with the AVX2 steady state; panics if
/// AVX2+FMA are unavailable (use [`crate::engine`] for dispatch).
#[cfg(target_arch = "x86_64")]
pub fn run_gs3d_avx2(
    grid: &Grid3<f64>,
    kern: &crate::kernels::GsKern3d,
    steps: usize,
    s: usize,
) -> Grid3<f64> {
    run_with(grid, kern, steps, s, tile_gs3d_avx2)
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::kernels::{GsKern3d, JacobiKern3d};
    use tempora_grid::{fill_random_3d, Boundary};
    use tempora_simd::arch::avx2_available;
    use tempora_stencil::{reference, Gs3dCoeffs, Heat3dCoeffs};

    fn grid(nx: usize, ny: usize, nz: usize, seed: u64, b: f64) -> Grid3<f64> {
        let mut g = Grid3::new(nx, ny, nz, 1, Boundary::Dirichlet(b));
        fill_random_3d(&mut g, seed, -1.0, 1.0);
        g
    }

    #[test]
    fn heat3d_avx2_matches_reference_bitwise() {
        if !avx2_available() {
            return;
        }
        let c = Heat3dCoeffs::classic(0.11);
        let kern = JacobiKern3d(c);
        for &(nx, ny, nz) in &[(9usize, 5usize, 6usize), (16, 8, 7), (21, 6, 11)] {
            for steps in [4usize, 7, 8] {
                let g = grid(nx, ny, nz, (nx * ny * nz + steps) as u64, 0.3);
                let ours = run_heat3d_avx2(&g, &kern, steps, 2);
                let gold = reference::heat3d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} nz={nz} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
                ours.check_canaries().unwrap();
            }
        }
    }

    #[test]
    fn gs3d_avx2_matches_reference_bitwise() {
        if !avx2_available() {
            return;
        }
        let c = Gs3dCoeffs::new(0.21, 0.13, 0.08, 0.3, 0.09, 0.11, 0.07);
        let kern = GsKern3d(c);
        for &(nx, ny, nz) in &[(9usize, 4usize, 5usize), (17, 7, 6), (26, 6, 7)] {
            for steps in [4usize, 8, 9] {
                let g = grid(nx, ny, nz, (nx + ny + nz + steps) as u64, 0.1);
                let ours = run_gs3d_avx2(&g, &kern, steps, 2);
                let gold = reference::gs3d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} nz={nz} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn degenerate_outer_extent_falls_back() {
        if !avx2_available() {
            return;
        }
        let c = Heat3dCoeffs::classic(0.15);
        let kern = JacobiKern3d(c);
        let g = grid(5, 6, 6, 3, 0.0); // nx < 4·2
        let ours = run_heat3d_avx2(&g, &kern, 6, 2);
        let gold = reference::heat3d(&g, c, 6);
        assert!(ours.interior_eq(&gold));
    }
}
