//! Hand-scheduled AVX2 (`std::arch`) steady states for the 2-D temporal
//! engines: Heat-2D (2D5P Jacobi), 2D9P (box Jacobi), GS-2D and
//! Game-of-Life (integer 2D9P at `vl = 8`).
//!
//! The portable engine in [`crate::t2d`] leaves instruction selection to
//! LLVM; these variants pin the steady state to the instruction mix the
//! paper's §3.3 analysis assumes — `vfmadd231pd` for the f64 stencil
//! updates, a `vpaddd` tree plus the `vpsravd` rule-table bit test for
//! the integer Life update, and one lane-crossing rotate (`vpermpd` /
//! `vpermd`) plus one in-lane blend (`vblendpd` / `vpblendd`) for the
//! input-vector production. The wavefront ring, prologue, epilogue and
//! all boundary handling are the portable engine's *source*
//! ([`crate::t2d::tile_prologue`] / [`crate::t2d::tile_epilogue`],
//! `#[inline(always)]`), instantiated a second time inside this module's
//! `#[target_feature(enable = "avx2,fma")]` tile sandwich — so the whole
//! tile, not just its steady state, is compiled for the ISA the plan
//! resolved. Why it matters: outside a feature context `f64::mul_add` is
//! a call into libm's `fma`, which made the scalar boundary triangles
//! ≈ 20× slower per point than the vector loop they bracket (see the
//! [`crate::t2d`] module docs). A hardware `vfmadd` and libm's `fma` are
//! both the exactly-rounded fused operation, so results stay
//! bit-identical to the portable engine and to the scalar references.
//!
//! Use [`crate::engine`] for transparent runtime dispatch.

#[cfg(target_arch = "x86_64")]
use crate::kernels::Kernel2d;
#[cfg(target_arch = "x86_64")]
use crate::t2d::{self, Scratch2d};
#[cfg(target_arch = "x86_64")]
use tempora_grid::Grid2;
#[cfg(target_arch = "x86_64")]
use tempora_simd::Scalar;

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::*;
    use crate::kernels::{BoxKern2d, GsKern2d, JacobiKern2d, LifeKern2d};
    use tempora_simd::arch::avx2;
    use tempora_simd::arch::avx2::{__m256d, __m256i};

    /// AVX2 steady state of the Heat-2D (2D5P star Jacobi) tile: same
    /// loop structure as [`t2d::tile_steady`], with the west/centre packs
    /// carried in `__m256d` registers between inner iterations.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn steady_heat2d(
        g: &mut Grid2<f64>,
        kern: &JacobiKern2d,
        s: usize,
        sc: &mut Scratch2d<f64, 4>,
        x_max: usize,
    ) {
        const VL: usize = 4;
        let (ny, p) = (g.ny(), g.pitch());
        let rlen = s + 2;
        let a = g.data_mut();
        let cn = avx2::splat(kern.0.cn);
        let cw = avx2::splat(kern.0.cw);
        let cc = avx2::splat(kern.0.cc);
        let ce = avx2::splat(kern.0.ce);
        let cs = avx2::splat(kern.0.cs);
        // SAFETY: every unsafe op in the steady-state loop is an
        // `arch::avx2` vocabulary call whose sole precondition is
        // AVX2/FMA availability — discharged by this fn's own
        // `#[target_feature(enable = "avx2,fma")]` caller contract. All
        // grid and ring accesses use checked slice indexing; the deepest
        // read `a[(x_max + VL·s)·p + y]` is in bounds because the shared
        // prologue established `x_max + VL·s ≤ nx + 1`.
        unsafe {
            for x in 1..=x_max {
                let im1 = (x - 1) % rlen;
                let i0 = x % rlen;
                let ip1 = (x + 1) % rlen;
                let ips = (x + s) % rlen;
                let mut wrow = core::mem::take(&mut sc.ring[ips]);
                {
                    let rm1 = &sc.ring[im1];
                    let r0 = &sc.ring[i0];
                    let rp1 = &sc.ring[ip1];
                    let mut w = avx2::from_pack(r0[0]);
                    let mut m = avx2::from_pack(r0[1]);
                    for y in 1..=ny {
                        let e = avx2::from_pack(r0[y + 1]);
                        let n = avx2::from_pack(rm1[y]);
                        let sth = avx2::from_pack(rp1[y]);
                        // n·cn + (w·cw + (m·cc + (e·ce + s·cs))), the same
                        // fused tree as Heat2dCoeffs::apply.
                        let o = avx2::fmadd(
                            n,
                            cn,
                            avx2::fmadd(
                                w,
                                cw,
                                avx2::fmadd(m, cc, avx2::fmadd(e, ce, avx2::mul(sth, cs))),
                            ),
                        );
                        a[x * p + y] = avx2::extract_top(o);
                        let bottom = a[(x + VL * s) * p + y];
                        wrow[y] = avx2::to_pack(avx2::shift_up_insert(o, bottom));
                        w = m;
                        m = e;
                    }
                }
                sc.ring[ips] = wrow;
            }
        }
    }

    /// AVX2 steady state of the 2D9P (box Jacobi) tile.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn steady_box2d(
        g: &mut Grid2<f64>,
        kern: &BoxKern2d,
        s: usize,
        sc: &mut Scratch2d<f64, 4>,
        x_max: usize,
    ) {
        const VL: usize = 4;
        let (ny, p) = (g.ny(), g.pitch());
        let rlen = s + 2;
        let a = g.data_mut();
        let c: [[__m256d; 3]; 3] =
            core::array::from_fn(|i| core::array::from_fn(|j| avx2::splat(kern.0.c[i][j])));
        // SAFETY: every unsafe op in the steady-state loop is an
        // `arch::avx2` vocabulary call whose sole precondition is
        // AVX2/FMA availability — discharged by this fn's own
        // `#[target_feature(enable = "avx2,fma")]` caller contract. All
        // grid and ring accesses use checked slice indexing; the deepest
        // read `a[(x_max + VL·s)·p + y]` is in bounds because the shared
        // prologue established `x_max + VL·s ≤ nx + 1`.
        unsafe {
            for x in 1..=x_max {
                let im1 = (x - 1) % rlen;
                let i0 = x % rlen;
                let ip1 = (x + 1) % rlen;
                let ips = (x + s) % rlen;
                let mut wrow = core::mem::take(&mut sc.ring[ips]);
                {
                    let rm1 = &sc.ring[im1];
                    let r0 = &sc.ring[i0];
                    let rp1 = &sc.ring[ip1];
                    let mut w = avx2::from_pack(r0[0]);
                    let mut m = avx2::from_pack(r0[1]);
                    for y in 1..=ny {
                        let e = avx2::from_pack(r0[y + 1]);
                        // Row-major 3×3 fused chain, identical to
                        // Box2dCoeffs::apply.
                        let v: [[__m256d; 3]; 3] = [
                            [
                                avx2::from_pack(rm1[y - 1]),
                                avx2::from_pack(rm1[y]),
                                avx2::from_pack(rm1[y + 1]),
                            ],
                            [w, m, e],
                            [
                                avx2::from_pack(rp1[y - 1]),
                                avx2::from_pack(rp1[y]),
                                avx2::from_pack(rp1[y + 1]),
                            ],
                        ];
                        let mut o = avx2::mul(v[2][2], c[2][2]);
                        o = avx2::fmadd(v[2][1], c[2][1], o);
                        o = avx2::fmadd(v[2][0], c[2][0], o);
                        o = avx2::fmadd(v[1][2], c[1][2], o);
                        o = avx2::fmadd(v[1][1], c[1][1], o);
                        o = avx2::fmadd(v[1][0], c[1][0], o);
                        o = avx2::fmadd(v[0][2], c[0][2], o);
                        o = avx2::fmadd(v[0][1], c[0][1], o);
                        o = avx2::fmadd(v[0][0], c[0][0], o);
                        a[x * p + y] = avx2::extract_top(o);
                        let bottom = a[(x + VL * s) * p + y];
                        wrow[y] = avx2::to_pack(avx2::shift_up_insert(o, bottom));
                        w = m;
                        m = e;
                    }
                }
                sc.ring[ips] = wrow;
            }
        }
    }

    /// AVX2 steady state of the GS-2D (2D5P Gauss-Seidel) tile: the
    /// newest-north operand comes from the previous output row
    /// (`sc.o_prev`), the newest-west operand from the previous output
    /// vector carried in a register (§3.4).
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn steady_gs2d(
        g: &mut Grid2<f64>,
        kern: &GsKern2d,
        s: usize,
        sc: &mut Scratch2d<f64, 4>,
        x_max: usize,
    ) {
        const VL: usize = 4;
        let (ny, p) = (g.ny(), g.pitch());
        let bc = g.boundary().value();
        let rlen = s + 2;
        let a = g.data_mut();
        let cn = avx2::splat(kern.0.cn);
        let cw = avx2::splat(kern.0.cw);
        let cc = avx2::splat(kern.0.cc);
        let ce = avx2::splat(kern.0.ce);
        let cs = avx2::splat(kern.0.cs);
        // SAFETY: every unsafe op in the steady-state loop is an
        // `arch::avx2` vocabulary call whose sole precondition is
        // AVX2/FMA availability — discharged by this fn's own
        // `#[target_feature(enable = "avx2,fma")]` caller contract. All
        // grid and ring accesses use checked slice indexing; the deepest
        // read `a[(x_max + VL·s)·p + y]` is in bounds because the shared
        // prologue established `x_max + VL·s ≤ nx + 1`.
        unsafe {
            for x in 1..=x_max {
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
                }
                sc.ring[ips] = wrow;
                core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
            }
        }
    }

    /// AVX2 steady state of the Game-of-Life (integer 2D9P box) tile at
    /// `vl = 8` i32 lanes: the eight neighbour packs are summed with a
    /// `vpaddd` tree and the B/S rule table is applied branch-free as
    /// `(mask >> sum) & 1` — `vpmulld` rule-mask select, `vpsravd`
    /// variable shift — exactly the portable `LifeRule::apply_pack`
    /// arithmetic, lane for lane.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn steady_life2d(
        g: &mut Grid2<i32>,
        kern: &LifeKern2d,
        s: usize,
        sc: &mut Scratch2d<i32, 8>,
        x_max: usize,
    ) {
        const VL: usize = 8;
        let (ny, p) = (g.ny(), g.pitch());
        let rlen = s + 2;
        let a = g.data_mut();
        let birth = avx2::splat_i32(kern.0.birth as i32);
        let delta = avx2::splat_i32(kern.0.survive as i32 - kern.0.birth as i32);
        let one = avx2::splat_i32(1);
        // SAFETY: every unsafe op in the steady-state loop is an
        // `arch::avx2` vocabulary call whose sole precondition is AVX2
        // availability — discharged by this fn's own
        // `#[target_feature(enable = "avx2")]` caller contract. All
        // grid and ring accesses use checked slice indexing; the deepest
        // read `a[(x_max + VL·s)·p + y]` is in bounds because the shared
        // prologue established `x_max + VL·s ≤ nx + 1`.
        unsafe {
            for x in 1..=x_max {
                let im1 = (x - 1) % rlen;
                let i0 = x % rlen;
                let ip1 = (x + 1) % rlen;
                let ips = (x + s) % rlen;
                let mut wrow = core::mem::take(&mut sc.ring[ips]);
                {
                    let rm1 = &sc.ring[im1];
                    let r0 = &sc.ring[i0];
                    let rp1 = &sc.ring[ip1];
                    let mut w = avx2::from_pack_i32(r0[0]);
                    let mut m = avx2::from_pack_i32(r0[1]);
                    for y in 1..=ny {
                        let e = avx2::from_pack_i32(r0[y + 1]);
                        // Neighbour-sum tree over the eight box neighbours
                        // (wrapping adds are associative, so the tree order
                        // is free to maximize ILP while staying bit-identical
                        // to the portable left-to-right sum).
                        let n: [__m256i; 6] = [
                            avx2::from_pack_i32(rm1[y - 1]),
                            avx2::from_pack_i32(rm1[y]),
                            avx2::from_pack_i32(rm1[y + 1]),
                            avx2::from_pack_i32(rp1[y - 1]),
                            avx2::from_pack_i32(rp1[y]),
                            avx2::from_pack_i32(rp1[y + 1]),
                        ];
                        let sum = avx2::add_i32(
                            avx2::add_i32(avx2::add_i32(n[0], n[1]), avx2::add_i32(n[2], n[3])),
                            avx2::add_i32(avx2::add_i32(n[4], n[5]), avx2::add_i32(w, e)),
                        );
                        // Rule table: mask = birth + cur·(survive - birth);
                        // out = (mask >> sum) & 1.
                        let mask = avx2::add_i32(birth, avx2::mullo_i32(m, delta));
                        let o = avx2::and_i32(avx2::srav_i32(mask, sum), one);
                        a[x * p + y] = avx2::extract_top_i32(o);
                        let bottom = a[(x + VL * s) * p + y];
                        wrow[y] = avx2::to_pack_i32(avx2::shift_up_insert_i32(o, bottom));
                        w = m;
                        m = e;
                    }
                }
                sc.ring[ips] = wrow;
            }
        }
    }
    /// The three-phase sandwich of one AVX2 tile — degenerate fallback,
    /// prologue, the given steady state, epilogue — as **one** AVX2+FMA
    /// codegen context: the `#[inline(always)]` phase functions of
    /// [`t2d`] are instantiated here, under this fn's features, so their
    /// `mul_add`s are `vfmadd`s instead of libm calls and their Jacobi
    /// rows vectorize.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`); `steady` may rely on
    /// that guarantee.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_with<T: Scalar, const VL: usize, K: Kernel2d<T>>(
        g: &mut Grid2<T>,
        kern: &K,
        s: usize,
        sc: &mut Scratch2d<T, VL>,
        steady: impl FnOnce(&mut Grid2<T>, &K, usize, &mut Scratch2d<T, VL>, usize),
    ) {
        if t2d::tile_fallback_if_degenerate::<T, VL, K>(g, kern, s, sc) {
            return;
        }
        let x_max = t2d::tile_prologue::<T, VL, K>(g, kern, s, sc);
        steady(g, kern, s, sc, x_max);
        t2d::tile_epilogue::<T, VL, K>(g, kern, s, sc, x_max);
    }

    /// [`t2d::scalar_step_inplace`] instantiated in an AVX2+FMA codegen
    /// context.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scalar_step<T: Scalar, K: Kernel2d<T>>(
        g: &mut Grid2<T>,
        kern: &K,
        row_a: &mut [T],
        row_b: &mut [T],
    ) {
        t2d::scalar_step_inplace(g, kern, row_a, row_b);
    }
}

/// Check AVX2+FMA availability and run one whole tile — boundary phases
/// and the given steady state — in the AVX2 codegen context.
#[cfg(target_arch = "x86_64")]
fn tile_with<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
    steady: impl FnOnce(&mut Grid2<T>, &K, usize, &mut Scratch2d<T, VL>, usize),
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::tile_with(g, kern, s, sc, steady) }
}

/// One Heat-2D temporal tile compiled for AVX2+FMA end to end: the
/// portable engine's boundary phases instantiated under the tile's ISA
/// around the hand-scheduled steady state (degenerate `nx < VL·s` tiles
/// run the scalar schedule, same context). Panics if AVX2+FMA are
/// unavailable. The tiled layer reaches this through
/// [`crate::engine::KernelSpace`].
#[cfg(target_arch = "x86_64")]
pub fn tile_heat2d_avx2(
    g: &mut Grid2<f64>,
    kern: &crate::kernels::JacobiKern2d,
    s: usize,
    sc: &mut Scratch2d<f64, 4>,
) {
    tile_with(g, kern, s, sc, |g, k, s, sc, xm| {
        // SAFETY: tile_with asserted AVX2+FMA availability.
        unsafe { imp::steady_heat2d(g, k, s, sc, xm) }
    });
}

/// One 2D9P (box Jacobi) temporal tile with the AVX2 steady state; see
/// [`tile_heat2d_avx2`].
#[cfg(target_arch = "x86_64")]
pub fn tile_box2d_avx2(
    g: &mut Grid2<f64>,
    kern: &crate::kernels::BoxKern2d,
    s: usize,
    sc: &mut Scratch2d<f64, 4>,
) {
    tile_with(g, kern, s, sc, |g, k, s, sc, xm| {
        // SAFETY: tile_with asserted AVX2+FMA availability.
        unsafe { imp::steady_box2d(g, k, s, sc, xm) }
    });
}

/// One GS-2D temporal tile with the AVX2 steady state; see
/// [`tile_heat2d_avx2`].
#[cfg(target_arch = "x86_64")]
pub fn tile_gs2d_avx2(
    g: &mut Grid2<f64>,
    kern: &crate::kernels::GsKern2d,
    s: usize,
    sc: &mut Scratch2d<f64, 4>,
) {
    tile_with(g, kern, s, sc, |g, k, s, sc, xm| {
        // SAFETY: tile_with asserted AVX2+FMA availability.
        unsafe { imp::steady_gs2d(g, k, s, sc, xm) }
    });
}

/// One Game-of-Life temporal tile with the AVX2 integer steady state
/// (`vl = 8` i32 lanes); see [`tile_heat2d_avx2`] for the three-phase
/// contract. The tiled layer reaches this through
/// [`crate::engine::KernelSpace`].
#[cfg(target_arch = "x86_64")]
pub fn tile_life2d_avx2(
    g: &mut Grid2<i32>,
    kern: &crate::kernels::LifeKern2d,
    s: usize,
    sc: &mut Scratch2d<i32, 8>,
) {
    tile_with(g, kern, s, sc, |g, k, s, sc, xm| {
        // SAFETY: tile_with asserted AVX2+FMA availability.
        unsafe { imp::steady_life2d(g, k, s, sc, xm) }
    });
}

/// [`t2d::scalar_step_inplace`] compiled for AVX2+FMA (step remainders
/// and scalar sweeps of a plan that resolved the AVX2 engine). Panics if
/// AVX2+FMA are unavailable.
#[cfg(target_arch = "x86_64")]
pub fn scalar_step_avx2<T: Scalar, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    row_a: &mut [T],
    row_b: &mut [T],
) {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { imp::scalar_step(g, kern, row_a, row_b) }
}

/// Drive `steps` time steps through whole AVX2 tiles; the `steps mod VL`
/// remainder runs scalar in the same codegen context, exactly like
/// [`t2d::run`].
#[cfg(target_arch = "x86_64")]
fn run_with<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    grid: &Grid2<T>,
    kern: &K,
    steps: usize,
    s: usize,
    tile: impl Fn(&mut Grid2<T>, &K, usize, &mut Scratch2d<T, VL>),
) -> Grid2<T> {
    assert_eq!(grid.halo(), 1, "temporal engines use halo width 1");
    let mut g = grid.clone();
    let mut sc = Scratch2d::<T, VL>::new(s, g.ny());
    for _ in 0..steps / VL {
        tile(&mut g, kern, s, &mut sc);
    }
    for _ in 0..steps % VL {
        scalar_step_avx2(&mut g, kern, &mut sc.row_a, &mut sc.row_b);
    }
    g
}

/// Run `steps` Heat-2D time steps with the AVX2 steady state; panics if
/// AVX2+FMA are unavailable (use [`crate::engine`] for dispatch).
#[cfg(target_arch = "x86_64")]
pub fn run_heat2d_avx2(
    grid: &Grid2<f64>,
    kern: &crate::kernels::JacobiKern2d,
    steps: usize,
    s: usize,
) -> Grid2<f64> {
    run_with(grid, kern, steps, s, tile_heat2d_avx2)
}

/// Run `steps` 2D9P (box Jacobi) time steps with the AVX2 steady state;
/// panics if AVX2+FMA are unavailable (use [`crate::engine`] for
/// dispatch).
#[cfg(target_arch = "x86_64")]
pub fn run_box2d_avx2(
    grid: &Grid2<f64>,
    kern: &crate::kernels::BoxKern2d,
    steps: usize,
    s: usize,
) -> Grid2<f64> {
    run_with(grid, kern, steps, s, tile_box2d_avx2)
}

/// Run `steps` GS-2D time steps with the AVX2 steady state; panics if
/// AVX2+FMA are unavailable (use [`crate::engine`] for dispatch).
#[cfg(target_arch = "x86_64")]
pub fn run_gs2d_avx2(
    grid: &Grid2<f64>,
    kern: &crate::kernels::GsKern2d,
    steps: usize,
    s: usize,
) -> Grid2<f64> {
    run_with(grid, kern, steps, s, tile_gs2d_avx2)
}

/// Run `steps` Game-of-Life time steps with the AVX2 integer steady
/// state (`vl = 8`); panics if AVX2+FMA are unavailable (use
/// [`crate::engine`] for dispatch).
#[cfg(target_arch = "x86_64")]
pub fn run_life2d_avx2(
    grid: &Grid2<i32>,
    kern: &crate::kernels::LifeKern2d,
    steps: usize,
    s: usize,
) -> Grid2<i32> {
    run_with(grid, kern, steps, s, tile_life2d_avx2)
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::kernels::{BoxKern2d, GsKern2d, JacobiKern2d};
    use tempora_grid::{fill_random_2d, Boundary};
    use tempora_simd::arch::avx2_available;
    use tempora_stencil::{reference, Box2dCoeffs, Gs2dCoeffs, Heat2dCoeffs};

    fn grid(nx: usize, ny: usize, seed: u64, b: f64) -> Grid2<f64> {
        let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(b));
        fill_random_2d(&mut g, seed, -1.0, 1.0);
        g
    }

    #[test]
    fn heat2d_avx2_matches_reference_bitwise() {
        if !avx2_available() {
            return;
        }
        let c = Heat2dCoeffs::classic(0.12);
        let kern = JacobiKern2d(c);
        for &(nx, ny) in &[(8usize, 5usize), (17, 12), (33, 9), (40, 40)] {
            for s in 2..=3 {
                for steps in [4usize, 7, 8] {
                    let g = grid(nx, ny, (nx * ny + s + steps) as u64, 0.25);
                    let ours = run_heat2d_avx2(&g, &kern, steps, s);
                    let gold = reference::heat2d(&g, c, steps);
                    assert!(
                        ours.interior_eq(&gold),
                        "nx={nx} ny={ny} s={s} steps={steps} {:?}",
                        ours.first_diff(&gold)
                    );
                    ours.check_canaries().unwrap();
                }
            }
        }
    }

    #[test]
    fn box2d_avx2_matches_reference_bitwise() {
        if !avx2_available() {
            return;
        }
        let c = Box2dCoeffs::new([[0.01, 0.07, 0.03], [0.09, 0.55, 0.08], [0.05, 0.06, 0.06]]);
        let kern = BoxKern2d(c);
        for &(nx, ny) in &[(16usize, 11usize), (25, 16), (33, 8)] {
            let g = grid(nx, ny, 77, 0.1);
            let ours = run_box2d_avx2(&g, &kern, 8, 2);
            let gold = reference::box2d(&g, c, 8);
            assert!(
                ours.interior_eq(&gold),
                "nx={nx} ny={ny} {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn gs2d_avx2_matches_reference_bitwise() {
        if !avx2_available() {
            return;
        }
        let c = Gs2dCoeffs::new(0.31, 0.17, 0.23, 0.11, 0.13);
        let kern = GsKern2d(c);
        for &(nx, ny) in &[(9usize, 6usize), (16, 16), (29, 10), (41, 23)] {
            for steps in [4usize, 7, 12] {
                let g = grid(nx, ny, (nx + ny + steps) as u64, -0.5);
                let ours = run_gs2d_avx2(&g, &kern, steps, 2);
                let gold = reference::gs2d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} steps={steps} {:?}",
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
        let c = Heat2dCoeffs::classic(0.2);
        let kern = JacobiKern2d(c);
        for nx in 1..8 {
            let g = grid(nx, 6, nx as u64, 0.5);
            let ours = run_heat2d_avx2(&g, &kern, 5, 2); // nx < 4·2
            let gold = reference::heat2d(&g, c, 5);
            assert!(ours.interior_eq(&gold), "nx={nx}");
        }
    }

    #[test]
    fn life_avx2_matches_reference_bitwise() {
        if !avx2_available() {
            return;
        }
        use crate::kernels::LifeKern2d;
        use tempora_grid::fill_random_life;
        use tempora_stencil::LifeRule;
        for rule in [LifeRule::b2s23(), LifeRule::conway()] {
            let kern = LifeKern2d(rule);
            for &(nx, ny) in &[(20usize, 16usize), (33, 9), (48, 25)] {
                let mut g = Grid2::<i32>::new(nx, ny, 1, Boundary::Dirichlet(0));
                fill_random_life(&mut g, (nx * ny) as u64, 0.35);
                for s in 2..=3 {
                    for steps in [8usize, 11, 16] {
                        let ours = run_life2d_avx2(&g, &kern, steps, s);
                        let gold = reference::life(&g, rule, steps);
                        assert!(
                            ours.interior_eq(&gold),
                            "nx={nx} ny={ny} s={s} steps={steps} {:?}",
                            ours.first_diff(&gold)
                        );
                        ours.check_canaries().unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn life_avx2_degenerate_grid_falls_back() {
        if !avx2_available() {
            return;
        }
        use crate::kernels::LifeKern2d;
        use tempora_grid::fill_random_life;
        use tempora_stencil::LifeRule;
        let rule = LifeRule::b2s23();
        let kern = LifeKern2d(rule);
        for nx in 1..16 {
            // nx < VL·s = 16: shared scalar fallback.
            let mut g = Grid2::<i32>::new(nx, 10, 1, Boundary::Dirichlet(0));
            fill_random_life(&mut g, nx as u64, 0.4);
            let ours = run_life2d_avx2(&g, &kern, 9, 2);
            let gold = reference::life(&g, rule, 9);
            assert!(ours.interior_eq(&gold), "nx={nx}");
        }
    }
}
