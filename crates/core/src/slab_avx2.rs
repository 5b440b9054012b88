//! The AVX2 (`std::arch`) engine of the slab tile: one codegen sandwich
//! around the driver of [`crate::slab`], and one hand-scheduled steady
//! row per kernel — Heat-2D (2D5P Jacobi), 2D9P (box Jacobi), GS-2D,
//! Game-of-Life (integer 2D9P at `vl = 8`), Heat-3D (3D7P) and GS-3D.
//!
//! The portable rows leave instruction selection to LLVM; the rows here
//! pin the steady state to the instruction mix the paper's §3.3 analysis
//! assumes — `vfmadd231pd` for the f64 stencil updates, a `vpaddd` tree
//! plus the `vpsravd` rule-table bit test for the integer Life update,
//! and one lane-crossing rotate (`vpermpd` / `vpermd`) plus one in-lane
//! blend (`vblendpd` / `vpblendd`) per produced input vector, whatever
//! the dimension. Everything else — ring rotation, prologue, epilogue,
//! scalar steps — is the driver's *source* (`#[inline(always)]`),
//! instantiated a second time inside this module's
//! `#[target_feature(enable = "avx2,fma")]` sandwiches, so a whole sweep,
//! not just its steady rows, is compiled for the ISA the plan resolved.
//! Why it matters: outside a feature context `f64::mul_add` is a call
//! into libm's `fma`, which made the scalar boundary slabs ≈ 20× slower
//! per point than the vector loop they bracket. A hardware `vfmadd` and
//! libm's `fma` are both the exactly-rounded fused operation, so results
//! stay bit-identical to the portable engine and to the scalar
//! references.
//!
//! Use [`crate::engine`] for transparent runtime dispatch.

use crate::kernels::{BoxKern2d, GsKern2d, GsKern3d, JacobiKern2d, JacobiKern3d, LifeKern2d};
use crate::slab::{Rows, Rows2, Rows3, SteadyRow};
use tempora_simd::Scalar;

#[cfg(target_arch = "x86_64")]
use crate::slab::{self, Geo, Scratch, SweepRow};
#[cfg(target_arch = "x86_64")]
use core::ops::RangeInclusive;
#[cfg(target_arch = "x86_64")]
use tempora_simd::arch::avx2::{self, __m256d, __m256i};

/// Rows with a hand-scheduled AVX2 steady row. Off x86-64 the trait is an
/// empty marker and every engine value runs the portable rows.
pub(crate) trait Avx2Row<T: Scalar, const VL: usize>: Rows<T, VL> {
    /// [`Rows::steady_row`] pinned to the paper's instruction mix; same
    /// algebra, same iteration order, bit-identical results.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[cfg(target_arch = "x86_64")]
    unsafe fn steady_row_avx2(&self, row: SteadyRow<'_, T, VL>);
}

/// Rows `R` with the steady row swapped for its AVX2 body. Constructed
/// only by this module's sandwiches, whose caller contract is AVX2+FMA
/// availability — which is what makes the safe [`Rows::steady_row`] below
/// sound.
#[cfg(target_arch = "x86_64")]
struct Avx2<'r, R>(&'r R);

#[cfg(target_arch = "x86_64")]
impl<T: Scalar, const VL: usize, R: Avx2Row<T, VL>> Rows<T, VL> for Avx2<'_, R> {
    const IS_GS: bool = R::IS_GS;
    const MIN_STRIDE: usize = R::MIN_STRIDE;

    #[inline(always)]
    fn sweep_row(&self, row: SweepRow<'_, T>) {
        self.0.sweep_row(row);
    }

    /// The AVX2 rows are not instrumented: `COUNT` is ignored.
    #[inline(always)]
    fn steady_row<const COUNT: bool>(&self, row: SteadyRow<'_, T, VL>) {
        // SAFETY: an `Avx2` exists only inside the sandwiches below, which
        // run under their callers' AVX2+FMA availability guarantee.
        unsafe { self.0.steady_row_avx2(row) }
    }
}

#[cfg(target_arch = "x86_64")]
fn assert_available() {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
}

/// [`slab::sweep_body`] compiled for AVX2+FMA end to end — boundary
/// phases and the hand-scheduled steady rows of a part as one codegen
/// context. Panics if AVX2+FMA are unavailable.
#[cfg(target_arch = "x86_64")]
pub(crate) fn sweep<T, const VL: usize, R>(
    a: &mut [T],
    geo: Geo<T>,
    rows: &R,
    s: usize,
    sc: &mut Scratch<T, VL>,
    xs: RangeInclusive<usize>,
) where
    T: Scalar,
    R: Avx2Row<T, VL>,
{
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sandwich<T, const VL: usize, R>(
        a: &mut [T],
        geo: Geo<T>,
        rows: &R,
        s: usize,
        sc: &mut Scratch<T, VL>,
        xs: RangeInclusive<usize>,
    ) where
        T: Scalar,
        R: Avx2Row<T, VL>,
    {
        slab::sweep_body::<T, VL, false, _>(a, geo, &Avx2(rows), s, sc, xs);
    }
    assert_available();
    // SAFETY: availability asserted above.
    unsafe { sandwich(a, geo, rows, s, sc, xs) }
}

/// [`slab::scalar_sweep_body`] compiled for AVX2+FMA (step remainders and
/// scalar sweeps of a plan that resolved the AVX2 engine). Panics if
/// AVX2+FMA are unavailable.
#[cfg(target_arch = "x86_64")]
pub(crate) fn scalar_sweep<T, const VL: usize, R>(
    a: &mut [T],
    geo: Geo<T>,
    rows: &R,
    bufs: &mut [Vec<T>; 2],
    xs: RangeInclusive<usize>,
) where
    T: Scalar,
    R: Avx2Row<T, VL>,
{
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sandwich<T, const VL: usize, R>(
        a: &mut [T],
        geo: Geo<T>,
        rows: &R,
        bufs: &mut [Vec<T>; 2],
        xs: RangeInclusive<usize>,
    ) where
        T: Scalar,
        R: Avx2Row<T, VL>,
    {
        slab::scalar_sweep_body(a, geo, &Avx2(rows), bufs, xs);
    }
    assert_available();
    // SAFETY: availability asserted above.
    unsafe { sandwich(a, geo, rows, bufs, xs) }
}

// ---------------------------------------------------------------------
// The six steady rows
// ---------------------------------------------------------------------
//
// SAFETY argument shared by the `unsafe` blocks below: every unsafe op in
// a row is an `arch::avx2` vocabulary call whose sole precondition is
// AVX2/FMA availability — discharged by the row's own
// `#[target_feature]` caller contract. All grid, ring and output accesses
// use checked slice indexing over rows re-sliced to the common width.

impl Avx2Row<f64, 4> for Rows2<'_, JacobiKern2d> {
    /// Heat-2D: west/centre packs carried in registers between inner
    /// iterations; `n·cn + (w·cw + (m·cc + (e·ce + s·cs)))`, the same
    /// fused tree as `Heat2dCoeffs::apply`.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn steady_row_avx2(&self, row: SteadyRow<'_, f64, 4>) {
        let w = row.out.len();
        let [rm1, r0, rp1] = row.ring.map(|slab| &slab[..w]);
        let (out, top, bottom) = (row.out, &mut row.top[..w], &row.bottom[..w]);
        let k = self.0 .0;
        let [cn, cw, cc, ce, cs] = [k.cn, k.cw, k.cc, k.ce, k.cs].map(avx2::splat);
        let mut wv = avx2::from_pack(r0[0]);
        let mut m = avx2::from_pack(r0[1]);
        for y in 1..w - 1 {
            let e = avx2::from_pack(r0[y + 1]);
            let n = avx2::from_pack(rm1[y]);
            let sth = avx2::from_pack(rp1[y]);
            // SAFETY: see "The six steady rows" above.
            unsafe {
                let o = avx2::fmadd(
                    n,
                    cn,
                    avx2::fmadd(
                        wv,
                        cw,
                        avx2::fmadd(m, cc, avx2::fmadd(e, ce, avx2::mul(sth, cs))),
                    ),
                );
                top[y] = avx2::extract_top(o);
                out[y] = avx2::to_pack(avx2::shift_up_insert(o, bottom[y]));
            }
            wv = m;
            m = e;
        }
    }
}

impl Avx2Row<f64, 4> for Rows2<'_, BoxKern2d> {
    /// 2D9P: row-major 3×3 fused chain, identical to
    /// `Box2dCoeffs::apply`.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn steady_row_avx2(&self, row: SteadyRow<'_, f64, 4>) {
        let w = row.out.len();
        let [rm1, r0, rp1] = row.ring.map(|slab| &slab[..w]);
        let (out, top, bottom) = (row.out, &mut row.top[..w], &row.bottom[..w]);
        let c: [[__m256d; 3]; 3] = self.0 .0.c.map(|r| r.map(avx2::splat));
        let mut wv = avx2::from_pack(r0[0]);
        let mut m = avx2::from_pack(r0[1]);
        for y in 1..w - 1 {
            let e = avx2::from_pack(r0[y + 1]);
            let v: [[__m256d; 3]; 3] = [
                [rm1[y - 1], rm1[y], rm1[y + 1]].map(avx2::from_pack),
                [wv, m, e],
                [rp1[y - 1], rp1[y], rp1[y + 1]].map(avx2::from_pack),
            ];
            // SAFETY: see "The six steady rows" above.
            unsafe {
                let mut o = avx2::mul(v[2][2], c[2][2]);
                o = avx2::fmadd(v[2][1], c[2][1], o);
                o = avx2::fmadd(v[2][0], c[2][0], o);
                o = avx2::fmadd(v[1][2], c[1][2], o);
                o = avx2::fmadd(v[1][1], c[1][1], o);
                o = avx2::fmadd(v[1][0], c[1][0], o);
                o = avx2::fmadd(v[0][2], c[0][2], o);
                o = avx2::fmadd(v[0][1], c[0][1], o);
                o = avx2::fmadd(v[0][0], c[0][0], o);
                top[y] = avx2::extract_top(o);
                out[y] = avx2::to_pack(avx2::shift_up_insert(o, bottom[y]));
            }
            wv = m;
            m = e;
        }
    }
}

impl Avx2Row<f64, 4> for Rows2<'_, GsKern2d> {
    /// GS-2D: the newest-north operand comes from the previous output
    /// row, the newest-west operand from the previous output vector
    /// carried in a register (§3.4);
    /// `new_n·cn + (new_w·cw + (m·cc + (e·ce + s·cs)))`, the same fused
    /// tree as `Gs2dCoeffs::apply`.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn steady_row_avx2(&self, row: SteadyRow<'_, f64, 4>) {
        let w = row.out.len();
        let [_, r0, rp1] = row.ring.map(|slab| &slab[..w]);
        let (o_prev, o_cur) = (&row.o_prev[..w], &mut row.o_cur[..w]);
        let (out, top, bottom) = (row.out, &mut row.top[..w], &row.bottom[..w]);
        let k = self.0 .0;
        let [cn, cw, cc, ce, cs] = [k.cn, k.cw, k.cc, k.ce, k.cs].map(avx2::splat);
        let mut o_west = avx2::splat(row.bc); // O(x, 0): boundary column
        let mut m = avx2::from_pack(r0[1]);
        for y in 1..w - 1 {
            let e = avx2::from_pack(r0[y + 1]);
            let sth = avx2::from_pack(rp1[y]);
            let n_new = avx2::from_pack(o_prev[y]);
            // SAFETY: see "The six steady rows" above.
            unsafe {
                let o = avx2::fmadd(
                    n_new,
                    cn,
                    avx2::fmadd(
                        o_west,
                        cw,
                        avx2::fmadd(m, cc, avx2::fmadd(e, ce, avx2::mul(sth, cs))),
                    ),
                );
                top[y] = avx2::extract_top(o);
                out[y] = avx2::to_pack(avx2::shift_up_insert(o, bottom[y]));
                o_cur[y] = avx2::to_pack(o);
                o_west = o;
            }
            m = e;
        }
    }
}

impl Avx2Row<i32, 8> for Rows2<'_, LifeKern2d> {
    /// Game-of-Life at `vl = 8` i32 lanes: the eight neighbour packs are
    /// summed with a `vpaddd` tree (wrapping adds are associative, so the
    /// tree order is free to maximize ILP while staying bit-identical to
    /// the portable left-to-right sum) and the B/S rule table is applied
    /// branch-free as `mask = birth + cur·(survive - birth)`,
    /// `out = (mask >> sum) & 1` — `vpmulld` rule-mask select, `vpsravd`
    /// variable shift — exactly the portable `LifeRule::apply_pack`
    /// arithmetic, lane for lane.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available
    /// (`tempora_simd::arch::avx2_available()`).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn steady_row_avx2(&self, row: SteadyRow<'_, i32, 8>) {
        let w = row.out.len();
        let [rm1, r0, rp1] = row.ring.map(|slab| &slab[..w]);
        let (out, top, bottom) = (row.out, &mut row.top[..w], &row.bottom[..w]);
        let rule = self.0 .0;
        let birth = avx2::splat_i32(rule.birth as i32);
        let delta = avx2::splat_i32(rule.survive as i32 - rule.birth as i32);
        let one = avx2::splat_i32(1);
        let mut wv = avx2::from_pack_i32(r0[0]);
        let mut m = avx2::from_pack_i32(r0[1]);
        for y in 1..w - 1 {
            let e = avx2::from_pack_i32(r0[y + 1]);
            let n: [__m256i; 6] = [
                rm1[y - 1],
                rm1[y],
                rm1[y + 1],
                rp1[y - 1],
                rp1[y],
                rp1[y + 1],
            ]
            .map(avx2::from_pack_i32);
            // SAFETY: see "The six steady rows" above.
            unsafe {
                let sum = avx2::add_i32(
                    avx2::add_i32(avx2::add_i32(n[0], n[1]), avx2::add_i32(n[2], n[3])),
                    avx2::add_i32(avx2::add_i32(n[4], n[5]), avx2::add_i32(wv, e)),
                );
                let mask = avx2::add_i32(birth, avx2::mullo_i32(m, delta));
                let o = avx2::and_i32(avx2::srav_i32(mask, sum), one);
                top[y] = avx2::extract_top_i32(o);
                out[y] = avx2::to_pack_i32(avx2::shift_up_insert_i32(o, bottom[y]));
            }
            wv = m;
            m = e;
        }
    }
}

impl Avx2Row<f64, 4> for Rows3<'_, JacobiKern3d> {
    /// Heat-3D: `z`-west and centre packs carried in registers; the same
    /// fused tree as `Heat3dCoeffs::apply`.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn steady_row_avx2(&self, row: SteadyRow<'_, f64, 4>) {
        let (w, at) = (row.out.len(), row.at);
        let [xm, mid, xp] = row.ring.map(|slab| &slab[at..][..w]);
        let (ym, yp) = (&row.ring[1][at - w..][..w], &row.ring[1][at + w..][..w]);
        let (out, top, bottom) = (row.out, &mut row.top[..w], &row.bottom[..w]);
        let k = self.0 .0;
        let [cxm, cym, czm, cc, czp, cyp, cxp] =
            [k.cxm, k.cym, k.czm, k.cc, k.czp, k.cyp, k.cxp].map(avx2::splat);
        let mut zm = avx2::from_pack(mid[0]);
        let mut m = avx2::from_pack(mid[1]);
        for z in 1..w - 1 {
            let zp = avx2::from_pack(mid[z + 1]);
            let [xm, ym, yp, xp] = [xm[z], ym[z], yp[z], xp[z]].map(avx2::from_pack);
            // SAFETY: see "The six steady rows" above.
            unsafe {
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
                                avx2::fmadd(zp, czp, avx2::fmadd(yp, cyp, avx2::mul(xp, cxp))),
                            ),
                        ),
                    ),
                );
                top[z] = avx2::extract_top(o);
                out[z] = avx2::to_pack(avx2::shift_up_insert(o, bottom[z]));
            }
            zm = m;
            m = zp;
        }
    }
}

impl Avx2Row<f64, 4> for Rows3<'_, GsKern3d> {
    /// GS-3D: newest operands come from the previous output plane
    /// (`x-1`), the current output plane being filled (`y-1`) and the
    /// previous output vector in a register (`z-1`), exactly as in the
    /// portable row (§3.4); the same fused tree as `Gs3dCoeffs::apply`.
    ///
    /// # Safety
    /// Caller must ensure AVX2+FMA are available
    /// (`tempora_simd::arch::avx2_available()`).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn steady_row_avx2(&self, row: SteadyRow<'_, f64, 4>) {
        let (w, at) = (row.out.len(), row.at);
        let [_, mid, xp] = row.ring.map(|slab| &slab[at..][..w]);
        let yp = &row.ring[1][at + w..][..w];
        let new_xm = &row.o_prev[at..][..w];
        let (new_ym, o_row) = row.o_cur[at - w..].split_at_mut(w);
        let o_row = &mut o_row[..w];
        let (out, top, bottom) = (row.out, &mut row.top[..w], &row.bottom[..w]);
        let k = self.0 .0;
        let [cxm, cym, czm, cc, czp, cyp, cxp] =
            [k.cxm, k.cym, k.czm, k.cc, k.czp, k.cyp, k.cxp].map(avx2::splat);
        let mut o_z = avx2::splat(row.bc); // O(x, y, 0): boundary column
        let mut m = avx2::from_pack(mid[1]);
        for z in 1..w - 1 {
            let zp = avx2::from_pack(mid[z + 1]);
            let [yp, xp, new_xm, new_ym] =
                [yp[z], xp[z], new_xm[z], new_ym[z]].map(avx2::from_pack);
            // SAFETY: see "The six steady rows" above.
            unsafe {
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
                                avx2::fmadd(zp, czp, avx2::fmadd(yp, cyp, avx2::mul(xp, cxp))),
                            ),
                        ),
                    ),
                );
                top[z] = avx2::extract_top(o);
                out[z] = avx2::to_pack(avx2::shift_up_insert(o, bottom[z]));
                o_row[z] = avx2::to_pack(o);
                o_z = o;
            }
            m = zp;
        }
    }
}
