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
use {
    crate::kernels::Nbhd,
    crate::slab::{self, Geo, Lanes, Scratch, SweepRow},
    core::ops::RangeInclusive,
    tempora_simd::arch::avx2::{self, __m256d, __m256i},
    tempora_simd::Pack,
};

/// Rows with a hand-scheduled AVX2 steady row. Off x86-64 the trait is an
/// empty marker and every engine value runs the portable rows.
pub(crate) trait Avx2Row<T: Scalar, const VL: usize>: Rows<T, VL> {
    /// [`Rows::steady_row`] pinned to the paper's instruction mix: same
    /// algebra and order, bit-identical. Only a sandwich can make an `isa`.
    #[cfg(target_arch = "x86_64")]
    fn steady_row_avx2(&self, isa: Ymm, row: SteadyRow<'_, T, VL>);
}

/// The AVX2 register form of the steady rows ([`Lanes`]) and the
/// arithmetic of the six kernels, as safe methods: a proof that AVX2+FMA
/// are available. Only this module's sandwiches, whose caller contract
/// that availability is, construct one — the `SAFETY` argument of the one
/// `unsafe` block behind every method: each wraps one `arch::avx2`
/// vocabulary call whose sole precondition is AVX2/FMA availability. No
/// method touches memory: every grid, ring and output access is the
/// [`slab::RowCursor`]'s, over rows it cut to one common length.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Ymm(());

/// `fn name(self, args) -> ret`: the `arch::avx2` call of the same `args`.
#[cfg(target_arch = "x86_64")]
macro_rules! ymm_ops {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty = $op:ident;)*) => {$(
        #[inline(always)]
        fn $name(self, $($arg: $ty),*) -> $ret {
            // SAFETY: see `Ymm`.
            unsafe { avx2::$op($($arg),*) }
        }
    )*};
}

#[cfg(target_arch = "x86_64")]
impl Ymm {
    ymm_ops! {
        fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d = fmadd;
        mul(a: __m256d, b: __m256d) -> __m256d = mul;
        add_i32(a: __m256i, b: __m256i) -> __m256i = add_i32;
        mullo_i32(a: __m256i, b: __m256i) -> __m256i = mullo_i32;
        srav_i32(v: __m256i, counts: __m256i) -> __m256i = srav_i32;
        and_i32(a: __m256i, b: __m256i) -> __m256i = and_i32;
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes<f64, 4> for Ymm {
    type V = __m256d;

    #[inline(always)]
    fn load(self, p: Pack<f64, 4>) -> __m256d {
        avx2::from_pack(p)
    }

    #[inline(always)]
    fn store(self, v: __m256d) -> Pack<f64, 4> {
        avx2::to_pack(v)
    }

    ymm_ops! {
        top(v: __m256d) -> f64 = extract_top;
        shift_up_insert(v: __m256d, bottom: f64) -> __m256d = shift_up_insert;
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes<i32, 8> for Ymm {
    type V = __m256i;

    #[inline(always)]
    fn load(self, p: Pack<i32, 8>) -> __m256i {
        avx2::from_pack_i32(p)
    }

    #[inline(always)]
    fn store(self, v: __m256i) -> Pack<i32, 8> {
        avx2::to_pack_i32(v)
    }

    ymm_ops! {
        top(v: __m256i) -> i32 = extract_top_i32;
        shift_up_insert(v: __m256i, bottom: i32) -> __m256i = shift_up_insert_i32;
    }
}

/// Rows `R` with the steady row swapped for its AVX2 body. Constructed
/// only by this module's sandwiches.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2<R>(R, Ymm);

#[cfg(target_arch = "x86_64")]
impl<T: Scalar, const VL: usize, R: Avx2Row<T, VL>> Rows<T, VL> for Avx2<R> {
    const IS_GS: bool = R::IS_GS;
    const MIN_STRIDE: usize = R::MIN_STRIDE;

    #[inline(always)]
    fn sweep_row(&self, row: SweepRow<'_, T>) {
        self.0.sweep_row(row);
    }

    /// The AVX2 rows are not instrumented: `COUNT` is ignored.
    #[inline(always)]
    fn steady_row<const COUNT: bool>(&self, row: SteadyRow<'_, T, VL>) {
        self.0.steady_row_avx2(self.1, row);
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
        slab::sweep_body::<T, VL, false, _>(a, geo, &Avx2(*rows, Ymm(())), s, sc, xs);
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
        slab::scalar_sweep_body(a, geo, &Avx2(*rows, Ymm(())), bufs, xs);
    }
    assert_available();
    // SAFETY: availability asserted above.
    unsafe { sandwich(a, geo, rows, bufs, xs) }
}

// ---------------------------------------------------------------------
// The six steady rows: per point, the kernel's fused tree on the
// cursor's operands
// ---------------------------------------------------------------------

impl Avx2Row<f64, 4> for Rows2<JacobiKern2d> {
    /// Heat-2D: `n·cn + (w·cw + (m·cc + (e·ce + s·cs)))`, the same fused
    /// tree as `Heat2dCoeffs::apply`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn steady_row_avx2(&self, isa: Ymm, row: SteadyRow<'_, f64, 4>) {
        let k = self.0 .0;
        let [cn, cw, cc, ce, cs] = [k.cn, k.cw, k.cc, k.ce, k.cs].map(avx2::splat);
        let mut cur = row.cursor(isa);
        for i in 0..cur.len() {
            let [[_, n, _], [w, m, e], [_, s, _]] = cur.nbhd(i).v;
            let o = isa.fmadd(m, cc, isa.fmadd(e, ce, isa.mul(s, cs)));
            cur.finish::<false>(i, isa.fmadd(n, cn, isa.fmadd(w, cw, o)));
        }
    }
}

impl Avx2Row<f64, 4> for Rows2<BoxKern2d> {
    /// 2D9P: row-major 3×3 fused chain, identical to
    /// `Box2dCoeffs::apply`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn steady_row_avx2(&self, isa: Ymm, row: SteadyRow<'_, f64, 4>) {
        // Row by row: a nested `map` is an out-of-line call per row.
        let [c0, c1, c2] = self.0 .0.c;
        let c = [
            c0.map(avx2::splat),
            c1.map(avx2::splat),
            c2.map(avx2::splat),
        ];
        let mut cur = row.cursor(isa);
        for i in 0..cur.len() {
            let v = cur.nbhd(i).v;
            let mut o = isa.mul(v[2][2], c[2][2]);
            o = isa.fmadd(v[2][1], c[2][1], o);
            o = isa.fmadd(v[2][0], c[2][0], o);
            o = isa.fmadd(v[1][2], c[1][2], o);
            o = isa.fmadd(v[1][1], c[1][1], o);
            o = isa.fmadd(v[1][0], c[1][0], o);
            o = isa.fmadd(v[0][2], c[0][2], o);
            o = isa.fmadd(v[0][1], c[0][1], o);
            cur.finish::<false>(i, isa.fmadd(v[0][0], c[0][0], o));
        }
    }
}

impl Avx2Row<f64, 4> for Rows2<GsKern2d> {
    /// GS-2D: the newest-north operand comes from the previous output
    /// row, the newest-west operand from the previous output vector
    /// carried in a register (§3.4);
    /// `new_n·cn + (new_w·cw + (m·cc + (e·ce + s·cs)))`, the same fused
    /// tree as `Gs2dCoeffs::apply`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn steady_row_avx2(&self, isa: Ymm, row: SteadyRow<'_, f64, 4>) {
        let k = self.0 .0;
        let [cn, cw, cc, ce, cs] = [k.cn, k.cw, k.cc, k.ce, k.cs].map(avx2::splat);
        let mut cur = row.cursor(isa);
        for i in 0..cur.len() {
            let Nbhd { v, new_n, new_w } = cur.nbhd(i);
            let [_, [_, m, e], [_, s, _]] = v;
            let o = isa.fmadd(m, cc, isa.fmadd(e, ce, isa.mul(s, cs)));
            cur.finish::<false>(i, isa.fmadd(new_n, cn, isa.fmadd(new_w, cw, o)));
        }
    }
}

impl Avx2Row<i32, 8> for Rows2<LifeKern2d> {
    /// Game-of-Life at `vl = 8` i32 lanes: the eight neighbour packs are
    /// summed with a `vpaddd` tree (wrapping adds are associative, so the
    /// tree order is free to maximize ILP while staying bit-identical to
    /// the portable left-to-right sum) and the B/S rule table is applied
    /// branch-free as `mask = birth + cur·(survive - birth)`,
    /// `out = (mask >> sum) & 1` — `vpmulld` rule-mask select, `vpsravd`
    /// variable shift — exactly the portable `LifeRule::apply_pack`
    /// arithmetic, lane for lane.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn steady_row_avx2(&self, isa: Ymm, row: SteadyRow<'_, i32, 8>) {
        let rule = self.0 .0;
        let birth = avx2::splat_i32(rule.birth as i32);
        let delta = avx2::splat_i32(rule.survive as i32 - rule.birth as i32);
        let one = avx2::splat_i32(1);
        let mut cur = row.cursor(isa);
        for i in 0..cur.len() {
            let [[nw, n, ne], [w, m, e], [sw, s, se]] = cur.nbhd(i).v;
            let sum = isa.add_i32(
                isa.add_i32(isa.add_i32(nw, n), isa.add_i32(ne, sw)),
                isa.add_i32(isa.add_i32(s, se), isa.add_i32(w, e)),
            );
            let mask = isa.add_i32(birth, isa.mullo_i32(m, delta));
            cur.finish::<false>(i, isa.and_i32(isa.srav_i32(mask, sum), one));
        }
    }
}

impl Avx2Row<f64, 4> for Rows3<JacobiKern3d> {
    /// Heat-3D: the same fused tree as `Heat3dCoeffs::apply`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn steady_row_avx2(&self, isa: Ymm, row: SteadyRow<'_, f64, 4>) {
        let k = self.0 .0;
        let [cxm, cym, czm, cc, czp, cyp, cxp] =
            [k.cxm, k.cym, k.czm, k.cc, k.czp, k.cyp, k.cxp].map(avx2::splat);
        let mut cur = row.cursor(isa);
        for i in 0..cur.len() {
            let p = cur.nbhd3(i);
            let o = isa.fmadd(p.zp, czp, isa.fmadd(p.yp, cyp, isa.mul(p.xp, cxp)));
            let o = isa.fmadd(p.ym, cym, isa.fmadd(p.zm, czm, isa.fmadd(p.m, cc, o)));
            cur.finish::<false>(i, isa.fmadd(p.xm, cxm, o));
        }
    }
}

impl Avx2Row<f64, 4> for Rows3<GsKern3d> {
    /// GS-3D: newest operands come from the previous output plane
    /// (`x-1`), the current output plane being filled (`y-1`) and the
    /// previous output vector in a register (`z-1`), exactly as in the
    /// portable row (§3.4); the same fused tree as `Gs3dCoeffs::apply`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn steady_row_avx2(&self, isa: Ymm, row: SteadyRow<'_, f64, 4>) {
        let k = self.0 .0;
        let [cxm, cym, czm, cc, czp, cyp, cxp] =
            [k.cxm, k.cym, k.czm, k.cc, k.czp, k.cyp, k.cxp].map(avx2::splat);
        let mut cur = row.cursor(isa);
        for i in 0..cur.len() {
            let p = cur.nbhd3(i);
            let o = isa.fmadd(p.zp, czp, isa.fmadd(p.yp, cyp, isa.mul(p.xp, cxp)));
            let o = isa.fmadd(p.new_zm, czm, isa.fmadd(p.m, cc, o));
            cur.finish::<false>(i, isa.fmadd(p.new_xm, cxm, isa.fmadd(p.new_ym, cym, o)));
        }
    }
}
