//! Hand-rolled `std::arch` implementations of the hot pack operations —
//! the one file of the workspace allowed intrinsics.
//!
//! The portable [`crate::pack::Pack`] model compiles to good vector code
//! under `-C target-cpu=native`, but the paper's cost analysis (§3.3) is
//! stated in terms of *specific* AVX instructions — `vpermpd` for the
//! lane-crossing rotate, `vblendpd` for the bottom-element blend,
//! `vunpcklpd`/`vperm2f128` for the 4×4 transpose. The [`avx2`] module
//! pins those choices down explicitly for x86-64, and [`Ymm`] offers them
//! to the engines as the AVX2 implementor of the lane vocabulary
//! ([`crate::lanes`]): a token that proves AVX2+FMA available, whose safe
//! methods are the `avx2` calls, so the measured kernels execute the
//! instruction mix the paper reasons about and no crate above this one
//! names an intrinsic or writes `unsafe` to reach one. [`Zmm`] is the
//! same at eight `f64` lanes: the AVX-512 token, whose methods are the
//! same rotate-and-blend rule one register wider (`vpermpd zmm` plus a
//! `k`-mask `vblendmpd`) — the paper's "irrelevant to the vector length"
//! made an instantiation.
//!
//! Everything here is equivalence-tested against the portable model (see
//! the tests at the bottom; they run on any x86-64 host with AVX2+FMA —
//! the `Zmm` rows on one with AVX-512F — and are skipped elsewhere).

/// Returns true when the running CPU supports the AVX2+FMA fast paths.
///
/// On non-x86-64 targets this is always `false` and the portable pack
/// implementation is used everywhere.
pub fn avx2_available() -> bool {
    // Miri interprets portable Rust only — it cannot execute the
    // `std::arch` intrinsics. Reporting "no AVX2" here routes every
    // engine::Select dispatch in the workspace onto the portable packs,
    // which is exactly the path `cargo miri test` is meant to check.
    #[cfg(any(miri, not(target_arch = "x86_64")))]
    {
        false
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
}

/// Returns true when the running CPU supports the AVX-512F fast path — and
/// with it AVX2+FMA ([`avx2_available`]), which the rest of an AVX-512
/// plan runs on.
///
/// Always `false` off x86-64 and under Miri, like [`avx2_available`].
pub fn avx512_available() -> bool {
    #[cfg(any(miri, not(target_arch = "x86_64")))]
    {
        false
    }
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        avx2_available() && std::arch::is_x86_feature_detected!("avx512f")
    }
}

/// The AVX2 register form of the lane vocabulary ([`crate::Lanes`],
/// [`crate::F64Lanes`] at four lanes, [`crate::I32Lanes`] at eight): `ymm`
/// registers, every method one [`avx2`] call — the instruction the
/// paper's §3.3 analysis names for it (`srav` is two: `vpsravd` saturates
/// its counts where the vocabulary wraps them).
///
/// A value is a proof that AVX2+FMA are available on the running CPU:
/// only [`Ymm::detect`] makes one. That is the `SAFETY` argument of the
/// `unsafe` block behind every method — each wraps an `avx2` call whose
/// sole precondition is that availability ([`I32Lanes::load_u8`] checks
/// its indices first) — and of every `#[target_feature]` function entered
/// on the strength of a `Ymm` argument. The methods are
/// `#[inline(always)]` and reach their instructions by being inlined into
/// such a function; called from baseline code they are correct, and slow.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Ymm(());

#[cfg(target_arch = "x86_64")]
impl Ymm {
    /// The token, if the running CPU has AVX2+FMA ([`avx2_available`]:
    /// never under Miri).
    pub fn detect() -> Option<Ymm> {
        avx2_available().then_some(Ymm(()))
    }
}

/// `fn name(self, args) -> ret`: the [`avx2`] call of the same `args`.
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
use {
    crate::lanes::{F64Lanes, I32Lanes, Lanes},
    crate::pack::{F64x4, I32x8, Pack},
    avx2::{__m256d, __m256i},
};

#[cfg(target_arch = "x86_64")]
impl Lanes<f64, 4> for Ymm {
    type V = __m256d;

    #[inline(always)]
    fn load(self, p: F64x4) -> __m256d {
        avx2::from_pack(p)
    }

    #[inline(always)]
    fn store(self, v: __m256d) -> F64x4 {
        avx2::to_pack(v)
    }

    #[inline(always)]
    fn splat(self, v: f64) -> __m256d {
        avx2::splat(v)
    }

    ymm_ops! {
        top(v: __m256d) -> f64 = extract_top;
        shift_up_insert(v: __m256d, bottom: f64) -> __m256d = shift_up_insert;
    }
}

#[cfg(target_arch = "x86_64")]
impl F64Lanes<4> for Ymm {
    ymm_ops! {
        mul(a: __m256d, b: __m256d) -> __m256d = mul;
        fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d = fmadd;
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes<i32, 8> for Ymm {
    type V = __m256i;

    #[inline(always)]
    fn load(self, p: I32x8) -> __m256i {
        avx2::from_pack_i32(p)
    }

    #[inline(always)]
    fn store(self, v: __m256i) -> I32x8 {
        avx2::to_pack_i32(v)
    }

    #[inline(always)]
    fn splat(self, v: i32) -> __m256i {
        avx2::splat_i32(v)
    }

    ymm_ops! {
        top(v: __m256i) -> i32 = extract_top_i32;
        shift_up_insert(v: __m256i, bottom: i32) -> __m256i = shift_up_insert_i32;
    }
}

#[cfg(target_arch = "x86_64")]
impl I32Lanes<8> for Ymm {
    ymm_ops! {
        add(a: __m256i, b: __m256i) -> __m256i = add_i32;
        mullo(a: __m256i, b: __m256i) -> __m256i = mullo_i32;
        max(a: __m256i, b: __m256i) -> __m256i = max_i32;
        cmpeq(a: __m256i, b: __m256i) -> __m256i = cmpeq_i32;
        blendv(b: __m256i, a: __m256i, mask: __m256i) -> __m256i = blendv_i32;
        and(a: __m256i, b: __m256i) -> __m256i = and_i32;
    }

    #[inline(always)]
    fn srav(self, v: __m256i, counts: __m256i) -> __m256i {
        // `vpsravd` saturates its counts; the vocabulary wraps them.
        let counts = self.and(counts, avx2::splat_i32(31));
        // SAFETY: see `Ymm`.
        unsafe { avx2::srav_i32(v, counts) }
    }

    #[inline(always)]
    fn load_u8(self, src: &[u8], base: usize, stride: isize) -> __m256i {
        let last = base as isize + 7 * stride;
        assert!(
            base < src.len() && 0 <= last && (last as usize) < src.len(),
            "strided load from {base} by {stride} leaves its {} bytes",
            src.len()
        );
        // SAFETY: see `Ymm`; the eight indices lie between the first and
        // the last, both checked above.
        unsafe { avx2::gather_u8_i32(src, base, stride) }
    }
}

/// The AVX-512 register form of the `f64` lane vocabulary
/// ([`crate::Lanes`], [`crate::F64Lanes`] at eight lanes): `zmm`
/// registers, every method the one instruction the paper's §3.3 analysis
/// names for it at that width — `vpermpd zmm` plus a `k`-mask `vblendmpd`
/// for the rotate-and-blend rule, `vfmadd`/`vmulpd` for the arithmetic
/// (`top` is the `vextractf64x4` of the upper half and its top lane).
///
/// A value is a proof that AVX-512F, AVX2 and FMA are available on the
/// running CPU: only [`Zmm::detect`] makes one. That is the `SAFETY`
/// argument of the `unsafe` block behind every method — intrinsics whose
/// sole precondition is that availability, and for `load`/`store` the 64
/// bytes of the pack they are given — and of every `#[target_feature]`
/// function entered on the strength of a `Zmm` argument. Like [`Ymm`]'s,
/// the methods are `#[inline(always)]` and reach their instructions by
/// being inlined into such a function.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Zmm(());

#[cfg(target_arch = "x86_64")]
impl Zmm {
    /// The token, if the running CPU has AVX-512F, AVX2 and FMA
    /// ([`avx512_available`]: never under Miri).
    pub fn detect() -> Option<Zmm> {
        avx512_available().then_some(Zmm(()))
    }
}

/// `fn name(self, args) -> ret`: the AVX-512 intrinsics of `body`.
#[cfg(target_arch = "x86_64")]
macro_rules! zmm_ops {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty = $body:expr;)*) => {$(
        #[inline(always)]
        fn $name(self, $($arg: $ty),*) -> $ret {
            // SAFETY: see `Zmm`.
            unsafe { $body }
        }
    )*};
}

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m512d, _mm256_extractf128_pd, _mm512_extractf64x4_pd, _mm512_fmadd_pd, _mm512_loadu_pd,
    _mm512_mask_blend_pd, _mm512_mul_pd, _mm512_permutexvar_pd, _mm512_set1_pd, _mm512_setr_epi64,
    _mm512_storeu_pd, _mm_cvtsd_f64, _mm_unpackhi_pd,
};

#[cfg(target_arch = "x86_64")]
impl Lanes<f64, 8> for Zmm {
    type V = __m512d;

    zmm_ops! {
        load(p: Pack<f64, 8>) -> __m512d = _mm512_loadu_pd(p.0.as_ptr());
        store(v: __m512d) -> Pack<f64, 8> = {
            let mut out = Pack([0.0; 8]);
            _mm512_storeu_pd(out.0.as_mut_ptr(), v);
            out
        };
        splat(v: f64) -> __m512d = _mm512_set1_pd(v);
        top(v: __m512d) -> f64 = {
            let hi = _mm256_extractf128_pd::<1>(_mm512_extractf64x4_pd::<1>(v));
            _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi))
        };
        // Lane j of the rotate is lane (j + 7) % 8; bit 0 of the mask
        // takes lane 0 from the broadcast bottom.
        shift_up_insert(v: __m512d, bottom: f64) -> __m512d = _mm512_mask_blend_pd(
            1,
            _mm512_permutexvar_pd(_mm512_setr_epi64(7, 0, 1, 2, 3, 4, 5, 6), v),
            _mm512_set1_pd(bottom),
        );
    }
}

#[cfg(target_arch = "x86_64")]
impl F64Lanes<8> for Zmm {
    zmm_ops! {
        mul(a: __m512d, b: __m512d) -> __m512d = _mm512_mul_pd(a, b);
        fmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d = _mm512_fmadd_pd(a, b, c);
    }
}

/// AVX2 `__m256d` kernels (x86-64 only).
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use crate::pack::F64x4;
    use core::arch::x86_64::*;

    // The register types behind `Ymm`'s `Lanes::V` (`cargo xtask audit`
    // bans raw `core::arch` use outside this file).
    pub use core::arch::x86_64::{__m256d, __m256i};

    /// Bit-cast a portable pack to `__m256d`.
    ///
    /// `F64x4` is `#[repr(C, align(32))]` over `[f64; 4]`, so an aligned
    /// vector load from its address is always valid.
    #[inline(always)]
    pub fn from_pack(p: F64x4) -> __m256d {
        // SAFETY: F64x4 is 32 bytes, 32-byte aligned, and lane i is at
        // offset 8*i, exactly the __m256d memory layout.
        unsafe { _mm256_load_pd(p.0.as_ptr()) }
    }

    /// Bit-cast an `__m256d` back to a portable pack.
    #[inline(always)]
    pub fn to_pack(v: __m256d) -> F64x4 {
        let mut out = F64x4::splat(0.0);
        // SAFETY: same layout argument as `from_pack`.
        unsafe { _mm256_store_pd(out.0.as_mut_ptr(), v) };
        out
    }

    /// Unaligned vector load of 4 doubles starting at `src[at]`.
    ///
    /// # Safety
    /// `at + 4 <= src.len()` must hold (checked by `debug_assert!`).
    #[inline(always)]
    pub unsafe fn loadu(src: &[f64], at: usize) -> __m256d {
        debug_assert!(at + 4 <= src.len());
        // SAFETY: caller guarantees `at + 4 <= src.len()`, so the pointer
        // offset stays inside the slice allocation and the 32-byte
        // unaligned read covers in-bounds, initialized f64 lanes only.
        unsafe { _mm256_loadu_pd(src.as_ptr().add(at)) }
    }

    /// Unaligned vector store of 4 doubles into `dst[at..at+4]`.
    ///
    /// # Safety
    /// `at + 4 <= dst.len()` must hold (checked by `debug_assert!`).
    #[inline(always)]
    pub unsafe fn storeu(v: __m256d, dst: &mut [f64], at: usize) {
        debug_assert!(at + 4 <= dst.len());
        // SAFETY: caller guarantees `at + 4 <= dst.len()`, so the pointer
        // offset stays inside the exclusive borrow and the 32-byte
        // unaligned write lands on in-bounds f64 lanes only.
        unsafe { _mm256_storeu_pd(dst.as_mut_ptr().add(at), v) }
    }

    /// Broadcast a scalar to all four lanes.
    #[inline(always)]
    pub fn splat(v: f64) -> __m256d {
        // SAFETY: no memory access; plain register broadcast.
        unsafe { _mm256_set1_pd(v) }
    }

    /// Fused multiply-add `a*b + c` (`vfmadd`).
    ///
    /// # Safety
    /// Requires AVX2+FMA (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
        _mm256_fmadd_pd(a, b, c)
    }

    /// Lane-wise multiply `a*b` (`vmulpd`) — the unfused tail of every
    /// kernel's `mul_add` chain.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
        _mm256_mul_pd(a, b)
    }

    /// The paper's `vrotate` (Algorithm 3 line 13): lane `j` of the result
    /// is lane `(j+3) % 4` of the input — a single lane-crossing `vpermpd`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn rotate_up(v: __m256d) -> __m256d {
        // Output lane selectors (2 bits each, lane 0 in the low bits):
        // out0 <- in3, out1 <- in0, out2 <- in1, out3 <- in2.
        _mm256_permute4x64_pd::<0b10_01_00_11>(v)
    }

    /// The paper's `vblend` (Algorithm 3 line 14): replace lane 0 with the
    /// new bottom element — an in-lane `vblendpd` against a broadcast.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn blend_bottom(v: __m256d, bottom: f64) -> __m256d {
        _mm256_blend_pd::<0b0001>(v, _mm256_set1_pd(bottom))
    }

    /// Steady-state input-vector production (`rotate_up` then
    /// `blend_bottom` fused): shift lanes up one step, dropping the top
    /// lane, and insert `bottom` into lane 0.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn shift_up_insert(v: __m256d, bottom: f64) -> __m256d {
        // SAFETY: both callees require exactly AVX2, which this fn's own
        // `#[target_feature]` contract already obliges the caller to prove.
        unsafe { blend_bottom(rotate_up(v), bottom) }
    }

    /// Extract the top lane (lane 3).
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn extract_top(v: __m256d) -> f64 {
        let hi = _mm256_extractf128_pd::<1>(v);
        _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi))
    }

    /// Strided gather of 4 doubles: lane `i` reads
    /// `src[(base + i*stride) as usize]` (the paper's `vloadset`).
    ///
    /// # Safety
    /// All four indices must be in bounds (checked by `debug_assert!`).
    #[inline(always)]
    pub unsafe fn gather(src: &[f64], base: usize, stride: isize) -> __m256d {
        let i = |k: isize| -> f64 {
            let idx = base as isize + k * stride;
            debug_assert!(idx >= 0 && (idx as usize) < src.len());
            // SAFETY: caller guarantees all four gathered indices
            // `base + k*stride` (k = 0..4) are in bounds for `src`.
            unsafe { *src.get_unchecked(idx as usize) }
        };
        // SAFETY: `_mm256_set_pd` touches no memory; it is only gated on
        // AVX, which this fn's caller-proved feature set implies.
        unsafe { _mm256_set_pd(i(3), i(2), i(1), i(0)) }
    }

    /// In-register 4×4 transpose using `vunpcklpd`/`vunpckhpd` plus two
    /// lane-crossing `vperm2f128` — the instruction sequence used for the
    /// temporal scheme's initial input-vector loading (§3.3) and the DLT
    /// baseline's block transpose.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn transpose4(
        r0: &mut __m256d,
        r1: &mut __m256d,
        r2: &mut __m256d,
        r3: &mut __m256d,
    ) {
        let t0 = _mm256_unpacklo_pd(*r0, *r1); // a0 b0 a2 b2
        let t1 = _mm256_unpackhi_pd(*r0, *r1); // a1 b1 a3 b3
        let t2 = _mm256_unpacklo_pd(*r2, *r3); // c0 d0 c2 d2
        let t3 = _mm256_unpackhi_pd(*r2, *r3); // c1 d1 c3 d3
        *r0 = _mm256_permute2f128_pd::<0x20>(t0, t2); // a0 b0 c0 d0
        *r1 = _mm256_permute2f128_pd::<0x20>(t1, t3); // a1 b1 c1 d1
        *r2 = _mm256_permute2f128_pd::<0x31>(t0, t2); // a2 b2 c2 d2
        *r3 = _mm256_permute2f128_pd::<0x31>(t1, t3); // a3 b3 c3 d3
    }

    // -----------------------------------------------------------------
    // epi32 vocabulary (`__m256i`, 8 × i32 lanes) — the integer steady
    // states (Life, LCS) run the same rotate-and-blend schedule as the
    // f64 kernels, at the paper's `vl = 8` integer width.
    // -----------------------------------------------------------------

    use crate::pack::I32x8;

    /// Bit-cast a portable 8-lane i32 pack to `__m256i`.
    ///
    /// `I32x8` is `#[repr(C, align(32))]` over `[i32; 8]`, so an aligned
    /// vector load from its address is always valid.
    #[inline(always)]
    pub fn from_pack_i32(p: I32x8) -> __m256i {
        // SAFETY: I32x8 is 32 bytes, 32-byte aligned, lane i at offset
        // 4*i — exactly the __m256i memory layout.
        unsafe { _mm256_load_si256(p.0.as_ptr() as *const __m256i) }
    }

    /// Bit-cast an `__m256i` back to a portable 8-lane i32 pack.
    #[inline(always)]
    pub fn to_pack_i32(v: __m256i) -> I32x8 {
        let mut out = I32x8::splat(0);
        // SAFETY: same layout argument as `from_pack_i32`.
        unsafe { _mm256_store_si256(out.0.as_mut_ptr() as *mut __m256i, v) };
        out
    }

    /// Broadcast a scalar to all eight lanes.
    #[inline(always)]
    pub fn splat_i32(v: i32) -> __m256i {
        // SAFETY: no memory access; plain register broadcast.
        unsafe { _mm256_set1_epi32(v) }
    }

    /// Lane-wise wrapping add (`vpaddd`) — the Life neighbour-sum tree.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn add_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }

    /// Lane-wise wrapping multiply (`vpmulld`) — the Life rule-mask
    /// select `birth + cur·(survive - birth)`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn mullo_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_mullo_epi32(a, b)
    }

    /// Lane-wise signed maximum (`vpmaxsd`) — the LCS `max(up, left)`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn max_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_max_epi32(a, b)
    }

    /// Lane-wise equality (`vpcmpeqd`): all-ones lanes where `a == b`,
    /// zero lanes elsewhere — the LCS character-equality mask.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn cmpeq_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpeq_epi32(a, b)
    }

    /// Mask select (`vpblendvb`): lane `i` of the result is `a[i]` where
    /// the mask lane is all-ones and `b[i]` where it is zero. With masks
    /// from [`cmpeq_i32`] every mask byte within a lane agrees, so the
    /// byte-granular blend is exact — the paper's "blend instruction with
    /// a mask vector of equalities".
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn blendv_i32(b: __m256i, a: __m256i, mask: __m256i) -> __m256i {
        _mm256_blendv_epi8(b, a, mask)
    }

    /// Lane-wise arithmetic right shift by per-lane counts (`vpsravd`) —
    /// the Life rule-table bit test `(mask >> sum) & 1`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn srav_i32(v: __m256i, counts: __m256i) -> __m256i {
        _mm256_srav_epi32(v, counts)
    }

    /// Lane-wise bitwise AND (`vpand`).
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn and_i32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_and_si256(a, b)
    }

    /// The paper's `vrotate` at 8 integer lanes: lane `j` of the result
    /// is lane `(j+7) % 8` of the input — a single lane-crossing
    /// `vpermd`.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn rotate_up_i32(v: __m256i) -> __m256i {
        // Per-output-lane source indices, lane 0 first.
        let idx = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
        _mm256_permutevar8x32_epi32(v, idx)
    }

    /// The paper's `vblend` at 8 integer lanes: replace lane 0 with the
    /// new bottom element — an in-lane `vpblendd` against a broadcast.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn blend_bottom_i32(v: __m256i, bottom: i32) -> __m256i {
        _mm256_blend_epi32::<0b0000_0001>(v, _mm256_set1_epi32(bottom))
    }

    /// Steady-state input-vector production ([`rotate_up_i32`] then
    /// [`blend_bottom_i32`] fused): shift lanes up one step, dropping the
    /// top lane, and insert `bottom` into lane 0.
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn shift_up_insert_i32(v: __m256i, bottom: i32) -> __m256i {
        // SAFETY: both callees require exactly AVX2, which this fn's own
        // `#[target_feature]` contract already obliges the caller to prove.
        unsafe { blend_bottom_i32(rotate_up_i32(v), bottom) }
    }

    /// Extract the top lane (lane 7).
    ///
    /// # Safety
    /// Requires AVX2 (guard with [`super::avx2_available`]).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn extract_top_i32(v: __m256i) -> i32 {
        _mm256_extract_epi32::<7>(v)
    }

    /// Strided gather of 8 bytes widened to `i32` lanes: lane `i` reads
    /// `src[(base + i*stride) as usize] as i32` — the paper's `vloadset`
    /// at the integer width, used by the LCS steady state's per-iteration
    /// load of the `B`-sequence characters (the "variable coefficient"
    /// of §3.4).
    ///
    /// # Safety
    /// All eight indices must be in bounds (checked by `debug_assert!`).
    #[inline(always)]
    pub unsafe fn gather_u8_i32(src: &[u8], base: usize, stride: isize) -> __m256i {
        let i = |k: isize| -> i32 {
            let idx = base as isize + k * stride;
            debug_assert!(idx >= 0 && (idx as usize) < src.len());
            // SAFETY: caller guarantees all eight gathered indices
            // `base + k*stride` (k = 0..8) are in bounds for `src`.
            unsafe { *src.get_unchecked(idx as usize) as i32 }
        };
        // SAFETY: `_mm256_setr_epi32` touches no memory; it is only gated
        // on AVX, which this fn's caller-proved feature set implies.
        unsafe { _mm256_setr_epi32(i(0), i(1), i(2), i(3), i(4), i(5), i(6), i(7)) }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
// Justification: every test early-returns unless `avx2_available()`, and
// each unsafe op is a vocabulary call whose only precondition is that
// probe — a per-block SAFETY comment would repeat the same sentence
// dozens of times without adding information.
#[allow(clippy::undocumented_unsafe_blocks)]
mod tests {
    use super::avx2::*;
    use super::{avx2_available, Ymm, Zmm};
    use crate::lanes::{F64Lanes, I32Lanes, Lanes, Packs};
    use crate::pack::{transpose, F64x4, I32x8, Pack};

    fn p(a: f64, b: f64, c: f64, d: f64) -> F64x4 {
        Pack([a, b, c, d])
    }

    /// Each vocabulary row set below is one generic function run in `Ymm`
    /// and in `Packs`; the two must agree lane for lane and — `f64` rows
    /// are compared as bits — bit for bit, a NaN's payload and a zero's
    /// sign included.
    fn ymm() -> Ymm {
        Ymm::detect().unwrap()
    }

    fn bits(v: F64x4) -> [u64; 4] {
        v.0.map(f64::to_bits)
    }

    /// A quiet NaN carrying `payload`.
    fn nan(payload: u64) -> f64 {
        f64::from_bits(0x7ff8_0000_0000_0000 | payload)
    }

    #[test]
    fn pack_roundtrip() {
        if !avx2_available() {
            return;
        }
        let x = p(1.0, 2.0, 3.0, 4.0);
        assert_eq!(to_pack(from_pack(x)), x);
        // The vocabulary's load, store and splat keep every bit.
        fn rows<L: Lanes<f64, 4>>(isa: L) -> Vec<[u64; 4]> {
            let odd = p(nan(0xbeef), -0.0, 0.0, -nan(1));
            let splats = odd.0.map(|k| bits(isa.store(isa.splat(k))));
            [vec![bits(isa.store(isa.load(odd)))], splats.to_vec()].concat()
        }
        assert_eq!(rows(ymm()), rows(Packs));
    }

    #[test]
    fn rotate_matches_portable() {
        if !avx2_available() {
            return;
        }
        let x = p(1.0, 2.0, 3.0, 4.0);
        let r = unsafe { rotate_up(from_pack(x)) };
        assert_eq!(to_pack(r), x.rotate_up());
    }

    #[test]
    fn blend_and_shift_match_portable() {
        if !avx2_available() {
            return;
        }
        let x = p(1.0, 2.0, 3.0, 4.0);
        let b = unsafe { blend_bottom(from_pack(x), 9.0) };
        assert_eq!(to_pack(b), x.replace(0, 9.0));
        let s = unsafe { shift_up_insert(from_pack(x), 9.0) };
        assert_eq!(to_pack(s), x.shift_up_insert(9.0));
        // The production rule through the vocabulary, signed zeros and
        // NaN payloads in flight.
        fn rows<L: Lanes<f64, 4>>(isa: L) -> Vec<[u64; 4]> {
            let odd = isa.load(p(-0.0, nan(0xabc), 0.0, 7.5));
            let bottoms = [-0.0, 0.0, -nan(1)];
            Vec::from(bottoms.map(|b| bits(isa.store(isa.shift_up_insert(odd, b)))))
        }
        assert_eq!(rows(ymm()), rows(Packs));
        assert_eq!(rows(Packs)[0], bits(p(-0.0, -0.0, nan(0xabc), 0.0)));
    }

    #[test]
    fn fmadd_matches_portable_mul_add() {
        if !avx2_available() {
            return;
        }
        let a = p(1.5, -2.0, 3.25, 0.125);
        let b = p(2.0, 4.0, -1.0, 8.0);
        let c = p(0.1, 0.2, 0.3, 0.4);
        let r = unsafe { fmadd(from_pack(a), from_pack(b), from_pack(c)) };
        assert_eq!(to_pack(r), a.mul_add(b, c));
        // `fmadd` and `mul` through the vocabulary: one NaN per lane, its
        // payload kept from whichever operand carries it, and the zeros'
        // signs (`-0·1 + -0 = -0`, `-0·1 + 0 = +0`).
        fn rows<L: F64Lanes<4>>(isa: L) -> Vec<[u64; 4]> {
            let a = isa.load(p(nan(0xc0ffee), 2.0, -0.0, -0.0));
            let b = isa.load(p(3.0, nan(0xf00d), 1.0, 1.0));
            let c = isa.load(p(0.5, 0.25, -0.0, 0.0));
            let fused = [[a, b, c], [b, c, a], [c, a, b]].map(|[x, y, z]| isa.fmadd(x, y, z));
            let products = [[a, b], [b, c], [c, a]].map(|[x, y]| isa.mul(x, y));
            Vec::from_iter(
                fused
                    .into_iter()
                    .chain(products)
                    .map(|v| bits(isa.store(v))),
            )
        }
        assert_eq!(rows(ymm()), rows(Packs));
        assert_eq!(
            rows(Packs)[0],
            bits(p(nan(0xc0ffee), nan(0xf00d), -0.0, 0.0))
        );
    }

    #[test]
    fn extract_top_is_lane3() {
        if !avx2_available() {
            return;
        }
        let x = p(1.0, 2.0, 3.0, 42.0);
        assert_eq!(unsafe { extract_top(from_pack(x)) }, 42.0);
        fn rows<L: Lanes<f64, 4>>(isa: L) -> Vec<u64> {
            let tops = [-0.0, nan(0x42), 42.0];
            Vec::from(tops.map(|t| isa.top(isa.load(p(1.0, 2.0, 3.0, t))).to_bits()))
        }
        assert_eq!(rows(ymm()), rows(Packs));
        assert_eq!(rows(Packs)[1], nan(0x42).to_bits());
    }

    /// The eight-lane rows: `Zmm` ≡ `Packs` bit for bit, on AVX-512 hosts.
    fn zmm() -> Option<Zmm> {
        Zmm::detect()
    }

    /// Eight lanes of odd values: NaN payloads of both signs, both zeros.
    fn odd8() -> Pack<f64, 8> {
        Pack([nan(0xbeef), -0.0, 0.0, -nan(1), 1.5, -2.25, nan(0x7), 8.0])
    }

    fn bits8(v: Pack<f64, 8>) -> [u64; 8] {
        v.0.map(f64::to_bits)
    }

    #[test]
    fn zmm_load_store_splat_top_match_packs() {
        let Some(zmm) = zmm() else {
            return;
        };
        fn rows<L: Lanes<f64, 8>>(isa: L) -> Vec<[u64; 8]> {
            let odd = odd8();
            let splats = odd.0.map(|k| bits8(isa.store(isa.splat(k))));
            // `top` of a vector whose top lane is each odd value in turn.
            let tops = odd.0.map(|t| {
                let mut v = Pack([1.0; 8]);
                v.0[7] = t;
                isa.top(isa.load(v)).to_bits()
            });
            [vec![bits8(isa.store(isa.load(odd))), tops], splats.to_vec()].concat()
        }
        assert_eq!(rows(zmm), rows(Packs));
        assert_eq!(rows(Packs)[0], bits8(odd8()));
        assert_eq!(rows(Packs)[1], bits8(odd8()));
        // The token implies the AVX2 one.
        assert!(avx2_available() && Ymm::detect().is_some());
    }

    #[test]
    fn zmm_shift_up_insert_matches_packs_in_every_lane() {
        let Some(zmm) = zmm() else {
            return;
        };
        fn rows<L: Lanes<f64, 8>>(isa: L) -> Vec<[u64; 8]> {
            let bottoms = [-0.0, 0.0, -nan(1), 3.0];
            let mut out = Vec::from(
                bottoms.map(|b| bits8(isa.store(isa.shift_up_insert(isa.load(odd8()), b)))),
            );
            // Each lane of the rotate on its own: a one-hot vector moves
            // its one up one lane, the top lane falls off.
            for lane in 0..8 {
                let mut v = Pack([0.0; 8]);
                v.0[lane] = 1.0 + lane as f64;
                out.push(bits8(isa.store(isa.shift_up_insert(isa.load(v), -0.0))));
            }
            out
        }
        assert_eq!(rows(zmm), rows(Packs));
        let odd = odd8().0;
        let mut want = [0.0; 8];
        want[0] = -0.0;
        want[1..].copy_from_slice(&odd[..7]);
        assert_eq!(rows(Packs)[0], bits8(Pack(want)));
        for lane in 0..7 {
            assert_eq!(
                rows(Packs)[4 + lane][lane + 1],
                (1.0 + lane as f64).to_bits()
            );
        }
        assert_eq!(
            rows(Packs)[4 + 7],
            bits8(Pack([-0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        );
    }

    #[test]
    fn zmm_mul_fmadd_match_packs() {
        let Some(zmm) = zmm() else {
            return;
        };
        // One NaN per operand in distinct lanes (the payload kept from the
        // operand carrying it), and the zeros' signs.
        fn rows<L: F64Lanes<8>>(isa: L) -> Vec<[u64; 8]> {
            let a = isa.load(Pack([nan(0xc0ffee), 2.0, -0.0, -0.0, 1.5, -3.0, 0.1, 7.0]));
            let b = isa.load(Pack([3.0, nan(0xf00d), 1.0, 1.0, -0.0, 0.25, 0.2, -1.0]));
            let c = isa.load(Pack([0.5, 0.25, -0.0, 0.0, -0.0, nan(0x5), 0.3, 7.0]));
            let fused = [[a, b, c], [b, c, a], [c, a, b]].map(|[x, y, z]| isa.fmadd(x, y, z));
            let products = [[a, b], [b, c], [c, a]].map(|[x, y]| isa.mul(x, y));
            Vec::from_iter(
                fused
                    .into_iter()
                    .chain(products)
                    .map(|v| bits8(isa.store(v))),
            )
        }
        assert_eq!(rows(zmm), rows(Packs));
        let first = rows(Packs)[0];
        assert_eq!(
            first[..4],
            bits8(Pack([
                nan(0xc0ffee),
                nan(0xf00d),
                -0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                0.0
            ]))[..4]
        );
        // 0.1·0.2 + 0.3, rounded once.
        assert_eq!(first[6], 0.1f64.mul_add(0.2, 0.3).to_bits());
    }

    #[test]
    fn gather_matches_portable() {
        if !avx2_available() {
            return;
        }
        let src: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        for &(base, stride) in &[(0usize, 7isize), (21, -7), (5, 3), (63, -9)] {
            let g = unsafe { gather(&src, base, stride) };
            assert_eq!(to_pack(g), F64x4::gather(&src, base, stride));
        }
    }

    #[test]
    fn loadu_storeu_roundtrip() {
        if !avx2_available() {
            return;
        }
        let src: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut dst = vec![0.0; 16];
        for at in 0..=12 {
            // SAFETY: at + 4 <= 16.
            unsafe { storeu(loadu(&src, at), &mut dst, at) };
        }
        assert_eq!(src, dst);
    }

    #[test]
    fn epi32_roundtrip_splat_extract() {
        if !avx2_available() {
            return;
        }
        let x = I32x8::from_fn(|i| i as i32 * 3 - 7);
        assert_eq!(to_pack_i32(from_pack_i32(x)), x);
        assert_eq!(to_pack_i32(splat_i32(-9)), I32x8::splat(-9));
        assert_eq!(unsafe { extract_top_i32(from_pack_i32(x)) }, x.top());
        fn rows<L: Lanes<i32, 8>>(isa: L, x: I32x8) -> (I32x8, I32x8, i32) {
            let v = isa.load(x);
            (isa.store(v), isa.store(isa.splat(i32::MIN)), isa.top(v))
        }
        assert_eq!(rows(ymm(), x), rows(Packs, x));
        assert_eq!(rows(Packs, x), (x, I32x8::splat(i32::MIN), x[7]));
    }

    #[test]
    fn epi32_arithmetic_matches_portable() {
        if !avx2_available() {
            return;
        }
        let a = I32x8::from_fn(|i| (i as i32) * 5 - 13);
        let b = I32x8::from_fn(|i| 17 - (i as i32) * 3);
        let (va, vb) = (from_pack_i32(a), from_pack_i32(b));
        assert_eq!(to_pack_i32(unsafe { add_i32(va, vb) }), a + b);
        assert_eq!(to_pack_i32(unsafe { mullo_i32(va, vb) }), a * b);
        assert_eq!(to_pack_i32(unsafe { max_i32(va, vb) }), a.max(b));
        // Wrapping semantics match the portable Scalar contract.
        let big = I32x8::splat(i32::MAX);
        let one = I32x8::splat(1);
        assert_eq!(
            to_pack_i32(unsafe { add_i32(from_pack_i32(big), from_pack_i32(one)) }),
            big + one
        );
        // `add`, `mullo` and `max` through the vocabulary, wrapping at both
        // ends of the range.
        fn rows<L: I32Lanes<8>>(isa: L) -> [I32x8; 3] {
            let x = isa.load(Pack([i32::MAX, i32::MIN, -1, 1 << 30, 65536, -65536, 7, 0]));
            let y = isa.load(Pack([1, -1, i32::MIN, 2, 65536, 65537, -3, i32::MIN]));
            [isa.add(x, y), isa.mullo(x, y), isa.max(x, y)].map(|v| isa.store(v))
        }
        assert_eq!(rows(ymm()), rows(Packs));
        let [sum, product, _] = rows(Packs);
        assert_eq!(sum.0[..2], [i32::MIN, i32::MAX]);
        assert_eq!(product.0[3..6], [i32::MIN, 0, -65536]);
    }

    #[test]
    fn epi32_cmpeq_blendv_matches_portable_select() {
        if !avx2_available() {
            return;
        }
        let a = I32x8::from_fn(|i| (i % 3) as i32);
        let b = I32x8::from_fn(|i| (i % 2) as i32);
        let take = I32x8::from_fn(|i| 100 + i as i32);
        let other = I32x8::from_fn(|i| -(i as i32));
        let mask = unsafe { cmpeq_i32(from_pack_i32(a), from_pack_i32(b)) };
        let r = unsafe { blendv_i32(from_pack_i32(other), from_pack_i32(take), mask) };
        let gold = I32x8::select(a.eq_mask(b), take, other);
        assert_eq!(to_pack_i32(r), gold);
        // Through the vocabulary: the mask is all ones or all zeros per
        // lane, and a mixed mask takes each lane from its own side.
        fn rows<L: I32Lanes<8>>(isa: L, ops: [I32x8; 4]) -> [I32x8; 2] {
            let [a, b, take, other] = ops.map(|v| isa.load(v));
            let mask = isa.cmpeq(a, b);
            [mask, isa.blendv(other, take, mask)].map(|v| isa.store(v))
        }
        let ops = [a, b, take, other];
        assert_eq!(rows(ymm(), ops), rows(Packs, ops));
        let [mask, blend] = rows(Packs, ops);
        assert_eq!(mask, I32x8::from_fn(|i| if a[i] == b[i] { -1 } else { 0 }));
        assert!(mask.0.contains(&0) && mask.0.contains(&-1));
        assert_eq!(blend, gold);
    }

    #[test]
    fn epi32_variable_shift_matches_scalar_rule_test() {
        if !avx2_available() {
            return;
        }
        // The Life rule test: (mask >> sum) & 1 for sums 0..=7 in lanes.
        let mask = I32x8::splat(0b1100);
        let sums = I32x8::from_fn(|i| i as i32);
        let r = unsafe {
            and_i32(
                srav_i32(from_pack_i32(mask), from_pack_i32(sums)),
                splat_i32(1),
            )
        };
        let gold = I32x8::from_fn(|i| (mask[i] >> sums[i]) & 1);
        assert_eq!(to_pack_i32(r), gold);
        // `srav` and `and` through the vocabulary: counts of 32 and more,
        // and negative ones, wrap modulo 32.
        fn rows<L: I32Lanes<8>>(isa: L) -> [I32x8; 2] {
            let v = isa.load(Pack([i32::MIN, i32::MAX, -8, 8, -1, 0x5a5a, i32::MIN, 12]));
            let counts = isa.load(Pack([31, 31, 32, 32, 1000, -1, i32::MIN, 2]));
            [isa.srav(v, counts), isa.and(v, counts)].map(|v| isa.store(v))
        }
        assert_eq!(rows(ymm()), rows(Packs));
        assert_eq!(rows(Packs)[0], Pack([-1, 0, -8, 8, -1, 0, i32::MIN, 3]));
    }

    #[test]
    fn epi32_rotate_blend_identity_matches_portable() {
        if !avx2_available() {
            return;
        }
        // The steady state's input production: rotate + blend equals the
        // portable shift_up_insert, and fused == two-step.
        let x = I32x8::from_fn(|i| 10 * i as i32 + 1);
        let r = unsafe { rotate_up_i32(from_pack_i32(x)) };
        assert_eq!(to_pack_i32(r), x.rotate_up());
        let bl = unsafe { blend_bottom_i32(from_pack_i32(x), 99) };
        assert_eq!(to_pack_i32(bl), x.replace(0, 99));
        let fused = unsafe { shift_up_insert_i32(from_pack_i32(x), 99) };
        assert_eq!(to_pack_i32(fused), x.shift_up_insert(99));
        let two_step = unsafe { blend_bottom_i32(rotate_up_i32(from_pack_i32(x)), 99) };
        assert_eq!(to_pack_i32(two_step), x.rotate_up().replace(0, 99));
        fn rows<L: Lanes<i32, 8>>(isa: L, x: I32x8) -> I32x8 {
            isa.store(isa.shift_up_insert(isa.load(x), i32::MIN))
        }
        assert_eq!(rows(ymm(), x), rows(Packs, x));
        assert_eq!(rows(Packs, x), x.shift_up_insert(i32::MIN));
    }

    #[test]
    fn epi32_gathers_match_portable() {
        if !avx2_available() {
            return;
        }
        let bytes: Vec<u8> = (0..64).map(|i| (i * 7 % 251) as u8).collect();
        for &(base, stride) in &[(0usize, 1isize), (20, -2), (7, 8), (63, -9)] {
            let g = unsafe { gather_u8_i32(&bytes, base, stride) };
            let gold =
                I32x8::from_fn(|i| bytes[(base as isize + i as isize * stride) as usize] as i32);
            assert_eq!(to_pack_i32(g), gold, "base={base} stride={stride}");
        }
        // The vocabulary's checked form: from the first byte, to the last,
        // down to the first — and never past either end.
        fn row<L: I32Lanes<8>>(isa: L, bytes: &[u8], base: usize, stride: isize) -> I32x8 {
            isa.store(isa.load_u8(bytes, base, stride))
        }
        for (base, stride) in [
            (0usize, 9isize),
            (63, -9),
            (7, 8),
            (56, -8),
            (56, 1),
            (7, -1),
        ] {
            let gold =
                I32x8::from_fn(|i| bytes[(base as isize + i as isize * stride) as usize] as i32);
            assert_eq!(row(Packs, &bytes, base, stride), gold, "{base} {stride}");
            assert_eq!(row(ymm(), &bytes, base, stride), gold, "{base} {stride}");
        }
        for (base, stride) in [(57usize, 1isize), (6, -1), (64, 0), (0, 10)] {
            let past = std::panic::catch_unwind(|| row(ymm(), &bytes, base, stride));
            assert!(past.is_err(), "{base} {stride}");
            let past = std::panic::catch_unwind(|| row(Packs, &bytes, base, stride));
            assert!(past.is_err(), "{base} {stride}");
        }
    }

    #[test]
    fn transpose4_matches_portable() {
        if !avx2_available() {
            return;
        }
        let rows: [F64x4; 4] = core::array::from_fn(|i| F64x4::from_fn(|j| (i * 10 + j) as f64));
        let mut expect = rows;
        transpose(&mut expect);

        let mut r0 = from_pack(rows[0]);
        let mut r1 = from_pack(rows[1]);
        let mut r2 = from_pack(rows[2]);
        let mut r3 = from_pack(rows[3]);
        unsafe { transpose4(&mut r0, &mut r1, &mut r2, &mut r3) };
        assert_eq!(to_pack(r0), expect[0]);
        assert_eq!(to_pack(r1), expect[1]);
        assert_eq!(to_pack(r2), expect[2]);
        assert_eq!(to_pack(r3), expect[3]);
    }
}
