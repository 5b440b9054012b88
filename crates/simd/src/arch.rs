//! The `std::arch` register forms of the lane vocabulary — the one file
//! of the workspace allowed intrinsics.
//!
//! The paper's cost analysis (§3.3) is stated in terms of *specific* AVX
//! instructions — `vpermpd` for the lane-crossing rotate, `vblendpd` for
//! the bottom-element blend, `vfmadd` for the update. [`Ymm`] (AVX2) and
//! [`Zmm`] (AVX-512) pin those choices down for x86-64 as implementors of
//! the lane vocabulary ([`crate::lanes`]): tokens that prove their
//! instructions available, whose safe methods are those instructions,
//! written for both tokens in one macro. The measured kernels execute the
//! instruction mix the paper reasons about, and no crate above this one
//! names an intrinsic or writes `unsafe` to reach one. `Zmm` is `Ymm`'s
//! rotate-and-blend rule one register wider (`vpermpd zmm` plus a
//! `k`-mask `vblendmpd` at eight `f64` lanes, one `valignd` at sixteen
//! `i32` lanes) — the paper's "irrelevant to the vector length" made an
//! instantiation.
//!
//! The tests at the bottom hold both tokens lane for lane equal to
//! [`crate::Packs`] (they run on any x86-64 host with AVX2+FMA — the `Zmm`
//! rows on one with AVX-512F — and are skipped elsewhere).

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
/// registers, every method the instruction the paper's §3.3 analysis
/// names for it (`srav` is two: `vpsravd` saturates its counts where the
/// vocabulary wraps them).
///
/// A value is a proof that AVX2+FMA are available on the running CPU:
/// only [`Ymm::detect`] makes one. That is the `SAFETY` argument of the
/// `unsafe` block behind every method — intrinsics whose sole
/// preconditions are that availability and, for `load`/`store`, the 32
/// bytes of the 32-byte aligned pack they are given (the aligned
/// `vmovapd`/`vmovdqa`; [`I32Lanes::load_u8`] checks its indices first) —
/// and of every AVX2 codegen sandwich entered on the strength of a `Ymm`
/// argument. The methods are `#[inline(always)]` and reach their
/// instructions by being inlined into such a function; called from
/// baseline code they are correct, and slow.
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

/// The AVX-512 register form of the lane vocabulary ([`crate::Lanes`],
/// [`crate::F64Lanes`] at eight lanes, [`crate::I32Lanes`] at sixteen):
/// `zmm` registers, every method the one instruction the paper's §3.3
/// analysis names for it at that width — `vpermpd zmm` plus a `k`-mask
/// `vblendmpd` for the `f64` rotate-and-blend rule, one `valignd` for the
/// `i32` one, `vfmadd`/`vmulpd` for the arithmetic, `vpcmpeqd` into a
/// `k` mask and a masked move for [`I32Lanes::select_eq`] (`top` is an
/// extract of the upper quarter and its top lane).
///
/// A value is a proof that AVX-512F, AVX2 and FMA are available on the
/// running CPU: only [`Zmm::detect`] makes one. That is the `SAFETY`
/// argument of the `unsafe` block behind every method — intrinsics whose
/// sole precondition is that availability, and for `load`/`store` the 64
/// bytes of the pack they are given — and of every AVX-512 codegen
/// sandwich entered on the strength of a `Zmm` argument. Like [`Ymm`]'s,
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

/// `fn name(self, args) -> ret`: the intrinsics of `body`, for either
/// token.
#[cfg(target_arch = "x86_64")]
macro_rules! lane_ops {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty = $body:expr;)*) => {$(
        #[inline(always)]
        fn $name(self, $($arg: $ty),*) -> $ret {
            // SAFETY: `self` is the token of the features `body` needs, and
            // a pack covers the register it is loaded into or stored from
            // (see `Ymm`, `Zmm`).
            unsafe { $body }
        }
    )*};
}

#[cfg(target_arch = "x86_64")]
use {
    crate::lanes::{F64Lanes, I32Lanes, Lanes},
    crate::pack::{F64x4, I32x8, Mask, Pack},
    core::arch::x86_64::*,
};

#[cfg(target_arch = "x86_64")]
impl Lanes<f64, 4> for Ymm {
    type V = __m256d;

    lane_ops! {
        load(p: F64x4) -> __m256d = _mm256_load_pd(p.0.as_ptr());
        store(v: __m256d) -> F64x4 = {
            let mut out = Pack([0.0; 4]);
            _mm256_store_pd(out.0.as_mut_ptr(), v);
            out
        };
        splat(v: f64) -> __m256d = _mm256_set1_pd(v);
        top(v: __m256d) -> f64 = {
            let hi = _mm256_extractf128_pd::<1>(v);
            _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi))
        };
        // The paper's `vrotate` (Algorithm 3 line 13: lane j takes lane
        // (j + 3) % 4, one `vpermpd`) and `vblend` (line 14: lane 0 from
        // the broadcast bottom, one `vblendpd`).
        shift_up_insert(v: __m256d, bottom: f64) -> __m256d = _mm256_blend_pd::<0b0001>(
            _mm256_permute4x64_pd::<0b10_01_00_11>(v),
            _mm256_set1_pd(bottom),
        );
        // Lane i of the mask vector is all ones where bit i is set, then
        // one `vblendvpd`.
        select(m: Mask<4>, then: __m256d, otherwise: __m256d) -> __m256d = {
            let bit = _mm256_setr_epi64x(1, 2, 4, 8);
            let set = _mm256_and_si256(_mm256_set1_epi64x(m.bits() as i64), bit);
            _mm256_blendv_pd(otherwise, then, _mm256_castsi256_pd(_mm256_cmpeq_epi64(set, bit)))
        };
    }
}

#[cfg(target_arch = "x86_64")]
impl F64Lanes<4> for Ymm {
    lane_ops! {
        mul(a: __m256d, b: __m256d) -> __m256d = _mm256_mul_pd(a, b);
        fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d = _mm256_fmadd_pd(a, b, c);
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes<i32, 8> for Ymm {
    type V = __m256i;

    lane_ops! {
        load(p: I32x8) -> __m256i = _mm256_load_si256(p.0.as_ptr().cast());
        store(v: __m256i) -> I32x8 = {
            let mut out = Pack([0; 8]);
            _mm256_store_si256(out.0.as_mut_ptr().cast(), v);
            out
        };
        splat(v: i32) -> __m256i = _mm256_set1_epi32(v);
        top(v: __m256i) -> i32 = _mm256_extract_epi32::<7>(v);
        // The same rule at eight integer lanes: `vpermd`, `vpblendd`.
        shift_up_insert(v: __m256i, bottom: i32) -> __m256i = _mm256_blend_epi32::<0b0000_0001>(
            _mm256_permutevar8x32_epi32(v, _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6)),
            _mm256_set1_epi32(bottom),
        );
        // As at four lanes; every byte of a mask lane agrees, so the byte
        // blend `vpblendvb` is the lane blend.
        select(m: Mask<8>, then: __m256i, otherwise: __m256i) -> __m256i = {
            let bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            let set = _mm256_and_si256(_mm256_set1_epi32(m.bits() as i32), bit);
            _mm256_blendv_epi8(otherwise, then, _mm256_cmpeq_epi32(set, bit))
        };
    }
}

#[cfg(target_arch = "x86_64")]
impl I32Lanes<8> for Ymm {
    lane_ops! {
        add(a: __m256i, b: __m256i) -> __m256i = _mm256_add_epi32(a, b);
        mullo(a: __m256i, b: __m256i) -> __m256i = _mm256_mullo_epi32(a, b);
        max(a: __m256i, b: __m256i) -> __m256i = _mm256_max_epi32(a, b);
        // `vpcmpeqd`, then `vpblendvb`: every byte of a mask lane agrees,
        // so the byte blend is the lane blend.
        select_eq(a: __m256i, b: __m256i, then: __m256i, otherwise: __m256i) -> __m256i =
            _mm256_blendv_epi8(otherwise, then, _mm256_cmpeq_epi32(a, b));
        // `vpsravd` saturates its counts; the vocabulary wraps them.
        srav(v: __m256i, counts: __m256i) -> __m256i =
            _mm256_srav_epi32(v, _mm256_and_si256(counts, _mm256_set1_epi32(31)));
        and(a: __m256i, b: __m256i) -> __m256i = _mm256_and_si256(a, b);
    }

    #[inline(always)]
    fn load_u8(self, src: &[u8], base: usize, stride: isize) -> __m256i {
        let last = base as isize + 7 * stride;
        assert!(
            base < src.len() && 0 <= last && (last as usize) < src.len(),
            "strided load from {base} by {stride} leaves its {} bytes",
            src.len()
        );
        let lane = |k: isize| {
            // SAFETY: the eight indices lie between the first and the
            // last, both checked above.
            unsafe { *src.get_unchecked((base as isize + k * stride) as usize) as i32 }
        };
        // SAFETY: see `Ymm`.
        unsafe {
            _mm256_setr_epi32(
                lane(0),
                lane(1),
                lane(2),
                lane(3),
                lane(4),
                lane(5),
                lane(6),
                lane(7),
            )
        }
    }

    #[inline(always)]
    fn load_i32(self, src: &[i32], at: usize) -> __m256i {
        let src = &src[at..at + 8];
        // SAFETY: see `Ymm`; `src` is the eight lanes, checked above.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes<f64, 8> for Zmm {
    type V = __m512d;

    lane_ops! {
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
        // The mask is a `k` register as it stands: one merge.
        select(m: Mask<8>, then: __m512d, otherwise: __m512d) -> __m512d =
            _mm512_mask_blend_pd(m.bits() as __mmask8, otherwise, then);
    }
}

#[cfg(target_arch = "x86_64")]
impl F64Lanes<8> for Zmm {
    lane_ops! {
        mul(a: __m512d, b: __m512d) -> __m512d = _mm512_mul_pd(a, b);
        fmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d = _mm512_fmadd_pd(a, b, c);
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes<i32, 16> for Zmm {
    type V = __m512i;

    lane_ops! {
        load(p: Pack<i32, 16>) -> __m512i = _mm512_loadu_si512(p.0.as_ptr().cast());
        store(v: __m512i) -> Pack<i32, 16> = {
            let mut out = Pack([0; 16]);
            _mm512_storeu_si512(out.0.as_mut_ptr().cast(), v);
            out
        };
        splat(v: i32) -> __m512i = _mm512_set1_epi32(v);
        top(v: __m512i) -> i32 = _mm_extract_epi32::<3>(_mm512_extracti32x4_epi32::<3>(v));
        // One `valignd`: lane j of (v : bottom splat) shifted up by one is
        // lane j - 1 of `v`, lane 0 the top lane of the splat.
        shift_up_insert(v: __m512i, bottom: i32) -> __m512i =
            _mm512_alignr_epi32::<15>(v, _mm512_set1_epi32(bottom));
        select(m: Mask<16>, then: __m512i, otherwise: __m512i) -> __m512i =
            _mm512_mask_blend_epi32(m.bits() as __mmask16, otherwise, then);
    }
}

#[cfg(target_arch = "x86_64")]
impl I32Lanes<16> for Zmm {
    lane_ops! {
        add(a: __m512i, b: __m512i) -> __m512i = _mm512_add_epi32(a, b);
        mullo(a: __m512i, b: __m512i) -> __m512i = _mm512_mullo_epi32(a, b);
        max(a: __m512i, b: __m512i) -> __m512i = _mm512_max_epi32(a, b);
        // `vpcmpeqd` into a `k` mask, then a masked move (LLVM folds it
        // into the instruction that produced `then`).
        select_eq(a: __m512i, b: __m512i, then: __m512i, otherwise: __m512i) -> __m512i =
            _mm512_mask_blend_epi32(_mm512_cmpeq_epi32_mask(a, b), otherwise, then);
        // `vpsravd` saturates its counts; the vocabulary wraps them.
        srav(v: __m512i, counts: __m512i) -> __m512i =
            _mm512_srav_epi32(v, _mm512_and_si512(counts, _mm512_set1_epi32(31)));
        and(a: __m512i, b: __m512i) -> __m512i = _mm512_and_si512(a, b);
    }

    #[inline(always)]
    fn load_u8(self, src: &[u8], base: usize, stride: isize) -> __m512i {
        let last = base as isize + 15 * stride;
        assert!(
            base < src.len() && 0 <= last && (last as usize) < src.len(),
            "strided load from {base} by {stride} leaves its {} bytes",
            src.len()
        );
        let lanes: [i32; 16] = core::array::from_fn(|k| {
            // SAFETY: the sixteen indices lie between the first and the
            // last, both checked above.
            unsafe { *src.get_unchecked((base as isize + k as isize * stride) as usize) as i32 }
        });
        // SAFETY: see `Zmm`; `lanes` is sixteen `i32`.
        unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) }
    }

    #[inline(always)]
    fn load_i32(self, src: &[i32], at: usize) -> __m512i {
        let src = &src[at..at + 16];
        // SAFETY: see `Zmm`; `src` is the sixteen lanes, checked above.
        unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::{avx2_available, Ymm, Zmm};
    use crate::lanes::{F64Lanes, I32Lanes, Lanes, Packs};
    use crate::pack::{F64x4, I32x8, Mask, Pack, Scalar};

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

    /// The production rule applied to a one-hot vector per lane: each one
    /// moves up a lane, the top one falls off, `bottom` enters lane 0.
    fn one_hot_rows<L: Lanes<f64, 4>>(isa: L, bottom: f64) -> Vec<[u64; 4]> {
        Vec::from_iter((0..4).map(|lane| {
            let v = F64x4::from_fn(|i| if i == lane { 1.0 + i as f64 } else { 0.0 });
            bits(isa.store(isa.shift_up_insert(isa.load(v), bottom)))
        }))
    }

    /// The columns of a 4×4 block of rows through the vocabulary, column
    /// `j` assembled by inserting rows 3, 2, 1, 0 of it at the bottom — how
    /// the temporal prologue lifts same-time values into input vectors.
    fn columns_by_insert<L: Lanes<f64, 4>>(isa: L, rows: [F64x4; 4]) -> [[u64; 4]; 4] {
        core::array::from_fn(|j| {
            let v = (0..4)
                .rev()
                .fold(isa.splat(0.0), |v, i| isa.shift_up_insert(v, rows[i][j]));
            bits(isa.store(v))
        })
    }

    #[test]
    fn pack_roundtrip() {
        if !avx2_available() {
            return;
        }
        // The vocabulary's load, store and splat keep every bit.
        fn rows<L: Lanes<f64, 4>>(isa: L) -> Vec<[u64; 4]> {
            let odd = p(nan(0xbeef), -0.0, 0.0, -nan(1));
            let splats = odd.0.map(|k| bits(isa.store(isa.splat(k))));
            [vec![bits(isa.store(isa.load(odd)))], splats.to_vec()].concat()
        }
        assert_eq!(rows(ymm()), rows(Packs));
        assert_eq!(rows(Packs)[0], bits(p(nan(0xbeef), -0.0, 0.0, -nan(1))));
    }

    #[test]
    fn rotate_matches_portable() {
        if !avx2_available() {
            return;
        }
        // The rotate half of the production rule, lane by lane: lane j
        // of the result is lane j - 1 of the input, as `Pack::rotate_up`.
        assert_eq!(one_hot_rows(ymm(), -0.0), one_hot_rows(Packs, -0.0));
        for (lane, row) in one_hot_rows(Packs, -0.0).into_iter().enumerate() {
            let v = F64x4::from_fn(|i| if i == lane { 1.0 + i as f64 } else { 0.0 });
            assert_eq!(row, bits(v.rotate_up().replace(0, -0.0)), "lane {lane}");
        }
    }

    #[test]
    fn blend_and_shift_match_portable() {
        if !avx2_available() {
            return;
        }
        let x = p(1.0, 2.0, 3.0, 4.0);
        let s = ymm().store(ymm().shift_up_insert(ymm().load(x), 9.0));
        assert_eq!(s, x.rotate_up().replace(0, 9.0));
        assert_eq!(s, x.shift_up_insert(9.0));
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
        let isa = ymm();
        let r = isa.fmadd(isa.load(a), isa.load(b), isa.load(c));
        assert_eq!(isa.store(r), a.mul_add(b, c));
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
        let top: f64 = ymm().top(ymm().load(p(1.0, 2.0, 3.0, 42.0)));
        assert_eq!(top, 42.0);
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
        // The vocabulary's `vloadset` (`load_u8`) at every stride sign.
        let bytes: Vec<u8> = (0..64).map(|i| (i * 5 % 251) as u8).collect();
        for (base, stride) in [(0usize, 7isize), (49, -7), (5, 3), (63, -9)] {
            let ours = ymm().store(ymm().load_u8(&bytes, base, stride));
            let gold: I32x8 = Packs.load_u8(&bytes, base, stride);
            assert_eq!(ours, gold, "base={base} stride={stride}");
            let model =
                I32x8::from_fn(|i| bytes[(base as isize + i as isize * stride) as usize] as i32);
            assert_eq!(gold, model, "base={base} stride={stride}");
        }
    }

    #[test]
    fn loadu_storeu_roundtrip() {
        if !avx2_available() {
            return;
        }
        // Every window of a slice, through the aligned pack and the
        // token's aligned load and store, lands where it came from.
        let src: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut dst = vec![0.0; 16];
        let isa = ymm();
        for at in 0..=12 {
            isa.store(isa.load(F64x4::load(&src, at)))
                .store(&mut dst, at);
        }
        assert_eq!(src, dst);
    }

    #[test]
    fn epi32_roundtrip_splat_extract() {
        if !avx2_available() {
            return;
        }
        let x = I32x8::from_fn(|i| i as i32 * 3 - 7);
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
        // `add`, `mullo` and `max` through the vocabulary, wrapping at both
        // ends of the range, against the pack operators.
        fn rows<L: I32Lanes<8>>(isa: L, [x, y]: [I32x8; 2]) -> [I32x8; 3] {
            let [x, y] = [x, y].map(|v| isa.load(v));
            [isa.add(x, y), isa.mullo(x, y), isa.max(x, y)].map(|v| isa.store(v))
        }
        let a = I32x8::from_fn(|i| (i as i32) * 5 - 13);
        let b = I32x8::from_fn(|i| 17 - (i as i32) * 3);
        let wide = [
            Pack([i32::MAX, i32::MIN, -1, 1 << 30, 65536, -65536, 7, 0]),
            Pack([1, -1, i32::MIN, 2, 65536, 65537, -3, i32::MIN]),
        ];
        for ops in [[a, b], wide] {
            assert_eq!(rows(ymm(), ops), rows(Packs, ops));
            let [x, y] = ops;
            assert_eq!(rows(Packs, ops), [x + y, x * y, x.max(y)]);
        }
        let [sum, product, _] = rows(Packs, wide);
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
        let gold = I32x8::from_fn(|i| if a[i] == b[i] { take[i] } else { other[i] });
        // Through the vocabulary's one compare-and-blend: a mixed mask
        // takes each lane from its own side, whatever the operands' bits.
        fn rows<L: I32Lanes<8>>(isa: L, ops: [I32x8; 4]) -> [I32x8; 2] {
            let [a, b, take, other] = ops.map(|v| isa.load(v));
            [
                isa.select_eq(a, b, take, other),
                isa.select_eq(take, take, other, take),
            ]
            .map(|v| isa.store(v))
        }
        let ops = [a, b, take, other];
        assert_eq!(rows(ymm(), ops), rows(Packs, ops));
        let [blend, all] = rows(Packs, ops);
        assert!((0..8).any(|i| a[i] == b[i]) && (0..8).any(|i| a[i] != b[i]));
        assert_eq!(blend, gold);
        assert_eq!(all, other);
    }

    #[test]
    fn epi32_variable_shift_matches_scalar_rule_test() {
        if !avx2_available() {
            return;
        }
        // The Life rule test: (mask >> sum) & 1 for sums 0..=7 in lanes.
        fn rule<L: I32Lanes<8>>(isa: L) -> I32x8 {
            let (mask, sums) = (isa.splat(0b1100), isa.load(I32x8::from_fn(|i| i as i32)));
            isa.store(isa.and(isa.srav(mask, sums), isa.splat(1)))
        }
        let gold = I32x8::from_fn(|i| (0b1100 >> i) & 1);
        assert_eq!(rule(ymm()), gold);
        assert_eq!(rule(Packs), gold);
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
        // The steady state's input production: the fused rule equals the
        // portable rotate + blend, at every bottom value.
        let x = I32x8::from_fn(|i| 10 * i as i32 + 1);
        fn rows<L: Lanes<i32, 8>>(isa: L, x: I32x8) -> [I32x8; 3] {
            [99, i32::MIN, -1].map(|b| isa.store(isa.shift_up_insert(isa.load(x), b)))
        }
        assert_eq!(rows(ymm(), x), rows(Packs, x));
        assert_eq!(
            rows(Packs, x),
            [99, i32::MIN, -1].map(|b| x.rotate_up().replace(0, b))
        );
    }

    #[test]
    fn epi32_gathers_match_portable() {
        if !avx2_available() {
            return;
        }
        let bytes: Vec<u8> = (0..64).map(|i| (i * 7 % 251) as u8).collect();
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
            (20, -2),
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
        // The contiguous load: every window, and none past the end.
        let words: Vec<i32> = (0..20).map(|i| i * 7 - 60).collect();
        fn load<L: I32Lanes<8>>(isa: L, words: &[i32], at: usize) -> I32x8 {
            isa.store(isa.load_i32(words, at))
        }
        for at in 0..=12 {
            let gold = I32x8::from_fn(|i| words[at + i]);
            assert_eq!(load(Packs, &words, at), gold, "{at}");
            assert_eq!(load(ymm(), &words, at), gold, "{at}");
        }
        for at in [13, 20, usize::MAX - 3] {
            assert!(std::panic::catch_unwind(|| load(ymm(), &words, at)).is_err());
            assert!(std::panic::catch_unwind(|| load(Packs, &words, at)).is_err());
        }
    }

    /// Sixteen odd `i32` lanes: both ends of the range, zero, ±1.
    fn odd16() -> Pack<i32, 16> {
        Pack([
            i32::MAX,
            i32::MIN,
            -1,
            0,
            1,
            1 << 30,
            65536,
            -65536,
            7,
            -13,
            0x5a5a,
            i32::MIN + 1,
            i32::MAX - 1,
            3,
            -3,
            42,
        ])
    }

    #[test]
    fn zmm_i32_lanes_match_packs() {
        let Some(zmm) = zmm() else {
            return;
        };
        type P = Pack<i32, 16>;
        // load/store/splat/top, the production rule (at odd bottoms and on
        // a one-hot vector per lane), and the arithmetic, wrapping at both
        // ends: every row through the vocabulary, `Zmm` ≡ `Packs`.
        fn rows<L: I32Lanes<16>>(isa: L) -> Vec<P> {
            let odd = odd16();
            let rev = P::from_fn(|i| odd.0[15 - i]);
            let [x, y] = [odd, rev].map(|v| isa.load(v));
            let mut out = vec![isa.store(x)];
            out.extend(odd.0.map(|k| isa.store(isa.splat(k))));
            out.push(P::from_fn(|i| {
                let mut v = P::splat(0);
                v.0[15] = odd.0[i];
                isa.top(isa.load(v))
            }));
            out.extend([i32::MIN, -1, 99].map(|b| isa.store(isa.shift_up_insert(x, b))));
            for lane in 0..16 {
                let hot = P::from_fn(|i| if i == lane { 1 + i as i32 } else { 0 });
                out.push(isa.store(isa.shift_up_insert(isa.load(hot), -7)));
            }
            out.extend([isa.add(x, y), isa.mullo(x, y), isa.max(x, y)].map(|v| isa.store(v)));
            // A mixed mask: lanes 3, 6 and 12 of (x, x-ish) agree.
            let z = isa.load(P::from_fn(|i| match i {
                3 | 6 | 12 => odd.0[i],
                _ => odd.0[i] ^ 1,
            }));
            out.push(isa.store(isa.select_eq(x, z, y, x)));
            // `srav` counts of 32 and more, and negative ones, wrap.
            let counts = isa.load(P::from_fn(|i| [31, 32, 1000, -1, i32::MIN, 2, 0, 5][i % 8]));
            out.extend([isa.srav(x, counts), isa.and(x, counts)].map(|v| isa.store(v)));
            out
        }
        let gold = rows(Packs);
        assert_eq!(rows(zmm), gold);
        let (odd, rev) = (odd16(), P::from_fn(|i| odd16().0[15 - i]));
        assert_eq!(gold[0], odd);
        assert_eq!(gold[17], odd);
        assert_eq!(gold[18], odd.shift_up_insert(i32::MIN));
        for lane in 0..15 {
            assert_eq!(gold[21 + lane].0[lane + 1], 1 + lane as i32, "lane {lane}");
            assert_eq!(gold[21 + lane].0[0], -7);
        }
        assert_eq!(gold[21 + 15], P::from_fn(|i| if i == 0 { -7 } else { 0 }));
        assert_eq!(gold[37], odd + rev);
        assert_eq!(gold[37].0[..2], [i32::MIN + 41, i32::MAX - 2]);
        let select = gold[40];
        for i in 0..16 {
            let want = if [3, 6, 12].contains(&i) {
                rev.0[i]
            } else {
                odd.0[i]
            };
            assert_eq!(select.0[i], want, "lane {i}");
        }
        assert_eq!(gold[41].0[..4], [0, i32::MIN, -1, 0]);
    }

    #[test]
    fn zmm_i32_loads_match_packs() {
        let Some(zmm) = zmm() else {
            return;
        };
        type P = Pack<i32, 16>;
        let bytes: Vec<u8> = (0..200).map(|i| (i * 7 % 251) as u8).collect();
        fn row<L: I32Lanes<16>>(isa: L, bytes: &[u8], base: usize, stride: isize) -> P {
            isa.store(isa.load_u8(bytes, base, stride))
        }
        // The strided load from the first byte, to the last, down to the
        // first — and never past either end.
        for (base, stride) in [(0usize, 13isize), (195, -13), (15, -1), (184, 1), (30, -2)] {
            let gold = P::from_fn(|i| bytes[(base as isize + i as isize * stride) as usize] as i32);
            assert_eq!(row(Packs, &bytes, base, stride), gold, "{base} {stride}");
            assert_eq!(row(zmm, &bytes, base, stride), gold, "{base} {stride}");
        }
        for (base, stride) in [(185usize, 1isize), (14, -1), (200, 0), (0, 14)] {
            let past = std::panic::catch_unwind(|| row(zmm, &bytes, base, stride));
            assert!(past.is_err(), "{base} {stride}");
            let past = std::panic::catch_unwind(|| row(Packs, &bytes, base, stride));
            assert!(past.is_err(), "{base} {stride}");
        }
        // The contiguous load: every window, and none past the end.
        let words: Vec<i32> = (0..40).map(|i| i * 7 - 60).collect();
        fn load<L: I32Lanes<16>>(isa: L, words: &[i32], at: usize) -> P {
            isa.store(isa.load_i32(words, at))
        }
        for at in 0..=24 {
            let gold = P::from_fn(|i| words[at + i]);
            assert_eq!(load(Packs, &words, at), gold, "{at}");
            assert_eq!(load(zmm, &words, at), gold, "{at}");
        }
        for at in [25, 40, usize::MAX - 7] {
            assert!(std::panic::catch_unwind(|| load(zmm, &words, at)).is_err());
            assert!(std::panic::catch_unwind(|| load(Packs, &words, at)).is_err());
        }
    }

    /// `select` by every contiguous lane range `lo..hi` of `N` lanes
    /// (the empty ones included) between `then` and `otherwise`, as bits.
    fn selects<T: Scalar, const N: usize, L: Lanes<T, N>>(
        isa: L,
        [then, otherwise]: [Pack<T, N>; 2],
    ) -> Vec<[u64; N]> {
        let (t, o) = (isa.load(then), isa.load(otherwise));
        let ranges = (0..=N).flat_map(|lo| (lo..=N).map(move |hi| lo..hi));
        let picked = ranges.map(|r| isa.store(isa.select(Mask::lanes(r), t, o)));
        picked.map(|v| v.0.map(T::bits)).collect()
    }

    /// [`selects`] in `isa` and in `Packs`, and `Packs` against the
    /// model: lane `i` from `then` exactly where `lo ≤ i < hi`.
    fn check_selects<T: Scalar, const N: usize, L: Lanes<T, N>>(isa: L, ops: [Pack<T, N>; 2]) {
        let gold = selects(Packs, ops);
        assert_eq!(selects(isa, ops), gold, "{N} lanes");
        let ranges = (0..=N).flat_map(|lo| (lo..=N).map(move |hi| lo..hi));
        for (r, got) in ranges.zip(&gold) {
            let want: [u64; N] =
                core::array::from_fn(|i| ops[!r.contains(&i) as usize].0[i].bits());
            assert_eq!(*got, want, "lanes {r:?} of {N}");
        }
        assert_eq!(gold.len(), (N + 1) * (N + 2) / 2);
    }

    #[test]
    fn select_matches_packs_at_every_lane_range() {
        // NaN payloads and signed zeros on the `f64` side: the select moves
        // bits, whatever they mean.
        let f8 = [odd8(), Pack::from_fn(|i| -(i as f64) - 0.5)];
        let i16 = [odd16(), Pack::from_fn(|i| !(i as i32))];
        if let Some(ymm) = Ymm::detect() {
            check_selects::<f64, 4, _>(ymm, f8.map(|p| Pack::from_fn(|i| p.0[i])));
            check_selects::<i32, 8, _>(ymm, i16.map(|p| Pack::from_fn(|i| p.0[i])));
        }
        if let Some(zmm) = zmm() {
            check_selects::<f64, 8, _>(zmm, f8);
            check_selects::<i32, 16, _>(zmm, i16);
        }
    }

    #[test]
    fn transpose4_matches_portable() {
        if !avx2_available() {
            return;
        }
        let rows: [F64x4; 4] = core::array::from_fn(|i| F64x4::from_fn(|j| (i * 10 + j) as f64));
        let expect: [[u64; 4]; 4] = core::array::from_fn(|j| bits(F64x4::from_fn(|i| rows[i][j])));
        assert_eq!(columns_by_insert(ymm(), rows), expect);
        assert_eq!(columns_by_insert(Packs, rows), expect);
    }
}
