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
//! `k`-mask `vblendmpd`) — the paper's "irrelevant to the vector length"
//! made an instantiation.
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
    crate::pack::{F64x4, I32x8, Pack},
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
    }
}

#[cfg(target_arch = "x86_64")]
impl I32Lanes<8> for Ymm {
    lane_ops! {
        add(a: __m256i, b: __m256i) -> __m256i = _mm256_add_epi32(a, b);
        mullo(a: __m256i, b: __m256i) -> __m256i = _mm256_mullo_epi32(a, b);
        max(a: __m256i, b: __m256i) -> __m256i = _mm256_max_epi32(a, b);
        cmpeq(a: __m256i, b: __m256i) -> __m256i = _mm256_cmpeq_epi32(a, b);
        // `vpblendvb`: every byte of a mask lane agrees, so the byte blend
        // is the lane blend.
        blendv(b: __m256i, a: __m256i, mask: __m256i) -> __m256i = _mm256_blendv_epi8(b, a, mask);
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
    }
}

#[cfg(target_arch = "x86_64")]
impl F64Lanes<8> for Zmm {
    lane_ops! {
        mul(a: __m512d, b: __m512d) -> __m512d = _mm512_mul_pd(a, b);
        fmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d = _mm512_fmadd_pd(a, b, c);
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::{avx2_available, Ymm, Zmm};
    use crate::lanes::{F64Lanes, I32Lanes, Lanes, Packs};
    use crate::pack::{F64x4, I32x8, Pack};

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
