//! Portable fixed-width SIMD packs.
//!
//! Rust has no stable `std::simd`, so the repository carries its own pack
//! type. [`Pack<T, N>`] is a cache-friendly, 32-byte aligned fixed-size
//! vector whose operations mirror the instruction set the paper's kernels
//! are written against (AVX on the authors' machine):
//!
//! * element-wise arithmetic (`+`, `-`, `*`, [`Pack::mul_add`],
//!   [`Pack::min`], [`Pack::max`]),
//! * the data-reorganization operations of Algorithm 3 — lane rotation
//!   ([`Pack::rotate_up`], the paper's `vrotate`), lane replacement
//!   ([`Pack::replace`], the paper's `vblend` with an immediate mask), and
//!   strided gathers ([`Pack::gather`], the paper's `vloadset` /
//!   `_mm256_set_pd`),
//! * comparisons producing [`Mask`]s plus [`Pack::select`] (used by the
//!   LCS kernel's equality blend),
//! * cross-pack shuffles used by the spatial-vectorization baselines
//!   ([`Pack::align_pair`], the `palignr`-style concatenate-and-shift).
//!
//! With `-C target-cpu=native` LLVM lowers these packs onto the native
//! vector unit; the [`crate::arch`] module additionally provides hand-rolled
//! `std::arch` AVX2 versions of the hot operations, which are
//! equivalence-tested against this portable model.
//!
//! # Lane convention
//!
//! Lane `0` is the **lowest** (least significant, first in memory) lane and
//! lane `N-1` the **highest** ("top") lane. The temporal-vectorization
//! convention used throughout the workspace stores *older* time coordinates
//! in *lower* lanes; see `tempora-core` for the full picture.

use core::fmt;
use core::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// Element types that can live inside a [`Pack`].
///
/// The trait deliberately exposes a *closed* set of deterministic scalar
/// operations: every kernel in the workspace (scalar reference, baseline and
/// temporal) is written against these exact operations, so optimized paths
/// can be compared **bit-for-bit** against the scalar oracle. In particular
/// `Scalar::mul_add` is always the IEEE-754 fused multiply-add for floats
/// (never contracted or un-contracted by the optimizer behind our back) and
/// integer arithmetic wraps (the kernels keep values far from the limits;
/// wrapping avoids spurious overflow panics under `overflow-checks = true`).
pub trait Scalar:
    Copy + PartialEq + PartialOrd + Default + fmt::Debug + Send + Sync + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// A poison value that no correct kernel should ever produce or read:
    /// `NaN` for floats, a recognizable sentinel for integers. Test
    /// harnesses fill padding regions with it to detect out-of-bounds
    /// accesses (see `tempora-grid`).
    const CANARY: Self;

    /// `self + rhs` (wrapping for integers).
    fn add_s(self, rhs: Self) -> Self;
    /// `self - rhs` (wrapping for integers).
    fn sub_s(self, rhs: Self) -> Self;
    /// `self * rhs` (wrapping for integers).
    fn mul_s(self, rhs: Self) -> Self;
    /// Fused `self * m + a` for floats; wrapping `self * m + a` for integers.
    fn mul_add_s(self, m: Self, a: Self) -> Self;
    /// Numeric minimum.
    fn min_s(self, rhs: Self) -> Self;
    /// Numeric maximum.
    fn max_s(self, rhs: Self) -> Self;
    /// Negation.
    fn neg_s(self) -> Self;
    /// Lossy conversion from `usize`, for test patterns and initializers.
    fn from_index(i: usize) -> Self;
    /// Lossy conversion to `f64`, for error metrics and reporting.
    fn to_f64(self) -> f64;
    /// Branch-free conditional: `if m { a } else { b }`. Integer
    /// implementations use bit masking so data-dependent selects never
    /// become mispredicted branches; float implementations rely on the
    /// compiler's conditional-move/blend lowering.
    fn select_s(m: bool, a: Self, b: Self) -> Self;
    /// True when the value is the canary / poison pattern (`NaN`-aware for
    /// floats, where `== CANARY` would always be false).
    fn is_canary(self) -> bool;
    /// The value's bit pattern, widened: equal exactly when two values are
    /// the same bits — unlike `==`, which calls a `NaN` different from
    /// itself and `-0.0` equal to `0.0`.
    fn bits(self) -> u64;
}

macro_rules! impl_scalar_float {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const CANARY: Self = <$t>::NAN;
            #[inline(always)]
            fn add_s(self, rhs: Self) -> Self {
                self + rhs
            }
            #[inline(always)]
            fn sub_s(self, rhs: Self) -> Self {
                self - rhs
            }
            #[inline(always)]
            fn mul_s(self, rhs: Self) -> Self {
                self * rhs
            }
            #[inline(always)]
            fn mul_add_s(self, m: Self, a: Self) -> Self {
                self.mul_add(m, a)
            }
            #[inline(always)]
            fn min_s(self, rhs: Self) -> Self {
                if self < rhs {
                    self
                } else {
                    rhs
                }
            }
            #[inline(always)]
            fn max_s(self, rhs: Self) -> Self {
                if self > rhs {
                    self
                } else {
                    rhs
                }
            }
            #[inline(always)]
            fn neg_s(self) -> Self {
                -self
            }
            #[inline(always)]
            fn from_index(i: usize) -> Self {
                i as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn is_canary(self) -> bool {
                self.is_nan()
            }
            #[inline(always)]
            fn bits(self) -> u64 {
                self.to_bits().into()
            }
            #[inline(always)]
            fn select_s(m: bool, a: Self, b: Self) -> Self {
                if m {
                    a
                } else {
                    b
                }
            }
        }
    };
}

macro_rules! impl_scalar_int {
    ($t:ty) => {
        impl Scalar for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            // 0x5A repeated: stands out in hex dumps and is far from the
            // small values the integer kernels (Life, LCS) produce.
            const CANARY: Self = 0x5A5A5A5A as $t;
            #[inline(always)]
            fn add_s(self, rhs: Self) -> Self {
                self.wrapping_add(rhs)
            }
            #[inline(always)]
            fn sub_s(self, rhs: Self) -> Self {
                self.wrapping_sub(rhs)
            }
            #[inline(always)]
            fn mul_s(self, rhs: Self) -> Self {
                self.wrapping_mul(rhs)
            }
            #[inline(always)]
            fn mul_add_s(self, m: Self, a: Self) -> Self {
                self.wrapping_mul(m).wrapping_add(a)
            }
            #[inline(always)]
            fn min_s(self, rhs: Self) -> Self {
                if self < rhs {
                    self
                } else {
                    rhs
                }
            }
            #[inline(always)]
            fn max_s(self, rhs: Self) -> Self {
                if self > rhs {
                    self
                } else {
                    rhs
                }
            }
            #[inline(always)]
            fn neg_s(self) -> Self {
                self.wrapping_neg()
            }
            #[inline(always)]
            fn from_index(i: usize) -> Self {
                i as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn is_canary(self) -> bool {
                self == Self::CANARY
            }
            #[inline(always)]
            fn bits(self) -> u64 {
                // Sign extension keeps distinct values distinct.
                self as u64
            }
            #[inline(always)]
            fn select_s(m: bool, a: Self, b: Self) -> Self {
                let mask = (m as $t).wrapping_neg();
                (a & mask) | (b & !mask)
            }
        }
    };
}

impl_scalar_float!(f32);
impl_scalar_float!(f64);
impl_scalar_int!(i32);
impl_scalar_int!(i64);

/// A per-lane boolean mask produced by pack comparisons and consumed by
/// [`Pack::select`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mask<const N: usize>(pub [bool; N]);

impl<const N: usize> Mask<N> {
    /// Mask with every lane set to `b`.
    #[inline(always)]
    pub fn splat(b: bool) -> Self {
        Mask([b; N])
    }

    /// Build a mask lane-by-lane.
    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> bool) -> Self {
        Mask(core::array::from_fn(f))
    }

    /// True if any lane is set.
    #[inline(always)]
    pub fn any(&self) -> bool {
        self.0.iter().any(|&b| b)
    }

    /// True if every lane is set.
    #[inline(always)]
    pub fn all(&self) -> bool {
        self.0.iter().all(|&b| b)
    }

    /// Lane-wise logical AND (non-short-circuit, branchless).
    #[inline(always)]
    pub fn and(self, rhs: Self) -> Self {
        Mask(core::array::from_fn(|i| self.0[i] & rhs.0[i]))
    }

    /// Lane-wise logical OR (non-short-circuit, branchless).
    #[inline(always)]
    pub fn or(self, rhs: Self) -> Self {
        Mask(core::array::from_fn(|i| self.0[i] | rhs.0[i]))
    }

    /// Lane-wise logical NOT.
    ///
    /// An inherent method (not the `std::ops::Not` trait) so call sites
    /// read as the mask vocabulary `m.not().and(k)` used throughout.
    #[inline(always)]
    // Justification: lane-wise logical not; an inherent method keeps call sites trait-import-free.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Mask(core::array::from_fn(|i| !self.0[i]))
    }
}

/// Fixed-width SIMD pack of `N` lanes of `T`.
///
/// See the [module documentation](self) for the lane convention and the
/// mapping onto the paper's vector operations.
#[derive(Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct Pack<T, const N: usize>(pub [T; N]);

impl<T: Scalar, const N: usize> Default for Pack<T, N> {
    #[inline(always)]
    fn default() -> Self {
        Self::splat(T::ZERO)
    }
}

impl<T: Scalar, const N: usize> fmt::Debug for Pack<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pack{:?}", self.0)
    }
}

impl<T: Scalar, const N: usize> Pack<T, N> {
    /// Number of lanes.
    pub const LANES: usize = N;

    /// Pack with every lane equal to `v` (a broadcast).
    #[inline(always)]
    pub fn splat(v: T) -> Self {
        Pack([v; N])
    }

    /// Build a pack lane-by-lane.
    #[inline(always)]
    pub fn from_fn(f: impl FnMut(usize) -> T) -> Self {
        Pack(core::array::from_fn(f))
    }

    /// Contiguous load of `N` elements starting at `src[at]`.
    ///
    /// Panics (via slice indexing) if the range is out of bounds. This is
    /// the portable stand-in for both aligned and unaligned vector loads;
    /// the distinction only matters in [`crate::arch`].
    #[inline(always)]
    pub fn load(src: &[T], at: usize) -> Self {
        let s = &src[at..at + N];
        Pack(core::array::from_fn(|i| s[i]))
    }

    /// Contiguous store of all `N` lanes into `dst[at..at+N]`.
    #[inline(always)]
    pub fn store(self, dst: &mut [T], at: usize) {
        dst[at..at + N].copy_from_slice(&self.0);
    }

    /// Strided gather: lane `i` reads `src[(base as isize + i as isize*stride) as usize]`.
    ///
    /// This is the paper's `vloadset` (`_mm256_set_pd`): the initial input
    /// vectors of the temporal scheme gather values whose spacing in memory
    /// is the space stride `s` (§3.2, Algorithm 3 lines 5-7). `stride` may
    /// be negative, which the temporal convention uses to place *older*
    /// time coordinates (lower lanes) at *larger* space coordinates.
    #[inline(always)]
    pub fn gather(src: &[T], base: usize, stride: isize) -> Self {
        Pack(core::array::from_fn(|i| {
            let idx = base as isize + i as isize * stride;
            src[idx as usize]
        }))
    }

    /// Strided scatter: lane `i` writes `dst[(base as isize + i as isize*stride) as usize]`.
    #[inline(always)]
    pub fn scatter(self, dst: &mut [T], base: usize, stride: isize) {
        for i in 0..N {
            let idx = base as isize + i as isize * stride;
            dst[idx as usize] = self.0[i];
        }
    }

    /// Extract lane `i`.
    #[inline(always)]
    pub fn extract(self, i: usize) -> T {
        self.0[i]
    }

    /// Return a copy with lane `i` replaced by `v`.
    ///
    /// This is the paper's `vblend` with a one-hot immediate mask
    /// (Algorithm 3 line 14 blends the new bottom element into the rotated
    /// output vector).
    #[inline(always)]
    pub fn replace(mut self, i: usize, v: T) -> Self {
        self.0[i] = v;
        self
    }

    /// The highest ("top") lane, `N-1`.
    #[inline(always)]
    pub fn top(self) -> T {
        self.0[N - 1]
    }

    /// The lowest ("bottom") lane, `0`.
    #[inline(always)]
    pub fn bottom(self) -> T {
        self.0[0]
    }

    /// Rotate lanes one step towards the top: lane `j` of the result is lane
    /// `j-1` of the input, and the old top lane wraps around to lane `0`.
    ///
    /// This is the paper's `vrotate` (Algorithm 3 line 13). On AVX it is a
    /// *lane-crossing* permute (`vpermpd`, ~3 cycle latency) — see
    /// [`crate::count`] for the in-lane/lane-crossing cost model of §3.3.
    #[inline(always)]
    pub fn rotate_up(self) -> Self {
        Pack(core::array::from_fn(|j| self.0[(j + N - 1) % N]))
    }

    /// Rotate lanes one step towards the bottom: lane `j` of the result is
    /// lane `j+1` of the input, and the old bottom lane wraps to lane `N-1`.
    #[inline(always)]
    pub fn rotate_down(self) -> Self {
        Pack(core::array::from_fn(|j| self.0[(j + 1) % N]))
    }

    /// The steady-state input-vector production rule of the temporal scheme
    /// (Algorithm 3 lines 13-14 fused): shift every lane one step up,
    /// dropping the old top lane, and insert `bottom` into lane 0.
    ///
    /// Given an output vector `(a⁴_x, a³_{x+s}, a²_{x+2s}, a¹_{x+3s})`
    /// (top lane listed first) and the new bottom element `a⁰_{x+4s}`, this
    /// produces the next input vector `(a³_{x+s}, a²_{x+2s}, a¹_{x+3s},
    /// a⁰_{x+4s})`.
    #[inline(always)]
    pub fn shift_up_insert(self, bottom: T) -> Self {
        Pack(core::array::from_fn(|j| {
            if j == 0 {
                bottom
            } else {
                self.0[j - 1]
            }
        }))
    }

    /// The mirror of [`Pack::shift_up_insert`]: shift every lane one step
    /// down, dropping the old bottom lane, and insert `top` into lane
    /// `N-1`. Used by the DLT baseline's right-edge column assembly.
    #[inline(always)]
    pub fn shift_down_insert(self, top: T) -> Self {
        Pack(core::array::from_fn(|j| {
            if j == N - 1 {
                top
            } else {
                self.0[j + 1]
            }
        }))
    }

    /// Concatenate `lo ++ hi` (as 2N lanes, `lo` in the lower half) and
    /// extract `N` consecutive lanes starting at lane `shift`.
    ///
    /// `align_pair(a, b, 0) == a`, `align_pair(a, b, N) == b`. This is the
    /// `palignr`/`valignd`-style shuffle used by the data-reorganization
    /// baseline (§2.2) to assemble unaligned neighbour vectors from two
    /// aligned loads.
    #[inline(always)]
    pub fn align_pair(lo: Self, hi: Self, shift: usize) -> Self {
        debug_assert!(shift <= N);
        Pack(core::array::from_fn(|j| {
            let k = j + shift;
            if k < N {
                lo.0[k]
            } else {
                hi.0[k - N]
            }
        }))
    }

    /// Reverse the lane order.
    #[inline(always)]
    pub fn reverse(self) -> Self {
        Pack(core::array::from_fn(|j| self.0[N - 1 - j]))
    }

    /// Fused multiply-add, lane-wise: `self * m + a`.
    ///
    /// Every floating-point kernel in the workspace goes through this single
    /// deterministic operation so that scalar references and vectorized
    /// kernels agree bit-for-bit.
    #[inline(always)]
    pub fn mul_add(self, m: Self, a: Self) -> Self {
        Pack(core::array::from_fn(|i| {
            self.0[i].mul_add_s(m.0[i], a.0[i])
        }))
    }

    /// Lane-wise minimum.
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        Pack(core::array::from_fn(|i| self.0[i].min_s(rhs.0[i])))
    }

    /// Lane-wise maximum.
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        Pack(core::array::from_fn(|i| self.0[i].max_s(rhs.0[i])))
    }

    /// Lane-wise equality mask.
    #[inline(always)]
    pub fn eq_mask(self, rhs: Self) -> Mask<N> {
        Mask(core::array::from_fn(|i| self.0[i] == rhs.0[i]))
    }

    /// Lane-wise `<` mask.
    #[inline(always)]
    pub fn lt_mask(self, rhs: Self) -> Mask<N> {
        Mask(core::array::from_fn(|i| self.0[i] < rhs.0[i]))
    }

    /// Lane-wise select: lane `i` of the result is `a[i]` where `mask[i]`
    /// is set and `b[i]` otherwise (the AVX `blendv` family).
    #[inline(always)]
    pub fn select(mask: Mask<N>, a: Self, b: Self) -> Self {
        Pack(core::array::from_fn(|i| {
            T::select_s(mask.0[i], a.0[i], b.0[i])
        }))
    }

    /// Lane-wise application of an arbitrary scalar function (slow path —
    /// used by tests and non-hot code only).
    #[inline]
    pub fn map(self, mut f: impl FnMut(T) -> T) -> Self {
        Pack(core::array::from_fn(|i| f(self.0[i])))
    }

    /// Horizontal sum (`lane 0 + lane 1 + …`, left to right — the order is
    /// part of the contract so tests can reproduce it exactly).
    #[inline(always)]
    pub fn hsum(self) -> T {
        let mut acc = self.0[0];
        for i in 1..N {
            acc = acc.add_s(self.0[i]);
        }
        acc
    }

    /// View as an immutable slice of lanes.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }
}

impl<T: Scalar, const N: usize> Add for Pack<T, N> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Pack(core::array::from_fn(|i| self.0[i].add_s(rhs.0[i])))
    }
}

impl<T: Scalar, const N: usize> Sub for Pack<T, N> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Pack(core::array::from_fn(|i| self.0[i].sub_s(rhs.0[i])))
    }
}

impl<T: Scalar, const N: usize> Mul for Pack<T, N> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Pack(core::array::from_fn(|i| self.0[i].mul_s(rhs.0[i])))
    }
}

impl<T: Scalar, const N: usize> Neg for Pack<T, N> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Pack(core::array::from_fn(|i| self.0[i].neg_s()))
    }
}

impl<T, const N: usize> Index<usize> for Pack<T, N> {
    type Output = T;
    #[inline(always)]
    fn index(&self, i: usize) -> &T {
        &self.0[i]
    }
}

impl<T, const N: usize> IndexMut<usize> for Pack<T, N> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.0[i]
    }
}

/// In-register `N×N` transpose: `rows[i][j]` becomes `rows[j][i]`.
///
/// Used by the DLT baseline (§2.2) and by the temporal scheme's initial
/// input-vector loading / final output-vector storing (§3.3): `N`
/// consecutive vectors holding same-time values are transposed into `N`
/// input vectors holding mixed-time values, and vice versa.
#[inline]
pub fn transpose<T: Scalar, const N: usize>(rows: &mut [Pack<T, N>; N]) {
    for i in 0..N {
        for j in (i + 1)..N {
            let a = rows[i].0[j];
            let b = rows[j].0[i];
            rows[i].0[j] = b;
            rows[j].0[i] = a;
        }
    }
}

/// Common 4-lane double-precision pack — the paper's AVX `vl = 4` register.
pub type F64x4 = Pack<f64, 4>;
/// 8-lane single-precision pack.
pub type F32x8 = Pack<f32, 8>;
/// 8-lane 32-bit integer pack — used by the Life and LCS kernels
/// (`vl = 8`, the paper's "theoretical maximal speedup of 8" for LCS).
pub type I32x8 = Pack<i32, 8>;
/// 4-lane 64-bit integer pack.
pub type I64x4 = Pack<i64, 4>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_extract() {
        let p = F64x4::splat(2.5);
        for i in 0..4 {
            assert_eq!(p.extract(i), 2.5);
        }
        assert_eq!(p.top(), 2.5);
        assert_eq!(p.bottom(), 2.5);
    }

    #[test]
    fn load_store_roundtrip() {
        let src: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut dst = vec![0.0; 16];
        for at in 0..=12 {
            let p = F64x4::load(&src, at);
            p.store(&mut dst, at);
        }
        assert_eq!(src, dst);
    }

    #[test]
    fn gather_negative_stride_matches_temporal_layout() {
        // Input vector of Algorithm 3 line 5 with s = 2:
        // lane 3 = a[x], lane 2 = a[x+s], lane 1 = a[x+2s], lane 0 = a[x+3s]
        // i.e. base = x + 3s, stride = -s walking lane 0 -> 3.
        let a: Vec<f64> = (0..32).map(|i| i as f64 * 10.0).collect();
        let (x, s) = (3usize, 2isize);
        let base = x + 3 * s as usize;
        let v = F64x4::gather(&a, base, -s);
        assert_eq!(v.0, [a[x + 6], a[x + 4], a[x + 2], a[x]]);
    }

    #[test]
    fn scatter_inverts_gather() {
        let src: Vec<i32> = (0..64).collect();
        let v = I32x8::gather(&src, 7, 7);
        let mut dst = vec![0i32; 64];
        v.scatter(&mut dst, 7, 7);
        for i in 0..8 {
            assert_eq!(dst[7 + 7 * i], src[7 + 7 * i]);
        }
    }

    #[test]
    fn rotate_up_matches_paper_vrotate() {
        // Paper line 13: (a4, a3, a2, a1) -> (a3, a2, a1, a4), written
        // top-lane-first. In lane-index order (bottom first) that is
        // (a1, a2, a3, a4) -> (a4, a1, a2, a3).
        let v = Pack([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.rotate_up().0, [4.0, 1.0, 2.0, 3.0]);
        assert_eq!(v.rotate_down().0, [2.0, 3.0, 4.0, 1.0]);
        assert_eq!(v.rotate_up().rotate_down(), v);
    }

    #[test]
    fn shift_up_insert_is_rotate_plus_blend() {
        let o = Pack([1.0, 2.0, 3.0, 4.0]);
        let fused = o.shift_up_insert(0.5);
        let two_step = o.rotate_up().replace(0, 0.5);
        assert_eq!(fused, two_step);
        assert_eq!(fused.0, [0.5, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn shift_down_insert_is_rotate_plus_blend() {
        let o = Pack([1.0, 2.0, 3.0, 4.0]);
        let fused = o.shift_down_insert(9.0);
        assert_eq!(fused, o.rotate_down().replace(3, 9.0));
        assert_eq!(fused.0, [2.0, 3.0, 4.0, 9.0]);
        // shift_down inverts shift_up on the overlapping lanes.
        let up = o.shift_up_insert(0.0);
        assert_eq!(up.shift_down_insert(9.0).0, [1.0, 2.0, 3.0, 9.0]);
    }

    #[test]
    fn align_pair_endpoints_and_middle() {
        let a = I32x8::from_fn(|i| i as i32);
        let b = I32x8::from_fn(|i| 100 + i as i32);
        assert_eq!(I32x8::align_pair(a, b, 0), a);
        assert_eq!(I32x8::align_pair(a, b, 8), b);
        let m = I32x8::align_pair(a, b, 3);
        assert_eq!(m.0, [3, 4, 5, 6, 7, 100, 101, 102]);
    }

    #[test]
    fn mul_add_is_fused() {
        // With a true FMA the product is kept at full precision before the
        // add; (1 + 2^-30)^2 - 1 - 2*2^-30 == 2^-60 exactly under FMA but 0
        // under separate rounding.
        let eps = (2.0f64).powi(-30);
        let x = 1.0 + eps;
        let p = F64x4::splat(x);
        let r = p.mul_add(p, F64x4::splat(-(1.0 + 2.0 * eps)));
        assert_eq!(r.extract(0), (2.0f64).powi(-60));
    }

    #[test]
    fn select_and_masks() {
        let a = I32x8::from_fn(|i| i as i32);
        let b = I32x8::splat(-1);
        let m = a.lt_mask(I32x8::splat(4));
        let r = I32x8::select(m, a, b);
        assert_eq!(r.0, [0, 1, 2, 3, -1, -1, -1, -1]);
        assert!(m.any() && !m.all());
        assert_eq!(m.not().and(m), Mask::splat(false));
        assert_eq!(m.not().or(m), Mask::splat(true));
    }

    #[test]
    fn eq_mask_lcs_blend_shape() {
        // The LCS kernel: select(eq, diag + 1, max(left, up)).
        let diag = I32x8::splat(5);
        let left = I32x8::from_fn(|i| i as i32);
        let up = I32x8::from_fn(|i| 7 - i as i32);
        let a = I32x8::from_fn(|i| (i % 2) as i32);
        let b = I32x8::splat(1);
        let eq = a.eq_mask(b);
        let r = I32x8::select(eq, diag + I32x8::splat(1), left.max(up));
        for i in 0..8 {
            let expect = if i % 2 == 1 {
                6
            } else {
                (i as i32).max(7 - i as i32)
            };
            assert_eq!(r.extract(i), expect);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rows: [F64x4; 4] =
            core::array::from_fn(|i| F64x4::from_fn(|j| (10 * i + j) as f64));
        let orig = rows;
        transpose(&mut rows);
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.0.iter().enumerate() {
                assert_eq!(*v, orig[j].0[i]);
            }
        }
        transpose(&mut rows);
        assert_eq!(rows, orig);
    }

    #[test]
    fn hsum_order_is_left_to_right() {
        let p = Pack([1e16, 1.0, -1e16, 1.0]);
        // ((1e16 + 1) - 1e16) + 1 = 1 under f64 (1e16+1 rounds to 1e16).
        assert_eq!(p.hsum(), 1.0);
    }

    #[test]
    fn alignment_is_32_bytes() {
        assert_eq!(core::mem::align_of::<F64x4>(), 32);
        assert_eq!(core::mem::align_of::<I32x8>(), 32);
        let v = [F64x4::default(); 3];
        for p in &v {
            assert_eq!(p as *const _ as usize % 32, 0);
        }
    }

    #[test]
    fn arithmetic_elementwise() {
        let a = Pack([1.0, 2.0, 3.0, 4.0]);
        let b = Pack([0.5, 0.25, 2.0, -1.0]);
        assert_eq!((a + b).0, [1.5, 2.25, 5.0, 3.0]);
        assert_eq!((a - b).0, [0.5, 1.75, 1.0, 5.0]);
        assert_eq!((a * b).0, [0.5, 0.5, 6.0, -4.0]);
        assert_eq!((-a).0, [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(a.min(b).0, [0.5, 0.25, 2.0, -1.0]);
        assert_eq!(a.max(b).0, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn reverse_lanes() {
        let a = I32x8::from_fn(|i| i as i32);
        assert_eq!(a.reverse().0, [7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn integer_ops_wrap_instead_of_panicking() {
        let a = I32x8::splat(i32::MAX);
        let r = a + I32x8::splat(1);
        assert_eq!(r.extract(0), i32::MIN);
        let m = I32x8::splat(i32::MAX).mul_add(I32x8::splat(2), I32x8::splat(3));
        assert_eq!(m.extract(0), i32::MAX.wrapping_mul(2).wrapping_add(3));
    }
}
