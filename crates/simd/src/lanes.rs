//! The lane vocabulary: everything a temporal steady state asks of a
//! register file, as traits over an opaque register type.
//!
//! The paper's loop body — apply the stencil to `V(x-1), V(x), V(x+1)`,
//! store the top lane, one rotate and one blend — is "irrelevant to the
//! vector length, stencil order, and dimension", so `tempora-core` writes
//! it once per kernel family, generic over `L:` [`Lanes`], and
//! `tempora-stencil` writes each update formula once, generic over the
//! arithmetic of its element type ([`F64Lanes`], [`I32Lanes`]). An engine
//! is an implementor:
//!
//! * [`Packs`] — the register is the [`Pack`] itself and every operation
//!   the portable pack operation: instruction selection is LLVM's;
//! * [`crate::arch::Ymm`] — `ymm` registers and the exact AVX2
//!   instructions the paper's §3.3 cost analysis names, one intrinsic per
//!   method;
//! * [`crate::arch::Zmm`] — `zmm` registers at eight `f64` lanes
//!   (`Lanes<f64, 8>`, `F64Lanes<8>`) and sixteen `i32` lanes
//!   (`Lanes<i32, 16>`, `I32Lanes<16>`): the same rule one register wider,
//!   where the rotate and the blend are one instruction — `vpermt2pd` or
//!   `valignd` over the vector and the splatted bottom.
//!
//! A wider register file is one more implementor, not one more copy of
//! every steady state: `Zmm` is exactly that, and the 1-D ring, the 2-D
//! slab rows and the LCS band sweep run on it unchanged.
//!
//! Every method of every implementor is `#[inline(always)]` and written
//! over explicit intrinsics or the packs' explicit lane loops: a steady
//! state reaches its instructions only by being inlined, vocabulary
//! included, into the codegen context of its engine (`cargo xtask audit`,
//! rule `phase-inline`, guards the attributes). [`crate::arch`]'s tests
//! hold each implementor lane for lane equal to `Packs`.

use crate::pack::{Mask, Pack, Scalar};

/// What every steady state does whatever its kernel: move vectors between
/// their stored form and registers, broadcast a coefficient, take the
/// finished top lane, and produce the next input vector.
pub trait Lanes<T: Scalar, const VL: usize>: Copy {
    /// An input or output vector in a register.
    type V: Copy;
    /// Load a stored vector.
    fn load(self, p: Pack<T, VL>) -> Self::V;
    /// The stored form of `v`.
    fn store(self, v: Self::V) -> Pack<T, VL>;
    /// `v` in every lane.
    fn splat(self, v: T) -> Self::V;
    /// The finished top lane of an output vector.
    fn top(self, v: Self::V) -> T;
    /// The next input vector from an output vector: one rotate and one
    /// blend, lanes up one level and `bottom` (level 0) into lane 0.
    fn shift_up_insert(self, v: Self::V, bottom: T) -> Self::V;
    /// Lane-wise `then` where `m` is set, `otherwise` elsewhere: one
    /// blend (the 1-D sweep's ends keep the boundary in the lanes whose
    /// cells leave the grid with it).
    fn select(self, m: Mask<VL>, then: Self::V, otherwise: Self::V) -> Self::V;
}

/// The arithmetic of the `f64` kernels: every update is a chain of fused
/// multiply-adds ending in one multiply.
pub trait F64Lanes<const VL: usize>: Lanes<f64, VL> {
    /// Lane-wise `a·b`.
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise fused `a·b + c`, rounded once.
    fn fmadd(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
}

/// The arithmetic of the `i32` kernels (Life, LCS). A *mask* is a vector
/// whose lanes are all ones or all zeros.
pub trait I32Lanes<const VL: usize>: Lanes<i32, VL> {
    /// Lane-wise wrapping `a + b`.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise wrapping `a·b` (low 32 bits).
    fn mullo(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise signed maximum.
    fn max(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `then` where `a == b`, `otherwise` elsewhere: the
    /// paper's "blend instruction with a mask vector of equalities" (LCS,
    /// §3.4), one compare and one blend.
    fn select_eq(self, a: Self::V, b: Self::V, then: Self::V, otherwise: Self::V) -> Self::V;
    /// Lane-wise arithmetic `v >> counts`, the counts taken modulo 32.
    fn srav(self, v: Self::V, counts: Self::V) -> Self::V;
    /// Lane-wise bitwise `a & b`.
    fn and(self, a: Self::V, b: Self::V) -> Self::V;
    /// Strided byte load, widened: lane `i` is
    /// `src[base + i·stride] as i32` (the paper's `vloadset`; LCS reads
    /// its `B` characters, the "variable coefficient" of §3.4, with it).
    ///
    /// # Panics
    /// Panics if a lane's index is out of bounds.
    fn load_u8(self, src: &[u8], base: usize, stride: isize) -> Self::V;
    /// Contiguous load: lane `i` is `src[at + i]` (LCS reads its `B`
    /// characters from a lane layout with it, see `tempora_core::lcs`).
    ///
    /// # Panics
    /// Panics if `at + VL` exceeds `src.len()`.
    fn load_i32(self, src: &[i32], at: usize) -> Self::V;
}

/// The portable register form: the pack itself, LLVM's choice of
/// instructions.
#[derive(Clone, Copy, Debug)]
pub struct Packs;

impl<T: Scalar, const VL: usize> Lanes<T, VL> for Packs {
    type V = Pack<T, VL>;

    #[inline(always)]
    fn load(self, p: Pack<T, VL>) -> Pack<T, VL> {
        p
    }

    #[inline(always)]
    fn store(self, v: Pack<T, VL>) -> Pack<T, VL> {
        v
    }

    #[inline(always)]
    fn splat(self, v: T) -> Pack<T, VL> {
        Pack::splat(v)
    }

    #[inline(always)]
    fn top(self, v: Pack<T, VL>) -> T {
        v.top()
    }

    #[inline(always)]
    fn shift_up_insert(self, v: Pack<T, VL>, bottom: T) -> Pack<T, VL> {
        v.shift_up_insert(bottom)
    }

    #[inline(always)]
    fn select(self, m: Mask<VL>, then: Pack<T, VL>, otherwise: Pack<T, VL>) -> Pack<T, VL> {
        Pack::from_fn(|i| {
            if m.bits() >> i & 1 == 1 {
                then.0[i]
            } else {
                otherwise.0[i]
            }
        })
    }
}

impl<const VL: usize> F64Lanes<VL> for Packs {
    #[inline(always)]
    fn mul(self, a: Pack<f64, VL>, b: Pack<f64, VL>) -> Pack<f64, VL> {
        a * b
    }

    #[inline(always)]
    fn fmadd(self, a: Pack<f64, VL>, b: Pack<f64, VL>, c: Pack<f64, VL>) -> Pack<f64, VL> {
        a.mul_add(b, c)
    }
}

impl<const VL: usize> I32Lanes<VL> for Packs {
    #[inline(always)]
    fn add(self, a: Pack<i32, VL>, b: Pack<i32, VL>) -> Pack<i32, VL> {
        a + b
    }

    #[inline(always)]
    fn mullo(self, a: Pack<i32, VL>, b: Pack<i32, VL>) -> Pack<i32, VL> {
        a * b
    }

    #[inline(always)]
    fn max(self, a: Pack<i32, VL>, b: Pack<i32, VL>) -> Pack<i32, VL> {
        a.max(b)
    }

    #[inline(always)]
    fn select_eq(
        self,
        a: Pack<i32, VL>,
        b: Pack<i32, VL>,
        then: Pack<i32, VL>,
        otherwise: Pack<i32, VL>,
    ) -> Pack<i32, VL> {
        Pack::from_fn(|i| {
            if a.0[i] == b.0[i] {
                then.0[i]
            } else {
                otherwise.0[i]
            }
        })
    }

    #[inline(always)]
    fn srav(self, v: Pack<i32, VL>, counts: Pack<i32, VL>) -> Pack<i32, VL> {
        Pack::from_fn(|i| v.0[i].wrapping_shr(counts.0[i] as u32))
    }

    #[inline(always)]
    fn and(self, a: Pack<i32, VL>, b: Pack<i32, VL>) -> Pack<i32, VL> {
        Pack::from_fn(|i| a.0[i] & b.0[i])
    }

    #[inline(always)]
    fn load_u8(self, src: &[u8], base: usize, stride: isize) -> Pack<i32, VL> {
        Pack::from_fn(|i| src[(base as isize + i as isize * stride) as usize] as i32)
    }

    #[inline(always)]
    fn load_i32(self, src: &[i32], at: usize) -> Pack<i32, VL> {
        let src = &src[at..at + VL];
        Pack::from_fn(|i| src[i])
    }
}
