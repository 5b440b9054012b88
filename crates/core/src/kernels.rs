//! Kernel adapters: the operand conventions the temporal engines feed.
//!
//! The engines are generic over *what* a stencil computes, but fix *which*
//! operands are available at each site (register ring, previous output
//! vector, scratch planes). These traits pin the calling convention:
//!
//! * **1-D kernels** ([`Kernel1d`]) receive a `west` operand (the newest
//!   value at `x-1`, used only by Gauss-Seidel) plus the three old values
//!   at `x-1, x, x+1` (the Jacobi neighbourhood; GS ignores the old west).
//! * The vector form receives whole vectors in the same roles, in the
//!   registers of the engine's lane vocabulary (`isa`, a
//!   [`tempora_simd::Lanes`]): for Jacobi, `west` is the input vector
//!   `V(x-1)`; for Gauss-Seidel it is the previous *output* vector
//!   `O(x-1)` (paper §3.4: "the temporal vectorization uses their
//!   corresponding output vectors").
//!
//! Each adapter simply forwards to the matched scalar/vector update pair
//! in `tempora-stencil`, so the engines inherit the bit-for-bit
//! equivalence. The 1-D and 3-D kernels are all `f64` and bound their
//! vector form by [`F64Lanes`]; a 2-D kernel's element type is its own
//! (Life is `i32`), and only an impl can name the arithmetic that goes
//! with it, so the 2-D vector form is a trait of its own, [`Pack2d`],
//! with the register form as a parameter.

use tempora_simd::{F64Lanes, I32Lanes, Lanes, Scalar};
use tempora_stencil::{
    Box2dCoeffs, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs,
    LifeRule,
};

/// A radius-1, 1-D stencil update usable by the temporal engine. `Copy`:
/// a steady state holds its kernel by value, so that the coefficient
/// splats are loop invariants in registers.
pub trait Kernel1d: Copy + Sync {
    /// True for Gauss-Seidel kernels (west operand is the newest value and
    /// comes from the previous output vector).
    const IS_GS: bool;
    /// Minimum legal temporal space stride (see
    /// `tempora_stencil::DepSet::min_stride`; both 3-point kernels have an
    /// old east neighbour, hence 2).
    const MIN_STRIDE: usize;

    /// Scalar update. `west_new` = newest value at `x-1` (GS only);
    /// `wm1, w0, wp1` = old values at `x-1, x, x+1` (Jacobi ignores
    /// `west_new`, GS ignores `wm1`).
    fn scalar(&self, west_new: f64, wm1: f64, w0: f64, wp1: f64) -> f64;

    /// Vector update with lanes in the same roles; must be lane-wise
    /// bit-identical to [`Kernel1d::scalar`].
    fn pack<const N: usize, L: F64Lanes<N>>(&self, isa: L, west: L::V, v0: L::V, vp1: L::V)
        -> L::V;
}

/// 1D3P Jacobi adapter (the Heat-1D benchmark).
#[derive(Clone, Copy, Debug)]
pub struct JacobiKern1d(pub Heat1dCoeffs);

impl Kernel1d for JacobiKern1d {
    const IS_GS: bool = false;
    const MIN_STRIDE: usize = 2;

    #[inline(always)]
    fn scalar(&self, _west_new: f64, wm1: f64, w0: f64, wp1: f64) -> f64 {
        self.0.apply(wm1, w0, wp1)
    }

    #[inline(always)]
    fn pack<const N: usize, L: F64Lanes<N>>(
        &self,
        isa: L,
        west: L::V,
        v0: L::V,
        vp1: L::V,
    ) -> L::V {
        self.0.apply_pack(isa, west, v0, vp1)
    }
}

/// 1D3P Gauss-Seidel adapter (the GS-1D benchmark).
#[derive(Clone, Copy, Debug)]
pub struct GsKern1d(pub Gs1dCoeffs);

impl Kernel1d for GsKern1d {
    const IS_GS: bool = true;
    const MIN_STRIDE: usize = 2;

    #[inline(always)]
    fn scalar(&self, west_new: f64, _wm1: f64, w0: f64, wp1: f64) -> f64 {
        self.0.apply(west_new, w0, wp1)
    }

    #[inline(always)]
    fn pack<const N: usize, L: F64Lanes<N>>(
        &self,
        isa: L,
        west: L::V,
        v0: L::V,
        vp1: L::V,
    ) -> L::V {
        self.0.apply_pack(isa, west, v0, vp1)
    }
}

/// A 3×3 neighbourhood of *old* values plus the two newest-value operands
/// Gauss-Seidel kernels need. `P` is either a scalar `T` or a
/// vector register `L::V` (lane-wise neighbourhood).
///
/// `v[di][dj]` is the old value at `(x+di-1, y+dj-1)`; `new_n` / `new_w`
/// are the already-updated north/west values (ignored by Jacobi kernels;
/// for vectors they come from output vectors, §3.4).
#[derive(Clone, Copy, Debug)]
pub struct Nbhd<P> {
    /// Old 3×3 neighbourhood, `v[di][dj] = a(x+di-1, y+dj-1)`.
    pub v: [[P; 3]; 3],
    /// Newest value at `(x-1, y)` (Gauss-Seidel only).
    pub new_n: P,
    /// Newest value at `(x, y-1)` (Gauss-Seidel only).
    pub new_w: P,
}

/// A radius-1, 2-D stencil update usable by the temporal engine. The
/// engine materializes only the operands the kernel declares it needs
/// (`IS_BOX` ⇒ corners, `IS_GS` ⇒ newest north/west).
pub trait Kernel2d<T: Scalar>: Sync {
    /// True for Gauss-Seidel updates.
    const IS_GS: bool;
    /// True when the kernel reads the four corner neighbours.
    const IS_BOX: bool;
    /// Minimum legal temporal space stride along the outer dimension.
    const MIN_STRIDE: usize;

    /// Scalar update over a neighbourhood.
    fn scalar(&self, nb: Nbhd<T>) -> T;
}

/// The vector form of a [`Kernel2d`] in the register form `L`.
pub trait Pack2d<T: Scalar, const N: usize, L: Lanes<T, N>>: Kernel2d<T> {
    /// Vector update, lane-wise bit-identical to [`Kernel2d::scalar`].
    fn pack(&self, isa: L, nb: Nbhd<L::V>) -> L::V;
}

/// 2D5P Jacobi star adapter (the Heat-2D benchmark).
#[derive(Clone, Copy, Debug)]
pub struct JacobiKern2d(pub Heat2dCoeffs);

impl Kernel2d<f64> for JacobiKern2d {
    const IS_GS: bool = false;
    const IS_BOX: bool = false;
    const MIN_STRIDE: usize = 2;

    #[inline(always)]
    fn scalar(&self, nb: Nbhd<f64>) -> f64 {
        self.0
            .apply(nb.v[0][1], nb.v[1][0], nb.v[1][1], nb.v[1][2], nb.v[2][1])
    }
}

impl<const N: usize, L: F64Lanes<N>> Pack2d<f64, N, L> for JacobiKern2d {
    #[inline(always)]
    fn pack(&self, isa: L, nb: Nbhd<L::V>) -> L::V {
        let [[_, n, _], [w, m, e], [_, s, _]] = nb.v;
        self.0.apply_pack(isa, n, w, m, e, s)
    }
}

/// 2D9P Jacobi box adapter (the paper's 2D9P benchmark).
#[derive(Clone, Copy, Debug)]
pub struct BoxKern2d(pub Box2dCoeffs);

impl Kernel2d<f64> for BoxKern2d {
    const IS_GS: bool = false;
    const IS_BOX: bool = true;
    const MIN_STRIDE: usize = 2;

    #[inline(always)]
    fn scalar(&self, nb: Nbhd<f64>) -> f64 {
        self.0.apply(nb.v)
    }
}

impl<const N: usize, L: F64Lanes<N>> Pack2d<f64, N, L> for BoxKern2d {
    #[inline(always)]
    fn pack(&self, isa: L, nb: Nbhd<L::V>) -> L::V {
        self.0.apply_pack(isa, nb.v)
    }
}

/// Game-of-Life adapter (integer 2D9P box; the paper runs it at 8 lanes).
#[derive(Clone, Copy, Debug)]
pub struct LifeKern2d(pub LifeRule);

impl Kernel2d<i32> for LifeKern2d {
    const IS_GS: bool = false;
    const IS_BOX: bool = true;
    const MIN_STRIDE: usize = 2;

    #[inline(always)]
    fn scalar(&self, nb: Nbhd<i32>) -> i32 {
        self.0.apply_neighborhood(nb.v)
    }
}

impl<const N: usize, L: I32Lanes<N>> Pack2d<i32, N, L> for LifeKern2d {
    #[inline(always)]
    fn pack(&self, isa: L, nb: Nbhd<L::V>) -> L::V {
        self.0.apply_neighborhood_pack(isa, nb.v)
    }
}

/// 2D5P Gauss-Seidel adapter (the GS-2D benchmark).
#[derive(Clone, Copy, Debug)]
pub struct GsKern2d(pub Gs2dCoeffs);

impl Kernel2d<f64> for GsKern2d {
    const IS_GS: bool = true;
    const IS_BOX: bool = false;
    const MIN_STRIDE: usize = 2;

    #[inline(always)]
    fn scalar(&self, nb: Nbhd<f64>) -> f64 {
        self.0
            .apply(nb.new_n, nb.new_w, nb.v[1][1], nb.v[1][2], nb.v[2][1])
    }
}

impl<const N: usize, L: F64Lanes<N>> Pack2d<f64, N, L> for GsKern2d {
    #[inline(always)]
    fn pack(&self, isa: L, nb: Nbhd<L::V>) -> L::V {
        let [_, [_, m, e], [_, s, _]] = nb.v;
        self.0.apply_pack(isa, nb.new_n, nb.new_w, m, e, s)
    }
}

/// The 7-point star neighbourhood of a 3-D stencil plus the three
/// newest-value operands Gauss-Seidel needs. `P` is an `f64` or a vector register
/// `L::V`.
#[derive(Clone, Copy, Debug)]
pub struct Nbhd3<P> {
    /// Old value at `(x-1, y, z)`.
    pub xm: P,
    /// Old value at `(x, y-1, z)`.
    pub ym: P,
    /// Old value at `(x, y, z-1)`.
    pub zm: P,
    /// Old centre value.
    pub m: P,
    /// Old value at `(x, y, z+1)`.
    pub zp: P,
    /// Old value at `(x, y+1, z)`.
    pub yp: P,
    /// Old value at `(x+1, y, z)`.
    pub xp: P,
    /// Newest value at `(x-1, y, z)` (Gauss-Seidel only).
    pub new_xm: P,
    /// Newest value at `(x, y-1, z)` (Gauss-Seidel only).
    pub new_ym: P,
    /// Newest value at `(x, y, z-1)` (Gauss-Seidel only).
    pub new_zm: P,
}

/// A radius-1, 3-D star stencil update usable by the temporal engine.
pub trait Kernel3d: Sync {
    /// True for Gauss-Seidel updates.
    const IS_GS: bool;
    /// Minimum legal temporal space stride along the outer dimension.
    const MIN_STRIDE: usize;

    /// Scalar update over a neighbourhood.
    fn scalar(&self, nb: Nbhd3<f64>) -> f64;

    /// Vector update, lane-wise bit-identical to [`Kernel3d::scalar`].
    fn pack<const N: usize, L: F64Lanes<N>>(&self, isa: L, nb: Nbhd3<L::V>) -> L::V;
}

/// 3D7P Jacobi star adapter (the Heat-3D benchmark).
#[derive(Clone, Copy, Debug)]
pub struct JacobiKern3d(pub Heat3dCoeffs);

impl Kernel3d for JacobiKern3d {
    const IS_GS: bool = false;
    const MIN_STRIDE: usize = 2;

    #[inline(always)]
    fn scalar(&self, nb: Nbhd3<f64>) -> f64 {
        self.0.apply(nb.xm, nb.ym, nb.zm, nb.m, nb.zp, nb.yp, nb.xp)
    }

    #[inline(always)]
    fn pack<const N: usize, L: F64Lanes<N>>(&self, isa: L, nb: Nbhd3<L::V>) -> L::V {
        self.0
            .apply_pack(isa, nb.xm, nb.ym, nb.zm, nb.m, nb.zp, nb.yp, nb.xp)
    }
}

/// 3D7P Gauss-Seidel adapter (the GS-3D benchmark).
#[derive(Clone, Copy, Debug)]
pub struct GsKern3d(pub Gs3dCoeffs);

impl Kernel3d for GsKern3d {
    const IS_GS: bool = true;
    const MIN_STRIDE: usize = 2;

    #[inline(always)]
    fn scalar(&self, nb: Nbhd3<f64>) -> f64 {
        self.0
            .apply(nb.new_xm, nb.new_ym, nb.new_zm, nb.m, nb.zp, nb.yp, nb.xp)
    }

    #[inline(always)]
    fn pack<const N: usize, L: F64Lanes<N>>(&self, isa: L, nb: Nbhd3<L::V>) -> L::V {
        self.0.apply_pack(
            isa, nb.new_xm, nb.new_ym, nb.new_zm, nb.m, nb.zp, nb.yp, nb.xp,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_simd::{F64x4, Packs};
    use tempora_stencil::{Gs1dCoeffs, Heat1dCoeffs};

    #[test]
    fn adapters_forward_bitwise() {
        let jc = Heat1dCoeffs::classic(0.21);
        let jk = JacobiKern1d(jc);
        assert_eq!(jk.scalar(99.0, 1.0, 2.0, 3.0), jc.apply(1.0, 2.0, 3.0));

        let gc = Gs1dCoeffs::classic(0.31);
        let gk = GsKern1d(gc);
        assert_eq!(gk.scalar(1.5, 99.0, 2.0, 3.0), gc.apply(1.5, 2.0, 3.0));

        let a = F64x4::from_fn(|i| i as f64 + 0.5);
        let b = F64x4::from_fn(|i| 2.0 * i as f64 - 1.0);
        let c = F64x4::from_fn(|i| 0.25 * i as f64);
        assert_eq!(jk.pack(Packs, a, b, c), jc.apply_pack(Packs, a, b, c));
        assert_eq!(gk.pack(Packs, a, b, c), gc.apply_pack(Packs, a, b, c));
    }

    #[test]
    fn min_strides_agree_with_dependence_analysis() {
        assert_eq!(JacobiKern1d::MIN_STRIDE, Heat1dCoeffs::deps().min_stride());
        assert_eq!(GsKern1d::MIN_STRIDE, Gs1dCoeffs::deps().min_stride());
    }
}
