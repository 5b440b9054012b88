//! Gauss-Seidel stencils: 1D3P, 2D5P and 3D7P.
//!
//! Gauss-Seidel updates read the **newest** values of the already-swept
//! neighbours (smaller coordinates, in sweep order) and the old values of
//! the not-yet-swept ones, in place, with a single array. The intra-step
//! dependence chain makes *every* loop of the naive nest illegal to
//! vectorize spatially — the paper's temporal scheme is, to the authors'
//! knowledge, the first vectorization that applies (§3.4): newest-value
//! operands are taken from previous *output* vectors.
//!
//! Each formula below is one fixed tree of fused multiply-adds, the
//! newest operands last, and `apply` and `apply_pack` are the same tree,
//! scalar and lane-wise. The slab driver of `tempora-core` runs two or
//! more Gauss-Seidel rows in one loop so that their newest-operand chains
//! overlap, one row handing its outputs to the next in registers; that
//! changes the order the points are visited in, never this tree, so every
//! point is rounded exactly as the reference sweep rounds it.

use crate::deps::{Dep, DepSet};
use tempora_simd::F64Lanes;

/// Coefficients of the 1D 3-point Gauss-Seidel stencil
/// `a[x] ← w·a[x-1] + c·a[x] + e·a[x+1]` with `a[x-1]` already updated
/// (time `t+1`) and `a[x]`, `a[x+1]` old (time `t`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Gs1dCoeffs {
    /// Weight of the *newest* west neighbour.
    pub w: f64,
    /// Weight of the (old) centre value.
    pub c: f64,
    /// Weight of the (old) east neighbour.
    pub e: f64,
}

impl Gs1dCoeffs {
    /// Arbitrary coefficients.
    pub const fn new(w: f64, c: f64, e: f64) -> Self {
        Gs1dCoeffs { w, c, e }
    }

    /// A Gauss-Seidel relaxation sweep weighting, sum-preserving on
    /// constant fields.
    pub const fn classic(alpha: f64) -> Self {
        Gs1dCoeffs {
            w: alpha,
            c: 1.0 - 2.0 * alpha,
            e: alpha,
        }
    }

    /// Dependence set projected on `(t, x)`: `(0,-1)` is the newest-value
    /// read, the defining Gauss-Seidel dependence.
    pub fn deps() -> DepSet {
        DepSet::new(
            "gs1d",
            vec![Dep::new(0, -1), Dep::new(1, 0), Dep::new(1, 1)],
        )
    }

    /// Scalar point update (`l_new` already at time `t+1`).
    #[inline(always)]
    pub fn apply(&self, l_new: f64, m: f64, r: f64) -> f64 {
        l_new.mul_add(self.w, m.mul_add(self.c, r * self.e))
    }

    /// Vector update in `isa`'s registers — identical operation tree,
    /// lane-wise. `l_new` is the previous *output* vector (§3.4).
    #[inline(always)]
    pub fn apply_pack<const N: usize, L: F64Lanes<N>>(
        &self,
        isa: L,
        l_new: L::V,
        m: L::V,
        r: L::V,
    ) -> L::V {
        let (w, c, e) = (isa.splat(self.w), isa.splat(self.c), isa.splat(self.e));
        isa.fmadd(l_new, w, isa.fmadd(m, c, isa.mul(r, e)))
    }
}

/// Coefficients of the 2D 5-point Gauss-Seidel stencil (sweep order:
/// `x` ascending outer, `y` ascending inner):
/// `a[x][y] ← cn·a[x-1][y] + cw·a[x][y-1] + cc·a[x][y] + ce·a[x][y+1] + cs·a[x+1][y]`
/// with the north and west operands already updated.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Gs2dCoeffs {
    /// Weight of the *newest* `a[x-1][y]`.
    pub cn: f64,
    /// Weight of the *newest* `a[x][y-1]`.
    pub cw: f64,
    /// Weight of the old centre.
    pub cc: f64,
    /// Weight of the old `a[x][y+1]`.
    pub ce: f64,
    /// Weight of the old `a[x+1][y]`.
    pub cs: f64,
}

impl Gs2dCoeffs {
    /// Arbitrary coefficients.
    pub const fn new(cn: f64, cw: f64, cc: f64, ce: f64, cs: f64) -> Self {
        Gs2dCoeffs { cn, cw, cc, ce, cs }
    }

    /// Sum-preserving relaxation weights.
    pub const fn classic(alpha: f64) -> Self {
        Gs2dCoeffs {
            cn: alpha,
            cw: alpha,
            cc: 1.0 - 4.0 * alpha,
            ce: alpha,
            cs: alpha,
        }
    }

    /// Dependence set projected on `(t, x_outer)`.
    pub fn deps() -> DepSet {
        DepSet::new(
            "gs2d",
            vec![Dep::new(0, -1), Dep::new(1, 0), Dep::new(1, 1)],
        )
    }

    /// Scalar point update (`n_new`, `w_new` already at time `t+1`).
    #[inline(always)]
    pub fn apply(&self, n_new: f64, w_new: f64, m: f64, e: f64, s: f64) -> f64 {
        n_new.mul_add(
            self.cn,
            w_new.mul_add(self.cw, m.mul_add(self.cc, e.mul_add(self.ce, s * self.cs))),
        )
    }

    /// Vector update in `isa`'s registers — identical operation tree,
    /// lane-wise.
    #[inline(always)]
    pub fn apply_pack<const N: usize, L: F64Lanes<N>>(
        &self,
        isa: L,
        n_new: L::V,
        w_new: L::V,
        m: L::V,
        e: L::V,
        s: L::V,
    ) -> L::V {
        let o = isa.fmadd(e, isa.splat(self.ce), isa.mul(s, isa.splat(self.cs)));
        let o = isa.fmadd(
            w_new,
            isa.splat(self.cw),
            isa.fmadd(m, isa.splat(self.cc), o),
        );
        isa.fmadd(n_new, isa.splat(self.cn), o)
    }
}

/// Coefficients of the 3D 7-point Gauss-Seidel stencil (sweep order `x`,
/// `y`, `z` all ascending; `x-1`, `y-1`, `z-1` operands are newest).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Gs3dCoeffs {
    /// Weight of the *newest* `a[x-1][y][z]`.
    pub cxm: f64,
    /// Weight of the *newest* `a[x][y-1][z]`.
    pub cym: f64,
    /// Weight of the *newest* `a[x][y][z-1]`.
    pub czm: f64,
    /// Weight of the old centre.
    pub cc: f64,
    /// Weight of the old `a[x][y][z+1]`.
    pub czp: f64,
    /// Weight of the old `a[x][y+1][z]`.
    pub cyp: f64,
    /// Weight of the old `a[x+1][y][z]`.
    pub cxp: f64,
}

impl Gs3dCoeffs {
    /// Arbitrary coefficients.
    // Justification: seven coefficients are the 3-D stencil star itself, in sweep order; a struct literal at call sites would be noisier.
    #[allow(clippy::too_many_arguments)]
    pub const fn new(cxm: f64, cym: f64, czm: f64, cc: f64, czp: f64, cyp: f64, cxp: f64) -> Self {
        Gs3dCoeffs {
            cxm,
            cym,
            czm,
            cc,
            czp,
            cyp,
            cxp,
        }
    }

    /// Sum-preserving relaxation weights.
    pub const fn classic(alpha: f64) -> Self {
        Gs3dCoeffs {
            cxm: alpha,
            cym: alpha,
            czm: alpha,
            cc: 1.0 - 6.0 * alpha,
            czp: alpha,
            cyp: alpha,
            cxp: alpha,
        }
    }

    /// Dependence set projected on `(t, x_outer)`.
    pub fn deps() -> DepSet {
        DepSet::new(
            "gs3d",
            vec![Dep::new(0, -1), Dep::new(1, 0), Dep::new(1, 1)],
        )
    }

    /// Scalar point update (`xm`, `ym`, `zm` already at time `t+1`).
    // Justification: seven neighbors are the 3-D stencil star itself, in sweep order.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn apply(&self, xm: f64, ym: f64, zm: f64, m: f64, zp: f64, yp: f64, xp: f64) -> f64 {
        xm.mul_add(
            self.cxm,
            ym.mul_add(
                self.cym,
                zm.mul_add(
                    self.czm,
                    m.mul_add(
                        self.cc,
                        zp.mul_add(self.czp, yp.mul_add(self.cyp, xp * self.cxp)),
                    ),
                ),
            ),
        )
    }

    /// Vector update in `isa`'s registers — identical operation tree,
    /// lane-wise.
    // Justification: seven neighbor vectors are the 3-D stencil star itself, in sweep order.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn apply_pack<const N: usize, L: F64Lanes<N>>(
        &self,
        isa: L,
        xm: L::V,
        ym: L::V,
        zm: L::V,
        m: L::V,
        zp: L::V,
        yp: L::V,
        xp: L::V,
    ) -> L::V {
        let o = isa.fmadd(yp, isa.splat(self.cyp), isa.mul(xp, isa.splat(self.cxp)));
        let o = isa.fmadd(m, isa.splat(self.cc), isa.fmadd(zp, isa.splat(self.czp), o));
        let o = isa.fmadd(
            ym,
            isa.splat(self.cym),
            isa.fmadd(zm, isa.splat(self.czm), o),
        );
        isa.fmadd(xm, isa.splat(self.cxm), o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::validate_schedule;
    use tempora_simd::{F64x4, Pack, Packs};

    #[test]
    fn gs_kernels_are_gauss_seidel() {
        assert!(Gs1dCoeffs::deps().is_gauss_seidel());
        assert!(Gs2dCoeffs::deps().is_gauss_seidel());
        assert!(Gs3dCoeffs::deps().is_gauss_seidel());
        assert_eq!(Gs1dCoeffs::deps().min_stride(), 2);
        assert_eq!(Gs2dCoeffs::deps().min_stride(), 2);
        assert_eq!(Gs3dCoeffs::deps().min_stride(), 2);
    }

    #[test]
    fn gs_schedule_legal_for_paper_strides() {
        // The plan defaults: s = 7 for GS-1D (the paper's value, and
        // where the measured plateau starts) and s = 2 for GS-2D/3D.
        validate_schedule(&Gs1dCoeffs::deps(), 4, 7, 128).unwrap();
        validate_schedule(&Gs2dCoeffs::deps(), 4, 2, 64).unwrap();
        assert!(validate_schedule(&Gs1dCoeffs::deps(), 4, 1, 64).is_err());
    }

    #[test]
    fn gs1d_scalar_pack_bitwise_equal() {
        let c = Gs1dCoeffs::classic(0.3);
        let l = Pack([1.0, -0.5, 3.25, 0.125]);
        let m = Pack([2.0, 0.5, -1.25, 7.5]);
        let r = Pack([0.25, 4.0, 0.5, -2.0]);
        let p = c.apply_pack(Packs, l, m, r);
        for i in 0..4 {
            assert_eq!(
                p.extract(i),
                c.apply(l.extract(i), m.extract(i), r.extract(i))
            );
        }
    }

    #[test]
    fn gs2d_gs3d_scalar_pack_bitwise_equal() {
        let c2 = Gs2dCoeffs::new(0.13, 0.21, 0.2, 0.19, 0.27);
        let v: [F64x4; 5] = core::array::from_fn(|k| F64x4::from_fn(|i| (k + i) as f64 * 0.41));
        let p2 = c2.apply_pack(Packs, v[0], v[1], v[2], v[3], v[4]);
        for i in 0..4 {
            let s: Vec<f64> = v.iter().map(|q| q.extract(i)).collect();
            assert_eq!(p2.extract(i), c2.apply(s[0], s[1], s[2], s[3], s[4]));
        }

        let c3 = Gs3dCoeffs::classic(0.11);
        let w: [F64x4; 7] = core::array::from_fn(|k| F64x4::from_fn(|i| (k * 3 + i) as f64 * 0.07));
        let p3 = c3.apply_pack(Packs, w[0], w[1], w[2], w[3], w[4], w[5], w[6]);
        for i in 0..4 {
            let s: Vec<f64> = w.iter().map(|q| q.extract(i)).collect();
            assert_eq!(
                p3.extract(i),
                c3.apply(s[0], s[1], s[2], s[3], s[4], s[5], s[6])
            );
        }
    }

    #[test]
    fn constant_field_fixed_point() {
        let c = Gs1dCoeffs::classic(0.25);
        assert_eq!(c.apply(4.0, 4.0, 4.0), 4.0);
        let c2 = Gs2dCoeffs::classic(0.125);
        assert!((c2.apply(1.5, 1.5, 1.5, 1.5, 1.5) - 1.5).abs() < 1e-15);
    }
}
