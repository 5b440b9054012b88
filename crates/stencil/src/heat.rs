//! Jacobi heat-equation stencils: 1D3P, 2D5P and 3D7P (star shaped).
//!
//! These are the paper's Heat-1D/2D/3D benchmarks (Table 1). Each
//! coefficient set provides a *scalar* point update and a *pack* update
//! with the identical operation tree — both bottom out in the same IEEE
//! fused multiply-adds, so every vectorized scheme in the workspace can be
//! compared bit-for-bit against the scalar reference.

use crate::deps::{Dep, DepSet};
use tempora_simd::F64Lanes;

/// Coefficients of the 1D 3-point Jacobi stencil
/// `a'[x] = w·a[x-1] + c·a[x] + e·a[x+1]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Heat1dCoeffs {
    /// Weight of the west (left) neighbour.
    pub w: f64,
    /// Weight of the centre point.
    pub c: f64,
    /// Weight of the east (right) neighbour.
    pub e: f64,
}

impl Heat1dCoeffs {
    /// Arbitrary coefficients.
    pub const fn new(w: f64, c: f64, e: f64) -> Self {
        Heat1dCoeffs { w, c, e }
    }

    /// The classic explicit heat discretization
    /// `a' = α·a[x-1] + (1-2α)·a[x] + α·a[x+1]`, stable for `α ≤ 1/2`.
    pub const fn classic(alpha: f64) -> Self {
        Heat1dCoeffs {
            w: alpha,
            c: 1.0 - 2.0 * alpha,
            e: alpha,
        }
    }

    /// Dependence set projected on `(t, x)`.
    pub fn deps() -> DepSet {
        DepSet::new(
            "heat1d",
            vec![Dep::new(1, -1), Dep::new(1, 0), Dep::new(1, 1)],
        )
    }

    /// Scalar point update.
    #[inline(always)]
    pub fn apply(&self, l: f64, m: f64, r: f64) -> f64 {
        l.mul_add(self.w, m.mul_add(self.c, r * self.e))
    }

    /// Vector update in `isa`'s registers — the identical operation tree,
    /// lane-wise.
    #[inline(always)]
    pub fn apply_pack<const N: usize, L: F64Lanes<N>>(
        &self,
        isa: L,
        l: L::V,
        m: L::V,
        r: L::V,
    ) -> L::V {
        let (w, c, e) = (isa.splat(self.w), isa.splat(self.c), isa.splat(self.e));
        isa.fmadd(l, w, isa.fmadd(m, c, isa.mul(r, e)))
    }
}

/// Coefficients of the 2D 5-point star Jacobi stencil. The outer (slow)
/// dimension is `x`, the unit-stride dimension is `y`:
/// `a'[x][y] = cn·a[x-1][y] + cw·a[x][y-1] + cc·a[x][y] + ce·a[x][y+1] + cs·a[x+1][y]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Heat2dCoeffs {
    /// Weight of `a[x-1][y]` (north, previous outer row).
    pub cn: f64,
    /// Weight of `a[x][y-1]` (west).
    pub cw: f64,
    /// Weight of the centre point.
    pub cc: f64,
    /// Weight of `a[x][y+1]` (east).
    pub ce: f64,
    /// Weight of `a[x+1][y]` (south, next outer row).
    pub cs: f64,
}

impl Heat2dCoeffs {
    /// Arbitrary coefficients.
    pub const fn new(cn: f64, cw: f64, cc: f64, ce: f64, cs: f64) -> Self {
        Heat2dCoeffs { cn, cw, cc, ce, cs }
    }

    /// Classic 2-D explicit heat discretization, stable for `α ≤ 1/4`.
    pub const fn classic(alpha: f64) -> Self {
        Heat2dCoeffs {
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
            "heat2d",
            vec![
                Dep::new(1, -1),
                Dep::new(1, 0), // also covers the y-direction neighbours
                Dep::new(1, 1),
            ],
        )
    }

    /// Scalar point update (`n` = north `x-1`, `w` = west `y-1`, …).
    #[inline(always)]
    pub fn apply(&self, n: f64, w: f64, m: f64, e: f64, s: f64) -> f64 {
        n.mul_add(
            self.cn,
            w.mul_add(self.cw, m.mul_add(self.cc, e.mul_add(self.ce, s * self.cs))),
        )
    }

    /// Vector update in `isa`'s registers — identical operation tree,
    /// lane-wise.
    #[inline(always)]
    pub fn apply_pack<const N: usize, L: F64Lanes<N>>(
        &self,
        isa: L,
        n: L::V,
        w: L::V,
        m: L::V,
        e: L::V,
        s: L::V,
    ) -> L::V {
        let o = isa.fmadd(e, isa.splat(self.ce), isa.mul(s, isa.splat(self.cs)));
        let o = isa.fmadd(w, isa.splat(self.cw), isa.fmadd(m, isa.splat(self.cc), o));
        isa.fmadd(n, isa.splat(self.cn), o)
    }
}

/// Coefficients of the 3D 7-point star Jacobi stencil. Dimensions ordered
/// `x` (outer/slow), `y`, `z` (unit stride):
/// `a' = cxm·a[x-1][y][z] + cym·a[x][y-1][z] + czm·a[x][y][z-1] + cc·a
///      + czp·a[x][y][z+1] + cyp·a[x][y+1][z] + cxp·a[x+1][y][z]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Heat3dCoeffs {
    /// Weight of `a[x-1][y][z]`.
    pub cxm: f64,
    /// Weight of `a[x][y-1][z]`.
    pub cym: f64,
    /// Weight of `a[x][y][z-1]`.
    pub czm: f64,
    /// Weight of the centre point.
    pub cc: f64,
    /// Weight of `a[x][y][z+1]`.
    pub czp: f64,
    /// Weight of `a[x][y+1][z]`.
    pub cyp: f64,
    /// Weight of `a[x+1][y][z]`.
    pub cxp: f64,
}

impl Heat3dCoeffs {
    /// Arbitrary coefficients.
    // Justification: seven coefficients are the 3-D stencil star itself, in sweep order; a struct literal at call sites would be noisier.
    #[allow(clippy::too_many_arguments)]
    pub const fn new(cxm: f64, cym: f64, czm: f64, cc: f64, czp: f64, cyp: f64, cxp: f64) -> Self {
        Heat3dCoeffs {
            cxm,
            cym,
            czm,
            cc,
            czp,
            cyp,
            cxp,
        }
    }

    /// Classic 3-D explicit heat discretization, stable for `α ≤ 1/6`.
    pub const fn classic(alpha: f64) -> Self {
        Heat3dCoeffs {
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
            "heat3d",
            vec![Dep::new(1, -1), Dep::new(1, 0), Dep::new(1, 1)],
        )
    }

    /// Scalar point update.
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

/// Coefficients of the 2D 9-point **box** Jacobi stencil (the paper's 2D9P
/// benchmark): all eight neighbours plus the centre, weights indexed
/// `c[di+1][dj+1]` for offsets `di, dj ∈ {-1, 0, 1}` in `(x, y)`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Box2dCoeffs {
    /// Weights, `c[di+1][dj+1]` multiplying `a[x+di][y+dj]`.
    pub c: [[f64; 3]; 3],
}

impl Box2dCoeffs {
    /// Arbitrary coefficients.
    pub const fn new(c: [[f64; 3]; 3]) -> Self {
        Box2dCoeffs { c }
    }

    /// A smoothing box kernel: centre weight `1-8α`, neighbours `α` each.
    pub const fn smooth(alpha: f64) -> Self {
        let a = alpha;
        Box2dCoeffs {
            c: [[a, a, a], [a, 1.0 - 8.0 * a, a], [a, a, a]],
        }
    }

    /// Dependence set projected on `(t, x_outer)`.
    pub fn deps() -> DepSet {
        DepSet::new(
            "box2d9p",
            vec![Dep::new(1, -1), Dep::new(1, 0), Dep::new(1, 1)],
        )
    }

    /// Scalar point update over the 3×3 neighbourhood
    /// (`v[di+1][dj+1] = a[x+di][y+dj]`), evaluated in row-major order with
    /// a single fused chain.
    #[inline(always)]
    pub fn apply(&self, v: [[f64; 3]; 3]) -> f64 {
        let c = &self.c;
        v[0][0].mul_add(
            c[0][0],
            v[0][1].mul_add(
                c[0][1],
                v[0][2].mul_add(
                    c[0][2],
                    v[1][0].mul_add(
                        c[1][0],
                        v[1][1].mul_add(
                            c[1][1],
                            v[1][2].mul_add(
                                c[1][2],
                                v[2][0]
                                    .mul_add(c[2][0], v[2][1].mul_add(c[2][1], v[2][2] * c[2][2])),
                            ),
                        ),
                    ),
                ),
            ),
        )
    }

    /// Vector update in `isa`'s registers — identical operation tree,
    /// lane-wise.
    #[inline(always)]
    pub fn apply_pack<const N: usize, L: F64Lanes<N>>(&self, isa: L, v: [[L::V; 3]; 3]) -> L::V {
        // Splat by splat: `map` over the coefficient rows is an out-of-line
        // call per application.
        let c = &self.c;
        let mut o = isa.mul(v[2][2], isa.splat(c[2][2]));
        o = isa.fmadd(v[2][1], isa.splat(c[2][1]), o);
        o = isa.fmadd(v[2][0], isa.splat(c[2][0]), o);
        o = isa.fmadd(v[1][2], isa.splat(c[1][2]), o);
        o = isa.fmadd(v[1][1], isa.splat(c[1][1]), o);
        o = isa.fmadd(v[1][0], isa.splat(c[1][0]), o);
        o = isa.fmadd(v[0][2], isa.splat(c[0][2]), o);
        o = isa.fmadd(v[0][1], isa.splat(c[0][1]), o);
        isa.fmadd(v[0][0], isa.splat(c[0][0]), o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_simd::{F64x4, Pack, Packs};

    #[test]
    fn heat1d_scalar_pack_bitwise_equal() {
        let c = Heat1dCoeffs::classic(0.26);
        let l = Pack([0.1, -2.0, 3.5, 1e-8]);
        let m = Pack([0.7, 0.2, -1.5, 2e8]);
        let r = Pack([-0.3, 9.1, 0.0, 3.25]);
        let p = c.apply_pack(Packs, l, m, r);
        for i in 0..4 {
            assert_eq!(
                p.extract(i),
                c.apply(l.extract(i), m.extract(i), r.extract(i))
            );
        }
    }

    #[test]
    fn heat1d_classic_preserves_constant_field() {
        let c = Heat1dCoeffs::classic(0.25);
        assert_eq!(c.apply(3.0, 3.0, 3.0), 3.0);
    }

    #[test]
    fn heat2d_scalar_pack_bitwise_equal() {
        let c = Heat2dCoeffs::new(0.11, 0.22, 0.1, 0.31, 0.26);
        let v: [F64x4; 5] =
            core::array::from_fn(|k| F64x4::from_fn(|i| (k * 4 + i) as f64 * 0.37 - 1.0));
        let p = c.apply_pack(Packs, v[0], v[1], v[2], v[3], v[4]);
        for i in 0..4 {
            assert_eq!(
                p.extract(i),
                c.apply(
                    v[0].extract(i),
                    v[1].extract(i),
                    v[2].extract(i),
                    v[3].extract(i),
                    v[4].extract(i)
                )
            );
        }
    }

    #[test]
    fn heat2d_classic_preserves_constant_field() {
        let c = Heat2dCoeffs::classic(0.125);
        assert!((c.apply(2.0, 2.0, 2.0, 2.0, 2.0) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn heat3d_scalar_pack_bitwise_equal() {
        let c = Heat3dCoeffs::classic(0.12);
        let v: [F64x4; 7] =
            core::array::from_fn(|k| F64x4::from_fn(|i| ((k + 1) * (i + 2)) as f64 * 0.19));
        let p = c.apply_pack(Packs, v[0], v[1], v[2], v[3], v[4], v[5], v[6]);
        for i in 0..4 {
            let s: Vec<f64> = v.iter().map(|q| q.extract(i)).collect();
            assert_eq!(
                p.extract(i),
                c.apply(s[0], s[1], s[2], s[3], s[4], s[5], s[6])
            );
        }
    }

    #[test]
    fn box2d_scalar_pack_bitwise_equal() {
        let c = Box2dCoeffs::new([[0.01, 0.02, 0.03], [0.04, 0.8, 0.05], [0.06, 0.07, 0.08]]);
        let v: [[F64x4; 3]; 3] = core::array::from_fn(|i| {
            core::array::from_fn(|j| F64x4::from_fn(|k| (i * 9 + j * 3 + k) as f64 * 0.13 - 0.5))
        });
        let p = c.apply_pack(Packs, v);
        for k in 0..4 {
            let s: [[f64; 3]; 3] =
                core::array::from_fn(|i| core::array::from_fn(|j| v[i][j].extract(k)));
            assert_eq!(p.extract(k), c.apply(s));
        }
    }

    #[test]
    fn box2d_smooth_preserves_constant_field() {
        let c = Box2dCoeffs::smooth(0.1);
        assert!((c.apply([[5.0; 3]; 3]) - 5.0).abs() < 1e-14);
    }

    #[test]
    fn min_strides() {
        assert_eq!(Heat1dCoeffs::deps().min_stride(), 2);
        assert_eq!(Heat2dCoeffs::deps().min_stride(), 2);
        assert_eq!(Heat3dCoeffs::deps().min_stride(), 2);
        assert_eq!(Box2dCoeffs::deps().min_stride(), 2);
        assert!(!Heat1dCoeffs::deps().is_gauss_seidel());
    }
}
