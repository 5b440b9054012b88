//! Multi-load spatial vectorization (paper §2.2, Algorithm 2).
//!
//! This is the code shape production compilers (the paper's ICC "auto"
//! baseline) emit for stencil loops: the innermost unit-stride loop is
//! vectorized by loading **every** needed neighbour vector straight from
//! memory. Because adjacent stencil applications share inputs, the loads
//! overlap — the *data alignment conflict*: for a `(2r+1)`-point stencil
//! each element is loaded `2r+1` times and at most one of the loads per
//! iteration is aligned.
//!
//! All kernels here are double-buffered Jacobi sweeps, bit-identical to
//! the scalar references (same fused operation trees). Gauss-Seidel has
//! no multi-load form — spatial vectorization of GS loops is illegal
//! (paper §1), which is exactly why the temporal scheme matters.
//!
//! The Heat-1D sweep — the one the plan layer's baselines and the DLT
//! fallback run — also comes as [`heat1d_avx2`]: the same
//! `#[inline(always)]` source instantiated inside a
//! `#[target_feature(enable = "avx2,fma")]` function, where a pack
//! `mul_add` is one `vfmadd` instead of four calls into libm's `fma`.
//! Both are exactly rounded, so the results are bit-identical.

use tempora_grid::{Grid1, Grid2, Grid3};
use tempora_simd::{Pack, Packs};
use tempora_stencil::{Box2dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs, LifeRule};

/// Vector width used by the f64 baselines (the paper's AVX `vl = 4`).
pub const VL_F64: usize = 4;
/// Vector width used by the integer (Life) baseline.
pub const VL_I32: usize = 8;

/// One multi-load 1D3P Jacobi step: `b = S(a)`.
#[inline(always)]
fn heat1d_step(a: &[f64], b: &mut [f64], n: usize, c: &Heat1dCoeffs) {
    const N: usize = VL_F64;
    let mut x = 1;
    // Overlapping unaligned loads at x-1, x, x+1 (Algorithm 2 lines 3-5).
    while x + N <= n + 1 {
        let l = Pack::<f64, N>::load(a, x - 1);
        let m = Pack::<f64, N>::load(a, x);
        let r = Pack::<f64, N>::load(a, x + 1);
        c.apply_pack(Packs, l, m, r).store(b, x);
        x += N;
    }
    for x in x..=n {
        b[x] = c.apply(a[x - 1], a[x], a[x + 1]);
    }
}

/// `steps` multi-load 1D3P Jacobi sweeps.
pub fn heat1d(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    heat1d_sweeps(g, c, steps)
}

/// [`heat1d`] compiled for AVX2+FMA. Panics if AVX2+FMA are unavailable.
#[cfg(target_arch = "x86_64")]
pub fn heat1d_avx2(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    assert!(
        tempora_simd::arch::avx2_available(),
        "AVX2+FMA not available on this CPU"
    );
    // SAFETY: availability asserted above.
    unsafe { heat1d_sweeps_avx2(g, c, steps) }
}

/// [`heat1d_sweeps`] instantiated in an AVX2+FMA codegen context.
///
/// # Safety
/// Caller must ensure AVX2+FMA are available
/// (`tempora_simd::arch::avx2_available()`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn heat1d_sweeps_avx2(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    heat1d_sweeps(g, c, steps)
}

/// The body of [`heat1d`], `#[inline(always)]` so each codegen context
/// gets its own instantiation.
#[inline(always)]
pub(crate) fn heat1d_sweeps(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    assert_eq!(g.halo(), 1);
    let mut cur = g.clone();
    let mut next = g.clone();
    let n = g.n();
    for _ in 0..steps {
        heat1d_step(cur.data(), next.data_mut(), n, &c);
        core::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// `steps` multi-load 2D5P Jacobi sweeps (vectorized along `y`).
pub fn heat2d(g: &Grid2<f64>, c: Heat2dCoeffs, steps: usize) -> Grid2<f64> {
    assert_eq!(g.halo(), 1);
    const N: usize = VL_F64;
    let mut cur = g.clone();
    let mut next = g.clone();
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    for _ in 0..steps {
        let a = cur.data();
        let b = next.data_mut();
        for x in 1..=nx {
            let r = x * p;
            let mut y = 1;
            while y + N <= ny + 1 {
                let up = Pack::<f64, N>::load(a, r - p + y);
                let w = Pack::<f64, N>::load(a, r + y - 1);
                let m = Pack::<f64, N>::load(a, r + y);
                let e = Pack::<f64, N>::load(a, r + y + 1);
                let dn = Pack::<f64, N>::load(a, r + p + y);
                c.apply_pack(Packs, up, w, m, e, dn).store(b, r + y);
                y += N;
            }
            for y in y..=ny {
                b[r + y] = c.apply(
                    a[r - p + y],
                    a[r + y - 1],
                    a[r + y],
                    a[r + y + 1],
                    a[r + p + y],
                );
            }
        }
        core::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// `steps` multi-load 3D7P Jacobi sweeps (vectorized along `z`).
pub fn heat3d(g: &Grid3<f64>, c: Heat3dCoeffs, steps: usize) -> Grid3<f64> {
    assert_eq!(g.halo(), 1);
    const N: usize = VL_F64;
    let mut cur = g.clone();
    let mut next = g.clone();
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    for _ in 0..steps {
        let a = cur.data();
        let b = next.data_mut();
        for x in 1..=nx {
            for y in 1..=ny {
                let r = x * pl + y * p;
                let mut z = 1;
                while z + N <= nz + 1 {
                    let xm = Pack::<f64, N>::load(a, r - pl + z);
                    let ym = Pack::<f64, N>::load(a, r - p + z);
                    let zm = Pack::<f64, N>::load(a, r + z - 1);
                    let m = Pack::<f64, N>::load(a, r + z);
                    let zp = Pack::<f64, N>::load(a, r + z + 1);
                    let yp = Pack::<f64, N>::load(a, r + p + z);
                    let xp = Pack::<f64, N>::load(a, r + pl + z);
                    c.apply_pack(Packs, xm, ym, zm, m, zp, yp, xp)
                        .store(b, r + z);
                    z += N;
                }
                for z in z..=nz {
                    b[r + z] = c.apply(
                        a[r - pl + z],
                        a[r - p + z],
                        a[r + z - 1],
                        a[r + z],
                        a[r + z + 1],
                        a[r + p + z],
                        a[r + pl + z],
                    );
                }
            }
        }
        core::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// `steps` multi-load 2D9P box sweeps (vectorized along `y`; the paper
/// notes the box shape suffers alignment conflicts in *both* dimensions).
pub fn box2d(g: &Grid2<f64>, c: Box2dCoeffs, steps: usize) -> Grid2<f64> {
    assert_eq!(g.halo(), 1);
    const N: usize = VL_F64;
    let mut cur = g.clone();
    let mut next = g.clone();
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    for _ in 0..steps {
        let a = cur.data();
        let b = next.data_mut();
        for x in 1..=nx {
            let r = x * p;
            let mut y = 1;
            let rows = [r - p, r, r + p];
            while y + N <= ny + 1 {
                let v: [[Pack<f64, N>; 3]; 3] = core::array::from_fn(|di| {
                    core::array::from_fn(|dj| Pack::load(a, rows[di] + y + dj - 1))
                });
                c.apply_pack(Packs, v).store(b, r + y);
                y += N;
            }
            for y in y..=ny {
                let v = [
                    [a[r - p + y - 1], a[r - p + y], a[r - p + y + 1]],
                    [a[r + y - 1], a[r + y], a[r + y + 1]],
                    [a[r + p + y - 1], a[r + p + y], a[r + p + y + 1]],
                ];
                b[r + y] = c.apply(v);
            }
        }
        core::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// `steps` multi-load Life generations (integer 2D9P, 8 lanes).
pub fn life(g: &Grid2<i32>, rule: LifeRule, steps: usize) -> Grid2<i32> {
    assert_eq!(g.halo(), 1);
    const N: usize = VL_I32;
    let mut cur = g.clone();
    let mut next = g.clone();
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    for _ in 0..steps {
        let a = cur.data();
        let b = next.data_mut();
        for x in 1..=nx {
            let r = x * p;
            let mut y = 1;
            while y + N <= ny + 1 {
                let row = |off: usize, d: usize| Pack::<i32, N>::load(a, off + y + d - 1);
                let v = [
                    [row(r - p, 0), row(r - p, 1), row(r - p, 2)],
                    [row(r, 0), row(r, 1), row(r, 2)],
                    [row(r + p, 0), row(r + p, 1), row(r + p, 2)],
                ];
                rule.apply_neighborhood_pack(Packs, v).store(b, r + y);
                y += N;
            }
            for y in y..=ny {
                let v = [
                    [a[r - p + y - 1], a[r - p + y], a[r - p + y + 1]],
                    [a[r + y - 1], a[r + y], a[r + y + 1]],
                    [a[r + p + y - 1], a[r + p + y], a[r + p + y + 1]],
                ];
                b[r + y] = rule.apply_neighborhood(v);
            }
        }
        core::mem::swap(&mut cur, &mut next);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::{
        fill_random_1d, fill_random_2d, fill_random_3d, fill_random_life, Boundary,
    };
    use tempora_stencil::reference;

    #[test]
    fn heat1d_matches_reference() {
        let c = Heat1dCoeffs::classic(0.25);
        for &n in &[4usize, 5, 16, 33, 100] {
            for steps in [0usize, 1, 3, 8] {
                let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.3));
                fill_random_1d(&mut g, n as u64, -1.0, 1.0);
                let ours = heat1d(&g, c, steps);
                let gold = reference::heat1d(&g, c, steps);
                assert!(ours.interior_eq(&gold), "n={n} steps={steps}");
            }
        }
    }

    #[test]
    fn heat2d_matches_reference() {
        let c = Heat2dCoeffs::classic(0.12);
        for &(nx, ny) in &[(5usize, 4usize), (8, 9), (16, 21)] {
            let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(-0.5));
            fill_random_2d(&mut g, 17, -1.0, 1.0);
            let ours = heat2d(&g, c, 5);
            let gold = reference::heat2d(&g, c, 5);
            assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
        }
    }

    #[test]
    fn heat3d_matches_reference() {
        let c = Heat3dCoeffs::classic(0.1);
        let mut g = Grid3::new(6, 7, 9, 1, Boundary::Dirichlet(0.0));
        fill_random_3d(&mut g, 5, -1.0, 1.0);
        let ours = heat3d(&g, c, 4);
        let gold = reference::heat3d(&g, c, 4);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }

    #[test]
    fn box2d_matches_reference() {
        let c = Box2dCoeffs::smooth(0.09);
        let mut g = Grid2::new(12, 13, 1, Boundary::Dirichlet(0.25));
        fill_random_2d(&mut g, 23, -1.0, 1.0);
        let ours = box2d(&g, c, 6);
        let gold = reference::box2d(&g, c, 6);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }

    #[test]
    fn life_matches_reference() {
        let rule = LifeRule::b2s23();
        let mut g = Grid2::new(20, 24, 1, Boundary::Dirichlet(0));
        fill_random_life(&mut g, 3, 0.4);
        let ours = life(&g, rule, 10);
        let gold = reference::life(&g, rule, 10);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
