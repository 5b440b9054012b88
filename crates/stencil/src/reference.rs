//! Scalar reference sweeps — the correctness oracles of the workspace.
//!
//! Every optimized scheme (spatial baselines, temporal engines, tiled and
//! parallel executions) is required to reproduce these results **exactly**
//! (bit-for-bit: all kernels share the same per-point fused operation
//! trees, so no tolerance is needed). The reference code is deliberately
//! the naive `d+1`-deep loop nest of the paper's Algorithm 1.
//!
//! These functions double as the paper's "scalar" measurement curves; see
//! `tempora-bench` for the caveat about LLVM auto-vectorizing them.

use crate::gs::{Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs};
use crate::heat::{Box2dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs};
use crate::lcs::lcs_update;
use crate::life::LifeRule;
use tempora_grid::{Grid1, Grid2, Grid3};

/// `steps` Jacobi sweeps of the 1D3P heat stencil (Algorithm 1).
pub fn heat1d(g: &Grid1<f64>, c: Heat1dCoeffs, steps: usize) -> Grid1<f64> {
    assert!(g.halo() >= 1);
    let mut cur = g.clone();
    let mut next = g.clone();
    let (h, n) = (g.halo(), g.n());
    for _ in 0..steps {
        let a = cur.data();
        let b = next.data_mut();
        for x in h..h + n {
            b[x] = c.apply(a[x - 1], a[x], a[x + 1]);
        }
        core::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// `steps` Jacobi sweeps of the 2D5P heat stencil.
pub fn heat2d(g: &Grid2<f64>, c: Heat2dCoeffs, steps: usize) -> Grid2<f64> {
    assert!(g.halo() >= 1);
    let mut cur = g.clone();
    let mut next = g.clone();
    let (h, nx, ny, p) = (g.halo(), g.nx(), g.ny(), g.pitch());
    for _ in 0..steps {
        let a = cur.data();
        let b = next.data_mut();
        for x in h..h + nx {
            let r = x * p;
            for y in h..h + ny {
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

/// `steps` Jacobi sweeps of the 3D7P heat stencil.
pub fn heat3d(g: &Grid3<f64>, c: Heat3dCoeffs, steps: usize) -> Grid3<f64> {
    assert!(g.halo() >= 1);
    let mut cur = g.clone();
    let mut next = g.clone();
    let (h, nx, ny, nz) = (g.halo(), g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.slab());
    for _ in 0..steps {
        let a = cur.data();
        let b = next.data_mut();
        for x in h..h + nx {
            for y in h..h + ny {
                let r = x * pl + y * p;
                for z in h..h + nz {
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

/// `steps` Jacobi sweeps of the 2D9P box stencil.
pub fn box2d(g: &Grid2<f64>, c: Box2dCoeffs, steps: usize) -> Grid2<f64> {
    assert!(g.halo() >= 1);
    let mut cur = g.clone();
    let mut next = g.clone();
    let (h, nx, ny, p) = (g.halo(), g.nx(), g.ny(), g.pitch());
    for _ in 0..steps {
        let a = cur.data();
        let b = next.data_mut();
        for x in h..h + nx {
            let r = x * p;
            for y in h..h + ny {
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

/// `steps` generations of the Game of Life (integer 2D9P box stencil).
pub fn life(g: &Grid2<i32>, rule: LifeRule, steps: usize) -> Grid2<i32> {
    assert!(g.halo() >= 1);
    let mut cur = g.clone();
    let mut next = g.clone();
    let (h, nx, ny, p) = (g.halo(), g.nx(), g.ny(), g.pitch());
    for _ in 0..steps {
        let a = cur.data();
        let b = next.data_mut();
        for x in h..h + nx {
            let r = x * p;
            for y in h..h + ny {
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

/// `steps` in-place Gauss-Seidel sweeps of the 1D3P stencil
/// (ascending `x`; `a[x-1]` is the newest value).
pub fn gs1d(g: &Grid1<f64>, c: Gs1dCoeffs, steps: usize) -> Grid1<f64> {
    assert!(g.halo() >= 1);
    let mut cur = g.clone();
    let (h, n) = (g.halo(), g.n());
    for _ in 0..steps {
        let a = cur.data_mut();
        for x in h..h + n {
            a[x] = c.apply(a[x - 1], a[x], a[x + 1]);
        }
    }
    cur
}

/// `steps` in-place Gauss-Seidel sweeps of the 2D5P stencil
/// (ascending `x` then `y`; north and west operands newest).
pub fn gs2d(g: &Grid2<f64>, c: Gs2dCoeffs, steps: usize) -> Grid2<f64> {
    assert!(g.halo() >= 1);
    let mut cur = g.clone();
    let (h, nx, ny, p) = (g.halo(), g.nx(), g.ny(), g.pitch());
    for _ in 0..steps {
        let a = cur.data_mut();
        for x in h..h + nx {
            let r = x * p;
            for y in h..h + ny {
                a[r + y] = c.apply(
                    a[r - p + y],
                    a[r + y - 1],
                    a[r + y],
                    a[r + y + 1],
                    a[r + p + y],
                );
            }
        }
    }
    cur
}

/// `steps` in-place Gauss-Seidel sweeps of the 3D7P stencil.
pub fn gs3d(g: &Grid3<f64>, c: Gs3dCoeffs, steps: usize) -> Grid3<f64> {
    assert!(g.halo() >= 1);
    let mut cur = g.clone();
    let (h, nx, ny, nz) = (g.halo(), g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.slab());
    for _ in 0..steps {
        let a = cur.data_mut();
        for x in h..h + nx {
            for y in h..h + ny {
                let r = x * pl + y * p;
                for z in h..h + nz {
                    a[r + z] = c.apply(
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
    }
    cur
}

/// Full LCS dynamic-programming table, flattened row-major with shape
/// `(a.len()+1) × (b.len()+1)`; row/column 0 are zero.
///
/// Quadratic memory — intended for tests and small examples; use
/// [`lcs_len`] for large inputs.
pub fn lcs_table(a: &[u8], b: &[u8]) -> Vec<i32> {
    let (la, lb) = (a.len(), b.len());
    let w = lb + 1;
    let mut t = vec![0i32; (la + 1) * w];
    for x in 1..=la {
        for y in 1..=lb {
            t[x * w + y] = lcs_update(
                t[(x - 1) * w + y - 1],
                t[(x - 1) * w + y],
                t[x * w + y - 1],
                a[x - 1],
                b[y - 1],
            );
        }
    }
    t
}

/// The final DP row `lcs[a.len()][0..=b.len()]` with rolling-row storage —
/// the wavefront state the temporal LCS engine is tested against.
pub fn lcs_final_row(a: &[u8], b: &[u8]) -> Vec<i32> {
    let lb = b.len();
    let mut prev = vec![0i32; lb + 1];
    let mut cur = vec![0i32; lb + 1];
    for &ca in a {
        for y in 1..=lb {
            cur[y] = lcs_update(prev[y - 1], prev[y], cur[y - 1], ca, b[y - 1]);
        }
        core::mem::swap(&mut prev, &mut cur);
    }
    prev
}

/// LCS length with rolling-row storage (O(min-side) memory after the
/// caller orients the inputs; here simply O(b.len())).
pub fn lcs_len(a: &[u8], b: &[u8]) -> i32 {
    let lb = b.len();
    let mut prev = vec![0i32; lb + 1];
    let mut cur = vec![0i32; lb + 1];
    for &ca in a {
        for y in 1..=lb {
            cur[y] = lcs_update(prev[y - 1], prev[y], cur[y - 1], ca, b[y - 1]);
        }
        core::mem::swap(&mut prev, &mut cur);
    }
    prev[lb]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::{fill_random, Boundary};

    #[test]
    fn heat1d_constant_field_is_fixed_point() {
        let mut g = Grid1::new(32, 1, Boundary::Dirichlet(2.0));
        g.fill_interior(|_| 2.0);
        let r = heat1d(&g, Heat1dCoeffs::classic(0.25), 10);
        assert!(r.interior().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn heat1d_impulse_two_steps_by_hand() {
        // alpha = 0.25: one step spreads 1.0 at x=3 into [.25, .5, .25].
        let mut g = Grid1::new(7, 1, Boundary::Dirichlet(0.0));
        g.fill_interior(|i| if i == 2 { 1.0 } else { 0.0 }); // global x = 3
        let c = Heat1dCoeffs::classic(0.25);
        let r1 = heat1d(&g, c, 1);
        assert_eq!(r1.interior(), &[0.0, 0.25, 0.5, 0.25, 0.0, 0.0, 0.0]);
        let r2 = heat1d(&g, c, 2);
        // Second step by hand: conv of [.25,.5,.25] with itself.
        assert_eq!(
            r2.interior(),
            &[0.0625, 0.25, 0.375, 0.25, 0.0625, 0.0, 0.0]
        );
    }

    #[test]
    fn heat1d_zero_steps_is_identity() {
        let mut g = Grid1::new(16, 1, Boundary::Dirichlet(0.0));
        fill_random(&mut g, 1, -1.0, 1.0);
        assert!(heat1d(&g, Heat1dCoeffs::classic(0.2), 0).interior_eq(&g));
    }

    #[test]
    fn heat2d_impulse_symmetry() {
        let mut g = Grid2::new(9, 9, 1, Boundary::Dirichlet(0.0));
        g.fill_interior(|i, j| if (i, j) == (4, 4) { 1.0 } else { 0.0 });
        let r = heat2d(&g, Heat2dCoeffs::classic(0.125), 3);
        // 4-fold symmetry around the centre.
        for di in 0..4 {
            for dj in 0..4 {
                let v = r.get(5 + di, 5 + dj);
                assert_eq!(v, r.get(5 - di, 5 + dj));
                assert_eq!(v, r.get(5 + di, 5 - dj));
                assert_eq!(v, r.get(5 + dj, 5 + di));
            }
        }
    }

    #[test]
    fn heat3d_constant_fixed_point_within_eps() {
        let mut g = Grid3::new(6, 6, 6, 1, Boundary::Dirichlet(1.0));
        g.fill_interior(|_, _, _| 1.0);
        let r = heat3d(&g, Heat3dCoeffs::classic(1.0 / 6.0), 4);
        for v in 0..6 {
            assert!((r.get(1 + v, 3, 3) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn box2d_matches_heat2d_when_corners_zero() {
        // A 9P kernel with zero corner weights equals the 5P star kernel.
        let mut g = Grid2::new(12, 10, 1, Boundary::Dirichlet(0.5));
        fill_random(&mut g, 3, -1.0, 1.0);
        let a = 0.15;
        let b9 = Box2dCoeffs::new([[0.0, a, 0.0], [a, 1.0 - 4.0 * a, a], [0.0, a, 0.0]]);
        let b5 = Heat2dCoeffs::classic(a);
        let r9 = box2d(&g, b9, 5);
        let r5 = heat2d(&g, b5, 5);
        // Same numbers, but the op-tree order differs -> allow tiny eps.
        assert!(r9.max_abs_diff(&r5) < 1e-12);
    }

    #[test]
    fn life_blinker_oscillates() {
        // Vertical blinker at the centre of a 5x5 board (Conway rule).
        let mut g = Grid2::new(5, 5, 1, Boundary::Dirichlet(0));
        for d in 0..3 {
            g.set(2 + d, 3, 1);
        }
        let r1 = life(&g, LifeRule::conway(), 1);
        // Becomes horizontal.
        assert_eq!(r1.get(3, 2), 1);
        assert_eq!(r1.get(3, 3), 1);
        assert_eq!(r1.get(3, 4), 1);
        assert_eq!(r1.get(2, 3), 0);
        let r2 = life(&g, LifeRule::conway(), 2);
        assert!(r2.interior_eq(&g), "period-2 oscillator");
    }

    #[test]
    fn gs1d_first_sweep_by_hand() {
        let mut g = Grid1::new(3, 1, Boundary::Dirichlet(0.0));
        g.fill_interior(|i| (i + 1) as f64); // [1, 2, 3]
        let c = Gs1dCoeffs::new(0.5, 0.25, 0.25);
        let r = gs1d(&g, c, 1);
        // x=1: .5*0 + .25*1 + .25*2 = 0.75
        // x=2: .5*0.75 + .25*2 + .25*3 = 1.625
        // x=3: .5*1.625 + .25*3 + .25*0 = 1.5625
        assert_eq!(r.interior(), &[0.75, 1.625, 1.5625]);
    }

    #[test]
    fn gs2d_constant_fixed_point() {
        let mut g = Grid2::new(8, 8, 1, Boundary::Dirichlet(3.0));
        g.fill_interior(|_, _| 3.0);
        let r = gs2d(&g, Gs2dCoeffs::classic(0.25), 5);
        for i in 0..8 {
            for j in 0..8 {
                assert!((r.get(1 + i, 1 + j) - 3.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gs3d_smoke_and_gs_ordering_matters() {
        let mut g = Grid3::new(4, 4, 4, 1, Boundary::Dirichlet(0.0));
        g.fill_interior(|i, j, k| (i + j + k) as f64);
        let r = gs3d(&g, Gs3dCoeffs::classic(0.1), 2);
        // Gauss-Seidel is order dependent: result differs from Jacobi.
        let rj = heat3d(&g, Heat3dCoeffs::classic(0.1), 2);
        assert!(r.max_abs_diff(&rj) > 1e-6);
    }

    #[test]
    fn lcs_known_answers() {
        assert_eq!(lcs_len(b"ABCBDAB", b"BDCABA"), 4); // classic: BCBA/BDAB
        assert_eq!(lcs_len(b"", b"ABC"), 0);
        assert_eq!(lcs_len(b"ABC", b"ABC"), 3);
        assert_eq!(lcs_len(b"ABC", b"CBA"), 1);
        let t = lcs_table(b"AGCAT", b"GAC");
        assert_eq!(t[(5) * 4 + 3], 2);
    }

    #[test]
    fn lcs_table_and_len_agree() {
        let a = b"GATTACA-GATTACA";
        let b = b"TACGATTA";
        let t = lcs_table(a, b);
        assert_eq!(t[a.len() * (b.len() + 1) + b.len()], lcs_len(a, b));
    }
}
