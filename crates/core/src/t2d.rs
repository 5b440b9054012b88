//! Temporal vectorization of two-dimensional stencils (paper §3.2,
//! "High-dimensional Stencils", and §3.3 layout optimizations).
//!
//! For `d ≥ 2` the inner time loop cannot be interchanged past the space
//! loops, so the temporal scheme vectorizes the **outermost** space loop
//! `x`: the input vector at `(x, y)` packs `VL` time levels along `x`,
//!
//! ```text
//! V(x, y) = ( a[t+VL-1][x][y], …, a[t+1][x+(VL-2)·s][y], a[t][x+(VL-1)·s][y] )
//! ```
//!
//! and one stencil application per inner point `y` advances all `VL`
//! levels at once (paper Figure 2). Unlike the 1-D case the produced
//! input vectors cannot stay in registers — the whole inner row is in
//! flight — so they are stored in **wavefront buffers**: a ring of
//! `s + 2` pack rows `W(j)[y] = V(j, y)`, the 2-D analogue of the 1-D
//! register ring. The store of the finished top lane and the level-0
//! bottom fill hit the main array exactly once per point per tile, so the
//! CPU–cache traffic per point is again ~`1/VL` of a spatial scheme's.
//!
//! Prologue and epilogue generalize the 1-D triangles to *row bands*:
//! level `k` is pre-computed over rows `1..=(VL-k)·s` and completed over
//! the trailing rows after the steady state drains the ring.
//!
//! Gauss-Seidel (§3.4) needs two extra structures: the previous output
//! *row* `O(x-1, ·)` (a second pack buffer, swapped each outer iteration)
//! for the newest-north operand, and the previous output *vector*
//! `O(x, y-1)` (a register) for the newest-west operand.
//!
//! The engine is generic over the element type and vector length; the
//! same code instantiates Heat-2D (`f64×4`), 2D9P (`f64×4`), Life
//! (`i32×8`) and GS-2D (`f64×4`).
//!
//! # One source, two codegen contexts
//!
//! The boundary phases ([`tile_fallback_if_degenerate`],
//! [`tile_prologue`], [`tile_epilogue`], [`scalar_step_inplace`] and the
//! row helpers under them) are `#[inline(always)]`: the portable [`tile`]
//! instantiates them for baseline x86-64, and the AVX2 sandwiches in
//! [`crate::t2d_avx2`] instantiate the *same source* a second time inside
//! a `#[target_feature(enable = "avx2,fma")]` function. That matters
//! because outside such a context every `f64::mul_add` is a call into
//! libm's `fma` (≈ 3 ns each), while inside it is one `vfmadd` — both are
//! the exactly-rounded fused operation, so results do not change, only
//! speed. Dropping one of these attributes silently brings the libm calls
//! back; `cargo xtask audit` (rule `phase-inline`) guards them.

use crate::kernels::{Kernel2d, Nbhd};
use tempora_grid::Grid2;
use tempora_simd::{Pack, Scalar};

/// Scratch state for one 2-D sweep configuration, reusable across tiles.
pub struct Scratch2d<T: Scalar, const VL: usize> {
    /// Head planes: `head[k]` holds level-`k` rows `0..=(VL-k)·s` (row 0 =
    /// boundary), width `ny + 2`, flat row-major.
    pub(crate) head: Vec<Vec<T>>,
    /// Tail planes: `tail[i]` holds level-`i` rows re-based at
    /// `x_max + (VL-1-i)·s`, `(i+1)·s + 2` rows of width `ny + 2`.
    pub(crate) tail: Vec<Vec<T>>,
    /// Wavefront ring: `s + 2` rows of `ny + 2` input-vector packs.
    pub(crate) ring: Vec<Vec<Pack<T, VL>>>,
    /// Previous output row `O(x-1, ·)` (Gauss-Seidel only).
    pub(crate) o_prev: Vec<Pack<T, VL>>,
    /// Output row being produced `O(x, ·)` (Gauss-Seidel only).
    pub(crate) o_cur: Vec<Pack<T, VL>>,
    /// Two old-row copies for the in-place scalar step.
    pub(crate) row_a: Vec<T>,
    pub(crate) row_b: Vec<T>,
    pub(crate) s: usize,
    pub(crate) ny: usize,
}

impl<T: Scalar, const VL: usize> Scratch2d<T, VL> {
    /// Allocate scratch for stride `s` and inner extent `ny`.
    pub fn new(s: usize, ny: usize) -> Self {
        let w = ny + 2;
        Scratch2d {
            head: (0..VL)
                .map(|k| vec![T::ZERO; ((VL - k) * s + 1) * w])
                .collect(),
            tail: (0..VL)
                .map(|i| vec![T::ZERO; ((i + 1) * s + 2) * w])
                .collect(),
            ring: (0..s + 2).map(|_| vec![Pack::splat(T::ZERO); w]).collect(),
            o_prev: vec![Pack::splat(T::ZERO); w],
            o_cur: vec![Pack::splat(T::ZERO); w],
            row_a: vec![T::ZERO; w],
            row_b: vec![T::ZERO; w],
            s,
            ny,
        }
    }
}

/// One in-place scalar time step over the whole grid (used for degenerate
/// tiles and `steps mod VL` remainders). Two saved old rows make the
/// Jacobi update single-array; Gauss-Seidel is naturally in place. Results
/// are bit-identical to the double-buffered reference.
#[inline(always)]
pub fn scalar_step_inplace<T: Scalar, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    row_a: &mut [T],
    row_b: &mut [T],
) {
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    let w = ny + 2;
    let a = g.data_mut();
    // row_a = old values of row x-1, row_b = old values of row x.
    let (mut row_a, mut row_b) = (&mut row_a[..w], &mut row_b[..w]);
    row_a.copy_from_slice(&a[..w]);
    for x in 1..=nx {
        row_b.copy_from_slice(&a[x * p..x * p + w]);
        for y in 1..=ny {
            let nb = Nbhd {
                v: [
                    [row_a[y - 1], row_a[y], row_a[y + 1]],
                    [row_b[y - 1], row_b[y], row_b[y + 1]],
                    [
                        a[(x + 1) * p + y - 1],
                        a[(x + 1) * p + y],
                        a[(x + 1) * p + y + 1],
                    ],
                ],
                new_n: a[(x - 1) * p + y],
                new_w: a[x * p + y - 1],
            };
            a[x * p + y] = kern.scalar(nb);
        }
        core::mem::swap(&mut row_a, &mut row_b);
    }
}

/// Advance the grid by `VL` time steps with the temporal-vectorized
/// schedule (in place, single array).
///
/// The tile is the composition of the three phases exposed below —
/// [`tile_prologue`], [`tile_steady`], [`tile_epilogue`] — so that
/// arch-specialized steady states (see `t2d_avx2`) can swap the middle
/// phase while sharing the exact boundary machinery.
///
/// # Panics
/// Panics if `s < K::MIN_STRIDE` or the grid's halo is not 1.
pub fn tile<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
) {
    if tile_fallback_if_degenerate::<T, VL, K>(g, kern, s, sc) {
        return;
    }
    let x_max = tile_prologue::<T, VL, K>(g, kern, s, sc);
    tile_steady::<T, VL, K>(g, kern, s, sc, x_max);
    tile_epilogue::<T, VL, K>(g, kern, s, sc, x_max);
}

/// Shared degenerate-tile guard: when the outer extent cannot host the
/// vector schedule (`nx < VL·s`), run the `VL` steps with the scalar
/// schedule instead (same results) and report `true`.
#[inline(always)]
pub fn tile_fallback_if_degenerate<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
) -> bool {
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert_eq!(g.halo(), 1, "temporal engines use halo width 1");
    assert_eq!((sc.s, sc.ny), (s, g.ny()), "scratch shape mismatch");
    if g.nx() >= VL * s {
        return false;
    }
    for _ in 0..VL {
        let (mut ra, mut rb) = (
            core::mem::take(&mut sc.row_a),
            core::mem::take(&mut sc.row_b),
        );
        scalar_step_inplace(g, kern, &mut ra, &mut rb);
        sc.row_a = ra;
        sc.row_b = rb;
    }
    true
}

/// One level's rows as the boundary sweeps read them: the grid itself
/// (level 0, pitch `p`) or a head/tail plane (pitch `w`, re-based at outer
/// row `x0`). The source and its strides are chosen once per level, so
/// the row loops index plain equal-length slices.
#[derive(Clone, Copy)]
struct Level<'a, T> {
    data: &'a [T],
    pitch: usize,
    x0: usize,
    w: usize,
}

impl<'a, T> Level<'a, T> {
    #[inline(always)]
    fn row(self, x: usize) -> &'a [T] {
        &self.data[(x - self.x0) * self.pitch..][..self.w]
    }
}

/// One scalar row of one level: `out[1..=ny]` from the rows
/// `[x-1, x, x+1]` of the level below (`old`) and, for Gauss-Seidel, the
/// newest row above (`north`); every slice is `ny + 2` wide with its halo
/// columns in place. Jacobi rows are branch-free loops over equal-length
/// slices, which LLVM vectorizes spatially under the AVX2 sandwich's
/// features; Gauss-Seidel rows carry the serial newest-west chain in a
/// register.
#[inline(always)]
fn sweep_row<T: Scalar, K: Kernel2d<T>>(kern: &K, old: [&[T]; 3], north: &[T], out: &mut [T]) {
    let w = out.len();
    let [up, mid, dn] = old.map(|r| &r[..w]);
    let north = if K::IS_GS { &north[..w] } else { north };
    let mut west = out[0];
    for y in 1..w - 1 {
        let o = kern.scalar(Nbhd {
            v: [
                [up[y - 1], up[y], up[y + 1]],
                [mid[y - 1], mid[y], mid[y + 1]],
                [dn[y - 1], dn[y], dn[y + 1]],
            ],
            new_n: if K::IS_GS { north[y] } else { T::ZERO },
            new_w: west,
        });
        out[y] = o;
        if K::IS_GS {
            west = o;
        }
    }
}

/// Sweep one level over the outer rows `xs`: row `x` of `out` (row pitch
/// `pitch`, re-based at outer row `x0`) from rows `x-1 ..= x+1` of the
/// level below. Halo columns of `out` must already hold the boundary
/// value.
#[inline(always)]
fn sweep_level<T: Scalar, K: Kernel2d<T>>(
    kern: &K,
    below: Level<'_, T>,
    out: &mut [T],
    pitch: usize,
    x0: usize,
    xs: core::ops::RangeInclusive<usize>,
) {
    for x in xs {
        let (done, rest) = out.split_at_mut((x - x0) * pitch);
        let north = &done[(x - 1 - x0) * pitch..];
        let old = [below.row(x - 1), below.row(x), below.row(x + 1)];
        sweep_row(kern, old, north, &mut rest[..below.w]);
    }
}

/// Interleave `VL` equal-length rows into the interior packs of `dst`:
/// lane `i` of `dst[y]` is `rows[i][y]`.
#[inline(always)]
pub(crate) fn pack_rows<T: Scalar, const VL: usize>(dst: &mut [Pack<T, VL>], rows: [&[T]; VL]) {
    let w = dst.len();
    let rows = rows.map(|r| &r[..w]);
    for y in 1..w - 1 {
        dst[y] = Pack::from_fn(|i| rows[i][y]);
    }
}

/// Lane `i` of the interior packs of `src`, into the interior of `out`.
#[inline(always)]
pub(crate) fn unpack_lane<T: Scalar, const VL: usize>(
    src: &[Pack<T, VL>],
    i: usize,
    out: &mut [T],
) {
    let w = out.len();
    let src = &src[..w];
    for y in 1..w - 1 {
        out[y] = src[y].extract(i);
    }
}

/// Phase 1 of a 2-D temporal tile: scalar head bands for levels `1..VL`,
/// the initial wavefront ring `W(0) ..= W(s)`, and (for Gauss-Seidel) the
/// initial output row `O(0, ·)` in `sc.o_prev`. Returns the steady-state
/// bound `x_max`.
#[inline(always)]
pub fn tile_prologue<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
) -> usize {
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert_eq!(g.halo(), 1, "temporal engines use halo width 1");
    assert_eq!((sc.s, sc.ny), (s, g.ny()), "scratch shape mismatch");
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    assert!(
        nx >= VL * s,
        "degenerate tile (nx={nx} < VL*s={}): call tile_fallback_if_degenerate first",
        VL * s
    );
    let bc = g.boundary().value();
    let x_max = nx + 1 - VL * s;
    let w = ny + 2;
    let rlen = s + 2;
    let a = g.data(); // the prologue only reads the grid

    // ------------------------------------------------------------------
    // Prologue: head[k] = level k over rows 1..=(VL-k)·s (row 0 boundary).
    // ------------------------------------------------------------------
    for k in 1..VL {
        let hi = (VL - k) * s;
        let (lo_planes, hi_planes) = sc.head.split_at_mut(k);
        let plane = &mut hi_planes[0][..(hi + 1) * w];
        plane[..w].fill(bc); // boundary row 0
        for row in plane.chunks_exact_mut(w).skip(1) {
            row[0] = bc;
            row[ny + 1] = bc;
        }
        let (data, pitch) = if k == 1 {
            (a, p)
        } else {
            (&lo_planes[k - 1][..], w)
        };
        let below = Level {
            data,
            pitch,
            x0: 0,
            w,
        };
        sweep_level(kern, below, plane, w, 0, 1..=hi);
    }

    // ------------------------------------------------------------------
    // Initial wavefront ring W(0) ..= W(s). Only the halo packs of a ring
    // row are read before the steady state writes them, so only those are
    // reset (per tile: the boundary value comes from the grid).
    // ------------------------------------------------------------------
    for row in sc.ring.iter_mut() {
        row[0] = Pack::splat(bc);
        row[ny + 1] = Pack::splat(bc);
    }
    for j in 0..=s {
        // Lane i of W(j) is level i at outer row j + (VL-1-i)·s: level 0
        // from the grid, level i ≥ 1 from head[i] (whose row 0 holds the
        // boundary value).
        let rows: [&[T]; VL] = core::array::from_fn(|i| {
            let x = j + (VL - 1 - i) * s;
            if i == 0 {
                &a[x * p..][..w]
            } else {
                &sc.head[i][x * w..][..w]
            }
        });
        pack_rows(&mut sc.ring[j % rlen], rows);
    }

    // Gauss-Seidel: O(0, ·), lane i = level i+1 at row (VL-1-i)·s; the
    // top lane (level VL at row 0) is the boundary row of a head plane.
    if K::IS_GS {
        let rows: [&[T]; VL] = core::array::from_fn(|i| {
            let (k, x) = if i == VL - 1 {
                (VL - 1, 0)
            } else {
                (i + 1, (VL - 1 - i) * s)
            };
            &sc.head[k][x * w..][..w]
        });
        sc.o_prev[0] = Pack::splat(bc);
        sc.o_prev[ny + 1] = Pack::splat(bc);
        pack_rows(&mut sc.o_prev, rows);
    }
    x_max
}

/// Phase 2 of a 2-D temporal tile (portable): one vectorized pass per
/// outer row `x ∈ 1..=x_max`, producing `W(x+s)` from `W(x-1..=x+1)` with
/// the rotate-and-blend rule. `x_max` must come from [`tile_prologue`].
pub fn tile_steady<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
    x_max: usize,
) {
    let (ny, p) = (g.ny(), g.pitch());
    let bc = g.boundary().value();
    let rlen = s + 2;
    let a = g.data_mut();
    let zero = Pack::<T, VL>::splat(T::ZERO);
    for x in 1..=x_max {
        let im1 = (x - 1) % rlen;
        let i0 = x % rlen;
        let ip1 = (x + 1) % rlen;
        let ips = (x + s) % rlen;
        // Detach the write row so the read rows can stay borrowed.
        let mut wrow = core::mem::take(&mut sc.ring[ips]);
        {
            let rm1 = &sc.ring[im1];
            let r0 = &sc.ring[i0];
            let rp1 = &sc.ring[ip1];
            let mut o_west = Pack::splat(bc); // O(x, 0): y-boundary column
                                              // West and centre packs are carried in registers (w ← m ← e).
            let mut w_pack = r0[0];
            let mut m_pack = r0[1];
            for y in 1..=ny {
                let e_pack = r0[y + 1];
                let corners = if K::IS_BOX {
                    [rm1[y - 1], rm1[y + 1], rp1[y - 1], rp1[y + 1]]
                } else {
                    [zero; 4]
                };
                let nb = Nbhd {
                    v: [
                        [corners[0], rm1[y], corners[1]],
                        [w_pack, m_pack, e_pack],
                        [corners[2], rp1[y], corners[3]],
                    ],
                    new_n: if K::IS_GS { sc.o_prev[y] } else { zero },
                    new_w: o_west,
                };
                w_pack = m_pack;
                m_pack = e_pack;
                let o = kern.pack(nb);
                a[x * p + y] = o.top();
                let bottom = a[(x + VL * s) * p + y];
                wrow[y] = o.shift_up_insert(bottom);
                if K::IS_GS {
                    sc.o_cur[y] = o;
                    o_west = o;
                }
            }
        }
        sc.ring[ips] = wrow;
        if K::IS_GS {
            core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
        }
    }
}

/// Phase 3 of a 2-D temporal tile: drain the surviving wavefront ring into
/// the tail planes and finish every level scalar-wise up to row `nx`.
/// `x_max` must match the value [`tile_prologue`] returned and the ring
/// must hold `W(j)` at slot `j % (s+2)` for `j ∈ x_max ..= x_max+s`, as
/// left behind by the steady state.
#[inline(always)]
pub fn tile_epilogue<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    g: &mut Grid2<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch2d<T, VL>,
    x_max: usize,
) {
    let (nx, ny, p) = (g.nx(), g.ny(), g.pitch());
    let bc = g.boundary().value();
    let w = ny + 2;
    let rlen = s + 2;
    let a = g.data_mut();
    for i in 1..VL {
        let base = x_max + (VL - 1 - i) * s;
        let rows = (i + 1) * s + 1; // rel 0 ..= (i+1)·s, last = halo row nx+1
        debug_assert_eq!(base + rows - 1, nx + 1);
        let (lo_planes, hi_planes) = sc.tail.split_at_mut(i);
        let plane = &mut hi_planes[0][..rows * w];
        // Halo prefill: y-halo columns of every row + the x = nx+1 row.
        for row in plane.chunks_exact_mut(w) {
            row[0] = bc;
            row[ny + 1] = bc;
        }
        plane[(rows - 1) * w..].fill(bc);
        // Drain lane i of the surviving ring rows: lane i of W(j) is level
        // i at outer row j + (VL-1-i)·s = base + (j - x_max).
        for j in x_max..=x_max + s {
            unpack_lane(&sc.ring[j % rlen], i, &mut plane[(j - x_max) * w..][..w]);
        }
        // Scalar completion over rows base+s+1 ..= nx, reading level i-1
        // from the grid or from tail[i-1] (based at base + s).
        let (data, pitch, x0) = if i == 1 {
            (&*a, p, 0)
        } else {
            (&lo_planes[i - 1][..], w, base + s)
        };
        let below = Level { data, pitch, x0, w };
        sweep_level(kern, below, plane, w, base, base + s + 1..=nx);
    }

    // Final level VL over rows x_max+1 ..= nx, written into the array.
    let below = Level {
        data: &sc.tail[VL - 1],
        pitch: w,
        x0: x_max,
        w,
    };
    sweep_level(kern, below, a, p, 0, x_max + 1..=nx);
}

/// Run `steps` time steps of a 2-D stencil with the temporal-vectorized
/// schedule, returning the final grid. Bit-identical to the scalar
/// reference sweeps.
pub fn run<T: Scalar, const VL: usize, K: Kernel2d<T>>(
    grid: &Grid2<T>,
    kern: &K,
    steps: usize,
    s: usize,
) -> Grid2<T> {
    assert_eq!(grid.halo(), 1, "temporal engines use halo width 1");
    let mut g = grid.clone();
    let mut sc = Scratch2d::<T, VL>::new(s, g.ny());
    for _ in 0..steps / VL {
        tile::<T, VL, K>(&mut g, kern, s, &mut sc);
    }
    for _ in 0..steps % VL {
        let (mut ra, mut rb) = (
            core::mem::take(&mut sc.row_a),
            core::mem::take(&mut sc.row_b),
        );
        scalar_step_inplace(&mut g, kern, &mut ra, &mut rb);
        sc.row_a = ra;
        sc.row_b = rb;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{BoxKern2d, GsKern2d, JacobiKern2d, LifeKern2d};
    use tempora_grid::{fill_random_2d, fill_random_life, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::{Box2dCoeffs, Gs2dCoeffs, Heat2dCoeffs, LifeRule};

    fn grid(nx: usize, ny: usize, seed: u64, b: f64) -> Grid2<f64> {
        let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(b));
        fill_random_2d(&mut g, seed, -1.0, 1.0);
        g
    }

    #[test]
    fn heat2d_matches_reference() {
        let c = Heat2dCoeffs::classic(0.12);
        let kern = JacobiKern2d(c);
        for &(nx, ny) in &[(8usize, 5usize), (9, 8), (17, 12), (32, 13), (40, 40)] {
            for steps in [4usize, 8] {
                let g = grid(nx, ny, (nx * ny) as u64, 0.25);
                let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
                let gold = reference::heat2d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
                ours.check_canaries().unwrap();
            }
        }
    }

    #[test]
    fn heat2d_remainder_steps() {
        let c = Heat2dCoeffs::classic(0.2);
        let kern = JacobiKern2d(c);
        for steps in [0usize, 1, 2, 3, 5, 6, 7, 9] {
            let g = grid(21, 9, steps as u64, -1.0);
            let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
            let gold = reference::heat2d(&g, c, steps);
            assert!(
                ours.interior_eq(&gold),
                "steps={steps} {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn heat2d_wider_strides() {
        let c = Heat2dCoeffs::classic(0.15);
        let kern = JacobiKern2d(c);
        for s in 2..=4 {
            let g = grid(35, 7, s as u64, 0.0);
            let ours = run::<f64, 4, _>(&g, &kern, 8, s);
            let gold = reference::heat2d(&g, c, 8);
            assert!(
                ours.interior_eq(&gold),
                "s={s} {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn heat2d_tiny_grid_fallback() {
        let c = Heat2dCoeffs::classic(0.25);
        let kern = JacobiKern2d(c);
        for nx in 1..8 {
            let g = grid(nx, 6, nx as u64, 0.5);
            let ours = run::<f64, 4, _>(&g, &kern, 5, 2);
            let gold = reference::heat2d(&g, c, 5);
            assert!(ours.interior_eq(&gold), "nx={nx}");
        }
    }

    #[test]
    fn box2d_matches_reference() {
        let c = Box2dCoeffs::new([[0.01, 0.07, 0.03], [0.09, 0.55, 0.08], [0.05, 0.06, 0.06]]);
        let kern = BoxKern2d(c);
        for &(nx, ny) in &[(16usize, 11usize), (25, 16), (33, 8)] {
            let g = grid(nx, ny, 77, 0.1);
            let ours = run::<f64, 4, _>(&g, &kern, 8, 2);
            let gold = reference::box2d(&g, c, 8);
            assert!(
                ours.interior_eq(&gold),
                "nx={nx} ny={ny} {:?}",
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn life_matches_reference_vl8() {
        let rule = LifeRule::b2s23();
        let kern = LifeKern2d(rule);
        for &(nx, ny) in &[(20usize, 16usize), (33, 9), (48, 25)] {
            let mut g = Grid2::<i32>::new(nx, ny, 1, Boundary::Dirichlet(0));
            fill_random_life(&mut g, nx as u64, 0.35);
            for steps in [8usize, 11, 16] {
                let ours = run::<i32, 8, _>(&g, &kern, steps, 2);
                let gold = reference::life(&g, rule, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn life_conway_glider_still_works_vectorized() {
        let rule = LifeRule::conway();
        let kern = LifeKern2d(rule);
        let mut g = Grid2::<i32>::new(40, 40, 1, Boundary::Dirichlet(0));
        // Glider.
        for &(x, y) in &[(2, 3), (3, 4), (4, 2), (4, 3), (4, 4)] {
            g.set(x, y, 1);
        }
        let ours = run::<i32, 8, _>(&g, &kern, 24, 2);
        let gold = reference::life(&g, rule, 24);
        assert!(ours.interior_eq(&gold));
        // After 24 generations the glider has moved 6 cells diagonally.
        assert_eq!(ours.get(4 + 6, 3 + 6), 1);
    }

    #[test]
    fn gs2d_matches_reference() {
        let c = Gs2dCoeffs::classic(0.2);
        let kern = GsKern2d(c);
        for &(nx, ny) in &[(9usize, 6usize), (16, 16), (29, 10), (41, 23)] {
            for steps in [4usize, 7, 12] {
                let g = grid(nx, ny, (nx + ny + steps) as u64, -0.5);
                let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
                let gold = reference::gs2d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn gs2d_asymmetric_coeffs() {
        let c = Gs2dCoeffs::new(0.31, 0.17, 0.23, 0.11, 0.13);
        let kern = GsKern2d(c);
        let g = grid(24, 31, 5, 2.0);
        let ours = run::<f64, 4, _>(&g, &kern, 8, 3);
        let gold = reference::gs2d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
