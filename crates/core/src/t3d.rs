//! Temporal vectorization of three-dimensional stencils.
//!
//! Same outer-loop scheme as [`crate::t2d`], one dimension deeper: the
//! outermost space loop `x` carries the `VL` time levels, and the
//! wavefront ring stores whole `(y, z)` **planes** of input-vector packs.
//! The per-point steady-state work is identical to the 2-D case (one
//! vectorized stencil application + rotate/blend); only the buffer
//! geometry changes — which is precisely the paper's point that the
//! reorganization cost does not grow with dimensionality.
//!
//! Gauss-Seidel adds the previous output plane (newest `x-1` operand), the
//! current output plane being filled (newest `y-1` operand) and the
//! previous output register (newest `z-1` operand).
//!
//! As in [`crate::t2d`] (see "One source, two codegen contexts" there),
//! the boundary phases are `#[inline(always)]` so the AVX2 sandwiches of
//! [`crate::t3d_avx2`] instantiate them a second time under
//! `avx2,fma` — outside a feature context every `mul_add` of the seven
//! per point is a libm call.

use crate::kernels::{Kernel3d, Nbhd3};
use crate::t2d::{pack_rows, unpack_lane};
use tempora_grid::Grid3;
use tempora_simd::{Pack, Scalar};

/// Scratch state for one 3-D sweep configuration, reusable across tiles.
pub struct Scratch3d<T: Scalar, const VL: usize> {
    /// `head[k]`: level-`k` slabs `x ∈ 0..=(VL-k)·s` (slab 0 = boundary),
    /// each slab `(ny+2) × (nz+2)` flat.
    pub(crate) head: Vec<Vec<T>>,
    /// `tail[i]`: level-`i` slabs re-based at `x_max + (VL-1-i)·s`,
    /// `(i+1)·s + 1` slabs.
    pub(crate) tail: Vec<Vec<T>>,
    /// Wavefront ring: `s + 2` planes of `(ny+2) × (nz+2)` packs.
    pub(crate) ring: Vec<Vec<Pack<T, VL>>>,
    /// Previous / current output planes (Gauss-Seidel only).
    pub(crate) o_prev: Vec<Pack<T, VL>>,
    pub(crate) o_cur: Vec<Pack<T, VL>>,
    /// Two old-plane copies for the in-place scalar step.
    pub(crate) plane_a: Vec<T>,
    pub(crate) plane_b: Vec<T>,
    pub(crate) s: usize,
    pub(crate) ny: usize,
    pub(crate) nz: usize,
}

impl<T: Scalar, const VL: usize> Scratch3d<T, VL> {
    /// Allocate scratch for stride `s` and inner extents `ny × nz`.
    pub fn new(s: usize, ny: usize, nz: usize) -> Self {
        let wp = (ny + 2) * (nz + 2);
        Scratch3d {
            head: (0..VL)
                .map(|k| vec![T::ZERO; ((VL - k) * s + 1) * wp])
                .collect(),
            tail: (0..VL)
                .map(|i| vec![T::ZERO; ((i + 1) * s + 1) * wp])
                .collect(),
            ring: (0..s + 2).map(|_| vec![Pack::splat(T::ZERO); wp]).collect(),
            o_prev: vec![Pack::splat(T::ZERO); wp],
            o_cur: vec![Pack::splat(T::ZERO); wp],
            plane_a: vec![T::ZERO; wp],
            plane_b: vec![T::ZERO; wp],
            s,
            ny,
            nz,
        }
    }
}

/// One in-place scalar time step (degenerate tiles, step remainders).
/// Bit-identical to the double-buffered reference.
#[inline(always)]
pub fn scalar_step_inplace<T: Scalar, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    plane_a: &mut [T],
    plane_b: &mut [T],
) {
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let wz = nz + 2;
    let a = g.data_mut();
    // Local scratch pitch: wz per row, (ny+2) rows.
    let lp = |y: usize, z: usize| y * wz + z;
    let (mut pa, mut pb) = (plane_a, plane_b);
    // pa = old slab x-1, pb = old slab x.
    for y in 0..ny + 2 {
        for z in 0..nz + 2 {
            pa[lp(y, z)] = a[y * p + z]; // slab 0 (boundary slab: constant)
        }
    }
    for x in 1..=nx {
        for y in 0..ny + 2 {
            for z in 0..nz + 2 {
                pb[lp(y, z)] = a[x * pl + y * p + z];
            }
        }
        for y in 1..=ny {
            for z in 1..=nz {
                let nb = Nbhd3 {
                    xm: pa[lp(y, z)],
                    ym: pb[lp(y - 1, z)],
                    zm: pb[lp(y, z - 1)],
                    m: pb[lp(y, z)],
                    zp: pb[lp(y, z + 1)],
                    yp: pb[lp(y + 1, z)],
                    xp: a[(x + 1) * pl + y * p + z],
                    new_xm: a[(x - 1) * pl + y * p + z],
                    new_ym: a[x * pl + (y - 1) * p + z],
                    new_zm: a[x * pl + y * p + z - 1],
                };
                a[x * pl + y * p + z] = kern.scalar(nb);
            }
        }
        core::mem::swap(&mut pa, &mut pb);
    }
}

/// Advance the grid by `VL` time steps with the temporal-vectorized
/// schedule (in place, single array).
///
/// The tile is the composition of the three phases exposed below —
/// [`tile_prologue`], [`tile_steady`], [`tile_epilogue`] — so that
/// arch-specialized steady states (see `t3d_avx2`) can swap the middle
/// phase while sharing the exact boundary machinery.
pub fn tile<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
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
pub fn tile_fallback_if_degenerate<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
) -> bool {
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert_eq!(g.halo(), 1, "temporal engines use halo width 1");
    assert_eq!(
        (sc.s, sc.ny, sc.nz),
        (s, g.ny(), g.nz()),
        "scratch shape mismatch"
    );
    if g.nx() >= VL * s {
        return false;
    }
    for _ in 0..VL {
        let (mut pa, mut pb) = (
            core::mem::take(&mut sc.plane_a),
            core::mem::take(&mut sc.plane_b),
        );
        scalar_step_inplace(g, kern, &mut pa, &mut pb);
        sc.plane_a = pa;
        sc.plane_b = pb;
    }
    true
}

/// One level's slabs as the boundary sweeps read them: the grid itself
/// (level 0, strides `pl`/`p`) or a head/tail plane (strides `wp`/`wz`,
/// re-based at outer slab `x0`). The source and its strides are chosen
/// once per level, so the row loops index plain equal-length slices.
#[derive(Clone, Copy)]
struct Level<'a, T> {
    data: &'a [T],
    slab: usize,
    pitch: usize,
    x0: usize,
    wz: usize,
}

impl<'a, T> Level<'a, T> {
    #[inline(always)]
    fn row(self, x: usize, y: usize) -> &'a [T] {
        &self.data[(x - self.x0) * self.slab + y * self.pitch..][..self.wz]
    }
}

/// Set the halo shell of one `(ny+2) × (nz+2)` slab to `v` (rows `0` and
/// `ny+1`, columns `0` and `nz+1`).
#[inline(always)]
pub(crate) fn fill_shell<P: Copy>(slab: &mut [P], ny: usize, wz: usize, v: P) {
    slab[..wz].fill(v);
    for row in slab[wz..(ny + 1) * wz].chunks_exact_mut(wz) {
        row[0] = v;
        row[wz - 1] = v;
    }
    slab[(ny + 1) * wz..(ny + 2) * wz].fill(v);
}

/// One scalar `z`-row of one level: `out[1..=nz]` from the level below —
/// `old = [x-1, y-1, centre, y+1, x+1]` rows — and, for Gauss-Seidel, the
/// newest rows `new = [x-1, y-1]` of the level being written; every
/// slice is `nz + 2` wide with its halo columns in place. Jacobi rows are
/// branch-free loops over equal-length slices, which LLVM vectorizes
/// spatially under the AVX2 sandwich's features; Gauss-Seidel rows carry
/// the serial newest-`z-1` chain in a register.
#[inline(always)]
fn sweep_row<T: Scalar, K: Kernel3d<T>>(kern: &K, old: [&[T]; 5], new: [&[T]; 2], out: &mut [T]) {
    let wz = out.len();
    let [xm, ym, mid, yp, xp] = old.map(|r| &r[..wz]);
    let [new_xm, new_ym] = if K::IS_GS { new.map(|r| &r[..wz]) } else { new };
    let mut new_zm = out[0];
    for z in 1..wz - 1 {
        let o = kern.scalar(Nbhd3 {
            xm: xm[z],
            ym: ym[z],
            zm: mid[z - 1],
            m: mid[z],
            zp: mid[z + 1],
            yp: yp[z],
            xp: xp[z],
            new_xm: if K::IS_GS { new_xm[z] } else { T::ZERO },
            new_ym: if K::IS_GS { new_ym[z] } else { T::ZERO },
            new_zm,
        });
        out[z] = o;
        if K::IS_GS {
            new_zm = o;
        }
    }
}

/// Sweep one level over the outer slabs `xs`: slab `x` of `out` (strides
/// `slab`/`pitch`, re-based at outer slab `x0`) from slabs `x-1 ..= x+1`
/// of the level below. The halo shell of `out` must already hold the
/// boundary value.
// Justification: the output view is (buffer, two strides, rebase) — the same four facts `Level` carries for the input, spelled out because it is borrowed mutably.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_level<T: Scalar, K: Kernel3d<T>>(
    kern: &K,
    below: Level<'_, T>,
    out: &mut [T],
    slab: usize,
    pitch: usize,
    x0: usize,
    xs: core::ops::RangeInclusive<usize>,
    ny: usize,
) {
    for x in xs {
        for y in 1..=ny {
            let at = (x - x0) * slab + y * pitch;
            let (done, rest) = out.split_at_mut(at);
            let old = [
                below.row(x - 1, y),
                below.row(x, y - 1),
                below.row(x, y),
                below.row(x, y + 1),
                below.row(x + 1, y),
            ];
            let new = [&done[at - slab..], &done[at - pitch..]];
            sweep_row(kern, old, new, &mut rest[..below.wz]);
        }
    }
}

/// Phase 1 of a 3-D temporal tile: scalar head slabs for levels `1..VL`,
/// the initial wavefront ring `W(0) ..= W(s)`, and (for Gauss-Seidel) the
/// initial output plane `O(0, ·, ·)` in `sc.o_prev` (with row 0 of
/// `sc.o_cur` halo-initialized). Returns the steady-state bound `x_max`.
#[inline(always)]
pub fn tile_prologue<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
) -> usize {
    assert!(s >= K::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert_eq!(g.halo(), 1, "temporal engines use halo width 1");
    assert_eq!(
        (sc.s, sc.ny, sc.nz),
        (s, g.ny(), g.nz()),
        "scratch shape mismatch"
    );
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    assert!(
        nx >= VL * s,
        "degenerate tile (nx={nx} < VL*s={}): call tile_fallback_if_degenerate first",
        VL * s
    );
    let bc = g.boundary().value();
    let x_max = nx + 1 - VL * s;
    let wz = nz + 2;
    let wp = (ny + 2) * wz;
    let rlen = s + 2;
    let a = g.data(); // the prologue only reads the grid

    // ------------------------------------------------------------------
    // Prologue: head[k] = level k over slabs 1..=(VL-k)·s.
    // ------------------------------------------------------------------
    for k in 1..VL {
        let hi = (VL - k) * s;
        let (lo_planes, hi_planes) = sc.head.split_at_mut(k);
        let plane = &mut hi_planes[0][..(hi + 1) * wp];
        plane[..wp].fill(bc); // boundary slab 0
        for slab in plane.chunks_exact_mut(wp).skip(1) {
            fill_shell(slab, ny, wz, bc);
        }
        let (data, slab, pitch) = if k == 1 {
            (a, pl, p)
        } else {
            (&lo_planes[k - 1][..], wp, wz)
        };
        let below = Level {
            data,
            slab,
            pitch,
            x0: 0,
            wz,
        };
        sweep_level(kern, below, plane, wp, wz, 0, 1..=hi, ny);
    }

    // ------------------------------------------------------------------
    // Initial wavefront ring W(0) ..= W(s). Only the halo shell of a ring
    // plane is read before the steady state writes it, so only the shells
    // are reset (per tile: the boundary value comes from the grid).
    // ------------------------------------------------------------------
    for plane in sc.ring.iter_mut() {
        fill_shell(plane, ny, wz, Pack::splat(bc));
    }
    for j in 0..=s {
        let dst = &mut sc.ring[j % rlen];
        for y in 1..=ny {
            // Lane i of W(j) is level i at outer slab j + (VL-1-i)·s:
            // level 0 from the grid, level i ≥ 1 from head[i] (whose slab
            // 0 holds the boundary value).
            let rows: [&[T]; VL] = core::array::from_fn(|i| {
                let x = j + (VL - 1 - i) * s;
                if i == 0 {
                    &a[x * pl + y * p..][..wz]
                } else {
                    &sc.head[i][x * wp + y * wz..][..wz]
                }
            });
            pack_rows(&mut dst[y * wz..][..wz], rows);
        }
    }

    // Gauss-Seidel: O(0, ·, ·), lane i = level i+1 at slab (VL-1-i)·s; the
    // top lane (level VL at slab 0) is the boundary slab of a head plane.
    // Only interior packs of o_prev are ever read; of o_cur, only row 0 is
    // read before being written (the y = 1 newest-north operand).
    if K::IS_GS {
        for y in 1..=ny {
            let rows: [&[T]; VL] = core::array::from_fn(|i| {
                let (k, x) = if i == VL - 1 {
                    (VL - 1, 0)
                } else {
                    (i + 1, (VL - 1 - i) * s)
                };
                &sc.head[k][x * wp + y * wz..][..wz]
            });
            pack_rows(&mut sc.o_prev[y * wz..][..wz], rows);
        }
        sc.o_cur[..wz].fill(Pack::splat(bc));
    }
    x_max
}

/// Phase 2 of a 3-D temporal tile (portable): one vectorized pass per
/// outer slab `x ∈ 1..=x_max`. `x_max` must come from [`tile_prologue`].
pub fn tile_steady<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
    x_max: usize,
) {
    let (ny, nz) = (g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let bc = g.boundary().value();
    let wz = nz + 2;
    let rlen = s + 2;
    let lp = |y: usize, z: usize| y * wz + z;
    let a = g.data_mut();
    let zero = Pack::<T, VL>::splat(T::ZERO);
    for x in 1..=x_max {
        let im1 = (x - 1) % rlen;
        let i0 = x % rlen;
        let ip1 = (x + 1) % rlen;
        let ips = (x + s) % rlen;
        let mut wplane = core::mem::take(&mut sc.ring[ips]);
        {
            let rm1 = &sc.ring[im1];
            let r0 = &sc.ring[i0];
            let rp1 = &sc.ring[ip1];
            for y in 1..=ny {
                let mut o_z = Pack::splat(bc); // O(x, y, 0): z-boundary
                for z in 1..=nz {
                    let idx = lp(y, z);
                    let nb = Nbhd3 {
                        xm: rm1[idx],
                        ym: r0[idx - wz],
                        zm: r0[idx - 1],
                        m: r0[idx],
                        zp: r0[idx + 1],
                        yp: r0[idx + wz],
                        xp: rp1[idx],
                        new_xm: if K::IS_GS { sc.o_prev[idx] } else { zero },
                        new_ym: if K::IS_GS { sc.o_cur[idx - wz] } else { zero },
                        new_zm: o_z,
                    };
                    let o = kern.pack(nb);
                    a[x * pl + y * p + z] = o.top();
                    let bottom = a[(x + VL * s) * pl + y * p + z];
                    wplane[idx] = o.shift_up_insert(bottom);
                    if K::IS_GS {
                        sc.o_cur[idx] = o;
                        o_z = o;
                    }
                }
            }
        }
        sc.ring[ips] = wplane;
        if K::IS_GS {
            core::mem::swap(&mut sc.o_prev, &mut sc.o_cur);
            // Refresh the halo packs of the new o_cur (stale interior
            // values are fully overwritten next iteration; halos must
            // stay at the boundary value for the y = 1 reads).
            for z in 0..wz {
                sc.o_cur[lp(0, z)] = Pack::splat(bc);
            }
        }
    }
}

/// Phase 3 of a 3-D temporal tile: drain the surviving wavefront ring into
/// the tail slabs and finish every level scalar-wise up to slab `nx`.
/// `x_max` must match the value [`tile_prologue`] returned, with the ring
/// left behind by the steady state.
#[inline(always)]
pub fn tile_epilogue<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    g: &mut Grid3<T>,
    kern: &K,
    s: usize,
    sc: &mut Scratch3d<T, VL>,
    x_max: usize,
) {
    let (nx, ny, nz) = (g.nx(), g.ny(), g.nz());
    let (p, pl) = (g.pitch(), g.plane());
    let bc = g.boundary().value();
    let wz = nz + 2;
    let wp = (ny + 2) * wz;
    let rlen = s + 2;
    let a = g.data_mut();
    for i in 1..VL {
        let base = x_max + (VL - 1 - i) * s;
        let slabs = (i + 1) * s + 1; // rel 0 ..= (i+1)·s, last = halo slab nx+1
        debug_assert_eq!(base + slabs - 1, nx + 1);
        let (lo_planes, hi_planes) = sc.tail.split_at_mut(i);
        let plane = &mut hi_planes[0][..slabs * wp];
        // Halo prefill: the shell of every slab + the x = nx+1 slab.
        for slab in plane.chunks_exact_mut(wp) {
            fill_shell(slab, ny, wz, bc);
        }
        plane[(slabs - 1) * wp..].fill(bc);
        // Drain lane i of the surviving ring planes: lane i of W(j) is
        // level i at outer slab j + (VL-1-i)·s = base + (j - x_max).
        for j in x_max..=x_max + s {
            let src = &sc.ring[j % rlen];
            let dst = &mut plane[(j - x_max) * wp..][..wp];
            for y in 1..=ny {
                unpack_lane(&src[y * wz..][..wz], i, &mut dst[y * wz..][..wz]);
            }
        }
        // Scalar completion over slabs base+s+1 ..= nx, reading level i-1
        // from the grid or from tail[i-1] (based at base + s).
        let (data, slab, pitch, x0) = if i == 1 {
            (&*a, pl, p, 0)
        } else {
            (&lo_planes[i - 1][..], wp, wz, base + s)
        };
        let below = Level {
            data,
            slab,
            pitch,
            x0,
            wz,
        };
        sweep_level(kern, below, plane, wp, wz, base, base + s + 1..=nx, ny);
    }

    // Final level VL over slabs x_max+1 ..= nx, written into the array.
    let below = Level {
        data: &sc.tail[VL - 1],
        slab: wp,
        pitch: wz,
        x0: x_max,
        wz,
    };
    sweep_level(kern, below, a, pl, p, 0, x_max + 1..=nx, ny);
}

/// Run `steps` time steps of a 3-D stencil with the temporal-vectorized
/// schedule, returning the final grid. Bit-identical to the scalar
/// reference sweeps.
pub fn run<T: Scalar, const VL: usize, K: Kernel3d<T>>(
    grid: &Grid3<T>,
    kern: &K,
    steps: usize,
    s: usize,
) -> Grid3<T> {
    assert_eq!(grid.halo(), 1, "temporal engines use halo width 1");
    let mut g = grid.clone();
    let mut sc = Scratch3d::<T, VL>::new(s, g.ny(), g.nz());
    for _ in 0..steps / VL {
        tile::<T, VL, K>(&mut g, kern, s, &mut sc);
    }
    for _ in 0..steps % VL {
        let (mut pa, mut pb) = (
            core::mem::take(&mut sc.plane_a),
            core::mem::take(&mut sc.plane_b),
        );
        scalar_step_inplace(&mut g, kern, &mut pa, &mut pb);
        sc.plane_a = pa;
        sc.plane_b = pb;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{GsKern3d, JacobiKern3d};
    use tempora_grid::{fill_random_3d, Boundary};
    use tempora_stencil::reference;
    use tempora_stencil::{Gs3dCoeffs, Heat3dCoeffs};

    fn grid(nx: usize, ny: usize, nz: usize, seed: u64, b: f64) -> Grid3<f64> {
        let mut g = Grid3::new(nx, ny, nz, 1, Boundary::Dirichlet(b));
        fill_random_3d(&mut g, seed, -1.0, 1.0);
        g
    }

    #[test]
    fn heat3d_matches_reference() {
        let c = Heat3dCoeffs::classic(0.11);
        let kern = JacobiKern3d(c);
        for &(nx, ny, nz) in &[(9usize, 5usize, 6usize), (16, 8, 7), (21, 6, 11)] {
            for steps in [4usize, 8] {
                let g = grid(nx, ny, nz, (nx * ny * nz) as u64, 0.3);
                let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
                let gold = reference::heat3d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} nz={nz} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
                ours.check_canaries().unwrap();
            }
        }
    }

    #[test]
    fn heat3d_remainders_and_fallback() {
        let c = Heat3dCoeffs::classic(0.15);
        let kern = JacobiKern3d(c);
        for steps in [0usize, 1, 3, 5, 7] {
            let g = grid(10, 4, 5, steps as u64, -0.2);
            let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
            let gold = reference::heat3d(&g, c, steps);
            assert!(ours.interior_eq(&gold), "steps={steps}");
        }
        // nx too small for the vector path.
        let g = grid(5, 6, 6, 3, 0.0);
        let ours = run::<f64, 4, _>(&g, &kern, 6, 2);
        let gold = reference::heat3d(&g, c, 6);
        assert!(ours.interior_eq(&gold));
    }

    #[test]
    fn gs3d_matches_reference() {
        let c = Gs3dCoeffs::classic(0.13);
        let kern = GsKern3d(c);
        for &(nx, ny, nz) in &[(9usize, 4usize, 5usize), (17, 7, 6), (24, 9, 8)] {
            for steps in [4usize, 9] {
                let g = grid(nx, ny, nz, (nx + ny + nz + steps) as u64, 0.1);
                let ours = run::<f64, 4, _>(&g, &kern, steps, 2);
                let gold = reference::gs3d(&g, c, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "nx={nx} ny={ny} nz={nz} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    #[test]
    fn gs3d_asymmetric_coeffs_wider_stride() {
        let c = Gs3dCoeffs::new(0.21, 0.13, 0.08, 0.3, 0.09, 0.11, 0.07);
        let kern = GsKern3d(c);
        let g = grid(26, 6, 7, 8, 1.5);
        let ours = run::<f64, 4, _>(&g, &kern, 8, 3);
        let gold = reference::gs3d(&g, c, 8);
        assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }
}
