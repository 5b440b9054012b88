//! The slab-generic temporal sweep: paper §3.2 ("High-dimensional
//! Stencils") and the §3.4 parallelogram tiles, written once for every
//! `d ≥ 2`.
//!
//! For `d ≥ 2` the inner time loop cannot be interchanged past the space
//! loops, so the temporal scheme vectorizes the **outermost** space loop
//! `x`: the input vector at `(x, ·)` packs `VL` time levels along `x`,
//!
//! ```text
//! V(x, ·) = ( a[t+VL-1][x][·], …, a[t+1][x+(VL-2)·s][·], a[t][x+(VL-1)·s][·] )
//! ```
//!
//! and one stencil application per inner point advances all `VL` levels
//! at once (paper Figure 2). The produced input vectors cannot stay in
//! registers — a whole **slab** (a row of `ny + 2` in 2-D, a plane of
//! `(ny+2)·(nz+2)` in 3-D, see [`SlabShape`]) is in flight — so they live
//! in a ring of `s + 2` wavefront slabs `W(j) = V(j, ·)`, the memory
//! analogue of the 1-D register ring. The store of the finished top lane
//! and the level-0 bottom fill touch the main array once per point per
//! sweep, and producing an input vector costs one rotate and one blend
//! whatever the vector length, stencil order or dimension: dimension
//! enters only through the slab shape, which is why there is one driver.
//!
//! # A sweep is resumable, and its chunks are the §3.4 tiles
//!
//! One sweep advances the grid `VL` levels: a prologue (scalar head slabs,
//! initial ring), the steady state over the anchors `1 ..= x_max`
//! (`x_max = nx + 1 - VL·s`), and an epilogue (drain, scalar tail). The
//! steady state at anchor `x` writes level `t + VL` into slab `x` and
//! reads level `t` from slab `x + VL·s`: in `(x, t)` it sweeps a
//! parallelogram of slope `-s`. Everything in flight — the ring, the two
//! Gauss-Seidel output slabs, the head and tail planes — lives in
//! [`Scratch`], so the anchor range can be cut anywhere and resumed: the
//! driver's primitive is one **part** (`sweep_body` over a range of
//! anchors, with the prologue when the range starts at 1 and the epilogue
//! when it ends at `x_max`), and a whole tile is its one-part case.
//! Consecutive parts of one sweep *are* the paper's §3.4 parallelogram
//! tiles, and a part touches one contiguous window of slabs, from its
//! first anchor to `VL·s` past its last — which is all that
//! `tempora-tiling` needs to let a second sweep chase the first through
//! the same array. The in-place scalar step (`scalar_sweep_body`) is
//! resumable the same way; its carried state is the two saved old slabs.
//!
//! # What is shared and what is per kernel
//!
//! The driver owns the three phases and the in-place scalar step. A
//! kernel contributes a `Rows` implementation and nothing else: one
//! scalar row sweep and one steady row per dimension (`Rows2` over
//! [`Pack2d`], `Rows3` over [`Kernel3d`]), the steady row written once,
//! on a `RowCursor`, generic over the register form it computes in
//! ([`tempora_simd::Lanes`]: the portable engine's `Packs`, the AVX2
//! engine's `Ymm`) — the kernel's own vector formula between the cursor's
//! operands and its `finish`. Gauss-Seidel (§3.4) adds the previous and
//! the current output slab (`O(x-1, ·)`, `O(x, ·)`) for the outer
//! dimensions' newest operands; the innermost one's is the previous
//! output vector, in a register.
//!
//! # One source, two codegen contexts
//!
//! Every function below the entry points is `#[inline(always)]`: `sweep`
//! and `scalar_sweep` instantiate the driver for baseline x86-64, with
//! rows that compute in `Packs`, and [`crate::slab_avx2`] instantiates
//! the *same source*, steady rows included, a second time inside
//! `#[target_feature(enable = "avx2,fma")]` sandwiches, with rows that
//! compute in `Ymm`. That matters
//! because outside such a context every `f64::mul_add` is a call into
//! libm's `fma` (≈ 3 ns each), while inside it is one `vfmadd` — both are
//! the exactly-rounded fused operation, so results do not change, only
//! speed. Dropping one of these attributes silently brings the libm calls
//! back; `cargo xtask audit` (rule `phase-inline`) guards them.

use crate::kernels::{Kernel3d, Nbhd, Nbhd3, Pack2d};
use core::ops::RangeInclusive;
use tempora_grid::{SlabGrid, SlabLayout, SlabShape, SlabsMut};
use tempora_simd::count::{self, Op};
use tempora_simd::{F64Lanes, Lanes, Pack, Scalar};

// ---------------------------------------------------------------------
// The per-kernel part: row updates
// ---------------------------------------------------------------------

/// One scalar row update: `out[1..w-1]` of the level being written, from
/// the three slabs around it in the level below. Every row is `w`
/// elements wide with its ghost columns in place.
pub(crate) struct SweepRow<'a, T> {
    /// Slabs `x-1`, `x`, `x+1` of the level below, from their first rows.
    pub old: [&'a [T]; 3],
    /// Row pitches of the three `old` slabs.
    pub pitch: [usize; 3],
    /// Index of the row within its slab, ghost rows included.
    pub r: usize,
    /// The level being written up to the row (Gauss-Seidel's newest) …
    pub done: &'a [T],
    /// … and the row.
    pub out: &'a mut [T],
    /// `[slab stride, row pitch]` of the level being written.
    pub strides: [usize; 2],
}

/// One steady-state row: the interior packs of a row of `W(x+s)`, the
/// finished top lanes and (Gauss-Seidel) the output row, from the rows
/// around it in the wavefront slabs around `x`. Every row is `w` wide
/// with its ghost columns in place.
pub(crate) struct SteadyRow<'a, T: Scalar, const VL: usize> {
    /// The row in `W(x-1)`, `W(x)`, `W(x+1)`.
    pub ring: [&'a [Pack<T, VL>]; 3],
    /// The rows above and below it in `W(x)`; the row itself in 2-D,
    /// where a slab is one row.
    pub sides: [&'a [Pack<T, VL>]; 2],
    /// Gauss-Seidel (else empty): the row in `O(x-1, ·)` and the row
    /// above in `O(x, ·)` (2-D: the former again) …
    pub newest: [&'a [Pack<T, VL>]; 2],
    /// … and the row of `O(x, ·)` to produce, the boundary value in its
    /// ghost columns.
    pub o_row: &'a mut [Pack<T, VL>],
    /// The row of `W(x+s)` to produce.
    pub out: &'a mut [Pack<T, VL>],
    /// Grid row `(x, ·)`: receives the finished top lanes.
    pub top: &'a mut [T],
    /// Grid row `(x + VL·s, ·)`: supplies the level-0 bottom lanes.
    pub bottom: &'a [T],
}

/// The interior of one steady row, whatever the kernel and engine: every
/// operand row cut to the `len` interior points exactly once — the row
/// loop `for i in 0..cur.len()` indexes equal-length slices and carries
/// no bounds check — the per-point operands in the engine's register
/// form, and what a steady iteration does whatever the kernel
/// ([`RowCursor::finish`]).
pub(crate) struct RowCursor<'a, T: Scalar, const VL: usize, L: Lanes<T, VL>> {
    isa: L,
    /// The centre row from its third pack on: the east operands.
    east: &'a [Pack<T, VL>],
    /// West and centre operand of the next point (`w ← m ← e`).
    carry: [L::V; 2],
    /// The other rows read at the point: `W(x-1)` west, centre, east,
    /// `W(x+1)` likewise, the rows above and below, `O(x-1)`, the row
    /// above in `O(x)`.
    reads: [&'a [Pack<T, VL>]; 10],
    /// The previous output vector `O(x, ·, i-1)`: before the first
    /// point, the boundary column (Gauss-Seidel only).
    newest: L::V,
    bottom: &'a [T],
    top: &'a mut [T],
    out: &'a mut [Pack<T, VL>],
    /// Empty unless the outputs are kept (Gauss-Seidel).
    o_row: &'a mut [Pack<T, VL>],
}

/// The three `n`-element views of a `n + 2`-element row: the points'
/// west, centre and east neighbours.
#[inline(always)]
fn views<P>(row: &[P], n: usize) -> [&[P]; 3] {
    [&row[..n], &row[1..][..n], &row[2..][..n]]
}

impl<'a, T: Scalar, const VL: usize> SteadyRow<'a, T, VL> {
    /// The row's cursor in `isa`'s register form.
    #[inline(always)]
    pub(crate) fn cursor<L: Lanes<T, VL>>(self, isa: L) -> RowCursor<'a, T, VL, L> {
        let n = self.out.len() - 2;
        let [rm1, r0, rp1] = self.ring;
        let ([nw, nn, ne], [sw, ss, se]) = (views(rm1, n), views(rp1, n));
        let [up, down] = [&self.sides[0][1..][..n], &self.sides[1][1..][..n]];
        let carry = [isa.load(r0[0]), isa.load(r0[1])];
        // Only a Gauss-Seidel row has output rows to cut.
        let (new_x, new_y, newest, o_row) = if self.o_row.is_empty() {
            (nn, nn, carry[0], self.o_row)
        } else {
            let ([new_x, new_y], bc) = (self.newest, isa.load(self.o_row[0]));
            (
                &new_x[1..][..n],
                &new_y[1..][..n],
                bc,
                &mut self.o_row[1..][..n],
            )
        };
        RowCursor {
            isa,
            east: &r0[2..][..n],
            carry,
            reads: [nw, nn, ne, sw, ss, se, up, down, new_x, new_y],
            newest,
            bottom: &self.bottom[1..][..n],
            top: &mut self.top[1..][..n],
            out: &mut self.out[1..][..n],
            o_row,
        }
    }
}

impl<T: Scalar, const VL: usize, L: Lanes<T, VL>> RowCursor<'_, T, VL, L> {
    /// Interior points of the row.
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.out.len()
    }

    /// Read `k` at point `i`.
    #[inline(always)]
    fn read(&self, k: usize, i: usize) -> L::V {
        self.isa.load(self.reads[k][i])
    }

    /// West, centre and east operand of the centre row at point `i`.
    /// Points are visited in ascending order: only the east operand is
    /// loaded, and the registers move on (`w ← m ← e`).
    #[inline(always)]
    fn centre(&mut self, i: usize) -> [L::V; 3] {
        let [w, m] = self.carry;
        let e = self.isa.load(self.east[i]);
        self.carry = [m, e];
        [w, m, e]
    }

    /// The operands of point `i` of a 2-D row.
    #[inline(always)]
    pub(crate) fn nbhd(&mut self, i: usize) -> Nbhd<L::V> {
        Nbhd {
            v: [
                [self.read(0, i), self.read(1, i), self.read(2, i)],
                self.centre(i),
                [self.read(3, i), self.read(4, i), self.read(5, i)],
            ],
            new_n: self.read(8, i),
            new_w: self.newest,
        }
    }

    /// The operands of point `i` of a 3-D row.
    #[inline(always)]
    pub(crate) fn nbhd3(&mut self, i: usize) -> Nbhd3<L::V> {
        let [zm, m, zp] = self.centre(i);
        Nbhd3 {
            xm: self.read(1, i),
            ym: self.read(6, i),
            zm,
            m,
            zp,
            yp: self.read(7, i),
            xp: self.read(4, i),
            new_xm: self.read(8, i),
            new_ym: self.read(9, i),
            new_zm: self.newest,
        }
    }

    /// What every steady iteration does with the output vector `o` of
    /// point `i`: store its finished top lane into the grid, rotate and
    /// blend the next input vector into the ring (one `vrotate`, one
    /// `vblend`, whatever the kernel) and, for Gauss-Seidel, keep `o`: in
    /// the output row, and in the register the next point reads. `COUNT`
    /// ticks the produced input vector's reorganization budget in
    /// [`tempora_simd::count`] (same ticks as `t1d`'s ring).
    #[inline(always)]
    pub(crate) fn finish<const COUNT: bool>(&mut self, i: usize, o: L::V) {
        let isa = self.isa;
        self.top[i] = isa.top(o);
        self.out[i] = isa.store(isa.shift_up_insert(o, self.bottom[i]));
        if COUNT {
            count::record_output(1);
            count::record(Op::ScalarExtract, 1);
            count::record(Op::CrossLane, 1); // vrotate
            count::record(Op::InLane, 1); // vblend
            count::record(Op::ScalarInsert, 1);
        }
        if !self.o_row.is_empty() {
            self.o_row[i] = isa.store(o);
            self.newest = o;
        }
    }
}

/// The row updates of one kernel at `VL` lanes: all the slab driver needs
/// to know about a stencil. `Copy`, the kernel held by value: the steady
/// state copies it out once per part, so that the coefficients and their
/// splats are loop invariants in registers, not reloads through a
/// reference the row's stores might alias.
pub(crate) trait Rows<T: Scalar, const VL: usize>: Copy {
    /// True for Gauss-Seidel updates.
    const IS_GS: bool;
    /// Minimum legal temporal stride along the outer dimension.
    const MIN_STRIDE: usize;

    /// Scalar row update, bit-identical to the reference sweep: a
    /// branch-free loop over rows cut once to the interior (LLVM
    /// vectorizes the Jacobi rows spatially under the AVX2 sandwich's
    /// features); Gauss-Seidel rows carry the serial newest-west chain in
    /// a register.
    fn sweep_row(&self, row: SweepRow<'_, T>);

    /// Steady-state row, on a [`RowCursor`] in the rows' register form:
    /// per interior point one vectorized stencil application, then
    /// [`RowCursor::finish`]. `COUNT` ticks [`tempora_simd::count`] like
    /// the 1-D engine does.
    fn steady_row<const COUNT: bool>(&self, row: SteadyRow<'_, T, VL>);
}

/// The rows of a 2-D kernel, their steady row computed in `L`'s
/// registers: a slab is one row, its neighbours are the same row of the
/// slabs around it.
#[derive(Clone, Copy)]
pub(crate) struct Rows2<K, L>(pub K, pub L);

impl<T, const VL: usize, L, K> Rows<T, VL> for Rows2<K, L>
where
    T: Scalar,
    L: Lanes<T, VL>,
    K: Pack2d<T, VL, L> + Copy,
{
    const IS_GS: bool = K::IS_GS;
    const MIN_STRIDE: usize = K::MIN_STRIDE;

    #[inline(always)]
    fn sweep_row(&self, row: SweepRow<'_, T>) {
        let n = row.out.len() - 2;
        let [nw, nn, ne] = views(row.old[0], n);
        let [w, m, e] = views(row.old[1], n);
        let [sw, ss, se] = views(row.old[2], n);
        let north = if K::IS_GS {
            &row.done[row.done.len() - row.strides[0] + 1..][..n]
        } else {
            ss
        };
        let mut west = row.out[0];
        let out = &mut row.out[1..][..n];
        for i in 0..n {
            let o = self.0.scalar(Nbhd {
                v: [
                    [nw[i], nn[i], ne[i]],
                    [w[i], m[i], e[i]],
                    [sw[i], ss[i], se[i]],
                ],
                new_n: north[i],
                new_w: west,
            });
            out[i] = o;
            west = o;
        }
    }

    #[inline(always)]
    fn steady_row<const COUNT: bool>(&self, row: SteadyRow<'_, T, VL>) {
        let mut cur = row.cursor(self.1);
        for i in 0..cur.len() {
            let o = self.0.pack(self.1, cur.nbhd(i));
            cur.finish::<COUNT>(i, o);
        }
    }
}

/// The rows of a 3-D star kernel, their steady row computed in `L`'s
/// registers: a slab is a plane, a row's neighbours are the rows above
/// and below it in the plane and the same row of the planes around it.
#[derive(Clone, Copy)]
pub(crate) struct Rows3<K, L>(pub K, pub L);

impl<const VL: usize, L: F64Lanes<VL>, K: Kernel3d + Copy> Rows<f64, VL> for Rows3<K, L> {
    const IS_GS: bool = K::IS_GS;
    const MIN_STRIDE: usize = K::MIN_STRIDE;

    #[inline(always)]
    fn sweep_row(&self, row: SweepRow<'_, f64>) {
        let (n, r, done) = (row.out.len() - 2, row.r, row.done);
        let at = |k: usize, r: usize| &row.old[k][r * row.pitch[k] + 1..][..n];
        let (xm, ym, yp, xp) = (at(0, r), at(1, r - 1), at(1, r + 1), at(2, r));
        let [zm, mid, zp] = views(&row.old[1][r * row.pitch[1]..], n);
        let [new_xm, new_ym] = if K::IS_GS {
            row.strides.map(|back| &done[done.len() - back + 1..][..n])
        } else {
            [xp, xp]
        };
        let mut new_zm = row.out[0];
        let out = &mut row.out[1..][..n];
        for i in 0..n {
            let o = self.0.scalar(Nbhd3 {
                xm: xm[i],
                ym: ym[i],
                zm: zm[i],
                m: mid[i],
                zp: zp[i],
                yp: yp[i],
                xp: xp[i],
                new_xm: new_xm[i],
                new_ym: new_ym[i],
                new_zm,
            });
            out[i] = o;
            new_zm = o;
        }
    }

    #[inline(always)]
    fn steady_row<const COUNT: bool>(&self, row: SteadyRow<'_, f64, VL>) {
        let mut cur = row.cursor(self.1);
        for i in 0..cur.len() {
            let o = self.0.pack(self.1, cur.nbhd3(i));
            cur.finish::<COUNT>(i, o);
        }
    }
}

// ---------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------

/// The wavefront ring of one sweep: `s + 2` slabs of input-vector packs,
/// `W(j)` at slot `j % (s+2)`, and the two Gauss-Seidel output slabs.
struct Ring<T: Scalar, const VL: usize> {
    slabs: Vec<Vec<Pack<T, VL>>>,
    /// Previous output slab `O(x-1, ·)` (Gauss-Seidel only).
    o_prev: Vec<Pack<T, VL>>,
    /// Output slab being produced `O(x, ·)` (Gauss-Seidel only).
    o_cur: Vec<Pack<T, VL>>,
}

impl<T: Scalar, const VL: usize> Ring<T, VL> {
    fn new(s: usize, shape: SlabShape) -> Self {
        let slab = || vec![Pack::splat(T::ZERO); shape.elems()];
        Ring {
            slabs: (0..s + 2).map(|_| slab()).collect(),
            o_prev: slab(),
            o_cur: slab(),
        }
    }

    /// Set the ghost packs the steady state reads and never writes to the
    /// boundary value: the shell of every wavefront slab and, for
    /// Gauss-Seidel, of both output slabs (per sweep: the boundary value
    /// comes from the grid).
    #[inline(always)]
    fn reset_shells(&mut self, shape: SlabShape, bc: T, is_gs: bool) {
        for slab in self.slabs.iter_mut() {
            fill_shell(slab, shape, Pack::splat(bc));
        }
        if is_gs {
            fill_shell(&mut self.o_prev, shape, Pack::splat(bc));
            fill_shell(&mut self.o_cur, shape, Pack::splat(bc));
        }
    }
}

/// Everything one sweep has in flight (slab shape × stride): what its
/// parts hand each other, reusable by the next sweep.
pub struct Scratch<T: Scalar, const VL: usize> {
    /// Head planes: `head[k]` holds level-`k` slabs `0..=(VL-k)·s` (slab 0
    /// = boundary).
    head: Vec<Vec<T>>,
    /// Tail planes: `tail[i]` holds level-`i` slabs re-based at
    /// `x_max + (VL-1-i)·s`, `(i+1)·s + 1` of them.
    tail: Vec<Vec<T>>,
    ring: Ring<T, VL>,
    s: usize,
    shape: SlabShape,
}

impl<T: Scalar, const VL: usize> Scratch<T, VL> {
    /// Allocate scratch for a grid of type `G` with interior extents
    /// `dims`, at stride `s`.
    pub fn new<G: SlabGrid<Elem = T>>(dims: [usize; 3], s: usize) -> Self {
        let shape = G::slab_shape(dims);
        let plane = |slabs: usize| vec![T::ZERO; slabs * shape.elems()];
        Scratch {
            head: (0..VL).map(|k| plane((VL - k) * s + 1)).collect(),
            tail: (0..VL).map(|i| plane((i + 1) * s + 1)).collect(),
            ring: Ring::new(s, shape),
            s,
            shape,
        }
    }
}

/// Two zeroed old-slab buffers for [`scalar_sweep`] on a grid of type `G`
/// with interior extents `dims`.
pub(crate) fn step_bufs<G: SlabGrid>(dims: [usize; 3]) -> [Vec<G::Elem>; 2] {
    let len = G::slab_shape(dims).elems();
    [vec![G::Elem::ZERO; len], vec![G::Elem::ZERO; len]]
}

// ---------------------------------------------------------------------
// Geometry and row plumbing
// ---------------------------------------------------------------------

/// A grid's layout and the window of its storage in hand: where slab `x`
/// of the array a phase was given starts.
#[derive(Clone, Copy)]
pub(crate) struct Geo<T> {
    nx: usize,
    shape: SlabShape,
    /// Elements per outer slab of the grid.
    slab: usize,
    /// Elements between rows of one slab of the grid.
    pitch: usize,
    bc: T,
    /// Outer index of the slab the array starts with.
    x0: usize,
}

impl<T: Scalar> Geo<T> {
    #[inline(always)]
    fn new(lay: &SlabLayout<T>, first: usize) -> Self {
        Geo {
            nx: lay.nx,
            shape: lay.shape,
            slab: lay.slab,
            pitch: lay.pitch,
            bc: lay.bc,
            x0: first,
        }
    }

    /// Offset of outer slab `x` in the array.
    #[inline(always)]
    fn at(self, x: usize) -> usize {
        (x - self.x0) * self.slab
    }
}

/// One level's slabs as the boundary sweeps read them: the grid itself
/// (level 0) or a head/tail plane (packed rows), re-based at outer slab
/// `x0`. The source and its strides are chosen once per level, so the
/// row loops index plain equal-length slices.
#[derive(Clone, Copy)]
struct Level<'a, T> {
    data: &'a [T],
    slab: usize,
    pitch: usize,
    x0: usize,
}

impl<'a, T> Level<'a, T> {
    /// Level 0: the array of `geo`.
    #[inline(always)]
    fn grid(a: &'a [T], geo: Geo<T>) -> Self {
        Level {
            data: a,
            slab: geo.slab,
            pitch: geo.pitch,
            x0: geo.x0,
        }
    }

    /// A head or tail plane of packed slabs whose first is outer slab `x0`.
    #[inline(always)]
    fn plane(data: &'a [T], shape: SlabShape, x0: usize) -> Self {
        Level {
            data,
            slab: shape.elems(),
            pitch: shape.width,
            x0,
        }
    }

    #[inline(always)]
    fn slab(self, x: usize) -> &'a [T] {
        &self.data[(x - self.x0) * self.slab..]
    }
}

/// Set the ghost shell of one packed slab to `v`: its ghost rows and the
/// first and last column of every interior row.
#[inline(always)]
fn fill_shell<P: Copy>(slab: &mut [P], shape: SlabShape, v: P) {
    let (w, rows) = (shape.width, shape.interior());
    slab[..rows.start * w].fill(v);
    for row in slab[rows.start * w..rows.end * w].chunks_exact_mut(w) {
        row[0] = v;
        row[w - 1] = v;
    }
    slab[rows.end * w..shape.elems()].fill(v);
}

/// Copy slab `src` (row pitch `pitch`) into the packed buffer `dst`, ghost
/// rows and columns included.
#[inline(always)]
fn copy_slab<T: Copy>(src: &[T], pitch: usize, dst: &mut [T], shape: SlabShape) {
    for (r, row) in dst[..shape.elems()]
        .chunks_exact_mut(shape.width)
        .enumerate()
    {
        row.copy_from_slice(&src[r * pitch..][..shape.width]);
    }
}

/// Interleave `VL` equal-length rows into the interior packs of `dst`:
/// lane `i` of `dst[y]` is `rows[i][y]`.
#[inline(always)]
fn pack_rows<T: Scalar, const VL: usize>(dst: &mut [Pack<T, VL>], rows: [&[T]; VL]) {
    let w = dst.len();
    let rows = rows.map(|r| &r[..w]);
    for y in 1..w - 1 {
        dst[y] = Pack::from_fn(|i| rows[i][y]);
    }
}

/// Lane `i` of the interior packs of `src`, into the interior of `out`.
#[inline(always)]
fn unpack_lane<T: Scalar, const VL: usize>(src: &[Pack<T, VL>], i: usize, out: &mut [T]) {
    let w = out.len();
    let src = &src[..w];
    for y in 1..w - 1 {
        out[y] = src[y].extract(i);
    }
}

/// Sweep one level over the outer slabs `xs`: slab `x` of `out` (strides
/// `[slab, pitch]`, re-based at outer slab `x0`) from slabs `x-1 ..= x+1`
/// of the level `below`. The ghost shell of `out` must already hold the
/// boundary value.
#[inline(always)]
fn sweep_level<T: Scalar, const VL: usize, R: Rows<T, VL>>(
    rows: &R,
    shape: SlabShape,
    below: Level<'_, T>,
    out: &mut [T],
    strides: [usize; 2],
    x0: usize,
    xs: RangeInclusive<usize>,
) {
    let w = shape.width;
    for x in xs {
        for r in shape.interior() {
            let (done, rest) = out.split_at_mut((x - x0) * strides[0] + r * strides[1]);
            rows.sweep_row(SweepRow {
                old: [below.slab(x - 1), below.slab(x), below.slab(x + 1)],
                pitch: [below.pitch; 3],
                r,
                done,
                out: &mut rest[..w],
                strides,
            });
        }
    }
}

// ---------------------------------------------------------------------
// The in-place scalar step
// ---------------------------------------------------------------------

/// The outer slabs `xs` of one in-place scalar time step (grids below
/// `VL·s` and `steps mod VL` remainders) over the window `a` of a grid
/// laid out as `lay`. Two saved old slabs make the
/// Jacobi update single-array; Gauss-Seidel is naturally in place.
/// Results are bit-identical to the double-buffered reference.
///
/// The step is resumable: `bufs[0]` carries the old values of the last
/// slab a part updated to the part that continues at the next slab (a
/// part that starts at slab 1 takes them from the ghost slab), so a step
/// may be cut into parts run in ascending order over the same `bufs`. A
/// part touches slabs `xs.start() - 1 ..= xs.end() + 1` of the array.
/// The codegen context is the caller's.
#[inline(always)]
pub(crate) fn scalar_sweep_body<T, const VL: usize, R>(
    lay: &SlabLayout<T>,
    a: SlabsMut<'_, T>,
    rows: &R,
    xs: RangeInclusive<usize>,
    bufs: &mut [Vec<T>; 2],
) where
    T: Scalar,
    R: Rows<T, VL>,
{
    let (geo, a) = (Geo::new(lay, a.first), a.data);
    let (shape, w) = (geo.shape, geo.shape.width);
    if *xs.start() == 1 {
        copy_slab(&a[geo.at(0)..], geo.pitch, &mut bufs[0], shape);
    }
    for x in xs {
        // old_m = old values of slab x-1, old_c = old values of slab x.
        let [old_m, old_c] = &mut *bufs;
        copy_slab(&a[geo.at(x)..], geo.pitch, old_c, shape);
        for r in shape.interior() {
            let (done, rest) = a.split_at_mut(geo.at(x) + r * geo.pitch);
            let (row, ahead) = rest.split_at_mut(w);
            rows.sweep_row(SweepRow {
                old: [old_m, old_c, &ahead[geo.slab - r * geo.pitch - w..]],
                pitch: [w, w, geo.pitch],
                r,
                done,
                out: row,
                strides: [geo.slab, geo.pitch],
            });
        }
        bufs.swap(0, 1);
    }
}

// ---------------------------------------------------------------------
// The temporal sweep
// ---------------------------------------------------------------------

/// The anchors `xs` of one temporal sweep (`VL` time steps, in place,
/// single array) over the window `a` of a grid laid out as `lay`: the
/// prologue when `xs` starts at anchor 1, the steady
/// state over `xs`, the epilogue when `xs` ends at the last anchor
/// `x_max = nx + 1 - VL·s`. A whole tile is `xs = 1 ..= x_max`; parts of
/// one sweep run in ascending order over the same `sc`, which carries
/// everything in flight between them. The part touches the slabs from
/// its first anchor (from ghost slab 0 with the prologue) to `VL·s` past
/// its last (to ghost slab `nx + 1` with the epilogue). `COUNT`
/// instruments the steady rows. The codegen context is the caller's, and
/// must be the one `rows` compute in: baseline x86-64 for `Packs`, a
/// [`crate::slab_avx2`] sandwich for `Ymm`.
///
/// # Panics
/// Panics if `s < R::MIN_STRIDE`, the outer extent cannot host the vector
/// schedule (`nx < VL·s`: run scalar steps instead), or `sc` was allocated
/// for another stride or slab shape.
#[inline(always)]
pub(crate) fn sweep_body<T, const VL: usize, const COUNT: bool, R>(
    lay: &SlabLayout<T>,
    a: SlabsMut<'_, T>,
    rows: &R,
    xs: RangeInclusive<usize>,
    s: usize,
    sc: &mut Scratch<T, VL>,
) where
    T: Scalar,
    R: Rows<T, VL>,
{
    let (geo, a) = (Geo::new(lay, a.first), a.data);
    assert!(s >= R::MIN_STRIDE, "stride {s} illegal for this kernel");
    assert_eq!((sc.s, sc.shape), (s, geo.shape), "scratch shape mismatch");
    assert!(
        geo.nx >= VL * s,
        "outer extent {} below VL*s = {}: no vector schedule, run scalar steps",
        geo.nx,
        VL * s
    );
    let x_max = geo.nx + 1 - VL * s;
    let (first, last) = (*xs.start() == 1, *xs.end() == x_max);
    if first {
        tile_prologue(a, geo, rows, s, sc);
    }
    steady_slabs::<T, VL, COUNT, R>(a, geo, rows, s, &mut sc.ring, xs);
    if last {
        tile_epilogue(a, geo, rows, s, sc, x_max);
    }
}

/// Phase 1 of a temporal sweep: scalar head slabs for levels `1..VL`, the
/// initial wavefront ring `W(0) ..= W(s)`, and (for Gauss-Seidel) the
/// initial output slab `O(0, ·)`. Reads slabs `0 ..= VL·s` of the array
/// and writes only `sc`.
#[inline(always)]
fn tile_prologue<T, const VL: usize, R>(
    a: &[T],
    geo: Geo<T>,
    rows: &R,
    s: usize,
    sc: &mut Scratch<T, VL>,
) where
    T: Scalar,
    R: Rows<T, VL>,
{
    let (shape, bc) = (geo.shape, geo.bc);
    let (w, wp) = (shape.width, shape.elems());

    // head[k] = level k over slabs 1..=(VL-k)·s (slab 0 = boundary).
    for k in 1..VL {
        let hi = (VL - k) * s;
        let (lo_planes, hi_planes) = sc.head.split_at_mut(k);
        let plane = &mut hi_planes[0][..(hi + 1) * wp];
        plane[..wp].fill(bc);
        for slab in plane.chunks_exact_mut(wp).skip(1) {
            fill_shell(slab, shape, bc);
        }
        let below = if k == 1 {
            Level::grid(a, geo)
        } else {
            Level::plane(&lo_planes[k - 1], shape, 0)
        };
        sweep_level(rows, shape, below, plane, [wp, w], 0, 1..=hi);
    }

    // Initial wavefront ring W(0) ..= W(s): lane i of W(j) is level i at
    // outer slab j + (VL-1-i)·s — level 0 from the grid, level i ≥ 1 from
    // head[i] (whose slab 0 holds the boundary value).
    sc.ring.reset_shells(shape, bc, R::IS_GS);
    for j in 0..=s {
        let dst = &mut sc.ring.slabs[j % (s + 2)];
        for r in shape.interior() {
            let lanes: [&[T]; VL] = core::array::from_fn(|i| {
                let x = j + (VL - 1 - i) * s;
                if i == 0 {
                    &a[geo.at(x) + r * geo.pitch..][..w]
                } else {
                    &sc.head[i][x * wp + r * w..][..w]
                }
            });
            pack_rows(&mut dst[r * w..][..w], lanes);
        }
    }

    // Gauss-Seidel: O(0, ·), lane i = level i+1 at slab (VL-1-i)·s; the
    // top lane (level VL at slab 0) is the boundary slab of a head plane.
    if R::IS_GS {
        for r in shape.interior() {
            let lanes: [&[T]; VL] = core::array::from_fn(|i| {
                let (k, x) = if i == VL - 1 {
                    (VL - 1, 0)
                } else {
                    (i + 1, (VL - 1 - i) * s)
                };
                &sc.head[k][x * wp + r * w..][..w]
            });
            pack_rows(&mut sc.ring.o_prev[r * w..][..w], lanes);
        }
    }
}

/// Phase 2: one pass per anchor `x ∈ xs`,
/// producing `W(x+s)` from `W(x-1 ..= x+1)` row by row with the
/// rotate-and-blend rule, storing the finished top lanes into slab `x`
/// and taking the level-0 bottom lanes from slab `x + VL·s`. The ring
/// must hold `W(j)` at slot `j % (s+2)` for `j` from the first `x - 1` to
/// `x + s` — what the prologue, or the part before, left behind.
#[inline(always)]
fn steady_slabs<T: Scalar, const VL: usize, const COUNT: bool, R: Rows<T, VL>>(
    a: &mut [T],
    geo: Geo<T>,
    rows: &R,
    s: usize,
    ring: &mut Ring<T, VL>,
    xs: RangeInclusive<usize>,
) {
    // Rows above and below a row exist in 3-D only: `up` packs away.
    let (w, up) = (geo.shape.width, geo.shape.halo_rows * geo.shape.width);
    let rlen = s + 2;
    let rows = *rows; // the kernel by value: see `Rows`
    for x in xs {
        let ips = (x + s) % rlen;
        // Detach the write slab so the read slabs can stay borrowed.
        let mut wslab = core::mem::take(&mut ring.slabs[ips]);
        let [xm, mid, xp] = [x - 1, x, x + 1].map(|j| &ring.slabs[j % rlen][..]);
        let (lo, hi) = a.split_at_mut(geo.at(x + VL * s));
        let (o_prev, o_cur) = (&ring.o_prev[..], &mut ring.o_cur[..]);
        for r in geo.shape.interior() {
            let at = r * w;
            let (newest, o_row) = if R::IS_GS {
                let (above, o_row) = o_cur[at - up..].split_at_mut(up);
                let new_x = &o_prev[at..][..w];
                let new_y = if up > 0 { &above[..w] } else { new_x };
                ([new_x, new_y], &mut o_row[..w])
            } else {
                Default::default()
            };
            rows.steady_row::<COUNT>(SteadyRow {
                ring: [&xm[at..][..w], &mid[at..][..w], &xp[at..][..w]],
                sides: [&mid[at - up..][..w], &mid[at + up..][..w]],
                newest,
                o_row,
                out: &mut wslab[at..][..w],
                top: &mut lo[geo.at(x) + r * geo.pitch..][..w],
                bottom: &hi[r * geo.pitch..][..w],
            });
        }
        ring.slabs[ips] = wslab;
        if R::IS_GS {
            core::mem::swap(&mut ring.o_prev, &mut ring.o_cur);
        }
    }
}

/// Phase 3 of a temporal sweep: drain the surviving wavefront ring into
/// the tail planes and finish every level scalar-wise up to slab `nx`.
/// The ring must hold `W(j)` at slot `j % (s+2)` for
/// `j ∈ x_max ..= x_max+s`, as left behind by the steady state. Reads
/// slabs `x_max + (VL-1)·s ..= nx + 1` of the array and writes slabs
/// `x_max + 1 ..= nx`.
#[inline(always)]
fn tile_epilogue<T, const VL: usize, R>(
    a: &mut [T],
    geo: Geo<T>,
    rows: &R,
    s: usize,
    sc: &mut Scratch<T, VL>,
    x_max: usize,
) where
    T: Scalar,
    R: Rows<T, VL>,
{
    let (nx, shape, bc) = (geo.nx, geo.shape, geo.bc);
    let (w, wp) = (shape.width, shape.elems());
    for i in 1..VL {
        let base = x_max + (VL - 1 - i) * s;
        let slabs = (i + 1) * s + 1; // rel 0 ..= (i+1)·s, last = ghost slab nx+1
        debug_assert_eq!(base + slabs - 1, nx + 1);
        let (lo_planes, hi_planes) = sc.tail.split_at_mut(i);
        let plane = &mut hi_planes[0][..slabs * wp];
        for slab in plane.chunks_exact_mut(wp) {
            fill_shell(slab, shape, bc);
        }
        plane[(slabs - 1) * wp..].fill(bc);
        // Drain lane i of the surviving ring slabs: lane i of W(j) is
        // level i at outer slab j + (VL-1-i)·s = base + (j - x_max).
        for j in x_max..=x_max + s {
            let src = &sc.ring.slabs[j % (s + 2)];
            let dst = &mut plane[(j - x_max) * wp..][..wp];
            for r in shape.interior() {
                unpack_lane(&src[r * w..][..w], i, &mut dst[r * w..][..w]);
            }
        }
        // Scalar completion over slabs base+s+1 ..= nx, reading level i-1
        // from the grid or from tail[i-1] (based at base + s).
        let below = if i == 1 {
            Level::grid(a, geo)
        } else {
            Level::plane(&lo_planes[i - 1], shape, base + s)
        };
        sweep_level(rows, shape, below, plane, [wp, w], base, base + s + 1..=nx);
    }

    // Final level VL over slabs x_max+1 ..= nx, written into the array.
    let below = Level::plane(&sc.tail[VL - 1], shape, x_max);
    let strides = [geo.slab, geo.pitch];
    sweep_level(rows, shape, below, a, strides, geo.x0, x_max + 1..=nx);
}

/// One table-driven suite for the driver: kind × shape × steps
/// (remainders included) × stride × engine ≡ the scalar reference, as
/// whole tiles and cut into parts. The helpers are `pub(crate)` because
/// the entry points in `slab_floor_names.rs` select rows of the same
/// table.
#[cfg(test)]
pub(crate) mod tests {
    use crate::engine::tests::{multiload_in_parts, run_in_parts, run_whole};
    use crate::engine::{Engine, KernelSpace};
    use crate::kernels::{BoxKern2d, GsKern2d, GsKern3d, JacobiKern2d, JacobiKern3d, LifeKern2d};
    use tempora_grid::{
        fill_random_2d, fill_random_3d, fill_random_life, Boundary, Grid2, Grid3, SlabGrid,
    };
    use tempora_simd::arch::avx2_available;
    use tempora_stencil::{
        reference, Box2dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat2dCoeffs, Heat3dCoeffs, LifeRule,
    };

    /// What the table needs from a kernel besides [`KernelSpace`].
    pub(crate) trait Kind: KernelSpace {
        /// The rectangular shapes every kernel of this dimension runs.
        const SHAPES: &'static [[usize; 3]];
        /// A seeded grid with a seed-dependent boundary value.
        fn grid(dims: [usize; 3], seed: u64) -> Self::Grid;
        /// `steps` sweeps of the scalar reference.
        fn gold(&self, g: &Self::Grid, steps: usize) -> Self::Grid;
        /// The first interior difference or clobbered canary, if any.
        fn mismatch(ours: &Self::Grid, gold: &Self::Grid) -> Option<String>;
    }

    /// The last three of each: rows of one, two and three interior
    /// points (the row cursor's shortest rows, odd and even), in 3-D along
    /// both inner dimensions.
    pub(crate) const SHAPES_2D: &[[usize; 3]] = &[
        [8, 5, 1],
        [9, 8, 1],
        [17, 12, 1],
        [33, 9, 1],
        [40, 40, 1],
        [24, 31, 1],
        [35, 7, 1],
        [48, 25, 1],
        [19, 1, 1],
        [26, 2, 1],
        [33, 3, 1],
    ];
    pub(crate) const SHAPES_3D: &[[usize; 3]] = &[
        [9, 5, 6],
        [16, 8, 7],
        [21, 6, 11],
        [26, 6, 7],
        [24, 9, 8],
        [10, 4, 5],
        [33, 4, 3],
        [17, 1, 3],
        [20, 2, 1],
        [9, 3, 2],
    ];
    /// Whole tiles at both lane counts, and every remainder class.
    pub(crate) const STEPS: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 16];
    pub(crate) const STRIDES: &[usize] = &[2, 3, 4];
    /// `(shape, cut)` of the sweeps run as bands of parallelogram tiles
    /// (parts of `cut` anchors) several tiles long at every stride of
    /// [`STRIDES`] …
    pub(crate) const WIDE_BANDS_2D: &[([usize; 3], usize)] = &[
        ([128, 10, 1], 32),
        ([150, 7, 1], 50),
        ([96, 16, 1], 48),
        ([100, 1, 1], 33),
    ];
    pub(crate) const WIDE_BANDS_3D: &[([usize; 3], usize)] =
        &[([96, 5, 7], 32), ([120, 5, 7], 40), ([100, 2, 1], 33)];
    /// … and of the sweeps whose every part is narrower than the `VL·s`
    /// slabs it reads ahead (down to one anchor a part), the last one a
    /// single part.
    pub(crate) const NARROW_BANDS_2D: &[([usize; 3], usize)] = &[
        ([40, 8, 1], 5),
        ([30, 9, 1], 1),
        ([48, 17, 1], 7),
        ([10, 6, 1], 25),
        ([36, 2, 1], 5),
        ([30, 3, 1], 1),
    ];
    pub(crate) const NARROW_BANDS_3D: &[([usize; 3], usize)] = &[
        ([30, 4, 4], 3),
        ([20, 5, 6], 1),
        ([33, 5, 6], 7),
        ([9, 5, 6], 16),
        ([30, 1, 3], 3),
        ([20, 3, 2], 1),
    ];

    fn grid2(dims: [usize; 3], seed: u64) -> Grid2<f64> {
        let bc = (seed % 7) as f64 * 0.5 - 1.0;
        let mut g = Grid2::with_dims(dims, Boundary::Dirichlet(bc));
        fill_random_2d(&mut g, seed, -1.0, 1.0);
        g
    }

    fn grid3(dims: [usize; 3], seed: u64) -> Grid3<f64> {
        let bc = (seed % 7) as f64 * 0.5 - 1.0;
        let mut g = Grid3::with_dims(dims, Boundary::Dirichlet(bc));
        fill_random_3d(&mut g, seed, -1.0, 1.0);
        g
    }

    fn mismatch<D: core::fmt::Debug>(
        canaries: Result<(), usize>,
        diff: Option<D>,
    ) -> Option<String> {
        let canary = canaries.err().map(|at| format!("canary {at}"));
        diff.map(|d| format!("{d:?}")).or(canary)
    }

    impl Kind for JacobiKern2d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_2D;
        fn grid(dims: [usize; 3], seed: u64) -> Grid2<f64> {
            grid2(dims, seed)
        }
        fn gold(&self, g: &Grid2<f64>, steps: usize) -> Grid2<f64> {
            reference::heat2d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid2<f64>, gold: &Grid2<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for BoxKern2d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_2D;
        fn grid(dims: [usize; 3], seed: u64) -> Grid2<f64> {
            grid2(dims, seed)
        }
        fn gold(&self, g: &Grid2<f64>, steps: usize) -> Grid2<f64> {
            reference::box2d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid2<f64>, gold: &Grid2<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for GsKern2d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_2D;
        fn grid(dims: [usize; 3], seed: u64) -> Grid2<f64> {
            grid2(dims, seed)
        }
        fn gold(&self, g: &Grid2<f64>, steps: usize) -> Grid2<f64> {
            reference::gs2d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid2<f64>, gold: &Grid2<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for LifeKern2d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_2D;
        fn grid(dims: [usize; 3], seed: u64) -> Grid2<i32> {
            let mut g = Grid2::with_dims(dims, Boundary::Dirichlet(0));
            fill_random_life(&mut g, seed, 0.35);
            g
        }
        fn gold(&self, g: &Grid2<i32>, steps: usize) -> Grid2<i32> {
            reference::life(g, self.0, steps)
        }
        fn mismatch(ours: &Grid2<i32>, gold: &Grid2<i32>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for JacobiKern3d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_3D;
        fn grid(dims: [usize; 3], seed: u64) -> Grid3<f64> {
            grid3(dims, seed)
        }
        fn gold(&self, g: &Grid3<f64>, steps: usize) -> Grid3<f64> {
            reference::heat3d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid3<f64>, gold: &Grid3<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    impl Kind for GsKern3d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_3D;
        fn grid(dims: [usize; 3], seed: u64) -> Grid3<f64> {
            grid3(dims, seed)
        }
        fn gold(&self, g: &Grid3<f64>, steps: usize) -> Grid3<f64> {
            reference::gs3d(g, self.0, steps)
        }
        fn mismatch(ours: &Grid3<f64>, gold: &Grid3<f64>) -> Option<String> {
            mismatch(ours.check_canaries(), ours.first_diff(gold))
        }
    }

    // The kernels of the table; Gauss-Seidel and Life come in two variants
    // (the asymmetric coefficients tell the five/seven operands apart).
    pub(crate) fn heat2d() -> JacobiKern2d {
        JacobiKern2d(Heat2dCoeffs::classic(0.12))
    }
    pub(crate) fn box2d() -> BoxKern2d {
        BoxKern2d(Box2dCoeffs::new([
            [0.01, 0.07, 0.03],
            [0.09, 0.55, 0.08],
            [0.05, 0.06, 0.06],
        ]))
    }
    pub(crate) fn gs2d() -> GsKern2d {
        GsKern2d(Gs2dCoeffs::classic(0.2))
    }
    pub(crate) fn gs2d_asym() -> GsKern2d {
        GsKern2d(Gs2dCoeffs::new(0.31, 0.17, 0.23, 0.11, 0.13))
    }
    pub(crate) fn life() -> LifeKern2d {
        LifeKern2d(LifeRule::b2s23())
    }
    pub(crate) fn conway() -> LifeKern2d {
        LifeKern2d(LifeRule::conway())
    }
    pub(crate) fn heat3d() -> JacobiKern3d {
        JacobiKern3d(Heat3dCoeffs::classic(0.11))
    }
    pub(crate) fn gs3d() -> GsKern3d {
        GsKern3d(Gs3dCoeffs::classic(0.13))
    }
    pub(crate) fn gs3d_asym() -> GsKern3d {
        GsKern3d(Gs3dCoeffs::new(0.21, 0.13, 0.08, 0.3, 0.09, 0.11, 0.07))
    }

    /// The AVX2 engine where the CPU has it (else nothing to compare).
    pub(crate) fn avx2() -> Vec<Engine> {
        Vec::from_iter(avx2_available().then_some(Engine::Avx2))
    }

    /// Portable, plus AVX2 where the CPU has it.
    pub(crate) fn engines() -> Vec<Engine> {
        [vec![Engine::Portable], avx2()].concat()
    }

    /// Untiled runs (whole sweeps + scalar remainder) over
    /// `shapes × strides × steps × engines` against the reference.
    pub(crate) fn rect<K: Kind>(
        kern: &K,
        engines: &[Engine],
        shapes: &[[usize; 3]],
        steps: &[usize],
        strides: &[usize],
    ) {
        for (&dims, &s, &n) in product3(shapes, strides, steps) {
            let g = K::grid(dims, (dims[0] * dims[1] + s + n) as u64);
            let gold = kern.gold(&g, n);
            for &e in engines {
                let ours = run_whole(e, &g, kern, n, s);
                if let Some(d) = K::mismatch(&ours, &gold) {
                    panic!("{e:?} dims={dims:?} s={s} steps={n}: {d}");
                }
            }
        }
    }

    /// The product of three slices, as references.
    fn product3<'a, A, B, C>(
        a: &'a [A],
        b: &'a [B],
        c: &'a [C],
    ) -> impl Iterator<Item = (&'a A, &'a B, &'a C)> {
        a.iter()
            .flat_map(move |x| b.iter().flat_map(move |y| c.iter().map(move |z| (x, y, z))))
    }

    /// Outer extents `1 ..= VL·s` at the minimum stride, over the inner
    /// extents of every shape: every outer extent below `VL·s` runs the
    /// scalar fallback inside the tile entry point, the last one is the
    /// smallest vector tile.
    pub(crate) fn degenerate<K: Kind>(kern: &K, engines: &[Engine]) {
        let vl = K::vl(Engine::Portable);
        let outer = 1..=vl * K::MIN_STRIDE;
        let shapes = Vec::from_iter(
            outer.flat_map(|nx| K::SHAPES.iter().map(move |inner| [nx, inner[1], inner[2]])),
        );
        rect(
            kern,
            engines,
            &shapes,
            &[vl, vl + 1, 2 * vl + 3],
            &[K::MIN_STRIDE],
        );
    }

    /// Sweeps as bands of parallelogram tiles (§3.4) — every temporal
    /// sweep (`temporal`) or every scalar step cut into parts of `cut`
    /// anchors, each on the window of slabs its contract names, then the
    /// remainder steps cut the same way — over `cases × strides × steps ×
    /// engines` against the reference. `wide` states whether the parts of
    /// `cases` are at least as wide as the `VL·s` slabs they read ahead,
    /// the width the pipelined sweeps of `tempora-tiling` chunk by; it is
    /// asserted, so that a narrow row stays narrow.
    pub(crate) fn banded<K: Kind>(
        kern: &K,
        engines: &[Engine],
        cases: &[([usize; 3], usize)],
        strides: &[usize],
        temporal: bool,
        wide: bool,
    ) {
        let vl = K::vl(Engine::Portable);
        for (&(dims, cut), &s, &n) in product3(cases, strides, &[vl, 2 * vl, 2 * vl + 2]) {
            assert_eq!(cut >= vl * s && cut < dims[0], wide, "{dims:?} {cut} {s}");
            let g = K::grid(dims, (dims[0] + dims[1] + s + n) as u64);
            let gold = kern.gold(&g, n);
            for &e in engines {
                let ours = run_in_parts(e, &g, kern, n, temporal.then_some(s), cut);
                if let Some(d) = K::mismatch(&ours, &gold) {
                    panic!("{e:?} dims={dims:?} cut={cut} s={s} steps={n}: {d}");
                }
            }
        }
    }

    /// Multi-load steps cut into parts of `cut` slabs over `shapes × cuts
    /// × steps × engines` against the reference.
    pub(crate) fn multiload<K: Kind>(
        kern: &K,
        engines: &[Engine],
        shapes: &[[usize; 3]],
        cuts: &[usize],
    ) {
        for (&dims, &cut, &n) in product3(shapes, cuts, &[1, 2, 5]) {
            let g = K::grid(dims, (dims[0] * dims[1] + cut + n) as u64);
            let gold = kern.gold(&g, n);
            for &e in engines {
                let ours = multiload_in_parts(e, &g, kern, n, cut);
                if let Some(d) = K::mismatch(&ours, &gold) {
                    panic!("multiload {e:?} dims={dims:?} cut={cut} steps={n}: {d}");
                }
            }
        }
    }

    /// A glider on a dead 40×40 board moves one cell diagonally every four
    /// generations, through whole tiles and remainders alike.
    pub(crate) fn glider(engines: &[Engine]) {
        let mut g = Grid2::<i32>::new(40, 40, 1, Boundary::Dirichlet(0));
        for &(x, y) in &[(2, 3), (3, 4), (4, 2), (4, 3), (4, 4)] {
            g.set(x, y, 1);
        }
        for &e in engines {
            let ours = run_whole(e, &g, &conway(), 24, 2);
            assert_eq!(LifeKern2d::mismatch(&ours, &conway().gold(&g, 24)), None);
            assert_eq!(ours.get(4 + 6, 3 + 6), 1);
        }
    }

    #[test]
    fn rect_table_matches_reference() {
        let e = engines();
        rect(&heat2d(), &e, SHAPES_2D, STEPS, STRIDES);
        rect(&box2d(), &e, SHAPES_2D, STEPS, STRIDES);
        rect(&gs2d(), &e, SHAPES_2D, STEPS, STRIDES);
        rect(&gs2d_asym(), &e, SHAPES_2D, STEPS, STRIDES);
        rect(&life(), &e, SHAPES_2D, STEPS, STRIDES);
        rect(&conway(), &e, SHAPES_2D, STEPS, STRIDES);
        rect(&heat3d(), &e, SHAPES_3D, STEPS, STRIDES);
        rect(&gs3d(), &e, SHAPES_3D, STEPS, STRIDES);
        rect(&gs3d_asym(), &e, SHAPES_3D, STEPS, STRIDES);
        glider(&e);
    }

    #[test]
    fn degenerate_outer_extents_fall_back() {
        let e = engines();
        degenerate(&heat2d(), &e);
        degenerate(&box2d(), &e);
        degenerate(&gs2d_asym(), &e);
        degenerate(&life(), &e);
        degenerate(&heat3d(), &e);
        degenerate(&gs3d_asym(), &e);
    }

    /// §3.4: a sweep run as a band of parallelogram tiles — its parts —
    /// is the sweep, for every kind (the Jacobi kinds too: one path), wide
    /// and narrow parts, scalar and temporal, and the multi-load steps.
    #[test]
    fn band_table_matches_reference() {
        let e = engines();
        for temporal in [false, true] {
            banded(&heat2d(), &e, WIDE_BANDS_2D, STRIDES, temporal, true);
            banded(&box2d(), &e, NARROW_BANDS_2D, &[2], temporal, false);
            banded(&life(), &e, WIDE_BANDS_2D, &[2, 3], temporal, true);
            banded(&conway(), &e, NARROW_BANDS_2D, &[2], temporal, false);
            for kern in [gs2d(), gs2d_asym()] {
                banded(&kern, &e, WIDE_BANDS_2D, STRIDES, temporal, true);
                banded(&kern, &e, NARROW_BANDS_2D, &[2], temporal, false);
            }
            banded(&heat3d(), &e, WIDE_BANDS_3D, STRIDES, temporal, true);
            banded(&heat3d(), &e, NARROW_BANDS_3D, &[2], temporal, false);
            for kern in [gs3d(), gs3d_asym()] {
                banded(&kern, &e, WIDE_BANDS_3D, STRIDES, temporal, true);
                banded(&kern, &e, NARROW_BANDS_3D, &[2], temporal, false);
            }
        }
        multiload(&heat2d(), &e, SHAPES_2D, &[1, 3, 100]);
        multiload(&box2d(), &e, SHAPES_2D, &[1, 3, 100]);
        multiload(&life(), &e, SHAPES_2D, &[1, 3, 100]);
        multiload(&heat3d(), &e, SHAPES_3D, &[1, 3, 100]);
    }
}
