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
//! One sweep advances the grid `VL` levels: the steady state over the
//! anchors `1 ..= x_max` (`x_max = nx + 1 - VL·s`), where every lane's
//! slab lies in the grid, and — where Algorithm 3 has scalar triangles —
//! **masked ends** as in [`crate::t1d`]: the anchors `1 - (VL-1)·s ..= 0`
//! after a ring fill (lane 0 of the first `s + 1` wavefront slabs from the
//! grid, the boundary value everywhere else) and `x_max + 1 ..= nx`, steady
//! iterations whose lanes with a slab outside `1 ..= nx` take the boundary
//! value by one select per output vector (`masked_slabs`). They run the
//! steady rows, instantiated with the mask, through the steady state's
//! segment walk, so producing an input vector costs the same at the edges
//! of a sweep as in its middle. The steady state at anchor `x` writes
//! level `t + VL` into slab `x` and reads level `t` from slab `x + VL·s`:
//! in `(x, t)` it sweeps a parallelogram of slope `-s`. Everything in
//! flight — the ring and the two Gauss-Seidel output slabs — lives in
//! [`Scratch`], so the anchor range can be cut anywhere and resumed: the
//! driver's primitive is one **part** (`sweep_body` over a range of
//! anchors, with the masked front when the range starts at 1 and the
//! masked back when it ends at `x_max`), and a whole tile is its one-part
//! case.
//! Consecutive parts of one sweep *are* the paper's §3.4 parallelogram
//! tiles, and a part touches one contiguous window of slabs, from its
//! first anchor to `VL·s` past its last — which is all that
//! `tempora-tiling` needs to let a second sweep chase the first through
//! the same array. The in-place scalar step (`scalar_sweep_body`) is
//! resumable the same way; its carried state is the two saved old slabs.
//!
//! # Segments: the ring in L1
//!
//! The ring is `s + 2` slabs of `VL`-wide packs, `VL` times the bytes of
//! the grid slabs it stands for: at four lanes a ring of 384-column rows
//! fills the 48 KiB L1, at eight lanes one of 192-column rows, and from
//! there every operand comes from L2. So the steady state of a part walks
//! its anchors inside **segments** of the slab's units — columns of a 2-D
//! row, rows of a 3-D plane — as wide as two thirds of L1d hold for the
//! ring (`segment_width`, from sysfs): anchor `x` runs the units
//! `[1 + b·B − d, 1 + (b+1)·B − d)` of segment `b`, `d = x − x0` its place
//! in the part, one unit of skew per anchor. A ring that fits stays one
//! segment, the unsegmented order. Every dependence of that order holds
//! for `s ≥ 2` — what anchor `x` reads past its segment's edge, anchors
//! `x − s − 1 ..= x + 1 − s` produced `s − 2` or more units further on; a
//! ring slot is overwritten only where the three anchors before have read
//! it; a grid row read as bottom lanes is written as top lanes `VL·s`
//! anchors later in the same segment or a later one — and
//! `steady_slabs` states it in full. The pieces are ordinary steady rows
//! over sub-slices: the row cursor, `finish` and the kernels do not know
//! about segments.
//!
//! # What is shared and what is per kernel
//!
//! The driver owns the sweep, its masked ends included, and the in-place
//! scalar step. A kernel contributes a `Rows` implementation and nothing
//! else: one scalar row sweep and one steady row per dimension (`Rows2` over
//! [`Pack2d`], `Rows3` over [`Kernel3d`]), the steady row written once,
//! on a `RowCursor`, generic over the register form it computes in
//! ([`tempora_simd::Lanes`]: the portable engine's `Packs`, the AVX2
//! engine's `Ymm`, the AVX-512 engine's `Zmm`) — the kernel's own vector
//! formula between the cursor's
//! operands and its `finish`. Gauss-Seidel (§3.4) adds the previous and
//! the current output slab (`O(x-1, ·)`, `O(x, ·)`) for the outer
//! dimensions' newest operands; the innermost one's is the previous
//! output vector, in a register. That register is a chain of two or three
//! dependent FMAs per point, so a Gauss-Seidel row waits on it: its rows
//! run two at a time (`Rows::steady_pair`), at the masked ends too, the
//! second row taking the newest operand it shares with the first from
//! that row's output, in a register, so that the chains overlap.
//!
//! # One source, three codegen contexts
//!
//! Every function below the entry points is `#[inline(always)]`: the
//! `sweep` and `scalar_sweep` of the slab kernels' `KernelSpace` impl
//! instantiate the driver for baseline x86-64, with rows that compute in
//! `Packs`, and instantiate the *same source*, steady rows included, a
//! second time inside the AVX2 sandwich ([`tempora_simd::arch::Ymm::run`],
//! `avx2,fma`, handed an `#[inline(always)]` closure over
//! `sweep_body` or `scalar_sweep_body`) with rows that compute in
//! `Ymm`, and — the `f64` 2-D kinds, at eight lanes — a third time inside
//! the AVX-512 one ([`tempora_simd::arch::Zmm::run`], `avx512f,avx2,fma`)
//! with rows in `Zmm`. That matters
//! because outside such a context every `f64::mul_add` is a call into
//! libm's `fma` (≈ 3 ns each), while inside it is one `vfmadd` — both are
//! the exactly-rounded fused operation, so results do not change, only
//! speed. Dropping one of these attributes silently brings the libm calls
//! back; `cargo xtask audit` (rules `phase-inline` and `sandwich-inline`)
//! guards them.

use crate::kernels::{Kernel3d, Nbhd, Nbhd3, Pack2d};
use core::cell::Cell;
use core::ops::{Range, RangeInclusive};
use std::sync::OnceLock;
use tempora_grid::{pad_len, AlignedBuf, PackBuf, SlabGrid, SlabLayout, SlabShape, SlabsMut};
use tempora_simd::count::{self, Op};
use tempora_simd::{F64Lanes, Lanes, Mask, Pack, Scalar};

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

/// Where the anchors of a steady row lie in their sweep, as its `END`
/// parameter: [`STEADY`] at `1 ..= x_max`, where every lane's slab
/// `x + (VL−1−k)·s` lies in `1 ..= nx`, or at one of the two masked ends,
/// where the lanes whose slab does not take the boundary value by one
/// select ([`RowCursor::finish`]). Where an end's anchor has no grid slab
/// to store its top lanes into (the front's `x ≤ 0`) or to take its
/// bottoms from (the back's `x > x_max`: slab `x + VL·s` lies past
/// `nx + 1`), it uses the ring's edge instead ([`Part::grid_slabs`]).
pub(crate) const STEADY: u8 = 0;
/// The masked front: anchors `1 − (VL−1)·s ..= 0` ([`STEADY`]).
pub(crate) const FRONT: u8 = 1;
/// The masked back: anchors `x_max + 1 ..= nx` ([`STEADY`]).
pub(crate) const BACK: u8 = 2;

/// One steady-state row: the interior packs of a row of `W(x+s)`, the
/// finished top lanes and (Gauss-Seidel) the output row, from the rows
/// around it in the wavefront slabs around `x`. Every row is `w` wide
/// with its ghost columns in place. `END` says where `x` lies
/// ([`STEADY`]).
pub(crate) struct SteadyRow<'a, T: Scalar, const VL: usize, const END: u8> {
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
    /// Grid row `(x, ·)`: receives the finished top lanes (at the front,
    /// a row of the ring's edge).
    pub top: &'a mut [T],
    /// Grid row `(x + VL·s, ·)`: supplies the level-0 bottom lanes (at the
    /// back, a row of the boundary value).
    pub bottom: &'a [T],
    /// The lanes whose slab lies in `1 ..= nx` (masked ends only) …
    pub inside: Mask<VL>,
    /// … and the boundary value the others take.
    pub bc: T,
}

/// Two steady rows of a Gauss-Seidel part in one loop, for
/// [`Rows::steady_pair`]: `a`, and `b`, the row after it in sweep order,
/// whose newest operand across the pair is `a`'s output.
///
/// * 3-D: rows `r` and `r + 1` of one anchor's piece, point by point.
///   Both are whole Gauss-Seidel rows, except that `b.newest[1]` — the row
///   `a` produces — is a stand-in the loop does not read. `shared` is
///   empty.
/// * 2-D: anchors `x` and `x + 1`, `b` one column behind `a` (the skew of
///   the segments). `a` keeps its output row but takes its north operand,
///   `O(x-1, ·)`, from `shared`: the output row that `b` overwrites with
///   `O(x+1, ·)` one column behind, from column `c0 − 2` on. `b` has no
///   output row of its own. At `s = 2` its south row, `W(x+2)`, is the
///   one `a` produces: `south_from_a` is set and the row is a stand-in.
///   `a.newest`, and the operands no Gauss-Seidel kernel reads (`W(x-1)`,
///   the corners), are stand-ins too.
pub(crate) struct SteadyPair<'a, T: Scalar, const VL: usize, const END: u8> {
    pub a: SteadyRow<'a, T, VL, END>,
    pub b: SteadyRow<'a, T, VL, END>,
    pub shared: &'a mut [Pack<T, VL>],
    pub south_from_a: bool,
}

/// The interior of one steady row, whatever the kernel and engine: every
/// operand row cut to the `len` interior points exactly once — the row
/// loop `for i in 0..cur.len()` indexes equal-length slices and carries
/// no bounds check — the per-point operands in the engine's register
/// form, and what a steady iteration does whatever the kernel
/// ([`RowCursor::finish`]).
pub(crate) struct RowCursor<'a, T: Scalar, const VL: usize, L: Lanes<T, VL>, const END: u8> {
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
    inside: Mask<VL>,
    bc: T,
}

/// The three `n`-element views of a `n + 2`-element row: the points'
/// west, centre and east neighbours.
#[inline(always)]
fn views<P>(row: &[P], n: usize) -> [&[P]; 3] {
    [&row[..n], &row[1..][..n], &row[2..][..n]]
}

impl<'a, T: Scalar, const VL: usize, const END: u8> SteadyRow<'a, T, VL, END> {
    /// The row's cursor in `isa`'s register form.
    #[inline(always)]
    pub(crate) fn cursor<L: Lanes<T, VL>>(self, isa: L) -> RowCursor<'a, T, VL, L, END> {
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
            inside: self.inside,
            bc: self.bc,
        }
    }
}

impl<T: Scalar, const VL: usize, L: Lanes<T, VL>, const END: u8> RowCursor<'_, T, VL, L, END> {
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
    /// point `i`: at a masked end, give the lanes whose slab leaves
    /// `1 ..= nx` the boundary value (one select); store its finished top
    /// lane, rotate and blend the next input vector into the ring (one
    /// `vrotate`, one `vblend`, whatever the kernel) and, for
    /// Gauss-Seidel, keep `o`: in the output row, and in the register the
    /// next point reads. `COUNT` ticks the produced input vector's
    /// reorganization budget in [`tempora_simd::count`] (same ticks as
    /// `t1d`'s ring). Returns `o` as kept, which a 2-D Gauss-Seidel pair
    /// stores for its second anchor, and the produced input vector, which
    /// it hands to that anchor at `s = 2` ([`Rows::steady_pair`]).
    #[inline(always)]
    pub(crate) fn finish<const COUNT: bool>(&mut self, i: usize, o: L::V) -> [L::V; 2] {
        let isa = self.isa;
        let o = if END == STEADY {
            o
        } else {
            isa.select(self.inside, o, isa.splat(self.bc))
        };
        self.top[i] = isa.top(o);
        let v = isa.shift_up_insert(o, self.bottom[i]);
        self.out[i] = isa.store(v);
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
        [o, v]
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
    /// the 1-D engine does; `END` instantiates the masked ends' rows
    /// ([`STEADY`]).
    fn steady_row<const COUNT: bool, const END: u8>(&self, row: SteadyRow<'_, T, VL, END>);

    /// Two steady rows in one loop (Gauss-Seidel only), as
    /// [`SteadyPair`] lays them out: two output-vector chains interleave,
    /// the second taking its newest operand across the pair from the
    /// first in a register. Bit-identical to `a`'s row, then `b`'s.
    fn steady_pair<const COUNT: bool, const END: u8>(&self, pair: SteadyPair<'_, T, VL, END>);
}

/// The west, centre and east views ([`views`]) of the three slabs
/// `x-1 ..= x+1` of a 2-D row of `n` points.
#[inline(always)]
fn views3<P>(old: [&[P]; 3], n: usize) -> [[&[P]; 3]; 3] {
    [views(old[0], n), views(old[1], n), views(old[2], n)]
}

/// The old 3×3 neighbourhood of point `i` of [`views3`]. Written out: an
/// `array::map` here doubled the cost of the 2-D scalar rows.
#[inline(always)]
fn at3<P: Copy>(v: &[[&[P]; 3]; 3], i: usize) -> [[P; 3]; 3] {
    [
        [v[0][0][i], v[0][1][i], v[0][2][i]],
        [v[1][0][i], v[1][1][i], v[1][2][i]],
        [v[2][0][i], v[2][1][i], v[2][2][i]],
    ]
}

/// [`Rows2`]'s 2-D anchor pair ([`SteadyPair`]): `a` at column `c` and
/// `b` at `c − 1` in one iteration, `b` first — it reads `a`'s newest
/// output, `O(x, c − 1)`, and (`SOUTH`, `s = 2`) the input vector `a`
/// produced there, `W(x+2, c − 1)`, both still in registers — then `a`,
/// whose north operand `O(x-1, c)` `b` overwrites one iteration later.
#[inline(always)]
fn anchor_pair<T, const VL: usize, L, K, const SOUTH: bool, const COUNT: bool, const END: u8>(
    kern: K,
    isa: L,
    pair: SteadyPair<'_, T, VL, END>,
) where
    T: Scalar,
    L: Lanes<T, VL>,
    K: Pack2d<T, VL, L>,
{
    let SteadyPair { a, b, shared, .. } = pair;
    // `a`'s input vector of column `c0 − 1`: `b`'s first south operand.
    let mut south = isa.load(a.out[0]);
    let (mut ca, mut cb) = (a.cursor(isa), b.cursor(isa));
    let n = ca.len();
    assert_eq!(
        cb.len(),
        n,
        "the anchors of a pair run pieces of one length"
    );
    let mut west_b = isa.load(shared[0]);
    // `b` writes the columns `a` reads one iteration later: two views of
    // one row, each cut to the piece once.
    let shared = Cell::from_mut(shared).as_slice_of_cells();
    let (o_b, north_a) = (&shared[1..][..n], &shared[2..][..n]);
    for i in 0..n {
        let mut nb = cb.nbhd(i);
        (nb.new_n, nb.new_w) = (ca.newest, west_b);
        if SOUTH {
            nb.v[2][1] = south;
        }
        [west_b, _] = cb.finish::<COUNT>(i, kern.pack(isa, nb));
        o_b[i].set(isa.store(west_b));
        let mut nb = ca.nbhd(i);
        nb.new_n = isa.load(north_a[i].get());
        let o = kern.pack(isa, nb);
        [_, south] = ca.finish::<COUNT>(i, o);
    }
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
        let v = views3(row.old, n);
        let north = if K::IS_GS {
            &row.done[row.done.len() - row.strides[0] + 1..][..n]
        } else {
            v[2][1]
        };
        let mut west = row.out[0];
        let out = &mut row.out[1..][..n];
        for i in 0..n {
            let o = self.0.scalar(Nbhd {
                v: at3(&v, i),
                new_n: north[i],
                new_w: west,
            });
            out[i] = o;
            west = o;
        }
    }

    #[inline(always)]
    fn steady_row<const COUNT: bool, const END: u8>(&self, row: SteadyRow<'_, T, VL, END>) {
        let mut cur = row.cursor(self.1);
        for i in 0..cur.len() {
            let o = self.0.pack(self.1, cur.nbhd(i));
            cur.finish::<COUNT>(i, o);
        }
    }

    #[inline(always)]
    fn steady_pair<const COUNT: bool, const END: u8>(&self, pair: SteadyPair<'_, T, VL, END>) {
        if pair.south_from_a {
            anchor_pair::<T, VL, L, K, true, COUNT, END>(self.0, self.1, pair);
        } else {
            anchor_pair::<T, VL, L, K, false, COUNT, END>(self.0, self.1, pair);
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
        let (n, done) = (row.out.len() - 2, row.done);
        let old = Old3::of(row.old, row.pitch, row.r, n);
        let [new_xm, new_ym] = if K::IS_GS {
            row.strides.map(|back| &done[done.len() - back + 1..][..n])
        } else {
            [old.xp, old.xp]
        };
        let mut new_zm = row.out[0];
        let out = &mut row.out[1..][..n];
        for i in 0..n {
            let o = self.0.scalar(old.nbhd(i, new_xm[i], new_ym[i], new_zm));
            out[i] = o;
            new_zm = o;
        }
    }

    #[inline(always)]
    fn steady_row<const COUNT: bool, const END: u8>(&self, row: SteadyRow<'_, f64, VL, END>) {
        let mut cur = row.cursor(self.1);
        for i in 0..cur.len() {
            let o = self.0.pack(self.1, cur.nbhd3(i));
            cur.finish::<COUNT>(i, o);
        }
    }

    /// Rows `r` and `r + 1` point by point: `b`'s `y − 1` operand is `a`'s
    /// output vector of the same point.
    #[inline(always)]
    fn steady_pair<const COUNT: bool, const END: u8>(&self, pair: SteadyPair<'_, f64, VL, END>) {
        let (mut ca, mut cb) = (pair.a.cursor(self.1), pair.b.cursor(self.1));
        let n = ca.len();
        assert_eq!(cb.len(), n, "the rows of a pair are one piece long");
        for i in 0..n {
            let o = self.0.pack(self.1, ca.nbhd3(i));
            let mut nb = cb.nbhd3(i);
            nb.new_ym = o;
            let p = self.0.pack(self.1, nb);
            ca.finish::<COUNT>(i, o);
            cb.finish::<COUNT>(i, p);
        }
    }
}

/// The old operands of the `n` interior points of row `r` of a 3-D slab
/// `x`: the row in slabs `x-1 ..= x+1` (`old`, from their first rows, row
/// pitches `pitch`) and the rows above and below it in slab `x`.
#[derive(Clone, Copy)]
struct Old3<'a> {
    xm: &'a [f64],
    ym: &'a [f64],
    zm: &'a [f64],
    m: &'a [f64],
    zp: &'a [f64],
    yp: &'a [f64],
    xp: &'a [f64],
}

impl<'a> Old3<'a> {
    #[inline(always)]
    fn of(old: [&'a [f64]; 3], pitch: [usize; 3], r: usize, n: usize) -> Self {
        let at = |k: usize, r: usize| &old[k][r * pitch[k] + 1..][..n];
        let [zm, m, zp] = views(&old[1][r * pitch[1]..], n);
        Old3 {
            xm: at(0, r),
            ym: at(1, r - 1),
            zm,
            m,
            zp,
            yp: at(1, r + 1),
            xp: at(2, r),
        }
    }

    /// Point `i`'s neighbourhood, with its three newest operands.
    #[inline(always)]
    fn nbhd(&self, i: usize, new_xm: f64, new_ym: f64, new_zm: f64) -> Nbhd3<f64> {
        Nbhd3 {
            xm: self.xm[i],
            ym: self.ym[i],
            zm: self.zm[i],
            m: self.m[i],
            zp: self.zp[i],
            yp: self.yp[i],
            xp: self.xp[i],
            new_xm,
            new_ym,
            new_zm,
        }
    }
}

// ---------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------

/// The wavefront ring of one sweep: `s + 2` slabs of input-vector packs,
/// `W(j)` at slot `j % (s+2)`, the two Gauss-Seidel output slabs (empty
/// for Jacobi) and the masked ends' edge slab. Every slab starts on a
/// cache line ([`PackBuf`]): a 64-byte pack of a `Vec`, aligned to 32
/// bytes only, may straddle two.
struct Ring<T: Scalar, const VL: usize> {
    slabs: Vec<PackBuf<T, VL>>,
    /// Output slab `O(x-1, ·)` when the anchor's place in its part is
    /// even, `O(x, ·)` when odd (Gauss-Seidel only): see [`steady_slabs`].
    o_prev: PackBuf<T, VL>,
    /// The other output slab (Gauss-Seidel only).
    o_cur: PackBuf<T, VL>,
    /// One grid slab and one row, in the grid's layout: where the masked
    /// front stores its top lanes (slab `x ≤ 0` is no grid slab) and the
    /// masked back takes its bottoms from, the boundary value (slab
    /// `x + VL·s` lies past `nx + 1`) — a 2-D Gauss-Seidel pair's two
    /// anchors reach one row into the next slab ([`Part::grid_slabs`]).
    edge: AlignedBuf<T>,
}

impl<T: Scalar, const VL: usize> Ring<T, VL> {
    fn new(s: usize, shape: SlabShape, gs: bool) -> Self {
        let slab = PackBuf::zeroed;
        let out = if gs { shape.elems() } else { 0 };
        Ring {
            slabs: (0..s + 2).map(|_| slab(shape.elems())).collect(),
            o_prev: slab(out),
            o_cur: slab(out),
            // A grid row is `pad_len(width)` elements apart: the layout
            // `sweep_body` checks.
            edge: AlignedBuf::zeroed((shape.rows + 1) * pad_len(shape.width)),
        }
    }

    /// Set the packs the steady state reads and never writes to the
    /// boundary value (per sweep: the boundary value comes from the grid):
    /// the shell of every wavefront slab, and the output slabs whole — the
    /// top lane of `O(0, ·)`, level `VL` at slab 0, is the boundary value
    /// at every point.
    #[inline(always)]
    fn reset_shells(&mut self, shape: SlabShape, bc: T) {
        for slab in self.slabs.iter_mut() {
            fill_shell(slab, shape, Pack::splat(bc));
        }
        // A loop, as in `fill_shell`.
        for p in self.o_prev.iter_mut().chain(self.o_cur.iter_mut()) {
            *p = Pack::splat(bc);
        }
    }

    /// The ring at the masked front's first anchor `1 − (VL−1)·s`: the
    /// shells ([`Ring::reset_shells`]), and `W(j)` for the `s + 1` anchors
    /// `j` before it, at their slots in the front's frame
    /// ([`front_shift`]). Lane 0 of `W(j)` is level 0 at grid slab
    /// `j + (VL−1)·s`, one of `0 ..= s`; every other lane holds a level at
    /// a slab `≤ 0`, the boundary value, as do both output slabs, whole.
    /// Reads grid slabs `0 ..= s` of `a`.
    #[inline(always)]
    fn fill_front(&mut self, a: &[T], geo: Geo<T>, s: usize) {
        let (shape, w) = (geo.shape, geo.shape.width);
        self.reset_shells(shape, geo.bc);
        for q in 0..=s {
            let (src, dst) = (
                &a[geo.at(q)..],
                &mut self.slabs[(q + 2 * (VL - 1)) % (s + 2)],
            );
            for r in shape.interior() {
                let src = &src[r * geo.pitch..][1..w - 1];
                for (d, &v) in dst[r * w..][1..w - 1].iter_mut().zip(src) {
                    *d = Pack::splat(geo.bc).replace(0, v);
                }
            }
        }
    }
}

/// Everything one sweep has in flight (slab shape × stride): what its
/// parts hand each other, reusable by the next sweep — the ring of `s + 2`
/// wavefront slabs and the two Gauss-Seidel output slabs, its masked ends
/// included, as [`crate::t1d::Scratch1d`] is the 1-D sweep's.
pub struct Scratch<T: Scalar, const VL: usize> {
    ring: Ring<T, VL>,
    /// Units per segment of the steady state ([`segment_width`]).
    seg: usize,
    s: usize,
    shape: SlabShape,
}

impl<T: Scalar, const VL: usize> Scratch<T, VL> {
    /// Allocate scratch for a grid of type `G` with interior extents
    /// `dims`, at stride `s`, for a Gauss-Seidel kernel (`gs`) or a
    /// Jacobi one, whose scratch carries no output slabs. Every buffer
    /// goes through the `tempora_grid` allocation funnel, once.
    pub fn new<G: SlabGrid<Elem = T>>(dims: [usize; 3], s: usize, gs: bool) -> Self {
        let shape = G::slab_shape(dims);
        Scratch {
            ring: Ring::new(s, shape, gs),
            seg: segment_width::<T, VL>(shape, dims[0], s, gs),
            s,
            shape,
        }
    }
}

/// The interior units of a slab a segment of the steady state cuts, and
/// the elements of one: the columns of a 2-D row (one each), the rows of
/// a 3-D plane (a row each).
#[inline(always)]
fn units(shape: SlabShape) -> (usize, usize) {
    if shape.halo_rows == 0 {
        (shape.width - 2, 1)
    } else {
        (shape.rows - 2, shape.width)
    }
}

/// Bytes of L1 data cache per core: sysfs, read once; 32 KiB where it
/// cannot be read (another OS, a sandbox).
pub(crate) fn l1d_bytes() -> usize {
    static L1D: OnceLock<usize> = OnceLock::new();
    *L1D.get_or_init(|| {
        let cache = "/sys/devices/system/cpu/cpu0/cache";
        let read = |i: usize, f: &str| std::fs::read_to_string(format!("{cache}/index{i}/{f}"));
        // The first level-1 data (or unified) cache; stop at the first
        // index that does not exist.
        (0..)
            .map_while(|i| Some((read(i, "level").ok()?, read(i, "type").ok()?, i)))
            .find(|(level, kind, _)| level.trim() == "1" && kind.trim() != "Instruction")
            .and_then(|(_, _, i)| {
                let size = read(i, "size").ok()?;
                let size = size.trim();
                let (digits, unit) = match size.strip_suffix('K') {
                    Some(kib) => (kib, 1 << 10),
                    None => (size, 1),
                };
                Some(digits.parse::<usize>().ok()? * unit)
            })
            .unwrap_or(32 << 10)
    })
}

/// Units (2-D: columns, 3-D: rows, see [`units`]) per segment of the
/// steady state of a sweep at `VL` lanes and stride `s` over `nx` slabs
/// of `shape`, Gauss-Seidel (`gs`) or not: what keeps the ring in L1
/// ([`steady_slabs`]). A unit of the ring is `s + 2` slabs of packs, two
/// more for Gauss-Seidel's output slabs: `(s + 2 + 2·gs)·VL` elements a
/// column. The budget is two thirds of L1d, the rest left to the grid rows
/// streaming through. A ring whose whole rows fit it stays one segment
/// (wider than any part can skew: the order of an unsegmented sweep, and
/// that of every four-lane 256-column row); a wider one is cut into
/// segments that fill it. Measured (`repro ablate-rows`, Heat-2D): rows
/// out to 1024 columns read within 1.15× their L1 reading at either lane
/// count, where whole rows read up to 1.7×; half of L1d read up to 5 %
/// slower.
pub(crate) fn segment_width<T, const VL: usize>(
    shape: SlabShape,
    nx: usize,
    s: usize,
    gs: bool,
) -> usize {
    let (units, elems) = units(shape);
    let unit_bytes = (s + 2 + 2 * gs as usize) * VL * elems * core::mem::size_of::<T>();
    let budget = 2 * l1d_bytes() / 3;
    if units * unit_bytes <= budget {
        units + nx
    } else {
        (budget / unit_bytes).max(1)
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

/// Set the ghost shell of one packed slab to `v`: its ghost rows and the
/// first and last column of every interior row.
#[inline(always)]
fn fill_shell<P: Copy>(slab: &mut [P], shape: SlabShape, v: P) {
    let (w, rows) = (shape.width, shape.interior());
    let (head, rest) = slab[..shape.elems()].split_at_mut(rows.start * w);
    let (body, tail) = rest.split_at_mut((rows.end - rows.start) * w);
    // Loops: `fill` on 64-byte packs is an out-of-line call.
    for p in head.iter_mut().chain(tail) {
        *p = v;
    }
    for row in body.chunks_exact_mut(w) {
        row[0] = v;
        row[w - 1] = v;
    }
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
/// ring fill and the masked front when `xs` starts at anchor 1, the
/// steady state over `xs`, the masked back when `xs` ends at the last
/// steady anchor `x_max = nx + 1 - VL·s` ([`masked_slabs`]). A whole tile
/// is `xs = 1 ..= x_max`; parts of one sweep run in ascending order over
/// the same `sc`, which carries everything in flight between them. The
/// part touches the slabs from its first anchor (from ghost slab 0 with
/// the front) to `VL·s` past its last (to ghost slab `nx + 1` with the
/// back). `COUNT` instruments the steady rows. The codegen context is the
/// caller's, and must be the one `rows` compute in: baseline x86-64 for
/// `Packs`, the token's `run` sandwich for `Ymm` and `Zmm`.
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
        sc.ring.edge.len() >= geo.slab + geo.pitch,
        "grid rows wider than the scratch's"
    );
    assert!(
        geo.nx >= VL * s,
        "outer extent {} below VL*s = {}: no vector schedule, run scalar steps",
        geo.nx,
        VL * s
    );
    let x_max = geo.nx + 1 - VL * s;
    let (first, last) = (*xs.start() == 1, *xs.end() == x_max);
    if first {
        masked_slabs::<T, VL, FRONT, R>(a, geo, rows, s, sc);
    }
    steady_slabs::<T, VL, COUNT, STEADY, R>(a, geo, rows, s, &mut sc.ring, sc.seg, xs);
    if last {
        masked_slabs::<T, VL, BACK, R>(a, geo, rows, s, sc);
    }
}

/// The shift of the masked front's frame: its anchors
/// `1 − (VL−1)·s ..= 0` run as `x + front_shift(s)`, a multiple of the
/// ring's `s + 2` slots large enough that no anchor, nor the one before
/// it, is below 1; the ring slot of `W(j)` is `j % (s+2)` in either frame.
#[inline(always)]
const fn front_shift<const VL: usize>(s: usize) -> usize {
    (VL - 1) * (s + 2)
}

/// The masked steady iterations of one end of a sweep (`END` [`FRONT`] or
/// [`BACK`]): where Algorithm 3 has scalar triangles, the front's anchors
/// `1 − (VL−1)·s ..= 0`, after the ring fill ([`Ring::fill_front`]), or the
/// back's `x_max + 1 ..= nx`, through the steady state's segment walk
/// ([`steady_slabs`]) on rows instantiated with the mask. Anchor `x`'s
/// lane `k` keeps its output only where its slab `x + (VL−1−k)·s` lies in
/// `1 ..= nx` and takes the boundary value elsewhere — the halo the
/// lanes inside read, and in Gauss-Seidel's output slabs the newest
/// operand past the edge — so an inside lane runs the steady update on
/// the operands of the reference's. The front reads grid slabs
/// `0 ..= VL·s` and stores nothing; the back stores the top lanes of slabs
/// `x_max + 1 ..= nx` and reads no grid slab. Masked anchors tick no
/// [`tempora_simd::count`] ops.
#[inline(always)]
fn masked_slabs<T: Scalar, const VL: usize, const END: u8, R: Rows<T, VL>>(
    a: &mut [T],
    geo: Geo<T>,
    rows: &R,
    s: usize,
    sc: &mut Scratch<T, VL>,
) {
    let xs = if END == FRONT {
        sc.ring.fill_front(a, geo, s);
        let shift = front_shift::<VL>(s);
        shift + 1 - (VL - 1) * s..=shift
    } else {
        sc.ring.edge.fill(geo.bc);
        geo.nx + 2 - VL * s..=geo.nx
    };
    steady_slabs::<T, VL, false, END, R>(a, geo, rows, s, &mut sc.ring, sc.seg, xs);
}

/// The steady state: `W(x+s)` for every anchor `x ∈ xs` from
/// `W(x-1 ..= x+1)`, row by row with the rotate-and-blend rule, storing
/// the finished top lanes into slab `x` and taking the level-0 bottom
/// lanes from slab `x + VL·s` — or, `END` a masked end, the anchors of
/// [`masked_slabs`], the front's in its shifted frame. The ring must hold
/// `W(j)` at slot `j % (s+2)` for `j` from the first `x - 1` to `x + s - 1`
/// — what the ring fill and the masked front, or the part before, left
/// behind.
///
/// # Segments
///
/// A slab's units — the columns of a 2-D row, the rows of a 3-D plane,
/// `1 ..= n` — are cut into segments of `seg` ([`segment_width`]) and the
/// anchors are walked inside each segment: segment `b` runs anchor `x` over
/// the units `[1 + b·seg − d, 1 + (b+1)·seg − d)`, `d = x − x0` its place
/// in the part, clipped to the interior. The edge is skewed one unit per
/// anchor, so the ring a segment touches is `seg + s + 2` units wide and
/// stays in L1 however wide the slab is. Every dependence of the
/// unsegmented order holds for `s ≥ 2`:
///
/// * anchor `x` reads `W(x)` and `W(x ± 1)` up to one unit past its
///   piece; anchors `x − s − 1 ..= x + 1 − s` produced them earlier in
///   this segment (or in an earlier one), their pieces reaching at least
///   `s − 2 ≥ 0` units past that unit;
/// * `W(x+s)` overwrites the slot of `W(x−2)` only where anchors
///   `x−3 ..= x−1` have read it, and Gauss-Seidel's `O(x)` the slab of
///   `O(x−2)` only where anchor `x−1` has: they run before `x` in the
///   segment, and their reads of the next segment's units lie past what
///   `x` writes;
/// * the grid row of slab `x + VL·s`, read by anchor `x` as bottom lanes
///   and written by anchor `x + VL·s` as top lanes, is written in the same
///   segment after the read or in a later one.
///
/// Each piece is an ordinary steady row over the sub-slices
/// `[c0 − 1, c1 + 1)` of its operand rows (2-D; a 3-D piece is whole rows):
/// the cursor's loads of column `c0 − 1` — the centre row's west carry,
/// Gauss-Seidel's newest west — pick up what the segment before left
/// there, which are exactly its operands. Gauss-Seidel's `O(x-1, ·)` and
/// `O(x, ·)` alternate between the two output slabs by the parity of `d`,
/// and are swapped once at the end of a part of odd length, so that the
/// part after starts with `O(x1, ·)` as `o_prev`.
///
/// # Gauss-Seidel pairs
///
/// A Gauss-Seidel row waits on its newest-west chain, so its rows run two
/// at a time ([`Rows::steady_pair`]), the second taking the newest
/// operand it shares with the first from a register:
///
/// * 3-D: rows `r` and `r + 1` of a piece, point by point; row `r + 1`'s
///   `y − 1` operand is row `r`'s output. Neither reads what the other
///   writes otherwise (`O(x)` row `r − 1`, `O(x − 1)`, `W(x)`, `W(x+1)`
///   are older; `W(x+s)` is the slot of `W(x−2)`).
/// * 2-D: anchors `x` and `x + 1` (`x`'s place in the part anywhere),
///   `x + 1` one column behind `x` — the segments' skew, so a pair of
///   pieces is one piece long. At column `c`, `x + 1` reads `O(x, c)` and
///   (at `s = 2`) `W(x+2, c)`, which `x` produced the iteration before and
///   hands over in registers; its other operands, `W(x+1)` and (`s ≥ 3`)
///   `W(x+2)`, are older. It writes `W(x+1+s)` into the slot of `W(x−1)`,
///   which no Gauss-Seidel kernel reads, and `O(x+1, c)` into the slab of
///   `O(x−1)`, whose columns up to `c` anchor `x` has read. Where both
///   pieces start at column 1, `x` runs that column alone first; where both
///   end at `n`, `x + 1` runs it alone last.
///
/// Both orders are the anchors' own orders interleaved, every value read
/// produced before, none overwritten before its last read: the pairs
/// compute what the rows did one after the other, bit for bit.
#[inline(always)]
fn steady_slabs<T: Scalar, const VL: usize, const COUNT: bool, const END: u8, R: Rows<T, VL>>(
    a: &mut [T],
    geo: Geo<T>,
    rows: &R,
    s: usize,
    ring: &mut Ring<T, VL>,
    seg: usize,
    xs: RangeInclusive<usize>,
) {
    let (x0, x1) = (*xs.start(), *xs.end());
    let part = Part {
        geo,
        rows: *rows, // the kernel by value: see `Rows`
        s,
        x0,
    };
    let (n, _) = units(geo.shape);
    let anchors = (x1 + 1).saturating_sub(x0);
    let anchor_pairs = R::IS_GS && geo.shape.halo_rows == 0;
    for b in 0..(n + anchors).saturating_sub(1).div_ceil(seg) {
        // Anchor `x`'s units in segment `b`.
        let piece = |x: usize| {
            let d = x - x0;
            let lo = (1 + b * seg).saturating_sub(d).max(1);
            lo..(1 + (b + 1) * seg).saturating_sub(d).min(n + 1)
        };
        let mut x = x0;
        while x <= x1 {
            let (us, next) = (piece(x), piece(x + 1));
            if anchor_pairs && x < x1 && !us.is_empty() && !next.is_empty() {
                // `next` is `us` one column left, clipped to `1 ..= n`.
                let lo = us.start + usize::from(next.start == us.start);
                part.steady_piece::<VL, COUNT, END>(a, ring, x, us.start..lo);
                part.steady_anchor_pair::<VL, COUNT, END>(a, ring, x, lo..us.end);
                part.steady_piece::<VL, COUNT, END>(
                    a,
                    ring,
                    x + 1,
                    next.start.max(us.end - 1)..next.end,
                );
                x += 2;
            } else {
                part.steady_piece::<VL, COUNT, END>(a, ring, x, us);
                x += 1;
            }
        }
    }
    if R::IS_GS && anchors % 2 == 1 {
        core::mem::swap(&mut ring.o_prev, &mut ring.o_cur);
    }
}

/// One part of a steady state, as each of its pieces sees it.
#[derive(Clone, Copy)]
struct Part<T, R> {
    geo: Geo<T>,
    rows: R,
    s: usize,
    /// The part's first anchor.
    x0: usize,
}

impl<T: Scalar, R: Copy> Part<T, R> {
    /// The grid slabs anchor `x` stores its top lanes into and takes its
    /// bottoms from, from their first rows: slab `x` and slab `x + VL·s`,
    /// or where a masked end has no such slab the ring's `edge` — the
    /// front's top lanes go there, the back's bottoms come from there
    /// ([`STEADY`]).
    #[inline(always)]
    fn grid_slabs<'a, const VL: usize, const END: u8>(
        self,
        a: &'a mut [T],
        edge: &'a mut [T],
        x: usize,
    ) -> (&'a mut [T], &'a [T]) {
        let Part { geo, s, .. } = self;
        match END {
            FRONT => (edge, &a[geo.at(x + VL * s - front_shift::<VL>(s))..]),
            BACK => (&mut a[geo.at(x)..], edge),
            _ => {
                let (top, bottom) = a.split_at_mut(geo.at(x + VL * s));
                (&mut top[geo.at(x)..], bottom)
            }
        }
    }

    /// The lanes of anchor `x` whose slab `x + (VL−1−k)·s` lies in
    /// `1 ..= nx`: lanes `0 ..` at the front, `.. VL` at the back, all in
    /// the steady state.
    #[inline(always)]
    fn inside<const VL: usize, const END: u8>(self, x: usize) -> Mask<VL> {
        let Part { geo, s, .. } = self;
        // Lane 0's slab, at least 1.
        let u = match END {
            STEADY => return Mask::lanes(0..VL),
            FRONT => x + (VL - 1) * s - front_shift::<VL>(s),
            _ => x + (VL - 1) * s,
        };
        Mask::lanes(u.saturating_sub(geo.nx).div_ceil(s)..((u - 1) / s + 1).min(VL))
    }

    /// Anchor `x` over its units `us` of one segment ([`steady_slabs`]):
    /// 2-D the columns `us` of its row, 3-D the rows `us` of its plane,
    /// Gauss-Seidel's two at a time.
    #[inline(always)]
    fn steady_piece<const VL: usize, const COUNT: bool, const END: u8>(
        self,
        a: &mut [T],
        ring: &mut Ring<T, VL>,
        x: usize,
        us: Range<usize>,
    ) where
        R: Rows<T, VL>,
    {
        if us.is_empty() {
            return;
        }
        let Part { geo, rows, s, x0 } = self;
        // Rows above and below a row exist in 3-D only: `up` packs away.
        let (w, up, rlen) = (
            geo.shape.width,
            geo.shape.halo_rows * geo.shape.width,
            s + 2,
        );
        // 2-D: one row, `len` columns from `c0 - 1`, the columns `us` and
        // their ghosts; 3-D: the rows `us`, whole.
        let (mut rs, c0, len) = if up == 0 {
            (geo.shape.interior(), us.start, us.len() + 2)
        } else {
            (us, 1, w)
        };
        let ips = (x + s) % rlen;
        // Detach the write slab so the read slabs can stay borrowed.
        let mut wslab = core::mem::take(&mut ring.slabs[ips]);
        // Written out: an `array::map` here is an out-of-line call.
        let slot = |j: usize| &ring.slabs[j % rlen][..];
        let (xm, mid, xp) = (slot(x - 1), slot(x), slot(x + 1));
        let (top, bottom) = self.grid_slabs::<VL, END>(a, &mut ring.edge, x);
        let (inside, bc) = (self.inside::<VL, END>(x), geo.bc);
        let (o_prev, o_cur) = if (x - x0).is_multiple_of(2) {
            (&ring.o_prev[..], &mut ring.o_cur[..])
        } else {
            (&ring.o_cur[..], &mut ring.o_prev[..])
        };
        while let Some(r) = rs.next() {
            // The piece of row `r`, and where it is in the grid rows.
            let (at, g) = (r * w + c0 - 1, r * geo.pitch + c0 - 1);
            if R::IS_GS && up > 0 && !rs.is_empty() {
                // Rows `r` and `r + 1`.
                rs.next();
                let (above, o_rows) = o_cur[at - up..].split_at_mut(up);
                let (o_a, o_b) = o_rows.split_at_mut(w);
                let (out_a, out_b) = wslab[at..].split_at_mut(w);
                // Grid rows `r` and `r + 1` of the top slab.
                let (top_a, top_b) = top.split_at_mut(g + geo.pitch);
                let next = at + w;
                rows.steady_pair::<COUNT, END>(SteadyPair {
                    a: SteadyRow {
                        ring: [&xm[at..][..len], &mid[at..][..len], &xp[at..][..len]],
                        sides: [&mid[at - up..][..len], &mid[at + up..][..len]],
                        newest: [&o_prev[at..][..len], &above[..len]],
                        o_row: &mut o_a[..len],
                        out: &mut out_a[..len],
                        top: &mut top_a[g..][..len],
                        bottom: &bottom[g..][..len],
                        inside,
                        bc,
                    },
                    b: SteadyRow {
                        ring: [&xm[next..][..len], &mid[next..][..len], &xp[next..][..len]],
                        sides: [&mid[at..][..len], &mid[next + up..][..len]],
                        // `[1]` is the row `a` produces: a stand-in.
                        newest: [&o_prev[next..][..len]; 2],
                        o_row: &mut o_b[..len],
                        out: &mut out_b[..len],
                        top: &mut top_b[..len],
                        bottom: &bottom[g + geo.pitch..][..len],
                        inside,
                        bc,
                    },
                    shared: &mut [],
                    south_from_a: false,
                });
                continue;
            }
            let (newest, o_row) = if R::IS_GS {
                let (above, o_row) = o_cur[at - up..].split_at_mut(up);
                let new_x = &o_prev[at..][..len];
                let new_y = if up > 0 { &above[..len] } else { new_x };
                ([new_x, new_y], &mut o_row[..len])
            } else {
                Default::default()
            };
            rows.steady_row::<COUNT, END>(SteadyRow {
                ring: [&xm[at..][..len], &mid[at..][..len], &xp[at..][..len]],
                sides: [&mid[at - up..][..len], &mid[at + up..][..len]],
                newest,
                o_row,
                out: &mut wslab[at..][..len],
                top: &mut top[g..][..len],
                bottom: &bottom[g..][..len],
                inside,
                bc,
            });
        }
        ring.slabs[ips] = wslab;
    }

    /// 2-D Gauss-Seidel anchors `x` over its columns `us` and `x + 1` over
    /// the columns one left of them, in one loop ([`steady_slabs`],
    /// [`SteadyPair`]). `us` starts at column 2 or later.
    #[inline(always)]
    fn steady_anchor_pair<const VL: usize, const COUNT: bool, const END: u8>(
        self,
        a: &mut [T],
        ring: &mut Ring<T, VL>,
        x: usize,
        us: Range<usize>,
    ) where
        R: Rows<T, VL>,
    {
        if us.is_empty() {
            return;
        }
        let Part { geo, rows, s, x0 } = self;
        let rlen = s + 2;
        // `x`'s columns from `c0 - 1`, in the ring and in the grid rows
        // (one row, `r = 0`); `x + 1`'s start a column left.
        let (len, at) = (us.len() + 2, us.start - 1);
        let (ia, ib) = ((x + s) % rlen, (x + 1 + s) % rlen);
        let (mut wa, mut wb) = (
            core::mem::take(&mut ring.slabs[ia]),
            core::mem::take(&mut ring.slabs[ib]),
        );
        let slot = |j: usize| &ring.slabs[j % rlen][..];
        let (w0, w1) = (slot(x), slot(x + 1));
        // At `s = 2`, `W(x+2)` is `wa`: `x + 1`'s south row is handed over.
        let w2 = if s == 2 { w1 } else { slot(x + 2) };
        let (top, bottom) = self.grid_slabs::<VL, END>(a, &mut ring.edge, x);
        // The top slabs of `x` and `x + 1`.
        let (top_a, top_b) = top.split_at_mut(geo.slab);
        let (o_prev, o_cur) = if (x - x0).is_multiple_of(2) {
            (&mut ring.o_prev[..], &mut ring.o_cur[..])
        } else {
            (&mut ring.o_cur[..], &mut ring.o_prev[..])
        };
        let stand_in = &w0[at..][..len];
        rows.steady_pair::<COUNT, END>(SteadyPair {
            a: SteadyRow {
                ring: [stand_in, stand_in, &w1[at..][..len]],
                sides: [stand_in; 2],
                newest: [stand_in; 2],
                o_row: &mut o_cur[at..][..len],
                out: &mut wa[at..][..len],
                top: &mut top_a[at..][..len],
                bottom: &bottom[at..][..len],
                inside: self.inside::<VL, END>(x),
                bc: geo.bc,
            },
            b: SteadyRow {
                ring: [
                    &w1[at - 1..][..len],
                    &w1[at - 1..][..len],
                    &w2[at - 1..][..len],
                ],
                sides: [&w1[at - 1..][..len]; 2],
                newest: Default::default(),
                o_row: &mut [],
                out: &mut wb[at - 1..][..len],
                top: &mut top_b[at - 1..][..len],
                bottom: &bottom[geo.slab + at - 1..][..len],
                inside: self.inside::<VL, END>(x + 1),
                bc: geo.bc,
            },
            shared: &mut o_prev[at - 1..][..len],
            south_from_a: s == 2,
        });
        ring.slabs[ia] = wa;
        ring.slabs[ib] = wb;
    }
}

/// One table-driven suite for the driver: kind × shape × steps
/// (remainders included) × stride × engine ≡ the scalar reference, as
/// whole tiles and cut into parts. The helpers are `pub(crate)` because
/// the entry points in `floor_names.rs` select rows of the same
/// table.
#[cfg(test)]
pub(crate) mod tests {
    use super::{
        l1d_bytes, scalar_sweep_body, segment_width, step_bufs, sweep_body, Rows, Rows2, Rows3,
        Scratch,
    };
    use crate::engine::tests::{multiload_in_parts, run_in_parts, run_whole, window};
    use crate::engine::{Engine, KernelSpace};
    use crate::kernels::{BoxKern2d, GsKern2d, GsKern3d, JacobiKern2d, JacobiKern3d, LifeKern2d};
    use tempora_grid::{fill_random, fill_random_life, Boundary, Grid, Grid2, Grid3, SlabGrid};
    use tempora_simd::arch::{avx2_available, avx512_available};
    use tempora_simd::{Packs, Scalar};
    use tempora_stencil::{
        reference, Box2dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat2dCoeffs, Heat3dCoeffs, LifeRule,
    };

    /// What the table needs from a kernel besides [`KernelSpace`].
    pub(crate) trait Kind: KernelSpace<Grid: TableGrid> {
        /// The rectangular shapes every kernel of this dimension runs.
        const SHAPES: &'static [[usize; 3]];
        /// `steps` sweeps of the scalar reference.
        fn gold(&self, g: &Self::Grid, steps: usize) -> Self::Grid;
    }

    /// What the table needs from a grid: the same for every `Grid<T, D>`
    /// of one element type.
    pub(crate) trait TableGrid: SlabGrid {
        /// A seeded grid with a seed-dependent boundary value.
        fn seeded(dims: [usize; 3], seed: u64) -> Self;
        /// The first interior difference or clobbered canary, if any.
        fn mismatch(&self, gold: &Self) -> Option<String>;
    }

    impl<const D: usize> TableGrid for Grid<f64, D> {
        fn seeded(dims: [usize; 3], seed: u64) -> Self {
            let mut g = Self::with_dims(dims, Boundary::Dirichlet((seed % 7) as f64 * 0.5 - 1.0));
            fill_random(&mut g, seed, -1.0, 1.0);
            g
        }
        fn mismatch(&self, gold: &Self) -> Option<String> {
            mismatch(self, gold)
        }
    }

    impl TableGrid for Grid2<i32> {
        fn seeded(dims: [usize; 3], seed: u64) -> Self {
            let mut g = Self::with_dims(dims, Boundary::Dirichlet(0));
            fill_random_life(&mut g, seed, 0.35);
            g
        }
        fn mismatch(&self, gold: &Self) -> Option<String> {
            mismatch(self, gold)
        }
    }

    fn mismatch<T: Scalar, const D: usize>(ours: &Grid<T, D>, gold: &Grid<T, D>) -> Option<String> {
        let canary = ours.check_canaries().err().map(|at| format!("canary {at}"));
        ours.first_diff(gold).map(|d| format!("{d:?}")).or(canary)
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

    impl Kind for JacobiKern2d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_2D;
        fn gold(&self, g: &Grid2<f64>, steps: usize) -> Grid2<f64> {
            reference::heat2d(g, self.0, steps)
        }
    }

    impl Kind for BoxKern2d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_2D;
        fn gold(&self, g: &Grid2<f64>, steps: usize) -> Grid2<f64> {
            reference::box2d(g, self.0, steps)
        }
    }

    impl Kind for GsKern2d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_2D;
        fn gold(&self, g: &Grid2<f64>, steps: usize) -> Grid2<f64> {
            reference::gs2d(g, self.0, steps)
        }
    }

    impl Kind for LifeKern2d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_2D;
        fn gold(&self, g: &Grid2<i32>, steps: usize) -> Grid2<i32> {
            reference::life(g, self.0, steps)
        }
    }

    impl Kind for JacobiKern3d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_3D;
        fn gold(&self, g: &Grid3<f64>, steps: usize) -> Grid3<f64> {
            reference::heat3d(g, self.0, steps)
        }
    }

    impl Kind for GsKern3d {
        const SHAPES: &'static [[usize; 3]] = SHAPES_3D;
        fn gold(&self, g: &Grid3<f64>, steps: usize) -> Grid3<f64> {
            reference::gs3d(g, self.0, steps)
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

    /// Portable, plus AVX2 and AVX-512 where the CPU has them.
    pub(crate) fn engines() -> Vec<Engine> {
        let avx512 = avx512_available().then_some(Engine::Avx512);
        [vec![Engine::Portable], avx2(), Vec::from_iter(avx512)].concat()
    }

    /// The engines of `engines` that run `K` a sweep of their own: AVX-512
    /// only where it brings its eight lanes (for the other kinds it runs
    /// the AVX2 sweep).
    fn own_sweeps<K: KernelSpace>(engines: &[Engine]) -> impl Iterator<Item = Engine> + '_ {
        engines
            .iter()
            .copied()
            .filter(|&e| e != Engine::Avx512 || K::vl(e) != K::vl(Engine::Avx2))
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
            let g = K::Grid::seeded(dims, (dims[0] * dims[1] + s + n) as u64);
            let gold = kern.gold(&g, n);
            for e in own_sweeps::<K>(engines) {
                let ours = run_whole(e, &g, kern, n, s);
                if let Some(d) = ours.mismatch(&gold) {
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

    /// Outer extents `1 ..= VL·s` at the minimum stride and the widest
    /// `VL` of `engines`, over the inner extents of every shape: every
    /// outer extent below an engine's `VL·s` runs the scalar fallback
    /// inside the tile entry point, the last one is the smallest vector
    /// tile at the widest lane count.
    pub(crate) fn degenerate<K: Kind>(kern: &K, engines: &[Engine]) {
        let vl = own_sweeps::<K>(engines).map(K::vl).max().unwrap_or(1);
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
            let g = K::Grid::seeded(dims, (dims[0] + dims[1] + s + n) as u64);
            let gold = kern.gold(&g, n);
            for e in own_sweeps::<K>(engines) {
                let ours = run_in_parts(e, &g, kern, n, temporal.then_some(s), cut);
                if let Some(d) = ours.mismatch(&gold) {
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
            let g = K::Grid::seeded(dims, (dims[0] * dims[1] + cut + n) as u64);
            let gold = kern.gold(&g, n);
            for &e in engines {
                let ours = multiload_in_parts(e, &g, kern, n, cut);
                if let Some(d) = ours.mismatch(&gold) {
                    panic!("multiload {e:?} dims={dims:?} cut={cut} steps={n}: {d}");
                }
            }
        }
    }

    /// The segment width of `K` at `engine`'s lane count and stride `s`,
    /// Gauss-Seidel (`gs`) or not, for 3-D planes `nz` wide: how a slab far
    /// too large for one segment is cut (2-D: into columns; 3-D: rows).
    fn seg_width<K: KernelSpace>(engine: Engine, s: usize, gs: bool, nz: usize) -> usize {
        let shape = <K::Grid as SlabGrid>::slab_shape([1, 1 << 20, nz]);
        match K::vl(engine) {
            8 => segment_width::<f64, 8>(shape, 1, s, gs),
            _ => segment_width::<f64, 4>(shape, 1, s, gs),
        }
    }

    /// The segment edges of the steady state ([`super::steady_slabs`]):
    /// slabs of one and two units — 2-D columns, 3-D rows of `nz` — and of
    /// `B − 1`, `B`, `B + 1` and `2B + 1` around the derived width `B` of
    /// each engine and stride `s = 2..=4`, every sweep in parts of 1, 5 and
    /// `VL·s` anchors and whole, two sweeps and a scalar remainder ≡ the
    /// reference.
    pub(crate) fn segment_edges<K: Kind>(kern: &K, engines: &[Engine], gs: bool, nz: usize) {
        for e in own_sweeps::<K>(engines) {
            let vl = K::vl(e);
            for s in 2..=4 {
                let b = seg_width::<K>(e, s, gs, nz);
                let nx = 2 * vl * s + 6;
                let mut inner = vec![1, 2, b - 1, b, b + 1, 2 * b + 1];
                inner.retain(|&n| n > 0);
                inner.dedup();
                for ny in inner {
                    let g = K::Grid::seeded([nx, ny, nz], (ny + s + vl) as u64);
                    let steps = 2 * vl + 1;
                    let gold = kern.gold(&g, steps);
                    for cut in [1, 5, vl * s, nx] {
                        let ours = run_in_parts(e, &g, kern, steps, Some(s), cut);
                        if let Some(d) = ours.mismatch(&gold) {
                            panic!("{e:?} B={b} nx={nx} ny={ny} nz={nz} cut={cut} s={s}: {d}");
                        }
                    }
                }
            }
        }
    }

    /// Slabs larger than one segment are cut at every engine and stride
    /// (else the table below would test one order only) — 3-D planes 40
    /// wide into bands of a few rows, 200 wide into single rows — and a
    /// ring that fits stays whole: the ledger's four-lane 256-column rows.
    #[test]
    fn segment_edges_match_reference() {
        let e = engines();
        for s in 2..=4 {
            for &engine in &e {
                assert!(
                    seg_width::<GsKern2d>(engine, s, true, 1) < 300,
                    "{engine:?} s={s}"
                );
                assert!(
                    seg_width::<GsKern3d>(engine, s, true, 40) < 8,
                    "{engine:?} s={s}"
                );
                assert_eq!(seg_width::<JacobiKern3d>(engine, s, false, 200), 1);
            }
        }
        if l1d_bytes() >= 48 << 10 {
            let ledger = <Grid2<f64> as SlabGrid>::slab_shape([256, 256, 1]);
            assert_eq!(segment_width::<f64, 4>(ledger, 256, 2, false), 512);
        }
        segment_edges(&heat2d(), &e, false, 1);
        segment_edges(&box2d(), &e, false, 1);
        segment_edges(&gs2d(), &e, true, 1);
        segment_edges(&gs2d_asym(), &e, true, 1);
        segment_edges(&heat3d(), &e, false, 40);
        segment_edges(&gs3d_asym(), &e, true, 40);
        segment_edges(&heat3d(), &e, false, 200);
    }

    /// Every buffer of a slab scratch starts on a cache line, at both
    /// `f64` widths, Jacobi and Gauss-Seidel, 2-D and 3-D: a 64-byte pack
    /// of a buffer that did not would straddle two lines.
    #[test]
    fn scratch_buffers_start_on_a_cache_line() {
        fn check<G: SlabGrid<Elem = f64>, const VL: usize>(dims: [usize; 3]) {
            for (s, gs) in [(2, false), (2, true), (3, true), (4, false)] {
                let sc = Scratch::<f64, VL>::new::<G>(dims, s, gs);
                let ring = &sc.ring;
                let outputs = [&ring.o_prev, &ring.o_cur].into_iter().filter(|_| gs);
                for buf in ring.slabs.iter().chain(outputs) {
                    assert_eq!(buf.as_ptr() as usize % 64, 0, "{dims:?} s={s} gs={gs}");
                }
            }
        }
        for dims in [[40, 1, 1], [40, 9, 1], [40, 255, 1], [40, 1024, 1]] {
            check::<Grid2<f64>, 4>(dims);
            check::<Grid2<f64>, 8>(dims);
        }
        check::<Grid3<f64>, 4>([24, 6, 7]);
        check::<Grid3<f64>, 8>([40, 40, 40]);
    }

    /// `steps` levels of `g` through the driver at eight `f64` lanes,
    /// computing in `Packs` — a width the engines run only the 2-D `f64`
    /// kinds at, and the widest masked ends: every sweep cut into parts of
    /// `cut` anchors, then the scalar remainder steps.
    fn run_vl8<G, R>(rows: &R, g: &G, steps: usize, s: usize, cut: usize) -> G
    where
        G: SlabGrid<Elem = f64>,
        R: Rows<f64, 8>,
    {
        let (dims, lay) = (g.dims(), g.layout());
        let (mut g, nx, reach) = (g.clone(), lay.nx, 8 * s);
        let (mut sc, mut bufs) = (Scratch::new::<G>(dims, s, R::IS_GS), step_bufs::<G>(dims));
        let x_max = nx + 1 - reach;
        for _ in 0..steps / 8 {
            for x0 in (1..=x_max).step_by(cut) {
                let x1 = (x0 + cut - 1).min(x_max);
                let lo = if x0 == 1 { 0 } else { x0 };
                let hi = if x1 == x_max { nx + 1 } else { x1 + reach };
                let a = window(&mut g, lo, hi);
                sweep_body::<f64, 8, false, R>(&lay, a, rows, x0..=x1, s, &mut sc);
            }
        }
        for _ in 0..steps % 8 {
            let a = window(&mut g, 0, nx + 1);
            scalar_sweep_body::<f64, 8, R>(&lay, a, rows, 1..=nx, &mut bufs);
        }
        g
    }

    /// [`run_vl8`] over strides × steps (whole sweeps and remainders) ×
    /// cuts (whole, as wide as the read-ahead, narrower) ≡ the reference.
    fn vl8<K: Kind, R: Rows<f64, 8>>(kern: &K, rows: R, dims: [usize; 3])
    where
        K::Grid: SlabGrid<Elem = f64>,
    {
        for s in [2, 3, 4] {
            for steps in [8, 9, 16, 19] {
                let g = K::Grid::seeded(dims, (dims[0] + dims[1] + s + steps) as u64);
                let gold = kern.gold(&g, steps);
                for cut in [dims[0], 8 * s, 5, 1] {
                    let ours = run_vl8(&rows, &g, steps, s, cut);
                    if let Some(d) = ours.mismatch(&gold) {
                        panic!("vl 8 dims={dims:?} cut={cut} s={s} steps={steps}: {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn vl8_rows_match_reference() {
        vl8(&heat2d(), Rows2(heat2d(), Packs), [40, 9, 1]);
        vl8(&heat2d(), Rows2(heat2d(), Packs), [57, 3, 1]);
        for kern in [gs2d(), gs2d_asym()] {
            vl8(&kern, Rows2(kern, Packs), [40, 9, 1]);
            vl8(&kern, Rows2(kern, Packs), [57, 3, 1]);
        }
        vl8(&heat3d(), Rows3(heat3d(), Packs), [40, 5, 6]);
        for kern in [gs3d(), gs3d_asym()] {
            vl8(&kern, Rows3(kern, Packs), [40, 5, 6]);
            vl8(&kern, Rows3(kern, Packs), [35, 2, 3]);
        }
    }

    /// `steps` levels of `g` on `e`, every sweep cut where its steady
    /// anchors meet the masked ends: parts `1 ..= 1`, `2 ..= x_max − 1` and
    /// `x_max ..= x_max` (the front and the back each run beside a part of
    /// one anchor), then the scalar remainder steps whole.
    fn run_cut_at_the_ends<K: KernelSpace>(
        e: Engine,
        g: &K::Grid,
        kern: &K,
        steps: usize,
        s: usize,
    ) -> K::Grid {
        let (dims, lay) = (g.dims(), g.layout());
        let (mut g, nx, vl) = (g.clone(), lay.nx, K::vl(e));
        let (mut sc, reach) = (K::scratch(e, dims, s), vl * s);
        let x_max = nx + 1 - reach;
        let parts = [(1, 1), (2, x_max - 1), (x_max.max(2), x_max)];
        for _ in 0..steps / vl {
            for (x0, x1) in parts.into_iter().filter(|(x0, x1)| x0 <= x1) {
                let lo = if x0 == 1 { 0 } else { x0 };
                let hi = if x1 == x_max { nx + 1 } else { x1 + reach };
                let a = window(&mut g, lo, hi);
                kern.sweep::<false>(e, &lay, a, x0..=x1, s, &mut sc);
            }
        }
        let mut bufs = K::step_bufs(dims);
        for _ in 0..steps % vl {
            kern.scalar_sweep(e, &lay, window(&mut g, 0, nx + 1), 1..=nx, &mut bufs);
        }
        g
    }

    /// The Gauss-Seidel pairs ([`super::steady_slabs`]), at the masked
    /// ends too, ≡ the reference at `s = 2..=4`, every engine and width:
    /// sweeps cut into parts of 1, 2 and 3 anchors and of `VL·s ± 1`, so
    /// that an anchor runs without its partner at either end of a part,
    /// and cut at the first and the last steady anchor
    /// ([`run_cut_at_the_ends`]); planes of one to three interior rows and
    /// odd counts of them; and the ledger's shapes one past them, GS-3D
    /// 41³ × 4 and GS-2D 257² × 8, whole.
    #[test]
    fn gs_pairs_match_reference() {
        fn cut<K: Kind>(kern: &K, engines: &[Engine], dims: [usize; 3]) {
            for e in own_sweeps::<K>(engines) {
                let vl = K::vl(e);
                for s in 2..=4 {
                    for steps in [vl, 2 * vl + 1] {
                        let g = K::Grid::seeded(dims, (dims[1] + dims[2] + s + steps) as u64);
                        let gold = kern.gold(&g, steps);
                        for cut in [1, 2, 3, vl * s - 1, vl * s + 1] {
                            let ours = run_in_parts(e, &g, kern, steps, Some(s), cut);
                            if let Some(d) = ours.mismatch(&gold) {
                                panic!("{e:?} dims={dims:?} cut={cut} s={s} steps={steps}: {d}");
                            }
                        }
                        if dims[0] >= vl * s {
                            let ours = run_cut_at_the_ends(e, &g, kern, steps, s);
                            if let Some(d) = ours.mismatch(&gold) {
                                panic!("{e:?} dims={dims:?} ends s={s} steps={steps}: {d}");
                            }
                        }
                    }
                }
            }
        }
        let e = engines();
        for kern in [gs2d(), gs2d_asym()] {
            for dims in [[41, 7, 1], [37, 1, 1], [40, 2, 1], [35, 3, 1]] {
                cut(&kern, &e, dims);
            }
        }
        for kern in [gs3d(), gs3d_asym()] {
            for dims in [[36, 1, 5], [33, 2, 4], [34, 3, 3], [35, 5, 2]] {
                cut(&kern, &e, dims);
            }
        }
        rect(&gs2d_asym(), &e, &[[257, 257, 1]], &[8], STRIDES);
        rect(&gs3d_asym(), &e, &[[41, 41, 41]], &[4], STRIDES);
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
            assert_eq!(ours.mismatch(&conway().gold(&g, 24)), None);
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
