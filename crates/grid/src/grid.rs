//! The grid: one type for every dimension.

use crate::alloc::{AlignedBuf, TOO_LARGE};
use crate::fill::{Draw, Fill, FillRows};
use crate::{Boundary, SlabGrid, SlabShape};
use tempora_simd::Scalar;

/// A `D`-dimensional grid of interior points with an `h`-cell ghost frame,
/// stored 64-byte aligned.
///
/// Storage order is `x` (the outer, slowest dimension — the one the
/// temporal scheme vectorizes) first and the innermost dimension last, at
/// unit stride: `n₀ + 2h` outer slabs, each a cell in 1-D, a row in 2-D
/// and `n₁ + 2h` rows in 3-D. The innermost rows are padded to a multiple
/// of 8 elements ([`crate::pad_len`]) — in 1-D the whole line is the one
/// row — and the padding holds canaries, so tests can prove kernels stay
/// in bounds ([`Grid::check_canaries`]).
///
/// Global coordinates include the halo: the interior of dimension `i` is
/// `h .. h + nᵢ`. Ghost cells hold the [`Boundary`] value and are never
/// written by correct kernels. [`Grid1`], [`Grid2`] and [`Grid3`] name
/// the three dimensions; the methods whose argument count depends on the
/// dimension (`new`, `get`, `set`, `fill_interior` and the extents) are
/// defined per dimension, everything else once.
#[derive(Clone, Debug)]
pub struct Grid<T: Scalar, const D: usize> {
    buf: AlignedBuf<T>,
    n: [usize; D],
    h: usize,
    /// Elements between consecutive rows (1 in 1-D, where a slab is one
    /// cell).
    pitch: usize,
    bc: Boundary<T>,
}

/// A 1-D grid of `n` points: cells `h .. h + n` are the interior.
pub type Grid1<T> = Grid<T, 1>;
/// A 2-D grid of `nx × ny` points, rows of `y` padded.
pub type Grid2<T> = Grid<T, 2>;
/// A 3-D grid of `nx × ny × nz` points, `z`-pencils padded.
pub type Grid3<T> = Grid<T, 3>;

/// Where a grid's interior rows lie in its storage: row `(i, j)`, for
/// `i < slabs` and `j < rows`, is the `len` cells from
/// `first + i · slab + j · pitch`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowWalk {
    first: usize,
    len: usize,
    slabs: usize,
    slab: usize,
    rows: usize,
    pitch: usize,
}

/// The interior rows of one grid's storage, for the seeded fill to walk by
/// slab, row and pitch.
pub(crate) struct GridRows<'a, T>(RowWalk, &'a mut [T]);

impl<T: Copy + Default> FillRows<T> for GridRows<'_, T> {
    #[inline(always)]
    fn fill_each<D: Draw<T>>(self, fill: &mut Fill<T, D>) {
        let GridRows(w, data) = self;
        for i in 0..w.slabs {
            for j in 0..w.rows {
                let at = w.first + i * w.slab + j * w.pitch;
                fill.row(&mut data[at..at + w.len]);
            }
        }
    }
}

impl<T: Scalar, const D: usize> Grid<T, D> {
    /// A grid of interior extents `n`, outer first: interior `T::ZERO`,
    /// ghost cells from `bc`, canaries in the padding.
    fn with_extents(n: [usize; D], h: usize, bc: Boundary<T>) -> Self {
        const { assert!(1 <= D && D <= 3, "grids have one to three dimensions") };
        assert!(h >= 1, "stencil grids need at least one ghost cell");
        let ghosted = |e: usize| h.checked_mul(2).and_then(|g| e.checked_add(g));
        let sizes = || {
            let row = ghosted(n[D - 1])?.checked_next_multiple_of(8)?;
            let len = n[..D - 1]
                .iter()
                .try_fold(row, |len, &e| len.checked_mul(ghosted(e)?))?;
            Some((row, len))
        };
        // Panic-justification: storage whose length overflows `usize` could
        // never be allocated; `AlignedBuf` fails the same way, with the
        // same message, on a byte size past `isize::MAX`.
        let (row, len) = sizes().expect(TOO_LARGE);
        let mut buf = AlignedBuf::zeroed(len);
        write_frame(&mut buf, n, h, row, bc.value());
        let pitch = if D == 1 { 1 } else { row };
        Grid {
            buf,
            n,
            h,
            pitch,
            bc,
        }
    }

    /// Halo width `h`.
    #[inline(always)]
    pub fn halo(&self) -> usize {
        self.h
    }

    /// The boundary condition the ghost cells encode.
    #[inline(always)]
    pub fn boundary(&self) -> Boundary<T> {
        self.bc
    }

    /// Elements between consecutive rows of one slab (`≥ n_last + 2h`, a
    /// multiple of 8; 1 in 1-D, where a slab is a single cell).
    #[inline(always)]
    pub fn pitch(&self) -> usize {
        self.pitch
    }

    /// Elements per outer slab: 1 in 1-D, the pitch in 2-D,
    /// `(ny + 2h) · pitch` in 3-D.
    #[inline(always)]
    pub fn slab(&self) -> usize {
        if D == 3 {
            (self.n[1] + 2 * self.h) * self.pitch
        } else {
            self.pitch
        }
    }

    /// The whole storage the kernels operate on: ghost cells included,
    /// and in 2-D and 3-D the row padding too (kernels index with the
    /// pitch); in 1-D the `n + 2h` cells, without the padding.
    #[inline(always)]
    pub fn data(&self) -> &[T] {
        &self.buf[..self.data_len()]
    }

    /// Mutable variant of [`Grid::data`].
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [T] {
        let len = self.data_len();
        &mut self.buf[..len]
    }

    /// Elements per storage row: the padded line in 1-D, the pitch else.
    #[inline(always)]
    fn row_len(&self) -> usize {
        if D == 1 {
            self.buf.len()
        } else {
            self.pitch
        }
    }

    #[inline(always)]
    fn data_len(&self) -> usize {
        if D == 1 {
            self.n[0] + 2 * self.h
        } else {
            self.buf.len()
        }
    }

    /// Flat index of global coordinates `at`.
    #[inline(always)]
    fn index(&self, at: [usize; D]) -> usize {
        let outer = if D == 1 { 0 } else { at[0] * self.slab() };
        let middle = if D == 3 { at[1] * self.pitch } else { 0 };
        outer + middle + at[D - 1]
    }

    /// Where the interior rows lie.
    #[inline(always)]
    pub(crate) fn walk(&self) -> RowWalk {
        RowWalk {
            first: self.index([self.h; D]),
            len: self.n[D - 1],
            slabs: if D == 1 { 1 } else { self.n[0] },
            // In 1-D the one slab is the one row.
            slab: if D == 1 { self.row_len() } else { self.slab() },
            rows: if D == 3 { self.n[1] } else { 1 },
            pitch: self.row_len(),
        }
    }

    /// The interior rows, ghost cells cut off, in row-major order.
    fn interior_rows(&self) -> impl Iterator<Item = &[T]> {
        let w = self.walk();
        let slabs = self.buf[w.first..].chunks(w.slab).take(w.slabs);
        let rows = slabs.flat_map(move |s| s.chunks(w.pitch).take(w.rows));
        rows.map(move |r| &r[..w.len])
    }

    /// The interior rows, ghost cells cut off, in row-major order: the
    /// shape [`crate::fill::fill_rows`] takes.
    pub fn interior_rows_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        let w = self.walk();
        let slabs = self.buf[w.first..].chunks_mut(w.slab).take(w.slabs);
        let rows = slabs.flat_map(move |s| s.chunks_mut(w.pitch).take(w.rows));
        rows.map(move |r| &mut r[..w.len])
    }

    /// The interior rows of this grid, for the seeded fill.
    pub(crate) fn rows_for_fill(&mut self) -> GridRows<'_, T> {
        GridRows(self.walk(), &mut self.buf)
    }

    /// Set every interior cell to `f` of its interior offsets.
    fn fill_cells(&mut self, mut f: impl FnMut([usize; D]) -> T) {
        let n = self.n;
        for (r, row) in self.interior_rows_mut().enumerate() {
            for (at, v) in row.iter_mut().enumerate() {
                *v = f(offsets(n, r, at));
            }
        }
    }

    /// Verify that no kernel wrote into the row padding; `Err(flat index)`
    /// of the first clobbered slot.
    pub fn check_canaries(&self) -> Result<(), usize> {
        let (width, row) = (self.n[D - 1] + 2 * self.h, self.row_len());
        for (r, cells) in self.buf.chunks_exact(row).enumerate() {
            if let Some(at) = cells[width..].iter().position(|v| !v.is_canary()) {
                return Err(r * row + width + at);
            }
        }
        Ok(())
    }

    /// Exact interior equality (`==` per cell: bitwise for integers, a
    /// `NaN` differs from itself); grids of other extents differ.
    pub fn interior_eq(&self, other: &Self) -> bool {
        self.n == other.n && self.interior_rows().eq(other.interior_rows())
    }

    /// Maximum absolute interior difference, as `f64`.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.n, other.n, "grid shape mismatch");
        self.interior_rows()
            .zip(other.interior_rows())
            .flat_map(|(a, b)| a.iter().zip(b))
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// The interior offsets of the first differing interior cell, with
    /// both values — `None` when the interiors are identical. Tests use it
    /// for actionable failure messages.
    pub fn first_diff(&self, other: &Self) -> Option<([usize; D], T, T)> {
        self.interior_rows()
            .zip(other.interior_rows())
            .enumerate()
            .find_map(|(r, (a, b))| {
                let at = a.iter().zip(b).position(|(x, y)| x != y)?;
                Some((offsets(self.n, r, at), a[at], b[at]))
            })
    }
}

impl<T: Scalar> Grid<T, 1> {
    /// A grid of `n` points with `h` ghost cells on each side: interior
    /// `T::ZERO`, ghost cells from `bc`.
    pub fn new(n: usize, h: usize, bc: Boundary<T>) -> Self {
        Grid::with_extents([n], h, bc)
    }

    /// Interior length `n`.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n[0]
    }

    /// The interior as a slice.
    #[inline(always)]
    pub fn interior(&self) -> &[T] {
        &self.buf[self.h..self.h + self.n[0]]
    }

    /// Value at global coordinate `x`.
    #[inline(always)]
    pub fn get(&self, x: usize) -> T {
        self.buf[x]
    }

    /// Set the value at global coordinate `x`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, v: T) {
        self.buf[x] = v;
    }

    /// Fill the interior from a function of the interior offset `0..n`.
    pub fn fill_interior(&mut self, mut f: impl FnMut(usize) -> T) {
        self.fill_cells(|[i]| f(i));
    }
}

impl<T: Scalar> Grid<T, 2> {
    /// An `nx × ny` grid with an `h`-cell ghost frame: interior `T::ZERO`,
    /// ghost cells from `bc`.
    pub fn new(nx: usize, ny: usize, h: usize, bc: Boundary<T>) -> Self {
        Grid::with_extents([nx, ny], h, bc)
    }

    /// Interior extent in the outer (`x`) dimension.
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.n[0]
    }

    /// Interior extent in the inner, unit-stride (`y`) dimension.
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.n[1]
    }

    /// Value at global `(x, y)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize) -> T {
        self.buf[self.index([x, y])]
    }

    /// Set the value at global `(x, y)`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        let i = self.index([x, y]);
        self.buf[i] = v;
    }

    /// Fill the interior from a function of interior offsets
    /// `(0..nx, 0..ny)`.
    pub fn fill_interior(&mut self, mut f: impl FnMut(usize, usize) -> T) {
        self.fill_cells(|[i, j]| f(i, j));
    }
}

impl<T: Scalar> Grid<T, 3> {
    /// An `nx × ny × nz` grid with an `h`-cell ghost shell: interior
    /// `T::ZERO`, ghost cells from `bc`.
    pub fn new(nx: usize, ny: usize, nz: usize, h: usize, bc: Boundary<T>) -> Self {
        Grid::with_extents([nx, ny, nz], h, bc)
    }

    /// Interior extent in `x` (slowest dimension).
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.n[0]
    }

    /// Interior extent in `y`.
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.n[1]
    }

    /// Interior extent in `z` (unit stride).
    #[inline(always)]
    pub fn nz(&self) -> usize {
        self.n[2]
    }

    /// Value at global `(x, y, z)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.buf[self.index([x, y, z])]
    }

    /// Set the value at global `(x, y, z)`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.index([x, y, z]);
        self.buf[i] = v;
    }

    /// Fill the interior from a function of interior offsets.
    pub fn fill_interior(&mut self, mut f: impl FnMut(usize, usize, usize) -> T) {
        self.fill_cells(|[i, j, k]| f(i, j, k));
    }
}

impl<T: Scalar, const D: usize> SlabGrid for Grid<T, D> {
    type Elem = T;

    fn slab_shape(dims: [usize; 3]) -> SlabShape {
        SlabShape {
            rows: if D == 3 { dims[1] + 2 } else { 1 },
            width: if D == 1 { 1 } else { dims[D - 1] + 2 },
            halo_rows: usize::from(D == 3),
        }
    }

    fn with_dims(dims: [usize; 3], bc: Boundary<T>) -> Self {
        Grid::with_extents(core::array::from_fn(|i| dims[i]), 1, bc)
    }

    fn dims(&self) -> [usize; 3] {
        let mut dims = [1; 3];
        dims[..D].copy_from_slice(&self.n);
        dims
    }

    fn halo(&self) -> usize {
        Grid::halo(self)
    }

    fn slab(&self) -> usize {
        Grid::slab(self)
    }

    fn row_pitch(&self) -> usize {
        self.pitch
    }

    fn boundary(&self) -> Boundary<T> {
        Grid::boundary(self)
    }

    fn data(&self) -> &[T] {
        Grid::data(self)
    }

    fn data_mut(&mut self) -> &mut [T] {
        Grid::data_mut(self)
    }
}

/// The interior offsets of cell `at` of interior row `row` (row-major) of
/// a grid of interior extents `n`.
fn offsets<const D: usize>(n: [usize; D], row: usize, at: usize) -> [usize; D] {
    let mut ix = [0; D];
    ix[D - 1] = at;
    if D == 3 {
        (ix[0], ix[1]) = (row / n[1], row % n[1]);
    } else if D == 2 {
        ix[0] = row;
    }
    ix
}

/// Write `b` into every ghost cell of a grid of interior extents `n` and
/// halo `h` stored in `cells` (rows `row` elements apart), and the canary
/// into each row's padding: the two runs of ghost slabs whole, then in
/// each interior slab its ghost rows whole and its interior rows' ghost
/// columns. No cell is tested.
fn write_frame<T: Scalar, const D: usize>(
    cells: &mut [T],
    n: [usize; D],
    h: usize,
    row: usize,
    b: T,
) {
    let (len, width) = (n[D - 1], n[D - 1] + 2 * h);
    let whole = |r: &mut [T]| {
        let (ghost, padding) = r.split_at_mut(width);
        ghost.fill(b);
        padding.fill(T::CANARY);
    };
    let columns = |r: &mut [T]| {
        r[..h].fill(b);
        r[h + len..width].fill(b);
        r[width..].fill(T::CANARY);
    };
    // Slabs of `rows` rows; in 1-D the one row is an interior row of the
    // one interior slab.
    let (slabs, hx) = if D == 1 { (1, 0) } else { (n[0] + 2 * h, h) };
    let (rows, hy) = if D == 3 { (n[1] + 2 * h, h) } else { (1, 0) };
    let at = |r: usize| r * row..(r + 1) * row;
    for r in (0..hx * rows).chain((slabs - hx) * rows..slabs * rows) {
        whole(&mut cells[at(r)]);
    }
    for x in hx..slabs - hx {
        for y in (0..hy).chain(rows - hy..rows) {
            whole(&mut cells[at(x * rows + y)]);
        }
        for y in hy..rows - hy {
            columns(&mut cells[at(x * rows + y)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Grid1, Grid2, Grid3};

    /// What a storage position of the parent's three grid types held.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Cell {
        Ghost,
        Interior,
        Padding,
    }

    /// The layouts of the three per-dimension types this one replaced, as
    /// they spelled them: `(len of data(), row pitch, slab, cell of each
    /// storage position)`, the 1-D positions past `data()` included.
    fn parent_layout(n: &[usize], h: usize) -> (usize, usize, usize, Vec<Cell>) {
        let pad = |len: usize| len.div_ceil(8) * 8;
        let side = |x: usize, e: usize| {
            if x < h || x >= h + e {
                Cell::Ghost
            } else {
                Cell::Interior
            }
        };
        let ghost_in_any = |cells: &[Cell]| {
            if cells.contains(&Cell::Ghost) {
                Cell::Ghost
            } else {
                Cell::Interior
            }
        };
        match *n {
            [n] => {
                let total = n + 2 * h;
                let cells = (0..pad(total))
                    .map(|x| {
                        if x >= total {
                            Cell::Padding
                        } else {
                            side(x, n)
                        }
                    })
                    .collect();
                (total, 1, 1, cells)
            }
            [nx, ny] => {
                let (w, pitch) = (ny + 2 * h, pad(ny + 2 * h));
                let cells = (0..(nx + 2 * h) * pitch)
                    .map(|i| {
                        let (x, y) = (i / pitch, i % pitch);
                        if y >= w {
                            Cell::Padding
                        } else {
                            ghost_in_any(&[side(x, nx), side(y, ny)])
                        }
                    })
                    .collect::<Vec<_>>();
                (cells.len(), pitch, pitch, cells)
            }
            [nx, ny, nz] => {
                let (w, pitch) = (nz + 2 * h, pad(nz + 2 * h));
                let plane = (ny + 2 * h) * pitch;
                let cells = (0..(nx + 2 * h) * plane)
                    .map(|i| {
                        let (x, y, z) = (i / plane, i % plane / pitch, i % pitch);
                        if z >= w {
                            Cell::Padding
                        } else {
                            ghost_in_any(&[side(x, nx), side(y, ny), side(z, nz)])
                        }
                    })
                    .collect::<Vec<_>>();
                (cells.len(), pitch, plane, cells)
            }
            _ => unreachable!("one to three extents"),
        }
    }

    /// `g`'s storage against the parent's layout of the same extents:
    /// lengths, pitch, slab, canaries exactly in the padding, the
    /// boundary's bits in every ghost cell and in no interior cell.
    fn check<const D: usize>(g: &Grid<f64, D>, cell: impl Fn(usize) -> f64) {
        let (len, pitch, slab, cells) = parent_layout(&g.n, g.h);
        let at = format!("n={:?} h={}", g.n, g.h);
        assert_eq!(g.data().len(), len, "{at}");
        assert_eq!((g.pitch(), g.slab()), (pitch, slab), "{at}");
        assert_eq!((g.row_pitch(), SlabGrid::slab(g)), (pitch, slab), "{at}");
        let bc = g.boundary().value().to_bits();
        for (i, &want) in cells.iter().enumerate() {
            let bits = cell(i).to_bits();
            let got = if bits == f64::CANARY.to_bits() {
                Cell::Padding
            } else if bits == bc {
                Cell::Ghost
            } else {
                assert_eq!(bits, 0, "{at}: cell {i}");
                Cell::Interior
            };
            assert_eq!(got, want, "{at}: cell {i}");
        }
        g.check_canaries().unwrap();
    }

    #[test]
    fn layout_is_the_three_parent_layouts() {
        // Innermost rows of 8 and 16 cells and one on either side of each.
        let inner = [5, 6, 7, 8, 9, 13, 14, 15];
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        for h in 1..=3 {
            for bc in [2.5, -0.0, nan].map(Boundary::Dirichlet) {
                for n in inner.into_iter().chain([0, 1]) {
                    let g = Grid1::new(n, h, bc);
                    check(&g, |i| g.get(i));
                }
                for (nx, ny) in [(1, 5), (3, 6), (2, 7), (4, 8), (1, 9), (3, 14), (0, 15)] {
                    let g = Grid2::new(nx, ny, h, bc);
                    check(&g, |i| g.data()[i]);
                }
                for (ny, nz) in [(1, 5), (2, 6), (3, 7), (1, 8), (2, 9), (3, 15), (0, 14)] {
                    let g = Grid3::new(2, ny, nz, h, bc);
                    check(&g, |i| g.data()[i]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "grid allocation too large")]
    fn a_1d_length_past_usize_panics_by_name() {
        Grid1::new(usize::MAX, 1, Boundary::Dirichlet(0.0));
    }

    #[test]
    #[should_panic(expected = "grid allocation too large")]
    fn a_2d_product_past_usize_panics_by_name() {
        Grid2::new(1 << 40, 1 << 30, 1, Boundary::Dirichlet(0.0));
    }

    #[test]
    #[should_panic(expected = "grid allocation too large")]
    fn a_3d_byte_size_past_usize_panics_by_name() {
        // 2^61 cells fit `usize`; their 2^64 bytes do not.
        Grid3::new(
            (1 << 21) - 2,
            (1 << 20) - 2,
            (1 << 20) - 2,
            1,
            Boundary::Dirichlet(0.0),
        );
    }
}
