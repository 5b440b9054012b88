//! # tempora-grid — aligned grid containers for stencil computations
//!
//! Data substrate of the *tempora* workspace (reproduction of "Temporal
//! Vectorization for Stencils", SC'21): cache-line aligned 1/2/3-D grids
//! with ghost cells, Dirichlet boundary handling, canary-guarded padding,
//! double buffering for Jacobi updates, and seeded random initialization
//! for workloads.
//!
//! Layout conventions (shared by every kernel in the workspace):
//!
//! * the **outermost** space dimension `x` is the slow dimension and the
//!   one the temporal scheme vectorizes; the innermost dimension is unit
//!   stride;
//! * ghost cells of width `h ≥ 1` surround the interior and encode the
//!   boundary condition; kernels read but never write them;
//! * physical row/pencil lengths are padded to a multiple of 8 elements
//!   and the padding is poisoned with canary values, so tests can prove
//!   kernels stay in bounds.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod grid1;
pub mod grid2;
pub mod grid3;

pub use alloc::{alloc_count, runs_allocation_free, AlignedBuf, PackBuf, GRID_ALIGN};
pub use grid1::Grid1;
pub use grid2::Grid2;
pub use grid3::Grid3;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempora_simd::Scalar;

/// Boundary condition for the ghost cells.
///
/// The paper evaluates non-periodic stencils (constant boundaries), so
/// Dirichlet is the only condition the optimized engines support; it is an
/// enum so further conditions can be added without breaking the API.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Boundary<T> {
    /// Ghost cells hold the given constant at every time step.
    Dirichlet(T),
}

impl<T: Scalar> Boundary<T> {
    /// The value a ghost cell holds under this condition.
    #[inline(always)]
    pub fn value(self) -> T {
        match self {
            Boundary::Dirichlet(v) => v,
        }
    }

    /// True when both conditions put the same bit pattern into the ghost
    /// cells. `==` is not that test: a `NaN` boundary differs from itself,
    /// and `-0.0` equals `0.0` yet yields other result bits.
    pub fn same_bits(self, other: Self) -> bool {
        self.value().bits() == other.value().bits()
    }
}

/// Round a length up to the next multiple of 8 elements (64 bytes for
/// `f64`, 32 bytes for `i32`) so rows and pencils stay aligned.
#[inline(always)]
pub fn pad_len(len: usize) -> usize {
    len.div_ceil(8) * 8
}

/// The rows of one outer slab of a halo-1 grid, ghost cells included: a
/// cell in 1-D, one row of `ny + 2` in 2-D, `ny + 2` rows of `nz + 2` in
/// 3-D (the first and the last row are ghost rows).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SlabShape {
    /// Rows per slab, ghost rows included.
    pub rows: usize,
    /// Elements per row, ghost columns included.
    pub width: usize,
    /// Ghost rows on each side of the interior rows (0 or 1).
    pub halo_rows: usize,
}

impl SlabShape {
    /// Elements of one slab stored row after row without padding.
    pub fn elems(self) -> usize {
        self.rows * self.width
    }

    /// Indices of the interior (non-ghost) rows.
    pub fn interior(self) -> core::ops::Range<usize> {
        self.halo_rows..self.rows - self.halo_rows
    }
}

/// Where the outer slabs and rows of a halo-1 grid are and what its ghost
/// cells hold: a grid's geometry without its storage, so that a kernel can
/// be handed a [`SlabsMut`] window of the storage instead of the grid.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SlabLayout<T> {
    /// Interior outer extent: slabs `1 ..= nx` are interior, slabs `0` and
    /// `nx + 1` are ghost slabs.
    pub nx: usize,
    /// The rows of one slab.
    pub shape: SlabShape,
    /// Elements per outer slab of the storage ([`SlabGrid::slab`]).
    pub slab: usize,
    /// Elements between consecutive rows of one slab
    /// ([`SlabGrid::row_pitch`]).
    pub pitch: usize,
    /// The value every ghost cell holds.
    pub bc: T,
}

/// A run of whole outer slabs of a grid's storage, read-only: `data` holds
/// slabs `first ..` ([`SlabLayout::slab`] elements each).
#[derive(Clone, Copy, Debug)]
pub struct Slabs<'a, T> {
    /// The storage of the slabs, first slab first.
    pub data: &'a [T],
    /// Outer index of the slab `data` starts with.
    pub first: usize,
}

/// A run of whole outer slabs of a grid's storage, exclusively borrowed:
/// everything one task of an in-place sweep may touch. Tasks whose windows
/// are disjoint may run concurrently on one grid; an access outside the
/// window is a slice-bounds panic, not a race.
#[derive(Debug)]
pub struct SlabsMut<'a, T> {
    /// The storage of the slabs, first slab first.
    pub data: &'a mut [T],
    /// Outer index of the slab `data` starts with.
    pub first: usize,
}

/// A halo-1 grid viewed as a stack of **outer slabs** — cells in 1-D, rows
/// in 2-D, planes in 3-D: the unit the time-tiled layers chunk their
/// sweeps by. One implementation per grid type lets every layer above
/// the tile be written once for all three dimensionalities.
pub trait SlabGrid: Clone + Send {
    /// Element type.
    type Elem: Scalar;

    /// The rows of one outer slab of a grid with interior extents `dims`.
    fn slab_shape(dims: [usize; 3]) -> SlabShape;

    /// A zeroed halo-1 grid with interior extents `dims` (outer extent
    /// first; a `D`-dimensional grid reads the first `D` entries).
    fn with_dims(dims: [usize; 3], bc: Boundary<Self::Elem>) -> Self;

    /// Interior extents, outer first, unused trailing dimensions 1.
    fn dims(&self) -> [usize; 3];

    /// Halo width.
    fn halo(&self) -> usize;

    /// Elements per outer slab in [`SlabGrid::data`]: 1, the row pitch,
    /// the plane size.
    fn slab(&self) -> usize;

    /// Elements between consecutive rows of one slab in
    /// [`SlabGrid::data`] (a slab of a 1-D or 2-D grid is a single row).
    fn row_pitch(&self) -> usize;

    /// The boundary condition the ghost cells encode.
    fn boundary(&self) -> Boundary<Self::Elem>;

    /// The whole storage, halo slabs included.
    fn data(&self) -> &[Self::Elem];

    /// Mutable variant of [`SlabGrid::data`].
    fn data_mut(&mut self) -> &mut [Self::Elem];

    /// The geometry of this grid.
    fn layout(&self) -> SlabLayout<Self::Elem> {
        let dims = self.dims();
        SlabLayout {
            nx: dims[0],
            shape: Self::slab_shape(dims),
            slab: self.slab(),
            pitch: self.row_pitch(),
            bc: self.boundary().value(),
        }
    }
}

impl<T: Scalar> SlabGrid for Grid1<T> {
    type Elem = T;

    fn slab_shape(dims: [usize; 3]) -> SlabShape {
        let _ = dims;
        SlabShape {
            rows: 1,
            width: 1,
            halo_rows: 0,
        }
    }

    fn with_dims(dims: [usize; 3], bc: Boundary<T>) -> Self {
        Grid1::new(dims[0], 1, bc)
    }

    fn dims(&self) -> [usize; 3] {
        [self.n(), 1, 1]
    }

    fn halo(&self) -> usize {
        Grid1::halo(self)
    }

    fn slab(&self) -> usize {
        1
    }

    fn row_pitch(&self) -> usize {
        1
    }

    fn boundary(&self) -> Boundary<T> {
        Grid1::boundary(self)
    }

    fn data(&self) -> &[T] {
        Grid1::data(self)
    }

    fn data_mut(&mut self) -> &mut [T] {
        Grid1::data_mut(self)
    }
}

impl<T: Scalar> SlabGrid for Grid2<T> {
    type Elem = T;

    fn slab_shape(dims: [usize; 3]) -> SlabShape {
        SlabShape {
            rows: 1,
            width: dims[1] + 2,
            halo_rows: 0,
        }
    }

    fn with_dims(dims: [usize; 3], bc: Boundary<T>) -> Self {
        Grid2::new(dims[0], dims[1], 1, bc)
    }

    fn dims(&self) -> [usize; 3] {
        [self.nx(), self.ny(), 1]
    }

    fn halo(&self) -> usize {
        Grid2::halo(self)
    }

    fn slab(&self) -> usize {
        self.pitch()
    }

    fn row_pitch(&self) -> usize {
        self.pitch()
    }

    fn boundary(&self) -> Boundary<T> {
        Grid2::boundary(self)
    }

    fn data(&self) -> &[T] {
        Grid2::data(self)
    }

    fn data_mut(&mut self) -> &mut [T] {
        Grid2::data_mut(self)
    }
}

impl<T: Scalar> SlabGrid for Grid3<T> {
    type Elem = T;

    fn slab_shape(dims: [usize; 3]) -> SlabShape {
        SlabShape {
            rows: dims[1] + 2,
            width: dims[2] + 2,
            halo_rows: 1,
        }
    }

    fn with_dims(dims: [usize; 3], bc: Boundary<T>) -> Self {
        Grid3::new(dims[0], dims[1], dims[2], 1, bc)
    }

    fn dims(&self) -> [usize; 3] {
        [self.nx(), self.ny(), self.nz()]
    }

    fn halo(&self) -> usize {
        Grid3::halo(self)
    }

    fn slab(&self) -> usize {
        self.plane()
    }

    fn row_pitch(&self) -> usize {
        self.pitch()
    }

    fn boundary(&self) -> Boundary<T> {
        Grid3::boundary(self)
    }

    fn data(&self) -> &[T] {
        Grid3::data(self)
    }

    fn data_mut(&mut self) -> &mut [T] {
        Grid3::data_mut(self)
    }
}

/// A pair of equally-shaped buffers for Jacobi-style ping-pong updates.
///
/// `src` is the time-`t` state, `dst` the time-`t+1` state being produced;
/// [`DoubleBuffer::swap`] advances time.
#[derive(Clone, Debug)]
pub struct DoubleBuffer<G> {
    cur: G,
    next: G,
}

impl<G: Clone> DoubleBuffer<G> {
    /// Create a double buffer from the initial state; the second copy is a
    /// clone (its interior will be fully overwritten by the first step).
    pub fn new(initial: G) -> Self {
        let next = initial.clone();
        DoubleBuffer { cur: initial, next }
    }

    /// The current (time-`t`) state.
    #[inline(always)]
    pub fn src(&self) -> &G {
        &self.cur
    }

    /// The next (time-`t+1`) state being written.
    #[inline(always)]
    pub fn dst_mut(&mut self) -> &mut G {
        &mut self.next
    }

    /// Borrow source and destination simultaneously.
    #[inline(always)]
    pub fn pair_mut(&mut self) -> (&G, &mut G) {
        (&self.cur, &mut self.next)
    }

    /// Advance time: the freshly written state becomes current.
    #[inline(always)]
    pub fn swap(&mut self) {
        core::mem::swap(&mut self.cur, &mut self.next);
    }

    /// Consume the buffer, returning the current state.
    pub fn into_current(self) -> G {
        self.cur
    }
}

/// Deterministic seeded RNG used by all workload initializers, so every
/// experiment is reproducible bit-for-bit.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Fill a 1-D grid's interior with uniform random values in `[lo, hi)`.
pub fn fill_random_1d(g: &mut Grid1<f64>, seed: u64, lo: f64, hi: f64) {
    let mut rng = seeded_rng(seed);
    g.fill_interior(|_| rng.gen_range(lo..hi));
}

/// Fill a 2-D grid's interior with uniform random values in `[lo, hi)`.
pub fn fill_random_2d(g: &mut Grid2<f64>, seed: u64, lo: f64, hi: f64) {
    let mut rng = seeded_rng(seed);
    g.fill_interior(|_, _| rng.gen_range(lo..hi));
}

/// Fill a 3-D grid's interior with uniform random values in `[lo, hi)`.
pub fn fill_random_3d(g: &mut Grid3<f64>, seed: u64, lo: f64, hi: f64) {
    let mut rng = seeded_rng(seed);
    g.fill_interior(|_, _, _| rng.gen_range(lo..hi));
}

/// Fill a 2-D integer grid with random 0/1 cells alive with probability
/// `p_alive` (the Game-of-Life workload initializer).
pub fn fill_random_life(g: &mut Grid2<i32>, seed: u64, p_alive: f64) {
    let mut rng = seeded_rng(seed);
    g.fill_interior(|_, _| if rng.gen_bool(p_alive) { 1 } else { 0 });
}

/// Generate a random byte-alphabet sequence for the LCS workload.
pub fn random_sequence(len: usize, alphabet: u8, seed: u64) -> Vec<u8> {
    let mut rng = seeded_rng(seed);
    (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_len_multiples() {
        assert_eq!(pad_len(0), 0);
        assert_eq!(pad_len(1), 8);
        assert_eq!(pad_len(8), 8);
        assert_eq!(pad_len(9), 16);
        assert_eq!(pad_len(1000), 1000);
        assert_eq!(pad_len(1001), 1008);
    }

    #[test]
    fn double_buffer_swaps() {
        let g = Grid1::<f64>::new(4, 1, Boundary::Dirichlet(0.0));
        let mut db = DoubleBuffer::new(g);
        db.dst_mut().set(1, 42.0);
        assert_eq!(db.src().get(1), 0.0);
        db.swap();
        assert_eq!(db.src().get(1), 42.0);
        let (src, dst) = db.pair_mut();
        assert_eq!(src.get(1), 42.0);
        dst.set(1, 7.0);
        db.swap();
        assert_eq!(db.into_current().get(1), 7.0);
    }

    #[test]
    fn random_fills_are_deterministic() {
        let mut a = Grid1::new(32, 1, Boundary::Dirichlet(0.0));
        let mut b = Grid1::new(32, 1, Boundary::Dirichlet(0.0));
        fill_random_1d(&mut a, 42, -1.0, 1.0);
        fill_random_1d(&mut b, 42, -1.0, 1.0);
        assert!(a.interior_eq(&b));
        fill_random_1d(&mut b, 43, -1.0, 1.0);
        assert!(!a.interior_eq(&b));
        assert!(a.interior().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn life_fill_is_binary() {
        let mut g = Grid2::<i32>::new(16, 16, 1, Boundary::Dirichlet(0));
        fill_random_life(&mut g, 7, 0.35);
        let mut alive = 0;
        for i in 0..16 {
            for j in 0..16 {
                let v = g.get(1 + i, 1 + j);
                assert!(v == 0 || v == 1);
                alive += v;
            }
        }
        assert!(alive > 0 && alive < 256);
    }

    #[test]
    fn random_sequence_alphabet() {
        let s = random_sequence(1000, 4, 1);
        assert_eq!(s.len(), 1000);
        assert!(s.iter().all(|&c| c < 4));
        assert_eq!(s, random_sequence(1000, 4, 1));
    }

    #[test]
    fn boundary_value() {
        assert_eq!(Boundary::Dirichlet(3.5f64).value(), 3.5);
    }
}
