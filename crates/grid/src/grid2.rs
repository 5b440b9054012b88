//! Two-dimensional grids with ghost cells and padded rows.

use crate::alloc::AlignedBuf;
use crate::{pad_len, Boundary};
use tempora_simd::Scalar;

/// A 2-D grid of `nx × ny` interior points with an `h`-cell ghost frame.
///
/// Storage is row-major with `x` as the slow (outer) dimension — matching
/// the paper's loop nests, where the *outermost* space loop (`x`) is the
/// temporally vectorized one and `y` is the unit-stride inner loop. Each
/// row is padded to a multiple of 8 elements ([`Grid2::pitch`]) so row
/// starts stay 64-byte aligned; padding carries canary values.
#[derive(Clone, Debug)]
pub struct Grid2<T: Scalar> {
    buf: AlignedBuf<T>,
    nx: usize,
    ny: usize,
    h: usize,
    pitch: usize,
    bc: Boundary<T>,
}

impl<T: Scalar> Grid2<T> {
    /// Create a grid with interior `T::ZERO` and ghost frame from `bc`.
    pub fn new(nx: usize, ny: usize, h: usize, bc: Boundary<T>) -> Self {
        assert!(h >= 1, "stencil grids need at least one ghost cell");
        let rows = nx + 2 * h;
        let pitch = pad_len(ny + 2 * h);
        let mut buf = AlignedBuf::zeroed(rows * pitch);
        // Poison the row padding.
        for x in 0..rows {
            for v in buf[x * pitch + ny + 2 * h..(x + 1) * pitch].iter_mut() {
                *v = T::CANARY;
            }
        }
        let mut g = Grid2 {
            buf,
            nx,
            ny,
            h,
            pitch,
            bc,
        };
        g.refresh_halo();
        g
    }

    /// Interior extent in the outer (`x`) dimension.
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Interior extent in the inner, unit-stride (`y`) dimension.
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Halo width.
    #[inline(always)]
    pub fn halo(&self) -> usize {
        self.h
    }

    /// Physical row length in elements (`>= ny + 2h`, multiple of 8).
    #[inline(always)]
    pub fn pitch(&self) -> usize {
        self.pitch
    }

    /// The boundary condition the ghost frame encodes.
    #[inline(always)]
    pub fn boundary(&self) -> Boundary<T> {
        self.bc
    }

    /// Number of rows including ghost rows (`nx + 2h`).
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.nx + 2 * self.h
    }

    /// Flat index of `(x, y)` in global coordinates.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize) -> usize {
        x * self.pitch + y
    }

    /// Value at global `(x, y)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize) -> T {
        self.buf[self.idx(x, y)]
    }

    /// Set the value at global `(x, y)`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        let i = self.idx(x, y);
        self.buf[i] = v;
    }

    /// Entire storage as a flat slice (kernels index with
    /// `x * pitch + y`).
    #[inline(always)]
    pub fn data(&self) -> &[T] {
        &self.buf
    }

    /// Mutable variant of [`Grid2::data`].
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.buf
    }

    /// Row `x` (ghost columns included, padding excluded).
    #[inline(always)]
    pub fn row(&self, x: usize) -> &[T] {
        let w = self.ny + 2 * self.h;
        &self.buf[x * self.pitch..x * self.pitch + w]
    }

    /// Mutable variant of [`Grid2::row`].
    #[inline(always)]
    pub fn row_mut(&mut self, x: usize) -> &mut [T] {
        let w = self.ny + 2 * self.h;
        let p = self.pitch;
        &mut self.buf[x * p..x * p + w]
    }

    /// The interior rows, ghost columns cut off, outer row first.
    pub fn interior_rows_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        let (h, nx, ny) = (self.h, self.nx, self.ny);
        self.buf
            .chunks_exact_mut(self.pitch)
            .skip(h)
            .take(nx)
            .map(move |row| &mut row[h..h + ny])
    }

    /// (Re)write the ghost frame from the boundary condition.
    pub fn refresh_halo(&mut self) {
        let Boundary::Dirichlet(b) = self.bc;
        let (h, nx, ny) = (self.h, self.nx, self.ny);
        let w = ny + 2 * h;
        for x in 0..nx + 2 * h {
            let ghost_row = x < h || x >= h + nx;
            let row = self.row_mut(x);
            if ghost_row {
                for v in row.iter_mut() {
                    *v = b;
                }
            } else {
                row[..h].fill(b);
                row[h + ny..w].fill(b);
            }
        }
    }

    /// Fill the interior from a function of interior offsets
    /// `(0..nx, 0..ny)`.
    pub fn fill_interior(&mut self, mut f: impl FnMut(usize, usize) -> T) {
        let h = self.h;
        for i in 0..self.nx {
            for j in 0..self.ny {
                self.set(h + i, h + j, f(i, j));
            }
        }
    }

    /// Verify the row padding canaries; `Err(flat_index)` on clobber.
    pub fn check_canaries(&self) -> Result<(), usize> {
        let w = self.ny + 2 * self.h;
        for x in 0..self.rows() {
            for y in w..self.pitch {
                let i = self.idx(x, y);
                if !self.buf[i].is_canary() {
                    return Err(i);
                }
            }
        }
        Ok(())
    }

    /// Exact interior equality.
    pub fn interior_eq(&self, other: &Self) -> bool {
        if (self.nx, self.ny) != (other.nx, other.ny) {
            return false;
        }
        let h = self.h;
        let oh = other.h;
        for i in 0..self.nx {
            for j in 0..self.ny {
                if self.get(h + i, h + j) != other.get(oh + i, oh + j) {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum absolute interior difference, as `f64`.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!((self.nx, self.ny), (other.nx, other.ny));
        let (h, oh) = (self.h, other.h);
        let mut m = 0.0f64;
        for i in 0..self.nx {
            for j in 0..self.ny {
                let d =
                    (self.get(h + i, h + j).to_f64() - other.get(oh + i, oh + j).to_f64()).abs();
                m = m.max(d);
            }
        }
        m
    }

    /// First differing interior element `(i, j, self, other)`, if any.
    pub fn first_diff(&self, other: &Self) -> Option<(usize, usize, T, T)> {
        let (h, oh) = (self.h, other.h);
        for i in 0..self.nx {
            for j in 0..self.ny {
                let (a, b) = (self.get(h + i, h + j), other.get(oh + i, oh + j));
                if a != b {
                    return Some((i, j, a, b));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_pitch_halo() {
        let g = Grid2::<f64>::new(4, 5, 1, Boundary::Dirichlet(9.0));
        assert_eq!(g.rows(), 6);
        assert_eq!(g.pitch() % 8, 0);
        assert!(g.pitch() >= 7);
        // Ghost frame.
        for y in 0..7 {
            assert_eq!(g.get(0, y), 9.0);
            assert_eq!(g.get(5, y), 9.0);
        }
        for x in 0..6 {
            assert_eq!(g.get(x, 0), 9.0);
            assert_eq!(g.get(x, 6), 9.0);
        }
        // Interior zero.
        assert_eq!(g.get(1, 1), 0.0);
        g.check_canaries().unwrap();
    }

    #[test]
    fn fill_compare_diff() {
        let mut a = Grid2::<i32>::new(3, 3, 1, Boundary::Dirichlet(0));
        let mut b = a.clone();
        a.fill_interior(|i, j| (i * 10 + j) as i32);
        b.fill_interior(|i, j| (i * 10 + j) as i32);
        assert!(a.interior_eq(&b));
        b.set(2, 3, -7);
        assert!(!a.interior_eq(&b));
        assert_eq!(a.first_diff(&b), Some((1, 2, 12, -7)));
        assert_eq!(a.max_abs_diff(&b), 19.0);
    }

    #[test]
    fn rows_are_aligned_and_padded() {
        let g = Grid2::<f64>::new(8, 6, 1, Boundary::Dirichlet(0.0));
        for x in 0..g.rows() {
            let r = g.row(x);
            assert_eq!(r.len(), 8);
            assert_eq!(r.as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn canary_detects_row_padding_writes() {
        let mut g = Grid2::<f64>::new(2, 2, 1, Boundary::Dirichlet(0.0));
        let i = g.idx(1, 5); // first padding column of row 1 (w = 4)
        g.data_mut()[i] = 0.0;
        assert_eq!(g.check_canaries(), Err(i));
    }
}
