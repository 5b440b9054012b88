//! Three-dimensional grids with ghost cells and padded pencils.

use crate::alloc::AlignedBuf;
use crate::{pad_len, Boundary};
use tempora_simd::Scalar;

/// A 3-D grid of `nx × ny × nz` interior points with an `h`-cell ghost
/// shell.
///
/// Storage order is `x` (slowest), `y`, `z` (unit stride) — again matching
/// the paper: the outermost space loop `x` carries the temporal
/// vectorization, `z` is the contiguous dimension. Each `z`-pencil is
/// padded to a multiple of 8 elements; padding carries canaries.
#[derive(Clone, Debug)]
pub struct Grid3<T: Scalar> {
    buf: AlignedBuf<T>,
    nx: usize,
    ny: usize,
    nz: usize,
    h: usize,
    pitch: usize,
    plane: usize,
    bc: Boundary<T>,
}

impl<T: Scalar> Grid3<T> {
    /// Create a grid with interior `T::ZERO` and ghost shell from `bc`.
    pub fn new(nx: usize, ny: usize, nz: usize, h: usize, bc: Boundary<T>) -> Self {
        assert!(h >= 1, "stencil grids need at least one ghost cell");
        let pitch = pad_len(nz + 2 * h);
        let plane = (ny + 2 * h) * pitch;
        let slabs = nx + 2 * h;
        let mut buf = AlignedBuf::zeroed(slabs * plane);
        let w = nz + 2 * h;
        for xy in 0..slabs * (ny + 2 * h) {
            for v in buf[xy * pitch + w..(xy + 1) * pitch].iter_mut() {
                *v = T::CANARY;
            }
        }
        let mut g = Grid3 {
            buf,
            nx,
            ny,
            nz,
            h,
            pitch,
            plane,
            bc,
        };
        g.refresh_halo();
        g
    }

    /// Interior extent in `x` (slowest dimension).
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Interior extent in `y`.
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Interior extent in `z` (unit stride).
    #[inline(always)]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Halo width.
    #[inline(always)]
    pub fn halo(&self) -> usize {
        self.h
    }

    /// Physical `z`-pencil length (multiple of 8).
    #[inline(always)]
    pub fn pitch(&self) -> usize {
        self.pitch
    }

    /// Elements per `x`-slab (`(ny+2h) * pitch`).
    #[inline(always)]
    pub fn plane(&self) -> usize {
        self.plane
    }

    /// The boundary condition the ghost shell encodes.
    #[inline(always)]
    pub fn boundary(&self) -> Boundary<T> {
        self.bc
    }

    /// Flat index of global `(x, y, z)`.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        x * self.plane + y * self.pitch + z
    }

    /// Value at global `(x, y, z)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.buf[self.idx(x, y, z)]
    }

    /// Set the value at global `(x, y, z)`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.idx(x, y, z);
        self.buf[i] = v;
    }

    /// Entire storage as a flat slice.
    #[inline(always)]
    pub fn data(&self) -> &[T] {
        &self.buf
    }

    /// Mutable variant of [`Grid3::data`].
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.buf
    }

    /// The interior pencils, ghost cells cut off, in row-major order.
    pub fn interior_rows_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        let (h, nx, ny, nz, pitch) = (self.h, self.nx, self.ny, self.nz, self.pitch);
        self.buf
            .chunks_exact_mut(self.plane)
            .skip(h)
            .take(nx)
            .flat_map(move |plane| {
                plane
                    .chunks_exact_mut(pitch)
                    .skip(h)
                    .take(ny)
                    .map(move |row| &mut row[h..h + nz])
            })
    }

    /// (Re)write the ghost shell from the boundary condition.
    pub fn refresh_halo(&mut self) {
        let Boundary::Dirichlet(b) = self.bc;
        let (h, nx, ny, nz) = (self.h, self.nx, self.ny, self.nz);
        for x in 0..nx + 2 * h {
            for y in 0..ny + 2 * h {
                for z in 0..nz + 2 * h {
                    let ghost =
                        x < h || x >= h + nx || y < h || y >= h + ny || z < h || z >= h + nz;
                    if ghost {
                        self.set(x, y, z, b);
                    }
                }
            }
        }
    }

    /// Fill the interior from a function of interior offsets.
    pub fn fill_interior(&mut self, mut f: impl FnMut(usize, usize, usize) -> T) {
        let h = self.h;
        for i in 0..self.nx {
            for j in 0..self.ny {
                for k in 0..self.nz {
                    self.set(h + i, h + j, h + k, f(i, j, k));
                }
            }
        }
    }

    /// Verify pencil-padding canaries; `Err(flat_index)` on clobber.
    pub fn check_canaries(&self) -> Result<(), usize> {
        let w = self.nz + 2 * self.h;
        let pencils = (self.nx + 2 * self.h) * (self.ny + 2 * self.h);
        for p in 0..pencils {
            for z in w..self.pitch {
                let i = p * self.pitch + z;
                if !self.buf[i].is_canary() {
                    return Err(i);
                }
            }
        }
        Ok(())
    }

    /// Exact interior equality.
    pub fn interior_eq(&self, other: &Self) -> bool {
        if (self.nx, self.ny, self.nz) != (other.nx, other.ny, other.nz) {
            return false;
        }
        let (h, oh) = (self.h, other.h);
        for i in 0..self.nx {
            for j in 0..self.ny {
                for k in 0..self.nz {
                    if self.get(h + i, h + j, h + k) != other.get(oh + i, oh + j, oh + k) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Maximum absolute interior difference, as `f64`.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!((self.nx, self.ny, self.nz), (other.nx, other.ny, other.nz));
        let (h, oh) = (self.h, other.h);
        let mut m = 0.0f64;
        for i in 0..self.nx {
            for j in 0..self.ny {
                for k in 0..self.nz {
                    let d = (self.get(h + i, h + j, h + k).to_f64()
                        - other.get(oh + i, oh + j, oh + k).to_f64())
                    .abs();
                    m = m.max(d);
                }
            }
        }
        m
    }

    /// First differing interior element `(i, j, k, self, other)`, if any.
    pub fn first_diff(&self, other: &Self) -> Option<(usize, usize, usize, T, T)> {
        let (h, oh) = (self.h, other.h);
        for i in 0..self.nx {
            for j in 0..self.ny {
                for k in 0..self.nz {
                    let (a, b) = (
                        self.get(h + i, h + j, h + k),
                        other.get(oh + i, oh + j, oh + k),
                    );
                    if a != b {
                        return Some((i, j, k, a, b));
                    }
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
    fn layout_and_shell() {
        let g = Grid3::<f64>::new(3, 4, 5, 1, Boundary::Dirichlet(2.0));
        assert_eq!(g.pitch() % 8, 0);
        // Shell corners and faces.
        assert_eq!(g.get(0, 0, 0), 2.0);
        assert_eq!(g.get(4, 5, 6), 2.0);
        assert_eq!(g.get(0, 2, 3), 2.0);
        assert_eq!(g.get(2, 0, 3), 2.0);
        assert_eq!(g.get(2, 2, 0), 2.0);
        // Interior.
        assert_eq!(g.get(1, 1, 1), 0.0);
        assert_eq!(g.get(3, 4, 5), 0.0);
        g.check_canaries().unwrap();
    }

    #[test]
    fn fill_compare() {
        let mut a = Grid3::<i32>::new(2, 2, 2, 1, Boundary::Dirichlet(0));
        let mut b = a.clone();
        a.fill_interior(|i, j, k| (i * 100 + j * 10 + k) as i32);
        b.fill_interior(|i, j, k| (i * 100 + j * 10 + k) as i32);
        assert!(a.interior_eq(&b));
        b.set(2, 1, 2, 999);
        assert_eq!(a.first_diff(&b), Some((1, 0, 1, 101, 999)));
        assert_eq!(a.max_abs_diff(&b), 898.0);
    }

    #[test]
    fn canary_detects_pencil_padding_writes() {
        let mut g = Grid3::<f64>::new(2, 2, 2, 1, Boundary::Dirichlet(0.0));
        let i = g.idx(1, 1, 4); // w = 4 < pitch = 8
        g.data_mut()[i] = 1.0;
        assert_eq!(g.check_canaries(), Err(i));
    }
}
