//! One-dimensional grids with ghost cells.

use crate::alloc::AlignedBuf;
use crate::{pad_len, Boundary};
use tempora_simd::Scalar;

/// A 1-D grid of `n` interior points with `h` ghost ("halo") cells on each
/// side, stored 64-byte aligned with the physical length padded to a
/// multiple of 8 elements.
///
/// Global coordinates run over `0..n+2h`; the interior is `h..h+n`. With
/// the paper's `h = 1` convention the interior is `1..=n` and the Dirichlet
/// boundary values live at `0` and `n+1`. Ghost cells are initialized from
/// the [`Boundary`] and are never written by correct kernels; the padding
/// beyond `n+2h` is filled with the canary pattern so tests can detect
/// out-of-bounds writes ([`Grid1::check_canaries`]).
#[derive(Clone, Debug)]
pub struct Grid1<T: Scalar> {
    buf: AlignedBuf<T>,
    n: usize,
    h: usize,
    bc: Boundary<T>,
}

impl<T: Scalar> Grid1<T> {
    /// Create a grid with all interior points set to `T::ZERO` and ghost
    /// cells set from the boundary condition.
    pub fn new(n: usize, h: usize, bc: Boundary<T>) -> Self {
        assert!(h >= 1, "stencil grids need at least one ghost cell");
        let total = n + 2 * h;
        let mut buf = AlignedBuf::zeroed(pad_len(total));
        for v in buf[total..].iter_mut() {
            *v = T::CANARY;
        }
        let mut g = Grid1 { buf, n, h, bc };
        g.refresh_halo();
        g
    }

    /// Interior length `n`.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
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

    /// Logical length including ghost cells (`n + 2h`).
    #[inline(always)]
    pub fn total(&self) -> usize {
        self.n + 2 * self.h
    }

    /// The whole storage (ghost cells included, padding excluded) as a
    /// slice — the representation the kernels operate on.
    #[inline(always)]
    pub fn data(&self) -> &[T] {
        &self.buf[..self.n + 2 * self.h]
    }

    /// Mutable variant of [`Grid1::data`].
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [T] {
        let total = self.n + 2 * self.h;
        &mut self.buf[..total]
    }

    /// The interior as a slice.
    #[inline(always)]
    pub fn interior(&self) -> &[T] {
        &self.buf[self.h..self.h + self.n]
    }

    /// Mutable variant of [`Grid1::interior`].
    #[inline(always)]
    pub fn interior_mut(&mut self) -> &mut [T] {
        let (h, n) = (self.h, self.n);
        &mut self.buf[h..h + n]
    }

    /// The interior as one row, in the shape [`crate::fill::fill_rows`]
    /// takes.
    pub fn interior_rows_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        core::iter::once(self.interior_mut())
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

    /// (Re)write every ghost cell from the boundary condition.
    pub fn refresh_halo(&mut self) {
        let Boundary::Dirichlet(b) = self.bc;
        let (h, n) = (self.h, self.n);
        for x in 0..h {
            self.buf[x] = b;
        }
        for x in h + n..n + 2 * h {
            self.buf[x] = b;
        }
    }

    /// Fill the interior from a function of the interior offset `0..n`.
    pub fn fill_interior(&mut self, mut f: impl FnMut(usize) -> T) {
        for (i, v) in self.interior_mut().iter_mut().enumerate() {
            *v = f(i);
        }
    }

    /// Verify that no kernel wrote into the alignment padding.
    ///
    /// Returns `Err(index)` of the first clobbered padding slot.
    pub fn check_canaries(&self) -> Result<(), usize> {
        let total = self.total();
        for (i, v) in self.buf[total..].iter().enumerate() {
            if !v.is_canary() {
                return Err(total + i);
            }
        }
        Ok(())
    }

    /// Exact (bitwise for integers, `==` for floats) interior equality.
    pub fn interior_eq(&self, other: &Self) -> bool {
        self.n == other.n && self.interior() == other.interior()
    }

    /// Maximum absolute interior difference, as `f64`.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.n, other.n, "grid shape mismatch");
        self.interior()
            .iter()
            .zip(other.interior())
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Index of the first differing interior element, with both values —
    /// `None` when the interiors are identical. Used by tests to produce
    /// actionable failure messages.
    pub fn first_diff(&self, other: &Self) -> Option<(usize, T, T)> {
        self.interior()
            .iter()
            .zip(other.interior())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (&a, &b))| (i, a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_and_halo() {
        let g = Grid1::<f64>::new(10, 1, Boundary::Dirichlet(5.0));
        assert_eq!(g.total(), 12);
        assert_eq!(g.get(0), 5.0);
        assert_eq!(g.get(11), 5.0);
        assert_eq!(g.interior().len(), 10);
        assert!(g.interior().iter().all(|&v| v == 0.0));
        g.check_canaries().unwrap();
    }

    #[test]
    fn fill_and_compare() {
        let mut a = Grid1::<f64>::new(8, 1, Boundary::Dirichlet(0.0));
        let mut b = a.clone();
        a.fill_interior(|i| i as f64);
        b.fill_interior(|i| i as f64);
        assert!(a.interior_eq(&b));
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(3, 100.0);
        assert!(!a.interior_eq(&b));
        let (i, x, y) = a.first_diff(&b).unwrap();
        assert_eq!((i, x, y), (2, 2.0, 100.0));
        assert_eq!(a.max_abs_diff(&b), 98.0);
    }

    #[test]
    fn canary_detects_padding_writes() {
        let mut g = Grid1::<i32>::new(5, 1, Boundary::Dirichlet(0));
        g.check_canaries().unwrap();
        // Reach into the raw buffer beyond total(): simulate an OOB write.
        let total = g.total();
        g.buf[total] = 3;
        assert_eq!(g.check_canaries(), Err(total));
    }

    #[test]
    fn wide_halo() {
        let g = Grid1::<f64>::new(4, 3, Boundary::Dirichlet(-1.0));
        assert_eq!(g.total(), 10);
        for x in 0..3 {
            assert_eq!(g.get(x), -1.0);
        }
        for x in 7..10 {
            assert_eq!(g.get(x), -1.0);
        }
    }
}
