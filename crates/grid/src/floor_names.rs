// The tests of the three per-dimension grid files `grid` replaced, under
// the module paths the repo's test floor keys them by, each run against
// the one `Grid<T, D>` through its alias. What changed with the type is
// stated where it did: `first_diff` returns the interior offsets as an
// array, and the row accessors `total`, `rows`, `row` and `idx` are gone
// (the tests compute those positions from the layout instead).

#[cfg(test)]
mod grid1 {
    mod tests {
        use crate::{Boundary, Grid1};

        #[test]
        fn layout_and_halo() {
            let g = Grid1::<f64>::new(10, 1, Boundary::Dirichlet(5.0));
            assert_eq!(g.data().len(), 12);
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
            assert_eq!(a.first_diff(&b), Some(([2], 2.0, 100.0)));
            assert_eq!(a.max_abs_diff(&b), 98.0);
        }

        #[test]
        fn canary_detects_padding_writes() {
            let mut g = Grid1::<i32>::new(5, 1, Boundary::Dirichlet(0));
            g.check_canaries().unwrap();
            // The first cell past `n + 2h`: an out-of-bounds write.
            g.set(7, 3);
            assert_eq!(g.check_canaries(), Err(7));
        }

        #[test]
        fn wide_halo() {
            let g = Grid1::<f64>::new(4, 3, Boundary::Dirichlet(-1.0));
            assert_eq!(g.data().len(), 10);
            for x in (0..3).chain(7..10) {
                assert_eq!(g.get(x), -1.0);
            }
        }
    }
}

#[cfg(test)]
mod grid2 {
    mod tests {
        use crate::{Boundary, Grid2};

        #[test]
        fn layout_pitch_halo() {
            let g = Grid2::<f64>::new(4, 5, 1, Boundary::Dirichlet(9.0));
            assert_eq!(g.data().len(), 6 * g.pitch());
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
            assert_eq!(a.first_diff(&b), Some(([1, 2], 12, -7)));
            assert_eq!(a.max_abs_diff(&b), 19.0);
        }

        #[test]
        fn rows_are_aligned_and_padded() {
            let g = Grid2::<f64>::new(8, 6, 1, Boundary::Dirichlet(0.0));
            assert_eq!(g.pitch(), 8);
            for row in g.data().chunks_exact(g.pitch()) {
                assert_eq!(row.as_ptr() as usize % 64, 0);
            }
            assert_eq!(g.data().len(), 10 * 8);
        }

        #[test]
        fn canary_detects_row_padding_writes() {
            let mut g = Grid2::<f64>::new(2, 2, 1, Boundary::Dirichlet(0.0));
            let i = g.pitch() + 5; // first padding column of row 1 (w = 4)
            g.data_mut()[i] = 0.0;
            assert_eq!(g.check_canaries(), Err(i));
        }
    }
}

#[cfg(test)]
mod grid3 {
    mod tests {
        use crate::{Boundary, Grid3};

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
            assert_eq!(a.first_diff(&b), Some(([1, 0, 1], 101, 999)));
            assert_eq!(a.max_abs_diff(&b), 898.0);
        }

        #[test]
        fn canary_detects_pencil_padding_writes() {
            let mut g = Grid3::<f64>::new(2, 2, 2, 1, Boundary::Dirichlet(0.0));
            let i = g.slab() + g.pitch() + 4; // (1, 1, 4): w = 4 < pitch = 8
            g.data_mut()[i] = 1.0;
            assert_eq!(g.check_canaries(), Err(i));
        }
    }
}
