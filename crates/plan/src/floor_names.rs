// The tests of the whole-grid multi-load module of `tempora-baseline` and
// of DLT's fallback to it, under the module paths the repo's test floor
// keys them by. Multi-load is the pipelined sweeps' `Mode::Auto`
// (`tempora_core::spatial`), which `Method::Multiload` plans run, and a
// `Method::Dlt` plan of a size DLT cannot lift runs the same sweeps; so
// each test runs the plan its name describes under every selection the
// host has, bit for bit against the scalar reference, reporting no engine.

#[cfg(test)]
mod multiload {
    pub(crate) mod tests {
        use crate::exec::StateGrid;
        use crate::{Method, PlanBuilder, Problem, Select, State};
        use tempora_grid::{
            fill_random, fill_random_life, Boundary, Grid1,
            Grid2, Grid3,
        };
        use tempora_stencil::{
            reference, Box2dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs, LifeRule,
        };

        /// `grid` advanced by a `method` plan of `problem`, once per
        /// selection this host can run, none of them reporting an engine.
        pub(crate) fn outputs<G: StateGrid + Clone>(
            problem: &Problem,
            method: Method,
            grid: &G,
            wrap: fn(G) -> State,
        ) -> Vec<G> {
            let avx2 = tempora_simd::arch::avx2_available().then_some(Select::Avx2);
            let sels = [Some(Select::Portable), avx2].into_iter().flatten();
            Vec::from_iter(sels.map(|sel| {
                let b = PlanBuilder::new().method(method).select(sel);
                let mut state = wrap(grid.clone());
                let report = b.build(problem).unwrap().run(&mut state).unwrap();
                assert_eq!(report.engine, None, "{method:?} {sel:?}");
                G::from_state(&mut state).unwrap().clone()
            }))
        }

        #[test]
        fn heat1d_matches_reference() {
            let c = Heat1dCoeffs::classic(0.25);
            for &n in &[4usize, 5, 16, 33, 100] {
                for steps in [0usize, 1, 3, 8] {
                    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.3));
                    fill_random(&mut g, n as u64, -1.0, 1.0);
                    let problem = Problem::Heat1d {
                        n,
                        steps,
                        coeffs: c,
                        boundary: g.boundary(),
                    };
                    let gold = reference::heat1d(&g, c, steps);
                    for ours in outputs(&problem, Method::Multiload, &g, State::Grid1) {
                        assert!(ours.interior_eq(&gold), "n={n} steps={steps}");
                    }
                }
            }
        }

        #[test]
        fn heat2d_matches_reference() {
            let c = Heat2dCoeffs::classic(0.12);
            for &(nx, ny) in &[(5usize, 4usize), (8, 9), (16, 21)] {
                let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(-0.5));
                fill_random(&mut g, 17, -1.0, 1.0);
                let problem = Problem::Heat2d {
                    nx,
                    ny,
                    steps: 5,
                    coeffs: c,
                    boundary: g.boundary(),
                };
                let gold = reference::heat2d(&g, c, 5);
                for ours in outputs(&problem, Method::Multiload, &g, State::Grid2) {
                    assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
                }
            }
        }

        #[test]
        fn heat3d_matches_reference() {
            let c = Heat3dCoeffs::classic(0.1);
            let mut g = Grid3::new(6, 7, 9, 1, Boundary::Dirichlet(0.0));
            fill_random(&mut g, 5, -1.0, 1.0);
            let problem = Problem::heat3d(6, 7, 9, 4, c);
            let gold = reference::heat3d(&g, c, 4);
            for ours in outputs(&problem, Method::Multiload, &g, State::Grid3) {
                assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
            }
        }

        #[test]
        fn box2d_matches_reference() {
            let c = Box2dCoeffs::smooth(0.09);
            let mut g = Grid2::new(12, 13, 1, Boundary::Dirichlet(0.25));
            fill_random(&mut g, 23, -1.0, 1.0);
            let problem = Problem::Box2d {
                nx: 12,
                ny: 13,
                steps: 6,
                coeffs: c,
                boundary: g.boundary(),
            };
            let gold = reference::box2d(&g, c, 6);
            for ours in outputs(&problem, Method::Multiload, &g, State::Grid2) {
                assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
            }
        }

        #[test]
        fn life_matches_reference() {
            let rule = LifeRule::b2s23();
            let mut g = Grid2::new(20, 24, 1, Boundary::Dirichlet(0));
            fill_random_life(&mut g, 3, 0.4);
            let problem = Problem::life(20, 24, 10, rule);
            let gold = reference::life(&g, rule, 10);
            for ours in outputs(&problem, Method::Multiload, &g, State::Grid2i) {
                assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
            }
        }
    }
}

#[cfg(test)]
mod dlt {
    mod tests {
        use crate::multiload::tests::outputs;
        use crate::{Method, Problem, State};
        use tempora_baseline::dlt;
        use tempora_grid::{fill_random, Boundary, Grid1};
        use tempora_stencil::{reference, Heat1dCoeffs};

        #[test]
        fn falls_back_on_awkward_sizes() {
            // The lifted sweeps refuse a size they cannot lift; its plan
            // runs the multi-load sweeps instead.
            let c = Heat1dCoeffs::classic(0.2);
            for &n in &[3usize, 5, 7, 13, 1001] {
                assert!(!dlt::dlt_applicable(n), "n={n}");
                let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.0));
                fill_random(&mut g, 2, -1.0, 1.0);
                let gold = reference::heat1d(&g, c, 3);
                let problem = Problem::heat1d(n, 3, c);
                for ours in outputs(&problem, Method::Dlt, &g, State::Grid1) {
                    assert!(ours.interior_eq(&gold), "n={n}");
                }
                let lifted = std::panic::catch_unwind(|| dlt::heat1d(&g, c, 3));
                assert!(lifted.is_err(), "n={n}");
            }
        }
    }
}
