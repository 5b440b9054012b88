//! Property-based cross-crate tests: for *arbitrary* shapes, strides,
//! seeds and step counts, the temporal engines and tiled parallel
//! schedules must reproduce the scalar references exactly.

use proptest::prelude::*;

use tempora::grid::*;
use tempora::prelude::{Method, PlanBuilder, Problem, Select, State, Tiling};
use tempora::stencil::*;

/// The untiled temporal plan forced onto the portable engine at stride `s`.
fn portable(s: usize) -> PlanBuilder {
    PlanBuilder::new().select(Select::Portable).stride(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn temporal_1d_jacobi_equals_reference(
        n in 4usize..300,
        steps in 0usize..20,
        s in 2usize..8,
        seed in any::<u64>(),
        alpha in 0.05f64..0.45,
        bval in -2.0f64..2.0,
    ) {
        let c = Heat1dCoeffs::classic(alpha);
        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(bval));
        fill_random_1d(&mut g, seed, -1.0, 1.0);
        let problem = Problem::Heat1d { n, steps, coeffs: c, boundary: g.boundary() };
        let mut state = State::Grid1(g.clone());
        portable(s).build(&problem).unwrap().run(&mut state).unwrap();
        let ours = state.grid1().unwrap();
        let gold = reference::heat1d(&g, c, steps);
        prop_assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
        ours.check_canaries().unwrap();
    }

    #[test]
    fn temporal_1d_gs_equals_reference(
        n in 4usize..300,
        steps in 0usize..16,
        s in 2usize..8,
        seed in any::<u64>(),
    ) {
        let c = Gs1dCoeffs::classic(0.3);
        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.25));
        fill_random_1d(&mut g, seed, -1.0, 1.0);
        let problem = Problem::Gs1d { n, steps, coeffs: c, boundary: g.boundary() };
        let mut state = State::Grid1(g.clone());
        portable(s).build(&problem).unwrap().run(&mut state).unwrap();
        let ours = state.grid1().unwrap();
        let gold = reference::gs1d(&g, c, steps);
        prop_assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }

    #[test]
    fn temporal_2d_equals_reference(
        nx in 3usize..60,
        ny in 3usize..40,
        steps in 0usize..10,
        seed in any::<u64>(),
    ) {
        let c = Heat2dCoeffs::classic(0.12);
        let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(-0.5));
        fill_random_2d(&mut g, seed, -1.0, 1.0);
        let gold = reference::heat2d(&g, c, steps);
        let problem = Problem::Heat2d { nx, ny, steps, coeffs: c, boundary: g.boundary() };
        let mut state = State::Grid2(g);
        portable(2).build(&problem).unwrap().run(&mut state).unwrap();
        let ours = state.grid2().unwrap();
        prop_assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }

    #[test]
    fn life_vl8_equals_reference(
        nx in 3usize..50,
        ny in 3usize..40,
        steps in 0usize..12,
        p in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let rule = LifeRule::b2s23();
        let mut g = Grid2::<i32>::new(nx, ny, 1, Boundary::Dirichlet(0));
        fill_random_life(&mut g, seed, p);
        let gold = reference::life(&g, rule, steps);
        let problem = Problem::life(nx, ny, steps, rule);
        let mut state = State::Grid2i(g);
        portable(2).build(&problem).unwrap().run(&mut state).unwrap();
        let ours = state.grid2i().unwrap();
        prop_assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    }

    #[test]
    fn ghost_tiling_equals_reference(
        n in 16usize..400,
        block in 8usize..128,
        steps in 1usize..16,
        seed in any::<u64>(),
    ) {
        let c = Heat1dCoeffs::classic(0.25);
        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.3));
        fill_random_1d(&mut g, seed, -1.0, 1.0);
        let gold = reference::heat1d(&g, c, steps);
        let problem = Problem::Heat1d { n, steps, coeffs: c, boundary: g.boundary() };
        for method in [Method::Scalar, Method::Temporal] {
            let mut plan = PlanBuilder::new()
                .method(method)
                .stride(3)
                .tiling(Tiling::Ghost { block, height: 4 })
                .threads(2)
                .build(&problem)
                .unwrap();
            let mut state = State::Grid1(g.clone());
            plan.run(&mut state).unwrap();
            prop_assert!(state.grid1().unwrap().interior_eq(&gold), "method={method:?}");
        }
    }

    #[test]
    fn skewed_gs_tiling_equals_reference(
        n in 64usize..600,
        blockq in 1usize..6,
        steps in 1usize..14,
        seed in any::<u64>(),
    ) {
        let s = 2;
        let block = 2 * 4 * s * blockq; // respect the disjointness bound
        let c = Gs1dCoeffs::classic(0.26);
        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(-0.7));
        fill_random_1d(&mut g, seed, -1.0, 1.0);
        let gold = reference::gs1d(&g, c, steps);
        let problem = Problem::Gs1d { n, steps, coeffs: c, boundary: g.boundary() };
        for method in [Method::Scalar, Method::Temporal] {
            let mut plan = PlanBuilder::new()
                .method(method)
                .stride(s)
                .tiling(Tiling::Skew { block, height: 4 })
                .threads(2)
                .build(&problem)
                .unwrap();
            let mut state = State::Grid1(g.clone());
            plan.run(&mut state).unwrap();
            prop_assert!(state.grid1().unwrap().interior_eq(&gold), "method={method:?}");
        }
    }

    #[test]
    fn tiled_lcs_equals_reference(
        la in 1usize..120,
        lb in 1usize..200,
        xb in 4usize..48,
        yb in 8usize..64,
        alpha in 2u8..6,
        seed in any::<u64>(),
    ) {
        let a = random_sequence(la, alpha, seed);
        let b = random_sequence(lb, alpha, seed ^ 0xabcd);
        let gold = reference::lcs_len(&a, &b);
        let problem = Problem::lcs(la, lb);
        let mut state = problem.state();
        state.lcs_mut().unwrap().a = a.clone();
        state.lcs_mut().unwrap().b = b.clone();
        let report = portable(1).build(&problem).unwrap().run(&mut state).unwrap();
        prop_assert_eq!(report.lcs_length.unwrap(), gold);
        let mut plan = PlanBuilder::new()
            .stride(1)
            .tiling(Tiling::LcsRect { xblock: xb, yblock: yb })
            .threads(2)
            .build(&problem)
            .unwrap();
        let report = plan.run(&mut state).unwrap();
        prop_assert_eq!(report.lcs_length.unwrap(), gold);
    }

    #[test]
    fn stride_legality_is_enforced_and_sufficient(
        s in 1usize..10,
        n in 32usize..128,
    ) {
        // The dependence analysis must accept exactly the strides that
        // the schedule validator proves safe.
        for deps in [Heat1dCoeffs::deps(), Gs1dCoeffs::deps()] {
            let legal = deps.stride_legal(s);
            let validated = validate_schedule(&deps, 4, s, n).is_ok();
            prop_assert_eq!(legal, validated, "deps={} s={}", deps.name, s);
        }
        let lcs_d = lcs_deps();
        prop_assert_eq!(lcs_d.stride_legal(s), validate_schedule(&lcs_d, 8, s, n).is_ok());
    }
}
