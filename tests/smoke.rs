//! Smoke test for the README/quickstart path: the exact grid, coefficients
//! and call sequence shown in the crate-level docs must build, run, and
//! agree with the scalar oracle bit-for-bit.

use tempora::prelude::*;

#[test]
fn quickstart_plan_lifecycle_from_prelude_alone() {
    // The crate-level quickstart: Problem → PlanBuilder → Plan → Report,
    // using only prelude exports.
    let problem = Problem::heat1d(1000, 64, Heat1dCoeffs::classic(0.25));
    let mut plan = PlanBuilder::new().stride(7).build(&problem).unwrap();
    let mut state = problem.state();
    state
        .grid1_mut()
        .unwrap()
        .fill_interior(|i| if i == 500 { 1.0 } else { 0.0 });
    let report = plan.run(&mut state).unwrap();
    assert_eq!(report.steps, 64);
    assert!(report.engine.is_some());

    let mut init = Grid1::new(1000, 1, Boundary::Dirichlet(0.0));
    init.fill_interior(|i| if i == 500 { 1.0 } else { 0.0 });
    let gold = reference::heat1d(&init, Heat1dCoeffs::classic(0.25), 64);
    assert!(state.grid1().unwrap().interior_eq(&gold));
    state.grid1().unwrap().check_canaries().unwrap();
}

/// One temporal plan run on a copy of `grid` (engine per `TEMPORA_ENGINE`).
fn run_temporal(problem: Problem, s: usize, grid: &Grid1<f64>) -> Grid1<f64> {
    let builder = PlanBuilder::new().stride(s).select(Select::from_env());
    let mut state = State::Grid1(grid.clone());
    builder.build(&problem).unwrap().run(&mut state).unwrap();
    let State::Grid1(out) = state else {
        unreachable!()
    };
    out
}

#[test]
fn quickstart_temporal_matches_reference() {
    let coeffs = Heat1dCoeffs::classic(0.25);
    let mut grid = Grid1::new(1000, 1, Boundary::Dirichlet(0.0));
    grid.fill_interior(|i| if i == 500 { 1.0 } else { 0.0 });

    let ours = run_temporal(Problem::heat1d(1000, 64, coeffs), 7, &grid);
    let gold = reference::heat1d(&grid, coeffs, 64);
    assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
    ours.check_canaries().unwrap();
}

#[test]
fn quickstart_gs_variant_matches_reference() {
    // The Gauss-Seidel variant with a non-zero boundary, exercised the
    // same way.
    let coeffs = Gs1dCoeffs::classic(0.3);
    let boundary = Boundary::Dirichlet(0.1);
    let mut grid = Grid1::new(777, 1, boundary);
    grid.fill_interior(|i| (i as f64 * 0.37).sin());

    let problem = Problem::Gs1d {
        n: 777,
        steps: 24,
        coeffs,
        boundary,
    };
    let ours = run_temporal(problem, 4, &grid);
    let gold = reference::gs1d(&grid, coeffs, 24);
    assert!(ours.interior_eq(&gold), "{:?}", ours.first_diff(&gold));
}
