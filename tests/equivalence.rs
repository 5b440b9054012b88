//! Cross-crate equivalence: every optimized execution path — spatial
//! baselines, temporal engines, tiled + parallel schedules — must
//! reproduce the scalar references exactly (bit-for-bit for floats, since
//! all kernels share the same fused operation trees; exact for integers).
//!
//! Every dispatched path is exercised through the unified solver API
//! (`tempora::plan`): a [`Problem`] is compiled into a [`Plan`] and run
//! against a state, so these tests cover validation, engine resolution
//! and plan execution end to end.

use tempora::baseline::{dlt, reorg};
use tempora::core::engine::{self, KernelSpace};
use tempora::core::kernels::*;
use tempora::core::t1d::{self, Form, Scratch1d};
use tempora::grid::*;
use tempora::prelude::{Engine, Method, Plan, PlanBuilder, Problem, Select, State, Tiling};
use tempora::simd::Packs;
use tempora::stencil::*;

/// The engine `sel` resolves on this host for a temporal run of kernel
/// `K` over `steps` levels of `nx` outer slabs: `Auto` takes the
/// eight-lane AVX-512 engine where the kind has one and the outer extent
/// is at least its measured crossover (`KernelSpace::wide_min_nx`), the run
/// has an eight-lane sweep (`steps ≥ 8`) and `steps % 8 ≤ steps % 4`, else
/// the four-lane AVX2 one where the CPU has it, whatever the shape and
/// stride.
fn engine_of<K: KernelSpace>(sel: Select, nx: usize, steps: usize) -> Engine {
    let wide =
        K::wide_min_nx().is_some_and(|min| nx >= min) && steps >= 8 && steps % 8 <= steps % 4;
    match sel {
        Select::Portable => Engine::Portable,
        _ if !tempora::simd::arch::avx2_available() => Engine::Portable,
        Select::Auto if wide && tempora::simd::arch::avx512_available() => Engine::Avx512,
        Select::Auto | Select::Avx2 => Engine::Avx2,
    }
}

fn g1(n: usize, seed: u64, b: f64) -> Grid1<f64> {
    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(b));
    fill_random_1d(&mut g, seed, -1.0, 1.0);
    g
}

fn g2(nx: usize, ny: usize, seed: u64, b: f64) -> Grid2<f64> {
    let mut g = Grid2::new(nx, ny, 1, Boundary::Dirichlet(b));
    fill_random_2d(&mut g, seed, -1.0, 1.0);
    g
}

fn g3(n: usize, seed: u64) -> Grid3<f64> {
    let mut g = Grid3::new(n, n, n, 1, Boundary::Dirichlet(0.1));
    fill_random_3d(&mut g, seed, -1.0, 1.0);
    g
}

// ---------------------------------------------------------------------
// Plan-driven execution helpers (compile + run + unwrap the state)
// ---------------------------------------------------------------------

fn compile(problem: &Problem, b: PlanBuilder) -> Plan {
    b.build(problem).expect("test configuration must be valid")
}

fn run1(problem: &Problem, b: PlanBuilder, g: &Grid1<f64>) -> (Grid1<f64>, Option<Engine>) {
    let mut plan = compile(problem, b);
    let mut state = State::Grid1(g.clone());
    let report = plan.run(&mut state).expect("state matches plan");
    let State::Grid1(out) = state else {
        unreachable!()
    };
    (out, report.engine)
}

fn run2(problem: &Problem, b: PlanBuilder, g: &Grid2<f64>) -> (Grid2<f64>, Option<Engine>) {
    let mut plan = compile(problem, b);
    let mut state = State::Grid2(g.clone());
    let report = plan.run(&mut state).expect("state matches plan");
    let State::Grid2(out) = state else {
        unreachable!()
    };
    (out, report.engine)
}

fn run2i(problem: &Problem, b: PlanBuilder, g: &Grid2<i32>) -> (Grid2<i32>, Option<Engine>) {
    let mut plan = compile(problem, b);
    let mut state = State::Grid2i(g.clone());
    let report = plan.run(&mut state).expect("state matches plan");
    let State::Grid2i(out) = state else {
        unreachable!()
    };
    (out, report.engine)
}

fn run3(problem: &Problem, b: PlanBuilder, g: &Grid3<f64>) -> (Grid3<f64>, Option<Engine>) {
    let mut plan = compile(problem, b);
    let mut state = State::Grid3(g.clone());
    let report = plan.run(&mut state).expect("state matches plan");
    let State::Grid3(out) = state else {
        unreachable!()
    };
    (out, report.engine)
}

fn run_lcs_plan(b: PlanBuilder, a: &[u8], bs: &[u8]) -> (i32, Option<Engine>) {
    let problem = Problem::lcs(a.len(), bs.len());
    let mut plan = compile(&problem, b);
    let mut state = problem.state();
    {
        let l = state.lcs_mut().unwrap();
        l.a = a.to_vec();
        l.b = bs.to_vec();
    }
    let report = plan.run(&mut state).expect("state matches plan");
    (report.lcs_length.unwrap(), report.engine)
}

/// The untiled temporal plan forced onto one engine at stride `s`.
fn forced(sel: Select, s: usize) -> PlanBuilder {
    PlanBuilder::new().select(sel).stride(s)
}

/// The selections a spatial (engine-less) plan can be forced to on this
/// host.
fn spatial_selects() -> Vec<Select> {
    let avx2 = tempora::simd::arch::avx2_available().then_some(Select::Avx2);
    [Some(Select::Portable), avx2]
        .into_iter()
        .flatten()
        .collect()
}

/// The untiled multi-load plan under `sel`.
fn multiload(sel: Select) -> PlanBuilder {
    PlanBuilder::new().method(Method::Multiload).select(sel)
}

/// The three tiled in-tile schemes as `(label, method, stride)` rows.
fn tiled_methods(s: usize, with_auto: bool) -> Vec<(Method, usize)> {
    let mut v = vec![(Method::Scalar, s)];
    if with_auto {
        v.push((Method::Multiload, s));
    }
    v.push((Method::Temporal, s));
    v
}

#[test]
fn heat1d_all_schemes_agree() {
    let c = Heat1dCoeffs::classic(0.24);
    let kern = JacobiKern1d(c);
    let g = g1(1000, 1, 0.5);
    let steps = 24;
    let gold = reference::heat1d(&g, c, steps);
    let problem = Problem::Heat1d {
        n: g.n(),
        steps,
        coeffs: c,
        boundary: g.boundary(),
    };
    assert!(
        run1(&problem, forced(Select::Portable, 7), &g)
            .0
            .interior_eq(&gold),
        "temporal"
    );
    // Eight lanes in `Packs`, whatever the host: three whole sweeps.
    let (mut vl8, n, s) = (g.clone(), g.n(), 2);
    let mut sc = Scratch1d::<f64, 8>::new(s);
    for _ in 0..steps / 8 {
        let a = vl8.data_mut();
        t1d::sweep_body::<f64, 8, false, false, _>(
            a,
            0,
            n,
            &Form(kern, Packs),
            s,
            &mut sc,
            1..=n + 1 - 8 * s,
        );
    }
    assert!(vl8.interior_eq(&gold), "temporal vl=8");
    assert!(reorg::heat1d(&g, c, steps).interior_eq(&gold), "reorg");
    assert!(dlt::heat1d(&g, c, steps).interior_eq(&gold), "dlt");
    // The same baselines compiled for AVX2+FMA.
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        assert!(reorg::heat1d_avx2(&g, c, steps).interior_eq(&gold));
        assert!(dlt::heat1d_avx2(&g, c, steps).interior_eq(&gold));
    }
    // Multi-load and DLT plans on every selection: n = 1000 takes the DLT
    // fast path, n = 1001 the multi-load sweeps the plan routes it to.
    let odd = g1(1001, 2, 0.5);
    for g in [&g, &odd] {
        let gold = reference::heat1d(g, c, steps);
        let problem = Problem::Heat1d {
            n: g.n(),
            steps,
            coeffs: c,
            boundary: g.boundary(),
        };
        for method in [Method::Multiload, Method::Dlt] {
            for sel in spatial_selects() {
                let (r, e) = run1(&problem, PlanBuilder::new().method(method).select(sel), g);
                assert!(r.interior_eq(&gold), "{method:?} {sel:?} n={}", g.n());
                assert_eq!(e, None, "{method:?} {sel:?} n={}", g.n());
            }
        }
    }
    // All five methods again through the plan API (including the
    // one-shot baselines) plus the ghost tiling on 2 workers.
    let problem = Problem::Heat1d {
        n: g.n(),
        steps,
        coeffs: c,
        boundary: g.boundary(),
    };
    for method in [
        Method::Temporal,
        Method::Multiload,
        Method::Reorg,
        Method::Dlt,
        Method::Scalar,
    ] {
        let (r, _) = run1(&problem, PlanBuilder::new().method(method).stride(7), &g);
        assert!(r.interior_eq(&gold), "plan {method:?}");
    }
    for (method, s) in tiled_methods(7, true) {
        let (r, _) = run1(
            &problem,
            PlanBuilder::new()
                .method(method)
                .stride(s)
                .tiling(Tiling::Ghost {
                    block: 128,
                    height: 8,
                })
                .threads(2),
            &g,
        );
        assert!(r.interior_eq(&gold), "ghost {method:?}");
    }
}

#[test]
fn heat2d_and_box2d_all_schemes_agree() {
    let steps = 12;
    let g = g2(96, 33, 2, -0.25);

    let c = Heat2dCoeffs::classic(0.11);
    let gold = reference::heat2d(&g, c, steps);
    let problem = Problem::Heat2d {
        nx: g.nx(),
        ny: g.ny(),
        steps,
        coeffs: c,
        boundary: g.boundary(),
    };
    for sel in spatial_selects() {
        let (r, e) = run2(&problem, multiload(sel), &g);
        assert!(r.interior_eq(&gold) && e.is_none(), "multiload {sel:?}");
    }
    let (r, _) = run2(&problem, forced(Select::Portable, 2), &g);
    assert!(r.interior_eq(&gold));
    for (method, s) in tiled_methods(2, true) {
        let (r, _) = run2(
            &problem,
            PlanBuilder::new()
                .method(method)
                .stride(s)
                .tiling(Tiling::Ghost {
                    block: 24,
                    height: 8,
                })
                .threads(2),
            &g,
        );
        assert!(r.interior_eq(&gold), "ghost {method:?}");
    }

    let cb = Box2dCoeffs::smooth(0.07);
    let goldb = reference::box2d(&g, cb, steps);
    let problem = Problem::Box2d {
        nx: g.nx(),
        ny: g.ny(),
        steps,
        coeffs: cb,
        boundary: g.boundary(),
    };
    for sel in spatial_selects() {
        let (r, e) = run2(&problem, multiload(sel), &g);
        assert!(r.interior_eq(&goldb) && e.is_none(), "multiload {sel:?}");
    }
    let (r, _) = run2(&problem, forced(Select::Portable, 2), &g);
    assert!(r.interior_eq(&goldb));
    let (r, _) = run2(&problem, PlanBuilder::new().stride(2), &g);
    assert!(r.interior_eq(&goldb), "plan box2d");
}

#[test]
fn life_all_schemes_agree() {
    let rule = LifeRule::b2s23();
    let mut g = Grid2::<i32>::new(80, 40, 1, Boundary::Dirichlet(0));
    fill_random_life(&mut g, 5, 0.37);
    let steps = 16;
    let gold = reference::life(&g, rule, steps);
    let problem = Problem::Life {
        nx: g.nx(),
        ny: g.ny(),
        steps,
        rule,
        boundary: g.boundary(),
    };
    for sel in spatial_selects() {
        let (r, e) = run2i(&problem, multiload(sel), &g);
        assert!(r.interior_eq(&gold) && e.is_none(), "multiload {sel:?}");
    }
    let (r, _) = run2i(&problem, forced(Select::Portable, 2), &g);
    assert!(r.interior_eq(&gold));
    for (method, s) in [(Method::Scalar, 2), (Method::Temporal, 2)] {
        let (r, e) = run2i(
            &problem,
            PlanBuilder::new()
                .method(method)
                .stride(s)
                .tiling(Tiling::Ghost {
                    block: 24,
                    height: 8,
                })
                .threads(2),
            &g,
        );
        assert!(r.interior_eq(&gold), "ghost {method:?}");
        // Life carries the AVX2 integer steady state: on AVX2 hosts this
        // healthy ghost geometry resolves avx2 under Auto.
        if method == Method::Temporal {
            let expect = if tempora::simd::arch::avx2_available() {
                Engine::Avx2
            } else {
                Engine::Portable
            };
            assert_eq!(e, Some(expect));
        }
    }
}

#[test]
fn heat3d_all_schemes_agree() {
    let c = Heat3dCoeffs::classic(0.09);
    let g = g3(24, 7);
    let steps = 8;
    let gold = reference::heat3d(&g, c, steps);
    let problem = Problem::Heat3d {
        nx: g.nx(),
        ny: g.ny(),
        nz: g.nz(),
        steps,
        coeffs: c,
        boundary: g.boundary(),
    };
    for sel in spatial_selects() {
        let (r, e) = run3(&problem, multiload(sel), &g);
        assert!(r.interior_eq(&gold) && e.is_none(), "multiload {sel:?}");
    }
    let (r, _) = run3(&problem, forced(Select::Portable, 2), &g);
    assert!(r.interior_eq(&gold));
    for (method, s) in tiled_methods(2, true) {
        let (r, _) = run3(
            &problem,
            PlanBuilder::new()
                .method(method)
                .stride(s)
                .tiling(Tiling::Ghost {
                    block: 10,
                    height: 4,
                })
                .threads(2),
            &g,
        );
        assert!(r.interior_eq(&gold), "ghost {method:?}");
    }
}

#[test]
fn gauss_seidel_all_schemes_agree() {
    let steps = 12;

    let c1 = Gs1dCoeffs::classic(0.23);
    let g = g1(2000, 3, 0.4);
    let gold1 = reference::gs1d(&g, c1, steps);
    let problem = Problem::Gs1d {
        n: g.n(),
        steps,
        coeffs: c1,
        boundary: g.boundary(),
    };
    let (r, _) = run1(&problem, forced(Select::Portable, 7), &g);
    assert!(r.interior_eq(&gold1));
    for (method, s) in tiled_methods(7, false) {
        let (r, _) = run1(
            &problem,
            PlanBuilder::new()
                .method(method)
                .stride(s)
                .tiling(Tiling::Skew {
                    block: 256,
                    height: 8,
                })
                .threads(2),
            &g,
        );
        assert!(r.interior_eq(&gold1), "skew1d {method:?}");
    }

    let c2 = Gs2dCoeffs::classic(0.17);
    let h = g2(100, 21, 4, -0.1);
    let gold2 = reference::gs2d(&h, c2, steps);
    let problem = Problem::Gs2d {
        nx: h.nx(),
        ny: h.ny(),
        steps,
        coeffs: c2,
        boundary: h.boundary(),
    };
    let (r, _) = run2(&problem, forced(Select::Portable, 2), &h);
    assert!(r.interior_eq(&gold2));
    for (method, s) in tiled_methods(2, false) {
        let (r, _) = run2(
            &problem,
            PlanBuilder::new()
                .method(method)
                .stride(s)
                .tiling(Tiling::Skew {
                    block: 32,
                    height: 8,
                })
                .threads(2),
            &h,
        );
        assert!(r.interior_eq(&gold2), "skew2d {method:?}");
    }

    let c3 = Gs3dCoeffs::classic(0.12);
    let v = g3(32, 9);
    let gold3 = reference::gs3d(&v, c3, 8);
    let problem = Problem::Gs3d {
        nx: v.nx(),
        ny: v.ny(),
        nz: v.nz(),
        steps: 8,
        coeffs: c3,
        boundary: v.boundary(),
    };
    let (r, _) = run3(&problem, forced(Select::Portable, 2), &v);
    assert!(r.interior_eq(&gold3));
    for (method, s) in tiled_methods(2, false) {
        let (r, _) = run3(
            &problem,
            PlanBuilder::new()
                .method(method)
                .stride(s)
                .tiling(Tiling::Skew {
                    block: 20,
                    height: 4,
                })
                .threads(2),
            &v,
        );
        assert!(r.interior_eq(&gold3), "skew3d {method:?}");
    }
}

#[test]
fn lcs_all_schemes_agree() {
    let a = random_sequence(300, 4, 11);
    let b = random_sequence(777, 4, 12);
    let gold = reference::lcs_len(&a, &b);
    for sel in [Select::Portable, Select::Auto] {
        assert_eq!(run_lcs_plan(forced(sel, 1), &a, &b).0, gold, "{sel:?}");
        assert_eq!(run_lcs_plan(forced(sel, 2), &a, &b).0, gold, "{sel:?}");
    }
    for threads in [1, 2, 4] {
        for method in [Method::Scalar, Method::Temporal] {
            let (len, _) = run_lcs_plan(
                PlanBuilder::new()
                    .method(method)
                    .stride(1)
                    .tiling(Tiling::LcsRect {
                        xblock: 64,
                        yblock: 128,
                    })
                    .threads(threads),
                &a,
                &b,
            );
            assert_eq!(len, gold, "threads={threads} {method:?}");
        }
    }
}

#[test]
fn parallel_results_are_deterministic_across_thread_counts() {
    let c = Heat1dCoeffs::classic(0.25);
    let g = g1(4096, 21, 0.0);
    let problem = Problem::Heat1d {
        n: g.n(),
        steps: 32,
        coeffs: c,
        boundary: g.boundary(),
    };
    let ghost = PlanBuilder::new().stride(7).tiling(Tiling::Ghost {
        block: 512,
        height: 16,
    });
    let (r1, _) = run1(&problem, ghost.threads(1), &g);
    let (r2, _) = run1(&problem, ghost.threads(2), &g);
    let (r4, _) = run1(&problem, ghost.threads(4), &g);
    assert!(r1.interior_eq(&r2) && r2.interior_eq(&r4));

    let cg = Gs1dCoeffs::classic(0.2);
    let problem = Problem::Gs1d {
        n: g.n(),
        steps: 32,
        coeffs: cg,
        boundary: g.boundary(),
    };
    let skew = PlanBuilder::new().stride(7).tiling(Tiling::Skew {
        block: 512,
        height: 16,
    });
    let (s1, _) = run1(&problem, skew.threads(1), &g);
    let (s4, _) = run1(&problem, skew.threads(4), &g);
    assert!(s1.interior_eq(&s4));
}

/// The scalar reference of `problem` on `input`, and bitwise equality of
/// two states' interiors — the two halves of the table-driven test below.
fn reference_state(problem: &Problem, input: &State) -> State {
    match (*problem, input) {
        (Problem::Heat1d { coeffs, steps, .. }, State::Grid1(g)) => {
            State::Grid1(reference::heat1d(g, coeffs, steps))
        }
        (Problem::Gs1d { coeffs, steps, .. }, State::Grid1(g)) => {
            State::Grid1(reference::gs1d(g, coeffs, steps))
        }
        (Problem::Heat2d { coeffs, steps, .. }, State::Grid2(g)) => {
            State::Grid2(reference::heat2d(g, coeffs, steps))
        }
        (Problem::Box2d { coeffs, steps, .. }, State::Grid2(g)) => {
            State::Grid2(reference::box2d(g, coeffs, steps))
        }
        (Problem::Gs2d { coeffs, steps, .. }, State::Grid2(g)) => {
            State::Grid2(reference::gs2d(g, coeffs, steps))
        }
        (Problem::Life { rule, steps, .. }, State::Grid2i(g)) => {
            State::Grid2i(reference::life(g, rule, steps))
        }
        (Problem::Heat3d { coeffs, steps, .. }, State::Grid3(g)) => {
            State::Grid3(reference::heat3d(g, coeffs, steps))
        }
        (Problem::Gs3d { coeffs, steps, .. }, State::Grid3(g)) => {
            State::Grid3(reference::gs3d(g, coeffs, steps))
        }
        _ => unreachable!("state does not match problem"),
    }
}

fn states_eq(a: &State, b: &State) -> bool {
    match (a, b) {
        (State::Grid1(a), State::Grid1(b)) => a.interior_eq(b),
        (State::Grid2(a), State::Grid2(b)) => a.interior_eq(b),
        (State::Grid2i(a), State::Grid2i(b)) => a.interior_eq(b),
        (State::Grid3(a), State::Grid3(b)) => a.interior_eq(b),
        _ => false,
    }
}

/// Boundary-dominated shapes, all eight grid kinds: outer extents that
/// leave the steady state 1, 2 or `VL·s` slabs (`x_max`), inner rows
/// shorter than, equal to and not a multiple of a vector, a whole tile
/// and two tiles plus a remainder step, both engines, untiled plus the
/// ghost/skew tiling at its minimum legal block on 1 and 2 threads.
/// Every result equals the scalar reference bit for bit (hence the two
/// engines equal each other). The other suites use shapes where the
/// steady state dominates; these are the shapes where the prologue,
/// ring fill/drain, epilogue, edge bands and remainder steps are most of
/// the run — the code both engines instantiate from one source.
#[test]
fn boundary_dominated_shapes_match_reference_bitwise() {
    const S: usize = 2;
    let b = Boundary::Dirichlet(0.3);
    type Mk = fn(usize, [usize; 2], usize, Boundary<f64>) -> Problem;
    let kinds: [(usize, Mk); 8] = [
        (4, |n, _, steps, boundary| Problem::Heat1d {
            n,
            steps,
            coeffs: Heat1dCoeffs::new(0.3, 0.45, 0.25),
            boundary,
        }),
        (4, |n, _, steps, boundary| Problem::Gs1d {
            n,
            steps,
            coeffs: Gs1dCoeffs::new(0.4, 0.35, 0.25),
            boundary,
        }),
        (4, |nx, [ny, _], steps, boundary| Problem::Heat2d {
            nx,
            ny,
            steps,
            coeffs: Heat2dCoeffs::classic(0.12),
            boundary,
        }),
        (4, |nx, [ny, _], steps, boundary| Problem::Box2d {
            nx,
            ny,
            steps,
            coeffs: Box2dCoeffs::smooth(0.1),
            boundary,
        }),
        (4, |nx, [ny, _], steps, boundary| Problem::Gs2d {
            nx,
            ny,
            steps,
            coeffs: Gs2dCoeffs::new(0.31, 0.17, 0.23, 0.11, 0.13),
            boundary,
        }),
        (8, |nx, [ny, _], steps, _| Problem::Life {
            nx,
            ny,
            steps,
            rule: LifeRule::b2s23(),
            boundary: Boundary::Dirichlet(1),
        }),
        (4, |nx, [ny, nz], steps, boundary| Problem::Heat3d {
            nx,
            ny,
            nz,
            steps,
            coeffs: Heat3dCoeffs::classic(0.11),
            boundary,
        }),
        (4, |nx, [ny, nz], steps, boundary| Problem::Gs3d {
            nx,
            ny,
            nz,
            steps,
            coeffs: Gs3dCoeffs::new(0.21, 0.13, 0.08, 0.3, 0.09, 0.11, 0.07),
            boundary,
        }),
    ];
    let can_force_avx2 = cfg!(target_arch = "x86_64") && tempora::simd::arch::avx2_available();
    let selects: &[Select] = if can_force_avx2 {
        &[Select::Portable, Select::Avx2]
    } else {
        &[Select::Portable]
    };
    // Middle/inner extent pairs: every inner row length, asymmetric in 3-D.
    let inners = [[1usize, 3usize], [3, 5], [5, 9], [9, 1]];
    for (vl, mk) in kinds {
        for outer in [vl * S, vl * S + 1, 2 * vl * S - 1] {
            for inner in inners {
                for steps in [vl, 2 * vl + 1] {
                    let problem = mk(outer, inner, steps, b);
                    let mut input = problem.state();
                    match &mut input {
                        State::Grid1(g) => fill_random_1d(g, 11, -1.0, 1.0),
                        State::Grid2(g) => fill_random_2d(g, 12, -1.0, 1.0),
                        State::Grid2i(g) => fill_random_life(g, 13, 0.4),
                        State::Grid3(g) => fill_random_3d(g, 14, -1.0, 1.0),
                        State::Lcs(_) => unreachable!(),
                    }
                    let gold = reference_state(&problem, &input);
                    // Minimum legal blocks: one slab per ghost tile; the
                    // skew wave-disjointness bound height + VL·s + VL.
                    let tiled = if problem.is_gauss_seidel() {
                        Tiling::Skew {
                            block: 4 + 4 * S + 4,
                            height: 4,
                        }
                    } else {
                        Tiling::Ghost {
                            block: 1,
                            height: vl,
                        }
                    };
                    for &sel in selects {
                        let base = PlanBuilder::new().stride(S).select(sel);
                        for (builder, what) in [
                            (base, "untiled"),
                            (base.tiling(tiled).threads(1), "tiled, 1 thread"),
                            (base.tiling(tiled).threads(2), "tiled, 2 threads"),
                        ] {
                            let mut state = input.clone();
                            compile(&problem, builder)
                                .run(&mut state)
                                .expect("state matches plan");
                            assert!(
                                states_eq(&state, &gold),
                                "{} outer={outer} inner={inner:?} steps={steps} {sel:?} {what}",
                                problem.kind_name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    tempora::simd::arch::avx2_available()
}

/// The hand-scheduled AVX2 steady states must reproduce the scalar
/// oracles bit-for-bit over a grid of (n, s, steps) configurations,
/// including degenerate `n < VL·s` shapes that fall back to the portable
/// (scalar-schedule) tile.
#[test]
#[cfg(target_arch = "x86_64")]
fn avx2_engines_match_scalar_oracles_bitwise() {
    if !has_avx2() {
        return;
    }
    let avx2 = |s| forced(Select::Avx2, s);

    // 1-D: Jacobi and Gauss-Seidel over strides up to the paper's s = 7.
    let c1 = Heat1dCoeffs::classic(0.24);
    let cg1 = Gs1dCoeffs::classic(0.23);
    for &n in &[5usize, 16, 63, 200, 1000] {
        for s in [2usize, 4, 7] {
            for steps in [4usize, 8, 13] {
                let g = g1(n, (n + s + steps) as u64, 0.5);
                let (n, boundary) = (g.n(), g.boundary());
                let problem = Problem::Heat1d {
                    n,
                    steps,
                    coeffs: c1,
                    boundary,
                };
                let (ours, e) = run1(&problem, avx2(s), &g);
                assert_eq!(e, Some(Engine::Avx2));
                let gold = reference::heat1d(&g, c1, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "heat1d n={n} s={s} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
                let problem = Problem::Gs1d {
                    n,
                    steps,
                    coeffs: cg1,
                    boundary,
                };
                let (ours, _) = run1(&problem, avx2(s), &g);
                let gold = reference::gs1d(&g, cg1, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "gs1d n={n} s={s} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    // 2-D: star Jacobi, box Jacobi and Gauss-Seidel. nx = 5 with s >= 2
    // exercises the degenerate fallback.
    let c2 = Heat2dCoeffs::classic(0.11);
    let cb = Box2dCoeffs::smooth(0.07);
    let cg2 = Gs2dCoeffs::classic(0.17);
    for &(nx, ny) in &[(5usize, 9usize), (8, 5), (17, 12), (40, 23), (96, 33)] {
        for s in [2usize, 3] {
            for steps in [4usize, 7, 12] {
                let g = g2(nx, ny, (nx * ny + s + steps) as u64, -0.25);
                let boundary = g.boundary();
                let problem = Problem::Heat2d {
                    nx,
                    ny,
                    steps,
                    coeffs: c2,
                    boundary,
                };
                let (ours, e) = run2(&problem, avx2(s), &g);
                assert_eq!(e, Some(Engine::Avx2));
                let gold = reference::heat2d(&g, c2, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "heat2d nx={nx} ny={ny} s={s} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
                ours.check_canaries().unwrap();
                let problem = Problem::Box2d {
                    nx,
                    ny,
                    steps,
                    coeffs: cb,
                    boundary,
                };
                let (ours, _) = run2(&problem, avx2(s), &g);
                let gold = reference::box2d(&g, cb, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "box2d nx={nx} ny={ny} s={s} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
                let problem = Problem::Gs2d {
                    nx,
                    ny,
                    steps,
                    coeffs: cg2,
                    boundary,
                };
                let (ours, _) = run2(&problem, avx2(s), &g);
                let gold = reference::gs2d(&g, cg2, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "gs2d nx={nx} ny={ny} s={s} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }

    // 3-D: star Jacobi and Gauss-Seidel. nx = 5 exercises the fallback.
    let c3 = Heat3dCoeffs::classic(0.09);
    let cg3 = Gs3dCoeffs::classic(0.12);
    for &(nx, ny, nz) in &[(5usize, 6usize, 6usize), (9, 5, 6), (16, 8, 7), (24, 9, 8)] {
        for s in [2usize, 3] {
            for steps in [4usize, 8, 9] {
                let mut g = Grid3::new(nx, ny, nz, 1, Boundary::Dirichlet(0.1));
                fill_random_3d(&mut g, (nx + ny + nz + s + steps) as u64, -1.0, 1.0);
                let boundary = g.boundary();
                let problem = Problem::Heat3d {
                    nx,
                    ny,
                    nz,
                    steps,
                    coeffs: c3,
                    boundary,
                };
                let (ours, e) = run3(&problem, avx2(s), &g);
                assert_eq!(e, Some(Engine::Avx2));
                let gold = reference::heat3d(&g, c3, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "heat3d nx={nx} ny={ny} nz={nz} s={s} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
                let problem = Problem::Gs3d {
                    nx,
                    ny,
                    nz,
                    steps,
                    coeffs: cg3,
                    boundary,
                };
                let (ours, _) = run3(&problem, avx2(s), &g);
                let gold = reference::gs3d(&g, cg3, steps);
                assert!(
                    ours.interior_eq(&gold),
                    "gs3d nx={nx} ny={ny} nz={nz} s={s} steps={steps} {:?}",
                    ours.first_diff(&gold)
                );
            }
        }
    }
}

/// Property: a forced-portable plan and a forced-AVX2 plan of the same
/// workload agree bit-for-bit, and the plan reports the engine that
/// actually executed.
#[test]
fn forced_portable_and_avx2_selections_agree_bitwise() {
    let can_force_avx2 = cfg!(target_arch = "x86_64") && tempora::simd::arch::avx2_available();
    let sels: &[Select] = if can_force_avx2 {
        &[Select::Portable, Select::Avx2, Select::Auto]
    } else {
        &[Select::Portable, Select::Auto]
    };
    let expect = |sel: Select, has_impl: bool| match sel {
        Select::Portable => Engine::Portable,
        _ if can_force_avx2 && has_impl => Engine::Avx2,
        _ => Engine::Portable,
    };

    // Healthy shapes (`auto` at eight lanes, with and without a scalar
    // tail, and at four where eight would leave more scalar levels or the
    // line is narrower than the kind's crossover: GS-1D's 1024 cells,
    // Heat-1D's 4096, each met exactly and missed by one), then the
    // degenerate ones — n < VL·s, steps < VL — whose scalar steps resolve
    // like any run (the engine is their codegen context too), and the
    // widest stride the 1-D ring holds, which the rolled loop serves on
    // the four-lane engines and the registers on the eight-lane one.
    for &(n, s, steps) in &[
        (200usize, 2usize, 8usize),
        (1024, 7, 12),
        (1024, 7, 19),
        (1023, 7, 16),
        (1024, 7, 16),
        (4095, 13, 9),
        (4096, 13, 9),
        (40, 7, 16),
        (4096, 3, 5),
        (5, 2, 8),
        (200, 2, 3),
        (4096, 16, 4),
        (4096, 16, 32),
    ] {
        let g = g1(n, (n + s) as u64, 0.4);
        let c = Heat1dCoeffs::classic(0.24);
        let cg = Gs1dCoeffs::classic(0.21);
        let heat = Problem::Heat1d {
            n,
            steps,
            coeffs: c,
            boundary: g.boundary(),
        };
        let gs = Problem::Gs1d {
            n,
            steps,
            coeffs: cg,
            boundary: g.boundary(),
        };
        // The dispatch predicate: capability at every stride, and for
        // `auto` the eight-lane rule.
        let mut results = vec![];
        for &sel in sels {
            let b = PlanBuilder::new().stride(s).select(sel);
            let (r, e) = run1(&heat, b, &g);
            let expect = Some(engine_of::<JacobiKern1d>(sel, n, steps));
            assert_eq!(e, expect, "heat1d {sel:?} n={n} s={s} steps={steps}");
            let (rg, eg) = run1(&gs, b, &g);
            let expect = Some(engine_of::<GsKern1d>(sel, n, steps));
            assert_eq!(eg, expect, "gs1d {sel:?} n={n} s={s} steps={steps}");
            results.push((r, rg));
        }
        for (r, rg) in &results[1..] {
            assert!(r.interior_eq(&results[0].0), "heat1d n={n} s={s}");
            assert!(rg.interior_eq(&results[0].1), "gs1d n={n} s={s}");
        }
        assert!(results[0].0.interior_eq(&reference::heat1d(&g, c, steps)));
        assert!(results[0].1.interior_eq(&reference::gs1d(&g, cg, steps)));
    }

    let g = g2(41, 23, 7, -0.5);
    let c2 = Heat2dCoeffs::classic(0.11);
    let cb = Box2dCoeffs::smooth(0.07);
    let cg2 = Gs2dCoeffs::classic(0.17);
    let g3v = g3(20, 3);
    let c3 = Heat3dCoeffs::classic(0.09);
    let cg3 = Gs3dCoeffs::classic(0.12);
    let heat2 = Problem::Heat2d {
        nx: 41,
        ny: 23,
        steps: 8,
        coeffs: c2,
        boundary: g.boundary(),
    };
    let box2 = Problem::Box2d {
        nx: 41,
        ny: 23,
        steps: 8,
        coeffs: cb,
        boundary: g.boundary(),
    };
    let gs2 = Problem::Gs2d {
        nx: 41,
        ny: 23,
        steps: 8,
        coeffs: cg2,
        boundary: g.boundary(),
    };
    let heat3 = Problem::Heat3d {
        nx: 20,
        ny: 20,
        nz: 20,
        steps: 8,
        coeffs: c3,
        boundary: g3v.boundary(),
    };
    let gs3 = Problem::Gs3d {
        nx: 20,
        ny: 20,
        nz: 20,
        steps: 8,
        coeffs: cg3,
        boundary: g3v.boundary(),
    };
    let mut results = vec![];
    for &sel in sels {
        let b = PlanBuilder::new().stride(2).select(sel);
        // 41 outer rows: past the Heat-2D and 2D9P crossover, short of
        // GS-2D's.
        let (h2, e) = run2(&heat2, b, &g);
        assert_eq!(
            e,
            Some(engine_of::<JacobiKern2d>(sel, 41, 8)),
            "heat2d {sel:?}"
        );
        let (b2, e) = run2(&box2, b, &g);
        assert_eq!(e, Some(engine_of::<BoxKern2d>(sel, 41, 8)), "box2d {sel:?}");
        let (s2, e) = run2(&gs2, b, &g);
        assert_eq!(e, Some(engine_of::<GsKern2d>(sel, 41, 8)), "gs2d {sel:?}");
        let (h3, e) = run3(&heat3, b, &g3v);
        assert_eq!(e, Some(expect(sel, true)), "heat3d {sel:?}");
        let (s3, e) = run3(&gs3, b, &g3v);
        assert_eq!(e, Some(expect(sel, true)), "gs3d {sel:?}");
        results.push((h2, b2, s2, h3, s3));
    }
    for r in &results[1..] {
        assert!(r.0.interior_eq(&results[0].0), "heat2d");
        assert!(r.1.interior_eq(&results[0].1), "box2d");
        assert!(r.2.interior_eq(&results[0].2), "gs2d");
        assert!(r.3.interior_eq(&results[0].3), "heat3d");
        assert!(r.4.interior_eq(&results[0].4), "gs3d");
    }

    // The two integer workloads dispatch like the f64 ones now: every
    // selection agrees bitwise and the report names what executed.
    let rule = LifeRule::b2s23();
    let mut gl = Grid2::<i32>::new(40, 30, 1, Boundary::Dirichlet(0));
    fill_random_life(&mut gl, 3, 0.35);
    let gold = reference::life(&gl, rule, 8);
    let life = Problem::Life {
        nx: 40,
        ny: 30,
        steps: 8,
        rule,
        boundary: gl.boundary(),
    };
    for &sel in sels {
        let (r, e) = run2i(&life, PlanBuilder::new().stride(2).select(sel), &gl);
        assert_eq!(e, Some(expect(sel, true)), "life {sel:?}");
        assert!(r.interior_eq(&gold));
    }
    let a = random_sequence(300, 4, 11);
    let b = random_sequence(500, 4, 12);
    for &sel in sels {
        let (len, e) = run_lcs_plan(PlanBuilder::new().stride(1).select(sel), &a, &b);
        assert_eq!(e, Some(expect(sel, true)), "lcs {sel:?}");
        assert_eq!(len, reference::lcs_len(&a, &b));
    }
}

/// Property: the tiled parallel plans agree bitwise between a forced
/// portable run and a forced AVX2 run at every tested worker count, and
/// both match the scalar reference — including blocks below `VL·s`
/// (widened to the slabs a chunk reads ahead: the same vector code runs
/// and the resolved engine honestly says so) and `steps % VL != 0` tails.
#[test]
fn tiled_forced_engines_agree_bitwise() {
    // 1 worker exercises the dispatcher-only path, 2 and 4 exercise real
    // pipelining, 8 oversubscribes the pool on most CI hosts.
    for threads in [1usize, 2, 4, 8] {
        tiled_forced_engines_agree_at(threads);
    }
}

fn tiled_forced_engines_agree_at(threads: usize) {
    let can_force_avx2 = cfg!(target_arch = "x86_64") && tempora::simd::arch::avx2_available();
    let sels: &[Select] = if can_force_avx2 {
        &[Select::Portable, Select::Avx2, Select::Auto]
    } else {
        &[Select::Portable, Select::Auto]
    };

    // Tiled Jacobi, 1-D: (block, height, steps, s). steps = 19 leaves a
    // 3-sweep scalar tail at either width (`auto`: eight lanes); 13 leaves
    // five at eight lanes and one at four (`auto`: four); block = 2 with
    // s = 7 is widened to 28-cell chunks (56 at eight lanes), which run
    // the vector schedule like any other. 4096 cells: Heat-1D's crossover,
    // the narrowest line `auto` runs at eight lanes.
    let c1 = Heat1dCoeffs::classic(0.24);
    let g = g1(4096, 5, 0.3);
    for &(block, height, steps, s) in &[
        (64usize, 8usize, 19usize, 7usize),
        (2, 4, 13, 7),
        (2, 4, 19, 7),
        (64, 8, 32, 16),
    ] {
        let problem = Problem::Heat1d {
            n: g.n(),
            steps,
            coeffs: c1,
            boundary: g.boundary(),
        };
        let gold = reference::heat1d(&g, c1, steps);
        for &sel in sels {
            let (r, e) = run1(
                &problem,
                PlanBuilder::new()
                    .stride(s)
                    .select(sel)
                    .tiling(Tiling::Ghost { block, height })
                    .threads(threads),
                &g,
            );
            assert!(
                r.interior_eq(&gold),
                "ghost1d sel={sel:?} block={block} {:?}",
                r.first_diff(&gold)
            );
            let expect = engine_of::<JacobiKern1d>(sel, g.n(), steps);
            assert_eq!(e, Some(expect), "ghost1d sel={sel:?} block={block}");
        }
    }

    // Ghost-zone Jacobi, 2-D star + box and 3-D star, with a tail.
    let c2 = Heat2dCoeffs::classic(0.11);
    let cb = Box2dCoeffs::smooth(0.07);
    let h = g2(96, 17, 2, -0.25);
    let gold2 = reference::heat2d(&h, c2, 13);
    let goldb = reference::box2d(&h, cb, 13);
    let c3 = Heat3dCoeffs::classic(0.09);
    let v = g3(24, 7);
    let gold3 = reference::heat3d(&v, c3, 9);
    let heat2 = Problem::Heat2d {
        nx: h.nx(),
        ny: h.ny(),
        steps: 13,
        coeffs: c2,
        boundary: h.boundary(),
    };
    let box2 = Problem::Box2d {
        nx: h.nx(),
        ny: h.ny(),
        steps: 13,
        coeffs: cb,
        boundary: h.boundary(),
    };
    let heat3 = Problem::Heat3d {
        nx: v.nx(),
        ny: v.ny(),
        nz: v.nz(),
        steps: 9,
        coeffs: c3,
        boundary: v.boundary(),
    };
    for &sel in sels {
        let b2t = PlanBuilder::new()
            .stride(2)
            .select(sel)
            .tiling(Tiling::Ghost {
                block: 24,
                height: 8,
            })
            .threads(threads);
        let (r, e) = run2(&heat2, b2t, &h);
        assert!(r.interior_eq(&gold2), "ghost2d sel={sel:?}");
        assert!(e.is_some(), "ghost2d must report an engine");
        let (r, _) = run2(&box2, b2t, &h);
        assert!(r.interior_eq(&goldb), "ghost2d box sel={sel:?}");
        let (r, _) = run3(
            &heat3,
            PlanBuilder::new()
                .stride(2)
                .select(sel)
                .tiling(Tiling::Ghost {
                    block: 8,
                    height: 4,
                })
                .threads(threads),
            &v,
        );
        assert!(r.interior_eq(&gold3), "ghost3d sel={sel:?}");
    }

    // Eight lanes through the tiled layer: Heat-2D and 2D9P ghost, GS-2D
    // skew, shaped so that `auto` widens all three (160 outer rows, past
    // GS-2D's 128; 19 steps, two eight-lane sweeps and a three-level tail
    // at either width) and with 300-column rows that the steady state cuts
    // into segments; blocks at the eight-lane read-ahead and wider.
    let wide = g2(160, 300, 8, 0.3);
    let (cw, cbw, cgw) = (
        Heat2dCoeffs::classic(0.13),
        Box2dCoeffs::smooth(0.06),
        Gs2dCoeffs::new(0.31, 0.17, 0.23, 0.11, 0.13),
    );
    let steps = 19;
    let (goldw, goldbw, goldgw) = (
        reference::heat2d(&wide, cw, steps),
        reference::box2d(&wide, cbw, steps),
        reference::gs2d(&wide, cgw, steps),
    );
    let (nx, ny, boundary) = (wide.nx(), wide.ny(), wide.boundary());
    let heatw = Problem::Heat2d {
        nx,
        ny,
        steps,
        coeffs: cw,
        boundary,
    };
    let boxw = Problem::Box2d {
        nx,
        ny,
        steps,
        coeffs: cbw,
        boundary,
    };
    let gsw = Problem::Gs2d {
        nx,
        ny,
        steps,
        coeffs: cgw,
        boundary,
    };
    for &sel in sels {
        let tiled = |tiling| {
            PlanBuilder::new()
                .stride(2)
                .select(sel)
                .tiling(tiling)
                .threads(threads)
        };
        for block in [16, 40] {
            let ghost = tiled(Tiling::Ghost { block, height: 8 });
            let (r, e) = run2(&heatw, ghost, &wide);
            assert!(
                r.interior_eq(&goldw),
                "ghost2d wide sel={sel:?} block={block}"
            );
            assert_eq!(
                e,
                Some(engine_of::<JacobiKern2d>(sel, nx, steps)),
                "{sel:?}"
            );
            let (r, e) = run2(&boxw, ghost, &wide);
            assert!(
                r.interior_eq(&goldbw),
                "ghost2d box wide sel={sel:?} block={block}"
            );
            assert_eq!(e, Some(engine_of::<BoxKern2d>(sel, nx, steps)), "{sel:?}");
        }
        for block in [24, 48] {
            let (r, e) = run2(&gsw, tiled(Tiling::Skew { block, height: 8 }), &wide);
            assert!(
                r.interior_eq(&goldgw),
                "skew2d wide sel={sel:?} block={block}"
            );
            assert_eq!(e, Some(engine_of::<GsKern2d>(sel, nx, steps)), "{sel:?}");
        }
    }

    // Gauss-Seidel pairs through the skewed tiles at four lanes (GS-2D
    // below its eight-lane crossover; GS-3D with an odd count of interior
    // rows): odd and even blocks from the narrowest a one-sweep band
    // accepts, `height + VL·(s+1)`, so chunks end inside a pair of
    // anchors, with a tail.
    let (cg2, cg3) = (
        Gs2dCoeffs::new(0.29, 0.19, 0.21, 0.13, 0.11),
        Gs3dCoeffs::new(0.21, 0.13, 0.08, 0.3, 0.09, 0.11, 0.07),
    );
    let (p2, p3) = (g2(70, 33, 9, -0.4), g3(19, 13));
    let (gold_p2, gold_p3) = (reference::gs2d(&p2, cg2, 13), reference::gs3d(&p3, cg3, 9));
    let gs2 = Problem::Gs2d {
        nx: p2.nx(),
        ny: p2.ny(),
        steps: 13,
        coeffs: cg2,
        boundary: p2.boundary(),
    };
    let gs3 = Problem::Gs3d {
        nx: p3.nx(),
        ny: p3.ny(),
        nz: p3.nz(),
        steps: 9,
        coeffs: cg3,
        boundary: p3.boundary(),
    };
    for &sel in sels {
        for block in [16, 17, 19, 23] {
            let skew = PlanBuilder::new()
                .stride(2)
                .select(sel)
                .tiling(Tiling::Skew { block, height: 4 })
                .threads(threads);
            let (r, _) = run2(&gs2, skew, &p2);
            assert!(
                r.interior_eq(&gold_p2),
                "skew2d pairs sel={sel:?} block={block}"
            );
            let (r, _) = run3(&gs3, skew, &p3);
            assert!(
                r.interior_eq(&gold_p3),
                "skew3d pairs sel={sel:?} block={block}"
            );
        }
    }

    // LCS through the band wave at both widths: 67 rows (`la % 16 ≤
    // la % 8`, so `auto` widens) over 1100 columns, past the sixteen-lane
    // crossover. Block columns of 100 host sixteen lanes, of 40 (a ragged
    // 20) eight only, of 1100 the untiled row; 23 hosts no band at all.
    let (a, b) = (random_sequence(67, 4, 31), random_sequence(1100, 4, 32));
    let gold = reference::lcs_len(&a, &b);
    for &sel in sels {
        for yblock in [100, 40, 1100, 23] {
            let problem = Problem::lcs(a.len(), b.len());
            let mut plan = compile(
                &problem,
                PlanBuilder::new()
                    .stride(2)
                    .select(sel)
                    .tiling(Tiling::LcsRect { xblock: 24, yblock })
                    .threads(threads),
            );
            let mut state = problem.state();
            let l = state.lcs_mut().unwrap();
            (l.a, l.b) = (a.clone(), b.clone());
            let report = plan.run(&mut state).expect("state matches plan");
            assert_eq!(
                report.lcs_length,
                Some(gold),
                "lcs sel={sel:?} yblock={yblock}"
            );
            let expect = tempora::core::lcs_avx2::resolve(sel, a.len(), b.len(), yblock, 2);
            assert_eq!(
                report.engine,
                Some(expect),
                "lcs sel={sel:?} yblock={yblock}"
            );
            if sel == Select::Auto && yblock == 100 && tempora::simd::arch::avx512_available() {
                assert_eq!(expect, Engine::Avx512, "sixteen lanes run here");
            }
        }
    }

    // Tiled Gauss-Seidel, 1/2/3-D, with tails; the (n=24, s=7) grid is
    // below VL·s = 28 cells, so every level is a scalar sweep — in the
    // codegen context of the engine the selection resolves, like any run.
    let cg1 = Gs1dCoeffs::classic(0.21);
    let gg = g1(1024, 11, 0.4);
    // 1024 cells, GS-1D's crossover. 21 steps: `auto` stays at four
    // lanes; 24: eight.
    for steps in [21, 24] {
        let gold = reference::gs1d(&gg, cg1, steps);
        let gs1 = Problem::Gs1d {
            n: gg.n(),
            steps,
            coeffs: cg1,
            boundary: gg.boundary(),
        };
        for &sel in sels {
            let (r, e) = run1(
                &gs1,
                PlanBuilder::new()
                    .stride(7)
                    .select(sel)
                    .tiling(Tiling::Skew {
                        block: 128,
                        height: 8,
                    })
                    .threads(threads),
                &gg,
            );
            assert!(r.interior_eq(&gold), "skew1d sel={sel:?} steps={steps}");
            let expect = engine_of::<GsKern1d>(sel, gg.n(), steps);
            assert_eq!(e, Some(expect), "skew1d sel={sel:?} steps={steps}");
        }
    }
    let small = g1(24, 13, 0.0);
    let gold_small = reference::gs1d(&small, cg1, 10);
    let gs_small = Problem::Gs1d {
        n: small.n(),
        steps: 10,
        coeffs: cg1,
        boundary: small.boundary(),
    };
    for &sel in sels {
        let (r, e) = run1(
            &gs_small,
            PlanBuilder::new()
                .stride(7)
                .select(sel)
                .tiling(Tiling::Skew {
                    block: 36,
                    height: 4,
                })
                .threads(threads),
            &small,
        );
        assert!(r.interior_eq(&gold_small), "skew1d degenerate sel={sel:?}");
        let expect = if sel != Select::Portable && can_force_avx2 {
            Engine::Avx2
        } else {
            Engine::Portable
        };
        assert_eq!(e, Some(expect), "skew1d degenerate sel={sel:?}");
    }

    let cg2 = Gs2dCoeffs::classic(0.17);
    let hh = g2(100, 21, 4, -0.1);
    let gold2 = reference::gs2d(&hh, cg2, 14);
    let cg3 = Gs3dCoeffs::classic(0.12);
    let vv = g3(32, 9);
    let gold3 = reference::gs3d(&vv, cg3, 10);
    let gs2 = Problem::Gs2d {
        nx: hh.nx(),
        ny: hh.ny(),
        steps: 14,
        coeffs: cg2,
        boundary: hh.boundary(),
    };
    let gs3 = Problem::Gs3d {
        nx: vv.nx(),
        ny: vv.ny(),
        nz: vv.nz(),
        steps: 10,
        coeffs: cg3,
        boundary: vv.boundary(),
    };
    for &sel in sels {
        let (r, _) = run2(
            &gs2,
            PlanBuilder::new()
                .stride(2)
                .select(sel)
                .tiling(Tiling::Skew {
                    block: 32,
                    height: 8,
                })
                .threads(threads),
            &hh,
        );
        assert!(r.interior_eq(&gold2), "skew2d sel={sel:?}");
        let (r, _) = run3(
            &gs3,
            PlanBuilder::new()
                .stride(2)
                .select(sel)
                .tiling(Tiling::Skew {
                    block: 20,
                    height: 4,
                })
                .threads(threads),
            &vv,
        );
        assert!(r.interior_eq(&gold3), "skew3d sel={sel:?}");
    }
}

/// Property: the integer Life workload agrees bitwise between a forced
/// portable plan and a forced AVX2 plan — sequential and under a
/// 4-thread ghost tiling — across random B/S rules, degenerate outer
/// extents (`nx < VL·s`) and `steps % height != 0` tails, and the
/// resolved engine names the codegen context that executed.
#[test]
fn life_forced_engines_agree_bitwise() {
    let can_force_avx2 = cfg!(target_arch = "x86_64") && tempora::simd::arch::avx2_available();
    let sels: &[Select] = if can_force_avx2 {
        &[Select::Portable, Select::Avx2, Select::Auto]
    } else {
        &[Select::Portable, Select::Auto]
    };
    // Random-ish rules beyond the two named ones: arbitrary B/S masks.
    let rules = [
        LifeRule::b2s23(),
        LifeRule::conway(),
        LifeRule {
            birth: 0b0011_0100,
            survive: 0b0101_0110,
        },
        LifeRule {
            birth: 0b1_0000_0010,
            survive: 0b0_1000_1101,
        },
    ];
    for (ri, &rule) in rules.iter().enumerate() {
        // Sequential: healthy (48×26) and degenerate (nx = 10 < 8·2:
        // scalar steps only, same engine) shapes, with a steps % 8
        // remainder.
        for &(nx, ny, steps) in &[(48usize, 26usize, 19usize), (10, 26, 16)] {
            let mut g = Grid2::<i32>::new(nx, ny, 1, Boundary::Dirichlet(0));
            fill_random_life(&mut g, (ri * 100 + nx) as u64, 0.4);
            let gold = reference::life(&g, rule, steps);
            let problem = Problem::Life {
                nx,
                ny,
                steps,
                rule,
                boundary: g.boundary(),
            };
            for &sel in sels {
                let (r, e) = run2i(&problem, PlanBuilder::new().stride(2).select(sel), &g);
                assert!(
                    r.interior_eq(&gold),
                    "seq life rule#{ri} nx={nx} sel={sel:?} {:?}",
                    r.first_diff(&gold)
                );
                let expect = if sel != Select::Portable && can_force_avx2 {
                    Engine::Avx2
                } else {
                    Engine::Portable
                };
                assert_eq!(e, Some(expect), "seq life rule#{ri} nx={nx} sel={sel:?}");
            }
        }
        // Tiled on 4 workers: healthy blocks, a steps % VL tail, and a
        // block below the read-ahead (at stride 3 a block of 2 is widened
        // to VL·s = 24 slabs; the chunks run the vector schedule).
        let mut g = Grid2::<i32>::new(96, 20, 1, Boundary::Dirichlet(0));
        fill_random_life(&mut g, ri as u64 + 7, 0.37);
        for &(block, steps, s, healthy) in &[(24usize, 19usize, 2usize, true), (2, 16, 3, true)] {
            let gold = reference::life(&g, rule, steps);
            let problem = Problem::Life {
                nx: 96,
                ny: 20,
                steps,
                rule,
                boundary: g.boundary(),
            };
            for &sel in sels {
                let (r, e) = run2i(
                    &problem,
                    PlanBuilder::new()
                        .stride(s)
                        .select(sel)
                        .tiling(Tiling::Ghost { block, height: 8 })
                        .threads(4),
                    &g,
                );
                assert!(
                    r.interior_eq(&gold),
                    "ghost life rule#{ri} block={block} sel={sel:?} {:?}",
                    r.first_diff(&gold)
                );
                let expect = if sel != Select::Portable && can_force_avx2 && healthy {
                    Engine::Avx2
                } else {
                    Engine::Portable
                };
                assert_eq!(
                    e,
                    Some(expect),
                    "ghost life rule#{ri} block={block} sel={sel:?}"
                );
            }
        }
    }
}

/// Property: the LCS workload agrees exactly between a forced portable
/// plan and a forced AVX2 plan — sequential and under a 4-thread
/// rectangle tiling — across random alphabet sizes, strides and
/// degenerate segments (`lb < VL·s + 1`), with honest engine reports.
#[test]
fn lcs_forced_engines_agree() {
    let can_force_avx2 = cfg!(target_arch = "x86_64") && tempora::simd::arch::avx2_available();
    let sels: &[Select] = if can_force_avx2 {
        &[Select::Portable, Select::Avx2, Select::Auto]
    } else {
        &[Select::Portable, Select::Auto]
    };
    // (la, lb, alphabet, s, healthy-sequential?): the 300×12 shape at
    // s = 2 has lb < 8·2 + 1 and must honestly resolve portable; the
    // 5×200 shape has no full 8-level A tile.
    for &(la, lb, alpha, s, healthy) in &[
        (120usize, 250usize, 4u8, 1usize, true),
        (77, 133, 2, 2, true),
        (64, 97, 26, 3, true),
        (300, 12, 4, 2, false),
        (5, 200, 4, 1, false),
    ] {
        let a = random_sequence(la, alpha, (la + lb) as u64);
        let b = random_sequence(lb, alpha, (la * 31 + lb) as u64);
        let gold = reference::lcs_len(&a, &b);
        for &sel in sels {
            let (len, e) = run_lcs_plan(PlanBuilder::new().stride(s).select(sel), &a, &b);
            assert_eq!(len, gold, "seq lcs la={la} lb={lb} s={s} sel={sel:?}");
            let expect = if sel != Select::Portable && can_force_avx2 && healthy {
                Engine::Avx2
            } else {
                Engine::Portable
            };
            assert_eq!(e, Some(expect), "seq lcs la={la} lb={lb} s={s} sel={sel:?}");
        }
    }
    // Rectangle-tiled on 4 workers: a healthy blocking, a healthy
    // ragged-last column block (260 % 70 = 50 ≥ VL·s + 1), a blocking
    // whose ragged last column block is too short for the steady state
    // (260 % 64 = 4), and a degenerate narrow column block.
    let a = random_sequence(150, 3, 41);
    let b = random_sequence(260, 3, 42);
    let gold = reference::lcs_len(&a, &b);
    for &(xb, yb, healthy) in &[
        (32usize, 65usize, true),
        (24, 70, true),
        (32, 64, false),
        (32, 6, false),
    ] {
        let problem = Problem::lcs(150, 260);
        for &sel in sels {
            let mut plan = compile(
                &problem,
                PlanBuilder::new()
                    .stride(1)
                    .select(sel)
                    .tiling(Tiling::LcsRect {
                        xblock: xb,
                        yblock: yb,
                    })
                    .threads(4),
            );
            let mut state = problem.state();
            {
                let l = state.lcs_mut().unwrap();
                l.a = a.clone();
                l.b = b.clone();
            }
            let report = plan.run(&mut state).expect("state matches plan");
            assert_eq!(
                report.lcs_length,
                Some(gold),
                "rect lcs xb={xb} yb={yb} sel={sel:?}"
            );
            let expect = if sel != Select::Portable && can_force_avx2 && healthy {
                Engine::Avx2
            } else {
                Engine::Portable
            };
            assert_eq!(
                report.engine,
                Some(expect),
                "rect lcs xb={xb} yb={yb} sel={sel:?}"
            );
        }
    }
}

/// The `TEMPORA_ENGINE` environment variable drives `Select::from_env`,
/// and a plan built with that selection reports the forced engine.
#[test]
fn tempora_engine_env_is_honoured() {
    // Parsing (pure).
    assert_eq!(Select::parse("auto"), Some(Select::Auto));
    assert_eq!(Select::parse("PORTABLE"), Some(Select::Portable));
    assert_eq!(Select::parse(" avx2 "), Some(Select::Avx2));
    assert_eq!(Select::parse("neon"), None);
    // End-to-end through the process environment. No other test in this
    // binary reads TEMPORA_ENGINE, so the temporary mutation is safe.
    std::env::set_var(engine::ENV_VAR, "portable");
    assert_eq!(Select::from_env(), Select::Portable);
    let g = g1(300, 1, 0.0);
    let c = Heat1dCoeffs::classic(0.25);
    let problem = Problem::Heat1d {
        n: g.n(),
        steps: 8,
        coeffs: c,
        boundary: g.boundary(),
    };
    let (_, e) = run1(
        &problem,
        PlanBuilder::new().stride(7).select(Select::from_env()),
        &g,
    );
    assert_eq!(e, Some(Engine::Portable));
    std::env::remove_var(engine::ENV_VAR);
    assert_eq!(Select::from_env(), Select::Auto);
}

#[test]
fn canaries_survive_every_engine() {
    // No engine may write into the alignment padding.
    let c = Heat2dCoeffs::classic(0.125);
    let g = g2(40, 37, 8, 0.0); // ny chosen so padding exists (37+2=39 -> pitch 40)
    let problem = Problem::Heat2d {
        nx: g.nx(),
        ny: g.ny(),
        steps: 8,
        coeffs: c,
        boundary: g.boundary(),
    };
    for sel in spatial_selects() {
        let (rm, _) = run2(&problem, multiload(sel), &g);
        rm.check_canaries().unwrap();
    }
    let (r, _) = run2(&problem, forced(Select::Portable, 2), &g);
    r.check_canaries().unwrap();
    let (rp, _) = run2(
        &problem,
        PlanBuilder::new()
            .stride(2)
            .tiling(Tiling::Ghost {
                block: 16,
                height: 8,
            })
            .threads(2),
        &g,
    );
    rp.check_canaries().unwrap();
}
