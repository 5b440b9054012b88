//! Contract tests for the unified `Problem → Plan → Report` solver API:
//!
//! * **Reuse**: running one compiled plan N times on fresh states is
//!   bitwise-identical to N one-shot runs with freshly compiled plans,
//!   across every method/tiling family.
//! * **Allocation-freedom**: after the first `run`, repeated `plan.run`
//!   calls perform zero aligned-buffer allocations (verified through the
//!   `tempora::grid::alloc_count` counter; the one-shot reorg/DLT
//!   baselines are the documented exceptions).
//! * **Validation**: every invalid configuration returns a descriptive
//!   [`PlanError`] — no panics — and the documented honest fallbacks
//!   (degenerate geometries, workloads without an AVX2 steady state)
//!   build fine and report the portable engine.

use proptest::prelude::*;
use tempora::grid::{
    fill_random_1d, fill_random_2d, fill_random_3d, fill_random_life, random_sequence,
    runs_allocation_free,
};
use tempora::prelude::*;

/// A catalogue of representative (problem, builder) configurations — one
/// per method/tiling family the plan API supports.
fn catalogue(seed: u64) -> Vec<(&'static str, Problem, PlanBuilder)> {
    let h1 = Problem::heat1d(300 + (seed % 64) as usize, 13, Heat1dCoeffs::classic(0.24));
    let g1 = Problem::gs1d(400, 11, Gs1dCoeffs::classic(0.22));
    let h2 = Problem::heat2d(48, 17, 9, Heat2dCoeffs::classic(0.11));
    let b2 = Problem::box2d(40, 15, 8, Box2dCoeffs::smooth(0.07));
    let g2 = Problem::gs2d(64, 13, 10, Gs2dCoeffs::classic(0.17));
    let life = Problem::life(40, 22, 17, LifeRule::b2s23());
    let h3 = Problem::heat3d(20, 7, 6, 9, Heat3dCoeffs::classic(0.09));
    let g3 = Problem::gs3d(24, 6, 5, 10, Gs3dCoeffs::classic(0.12));
    let lcs = Problem::lcs(90, 140);
    vec![
        ("heat1d/temporal", h1, PlanBuilder::new().stride(7)),
        (
            "heat1d/temporal/portable",
            h1,
            PlanBuilder::new().stride(7).select(Select::Portable),
        ),
        (
            "heat1d/multiload",
            h1,
            PlanBuilder::new().method(Method::Multiload),
        ),
        (
            "heat1d/scalar",
            h1,
            PlanBuilder::new().method(Method::Scalar),
        ),
        (
            "heat1d/ghost",
            h1,
            PlanBuilder::new()
                .stride(3)
                .tiling(Tiling::Ghost {
                    block: 48,
                    height: 4,
                })
                .threads(2),
        ),
        (
            "gs1d/skew",
            g1,
            PlanBuilder::new()
                .stride(2)
                .tiling(Tiling::Skew {
                    block: 64,
                    height: 4,
                })
                .threads(2),
        ),
        ("heat2d/temporal", h2, PlanBuilder::new().stride(2)),
        (
            "heat2d/ghost",
            h2,
            PlanBuilder::new()
                .stride(2)
                .tiling(Tiling::Ghost {
                    block: 12,
                    height: 4,
                })
                .threads(2),
        ),
        ("box2d/temporal", b2, PlanBuilder::new().stride(2)),
        ("gs2d/temporal", g2, PlanBuilder::new().stride(2)),
        (
            "gs2d/skew",
            g2,
            PlanBuilder::new()
                .stride(2)
                .tiling(Tiling::Skew {
                    block: 20,
                    height: 4,
                })
                .threads(2),
        ),
        ("life/temporal", life, PlanBuilder::new().stride(2)),
        (
            "life/ghost",
            life,
            PlanBuilder::new()
                .stride(2)
                .tiling(Tiling::Ghost {
                    block: 16,
                    height: 8,
                })
                .threads(2),
        ),
        ("heat3d/temporal", h3, PlanBuilder::new().stride(2)),
        (
            "heat3d/ghost",
            h3,
            PlanBuilder::new()
                .stride(2)
                .tiling(Tiling::Ghost {
                    block: 8,
                    height: 4,
                })
                .threads(2),
        ),
        ("gs3d/temporal", g3, PlanBuilder::new().stride(2)),
        (
            "gs3d/skew",
            g3,
            PlanBuilder::new()
                .stride(2)
                .tiling(Tiling::Skew {
                    block: 22,
                    height: 4,
                })
                .threads(2),
        ),
        ("lcs/temporal", lcs, PlanBuilder::new().stride(1)),
        (
            "lcs/rect",
            lcs,
            PlanBuilder::new()
                .stride(1)
                .tiling(Tiling::LcsRect {
                    xblock: 24,
                    yblock: 40,
                })
                .threads(2),
        ),
    ]
}

fn fresh_state(problem: &Problem, seed: u64) -> State {
    let mut state = problem.state();
    match &mut state {
        State::Grid1(g) => fill_random_1d(g, seed, -1.0, 1.0),
        State::Grid2(g) => fill_random_2d(g, seed, -1.0, 1.0),
        State::Grid2i(g) => fill_random_life(g, seed, 0.4),
        State::Grid3(g) => fill_random_3d(g, seed, -1.0, 1.0),
        State::Lcs(l) => {
            let (la, lb) = (l.a.len(), l.b.len());
            l.a = random_sequence(la, 4, seed);
            l.b = random_sequence(lb, 4, seed.wrapping_add(1));
        }
    }
    state
}

fn states_equal(a: &State, b: &State) -> bool {
    match (a, b) {
        (State::Grid1(x), State::Grid1(y)) => x.interior_eq(y),
        (State::Grid2(x), State::Grid2(y)) => x.interior_eq(y),
        (State::Grid2i(x), State::Grid2i(y)) => x.interior_eq(y),
        (State::Grid3(x), State::Grid3(y)) => x.interior_eq(y),
        (State::Lcs(x), State::Lcs(y)) => x.length == y.length,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reuse property: one plan run N times on fresh states ==
    /// N freshly compiled one-shot plans, bitwise, for every family.
    #[test]
    fn plan_reuse_is_bitwise_identical_to_one_shot_runs(
        seed in any::<u64>(),
        reps in 2usize..4,
    ) {
        for (name, problem, builder) in catalogue(seed) {
            let mut reused = builder.build(&problem).unwrap();
            for r in 0..reps {
                let state_seed = seed ^ (r as u64).wrapping_mul(0x9e37);
                let mut a = fresh_state(&problem, state_seed);
                let mut b = fresh_state(&problem, state_seed);
                reused.run(&mut a).unwrap();
                // One-shot: a fresh plan compiled for this run alone.
                builder.build(&problem).unwrap().run(&mut b).unwrap();
                prop_assert!(states_equal(&a, &b), "{name} rep={r}");
            }
        }
    }
}

/// Allocation regression: after the warm-up run, `plan.run` performs
/// **zero** aligned-buffer (grid/scratch) allocations — every arena was
/// allocated at build time or during the first run.
#[test]
fn second_run_is_allocation_free() {
    for (name, problem, builder) in catalogue(7) {
        let mut plan = builder.build(&problem).unwrap();
        let mut state = fresh_state(&problem, 42);
        plan.run(&mut state).unwrap(); // warm-up (first run)
        let mut state2 = fresh_state(&problem, 43);
        let clean = runs_allocation_free(|| {
            plan.run(&mut state2).unwrap();
        });
        assert!(
            clean,
            "{name}: repeated plan.run allocated aligned buffers in every observed window"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Integer-kernel plans (Life and LCS — the workloads whose AVX2
    /// steady states dispatch at `vl = 8`) stay allocation-free across
    /// reuse, whatever engine the geometry resolves: after the warm-up
    /// run, repeated `plan.run` calls perform zero aligned-buffer
    /// allocations under both forced-portable and Auto selection.
    #[test]
    fn integer_plan_reuse_is_allocation_free(
        seed in any::<u64>(),
        nx in 20usize..80,
        la in 30usize..120,
    ) {
        let life = Problem::life(nx, 24, 16, LifeRule::b2s23());
        let lcs = Problem::lcs(la, 2 * la);
        let configs: Vec<(Problem, PlanBuilder)> = vec![
            (life, PlanBuilder::new().stride(2)),
            (life, PlanBuilder::new().stride(2).select(Select::Portable)),
            (
                life,
                PlanBuilder::new()
                    .stride(2)
                    .tiling(Tiling::Ghost { block: 24, height: 8 })
                    .threads(2),
            ),
            (lcs, PlanBuilder::new().stride(1)),
            (lcs, PlanBuilder::new().stride(1).select(Select::Portable)),
            (
                lcs,
                PlanBuilder::new()
                    .stride(1)
                    .tiling(Tiling::LcsRect { xblock: 16, yblock: 32 })
                    .threads(2),
            ),
        ];
        for (i, (problem, builder)) in configs.into_iter().enumerate() {
            let mut plan = builder.build(&problem).unwrap();
            let mut state = fresh_state(&problem, seed);
            plan.run(&mut state).unwrap(); // warm-up (first run)
            let mut state2 = fresh_state(&problem, seed ^ 0x5bd1e995);
            let clean = runs_allocation_free(|| {
                plan.run(&mut state2).unwrap();
            });
            prop_assert!(
                clean,
                "config #{i} ({:?}): reused integer plan allocated in every observed window",
                plan.engine()
            );
        }
    }
}

/// Advance a copy of `init` by `problem`'s time extent with the scalar
/// oracle of its kind.
fn reference_state(problem: &Problem, init: &State) -> State {
    match (*problem, init) {
        (Problem::Heat1d { steps, coeffs, .. }, State::Grid1(g)) => {
            State::Grid1(reference::heat1d(g, coeffs, steps))
        }
        (Problem::Gs1d { steps, coeffs, .. }, State::Grid1(g)) => {
            State::Grid1(reference::gs1d(g, coeffs, steps))
        }
        (Problem::Heat2d { steps, coeffs, .. }, State::Grid2(g)) => {
            State::Grid2(reference::heat2d(g, coeffs, steps))
        }
        (Problem::Box2d { steps, coeffs, .. }, State::Grid2(g)) => {
            State::Grid2(reference::box2d(g, coeffs, steps))
        }
        (Problem::Gs2d { steps, coeffs, .. }, State::Grid2(g)) => {
            State::Grid2(reference::gs2d(g, coeffs, steps))
        }
        (Problem::Life { steps, rule, .. }, State::Grid2i(g)) => {
            State::Grid2i(reference::life(g, rule, steps))
        }
        (Problem::Heat3d { steps, coeffs, .. }, State::Grid3(g)) => {
            State::Grid3(reference::heat3d(g, coeffs, steps))
        }
        (Problem::Gs3d { steps, coeffs, .. }, State::Grid3(g)) => {
            State::Grid3(reference::gs3d(g, coeffs, steps))
        }
        (Problem::Lcs { .. }, State::Lcs(l)) => State::Lcs(LcsState {
            length: Some(reference::lcs_len(&l.a, &l.b)),
            ..l.clone()
        }),
        _ => unreachable!("state does not belong to the problem"),
    }
}

/// The whole dispatch matrix once: all 9 problem kinds × all 4 tilings ×
/// all 5 methods × threads {1, 2}, at miniature sizes whose outer extent
/// (150) is divisible by neither block and whose time extent (19) is not
/// a multiple of the band height. Every configuration `build` accepts
/// must agree bitwise with the scalar reference; every other one must be
/// rejected with a `PlanError` — a panic (an `unreachable!` reached in
/// the builder) fails the test. The accepted count is pinned so that a
/// legal configuration cannot start being rejected unnoticed.
#[test]
fn dispatch_matrix_agrees_with_the_reference_or_errors() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (n, steps) = (150, 19);
    let problems = [
        Problem::heat1d(n, steps, Heat1dCoeffs::classic(0.24)),
        Problem::gs1d(n, steps, Gs1dCoeffs::classic(0.22)),
        Problem::heat2d(n, 11, steps, Heat2dCoeffs::classic(0.11)),
        Problem::box2d(n, 11, steps, Box2dCoeffs::smooth(0.07)),
        Problem::gs2d(n, 11, steps, Gs2dCoeffs::classic(0.17)),
        Problem::life(n, 11, steps, LifeRule::b2s23()),
        Problem::heat3d(n, 5, 6, steps, Heat3dCoeffs::classic(0.09)),
        Problem::gs3d(n, 5, 6, steps, Gs3dCoeffs::classic(0.12)),
        Problem::lcs(n, 90),
    ];
    // Height 8 suits both lane counts (4 and 8); the skew block clears
    // the disjointness bound at the widest default stride (8 + 4·7 + 4).
    let tilings = [
        Tiling::None,
        Tiling::Ghost {
            block: 40,
            height: 8,
        },
        Tiling::Skew {
            block: 44,
            height: 8,
        },
        Tiling::LcsRect {
            xblock: 40,
            yblock: 32,
        },
    ];
    let methods = [
        Method::Temporal,
        Method::Multiload,
        Method::Reorg,
        Method::Dlt,
        Method::Scalar,
    ];
    let mut accepted = 0;
    for problem in &problems {
        let init = fresh_state(problem, 11);
        let gold = reference_state(problem, &init);
        for tiling in tilings {
            for method in methods {
                for threads in [1, 2] {
                    let name = format!("{} {tiling:?} {method:?} x{threads}", problem.kind_name());
                    let builder = PlanBuilder::new()
                        .method(method)
                        .tiling(tiling)
                        .threads(threads);
                    let built = catch_unwind(AssertUnwindSafe(|| builder.build(problem)))
                        .unwrap_or_else(|_| panic!("{name}: build panicked"));
                    let mut plan = match built {
                        Ok(plan) => plan,
                        // Rejected configurations carry a descriptive error.
                        Err(e) => {
                            assert!(!e.to_string().is_empty(), "{name}");
                            continue;
                        }
                    };
                    accepted += 1;
                    let mut state = init.clone();
                    plan.run(&mut state).unwrap();
                    assert!(states_equal(&state, &gold), "{name} {:?}", plan.engine());
                }
            }
        }
    }
    assert_eq!(accepted, 71, "the set of legal configurations changed");
}

/// The three plans of one table row: untiled, the explicit one-chunk
/// tiling (one thread) and a chunked tiling (two threads).
fn three_tilings(problem: &Problem, method: Method, s: usize) -> [(Tiling, usize); 3] {
    let [outer, inner, _] = problem.extents();
    if matches!(problem, Problem::Lcs { .. }) {
        let whole = Tiling::LcsRect {
            xblock: outer.max(1),
            yblock: inner.max(1),
        };
        let cut = Tiling::LcsRect {
            xblock: 24,
            yblock: 40,
        };
        return [(Tiling::None, 1), (whole, 1), (cut, 2)];
    }
    let height = 8;
    if problem.is_gauss_seidel() {
        // The narrowest block `Tiling::Skew` validates.
        let s_eff = if method == Method::Temporal { s } else { 0 };
        let min = height + 4 * s_eff + 4;
        let skew = |block| Tiling::Skew { block, height };
        [(Tiling::None, 1), (skew(outer.max(min)), 1), (skew(min), 2)]
    } else {
        let ghost = |block| Tiling::Ghost { block, height };
        [
            (Tiling::None, 1),
            (ghost(outer), 1),
            (ghost(outer.div_ceil(4)), 2),
        ]
    }
}

/// One executor per family: every kind × every method with a tiled form
/// × {`Tiling::None`, the explicit one-chunk tiling, a chunked tiling on
/// two threads} agrees bitwise with the scalar reference (the hazard
/// checker is armed in this build), resolves the same engine in all
/// three, reports tile geometry exactly when a tiling was asked for, and
/// allocates nothing on its second run. The rows cover healthy shapes,
/// `nx < VL·s`, `steps < VL`, `steps % VL ∈ {0, ≠ 0}` and the LCS edges
/// (`la = 0`, `lb = 0`, `la < VL`, `lb ≤ VL·s`).
#[test]
fn untiled_one_chunk_and_chunked_plans_agree_with_the_reference() {
    let (h1, g1) = (Heat1dCoeffs::classic(0.24), Gs1dCoeffs::classic(0.22));
    let (h2, b2) = (Heat2dCoeffs::classic(0.11), Box2dCoeffs::smooth(0.07));
    let (g2, rule) = (Gs2dCoeffs::classic(0.17), LifeRule::b2s23());
    let (h3, g3) = (Heat3dCoeffs::classic(0.09), Gs3dCoeffs::classic(0.12));
    let rows = [
        // Healthy shapes, `steps % VL != 0`.
        (Problem::heat1d(150, 19, h1), 3),
        (Problem::heat1d(150, 19, h1), 10),
        (Problem::gs1d(150, 19, g1), 3),
        (Problem::heat2d(60, 11, 13, h2), 2),
        (Problem::box2d(60, 11, 13, b2), 2),
        (Problem::gs2d(60, 11, 13, g2), 2),
        (Problem::life(70, 11, 19, rule), 2),
        (Problem::heat3d(40, 5, 6, 9, h3), 2),
        (Problem::gs3d(40, 5, 6, 9, g3), 2),
        // An outer extent below `VL·s`: scalar sweeps only.
        (Problem::heat1d(7, 9, h1), 2),
        (Problem::gs1d(27, 9, g1), 7),
        (Problem::box2d(7, 9, 9, b2), 2),
        (Problem::life(15, 9, 17, rule), 2),
        (Problem::gs3d(7, 4, 5, 9, g3), 2),
        // Fewer steps than lanes, and whole sweeps only.
        (Problem::heat1d(150, 3, h1), 3),
        (Problem::gs2d(60, 11, 3, g2), 2),
        (Problem::life(70, 11, 7, rule), 2),
        (Problem::heat3d(40, 5, 6, 8, h3), 2),
        (Problem::gs1d(150, 8, g1), 3),
        // LCS: a healthy table and its degenerate edges.
        (Problem::lcs(90, 140), 1),
        (Problem::lcs(0, 40), 1),
        (Problem::lcs(40, 0), 1),
        (Problem::lcs(5, 140), 1),
        (Problem::lcs(90, 8), 1),
        (Problem::lcs(90, 16), 2),
    ];
    for (problem, s) in rows {
        let init = fresh_state(&problem, 31);
        let gold = reference_state(&problem, &init);
        let jacobi_grid = !problem.is_gauss_seidel() && !matches!(problem, Problem::Lcs { .. });
        let multiload = jacobi_grid.then_some(Method::Multiload);
        for method in [Method::Temporal, Method::Scalar]
            .into_iter()
            .chain(multiload)
        {
            let mut engines = vec![];
            for (tiling, threads) in three_tilings(&problem, method, s) {
                let name = format!("{problem:?} s={s} {method:?} {tiling:?} x{threads}");
                let mut plan = PlanBuilder::new()
                    .method(method)
                    .stride(s)
                    .tiling(tiling)
                    .threads(threads)
                    .build(&problem)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let mut state = init.clone();
                let report = plan.run(&mut state).unwrap();
                assert!(states_equal(&state, &gold), "{name}");
                assert_eq!(report.tiles.is_none(), tiling == Tiling::None, "{name}");
                assert_eq!(
                    report.engine.is_some(),
                    method == Method::Temporal,
                    "{name}"
                );
                engines.push(report.engine);
                let clean = runs_allocation_free(|| {
                    plan.run(&mut state).unwrap();
                });
                assert!(clean, "{name}: the second run allocated");
            }
            assert!(
                engines.iter().all(|e| *e == engines[0]),
                "{problem:?} {engines:?}"
            );
        }
    }

    // The counted 1-D plans reach the instrumented sweep through the same
    // executor, on whichever engine they resolve: one rotate and one blend
    // per output vector.
    for problem in [Problem::heat1d(4096, 16, h1), Problem::gs1d(4096, 16, g1)] {
        for sel in [Select::Portable, Select::Auto] {
            let mut plan = PlanBuilder::new()
                .select(sel)
                .count_reorg(true)
                .build(&problem)
                .unwrap();
            let report = plan.run(&mut fresh_state(&problem, 6)).unwrap();
            let k = report.reorg.expect("count_reorg plans report counts");
            assert!(k.output_vectors > 0, "{problem:?} {sel:?}");
            assert_eq!(k.cross_lane, k.output_vectors, "{problem:?} {sel:?}");
            assert_eq!(k.in_lane, k.output_vectors, "{problem:?} {sel:?}");
        }
    }
}

/// Every stride the 1-D kinds accept runs on the engine the host's
/// capability resolves — the register-specialised strides and the rolled
/// ring alike, up to the ring's capacity (`s = 16` used to fall back to
/// the portable engine silently, at a sixteenth of the speed) — and is
/// bit-identical to the scalar reference. LCS, whose band sweep is the
/// same 1-D sweep, has no such cap: its bands run at `s = 17` and `33`
/// wherever a block column hosts them, two threads tiled.
#[test]
fn every_accepted_1d_stride_resolves_by_capability() {
    let kinds = [
        Problem::heat1d(700, 13, Heat1dCoeffs::new(0.3, 0.45, 0.25)),
        Problem::gs1d(700, 13, Gs1dCoeffs::new(0.37, 0.4, 0.23)),
    ];
    for problem in kinds {
        let init = fresh_state(&problem, 17);
        let gold = reference_state(&problem, &init);
        let mut accepted = vec![];
        for s in 0..=40 {
            let Ok(mut plan) = PlanBuilder::new().stride(s).build(&problem) else {
                continue;
            };
            accepted.push(s);
            let mut state = init.clone();
            let report = plan.run(&mut state).unwrap();
            assert_eq!(
                report.engine,
                Some(Select::Auto.resolve(true)),
                "{problem:?} s={s}"
            );
            assert!(states_equal(&state, &gold), "{problem:?} s={s}");
        }
        assert_eq!(accepted, Vec::from_iter(2..=16), "{problem:?}");
    }
    let problem = Problem::lcs(40, 1200);
    let init = fresh_state(&problem, 19);
    let gold = reference_state(&problem, &init);
    for s in [17, 33] {
        let rect = Tiling::LcsRect {
            xblock: 24,
            yblock: 600,
        };
        let mut plan = PlanBuilder::new()
            .stride(s)
            .tiling(rect)
            .threads(2)
            .build(&problem)
            .unwrap();
        let mut state = init.clone();
        let report = plan.run(&mut state).unwrap();
        assert!(states_equal(&state, &gold), "lcs s={s}");
        // Bands ran: the band engine, and tasks `vl` rows deep (the
        // scalar rows' rectangles would be `xblock = 24`).
        let engine = Select::Auto.resolve(true);
        assert_eq!(report.engine, Some(engine), "lcs s={s}");
        let tiles = report.tiles.expect("tiled plans report geometry");
        assert_eq!(tiles.block, tempora::core::lcs::vl(engine), "lcs s={s}");
    }
}

/// No stride makes `build` panic or abort: the strides whose `VL·s` no
/// grid or row segment reaches — `1 << 33` once asked the LCS workspace
/// for 256 GiB of scratch, and the `VL·s` of the other two wraps — build
/// and run the scalar schedule bitwise ≡ the reference (at 1, 2, 4 and 8
/// threads where the tiling allows them), or are rejected with the typed
/// error of the bound they exceed.
#[test]
fn huge_strides_run_the_scalar_schedule_or_a_typed_error() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let ghost = Tiling::Ghost {
        block: 16,
        height: 8,
    };
    let heat2d = Problem::heat2d(64, 64, 8, Heat2dCoeffs::classic(0.11));
    // (problem, tiling, the error expected, if any)
    let rows = [
        (Problem::lcs(1, 1), Tiling::None, None),
        (
            Problem::lcs(300, 500),
            Tiling::LcsRect {
                xblock: 64,
                yblock: 96,
            },
            None,
        ),
        (
            Problem::heat1d(200, 9, Heat1dCoeffs::classic(0.24)),
            Tiling::None,
            Some("StrideTooLarge"),
        ),
        (heat2d, Tiling::None, None),
        (heat2d, ghost, None),
        (
            Problem::heat3d(40, 6, 7, 9, Heat3dCoeffs::classic(0.09)),
            ghost,
            None,
        ),
        (
            Problem::gs2d(64, 13, 10, Gs2dCoeffs::classic(0.17)),
            Tiling::Skew {
                block: 64,
                height: 4,
            },
            Some("BlockTooNarrow"),
        ),
    ];
    for s in [1 << 33, usize::MAX / 4 + 2, usize::MAX] {
        for (problem, tiling, error) in rows {
            let init = fresh_state(&problem, 5);
            let gold = reference_state(&problem, &init);
            let threads: &[usize] = match tiling {
                Tiling::None => &[1],
                _ => &[1, 2, 4, 8],
            };
            for &t in threads {
                let name = format!("{} {tiling:?} s={s} x{t}", problem.kind_name());
                let builder = PlanBuilder::new().tiling(tiling).threads(t).stride(s);
                let built = catch_unwind(AssertUnwindSafe(|| builder.build(&problem)))
                    .unwrap_or_else(|_| panic!("{name}: build panicked"));
                match (built, error) {
                    (Ok(mut plan), None) => {
                        let mut state = init.clone();
                        plan.run(&mut state)
                            .unwrap_or_else(|e| panic!("{name}: {e}"));
                        assert!(states_equal(&state, &gold), "{name}");
                    }
                    (Err(e), Some(want)) => assert!(format!("{e:?}").starts_with(want), "{name}"),
                    (built, _) => panic!("{name}: want {error:?}, got {:?}", built.err()),
                }
            }
        }
    }
}

/// An LCS block extent beyond the table is clamped to the sequence
/// lengths at build: `xblock = 1 << 32` once asked for 16 GiB of column
/// buffers and aborted the process, and `xblock = usize::MAX` wrapped the
/// buffers to nothing and poisoned the plan on its first run. Both build,
/// and answer the reference at 1, 2 and 4 threads, scalar and temporal.
#[test]
fn oversized_lcs_blocks_build_and_answer() {
    let problem = Problem::lcs(100, 100);
    let init = fresh_state(&problem, 13);
    let gold = reference_state(&problem, &init);
    for (xblock, yblock) in [(1 << 32, 50), (usize::MAX, 50), (50, usize::MAX)] {
        for method in [Method::Temporal, Method::Scalar] {
            for threads in [1, 2, 4] {
                let name = format!("{xblock} x {yblock} {method:?} x{threads}");
                let mut plan = PlanBuilder::new()
                    .method(method)
                    .tiling(Tiling::LcsRect { xblock, yblock })
                    .threads(threads)
                    .build(&problem)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let mut state = init.clone();
                let report = plan
                    .run(&mut state)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(states_equal(&state, &gold), "{name}");
                let tiles = report.tiles.expect("tiled plans report geometry");
                assert!(
                    tiles.block <= 100 && tiles.height <= 100,
                    "{name} {tiles:?}"
                );
            }
        }
    }
}

/// `Select::Auto` widens to the eight-lane AVX-512 engine only for the
/// kinds with an eight-lane sweep (Heat-1D, GS-1D and the `f64` 2-D
/// kinds), only where the outer extent is at least the kind's measured
/// crossover, and only where the run has an eight-lane sweep that leaves
/// no more scalar levels than four lanes would: the `ledger` benchmark's
/// 1-D problems (and the served one) and its 2-D ones resolve `avx512`,
/// except Heat-2D at twelve steps (four scalar levels at eight lanes, none
/// at four); an outer extent one short of the crossover and `4s ≤ nx < 8s`
/// stay `avx2`; `Select::Avx2` is the four-lane engine and
/// `Select::Portable` the portable one whatever the shape; LCS widens to
/// sixteen `i32` lanes by the same rule on its rows, from 1024 columns;
/// Life and the 3-D kinds resolve `avx2`. Every row ≡ the scalar
/// reference. On a
/// host without AVX-512F every `auto` row is `avx2` (without AVX2:
/// portable).
#[test]
fn auto_widens_the_kinds_with_eight_lanes_where_they_pay() {
    let (h1, g1) = (Heat1dCoeffs::classic(0.25), Gs1dCoeffs::classic(0.25));
    let (h2, g2) = (Heat2dCoeffs::classic(0.125), Gs2dCoeffs::classic(0.2));
    let avx2 = tempora::simd::arch::avx2_available();
    let wide = if tempora::simd::arch::avx512_available() {
        Engine::Avx512
    } else if avx2 {
        Engine::Avx2
    } else {
        Engine::Portable
    };
    let narrow = if avx2 { Engine::Avx2 } else { Engine::Portable };
    let heat = |n, steps| Problem::heat1d(n, steps, h1);
    let auto = PlanBuilder::new();
    let mut rows = vec![
        // The ledger's 1-D problems (compute and served).
        (heat(1 << 16, 32), auto, wide),
        (Problem::gs1d(1 << 16, 32, g1), auto, wide),
        (heat(4096, 32), auto, wide),
        // Its 2-D problems: untiled (`jacobi-1t`, `gs-lcs-1t`) and tiled
        // (`tiled-2t`) — Heat-2D's twelve steps excepted.
        (Problem::heat2d(256, 256, 12, h2), auto, narrow),
        (
            Problem::box2d(256, 256, 8, Box2dCoeffs::smooth(0.1)),
            auto,
            wide,
        ),
        (Problem::gs2d(256, 256, 8, g2), auto, wide),
        (
            Problem::heat2d(1024, 1024, 24, h2),
            auto.tiling(Tiling::Ghost {
                block: 128,
                height: 8,
            })
            .threads(2),
            wide,
        ),
        (
            Problem::gs2d(768, 768, 16, g2),
            auto.tiling(Tiling::Skew {
                block: 192,
                height: 8,
            })
            .threads(2),
            wide,
        ),
        // Twelve steps: 12 % 8 = 4 scalar levels against 12 % 4 = 0.
        (heat(1 << 16, 12), auto, narrow),
        (Problem::gs1d(1 << 16, 12, g1), auto, narrow),
        // Each kind's measured crossover, met and missed by one outer
        // slab: below it the eight-lane sweep's scalar prologue and
        // epilogue outweigh its steady state (`repro ablate-vl` times both
        // sides).
        (heat(4095, 32), auto, narrow),
        (Problem::gs1d(1024, 32, g1), auto, wide),
        (Problem::gs1d(1023, 32, g1), auto, narrow),
        (Problem::heat2d(32, 20, 16, h2), auto, wide),
        (Problem::heat2d(31, 20, 16, h2), auto, narrow),
        (Problem::gs2d(128, 20, 16, g2), auto, wide),
        (Problem::gs2d(127, 20, 16, g2), auto, narrow),
        // 4s ≤ nx < 8s: four lanes run vector sweeps, eight could not.
        (heat(60, 32), auto, narrow),
        (Problem::gs1d(40, 32, g1), auto.stride(7), narrow),
        // Selections other than `auto` never widen.
        (
            heat(1 << 16, 32),
            auto.select(Select::Portable),
            Engine::Portable,
        ),
        (
            Problem::gs2d(768, 768, 16, g2),
            auto.select(Select::Portable),
            Engine::Portable,
        ),
    ];
    if avx2 {
        rows.push((heat(1 << 16, 32), auto.select(Select::Avx2), Engine::Avx2));
        rows.push((
            Problem::heat2d(256, 256, 16, h2),
            auto.select(Select::Avx2),
            Engine::Avx2,
        ));
    }
    // LCS widens to sixteen lanes by the same rows rule, from 1024
    // columns: the ledger's untiled 1024² and tiled 8192² / 1024², not
    // 512 columns, not `la % 16 > la % 8`, and `Select::Avx2` never.
    let rect = |xblock, yblock| auto.tiling(Tiling::LcsRect { xblock, yblock }).threads(2);
    rows.extend([
        (Problem::lcs(1024, 1024), auto, wide),
        (Problem::lcs(8192, 8192), rect(1024, 1024), wide),
        (Problem::lcs(1024, 512), auto, narrow),
        (Problem::lcs(1032, 1024), auto, narrow),
        (
            Problem::lcs(1024, 1024),
            auto.select(Select::Portable),
            Engine::Portable,
        ),
    ]);
    if avx2 {
        rows.push((
            Problem::lcs(1024, 1024),
            auto.select(Select::Avx2),
            Engine::Avx2,
        ));
    }
    // The kinds without an eight-lane sweep, at their ledger shapes.
    for problem in [
        Problem::heat3d(40, 40, 40, 4, Heat3dCoeffs::classic(0.1)),
        Problem::heat3d(80, 80, 80, 8, Heat3dCoeffs::classic(0.1)),
        Problem::life(256, 256, 16, LifeRule::b2s23()),
        Problem::gs3d(40, 40, 40, 4, Gs3dCoeffs::classic(0.1)),
    ] {
        rows.push((problem, auto, narrow));
    }
    for (problem, builder, engine) in rows {
        let mut plan = builder.build(&problem).unwrap();
        assert_eq!(plan.engine(), Some(engine), "{problem:?} {builder:?}");
        let init = fresh_state(&problem, 5);
        let mut state = init.clone();
        let report = plan.run(&mut state).unwrap();
        assert_eq!(report.engine, Some(engine), "{problem:?} {builder:?}");
        assert!(
            states_equal(&state, &reference_state(&problem, &init)),
            "{problem:?} {builder:?}"
        );
    }
}

/// A state carrying another boundary than the plan's problem is a typed
/// error — not a panic inside the run that poisons the plan — and a NaN
/// boundary, which `==` tells apart from itself, runs: multi-load (whose
/// twin holds the problem's boundary) and temporal, untiled and tiled.
#[test]
fn boundary_is_compared_by_bit_pattern() {
    let ghost = Tiling::Ghost {
        block: 16,
        height: 4,
    };
    let coeffs = Heat1dCoeffs::classic(0.24);
    let with = |b: f64| Problem::Heat1d {
        n: 64,
        steps: 5,
        coeffs,
        boundary: Boundary::Dirichlet(b),
    };
    for method in [Method::Multiload, Method::Temporal] {
        for (tiling, threads) in [(Tiling::None, 1), (ghost, 2)] {
            let name = format!("{method:?} {tiling:?}");
            let builder = PlanBuilder::new()
                .method(method)
                .stride(2)
                .tiling(tiling)
                .threads(threads);
            let mut plan = builder.build(&with(0.5)).unwrap();
            for other in [0.25, -0.5, f64::NAN] {
                let err = plan.run(&mut fresh_state(&with(other), 3)).unwrap_err();
                assert!(
                    matches!(err, PlanError::StateBoundaryMismatch { .. }),
                    "{name}: {err}"
                );
                assert!(!plan.is_poisoned(), "{name}");
            }
            // -0.0 == 0.0, but the ghost cells would hold other bits.
            let mut zero = builder.build(&with(0.0)).unwrap();
            assert!(
                zero.run(&mut fresh_state(&with(-0.0), 3)).is_err(),
                "{name}"
            );
            assert!(zero.run(&mut fresh_state(&with(0.0), 3)).is_ok(), "{name}");

            let nan = with(f64::NAN);
            let mut plan = builder.build(&nan).unwrap();
            let mut state = fresh_state(&nan, 3);
            let gold = reference_state(&nan, &state);
            plan.run(&mut state)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!plan.is_poisoned(), "{name}");
            let bits = |s: &State| -> Vec<u64> {
                let cells = s.grid1().unwrap().interior().iter();
                cells.map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&state), bits(&gold), "{name}");
            assert!(state.grid1().unwrap().interior()[0].is_nan(), "{name}");
        }
    }
}

/// The documented one-shot exceptions: reorg/DLT rebuild their transposed
/// layouts per run (and say so in their docs) — but they still run
/// correctly and repeatedly through the same plan.
#[test]
fn reorg_and_dlt_baselines_run_repeatedly() {
    let c = Heat1dCoeffs::classic(0.25);
    let problem = Problem::heat1d(256, 12, c);
    for method in [Method::Reorg, Method::Dlt] {
        let mut plan = PlanBuilder::new().method(method).build(&problem).unwrap();
        for seed in [1u64, 2] {
            let mut state = fresh_state(&problem, seed);
            let init = state.grid1().unwrap().clone();
            plan.run(&mut state).unwrap();
            let gold = reference::heat1d(&init, c, 12);
            assert!(state.grid1().unwrap().interior_eq(&gold), "{method:?}");
        }
    }
}

/// Every invalid configuration is a descriptive `PlanError`, never a
/// panic; the documented honest fallbacks build and report portable.
#[test]
fn invalid_configurations_error_and_fallbacks_are_honest() {
    let heat1 = Problem::heat1d(200, 8, Heat1dCoeffs::classic(0.25));
    let gs1 = Problem::gs1d(200, 8, Gs1dCoeffs::classic(0.25));
    let gs2 = Problem::gs2d(64, 64, 8, Gs2dCoeffs::classic(0.2));
    let life = Problem::life(64, 64, 8, LifeRule::b2s23());
    let lcs = Problem::lcs(64, 64);

    // Stride 0 / below the dependence bound / beyond the ring capacity.
    assert_eq!(
        PlanBuilder::new().stride(0).build(&heat1).unwrap_err(),
        PlanError::ZeroStride
    );
    assert_eq!(
        PlanBuilder::new().stride(1).build(&heat1).unwrap_err(),
        PlanError::StrideTooSmall { stride: 1, min: 2 }
    );
    assert!(matches!(
        PlanBuilder::new().stride(40).build(&heat1).unwrap_err(),
        PlanError::StrideTooLarge { .. }
    ));

    // Threads 0, and threads without tiling.
    assert_eq!(
        PlanBuilder::new().threads(0).build(&heat1).unwrap_err(),
        PlanError::ZeroThreads
    );
    assert_eq!(
        PlanBuilder::new().threads(4).build(&heat1).unwrap_err(),
        PlanError::ThreadsRequireTiling { threads: 4 }
    );

    // Empty domain.
    assert_eq!(
        PlanBuilder::new()
            .build(&Problem::heat1d(0, 8, Heat1dCoeffs::classic(0.25)))
            .unwrap_err(),
        PlanError::EmptyDomain
    );

    // Illegal method × stencil combinations.
    for p in [&gs1, &gs2, &lcs] {
        assert!(matches!(
            PlanBuilder::new()
                .method(Method::Multiload)
                .build(p)
                .unwrap_err(),
            PlanError::MethodUnsupported { .. }
        ));
    }
    for p in [&gs1, &life, &lcs] {
        for method in [Method::Reorg, Method::Dlt] {
            assert!(matches!(
                PlanBuilder::new().method(method).build(p).unwrap_err(),
                PlanError::MethodUnsupported { .. }
            ));
        }
    }

    // Tiling × stencil mismatches.
    let ghost = Tiling::Ghost {
        block: 32,
        height: 4,
    };
    let skew = Tiling::Skew {
        block: 64,
        height: 4,
    };
    let rect = Tiling::LcsRect {
        xblock: 8,
        yblock: 8,
    };
    assert!(matches!(
        PlanBuilder::new().tiling(ghost).build(&gs1).unwrap_err(),
        PlanError::TilingUnsupported { .. }
    ));
    assert!(matches!(
        PlanBuilder::new().tiling(skew).build(&heat1).unwrap_err(),
        PlanError::TilingUnsupported { .. }
    ));
    assert!(matches!(
        PlanBuilder::new().tiling(rect).build(&heat1).unwrap_err(),
        PlanError::TilingUnsupported { .. }
    ));
    assert!(matches!(
        PlanBuilder::new().tiling(ghost).build(&lcs).unwrap_err(),
        PlanError::TilingUnsupported { .. }
    ));

    // Bad tile geometry: zero extents, misaligned heights, skewed blocks
    // below the wave-disjointness bound. Life's vector length is 8, so a
    // height of 4 is rejected for it specifically.
    assert_eq!(
        PlanBuilder::new()
            .tiling(Tiling::Ghost {
                block: 0,
                height: 4
            })
            .build(&heat1)
            .unwrap_err(),
        PlanError::ZeroTileExtent
    );
    assert_eq!(
        PlanBuilder::new()
            .tiling(Tiling::Ghost {
                block: 32,
                height: 6
            })
            .build(&heat1)
            .unwrap_err(),
        PlanError::BadTileHeight { height: 6, vl: 4 }
    );
    assert_eq!(
        PlanBuilder::new()
            .tiling(Tiling::Ghost {
                block: 32,
                height: 4
            })
            .build(&life)
            .unwrap_err(),
        PlanError::BadTileHeight { height: 4, vl: 8 }
    );
    assert_eq!(
        PlanBuilder::new()
            .stride(7)
            .tiling(Tiling::Skew {
                block: 16,
                height: 4
            })
            .build(&gs1)
            .unwrap_err(),
        PlanError::BlockTooNarrow {
            block: 16,
            min: 4 + 4 * 7 + 4
        }
    );
    assert_eq!(
        PlanBuilder::new()
            .tiling(Tiling::LcsRect {
                xblock: 0,
                yblock: 8
            })
            .build(&lcs)
            .unwrap_err(),
        PlanError::ZeroTileExtent
    );

    // Reorg-op counting is only available on instrumented paths.
    assert!(matches!(
        PlanBuilder::new()
            .count_reorg(true)
            .build(&gs2)
            .unwrap_err(),
        PlanError::CountUnsupported { .. }
    ));
    assert!(matches!(
        PlanBuilder::new()
            .count_reorg(true)
            .tiling(Tiling::Ghost {
                block: 64,
                height: 8
            })
            .build(&heat1)
            .unwrap_err(),
        PlanError::CountUnsupported { .. }
    ));

    // Select::Avx2 on a non-AVX2 host is an error, not a panic; on an
    // AVX2 host, degenerate geometries below the engine's `VL·s` bound
    // build fine, run scalar steps in the AVX2 codegen context and
    // report it — the integer workloads too (checked at `vl = 8`: a
    // 12-wide Life outer extent cannot host an 8-lane tile at stride 2).
    if tempora::simd::arch::avx2_available() {
        let plan = PlanBuilder::new()
            .select(Select::Avx2)
            .stride(2)
            .build(&life)
            .unwrap();
        assert_eq!(plan.engine(), Some(Engine::Avx2));
        let tiny_life = Problem::life(12, 64, 8, LifeRule::b2s23());
        let plan = PlanBuilder::new()
            .select(Select::Avx2)
            .stride(2)
            .build(&tiny_life)
            .unwrap();
        assert_eq!(plan.engine(), Some(Engine::Avx2));
        // Degenerate geometry below VL·s: documented scalar fallback,
        // compiled for and reported as the engine that was requested.
        let tiny = Problem::heat1d(8, 8, Heat1dCoeffs::classic(0.25));
        let plan = PlanBuilder::new()
            .select(Select::Avx2)
            .stride(7)
            .build(&tiny)
            .unwrap();
        assert_eq!(plan.engine(), Some(Engine::Avx2));
    } else {
        assert_eq!(
            PlanBuilder::new()
                .select(Select::Avx2)
                .build(&heat1)
                .unwrap_err(),
            PlanError::Avx2Unavailable
        );
    }

    // State mismatches are errors, not panics or silent corruption.
    let mut plan = PlanBuilder::new().stride(7).build(&heat1).unwrap();
    let mut wrong_kind = gs2.state();
    assert!(matches!(
        plan.run(&mut wrong_kind).unwrap_err(),
        PlanError::StateMismatch { .. }
    ));
    let mut wrong_shape = State::Grid1(Grid1::new(77, 1, Boundary::Dirichlet(0.0)));
    assert!(matches!(
        plan.run(&mut wrong_shape).unwrap_err(),
        PlanError::StateShapeMismatch { .. }
    ));
    // Wide-halo grids use a different memory layout than the engines
    // assume; rejected, not silently misread.
    let mut wide_halo = State::Grid1(Grid1::new(200, 2, Boundary::Dirichlet(0.0)));
    assert_eq!(
        plan.run(&mut wide_halo).unwrap_err(),
        PlanError::UnsupportedHalo { halo: 2 }
    );
}

/// A plan can be moved to another thread and run there — the serving
/// pattern (cache plans, dispatch per request) depends on `Plan: Send`.
#[test]
fn plan_is_send_and_runs_on_another_thread() {
    let problem = Problem::heat1d(300, 8, Heat1dCoeffs::classic(0.25));
    let mut plan = PlanBuilder::new().stride(7).build(&problem).unwrap();
    let mut state = fresh_state(&problem, 3);
    let init = state.grid1().unwrap().clone();
    let state = std::thread::spawn(move || {
        plan.run(&mut state).unwrap();
        state
    })
    .join()
    .unwrap();
    let gold = reference::heat1d(&init, Heat1dCoeffs::classic(0.25), 8);
    assert!(state.grid1().unwrap().interior_eq(&gold));
}

/// The `Report` carries the plan's resolved facts: engine, steps, tile
/// geometry, reorg-op counts, LCS length.
#[test]
fn report_carries_geometry_and_counts() {
    let problem = Problem::heat1d(4096, 16, Heat1dCoeffs::classic(0.25));
    let mut plan = PlanBuilder::new()
        .stride(7)
        .tiling(Tiling::Ghost {
            block: 512,
            height: 8,
        })
        .threads(2)
        .build(&problem)
        .unwrap();
    let mut state = fresh_state(&problem, 5);
    let report = plan.run(&mut state).unwrap();
    assert_eq!(report.steps, 16);
    assert_eq!(report.threads, 2);
    let tiles = report.tiles.expect("tiled plans report geometry");
    assert_eq!(tiles.tiles, 8);
    assert_eq!((tiles.block, tiles.height), (512, 8));
    assert!(report.engine.is_some());

    // Counted portable temporal run: the paper's 1 rotate + 1 blend per
    // output vector shows up in the report.
    let mut counted = PlanBuilder::new()
        .stride(7)
        .select(Select::Portable)
        .count_reorg(true)
        .build(&problem)
        .unwrap();
    let mut state = fresh_state(&problem, 6);
    let report = counted.run(&mut state).unwrap();
    let k = report.reorg.expect("count_reorg plans report counts");
    assert!(k.output_vectors > 0);
    assert_eq!(k.cross_lane, k.output_vectors);
    assert_eq!(k.in_lane, k.output_vectors);

    // LCS length lands in the report (and the state).
    let lcs = Problem::lcs(120, 200);
    let mut plan = PlanBuilder::new().stride(1).build(&lcs).unwrap();
    let mut state = fresh_state(&lcs, 9);
    let report = plan.run(&mut state).unwrap();
    let a = state.lcs().unwrap();
    assert_eq!(report.lcs_length, a.length);
    assert_eq!(report.lcs_length.unwrap(), reference::lcs_len(&a.a, &a.b));
}
