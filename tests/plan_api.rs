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

mod common;

use common::{reference_state, states_equal, Case};
use proptest::prelude::*;
use tempora::grid::runs_allocation_free;
use tempora::prelude::*;
use tempora::proto::SolveConfig;
use tempora::server::fresh_state;

/// Accepted generated configurations of every kind — temporal, scalar
/// and multi-load, untiled and on the kind's own tiling — drawn from
/// `seed`.
fn catalogue(seed: u64) -> Vec<(String, Problem, PlanBuilder)> {
    let space = common::Space {
        methods: &[Method::Temporal, Method::Scalar, Method::Multiload],
        threads: (1, 2),
        ..common::Space::LEGAL
    };
    let cases = common::accepted_draws(&format!("catalogue {seed}"), 24, &space);
    let row = |c: common::Case| (format!("{c:?}"), c.problem, c.config.plan_builder());
    cases.into_iter().map(row).collect()
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

/// True when `builder`'s plan of `problem`, after a warm-up run, runs a
/// second fresh state without an aligned-buffer (grid/scratch) allocation.
fn reuse_is_allocation_free(problem: &Problem, builder: PlanBuilder, seed: u64) -> bool {
    let mut plan = builder.build(problem).unwrap();
    plan.run(&mut fresh_state(problem, seed)).unwrap(); // warm-up (first run)
    let mut state = fresh_state(problem, seed ^ 0x5bd1e995);
    runs_allocation_free(|| {
        plan.run(&mut state).unwrap();
    })
}

/// Allocation regression: after the warm-up run, `plan.run` performs
/// **zero** aligned-buffer (grid/scratch) allocations — every arena was
/// allocated at build time or during the first run.
#[test]
fn second_run_is_allocation_free() {
    for (name, problem, builder) in catalogue(7) {
        let clean = reuse_is_allocation_free(&problem, builder, 42);
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
            (life, PlanBuilder::new().stride(2).tiling(ghost(24, 8)).threads(2)),
            (lcs, PlanBuilder::new().stride(1)),
            (lcs, PlanBuilder::new().stride(1).select(Select::Portable)),
            (lcs, PlanBuilder::new().stride(1).tiling(rect(16, 32)).threads(2)),
        ];
        for (i, (problem, builder)) in configs.into_iter().enumerate() {
            prop_assert!(
                reuse_is_allocation_free(&problem, builder, seed),
                "config #{i} ({problem:?}): reused integer plan allocated in every observed window"
            );
        }
    }
}

/// The exhaustive categorical stratum of the oracle: all 9 problem kinds ×
/// all 4 tilings × all 5 methods × threads {1, 2} at one miniature shape.
/// Every configuration `build` accepts agrees bitwise with the scalar
/// reference, every other is the `PlanError` the validation model names,
/// never a panic; the accepted count is pinned so that a legal
/// configuration cannot start being rejected unnoticed.
#[test]
fn dispatch_matrix_agrees_with_the_reference_or_errors() {
    assert_eq!(
        common::check_all(&common::categorical()),
        71,
        "the legal configurations changed"
    );
}

/// Every kind × the temporal, scalar and multi-load methods, untiled, on
/// the one-chunk tiling and on chunked tilings at one and two threads:
/// bitwise ≡ the reference, the model's engine, tile geometry exactly
/// when tiled.
#[test]
fn untiled_one_chunk_and_chunked_plans_agree_with_the_reference() {
    common::check_slice("untiled_one_chunk_and_chunked_plans_agree_with_the_reference");
}

/// A temporal configuration at `select`; a tiled one on two threads.
fn temporal(select: Select, tiling: Tiling, stride: Option<usize>) -> SolveConfig {
    SolveConfig {
        select,
        tiling,
        threads: 1 + (tiling != Tiling::None) as usize,
        stride,
        ..SolveConfig::default()
    }
}

fn ghost(block: usize, height: usize) -> Tiling {
    Tiling::Ghost { block, height }
}

fn skew(block: usize, height: usize) -> Tiling {
    Tiling::Skew { block, height }
}

fn rect(xblock: usize, yblock: usize) -> Tiling {
    Tiling::LcsRect { xblock, yblock }
}

/// Every stride of the 1-D kinds and LCS, untiled and tiled: the accepted
/// ones run on the engine the host's capability resolves, the others are
/// the typed error. The 1-D kinds accept exactly `2..=16` (the ring's
/// capacity); LCS has no cap: its bands run at `s = 17` and `33` wherever
/// a block column hosts them, two threads tiled.
#[test]
fn every_accepted_1d_stride_resolves_by_capability() {
    common::check_slice("every_accepted_1d_stride_resolves_by_capability");
    let (h1, g1) = (Heat1dCoeffs::classic(0.25), Gs1dCoeffs::classic(0.25));
    for problem in [Problem::heat1d(700, 13, h1), Problem::gs1d(700, 13, g1)] {
        let at = |s| Case::fixed(problem, temporal(Select::Auto, Tiling::None, Some(s)));
        let accepted: Vec<_> = (0..=40).filter(|&s| common::check(&at(s))).collect();
        assert_eq!(accepted, Vec::from_iter(2..=16), "{problem:?}");
    }
    for s in [17, 33] {
        let config = temporal(Select::Auto, rect(24, 600), Some(s));
        assert!(common::check(&Case::fixed(Problem::lcs(40, 1200), config)));
    }
}

/// No stride makes `build` panic or abort: the strides whose `VL·s` no
/// grid or row segment reaches (`1 << 33`, and those whose `VL·s` wraps)
/// build and run the scalar schedule bitwise ≡ the reference at every
/// kind, tiling and thread count, or are rejected with the typed error of
/// the bound they exceed (the 1-D ring's `StrideTooLarge`, the skewed
/// tiles' `BlockTooNarrow`).
#[test]
fn huge_strides_run_the_scalar_schedule_or_a_typed_error() {
    common::check_slice("huge_strides_run_the_scalar_schedule_or_a_typed_error");
}

/// An LCS block extent beyond the table is clamped to the sequence
/// lengths at build: `xblock = 1 << 32` once asked for 16 GiB of column
/// buffers and aborted the process, and `xblock = usize::MAX` wrapped the
/// buffers to nothing and poisoned the plan on its first run. Both build,
/// answer the reference and report the clamped geometry at every thread
/// count, scalar and temporal; a zero extent is the typed error.
#[test]
fn oversized_lcs_blocks_build_and_answer() {
    common::check_slice("oversized_lcs_blocks_build_and_answer");
}

/// `Select::Auto` widens to eight lanes (LCS: sixteen) only for the kinds
/// with a wider sweep, only where the width formula prices the run lower
/// there. The draws put the outer extent on the formula's crossover `± 1`
/// for the drawn steps and stride; the fixed rows pin the engines of the
/// `ledger` benchmark's shapes and of each crossover met and missed by one
/// slab (on a host without AVX-512F every wide row is `avx2`; without
/// AVX2, portable).
#[test]
fn auto_widens_the_kinds_with_eight_lanes_where_they_pay() {
    use tempora::simd::arch::{avx2_available, avx512_available};
    common::check_slice("auto_widens_the_kinds_with_eight_lanes_where_they_pay");
    let n = Select::Auto.resolve(avx2_available());
    let w = if n == Engine::Avx2 && avx512_available() {
        Engine::Avx512
    } else {
        n
    };
    let (h1, g1) = (Heat1dCoeffs::classic(0.25), Gs1dCoeffs::classic(0.25));
    let (h2, g2) = (Heat2dCoeffs::classic(0.125), Gs2dCoeffs::classic(0.2));
    let (b2, h3) = (Box2dCoeffs::smooth(0.1), Heat3dCoeffs::classic(0.1));
    let g3 = Gs3dCoeffs::classic(0.1);
    let (heat, gs) = (
        |nx, t| Problem::heat1d(nx, t, h1),
        |nx, t| Problem::gs1d(nx, t, g1),
    );
    let [auto, portable, avx2] =
        [Select::Auto, Select::Portable, Select::Avx2].map(|sel| temporal(sel, Tiling::None, None));
    let tiled = |tiling| temporal(Select::Auto, tiling, None);
    let strided = |s| temporal(Select::Auto, Tiling::None, Some(s));
    let rows = [
        // The ledger's problems; at twelve steps eight lanes leave four
        // scalar levels, which only Heat-2D's spatial vectors make cheap.
        (heat(1 << 16, 32), auto, w),
        (gs(1 << 16, 32), auto, w),
        (heat(1 << 16, 12), auto, n),
        (gs(1 << 16, 12), auto, n),
        (Problem::heat2d(256, 256, 12, h2), auto, w),
        (Problem::box2d(256, 256, 8, b2), auto, w),
        (Problem::gs2d(256, 256, 8, g2), auto, w),
        (Problem::heat2d(1024, 1024, 24, h2), tiled(ghost(128, 8)), w),
        (Problem::gs2d(768, 768, 16, g2), tiled(skew(192, 8)), w),
        (Problem::lcs(1024, 1024), auto, w),
        (Problem::lcs(8192, 8192), tiled(rect(1024, 1024)), w),
        (Problem::heat3d(40, 40, 40, 4, h3), auto, n),
        (Problem::heat3d(80, 80, 80, 8, h3), auto, n),
        (Problem::gs3d(40, 40, 40, 4, g3), auto, n),
        (Problem::life(256, 256, 16, LifeRule::b2s23()), auto, n),
        // Each kind's crossover under the width formula met and missed by
        // one slab (LCS: where sixteen-lane bands fit; 40 rows stay narrow).
        // Below 16 rows eight lanes have no steady anchor at s = 2: on 12²
        // four-lane sweeps read 1.1-1.9x the scalar steps (`ablate-vl`).
        (heat(80, 32), auto, w),
        (heat(79, 32), auto, n),
        (gs(56, 32), auto, w),
        (gs(55, 32), auto, n),
        (Problem::heat2d(16, 20, 16, h2), auto, w),
        (Problem::heat2d(15, 20, 16, h2), auto, n),
        (Problem::box2d(16, 20, 16, b2), auto, w),
        (Problem::box2d(15, 20, 16, b2), auto, n),
        (Problem::gs2d(16, 20, 16, g2), auto, w),
        (Problem::gs2d(15, 20, 16, g2), auto, n),
        (Problem::lcs(1024, 33), auto, w),
        (Problem::lcs(1024, 32), auto, n),
        (Problem::lcs(1032, 1024), auto, w),
        (Problem::lcs(40, 1024), auto, n),
        (heat(60, 32), auto, n),
        (gs(40, 32), temporal(Select::Auto, Tiling::None, Some(7)), n),
        // A given stride enters the formula at both widths: eight lanes
        // from the narrowest grid they host, 40 rows for GS-2D at s = 5 and
        // 24 for Heat-2D at s = 3 (four lanes read 1.2-1.3x faster at 12
        // and 16 rows, 0.81x at 24; medians of 40 `ablate-vl` runs).
        (gs(64, 32), strided(16), n),
        (Problem::heat2d(23, 20, 16, h2), strided(3), n),
        (Problem::heat2d(24, 20, 16, h2), strided(3), w),
        (Problem::gs2d(39, 20, 16, g2), strided(5), n),
        (Problem::gs2d(40, 20, 16, g2), strided(5), w),
        // Selections other than `auto` never widen.
        (heat(1 << 16, 32), portable, Engine::Portable),
        (Problem::gs2d(768, 768, 16, g2), portable, Engine::Portable),
        (Problem::lcs(1024, 1024), portable, Engine::Portable),
        (heat(1 << 16, 32), avx2, n),
        (Problem::heat2d(256, 256, 16, h2), avx2, n),
        (Problem::lcs(1024, 1024), avx2, n),
    ];
    for (problem, config, engine) in rows {
        if config.select == Select::Avx2 && n != Engine::Avx2 {
            continue;
        }
        let model = common::engine_of(&problem, &config);
        assert_eq!(model, Some(engine), "{problem:?} {config:?}");
        assert!(common::check(&Case::fixed(problem, config)));
    }
}

/// A state carrying another boundary than the plan's problem is a typed
/// error — not a panic inside the run that poisons the plan — and a NaN
/// boundary, which `==` tells apart from itself, runs: multi-load (whose
/// twin holds the problem's boundary) and temporal, untiled and tiled.
#[test]
fn boundary_is_compared_by_bit_pattern() {
    let coeffs = Heat1dCoeffs::classic(0.24);
    let with = |b: f64| Problem::Heat1d {
        n: 64,
        steps: 5,
        coeffs,
        boundary: Boundary::Dirichlet(b),
    };
    for method in [Method::Multiload, Method::Temporal] {
        for (tiling, threads) in [(Tiling::None, 1), (ghost(16, 4), 2)] {
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
    let empty = Problem::heat1d(0, 8, Heat1dCoeffs::classic(0.25));
    let b = PlanBuilder::new;
    let (multiload, reorg, dlt) = (Method::Multiload, Method::Reorg, Method::Dlt);
    // (builder, problem, the error's `Debug`: in full, or its variant)
    let rejected = [
        // Stride 0 / below the dependence bound / beyond the ring capacity.
        (b().stride(0), &heat1, "ZeroStride"),
        (
            b().stride(1),
            &heat1,
            "StrideTooSmall { stride: 1, min: 2 }",
        ),
        (
            b().stride(40),
            &heat1,
            "StrideTooLarge { stride: 40, max: 16 }",
        ),
        // Threads 0, above the bound (257: untiled, so no thread could
        // start even without the bound), threads without tiling, an empty
        // domain.
        (b().threads(0), &heat1, "ZeroThreads"),
        (
            b().threads(tempora::plan::MAX_THREADS + 1),
            &heat1,
            "TooManyThreads { threads: 257, max: 256 }",
        ),
        (
            b().threads(4),
            &heat1,
            "ThreadsRequireTiling { threads: 4 }",
        ),
        (b(), &empty, "EmptyDomain"),
        // Illegal method × stencil combinations.
        (b().method(multiload), &gs1, "MethodUnsupported"),
        (b().method(multiload), &gs2, "MethodUnsupported"),
        (b().method(multiload), &lcs, "MethodUnsupported"),
        (b().method(reorg), &gs1, "MethodUnsupported"),
        (b().method(reorg), &life, "MethodUnsupported"),
        (b().method(reorg), &lcs, "MethodUnsupported"),
        (b().method(dlt), &gs1, "MethodUnsupported"),
        (b().method(dlt), &life, "MethodUnsupported"),
        (b().method(dlt), &lcs, "MethodUnsupported"),
        // Tiling × stencil mismatches.
        (b().tiling(ghost(32, 4)), &gs1, "TilingUnsupported"),
        (b().tiling(skew(64, 4)), &heat1, "TilingUnsupported"),
        (b().tiling(rect(8, 8)), &heat1, "TilingUnsupported"),
        (b().tiling(ghost(32, 4)), &lcs, "TilingUnsupported"),
        // Bad tile geometry: zero extents, misaligned heights, skewed
        // blocks below the wave-disjointness bound (`4 + 4·7 + 4`). Life's
        // vector length is 8, so a height of 4 is rejected for it.
        (b().tiling(ghost(0, 4)), &heat1, "ZeroTileExtent"),
        (
            b().tiling(ghost(32, 6)),
            &heat1,
            "BadTileHeight { height: 6, vl: 4 }",
        ),
        (
            b().tiling(ghost(32, 4)),
            &life,
            "BadTileHeight { height: 4, vl: 8 }",
        ),
        (
            b().stride(7).tiling(skew(16, 4)),
            &gs1,
            "BlockTooNarrow { block: 16, min: 36 }",
        ),
        (b().tiling(rect(0, 8)), &lcs, "ZeroTileExtent"),
        // Reorg-op counting is only available on instrumented paths.
        (b().count_reorg(true), &lcs, "CountUnsupported"),
        (
            b().count_reorg(true).tiling(ghost(64, 8)),
            &heat1,
            "CountUnsupported",
        ),
    ];
    for (builder, problem, want) in rejected {
        let e = format!("{:?}", builder.build(problem).unwrap_err());
        let variant = e.starts_with(&format!("{want} {{"));
        assert!(e == want || variant, "{builder:?}: {e}, want {want}");
    }

    // Select::Avx2 on a non-AVX2 host is an error, not a panic; on an
    // AVX2 host, degenerate geometries below the engine's `VL·s` bound (a
    // 12-wide Life outer extent at `vl = 8`, stride 2; eight Heat-1D points
    // at stride 7) build, run scalar steps in the AVX2 codegen context and
    // report it.
    let avx2 = b().select(Select::Avx2);
    if tempora::simd::arch::avx2_available() {
        let tiny_life = Problem::life(12, 64, 8, LifeRule::b2s23());
        let tiny = Problem::heat1d(8, 8, Heat1dCoeffs::classic(0.25));
        for (s, problem) in [(2, &life), (2, &tiny_life), (7, &tiny)] {
            let plan = avx2.stride(s).build(problem).unwrap();
            assert_eq!(plan.engine(), Some(Engine::Avx2), "{problem:?}");
        }
    } else {
        let e = avx2.build(&heat1).unwrap_err();
        assert_eq!(e, PlanError::Avx2Unavailable);
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
/// geometry, reorg-op counts (portable and `auto`, Heat-1D, GS-1D and
/// GS-2D), LCS length.
#[test]
fn report_carries_geometry_and_counts() {
    let problem = Problem::heat1d(4096, 16, Heat1dCoeffs::classic(0.25));
    let mut plan = PlanBuilder::new()
        .stride(7)
        .tiling(ghost(512, 8))
        .threads(2)
        .build(&problem)
        .unwrap();
    let mut state = fresh_state(&problem, 5);
    let report = plan.run(&mut state).unwrap();
    assert_eq!(report.steps, 16);
    assert_eq!(report.threads, 2);
    let tiles = report.tiles.expect("tiled plans report geometry");
    // The chunk rule on two threads: `block` is an upper bound, and the
    // `P` sweeps are cut into the fewest chunks `C*` whose pipeline bound
    // `P·C / (C + 2(P − 1))` reaches 90 % of `min(threads, P)` — at the
    // balanced width, narrowed where it would cut fewer — never below
    // the `VL·s` slabs a chunk reads ahead.
    let vl = if report.engine == Some(Engine::Avx512) {
        8
    } else {
        4
    };
    let (reach, p) = (vl * plan.stride(), 16 / vl + 16 % vl);
    let anchors = 4096 + 1 - reach;
    let m = p.min(2);
    let c_star = (1..)
        .find(|&c| 100 * p * c >= 90 * m * (c + 2 * (p - 1)))
        .unwrap();
    let width = anchors.div_ceil(c_star).min((anchors - 1) / (c_star - 1));
    assert_eq!(tiles.block, width.min(512).max(reach), "{tiles:?}");
    assert!(tiles.block <= 512, "{tiles:?}");
    assert!(
        (tiles.tiles - 1) * tiles.block < anchors && anchors <= tiles.tiles * tiles.block,
        "{tiles:?}"
    );
    assert_eq!(tiles.height, 8);
    assert!(report.engine.is_some());

    // Counted temporal runs, on whichever engine they resolve (`auto`:
    // eight lanes where the host has them): the paper's 1 rotate + 1 blend
    // per output vector shows up in the report (`common::check`).
    let (g1, g2) = (Gs1dCoeffs::classic(0.25), Gs2dCoeffs::classic(0.2));
    let gs = [Problem::gs1d(4096, 16, g1), Problem::gs2d(64, 64, 16, g2)];
    let counted = |problem, config| {
        let mut case = Case::fixed(problem, config);
        case.count = true;
        common::check(&case)
    };
    for problem in [problem].into_iter().chain(gs) {
        for sel in [Select::Portable, Select::Auto] {
            assert!(counted(problem, temporal(sel, Tiling::None, None)));
        }
    }
    // The reorg baseline counts too; LCS, tiled and the other spatial
    // plans are refused, as the validation model says.
    let method = |method| SolveConfig {
        method,
        ..SolveConfig::default()
    };
    assert!(counted(problem, method(Method::Reorg)));
    assert!(!counted(Problem::lcs(64, 64), method(Method::Temporal)));
    assert!(!counted(
        problem,
        temporal(Select::Auto, ghost(512, 8), None)
    ));
    assert!(!counted(gs[1], method(Method::Scalar)));

    // LCS length lands in the report (and the state).
    let lcs = Problem::lcs(120, 200);
    let mut plan = PlanBuilder::new().stride(1).build(&lcs).unwrap();
    let mut state = fresh_state(&lcs, 9);
    let report = plan.run(&mut state).unwrap();
    let a = state.lcs().unwrap();
    assert_eq!(report.lcs_length, a.length);
    assert_eq!(report.lcs_length.unwrap(), reference::lcs_len(&a.a, &a.b));
}
