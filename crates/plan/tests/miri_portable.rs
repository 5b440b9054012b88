//! Miri-clean end-to-end coverage of the portable path.
//!
//! `cargo miri test -p tempora_plan --test miri_portable` interprets the
//! whole Problem → Plan → Report lifecycle — validation, engine
//! resolution, scratch arenas, the pinned thread pool and a two-thread
//! tiled plan of each grid family, whose wavefront tasks advance disjoint
//! slab windows of one grid in place — with no `std::arch` intrinsics, no
//! inline `asm!` and no
//! affinity syscalls in sight: `avx2_available()` reports `false` under
//! Miri, which routes every `Select::Auto` dispatch onto the portable
//! pack engines, and the pinning module compiles to its portable stub.
//!
//! Problem sizes are deliberately tiny (Miri interprets ~100× slower
//! than native); the same tests run natively in the ordinary suite,
//! where they pin the portable path's bit-exactness at miniature scale.

use tempora_plan::{Method, PlanBuilder, Problem, Select, State, Tiling};
use tempora_stencil::{Gs2dCoeffs, Heat1dCoeffs, Heat2dCoeffs};

/// Interior cells as raw bit patterns: bit-exact comparison that skips
/// the halo (whose NaN canaries are incomparable under `==`).
fn bits2(state: &State) -> Vec<u64> {
    let g = state.grid2().unwrap();
    let mut out = Vec::new();
    for x in 1..=g.nx() {
        for y in 1..=g.ny() {
            out.push(g.get(x, y).to_bits());
        }
    }
    out
}

/// Deterministic interior fill that needs no RNG (keeps the test
/// dependency-free and Miri-fast).
fn fill1(state: &mut State) {
    state
        .grid1_mut()
        .unwrap()
        .fill_interior(|i| ((i * 37 + 11) % 97) as f64 * 0.021 - 1.0);
}

fn fill2(state: &mut State) {
    state
        .grid2_mut()
        .unwrap()
        .fill_interior(|x, y| ((x * 31 + y * 17 + 5) % 89) as f64 * 0.023 - 1.0);
}

#[test]
fn plan_lifecycle_is_reusable_and_deterministic() {
    let problem = Problem::heat1d(96, 12, Heat1dCoeffs::classic(0.25));
    let mut plan = PlanBuilder::new()
        .method(Method::Temporal)
        .stride(3)
        .select(Select::Portable)
        .build(&problem)
        .expect("valid configuration");

    let mut first = problem.state();
    fill1(&mut first);
    let report = plan.run(&mut first).expect("state matches plan");
    assert_eq!(report.steps, 12);

    // Re-running the same plan against a fresh identical state must be
    // bit-identical: plans own their scratch and reset it per run.
    let mut second = problem.state();
    fill1(&mut second);
    plan.run(&mut second).expect("plan is reusable");
    assert_eq!(
        first.grid1().unwrap().data(),
        second.grid1().unwrap().data()
    );
}

#[test]
fn ghost_tiled_portable_matches_untiled() {
    let problem = Problem::heat2d(20, 18, 8, Heat2dCoeffs::classic(0.20));

    let mut base = problem.state();
    fill2(&mut base);
    PlanBuilder::new()
        .method(Method::Temporal)
        .stride(2)
        .select(Select::Portable)
        .build(&problem)
        .expect("untiled portable plan")
        .run(&mut base)
        .expect("untiled run");

    let mut tiled = problem.state();
    fill2(&mut tiled);
    PlanBuilder::new()
        .method(Method::Temporal)
        .stride(2)
        .select(Select::Portable)
        .tiling(Tiling::Ghost {
            block: 8,
            height: 8,
        })
        .threads(2)
        .build(&problem)
        .expect("ghost-tiled portable plan")
        .run(&mut tiled)
        .expect("tiled run");

    assert_eq!(bits2(&base), bits2(&tiled));
}

#[test]
fn pipelined_wavefront_agrees_with_untiled_bitwise() {
    let problem = Problem::gs2d(48, 16, 8, Gs2dCoeffs::classic(0.23));

    let run = |tiling: Tiling, threads: usize| {
        let mut state = problem.state();
        fill2(&mut state);
        PlanBuilder::new()
            .method(Method::Temporal)
            .stride(2)
            .select(Select::Portable)
            .tiling(tiling)
            .threads(threads)
            .build(&problem)
            .expect("portable plan")
            .run(&mut state)
            .expect("run");
        bits2(&state)
    };

    // The dependence-counter pipeline must be bit-identical to the
    // untiled sequential sweep.
    let skew = Tiling::Skew {
        block: 16,
        height: 4,
    };
    assert_eq!(run(skew, 2), run(Tiling::None, 1));
}
