//! # tempora-plan — the unified `Problem → Plan → Report` solver API
//!
//! One entry point for the whole engine/tiling stack, shaped like the
//! compiled-operator APIs of production stencil systems (FFTW plans,
//! Devito operators): describe the **problem** once, compile a **plan**
//! once, then execute it many times against fresh **states** with
//! amortized setup.
//!
//! * [`Problem`] — typed stencil descriptor: kind, interior extents, time
//!   extent, coefficients, boundary condition. Carries no data.
//! * [`PlanBuilder`] — picks the [`Method`] (temporal / multi-load /
//!   reorg / DLT / scalar), the [`Tiling`] (pipelined in-place sweeps
//!   under the names ghost and skew / LCS rectangles / none: the
//!   one-chunk, one-rectangle schedule of the same executors), the engine
//!   [`Select`] policy, the worker-thread count and the temporal stride. [`PlanBuilder::build`] validates
//!   everything up front and returns a descriptive [`PlanError`] for any
//!   invalid combination — no panics, no silent fallbacks beyond the
//!   documented engine resolutions.
//! * [`Plan`] — geometry resolved once, engine resolved once, thread pool
//!   and every scratch arena allocated once. Repeated [`Plan::run`] calls
//!   are allocation-free (except the documented one-shot reorg/DLT
//!   baselines) and bit-identical to one-shot execution.
//! * [`Report`] — what actually executed: resolved [`Engine`], steps,
//!   tile geometry, optional reorg-op counts, LCS length.
//!
//! ```
//! use tempora_plan::{Method, PlanBuilder, Problem, Tiling};
//! use tempora_stencil::Heat1dCoeffs;
//!
//! // Describe the problem once…
//! let problem = Problem::heat1d(10_000, 64, Heat1dCoeffs::classic(0.25));
//! // …compile a plan once…
//! let mut plan = PlanBuilder::new()
//!     .method(Method::Temporal)
//!     .tiling(Tiling::None)
//!     .stride(7)
//!     .build(&problem)
//!     .expect("valid configuration");
//! // …then run it against as many states as you like.
//! let mut state = problem.state();
//! state.grid1_mut().unwrap().fill_interior(|i| (i as f64 * 0.1).sin());
//! let report = plan.run(&mut state).unwrap();
//! assert_eq!(report.steps, 64);
//! ```
//!
//! The plan is the unit of caching and dispatch for serving scenarios:
//! build one per configuration, pool them, and route each request's state
//! through the matching plan.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod exec;
mod plan;
mod problem;

pub use error::PlanError;
pub use plan::{Method, Plan, PlanBuilder, Report, TileGeometry, Tiling};
pub use problem::{LcsState, Problem, State};

// The engine vocabulary is part of the plan API surface.
pub use tempora_core::engine::{Engine, Select};

include!("floor_names.rs");

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::fill_random_1d;
    use tempora_stencil::{reference, Gs2dCoeffs, Heat1dCoeffs, LifeRule};

    #[test]
    fn plan_runs_and_reports() {
        let problem = Problem::heat1d(500, 12, Heat1dCoeffs::classic(0.25));
        let mut plan = PlanBuilder::new().stride(7).build(&problem).unwrap();
        let mut state = problem.state();
        fill_random_1d(state.grid1_mut().unwrap(), 3, -1.0, 1.0);
        let gold = reference::heat1d(state.grid1().unwrap(), Heat1dCoeffs::classic(0.25), 12);
        let report = plan.run(&mut state).unwrap();
        assert_eq!(report.steps, 12);
        assert!(report.engine.is_some());
        assert!(state.grid1().unwrap().interior_eq(&gold));
    }

    #[test]
    fn default_1d_strides_are_register_specialised() {
        // The 1-D defaults are only fast because the `std::arch` steady
        // states instantiate them with the ring in registers; change a
        // default and the specialised set together (`repro ablate-stride`
        // measures both). Each engine has its own default: the four-lane
        // one's in `REGISTER_STRIDES`, the eight-lane one's in
        // `ZMM_REGISTER_STRIDES`. An explicit stride is honoured and
        // reported as given.
        use tempora_core::{lcs_avx2, t1d_avx2};
        use tempora_stencil::Gs1dCoeffs;
        let heat = Problem::heat1d(4096, 8, Heat1dCoeffs::classic(0.25));
        let gs = Problem::gs1d(4096, 8, Gs1dCoeffs::classic(0.25));
        let lcs = Problem::lcs(64, 64);
        let (ghost, skew, rect) = (
            Tiling::Ghost {
                block: 512,
                height: 8,
            },
            Tiling::Skew {
                block: 512,
                height: 8,
            },
            Tiling::LcsRect {
                xblock: 32,
                yblock: 32,
            },
        );
        let avx2 = tempora_simd::arch::avx2_available().then_some(Select::Avx2);
        for sel in [Some(Select::Auto), avx2].into_iter().flatten() {
            for (problem, tiling) in [
                (&heat, Tiling::None),
                (&heat, ghost),
                (&gs, Tiling::None),
                (&gs, skew),
                (&lcs, Tiling::None),
                (&lcs, rect),
            ] {
                let b = PlanBuilder::new().tiling(tiling).select(sel);
                let plan = b.build(problem).unwrap();
                let set = match (problem, plan.engine()) {
                    (Problem::Lcs { .. }, _) => lcs_avx2::REGISTER_STRIDES,
                    (_, Some(Engine::Avx512)) => t1d_avx2::ZMM_REGISTER_STRIDES,
                    _ => t1d_avx2::REGISTER_STRIDES,
                };
                let s = plan.stride();
                assert!(
                    set.contains(&s),
                    "{problem:?} {tiling:?} {sel:?}: default {s}"
                );
                assert_eq!(b.stride(3).build(problem).unwrap().stride(), 3);
            }
        }
        // The one table of 1-D defaults (`KernelSpace::default_stride`),
        // both forms, on any host.
        use tempora_core::engine::KernelSpace;
        use tempora_core::kernels::{GsKern1d, JacobiKern1d};
        for (engine, set) in [
            (Engine::Avx2, t1d_avx2::REGISTER_STRIDES),
            (Engine::Avx512, t1d_avx2::ZMM_REGISTER_STRIDES),
        ] {
            for s in [
                JacobiKern1d::default_stride(engine),
                GsKern1d::default_stride(engine),
            ] {
                assert!(set.contains(&s), "{engine:?}: default {s}");
            }
        }
        // Both forms are reached by plans: the eight-lane defaults where
        // the host has AVX-512F (and `auto` takes it), the four-lane ones
        // under `avx2` and for a run eight lanes would leave scalar levels
        // in. Heat-1D's differ (13, 10), GS-1D's coincide (7).
        if tempora_simd::arch::avx512_available() {
            for (problem, strides) in [(&heat, (13, 10)), (&gs, (7, 7))] {
                let wide = PlanBuilder::new().build(problem).unwrap();
                assert_eq!(wide.engine(), Some(Engine::Avx512), "{problem:?}");
                let narrow = PlanBuilder::new()
                    .select(Select::Avx2)
                    .build(problem)
                    .unwrap();
                assert_eq!(narrow.engine(), Some(Engine::Avx2), "{problem:?}");
                assert_eq!((wide.stride(), narrow.stride()), strides, "{problem:?}");
            }
            let twelve = Problem::heat1d(4096, 12, Heat1dCoeffs::classic(0.25));
            let plan = PlanBuilder::new().build(&twelve).unwrap();
            assert_eq!((plan.engine(), plan.stride()), (Some(Engine::Avx2), 10));
        }
    }

    #[test]
    fn pin_knob_is_honest_and_bit_identical() {
        use tempora_grid::fill_random_2d;
        // Skewed GS-2D exercises the wavefront; pin(true) exercises
        // affinity.
        let coeffs = Gs2dCoeffs::classic(0.2);
        let problem = Problem::gs2d(96, 9, 8, coeffs);
        let mut gold_state = problem.state();
        fill_random_2d(gold_state.grid2_mut().unwrap(), 11, -1.0, 1.0);
        let gold = reference::gs2d(gold_state.grid2().unwrap(), coeffs, 8);
        for pin in [true, false] {
            let mut plan = PlanBuilder::new()
                .tiling(Tiling::Skew {
                    block: 24,
                    height: 4,
                })
                .threads(4)
                .pin(pin)
                .build(&problem)
                .unwrap();
            let mut state = problem.state();
            fill_random_2d(state.grid2_mut().unwrap(), 11, -1.0, 1.0);
            let report = plan.run(&mut state).unwrap();
            assert!(state.grid2().unwrap().interior_eq(&gold));
            // Pinning is honest: reported iff requested AND the host
            // supports it.
            use tempora_parallel::Pool;
            assert_eq!(report.pinned, pin && Pool::pinning_supported());
            assert_eq!(plan.is_pinned(), report.pinned);
        }
    }

    #[test]
    fn errors_are_descriptive_not_panics() {
        let heat = Problem::heat1d(100, 8, Heat1dCoeffs::classic(0.25));
        assert_eq!(
            PlanBuilder::new().stride(0).build(&heat).unwrap_err(),
            PlanError::ZeroStride
        );
        assert_eq!(
            PlanBuilder::new().threads(0).build(&heat).unwrap_err(),
            PlanError::ZeroThreads
        );
        let life = Problem::life(64, 64, 8, LifeRule::b2s23());
        assert!(matches!(
            PlanBuilder::new()
                .method(Method::Reorg)
                .build(&life)
                .unwrap_err(),
            PlanError::MethodUnsupported { .. }
        ));
        let gs = Problem::gs2d(64, 64, 8, Gs2dCoeffs::classic(0.2));
        assert!(matches!(
            PlanBuilder::new()
                .method(Method::Multiload)
                .build(&gs)
                .unwrap_err(),
            PlanError::MethodUnsupported { .. }
        ));
        // Errors render as readable strings.
        let msg = PlanBuilder::new()
            .method(Method::Multiload)
            .build(&gs)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("Gauss-Seidel"), "{msg}");
    }
}
