//! # tempora — Temporal Vectorization for Stencils
//!
//! A from-scratch Rust reproduction of **"Temporal Vectorization for
//! Stencils"** (Liang Yuan, Hang Cao, Yunquan Zhang, Kun Li, Pengqi Lu,
//! Yue Yue — SC'21, arXiv:2010.04868).
//!
//! Classic stencil vectorization packs *spatially* adjacent points of one
//! time level into a SIMD register and pays for it with the *data alignment
//! conflict*: overlapping loads or shuffle trees. The paper's temporal
//! scheme instead packs points of **different time levels** into one
//! register — lane `i` holds `a[t+i][x + (vl-1-i)·s]` — so a single stencil
//! application advances `vl` time levels at once and the per-vector
//! reorganization cost collapses to a small constant (one rotate + one
//! blend), independent of vector length, stencil order and dimensionality.
//! Uniquely, the scheme also vectorizes **Gauss-Seidel** stencils and
//! dynamic-programming wavefronts (LCS).
//!
//! This façade crate re-exports the workspace layers:
//!
//! | crate | contents |
//! |---|---|
//! | [`simd`] | portable packs, the lane vocabulary and its `std::arch` tokens (`Ymm`, `Zmm`), reorg-op counting |
//! | [`grid`] | one aligned grid type for 1/2/3-D, `Grid<T, D>`: ghost cells, canary-guarded padding, the seeded fill |
//! | [`stencil`] | problem definitions, dependence analysis, scalar oracles |
//! | [`baseline`] | spatial schemes: data-reorganization, DLT (multi-load is `core::spatial`) |
//! | [`core`] | **the paper's contribution**: temporal engines, AVX2 steady states, [`engine`] dispatch |
//! | [`tiling`] | time-tiling workspaces: in-place pipelined sweeps (every grid kernel) and LCS rectangles |
//! | [`parallel`] | crossbeam worker pool + wavefront executor |
//! | [`plan`] | **the solver API**: `Problem → PlanBuilder → Plan → Report` |
//! | [`proto`] | service wire protocol + canonical `Problem` serialization / cache keys |
//! | [`server`] | `tempora-serve`: sharded concurrent plan cache, request batching |
//! | [`client`] | blocking service client + `tempora-agent` load scenarios |
//!
//! The unified entry point is the [`plan`] layer: describe a
//! [`prelude::Problem`], compile a [`prelude::Plan`] (geometry validated,
//! engine resolved, scratch and thread pool allocated once), then execute
//! it against any number of states with amortized setup. Engine selection
//! (the portable pack model `Packs` or the `std::arch` tokens `Ymm` and
//! `Zmm`, three instantiations of one steady state) is unified in
//! [`engine`]; the `TEMPORA_ENGINE` environment variable (`auto` |
//! `portable` | `avx2`) overrides it process-wide via
//! [`engine::Select::from_env`]. Every engine is bit-identical to the
//! scalar oracles, so dispatch never changes results.
//!
//! ## Quickstart
//!
//! ```
//! use tempora::prelude::*;
//!
//! // A 1-D heat equation on 1000 points, 64 time steps.
//! let problem = Problem::heat1d(1000, 64, Heat1dCoeffs::classic(0.25));
//!
//! // Compile a plan once: temporal vectorization (the paper's scheme,
//! // space stride s = 7), engine resolved, scratch allocated.
//! let mut plan = PlanBuilder::new().stride(7).build(&problem).unwrap();
//!
//! // Run it against a state (reusable across many states).
//! let mut state = problem.state();
//! state
//!     .grid1_mut()
//!     .unwrap()
//!     .fill_interior(|i| if i == 500 { 1.0 } else { 0.0 });
//! let report = plan.run(&mut state).unwrap();
//! assert_eq!(report.steps, 64);
//!
//! // Scalar reference: bit-identical.
//! let mut init = Grid1::new(1000, 1, Boundary::Dirichlet(0.0));
//! init.fill_interior(|i| if i == 500 { 1.0 } else { 0.0 });
//! let gold = reference::heat1d(&init, Heat1dCoeffs::classic(0.25), 64);
//! assert!(state.grid1().unwrap().interior_eq(&gold));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use tempora_baseline as baseline;
pub use tempora_client as client;
pub use tempora_core as core;
pub use tempora_core::engine;
pub use tempora_grid as grid;
pub use tempora_parallel as parallel;
pub use tempora_plan as plan;
pub use tempora_proto as proto;
pub use tempora_server as server;
pub use tempora_simd as simd;
pub use tempora_stencil as stencil;
pub use tempora_tiling as tiling;

/// Convenience re-exports covering the common workflow: describe a
/// [`Problem`](plan::Problem), compile a [`Plan`](plan::Plan), run it,
/// compare against the oracle. The quickstart in the crate docs compiles
/// from this prelude alone.
pub mod prelude {
    pub use tempora_grid::{Boundary, Grid1, Grid2, Grid3};
    pub use tempora_plan::{
        Engine, LcsState, Method, Plan, PlanBuilder, PlanError, Problem, Report, Select, State,
        TileGeometry, Tiling,
    };
    pub use tempora_simd::{F64x4, I32x8, Pack, Scalar};
    pub use tempora_stencil::reference;
    pub use tempora_stencil::{
        Box2dCoeffs, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs,
        LifeRule,
    };
}
