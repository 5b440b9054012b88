//! Object-safe executors behind [`crate::Plan`].
//!
//! There is one executor per family, tiled or not: [`Tiled`] — the
//! pipelined-sweep workspace — for the eight grid kinds under every
//! method, [`RectLcs`] for LCS, and the two Heat-1D baselines. An untiled
//! plan is the one-chunk (one-rectangle) schedule of the same workspace
//! on the plan's one-thread pool. Each executor owns **all scratch it
//! will ever need**, so repeated [`Exec::run`] calls on fresh states are
//! allocation-free (the two documented exceptions are the one-shot
//! reorg/DLT baselines, which build their transposed layouts per call by
//! design).
//!
//! [`Tiled`] is generic over the kernel ([`KernelSpace`]) and
//! monomorphised per kernel, so [`Exec`] stays the only dynamic dispatch.
//! All paths are bit-identical to the scalar references.

use crate::{PlanError, State};
use tempora_baseline::{dlt, reorg};
use tempora_core::engine::{Codegen, Engine, KernelSpace};
use tempora_grid::{Grid1, Grid2, Grid3};
use tempora_parallel::Pool;
use tempora_stencil::Heat1dCoeffs;
use tempora_tiling::{LcsRect, Sweeps};

/// One compiled execution path: advance a [`State`] by the plan's time
/// extent. Object-safe so [`crate::Plan`] can hold any workload behind
/// one pointer; `Send` so a plan can be cached in a pool and dispatched
/// across request threads.
pub(crate) trait Exec: Send {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError>;
}

fn mismatch(expected: &'static str, state: &State) -> PlanError {
    PlanError::StateMismatch {
        expected,
        got: state.variant_name(),
    }
}

/// Extract the concrete grid a generic executor runs on.
pub(crate) trait StateGrid: Sized {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError>;
}

impl StateGrid for Grid1<f64> {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError> {
        match state {
            State::Grid1(g) => Ok(g),
            other => Err(mismatch("Grid1", other)),
        }
    }
}

impl StateGrid for Grid2<f64> {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError> {
        match state {
            State::Grid2(g) => Ok(g),
            other => Err(mismatch("Grid2", other)),
        }
    }
}

impl StateGrid for Grid2<i32> {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError> {
        match state {
            State::Grid2i(g) => Ok(g),
            other => Err(mismatch("Grid2i", other)),
        }
    }
}

impl StateGrid for Grid3<f64> {
    fn from_state(state: &mut State) -> Result<&mut Self, PlanError> {
        match state {
            State::Grid3(g) => Ok(g),
            other => Err(mismatch("Grid3", other)),
        }
    }
}

// ---------------------------------------------------------------------
// Heat-1D baselines
// ---------------------------------------------------------------------

/// Data-reorganization baseline (§2.2), Heat-1D only. One-shot by design:
/// the scheme's transposed layout is rebuilt per call, so this executor
/// allocates per run (documented in [`crate::PlanBuilder::method`]).
pub(crate) struct Reorg1d {
    pub coeffs: Heat1dCoeffs,
    pub steps: usize,
    pub isa: Engine,
    pub counted: bool,
}

impl Exec for Reorg1d {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = Grid1::from_state(state)?;
        *g = match self.isa.codegen() {
            _ if self.counted => reorg::heat1d_counted(g, self.coeffs, self.steps),
            #[cfg(target_arch = "x86_64")]
            Codegen::Avx2(isa) => reorg::heat1d_avx2(isa, g, self.coeffs, self.steps),
            Codegen::Baseline => reorg::heat1d(g, self.coeffs, self.steps),
        };
        Ok(())
    }
}

/// Dimension-lifted-transpose baseline (§2.2), Heat-1D only. One-shot by
/// design (see [`Reorg1d`]). Built only for a size DLT can lift; the plan
/// runs any other as the multi-load sweeps.
pub(crate) struct Dlt1d {
    pub coeffs: Heat1dCoeffs,
    pub steps: usize,
    pub isa: Engine,
}

impl Exec for Dlt1d {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = Grid1::from_state(state)?;
        *g = match self.isa.codegen() {
            #[cfg(target_arch = "x86_64")]
            Codegen::Avx2(isa) => dlt::heat1d_avx2(isa, g, self.coeffs, self.steps),
            Codegen::Baseline => dlt::heat1d(g, self.coeffs, self.steps),
        };
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The two workspaces (thin adapters)
// ---------------------------------------------------------------------

/// Every grid plan — `Tiling::None`, `Tiling::Ghost` and `Tiling::Skew`,
/// whatever the method: the in-place pipelined sweeps.
pub(crate) struct Tiled<K: KernelSpace>(pub Sweeps<K>);

impl<K: KernelSpace> Exec for Tiled<K>
where
    K::Grid: StateGrid,
{
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        self.0.advance(K::Grid::from_state(state)?, pool);
        Ok(())
    }
}

/// Every LCS plan: the rectangle wavefront (one rectangle when untiled).
/// Writes the result into `LcsState::length`.
pub(crate) struct RectLcs(pub LcsRect);

impl Exec for RectLcs {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        let State::Lcs(l) = state else {
            return Err(mismatch("Lcs", state));
        };
        l.length = Some(self.0.run(&l.a, &l.b, pool));
        Ok(())
    }
}
