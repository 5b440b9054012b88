//! Object-safe executors behind [`crate::Plan`].
//!
//! Each executor owns its kernel, schedule constants and **all scratch it
//! will ever need** — temporal rings, remainder row/plane buffers,
//! multi-load ping-pong grids, tiling workspaces — so repeated
//! [`Exec::run`] calls on fresh states are allocation-free (the two
//! documented exceptions are the one-shot reorg/DLT baselines, which
//! build their transposed layouts per call by design).
//!
//! The grid executors are generic over the kernel
//! ([`KernelSpace`]): one `Temporal`, `Scalar`, `Multiload` and `Tiled`
//! serve every dimensionality, each monomorphised per kernel so
//! [`Exec`] stays the only dynamic dispatch. All paths reuse the
//! engine/tiling layers' own tile primitives and are bit-identical to the
//! scalar references.

use crate::{PlanError, State};
use tempora_baseline::{dlt, reorg};
use tempora_core::engine::{self, Engine, KernelSpace};
use tempora_core::{lcs, lcs_avx2};
use tempora_grid::{Grid1, Grid2, Grid3, SlabGrid};
use tempora_parallel::Pool;
use tempora_stencil::Heat1dCoeffs;
use tempora_tiling::{LcsRect, Sweeps};

/// One compiled execution path: advance a [`State`] by the plan's time
/// extent. Object-safe so [`crate::Plan`] can hold any workload behind
/// one pointer; `Send` so a plan can be cached in a pool and dispatched
/// across request threads.
pub(crate) trait Exec: Send {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError>;

    /// Allocate (or first-touch) the executor's arenas through `pool` so
    /// their pages are faulted in by pool workers. Sequential executors
    /// have nothing to place, so the default is a no-op.
    fn fault_in(&mut self, _pool: &Pool) {}
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
// Sequential grid executors, generic over the kernel
// ---------------------------------------------------------------------

/// Sequential temporal engine (portable or AVX2, fixed at plan time —
/// the engine is the codegen context of the whole run, remainder steps
/// included): [`engine::advance`] over plan-owned tile scratch and
/// remainder step buffers, reused across runs. Both steady states run at
/// the kernel's own lane count, so they share one scratch.
pub(crate) struct Temporal<K: KernelSpace> {
    pub kern: K,
    pub steps: usize,
    pub s: usize,
    pub engine: Engine,
    pub counted: bool,
    pub scratch: K::Scratch,
    pub rem: K::StepBufs,
}

impl<K: KernelSpace> Exec for Temporal<K>
where
    K::Grid: StateGrid,
{
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = K::Grid::from_state(state)?;
        let Self {
            kern,
            steps,
            s,
            engine,
            scratch,
            rem,
            ..
        } = self;
        if self.counted {
            engine::advance::<true, K>(*engine, g, kern, *steps, *s, scratch, rem);
        } else {
            engine::advance::<false, K>(*engine, g, kern, *steps, *s, scratch, rem);
        }
        Ok(())
    }
}

/// Sequential scalar sweep (the paper's Algorithm 1, in place, plan-owned
/// step buffers), in the codegen context the plan's selection allows.
pub(crate) struct Scalar<K: KernelSpace> {
    pub kern: K,
    pub steps: usize,
    pub isa: Engine,
    pub bufs: K::StepBufs,
}

impl<K: KernelSpace> Exec for Scalar<K>
where
    K::Grid: StateGrid,
{
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = K::Grid::from_state(state)?;
        for _ in 0..self.steps {
            self.kern.scalar_step(self.isa, g, &mut self.bufs);
        }
        Ok(())
    }
}

/// Sequential multi-load (spatially vectorized) sweep, ping-ponging a
/// plan-owned grid, in the codegen context the plan's selection allows.
pub(crate) struct Multiload<K: KernelSpace> {
    pub kern: K,
    pub steps: usize,
    pub isa: Engine,
    pub tmp: K::Grid,
}

impl<K: KernelSpace> Exec for Multiload<K>
where
    K::Grid: StateGrid,
{
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = K::Grid::from_state(state)?;
        self.tmp.data_mut().copy_from_slice(g.data());
        for step in 0..self.steps {
            if step % 2 == 0 {
                self.kern.multiload_step(self.isa, g, &mut self.tmp);
            } else {
                self.kern.multiload_step(self.isa, &self.tmp, g);
            }
        }
        if self.steps % 2 == 1 {
            g.data_mut().copy_from_slice(self.tmp.data());
        }
        Ok(())
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
        *g = match self.isa {
            _ if self.counted => reorg::heat1d_counted(g, self.coeffs, self.steps),
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2 => reorg::heat1d_avx2(g, self.coeffs, self.steps),
            _ => reorg::heat1d(g, self.coeffs, self.steps),
        };
        Ok(())
    }
}

/// Dimension-lifted-transpose baseline (§2.2), Heat-1D only. One-shot by
/// design (see [`Reorg1d`]).
pub(crate) struct Dlt1d {
    pub coeffs: Heat1dCoeffs,
    pub steps: usize,
    pub isa: Engine,
}

impl Exec for Dlt1d {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let g = Grid1::from_state(state)?;
        *g = match self.isa {
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2 => dlt::heat1d_avx2(g, self.coeffs, self.steps),
            _ => dlt::heat1d(g, self.coeffs, self.steps),
        };
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Sequential LCS
// ---------------------------------------------------------------------

/// Sequential LCS DP (temporal `i32×8` tiles — portable or AVX2 steady
/// state, fixed at plan time — or scalar rows), rolling row and scratch
/// reused across runs. Writes the result into `LcsState::length`.
pub(crate) struct SeqLcs {
    pub s: usize,
    pub temporal: bool,
    pub avx2: bool,
    pub row: Vec<i32>,
    pub scratch: lcs::ScratchLcs<8>,
}

impl Exec for SeqLcs {
    fn run(&mut self, state: &mut State, _pool: &Pool) -> Result<(), PlanError> {
        let State::Lcs(l) = state else {
            return Err(mismatch("Lcs", state));
        };
        let (la, lb) = (l.a.len(), l.b.len());
        if la == 0 || lb == 0 {
            l.length = Some(0);
            return Ok(());
        }
        self.row.fill(0);
        let row = &mut self.row[..lb + 1];
        if self.temporal {
            const VL: usize = 8;
            let tiles = la / VL;
            for t in 0..tiles {
                let a_tile = &l.a[t * VL..(t + 1) * VL];
                match self.avx2 {
                    #[cfg(target_arch = "x86_64")]
                    true => lcs_avx2::tile_avx2(row, a_tile, &l.b, self.s, &mut self.scratch),
                    #[cfg(not(target_arch = "x86_64"))]
                    true => unreachable!("AVX2 resolved on a non-x86-64 target"),
                    false => lcs::tile::<VL>(row, a_tile, &l.b, self.s, &mut self.scratch),
                }
            }
            for &ca in &l.a[tiles * VL..] {
                lcs::scalar_row_step(row, ca, &l.b);
            }
        } else {
            for &ca in &l.a {
                lcs::scalar_row_step(row, ca, &l.b);
            }
        }
        l.length = Some(row[lb]);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Tiled executors (thin adapters over the tiling workspaces)
// ---------------------------------------------------------------------

/// Every tiled grid plan — `Tiling::Ghost` and `Tiling::Skew`, whatever
/// the method: the in-place pipelined sweeps.
pub(crate) struct Tiled<K: KernelSpace>(pub Sweeps<K>);

impl<K: KernelSpace> Exec for Tiled<K>
where
    K::Grid: StateGrid,
{
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        self.0.advance(K::Grid::from_state(state)?, pool);
        Ok(())
    }

    fn fault_in(&mut self, pool: &Pool) {
        self.0.fault_in(pool);
    }
}

pub(crate) struct RectLcs(pub LcsRect);

impl Exec for RectLcs {
    fn run(&mut self, state: &mut State, pool: &Pool) -> Result<(), PlanError> {
        let State::Lcs(l) = state else {
            return Err(mismatch("Lcs", state));
        };
        l.length = Some(self.0.run(&l.a, &l.b, pool));
        Ok(())
    }

    fn fault_in(&mut self, pool: &Pool) {
        self.0.fault_in(pool);
    }
}
