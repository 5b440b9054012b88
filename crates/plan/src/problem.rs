//! [`Problem`] — the typed stencil descriptor — and [`State`] — the data
//! a plan advances.
//!
//! A `Problem` carries everything geometry- and physics-shaped: the
//! stencil kind, interior extents, time extent, coefficients and boundary
//! condition. It deliberately carries **no data**: the grid (or sequence
//! pair) lives in a [`State`], so one compiled plan can be re-executed
//! against many states (the serving pattern: plan per configuration,
//! state per request).

use crate::PlanError;
use tempora_grid::{Boundary, Grid1, Grid2, Grid3};
use tempora_simd::Scalar;
use tempora_stencil::{
    Box2dCoeffs, Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs,
    LifeRule,
};

/// A typed stencil problem: kind + interior extents + time extent +
/// coefficients + boundary condition.
///
/// Construct one with the per-kind helpers ([`Problem::heat1d`] …), which
/// default the boundary to Dirichlet zero, or build the variant directly
/// for a custom boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum Problem {
    /// Heat-1D (1D3P Jacobi).
    Heat1d {
        /// Interior points.
        n: usize,
        /// Time steps per [`crate::Plan::run`] call.
        steps: usize,
        /// Stencil coefficients.
        coeffs: Heat1dCoeffs,
        /// Boundary condition.
        boundary: Boundary<f64>,
    },
    /// GS-1D (1D3P Gauss-Seidel).
    Gs1d {
        /// Interior points.
        n: usize,
        /// Time steps per run.
        steps: usize,
        /// Stencil coefficients.
        coeffs: Gs1dCoeffs,
        /// Boundary condition.
        boundary: Boundary<f64>,
    },
    /// Heat-2D (2D5P Jacobi).
    Heat2d {
        /// Outer interior extent.
        nx: usize,
        /// Inner interior extent.
        ny: usize,
        /// Time steps per run.
        steps: usize,
        /// Stencil coefficients.
        coeffs: Heat2dCoeffs,
        /// Boundary condition.
        boundary: Boundary<f64>,
    },
    /// 2D9P (box Jacobi).
    Box2d {
        /// Outer interior extent.
        nx: usize,
        /// Inner interior extent.
        ny: usize,
        /// Time steps per run.
        steps: usize,
        /// Stencil coefficients.
        coeffs: Box2dCoeffs,
        /// Boundary condition.
        boundary: Boundary<f64>,
    },
    /// GS-2D (2D5P Gauss-Seidel).
    Gs2d {
        /// Outer interior extent.
        nx: usize,
        /// Inner interior extent.
        ny: usize,
        /// Time steps per run.
        steps: usize,
        /// Stencil coefficients.
        coeffs: Gs2dCoeffs,
        /// Boundary condition.
        boundary: Boundary<f64>,
    },
    /// Game of Life (integer 2D9P, 8 lanes).
    Life {
        /// Outer interior extent.
        nx: usize,
        /// Inner interior extent.
        ny: usize,
        /// Generations per run.
        steps: usize,
        /// Birth/survival rule.
        rule: LifeRule,
        /// Boundary condition.
        boundary: Boundary<i32>,
    },
    /// Heat-3D (3D7P Jacobi).
    Heat3d {
        /// Outer interior extent.
        nx: usize,
        /// Middle interior extent.
        ny: usize,
        /// Inner interior extent.
        nz: usize,
        /// Time steps per run.
        steps: usize,
        /// Stencil coefficients.
        coeffs: Heat3dCoeffs,
        /// Boundary condition.
        boundary: Boundary<f64>,
    },
    /// GS-3D (3D7P Gauss-Seidel).
    Gs3d {
        /// Outer interior extent.
        nx: usize,
        /// Middle interior extent.
        ny: usize,
        /// Inner interior extent.
        nz: usize,
        /// Time steps per run.
        steps: usize,
        /// Stencil coefficients.
        coeffs: Gs3dCoeffs,
        /// Boundary condition.
        boundary: Boundary<f64>,
    },
    /// Longest-common-subsequence DP over a `la × lb` table.
    Lcs {
        /// Length of sequence A.
        la: usize,
        /// Length of sequence B.
        lb: usize,
    },
}

impl Problem {
    /// Heat-1D with Dirichlet-zero boundary.
    pub fn heat1d(n: usize, steps: usize, coeffs: Heat1dCoeffs) -> Problem {
        Problem::Heat1d {
            n,
            steps,
            coeffs,
            boundary: Boundary::Dirichlet(0.0),
        }
    }

    /// GS-1D with Dirichlet-zero boundary.
    pub fn gs1d(n: usize, steps: usize, coeffs: Gs1dCoeffs) -> Problem {
        Problem::Gs1d {
            n,
            steps,
            coeffs,
            boundary: Boundary::Dirichlet(0.0),
        }
    }

    /// Heat-2D with Dirichlet-zero boundary.
    pub fn heat2d(nx: usize, ny: usize, steps: usize, coeffs: Heat2dCoeffs) -> Problem {
        Problem::Heat2d {
            nx,
            ny,
            steps,
            coeffs,
            boundary: Boundary::Dirichlet(0.0),
        }
    }

    /// 2D9P with Dirichlet-zero boundary.
    pub fn box2d(nx: usize, ny: usize, steps: usize, coeffs: Box2dCoeffs) -> Problem {
        Problem::Box2d {
            nx,
            ny,
            steps,
            coeffs,
            boundary: Boundary::Dirichlet(0.0),
        }
    }

    /// GS-2D with Dirichlet-zero boundary.
    pub fn gs2d(nx: usize, ny: usize, steps: usize, coeffs: Gs2dCoeffs) -> Problem {
        Problem::Gs2d {
            nx,
            ny,
            steps,
            coeffs,
            boundary: Boundary::Dirichlet(0.0),
        }
    }

    /// Life with dead (zero) boundary.
    pub fn life(nx: usize, ny: usize, steps: usize, rule: LifeRule) -> Problem {
        Problem::Life {
            nx,
            ny,
            steps,
            rule,
            boundary: Boundary::Dirichlet(0),
        }
    }

    /// Heat-3D with Dirichlet-zero boundary.
    pub fn heat3d(nx: usize, ny: usize, nz: usize, steps: usize, coeffs: Heat3dCoeffs) -> Problem {
        Problem::Heat3d {
            nx,
            ny,
            nz,
            steps,
            coeffs,
            boundary: Boundary::Dirichlet(0.0),
        }
    }

    /// GS-3D with Dirichlet-zero boundary.
    pub fn gs3d(nx: usize, ny: usize, nz: usize, steps: usize, coeffs: Gs3dCoeffs) -> Problem {
        Problem::Gs3d {
            nx,
            ny,
            nz,
            steps,
            coeffs,
            boundary: Boundary::Dirichlet(0.0),
        }
    }

    /// LCS over sequences of lengths `la` and `lb`.
    pub fn lcs(la: usize, lb: usize) -> Problem {
        Problem::Lcs { la, lb }
    }

    /// The benchmark name of this problem kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Problem::Heat1d { .. } => "Heat-1D",
            Problem::Gs1d { .. } => "GS-1D",
            Problem::Heat2d { .. } => "Heat-2D",
            Problem::Box2d { .. } => "2D9P",
            Problem::Gs2d { .. } => "GS-2D",
            Problem::Life { .. } => "Life",
            Problem::Heat3d { .. } => "Heat-3D",
            Problem::Gs3d { .. } => "GS-3D",
            Problem::Lcs { .. } => "LCS",
        }
    }

    /// True for Gauss-Seidel update kinds (in-place dependence on the
    /// newest west/north values).
    pub fn is_gauss_seidel(&self) -> bool {
        matches!(
            self,
            Problem::Gs1d { .. } | Problem::Gs2d { .. } | Problem::Gs3d { .. }
        )
    }

    /// Grid points updated per time step (DP cells per row for LCS) —
    /// the numerator of the Gstencils/s metric.
    pub fn points(&self) -> usize {
        match *self {
            Problem::Heat1d { n, .. } | Problem::Gs1d { n, .. } => n,
            Problem::Heat2d { nx, ny, .. }
            | Problem::Box2d { nx, ny, .. }
            | Problem::Gs2d { nx, ny, .. }
            | Problem::Life { nx, ny, .. } => nx * ny,
            Problem::Heat3d { nx, ny, nz, .. } | Problem::Gs3d { nx, ny, nz, .. } => nx * ny * nz,
            Problem::Lcs { lb, .. } => lb,
        }
    }

    /// Time steps one `Plan::run` call advances (table rows for LCS).
    pub fn steps(&self) -> usize {
        match *self {
            Problem::Heat1d { steps, .. }
            | Problem::Gs1d { steps, .. }
            | Problem::Heat2d { steps, .. }
            | Problem::Box2d { steps, .. }
            | Problem::Gs2d { steps, .. }
            | Problem::Life { steps, .. }
            | Problem::Heat3d { steps, .. }
            | Problem::Gs3d { steps, .. } => steps,
            Problem::Lcs { la, .. } => la,
        }
    }

    /// Interior extents as `[outer, middle, inner]` (unused dimensions 1;
    /// `[la, lb, 1]` for LCS).
    pub fn extents(&self) -> [usize; 3] {
        match *self {
            Problem::Heat1d { n, .. } | Problem::Gs1d { n, .. } => [n, 1, 1],
            Problem::Heat2d { nx, ny, .. }
            | Problem::Box2d { nx, ny, .. }
            | Problem::Gs2d { nx, ny, .. }
            | Problem::Life { nx, ny, .. } => [nx, ny, 1],
            Problem::Heat3d { nx, ny, nz, .. } | Problem::Gs3d { nx, ny, nz, .. } => [nx, ny, nz],
            Problem::Lcs { la, lb } => [la, lb, 1],
        }
    }

    /// Allocate a fresh, zero-initialized [`State`] matching this problem
    /// (halo cells hold the boundary value; LCS sequences are all-zero
    /// symbols). Fill it through the state's grid accessors before
    /// running.
    pub fn state(&self) -> State {
        match *self {
            Problem::Heat1d { n, boundary, .. } | Problem::Gs1d { n, boundary, .. } => {
                State::Grid1(Grid1::new(n, 1, boundary))
            }
            Problem::Heat2d {
                nx, ny, boundary, ..
            }
            | Problem::Box2d {
                nx, ny, boundary, ..
            }
            | Problem::Gs2d {
                nx, ny, boundary, ..
            } => State::Grid2(Grid2::new(nx, ny, 1, boundary)),
            Problem::Life {
                nx, ny, boundary, ..
            } => State::Grid2i(Grid2::new(nx, ny, 1, boundary)),
            Problem::Heat3d {
                nx,
                ny,
                nz,
                boundary,
                ..
            }
            | Problem::Gs3d {
                nx,
                ny,
                nz,
                boundary,
                ..
            } => State::Grid3(Grid3::new(nx, ny, nz, 1, boundary)),
            Problem::Lcs { la, lb } => State::Lcs(LcsState {
                a: vec![0; la],
                b: vec![0; lb],
                length: None,
            }),
        }
    }

    /// Check that `state` matches this problem's kind and shape.
    pub(crate) fn check_state(&self, state: &State) -> Result<(), PlanError> {
        let expected = self.state_variant();
        let got = state.variant_name();
        if expected != got {
            return Err(PlanError::StateMismatch { expected, got });
        }
        let want = self.extents();
        let have = state.extents();
        if want != have {
            return Err(PlanError::StateShapeMismatch {
                expected: want,
                got: have,
            });
        }
        // The engines assume the halo-1 layout (`a[0]` is the boundary
        // cell, interior starts at 1); a wide-halo grid would be read
        // off by one, silently.
        if let Some(h) = state.halo() {
            if h != 1 {
                return Err(PlanError::UnsupportedHalo { halo: h });
            }
        }
        // The multi-load twin's ghost cells were set from the problem's
        // boundary at build time; every other path reads the state's own.
        // One rule for all: the state carries the problem's boundary, bit
        // for bit (`==` would reject a NaN boundary on every run).
        match (self, state) {
            (
                Problem::Heat1d { boundary, .. } | Problem::Gs1d { boundary, .. },
                State::Grid1(g),
            ) => check_boundary(*boundary, g.boundary()),
            (
                Problem::Heat2d { boundary, .. }
                | Problem::Box2d { boundary, .. }
                | Problem::Gs2d { boundary, .. },
                State::Grid2(g),
            ) => check_boundary(*boundary, g.boundary()),
            (Problem::Life { boundary, .. }, State::Grid2i(g)) => {
                check_boundary(*boundary, g.boundary())
            }
            (
                Problem::Heat3d { boundary, .. } | Problem::Gs3d { boundary, .. },
                State::Grid3(g),
            ) => check_boundary(*boundary, g.boundary()),
            _ => Ok(()),
        }
    }

    fn state_variant(&self) -> &'static str {
        match self {
            Problem::Heat1d { .. } | Problem::Gs1d { .. } => "Grid1",
            Problem::Heat2d { .. } | Problem::Box2d { .. } | Problem::Gs2d { .. } => "Grid2",
            Problem::Life { .. } => "Grid2i",
            Problem::Heat3d { .. } | Problem::Gs3d { .. } => "Grid3",
            Problem::Lcs { .. } => "Lcs",
        }
    }
}

fn check_boundary<T: Scalar>(want: Boundary<T>, have: Boundary<T>) -> Result<(), PlanError> {
    if want.same_bits(have) {
        return Ok(());
    }
    Err(PlanError::StateBoundaryMismatch {
        expected: format!("{want:?}"),
        got: format!("{have:?}"),
    })
}

/// Sequence pair (and result slot) for an LCS problem.
#[derive(Clone, Debug, Default)]
pub struct LcsState {
    /// Sequence A (symbols).
    pub a: Vec<u8>,
    /// Sequence B (symbols).
    pub b: Vec<u8>,
    /// The LCS length computed by the most recent `Plan::run`.
    pub length: Option<i32>,
}

/// The mutable data a [`crate::Plan`] advances: one grid (or sequence
/// pair) matching the plan's [`Problem`]. Build a zeroed one with
/// [`Problem::state`], or wrap an existing grid in the matching variant.
#[derive(Clone, Debug)]
pub enum State {
    /// 1-D `f64` grid (Heat-1D, GS-1D).
    Grid1(Grid1<f64>),
    /// 2-D `f64` grid (Heat-2D, 2D9P, GS-2D).
    Grid2(Grid2<f64>),
    /// 2-D `i32` grid (Life).
    Grid2i(Grid2<i32>),
    /// 3-D `f64` grid (Heat-3D, GS-3D).
    Grid3(Grid3<f64>),
    /// LCS sequence pair.
    Lcs(LcsState),
}

impl State {
    /// The variant name (for error messages).
    pub fn variant_name(&self) -> &'static str {
        match self {
            State::Grid1(_) => "Grid1",
            State::Grid2(_) => "Grid2",
            State::Grid2i(_) => "Grid2i",
            State::Grid3(_) => "Grid3",
            State::Lcs(_) => "Lcs",
        }
    }

    /// Interior extents as `[outer, middle, inner]`.
    pub fn extents(&self) -> [usize; 3] {
        match self {
            State::Grid1(g) => [g.n(), 1, 1],
            State::Grid2(g) => [g.nx(), g.ny(), 1],
            State::Grid2i(g) => [g.nx(), g.ny(), 1],
            State::Grid3(g) => [g.nx(), g.ny(), g.nz()],
            State::Lcs(l) => [l.a.len(), l.b.len(), 1],
        }
    }

    /// The grid's halo width (`None` for LCS states). The solver engines
    /// support halo 1 only; [`crate::Plan::run`] rejects anything else.
    pub fn halo(&self) -> Option<usize> {
        match self {
            State::Grid1(g) => Some(g.halo()),
            State::Grid2(g) => Some(g.halo()),
            State::Grid2i(g) => Some(g.halo()),
            State::Grid3(g) => Some(g.halo()),
            State::Lcs(_) => None,
        }
    }

    /// The 1-D grid, if this is a `Grid1` state.
    pub fn grid1(&self) -> Option<&Grid1<f64>> {
        match self {
            State::Grid1(g) => Some(g),
            _ => None,
        }
    }

    /// Mutable access to the 1-D grid.
    pub fn grid1_mut(&mut self) -> Option<&mut Grid1<f64>> {
        match self {
            State::Grid1(g) => Some(g),
            _ => None,
        }
    }

    /// The 2-D `f64` grid, if this is a `Grid2` state.
    pub fn grid2(&self) -> Option<&Grid2<f64>> {
        match self {
            State::Grid2(g) => Some(g),
            _ => None,
        }
    }

    /// Mutable access to the 2-D `f64` grid.
    pub fn grid2_mut(&mut self) -> Option<&mut Grid2<f64>> {
        match self {
            State::Grid2(g) => Some(g),
            _ => None,
        }
    }

    /// The 2-D `i32` grid, if this is a `Grid2i` state.
    pub fn grid2i(&self) -> Option<&Grid2<i32>> {
        match self {
            State::Grid2i(g) => Some(g),
            _ => None,
        }
    }

    /// Mutable access to the 2-D `i32` grid.
    pub fn grid2i_mut(&mut self) -> Option<&mut Grid2<i32>> {
        match self {
            State::Grid2i(g) => Some(g),
            _ => None,
        }
    }

    /// The 3-D grid, if this is a `Grid3` state.
    pub fn grid3(&self) -> Option<&Grid3<f64>> {
        match self {
            State::Grid3(g) => Some(g),
            _ => None,
        }
    }

    /// Mutable access to the 3-D grid.
    pub fn grid3_mut(&mut self) -> Option<&mut Grid3<f64>> {
        match self {
            State::Grid3(g) => Some(g),
            _ => None,
        }
    }

    /// The LCS state, if this is an `Lcs` state.
    pub fn lcs(&self) -> Option<&LcsState> {
        match self {
            State::Lcs(l) => Some(l),
            _ => None,
        }
    }

    /// Mutable access to the LCS state.
    pub fn lcs_mut(&mut self) -> Option<&mut LcsState> {
        match self {
            State::Lcs(l) => Some(l),
            _ => None,
        }
    }
}
