//! # tempora-tiling — time-tiled, parallel execution of the engines
//!
//! The blocking layer of the *tempora* workspace (paper §3.4), combining
//! the temporal-vectorization engines of `tempora-core` with time-space
//! tiling and the `tempora-parallel` executor:
//!
//! * [`ghost`] — overlapped (ghost-zone) band tiling for the five Jacobi
//!   benchmarks: embarrassingly parallel tiles per `VL`-level band, with
//!   scalar / multi-load ("auto") / temporal in-tile kernels. This is the
//!   documented substitution for the paper's diamond tiling (see the
//!   README, "Multicore execution model").
//! * [`skew`] — parallelogram (time-skewed) tiling with pipelined
//!   wavefronts for the three Gauss-Seidel benchmarks, exactly the
//!   paper's scheme; in-place staircase arrays, no halo exchange.
//! * [`lcs_rect`] — rectangle tiling with pipelined wavefronts for LCS,
//!   the paper's `lcsA`/`lcsB` wavefront-array scheme.
//!
//! Each scheme is exposed as one **reusable workspace** — [`GhostJacobi`]
//! and [`SkewGs`], generic over the kernel through
//! `tempora_core::engine::KernelSpace` so one type serves every
//! dimensionality, and [`LcsRect`] — that validates the geometry,
//! resolves the in-tile engine, and allocates every arena **once**;
//! repeated `advance` / `run` calls are then allocation-free. These
//! workspaces are the execution layer behind `tempora_plan::Plan`.
//!
//! The temporal in-tile kernels go through the same engine dispatch as
//! the sequential engines: workspaces take a
//! `tempora_core::engine::Select`, resolve it once (portable vs
//! hand-scheduled AVX2, degenerate geometries honestly portable) and
//! report the resolved engine for per-series reporting in the bench
//! harness.
//!
//! Every parallel path is bit-identical to the sequential engines and the
//! scalar references, for every thread count, engine selection and mode —
//! verified by the test suites of each module and the cross-crate
//! integration tests.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ghost;
pub mod lcs_rect;
pub mod skew;

/// Force a write fault on every page of `slice` without changing its
/// contents (one volatile read + write-back per 4 KiB page). The
/// workspaces' `fault_in` methods run this through the pool so each
/// tile's arena pages are placed on the NUMA node of the worker that
/// will later advance the tile (first-touch placement).
pub(crate) fn touch_pages<T: Copy>(slice: &mut [T]) {
    let step = (4096 / core::mem::size_of::<T>().max(1)).max(1);
    let mut i = 0;
    while i < slice.len() {
        // SAFETY: `i` is in bounds; volatile keeps the no-op write alive.
        unsafe {
            let p = slice.as_mut_ptr().add(i);
            core::ptr::write_volatile(p, core::ptr::read_volatile(p));
        }
        i += step;
    }
}

pub use ghost::{GhostJacobi, Mode};
pub use lcs_rect::LcsRect;
pub use skew::SkewGs;
