//! # tempora-tiling — time-tiled, parallel execution of the engines
//!
//! The blocking layer of the *tempora* workspace (paper §3.4), combining
//! the temporal-vectorization engines of `tempora-core` with time-space
//! tiling and the `tempora-parallel` executor:
//!
//! * [`sweeps`] — in-place pipelined sweeps for the eight grid benchmarks,
//!   Jacobi and Gauss-Seidel alike: every sweep of the engine is cut into
//!   chunks of anchors (the paper's parallelogram tiles), and one
//!   wavefront lets the next sweep follow through the same array as soon
//!   as the slabs it reads are final — no tile buffers, no copies, with
//!   scalar / multi-load ("auto") / temporal sweeps.
//! * [`lcs_rect`] — rectangle tiling with pipelined wavefronts for LCS,
//!   the paper's `lcsA`/`lcsB` wavefront-array scheme.
//!
//! Each scheme is exposed as one **reusable workspace** — [`Sweeps`],
//! generic over the kernel through `tempora_core::engine::KernelSpace` so
//! one type serves every dimensionality, and [`LcsRect`] — that validates
//! the geometry, resolves the engine, and allocates every arena **once**;
//! repeated `advance` / `run` calls are then allocation-free. These
//! workspaces are the whole execution layer behind `tempora_plan::Plan`:
//! an untiled plan is their smallest schedule — one chunk per sweep, one
//! rectangle — on a one-thread pool.
//!
//! Workspaces take a
//! `tempora_core::engine::Select`, resolve it once (portable vs
//! AVX2, by capability; degenerate LCS geometries honestly portable) and
//! report the resolved engine for per-series reporting in the bench
//! harness.
//!
//! Every parallel path is bit-identical to the one-thread schedule and the
//! scalar references, for every thread count, engine selection and mode —
//! verified by the test suites of each module and the cross-crate
//! integration tests. Why the in-place wavefront is race-free — the
//! hazard argument — is in the [`sweeps`] module docs, next to the checker
//! that enforces it in test and debug builds.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lcs_rect;
pub mod sweeps;

/// Force a write fault on every page of `slice` without changing its
/// contents (one volatile read + write-back per 4 KiB page).
/// [`LcsRect::fault_in`] runs this through the pool so a column buffer's
/// pages are placed on the NUMA node of a pool worker (first-touch
/// placement).
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

pub use lcs_rect::LcsRect;
pub use sweeps::{Mode, Sweeps};

// The tests of the two workspaces `sweeps` replaced, under the module
// paths (`ghost::tests::…`, `skew::tests::…`) the repo's test floor is
// keyed by; the modules must sit at the crate root to keep them (each is
// `#[cfg(test)]` in the file).
include!("floor_names.rs");
