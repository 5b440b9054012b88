//! Parallelogram (time-skewed) tiling for Gauss-Seidel stencils, with
//! pipelined wavefront parallelism (paper §3.4: "we utilize parallelogram
//! tiling for all space dimensions" — here applied along the outermost
//! dimension, the one the temporal scheme vectorizes).
//!
//! The iteration space is cut into bands of `height` time levels × skewed
//! blocks of `block` anchor columns; block `(band, i)` is the
//! parallelogram executed by the banded engines in `tempora-core`
//! (`t1d_band`, `slab::band`), executed as `height/VL` successive
//! `VL`-level sub-bands whose anchors shift left by `VL` each (one
//! parallelogram of the paper's Table-1 time-block depth). Dependences
//! are `(b, i-1)`, `(b-1, i)` and `(b-1, i+1)`, so
//! [`tempora_parallel::Pool::waves`] (waves `w = 2b + i`) is a legal
//! schedule; same-wave tasks are at block distance ≥ 2 and their
//! read/write sets are disjoint whenever `block ≥ height + VL·s + VL`
//! (asserted), because a tile touches at most
//! `[xl - height - VL·s, xr + 1]` and same-wave neighbours sit two
//! blocks away.
//!
//! # One reusable workspace
//!
//! [`SkewGs`] is generic over the kernel ([`GsSpace`]): one type serves
//! GS-1D, GS-2D and GS-3D. It validates the geometry and resolves the
//! banded engine once, allocates the per-block band scratch once, and is
//! driven by repeated `advance(&mut grid, &pool)` calls that run
//! allocation-free. This is the execution layer behind
//! `tempora_plan::Plan`.
//!
//! # Engine dispatch
//!
//! The temporal band executor goes through the same dispatch as the
//! sequential engines: the workspace takes a [`Mode`] (scalar bands for
//! the paper's "scalar" curves, [`Mode::Temporal`] for "our"; spatial
//! auto-vectorization of Gauss-Seidel is illegal and rejected) plus a
//! [`Select`], resolves the selection **once** against the kernel's AVX2
//! band capability ([`GsSpace::has_avx2_band`]) and the block geometry,
//! and reports the resolved [`Engine`]. Geometries where *no* skewed
//! block can host the vector steady state resolve portable, so the
//! reported engine names the instruction mix that actually ran. Per-block
//! band scratch lives in a workspace arena (one slot per block index —
//! tasks with the same block index are ordered by the wave dependences,
//! so slots are never touched concurrently).
//!
//! The resolved engine is also the **codegen context** of everything a
//! band executes — prologue/epilogue, the scalar fallback of edge and
//! narrow bands, remainder steps — and scalar-mode workspaces, which
//! report no engine, still follow the [`Select`] for theirs
//! (`sel.resolve(true)`), so no band runs its `mul_add`s through libm
//! `fma` calls when AVX2+FMA code was allowed.

use tempora_core::engine::{Engine, GsSpace, Select};
use tempora_core::t1d_band::vector_band_shape;
use tempora_grid::SlabGrid;
use tempora_parallel::{Pool, SyncSlice};

pub use crate::ghost::Mode;

/// The band executors run at the f64 lane count.
const VL: usize = 4;

/// Number of skewed blocks for interior size `n`, anchor width `block`
/// and band height `height` (anchors must reach `n + height - 1` so the
/// deepest level's window still covers `x = n`).
fn block_count(n: usize, block: usize, height: usize) -> usize {
    (n + height - 1).div_ceil(block)
}

/// Anchor bounds (level-1 window) of skewed block `i`.
fn block_bounds(i: usize, n: usize, block: usize, height: usize) -> (usize, usize) {
    let span = n + height - 1;
    (i * block + 1, ((i + 1) * block).min(span))
}

/// The `VL`-level sub-bands of the block anchored at `[xl, xr]`: anchors
/// shift left by `VL` per sub-band and are clipped at the domain edge.
fn sub_bands(xl: usize, xr: usize, height: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..height / VL)
        .map(|j| j * VL)
        .take_while(move |&off| xr > off)
        .map(move |off| (xl.saturating_sub(off).max(1), xr - off))
}

/// True when at least one `(block, sub-band)` pair of the schedule passes
/// the band executors' own vector-shape test — all-degenerate geometries
/// must resolve portable so the reported engine stays honest.
fn any_vector_band(n: usize, block: usize, height: usize, s: usize) -> bool {
    (0..block_count(n, block, height)).any(|i| {
        let (xl, xr) = block_bounds(i, n, block, height);
        sub_bands(xl, xr, height).any(|(xlj, xrj)| vector_band_shape::<VL>(xlj, xrj, n, s))
    })
}

/// Reusable skewed-tiling workspace for Gauss-Seidel along the outer
/// dimension, for any GS kernel and dimensionality: geometry validated
/// and banded engine resolved once in [`SkewGs::new`], per-block band
/// scratch allocated once, then reused by every [`SkewGs::advance`] call
/// (allocation-free).
pub struct SkewGs<K: GsSpace> {
    kern: K,
    steps: usize,
    block: usize,
    height: usize,
    s: usize,
    engine: Option<Engine>,
    /// Codegen context of every band and remainder step: the resolved
    /// temporal engine, or the selection's for scalar bands.
    isa: Engine,
    dims: [usize; 3],
    nblocks: usize,
    /// One slot per block index, present when a temporal engine runs
    /// (zero-sized in 1-D, whose band executors need no scratch).
    scratch: Vec<K::BandScratch>,
    rem: K::StepBufs,
}

impl<K: GsSpace> SkewGs<K> {
    /// Build a workspace for interior extents `dims` (outer first).
    /// `mode` selects the band executor — [`Mode::Temporal`] for the
    /// paper's "our" curves, [`Mode::Scalar`] for "scalar" — and `sel`
    /// picks the temporal steady state.
    ///
    /// # Panics
    /// Panics for [`Mode::Auto`] (Gauss-Seidel loops cannot be spatially
    /// auto-vectorized), a height that is not a positive multiple of 4,
    /// or a block narrower than the wave-disjointness bound
    /// (`tempora_plan` validates these ahead of time and returns a
    /// `PlanError` instead).
    pub fn new(
        kern: K,
        dims: [usize; 3],
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
    ) -> Self {
        // The stride a mode implies for the disjointness bound: scalar
        // bands reach back only `height` columns, i.e. stride 0.
        let s = match mode {
            Mode::Temporal(s) => s,
            Mode::Scalar => 0,
            Mode::Auto => panic!("Gauss-Seidel loops cannot be spatially auto-vectorized"),
        };
        assert!(
            height >= VL && height % VL == 0,
            "height must be a multiple of {VL}"
        );
        assert!(
            block >= height + VL * s + VL,
            "block too narrow for wave disjointness"
        );
        let bands = steps / height;
        let nblocks = block_count(dims[0], block, height);
        let engine = matches!(mode, Mode::Temporal(_)).then(|| {
            sel.resolve(
                K::has_avx2_band(s) && bands > 0 && any_vector_band(dims[0], block, height, s),
            )
        });
        // Per-block band scratch (the wave dependences serialize all
        // tasks of one block index).
        let scratch = match engine {
            Some(_) => (0..nblocks).map(|_| K::band_scratch(dims, s)).collect(),
            None => Vec::new(),
        };
        SkewGs {
            kern,
            steps,
            block,
            height,
            s,
            engine,
            isa: engine.unwrap_or_else(|| sel.resolve(true)),
            dims,
            nblocks,
            scratch,
            rem: K::step_bufs(dims),
        }
    }

    /// The banded engine this workspace resolved to (`None` for scalar
    /// bands).
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Number of skewed blocks per band.
    pub fn tiles(&self) -> usize {
        self.nblocks
    }

    /// Re-allocate the per-block band scratch through `pool` so each
    /// slot's pages are faulted in by a pool worker (best-effort NUMA
    /// spread — the wavefront schedule has no static block owner; the
    /// grid itself is caller-owned and advanced in place). Results are
    /// unchanged whether or not this runs. A no-op for kernels whose
    /// bands need no scratch (1-D).
    pub fn fault_in(&mut self, pool: &Pool) {
        if core::mem::size_of::<K::BandScratch>() == 0 {
            return;
        }
        tempora_failpoint::failpoint!("fault_in");
        if self.scratch.is_empty() {
            return;
        }
        let (dims, s) = (self.dims, self.s);
        let scratch_shared = SyncSlice::new(&mut self.scratch);
        pool.for_each_owned(self.nblocks, |i| {
            // SAFETY: slot i is written only by its owning worker.
            let sc = unsafe { &mut scratch_shared.slice_mut()[i] };
            *sc = K::band_scratch(dims, s);
        });
    }

    /// Advance `g` by the workspace's `steps` time levels in place. All
    /// paths are bit-identical to the reference.
    ///
    /// # Panics
    /// Panics if `g` does not match the workspace geometry.
    pub fn advance(&mut self, g: &mut K::Grid, pool: &Pool) {
        assert_eq!(
            g.dims(),
            self.dims,
            "grid does not match workspace geometry"
        );
        let Self {
            kern, scratch, rem, ..
        } = self;
        let (n, block, height, s) = (self.dims[0], self.block, self.height, self.s);
        let (temporal, isa) = (self.engine.is_some(), self.isa);
        {
            let shared_grid = SyncSlice::new(core::slice::from_mut(g));
            let scratch_shared = SyncSlice::new(scratch);
            pool.waves(self.steps / height, self.nblocks, |_b, i| {
                // SAFETY: wave scheduling keeps concurrent tiles ≥ 2 blocks
                // apart; with outer slabs as the banded unit a tile touches
                // [xl - height - VL·s, xr + 1] ⊂ its block ± one block for
                // block ≥ height + VL·s + VL (asserted).
                let g = &mut unsafe { shared_grid.slice_mut() }[0];
                let (xl, xr) = block_bounds(i, n, block, height);
                for (xlj, xrj) in sub_bands(xl, xr, height) {
                    if temporal {
                        // SAFETY: scratch slot i belongs to block i alone;
                        // one tile of block i is in flight at a time
                        // (wavefront dependences).
                        let sc = unsafe { &mut scratch_shared.slice_mut()[i] };
                        kern.band(isa, g, xlj, xrj, s, sc);
                    } else {
                        kern.band_scalar(isa, g, xlj, xrj, VL);
                    }
                }
            });
        }
        for _ in 0..self.steps % height {
            kern.scalar_step(isa, g, rem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::kernels::{GsKern1d, GsKern2d, GsKern3d};
    use tempora_grid::{
        fill_random_1d, fill_random_2d, fill_random_3d, Boundary, Grid1, Grid2, Grid3,
    };
    use tempora_stencil::reference;
    use tempora_stencil::{Gs1dCoeffs, Gs2dCoeffs, Gs3dCoeffs};

    /// Advance a copy of `g` with workspace `w`; returns it with the
    /// resolved engine.
    fn run<K: GsSpace>(mut w: SkewGs<K>, g: &K::Grid, pool: &Pool) -> (K::Grid, Option<Engine>) {
        let mut g = g.clone();
        w.advance(&mut g, pool);
        (g, w.engine())
    }

    #[test]
    fn gs1d_parallel_matches_reference_all_thread_counts() {
        let c = Gs1dCoeffs::classic(0.27);
        let kern = GsKern1d(c);
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            for &(n, block, s, steps) in &[
                (500usize, 64usize, 2usize, 8usize),
                (1000, 128, 7, 12),
                (300, 120, 3, 13),
            ] {
                let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.6));
                fill_random_1d(&mut g, n as u64 + threads as u64, -1.0, 1.0);
                let gold = reference::gs1d(&g, c, steps);
                for mode in [Mode::Scalar, Mode::Temporal(s)] {
                    let w = SkewGs::new(kern, g.dims(), steps, block, 4, mode, Select::Auto);
                    let (ours, _) = run(w, &g, &pool);
                    assert!(
                        ours.interior_eq(&gold),
                        "threads={threads} n={n} block={block} s={s} steps={steps} \
                         mode={mode:?} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
    }

    #[test]
    fn gs1d_engine_report_is_honest() {
        let c = Gs1dCoeffs::classic(0.27);
        let kern = GsKern1d(c);
        let pool = Pool::new(2);
        let mut g = Grid1::new(500, 1, Boundary::Dirichlet(0.6));
        fill_random_1d(&mut g, 9, -1.0, 1.0);
        let engine = |mode, sel| run(SkewGs::new(kern, g.dims(), 8, 64, 4, mode, sel), &g, &pool).1;
        assert_eq!(engine(Mode::Scalar, Select::Auto), None);
        assert_eq!(
            engine(Mode::Temporal(2), Select::Portable),
            Some(Engine::Portable)
        );
        if tempora_simd::arch::avx2_available() {
            assert_eq!(engine(Mode::Temporal(2), Select::Auto), Some(Engine::Avx2));
            // All-degenerate geometry (every block is an edge block or too
            // narrow for the vector band): honest portable even when AVX2
            // is requested.
            let mut small = Grid1::new(60, 1, Boundary::Dirichlet(0.0));
            fill_random_1d(&mut small, 2, -1.0, 1.0);
            let w = SkewGs::new(
                kern,
                small.dims(),
                8,
                36,
                4,
                Mode::Temporal(7),
                Select::Avx2,
            );
            let (r, e) = run(w, &small, &pool);
            assert_eq!(e, Some(Engine::Portable));
            assert!(r.interior_eq(&reference::gs1d(&small, c, 8)));
        }
    }

    #[test]
    fn gs2d_parallel_matches_reference_and_workspace_reuse_is_allocation_free() {
        let c = Gs2dCoeffs::classic(0.19);
        let kern = GsKern2d(c);
        for threads in [1usize, 2] {
            let pool = Pool::new(threads);
            let mut g = Grid2::new(120, 9, 1, Boundary::Dirichlet(-0.3));
            fill_random_2d(&mut g, 21, -1.0, 1.0);
            let gold = reference::gs2d(&g, c, 8);
            for mode in [Mode::Scalar, Mode::Temporal(2)] {
                let mut w = SkewGs::new(kern, g.dims(), 8, 48, 8, mode, Select::Auto);
                let mut ours = g.clone();
                w.advance(&mut ours, &pool);
                assert!(
                    ours.interior_eq(&gold),
                    "threads={threads} mode={mode:?} {:?}",
                    ours.first_diff(&gold)
                );
                // Reuse on a fresh state: identical and allocation-free.
                // Process-global counter + concurrent sibling tests:
                // retry until a clean window (a real allocation in
                // `advance` would taint every window).
                let mut clean = false;
                for _ in 0..32 {
                    let mut again = g.clone();
                    let before = tempora_grid::alloc_count();
                    w.advance(&mut again, &pool);
                    let delta = tempora_grid::alloc_count() - before;
                    assert!(again.interior_eq(&gold));
                    if delta == 0 {
                        clean = true;
                        break;
                    }
                }
                assert!(clean, "advance allocated in every observed window");
            }
        }
    }

    #[test]
    fn pipelined_wavefront_matches_reference_at_every_thread_count() {
        let c = Gs2dCoeffs::classic(0.19);
        let kern = GsKern2d(c);
        let mut g = Grid2::new(120, 9, 1, Boundary::Dirichlet(-0.3));
        fill_random_2d(&mut g, 21, -1.0, 1.0);
        let gold = reference::gs2d(&g, c, 8);
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            for mode in [Mode::Scalar, Mode::Temporal(2)] {
                let mk = || SkewGs::new(kern, g.dims(), 8, 48, 8, mode, Select::Auto);
                // fault_in on one side must not perturb results either.
                let mut wa = mk();
                wa.fault_in(&pool);
                for ours in [run(wa, &g, &pool).0, run(mk(), &g, &pool).0] {
                    assert!(
                        ours.interior_eq(&gold),
                        "threads={threads} mode={mode:?} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
    }

    #[test]
    fn gs3d_parallel_matches_reference() {
        let c = Gs3dCoeffs::classic(0.11);
        let pool = Pool::new(2);
        let mut g = Grid3::new(80, 5, 6, 1, Boundary::Dirichlet(0.2));
        fill_random_3d(&mut g, 13, -1.0, 1.0);
        let gold = reference::gs3d(&g, c, 9); // 2 bands + remainder
        for mode in [Mode::Scalar, Mode::Temporal(2)] {
            let w = SkewGs::new(GsKern3d(c), g.dims(), 9, 24, 4, mode, Select::Auto);
            let (ours, _) = run(w, &g, &pool);
            assert!(
                ours.interior_eq(&gold),
                "mode={mode:?} {:?}",
                ours.first_diff(&gold)
            );
        }
    }
}
