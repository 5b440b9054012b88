//! Ghost-zone (overlapped) temporal band tiling for Jacobi stencils.
//!
//! The paper parallelizes its Jacobi benchmarks with diamond tiling on
//! the outermost space loop (§3.4). This reproduction substitutes the
//! closest temporal-blocking scheme that composes *unchanged* with the
//! rectangular temporal engines: **overlapped (ghost-zone) tiling**
//! (Meng & Skadron, the paper's reference \[22\]; Ding & He's ghost-cell
//! expansion, reference \[9\]). Both schemes share the properties the
//! evaluation depends on — every tile advances `VL` time levels per
//! synchronization, all tiles of a band run concurrently, and the
//! in-tile kernel is exactly the sequential engine — so the scalability
//! *shape* of Figure 4(b/d/f/h/j) is preserved; the ghost scheme pays a
//! small redundant-compute overhead (`2·height` columns per tile per band)
//! instead of the diamond's phase alternation. The substitution is
//! recorded in the README ("Multicore execution model").
//!
//! # One reusable workspace
//!
//! [`GhostJacobi`] is generic over the kernel
//! ([`KernelSpace`]): one type serves Heat-1D, Heat-2D, 2D9P, Life and
//! Heat-3D. It resolves the geometry and the in-tile engine once,
//! allocates the per-tile buffer grids and in-tile scratch once, and is
//! then driven by repeated `advance(&mut grid, &pool)` calls that run
//! **allocation-free**. This is the execution layer behind
//! `tempora_plan::Plan`.
//!
//! # Engine dispatch
//!
//! The temporal in-tile kernel goes through the same dispatch as the
//! sequential engines: the workspace takes a [`Select`], resolves it
//! **once** against the kernel's AVX2 capability
//! ([`KernelSpace::has_avx2_tile`]) and the tile geometry, and reports
//! the resolved [`Engine`] so the bench harness can record which steady
//! state the parallel series actually measured. Degenerate geometries —
//! no full band, or tiles too narrow to host a vector steady state —
//! resolve portable, because every engine would run the identical scalar
//! schedule there.
//!
//! The resolved engine is also the **codegen context** of everything a
//! tile executes — boundary phases, remainder steps — and the scalar and
//! multi-load modes, which report no engine, still follow the [`Select`]
//! for theirs (`sel.resolve(true)`: AVX2+FMA code when the policy and the
//! CPU allow it), so the "scalar" and "auto" curves are not measured
//! through libm `fma` calls.
//!
//! # Correctness (contamination argument)
//!
//! Each tile copies its block plus `height + 1` extra slabs per side into a
//! private buffer and advances the buffer `height` levels treating the buffer
//! ends as Dirichlet cells. The values near the buffer edge are wrong
//! (they use the fake boundary), but a radius-1 stencil propagates the
//! error at most one slab per level, so after `height` levels the
//! invalid region is exactly the `height` outermost slabs per side — strictly
//! inside the ghost. The written-back interior is bit-identical to the
//! sequential result.
//!
//! # Parallel discipline
//!
//! Each band is two barrier-separated phases: **copy-in** (tiles read the
//! shared array, write only their private buffers) and **advance +
//! write-back** (tiles write only their own disjoint blocks, read nothing
//! shared). The pool barrier between the phases is what makes the
//! overlapping ghost reads race-free. Per-tile scratch slots are touched
//! only by their owning tile.
//!
//! Both phases run under [`Pool::for_each_owned`] **static ownership**:
//! tile `t` is advanced by the same worker in every band of every
//! `advance` call, and [`GhostJacobi::fault_in`] first-touches each
//! tile's buffer through the pool with the *same* owner map, so on NUMA
//! machines a tile's pages live on the node of the worker that computes
//! it.

use tempora_core::engine::{Elem, Engine, KernelSpace, Select};
use tempora_grid::{Boundary, SlabGrid};
use tempora_parallel::{Pool, SyncSlice};

/// Which in-tile kernel advances a ghost buffer by `VL` levels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Scalar in-place steps (the paper's "scalar" parallel curves).
    Scalar,
    /// Spatial multi-load vectorization (the paper's "auto" curves).
    Auto,
    /// Temporal vectorization with the given space stride (the paper's
    /// "our" curves); the concrete steady state — portable or AVX2 — is
    /// resolved from the runner's [`Select`].
    Temporal(usize),
}

/// Tile extents along the banded dimension: interior block `[a, b]` and
/// ghost-extended source range `[lo, hi]` (global coordinates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileExtent {
    /// First owned cell.
    pub a: usize,
    /// Last owned cell.
    pub b: usize,
    /// First copied cell (ghost start, may be a halo cell).
    pub lo: usize,
    /// Last copied cell (ghost end, may be a halo cell).
    pub hi: usize,
}

/// Compute the extents of tile `t` for interior size `n`, block width
/// `block` and ghost width `ghost`.
pub fn tile_extent(t: usize, n: usize, block: usize, ghost: usize) -> TileExtent {
    let a = t * block + 1;
    let b = ((t + 1) * block).min(n);
    TileExtent {
        a,
        b,
        lo: a.saturating_sub(ghost),
        hi: (b + ghost).min(n + 1),
    }
}

/// Per-tile in-tile state, allocated once per workspace so the band loop
/// runs allocation-free.
enum TileState<K: KernelSpace> {
    /// Old-slab buffers of the scalar in-place step.
    Scalar(K::StepBufs),
    /// Multi-load ping-pong buffer.
    Auto(K::Grid),
    /// Temporal scratch (portable or AVX2 steady state, per the resolved
    /// engine — both run at `K::VL` lanes and share it).
    Temporal(K::Scratch),
}

impl<K: KernelSpace> TileState<K> {
    fn new(mode: Mode, buf: &K::Grid) -> Self {
        match mode {
            Mode::Scalar => TileState::Scalar(K::step_bufs(buf.dims())),
            Mode::Auto => TileState::Auto(buf.clone()),
            Mode::Temporal(s) => TileState::Temporal(K::scratch(buf.dims(), s)),
        }
    }
}

/// Reusable ghost-zone workspace for Jacobi band tiling along the outer
/// dimension, for any kernel and dimensionality: geometry and in-tile
/// engine resolved once in [`GhostJacobi::new`], per-tile buffer grids
/// and in-tile state allocated once, then reused by every
/// [`GhostJacobi::advance`] call — the band loop is allocation-free.
pub struct GhostJacobi<K: KernelSpace> {
    kern: K,
    steps: usize,
    block: usize,
    height: usize,
    engine: Option<Engine>,
    /// Codegen context of every in-tile kernel and remainder step: the
    /// resolved temporal engine, or the selection's for the other modes.
    isa: Engine,
    dims: [usize; 3],
    /// `bufs[t]`: tile `t`'s block plus `height + 1` ghost slabs per side.
    bufs: Vec<K::Grid>,
    states: Vec<TileState<K>>,
    mode: Mode,
    rem: K::StepBufs,
}

impl<K: KernelSpace> GhostJacobi<K> {
    /// Build a workspace for interior extents `dims` (outer first) with
    /// boundary `bc`: bands of `height` time levels, blocks of `block`
    /// outer slabs. For [`Mode::Temporal`], `sel` picks the in-tile
    /// steady state (resolved here, once).
    ///
    /// # Panics
    /// Panics when `block == 0` or `height` is not a positive multiple of
    /// the kernel's vector length (`tempora_plan` validates these ahead of
    /// time and returns a `PlanError` instead).
    // Justification: the parameter list is the ghost-tile contract (kernel, shape, time extent, tile geometry, in-tile scheme); a params struct would obscure it.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kern: K,
        dims: [usize; 3],
        bc: Boundary<Elem<K>>,
        steps: usize,
        block: usize,
        height: usize,
        mode: Mode,
        sel: Select,
    ) -> Self {
        assert!(block >= 1);
        assert!(
            height >= K::VL && height % K::VL == 0,
            "height must be a multiple of {}",
            K::VL
        );
        let n = dims[0];
        let ghost = height + 1;
        let bands = steps / height;
        let extents = (0..n.div_ceil(block)).map(|t| tile_extent(t, n, block, ghost));
        // Resolve the in-tile engine: the kernel must have an AVX2 tile at
        // this stride, at least one full band must run, and **every**
        // tile buffer must be wide enough to host the vector steady state
        // (interior `hi - lo - 1 ≥ VL·s`, the engines' own vector-path
        // minimum) — otherwise some tile would silently run the scalar
        // fallback schedule and the reported engine would misname the
        // instruction mix.
        let engine = match mode {
            Mode::Temporal(s) => Some(sel.resolve(
                K::has_avx2_tile(s)
                    && bands > 0
                    && extents.clone().all(|e| e.hi - e.lo > K::VL * s),
            )),
            _ => None,
        };
        let bufs: Vec<K::Grid> = extents
            .map(|e| K::Grid::with_dims([e.hi - e.lo - 1, dims[1], dims[2]], bc))
            .collect();
        GhostJacobi {
            kern,
            steps,
            block,
            height,
            engine,
            isa: engine.unwrap_or_else(|| sel.resolve(true)),
            dims,
            states: bufs.iter().map(|b| TileState::new(mode, b)).collect(),
            bufs,
            mode,
            rem: K::step_bufs(dims),
        }
    }

    /// The in-tile engine this workspace resolved to (`None` for the
    /// non-dispatched scalar/auto modes).
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Number of tiles per band.
    pub fn tiles(&self) -> usize {
        self.bufs.len()
    }

    /// First-touch the workspace through `pool`: tile `t`'s buffer pages
    /// are faulted in (and its in-tile state re-allocated) by the worker
    /// that [`GhostJacobi::advance`] will later run tile `t` on — the
    /// owned schedule's `tiles()`-sized owner map is identical in both
    /// calls. Purely a placement optimization; results are unchanged
    /// whether or not it runs.
    pub fn fault_in(&mut self, pool: &Pool) {
        tempora_failpoint::failpoint!("fault_in");
        let mode = self.mode;
        let bufs_shared = SyncSlice::new(&mut self.bufs);
        let states_shared = SyncSlice::new(&mut self.states);
        pool.for_each_owned(bufs_shared.len(), |t| {
            // SAFETY: tile t touches only its own buffer grid `bufs[t]`
            // (the same ownership advance relies on).
            let buf = unsafe { &mut bufs_shared.slice_mut()[t] };
            crate::touch_pages(buf.data_mut());
            // SAFETY: tile t writes only its own state slot `states[t]`;
            // slots are disjoint across tiles.
            let st = unsafe { &mut states_shared.slice_mut()[t] };
            *st = TileState::new(mode, buf);
        });
    }

    /// Advance `g` by the workspace's `steps` time levels in place, tiles
    /// of one band executed in parallel on `pool`. Results are
    /// bit-identical to the sequential engines and the scalar reference
    /// under every mode, selection and thread count.
    ///
    /// # Panics
    /// Panics if `g` does not match the workspace geometry.
    pub fn advance(&mut self, g: &mut K::Grid, pool: &Pool) {
        assert_eq!(g.halo(), 1);
        assert_eq!(
            g.dims(),
            self.dims,
            "grid does not match workspace geometry"
        );
        let Self {
            kern,
            bufs,
            states,
            rem,
            ..
        } = self;
        let (n, block, height) = (self.dims[0], self.block, self.height);
        let s = match self.mode {
            Mode::Temporal(s) => s,
            _ => 0,
        };
        let ghost = height + 1;
        let ntiles = bufs.len();
        let isa = self.isa;
        // Elements per outer slab — identical in `g` and in every buffer,
        // which share the inner extents.
        let slab = g.slab();

        for _ in 0..self.steps / height {
            let shared = SyncSlice::new(g.data_mut());
            let bufs_shared = SyncSlice::new(bufs);
            let states_shared = SyncSlice::new(states);
            // Phase A: copy-in (shared array is read-only here). Owned
            // scheduling: tile t always runs on the worker that
            // fault_in placed its pages on.
            pool.for_each_owned(ntiles, |t| {
                // SAFETY: phase A — the global array is only read, so
                // overlapping views across tiles never alias a write.
                let global = unsafe { shared.slice_mut() };
                // SAFETY: phase A — tile t writes only its own bufs[t].
                let buf = unsafe { &mut bufs_shared.slice_mut()[t] };
                let e = tile_extent(t, n, block, ghost);
                let slabs = e.hi - e.lo + 1;
                buf.data_mut()[..slabs * slab]
                    .copy_from_slice(&global[e.lo * slab..(e.hi + 1) * slab]);
            });
            // Phase B: advance private buffers, write back disjoint blocks.
            pool.for_each_owned(ntiles, |t| {
                // SAFETY: phase B — tile t's global writes are its own
                // disjoint slab block [a, b]; no shared reads.
                let global = unsafe { shared.slice_mut() };
                // SAFETY: phase B — bufs[t] is tile t's own slot.
                let buf = unsafe { &mut bufs_shared.slice_mut()[t] };
                // SAFETY: phase B — states[t] is tile t's own slot.
                let st = unsafe { &mut states_shared.slice_mut()[t] };
                match st {
                    TileState::Scalar(step) => {
                        for _ in 0..height {
                            kern.scalar_step(isa, buf, step);
                        }
                    }
                    TileState::Auto(tmp) => {
                        // Refresh the ping-pong buffer (including halo
                        // slabs, which the copy-in phase rewrote in `buf`).
                        // `height` is even (a multiple of VL), so the
                        // last step lands back in `buf`.
                        tmp.data_mut().copy_from_slice(buf.data());
                        for _ in 0..height / 2 {
                            kern.multiload_step(isa, buf, tmp);
                            kern.multiload_step(isa, tmp, buf);
                        }
                    }
                    TileState::Temporal(sc) => {
                        for _ in 0..height / K::VL {
                            kern.tile::<false>(isa, buf, s, sc);
                        }
                    }
                }
                let e = tile_extent(t, n, block, ghost);
                let off = e.a - e.lo;
                global[e.a * slab..(e.b + 1) * slab]
                    .copy_from_slice(&buf.data()[off * slab..(off + e.b - e.a + 1) * slab]);
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
    use tempora_core::kernels::{BoxKern2d, JacobiKern1d, JacobiKern2d, JacobiKern3d, LifeKern2d};
    use tempora_grid::{
        fill_random_1d, fill_random_2d, fill_random_3d, fill_random_life, Grid1, Grid2, Grid3,
    };
    use tempora_stencil::reference;
    use tempora_stencil::{Box2dCoeffs, Heat1dCoeffs, Heat2dCoeffs, Heat3dCoeffs, LifeRule};

    /// Advance a copy of `g` with workspace `w`; returns it with the
    /// resolved engine.
    fn run<K: KernelSpace>(
        mut w: GhostJacobi<K>,
        g: &K::Grid,
        pool: &Pool,
    ) -> (K::Grid, Option<Engine>) {
        let mut g = g.clone();
        w.advance(&mut g, pool);
        (g, w.engine())
    }

    #[test]
    fn extents_partition_domain() {
        for &(n, block) in &[(100usize, 17usize), (64, 64), (10, 3)] {
            let ntiles = n.div_ceil(block);
            let mut covered = 0;
            for t in 0..ntiles {
                let e = tile_extent(t, n, block, 5);
                assert_eq!(e.a, covered + 1);
                covered = e.b;
                assert!(e.lo <= e.a && e.hi >= e.b && e.hi <= n + 1);
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn ghost_1d_all_modes_match_reference() {
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            for &(n, block, steps) in &[(200usize, 64usize, 8usize), (333, 50, 13), (64, 100, 4)] {
                let bc = Boundary::Dirichlet(0.5);
                let mut g = Grid1::new(n, 1, bc);
                fill_random_1d(&mut g, n as u64, -1.0, 1.0);
                let gold = reference::heat1d(&g, c, steps);
                for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(7)] {
                    let w =
                        GhostJacobi::new(kern, g.dims(), bc, steps, block, 4, mode, Select::Auto);
                    let (ours, _) = run(w, &g, &pool);
                    assert!(
                        ours.interior_eq(&gold),
                        "threads={threads} n={n} block={block} steps={steps} mode={mode:?} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
    }

    #[test]
    fn ghost_1d_workspace_reuse_is_identical_and_allocation_free() {
        let c = Heat1dCoeffs::classic(0.25);
        let pool = Pool::new(2);
        let bc = Boundary::Dirichlet(0.0);
        let mut g0 = Grid1::new(300, 1, bc);
        fill_random_1d(&mut g0, 17, -1.0, 1.0);
        let mode = Mode::Temporal(7);
        let mut w = GhostJacobi::new(JacobiKern1d(c), g0.dims(), bc, 8, 64, 4, mode, Select::Auto);
        let mut a = g0.clone();
        w.advance(&mut a, &pool);
        // Second use of the same workspace on a fresh state must agree
        // with a fresh workspace bit-for-bit and allocate nothing. The
        // counter is process-global and sibling tests allocate
        // concurrently, so retry until a clean window: if `advance`
        // itself allocated, every window would show a delta.
        let mut b = g0.clone();
        let mut clean = false;
        for _ in 0..32 {
            b = g0.clone();
            let before = tempora_grid::alloc_count();
            w.advance(&mut b, &pool);
            if tempora_grid::alloc_count() == before {
                clean = true;
                break;
            }
        }
        assert!(clean, "advance allocated in every observed window");
        assert!(a.interior_eq(&b));
        assert!(a.interior_eq(&reference::heat1d(&g0, c, 8)));
    }

    #[test]
    fn ghost_1d_engine_report_is_honest() {
        let kern = JacobiKern1d(Heat1dCoeffs::classic(0.25));
        let pool = Pool::new(2);
        // n divisible by block: every tile (runt included) hosts the
        // vector steady state at s = 7.
        let bc = Boundary::Dirichlet(0.0);
        let mut g = Grid1::new(448, 1, bc);
        fill_random_1d(&mut g, 3, -1.0, 1.0);
        let engine = |block, mode, sel| {
            run(
                GhostJacobi::new(kern, g.dims(), bc, 8, block, 4, mode, sel),
                &g,
                &pool,
            )
            .1
        };
        // Non-temporal modes never dispatch.
        assert_eq!(engine(64, Mode::Scalar, Select::Auto), None);
        // Forced portable reports portable.
        assert_eq!(
            engine(64, Mode::Temporal(7), Select::Portable),
            Some(Engine::Portable)
        );
        // A degenerate geometry (block so narrow that every tile falls
        // back to the scalar schedule) must resolve portable even when
        // AVX2 is available.
        assert_eq!(
            engine(2, Mode::Temporal(7), Select::Auto),
            Some(Engine::Portable)
        );
        // On an AVX2 host, a healthy geometry resolves avx2 under Auto.
        if tempora_simd::arch::avx2_available() {
            assert_eq!(
                engine(64, Mode::Temporal(7), Select::Auto),
                Some(Engine::Avx2)
            );
        }
    }

    #[test]
    fn ghost_2d_star_and_box_match_reference() {
        let pool = Pool::new(2);
        let c = Heat2dCoeffs::classic(0.12);
        let bc = Boundary::Dirichlet(0.1);
        let mut g = Grid2::new(60, 13, 1, bc);
        fill_random_2d(&mut g, 9, -1.0, 1.0);
        let gold = reference::heat2d(&g, c, 8);
        let cb = Box2dCoeffs::smooth(0.08);
        let goldb = reference::box2d(&g, cb, 8);
        for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(2)] {
            let w = GhostJacobi::new(JacobiKern2d(c), g.dims(), bc, 8, 16, 8, mode, Select::Auto);
            let (ours, _) = run(w, &g, &pool);
            assert!(
                ours.interior_eq(&gold),
                "mode={mode:?} {:?}",
                ours.first_diff(&gold)
            );
            let w = GhostJacobi::new(BoxKern2d(cb), g.dims(), bc, 8, 16, 4, mode, Select::Auto);
            assert!(run(w, &g, &pool).0.interior_eq(&goldb), "box mode={mode:?}");
        }
    }

    #[test]
    fn ghost_2d_life_vl8_matches_reference() {
        let pool = Pool::new(2);
        let rule = LifeRule::b2s23();
        let kern = LifeKern2d(rule);
        let bc = Boundary::Dirichlet(0);
        let mut g = Grid2::<i32>::new(70, 20, 1, bc);
        fill_random_life(&mut g, 4, 0.4);
        let gold = reference::life(&g, rule, 16);
        let life = |block, mode, sel| {
            run(
                GhostJacobi::new(kern, g.dims(), bc, 16, block, 8, mode, sel),
                &g,
                &pool,
            )
        };
        for mode in [Mode::Scalar, Mode::Temporal(2)] {
            let (ours, e) = life(24, mode, Select::Auto);
            assert!(
                ours.interior_eq(&gold),
                "life mode={mode:?} {:?}",
                ours.first_diff(&gold)
            );
            // Life carries the AVX2 integer steady state: on AVX2 hosts
            // this healthy geometry resolves avx2 under Auto.
            if let Mode::Temporal(_) = mode {
                let expect = if tempora_simd::arch::avx2_available() {
                    Engine::Avx2
                } else {
                    Engine::Portable
                };
                assert_eq!(e, Some(expect));
            }
        }
        // Forced portable stays portable, bit-identically.
        let (ours, e) = life(24, Mode::Temporal(2), Select::Portable);
        assert!(ours.interior_eq(&gold));
        assert_eq!(e, Some(Engine::Portable));
        // A block too narrow for the 8-lane steady state resolves
        // portable even under Auto.
        let (ours, e) = life(2, Mode::Temporal(8), Select::Auto);
        assert!(ours.interior_eq(&gold));
        assert_eq!(e, Some(Engine::Portable));
    }

    /// Results of two identical workspaces, the second one faulted in.
    fn plain_and_faulted<K: KernelSpace>(
        mk: impl Fn() -> GhostJacobi<K>,
        g: &K::Grid,
        pool: &Pool,
    ) -> (K::Grid, K::Grid) {
        let mut faulted = mk();
        faulted.fault_in(pool);
        (run(mk(), g, pool).0, run(faulted, g, pool).0)
    }

    #[test]
    fn fault_in_preserves_results_bitwise() {
        let pool = Pool::new(4);
        let (k1, bc1) = (
            JacobiKern1d(Heat1dCoeffs::classic(0.25)),
            Boundary::Dirichlet(0.0),
        );
        let mut g1 = Grid1::new(300, 1, bc1);
        fill_random_1d(&mut g1, 17, -1.0, 1.0);
        let (k2, bc2) = (
            JacobiKern2d(Heat2dCoeffs::classic(0.12)),
            Boundary::Dirichlet(0.1),
        );
        let mut g2 = Grid2::new(60, 13, 1, bc2);
        fill_random_2d(&mut g2, 9, -1.0, 1.0);
        let (k3, bc3) = (
            JacobiKern3d(Heat3dCoeffs::classic(0.1)),
            Boundary::Dirichlet(-0.2),
        );
        let mut g3 = Grid3::new(40, 6, 7, 1, bc3);
        fill_random_3d(&mut g3, 11, -1.0, 1.0);
        for (mode1, mode) in [
            (Mode::Scalar, Mode::Scalar),
            (Mode::Auto, Mode::Auto),
            (Mode::Temporal(7), Mode::Temporal(2)),
        ] {
            let mk = || GhostJacobi::new(k1, g1.dims(), bc1, 8, 64, 4, mode1, Select::Auto);
            let (a, b) = plain_and_faulted(mk, &g1, &pool);
            assert!(a.interior_eq(&b), "1d mode={mode1:?}");
            let mk = || GhostJacobi::new(k2, g2.dims(), bc2, 8, 16, 8, mode, Select::Auto);
            let (a, b) = plain_and_faulted(mk, &g2, &pool);
            assert!(a.interior_eq(&b), "2d mode={mode:?}");
            let mk = || GhostJacobi::new(k3, g3.dims(), bc3, 9, 12, 4, mode, Select::Auto);
            let (a, b) = plain_and_faulted(mk, &g3, &pool);
            assert!(a.interior_eq(&b), "3d mode={mode:?}");
        }
    }

    #[test]
    fn ghost_3d_matches_reference() {
        let pool = Pool::new(2);
        let c = Heat3dCoeffs::classic(0.1);
        let bc = Boundary::Dirichlet(-0.2);
        let mut g = Grid3::new(40, 6, 7, 1, bc);
        fill_random_3d(&mut g, 11, -1.0, 1.0);
        let gold = reference::heat3d(&g, c, 9); // 2 bands + 1 remainder
        for mode in [Mode::Scalar, Mode::Auto, Mode::Temporal(2)] {
            let w = GhostJacobi::new(JacobiKern3d(c), g.dims(), bc, 9, 12, 4, mode, Select::Auto);
            let (ours, _) = run(w, &g, &pool);
            assert!(
                ours.interior_eq(&gold),
                "mode={mode:?} {:?}",
                ours.first_diff(&gold)
            );
        }
    }
}
