//! Unified engine dispatch: one place that decides, per workload, whether
//! its sweeps run in the portable register form (`Packs`, compiled for
//! baseline x86-64) or in the `std::arch` AVX2 one (`Ymm`, compiled inside
//! an AVX2+FMA sandwich).
//!
//! The entry point is the `tempora_plan` crate's
//! `Problem → PlanBuilder → Plan → Report` lifecycle, which resolves the
//! selection once per plan, reuses scratch across runs and reports the
//! [`Engine`] that actually executed, so callers (the bench harness in
//! particular) can state honestly which instruction mix was measured.
//! Everything above the tile — the pipelined-sweep workspace, plan
//! executors, the plan builder — reaches the kernels through one trait,
//! [`KernelSpace`], so those layers are written once for all
//! dimensionalities. The selection policy is a three-valued [`Select`]:
//!
//! * [`Select::Auto`] (the default) — the AVX2+FMA engine whenever the
//!   CPU supports it and the shape reaches it, portable otherwise;
//! * [`Select::Portable`] — always the portable pack engine;
//! * [`Select::Avx2`] — require the AVX2 engine (panics if the CPU lacks
//!   AVX2+FMA; an LCS shape that never reaches the vector steady state
//!   still resolves to portable, reported as such).
//!
//! Every workload's steady state is one source instantiated per engine
//! (see [`tempora_simd::Lanes`]): the f64 kernels run at `vl = 4` double
//! lanes, and the two integer workloads — Life and LCS — at the paper's
//! `vl = 8` i32 lanes. The grid kernels resolve
//! by capability alone: a shape that never reaches the vector steady
//! state — fewer than one full `vl`-level time tile, or an outer extent
//! below `vl·s` — runs the scalar schedule in every engine, but the
//! engine is also the codegen context (below), and the scalar schedule
//! compiled for baseline x86-64 pays a libm `fma` call per point: twenty
//! times the AVX2 context's cost. So such a shape resolves AVX2 where the
//! CPU has it and reports the context that ran it. LCS has no `mul_add`:
//! its degenerate shapes (a row segment below `vl·s + 1`, fewer than `vl`
//! rows) run the one portable code there is and report it.
//!
//! The selection is overridable at process level through the
//! `TEMPORA_ENGINE` environment variable (`auto` | `portable` | `avx2`,
//! read by [`Select::from_env`]); the `repro` harness records both the
//! selection and the per-series resolved engine in its JSON output.
//!
//! All engines are bit-identical to the scalar oracles, so dispatch never
//! changes results — only speed.
//!
//! # One codegen context per resolved engine
//!
//! The resolved [`Engine`] names more than the steady state: every
//! [`KernelSpace`] method takes it and runs *everything* — sweep prologue
//! and epilogue, remainder scalar steps, the spatial multi-load steps — in
//! that engine's codegen context. The phase functions, steady states
//! included, are one `#[inline(always)]` source, instantiated once for
//! baseline x86-64 with `Packs` and once inside
//! `#[target_feature(enable = "avx2,fma")]` sandwiches with `Ymm` — for
//! the 2-D/3-D kernels a single one, [`crate::slab_avx2`], generic over
//! the kernel's row updates, so their one impl below (a macro, one line
//! per kernel) names a grid, a lane count and `Rows2`/`Rows3` and forwards
//! to [`crate::slab`]. The reason is
//! `f64::mul_add`: outside a feature context it is a call into libm's
//! `fma` (≈ 3 ns), inside it is one `vfmadd`. Both are the
//! exactly-rounded fused operation and Rust never contracts separate
//! `*`/`+`, so results are bit-identical; only the boundary code stops
//! running 20× slower per point than the vector loop it brackets.
//! [`Engine::Avx2`] is only ever resolved on x86-64 with AVX2+FMA
//! present; on other targets the AVX2 arms are compiled out and every
//! engine value runs the portable instantiation.

use crate::kernels::{
    BoxKern2d, GsKern2d, GsKern3d, JacobiKern2d, JacobiKern3d, Kernel1d, Kernel2d, Kernel3d,
    LifeKern2d,
};
use crate::slab::{self, Rows2, Rows3, Scratch};
use crate::t1d::Scratch1d;
use crate::{spatial, t1d};
use core::ops::RangeInclusive;
use tempora_grid::{Grid1, Grid2, Grid3, SlabGrid, SlabLayout, Slabs, SlabsMut};
use tempora_simd::arch::avx2_available;
use tempora_simd::Packs;
#[cfg(target_arch = "x86_64")]
use {
    crate::{slab_avx2, t1d_avx2},
    tempora_simd::arch::Ymm,
};

/// Environment variable consulted by [`Select::from_env`].
pub const ENV_VAR: &str = "TEMPORA_ENGINE";

/// Engine-selection policy (see the [module docs](self)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Select {
    /// Best available: AVX2 where supported and implemented, else portable.
    #[default]
    Auto,
    /// Force the portable pack engine.
    Portable,
    /// Require the `std::arch` AVX2 engine (panics without AVX2+FMA).
    Avx2,
}

impl Select {
    /// Parse a selection name (`auto` | `portable` | `avx2`,
    /// case-insensitive; the empty string means `auto`).
    pub fn parse(s: &str) -> Option<Select> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Some(Select::Auto),
            "portable" => Some(Select::Portable),
            "avx2" => Some(Select::Avx2),
            _ => None,
        }
    }

    /// Read the selection from the `TEMPORA_ENGINE` environment variable
    /// ([`Select::Auto`] when unset).
    ///
    /// # Panics
    /// Panics on an unrecognized value, so typos fail loudly instead of
    /// silently benchmarking the wrong engine.
    pub fn from_env() -> Select {
        match std::env::var(ENV_VAR) {
            Ok(v) => Select::parse(&v).unwrap_or_else(|| {
                panic!("{ENV_VAR}={v:?} not recognized (expected auto | portable | avx2)")
            }),
            Err(_) => Select::Auto,
        }
    }

    /// The canonical name of this selection (`auto` | `portable` | `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Select::Auto => "auto",
            Select::Portable => "portable",
            Select::Avx2 => "avx2",
        }
    }

    /// Resolve the policy against CPU capability and whether the workload
    /// reaches an AVX2 codegen context. Public so the tiled layer
    /// (`tempora-tiling`) can resolve its in-tile engine **once per run**
    /// and report it honestly.
    pub fn resolve(self, has_avx2_impl: bool) -> Engine {
        match self {
            Select::Portable => Engine::Portable,
            Select::Auto => {
                if has_avx2_impl && tempora_simd::arch::avx2_available() {
                    Engine::Avx2
                } else {
                    Engine::Portable
                }
            }
            Select::Avx2 => {
                assert!(
                    tempora_simd::arch::avx2_available(),
                    "{ENV_VAR}=avx2 requested but this CPU lacks AVX2+FMA"
                );
                if has_avx2_impl {
                    Engine::Avx2
                } else {
                    Engine::Portable
                }
            }
        }
    }
}

/// The concrete steady state a dispatch decision resolved to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The portable `Pack` engine (LLVM auto-selection).
    Portable,
    /// The `std::arch` AVX2+FMA engine.
    Avx2,
}

/// The register form of [`Engine::Avx2`], on the way into a sandwich.
///
/// # Panics
/// Panics if the CPU lacks AVX2+FMA: no selection resolves
/// [`Engine::Avx2`] there.
#[cfg(target_arch = "x86_64")]
pub(crate) fn ymm() -> Ymm {
    // Panic-justification: `Select::resolve` yields `Engine::Avx2` only
    // after `avx2_available()`; a hand-made one on a lesser CPU stops here.
    Ymm::detect().expect("AVX2+FMA not available on this CPU")
}

impl Engine {
    /// The engine name as recorded in bench output (`portable` | `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Portable => "portable",
            Engine::Avx2 => "avx2",
        }
    }
}

// ---------------------------------------------------------------------
// One kernel-space trait for everything above the tile
// ---------------------------------------------------------------------

/// The element type of kernel `K`'s grid, as its boundary condition
/// spells it.
pub type Elem<K> = <<K as KernelSpace>::Grid as SlabGrid>::Elem;

/// What the layers above the tile — the pipelined-sweep workspace of
/// `tempora-tiling`, the executors and the builder of `tempora-plan` —
/// need from one kernel, and nothing else. Each benchmark kernel
/// implements it once, naming its grid type, lane count and scratch and
/// forwarding to its sweep primitives (`t1d*`, or [`crate::slab`] with the
/// kernel's row updates), so those layers are written once and every call
/// monomorphises to the same loop a hand-written per-dimension caller
/// would contain.
///
/// # Parts and windows
///
/// The three primitives — [`sweep`](KernelSpace::sweep) (one temporal
/// sweep, `VL` levels), [`scalar_sweep`](KernelSpace::scalar_sweep) and
/// [`multiload_sweep`](KernelSpace::multiload_sweep) (one level each) —
/// advance a **range of outer slabs** of a grid given as its
/// [`SlabLayout`] plus a [`SlabsMut`] window of its storage, and document
/// the slabs they touch; everything a sweep has in flight at the end of
/// the range is left in the scratch it was given, so the ranges of one
/// sweep can be run as separate **parts**, in ascending order, and a
/// second sweep can follow through the same array as soon as the slabs
/// its next part touches are final. There are no whole-grid forms: an
/// untiled run hands the same primitives the one part `1 ..= x_max`
/// (`1 ..= nx` for the one-level kinds) and the whole grid as its window.
///
/// Extents travel as `[outer, middle, inner]` with unused trailing
/// dimensions 1 (see [`SlabGrid::dims`]).
pub trait KernelSpace: Copy + Send + Sync + 'static {
    /// The grid this kernel advances.
    type Grid: SlabGrid;
    /// Everything one temporal sweep has in flight: what its parts hand
    /// each other. The portable and the AVX2 steady state both run at
    /// [`KernelSpace::VL`] lanes and share it.
    type Scratch: Send;
    /// What the parts of an in-place scalar step hand each other: the old
    /// values already overwritten and still needed (a cell in 1-D, two
    /// slabs above).
    type StepBufs: Send;

    /// Production lane count: 4 `f64` lanes, 8 `i32` lanes for Life. One
    /// temporal sweep advances this many time levels.
    const VL: usize;
    /// Minimum legal temporal stride (the kernel's dependence bound).
    const MIN_STRIDE: usize;
    /// Maximum supported temporal stride (the 1-D ring has a fixed
    /// capacity; the 2-D/3-D rings live in scratch).
    const MAX_STRIDE: usize = usize::MAX;

    /// Allocate sweep scratch for interior extents `dims` and stride `s`.
    fn scratch(dims: [usize; 3], s: usize) -> Self::Scratch;

    /// Allocate scalar-step state for interior extents `dims`.
    fn step_bufs(dims: [usize; 3]) -> Self::StepBufs;

    /// The anchors `xs ⊆ 1 ..= x_max` (`x_max = nx + 1 - VL·s`) of one
    /// temporal sweep — [`KernelSpace::VL`] levels, in place — with the
    /// resolved `engine` (bit-identical either way): the prologue when
    /// `xs` starts at 1, the steady state over `xs`, the epilogue when
    /// `xs` ends at `x_max`. Touches the slabs from `xs.start()` (from
    /// ghost slab 0 with the prologue) to `xs.end() + VL·s` (to ghost slab
    /// `nx + 1` with the epilogue), which `a` must hold. [`Engine::Avx2`]
    /// needs [`KernelSpace::has_avx2_tile`]. `COUNT` turns on the steady
    /// state's reorganization-op accounting ([`tempora_simd::count`]).
    ///
    /// # Panics
    /// Panics when the outer extent cannot host the vector schedule
    /// (`nx < VL·s`; run scalar sweeps instead, as `tempora_tiling::Sweeps`
    /// does).
    // Justification: kernel, codegen context, grid geometry, window, range, stride and carried state are the part's contract; a params struct would only rename it.
    #[allow(clippy::too_many_arguments)]
    fn sweep<const COUNT: bool>(
        &self,
        engine: Engine,
        lay: &SlabLayout<Elem<Self>>,
        a: SlabsMut<'_, Elem<Self>>,
        xs: RangeInclusive<usize>,
        s: usize,
        sc: &mut Self::Scratch,
    );

    /// The slabs `xs ⊆ 1 ..= nx` of one in-place scalar time step in
    /// `engine`'s codegen context, bit-identical to the reference.
    /// Touches slabs `xs.start() - 1 ..= xs.end() + 1`, which `a` must
    /// hold.
    fn scalar_sweep(
        &self,
        engine: Engine,
        lay: &SlabLayout<Elem<Self>>,
        a: SlabsMut<'_, Elem<Self>>,
        xs: RangeInclusive<usize>,
        bufs: &mut Self::StepBufs,
    );

    /// The slabs `xs ⊆ 1 ..= nx` of one multi-load (spatially vectorized)
    /// Jacobi step `dst = S(src)` in `engine`'s codegen context: reads
    /// slabs `xs.start() - 1 ..= xs.end() + 1` of `src` and writes the
    /// interior of slabs `xs` of `dst`.
    fn multiload_sweep(
        &self,
        engine: Engine,
        lay: &SlabLayout<Elem<Self>>,
        src: Slabs<'_, Elem<Self>>,
        dst: SlabsMut<'_, Elem<Self>>,
        xs: RangeInclusive<usize>,
    );

    /// True when the CPU supports AVX2+FMA, and with it this kernel's
    /// AVX2 sweeps at every stride it accepts — a `true` return is the
    /// licence to pass [`Engine::Avx2`] to [`KernelSpace::sweep`]. Always
    /// false off x86-64 and under Miri.
    fn has_avx2_tile() -> bool {
        avx2_available()
    }

    /// Resolve `sel` for this kernel's runs, whatever their stride and
    /// shape: AVX2 wherever the CPU has the features. A run too short or
    /// too narrow for the vector schedule runs scalar steps in the same
    /// codegen context (see the [module docs](self)).
    fn resolve(sel: Select) -> Engine {
        sel.resolve(Self::has_avx2_tile())
    }
}

/// Every 1-D kernel — Heat-1D and GS-1D — through [`t1d`] at four `f64`
/// lanes; the slab of a line is a cell, so only the outer extent of the
/// layout is read.
impl<K: Kernel1d + Send + 'static> KernelSpace for K {
    type Grid = Grid1<f64>;
    type Scratch = Scratch1d<4>;
    /// The old value of the last cell updated (Jacobi's west operand).
    type StepBufs = f64;
    const VL: usize = 4;
    const MIN_STRIDE: usize = <K as Kernel1d>::MIN_STRIDE;
    const MAX_STRIDE: usize = t1d::RING_CAP - 1;

    fn scratch(_dims: [usize; 3], s: usize) -> Scratch1d<4> {
        Scratch1d::new(s)
    }

    fn step_bufs(_dims: [usize; 3]) -> f64 {
        0.0
    }

    fn sweep<const COUNT: bool>(
        &self,
        engine: Engine,
        lay: &SlabLayout<f64>,
        a: SlabsMut<'_, f64>,
        xs: RangeInclusive<usize>,
        s: usize,
        sc: &mut Scratch1d<4>,
    ) {
        let (first, a, n) = (a.first, a.data, lay.nx);
        match engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2 => t1d_avx2::sweep::<COUNT, K>(ymm(), a, first, n, self, s, sc, xs),
            _ => t1d::sweep_body::<4, COUNT, false, K, _>(Packs, a, first, n, self, s, sc, xs),
        }
    }

    fn scalar_sweep(
        &self,
        engine: Engine,
        _lay: &SlabLayout<f64>,
        a: SlabsMut<'_, f64>,
        xs: RangeInclusive<usize>,
        old_west: &mut f64,
    ) {
        match engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2 => t1d_avx2::scalar_sweep(ymm(), a.data, a.first, self, xs, old_west),
            _ => t1d::scalar_cells(a.data, a.first, self, xs, old_west),
        }
    }

    fn multiload_sweep(
        &self,
        engine: Engine,
        _lay: &SlabLayout<f64>,
        src: Slabs<'_, f64>,
        dst: SlabsMut<'_, f64>,
        xs: RangeInclusive<usize>,
    ) {
        spatial::step_1d(engine, src, dst, xs, self);
    }
}

/// The six slab kernels differ in what one invocation line names: the
/// grid and its element, the lane count (the integer Life steady state
/// runs at `vl = 8` i32 lanes — one full `__m256i` — in both engines, so
/// the layers above dispatch it exactly like the f64 kernels), the
/// dimension's kernel trait and row updates, and its multi-load step.
/// Everything else forwards to [`crate::slab`], in the codegen context and
/// with the rows' register form of the resolved engine.
macro_rules! slab_kernel_space {
    ($($kern:ty: $grid:ident<$t:ty> x $vl:literal, $kernel:path, $rows:ident, $step:path;)*) => {$(
        impl KernelSpace for $kern {
            type Grid = $grid<$t>;
            type Scratch = Scratch<$t, $vl>;
            type StepBufs = [Vec<$t>; 2];
            const VL: usize = $vl;
            const MIN_STRIDE: usize = <Self as $kernel>::MIN_STRIDE;

            fn scratch(dims: [usize; 3], s: usize) -> Self::Scratch {
                Scratch::new::<Self::Grid>(dims, s)
            }

            fn step_bufs(dims: [usize; 3]) -> Self::StepBufs {
                slab::step_bufs::<Self::Grid>(dims)
            }

            fn sweep<const COUNT: bool>(
                &self,
                engine: Engine,
                lay: &SlabLayout<$t>,
                a: SlabsMut<'_, $t>,
                xs: RangeInclusive<usize>,
                s: usize,
                sc: &mut Self::Scratch,
            ) {
                match engine {
                    #[cfg(target_arch = "x86_64")]
                    Engine::Avx2 => {
                        let isa = ymm();
                        let rows = $rows(*self, isa);
                        slab_avx2::sweep::<$t, $vl, COUNT, _>(isa, lay, a, &rows, xs, s, sc)
                    }
                    _ => slab::sweep_body::<$t, $vl, COUNT, _>(
                        lay, a, &$rows(*self, Packs), xs, s, sc,
                    ),
                }
            }

            fn scalar_sweep(
                &self,
                engine: Engine,
                lay: &SlabLayout<$t>,
                a: SlabsMut<'_, $t>,
                xs: RangeInclusive<usize>,
                bufs: &mut Self::StepBufs,
            ) {
                match engine {
                    #[cfg(target_arch = "x86_64")]
                    Engine::Avx2 => {
                        let isa = ymm();
                        let rows = $rows(*self, isa);
                        slab_avx2::scalar_sweep::<$t, $vl, _>(isa, lay, a, &rows, xs, bufs)
                    }
                    _ => slab::scalar_sweep_body::<$t, $vl, _>(
                        lay, a, &$rows(*self, Packs), xs, bufs,
                    ),
                }
            }

            fn multiload_sweep(
                &self,
                engine: Engine,
                lay: &SlabLayout<$t>,
                src: Slabs<'_, $t>,
                dst: SlabsMut<'_, $t>,
                xs: RangeInclusive<usize>,
            ) {
                $step(engine, lay, src, dst, xs, self);
            }
        }
    )*};
}

slab_kernel_space! {
    JacobiKern2d: Grid2<f64> x 4, Kernel2d<f64>, Rows2, spatial::step_2d;
    BoxKern2d: Grid2<f64> x 4, Kernel2d<f64>, Rows2, spatial::step_2d;
    GsKern2d: Grid2<f64> x 4, Kernel2d<f64>, Rows2, spatial::step_2d;
    LifeKern2d: Grid2<i32> x 8, Kernel2d<i32>, Rows2, spatial::step_2d;
    JacobiKern3d: Grid3<f64> x 4, Kernel3d, Rows3, spatial::step_3d;
    GsKern3d: Grid3<f64> x 4, Kernel3d, Rows3, spatial::step_3d;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::{GsKern1d, JacobiKern1d};
    use tempora_grid::{fill_random_1d, Boundary};
    use tempora_stencil::{reference, Gs1dCoeffs, Heat1dCoeffs};

    /// The window of `g` holding slabs `lo ..= hi`: what a part is given,
    /// so that a part reaching outside its documented slabs panics.
    fn window<G: SlabGrid>(g: &mut G, lo: usize, hi: usize) -> SlabsMut<'_, G::Elem> {
        let slab = g.slab();
        SlabsMut {
            data: &mut g.data_mut()[lo * slab..(hi + 1) * slab],
            first: lo,
        }
    }

    /// An untiled run on a copy of `grid` — `steps / VL` temporal sweeps,
    /// then the `steps mod VL` remainder as scalar steps; every step a
    /// scalar step when the outer extent cannot host the vector schedule
    /// (`nx < VL·s`) or without a stride — with every sweep and every
    /// scalar step cut into parts of `cut` anchors, run in ascending order,
    /// each on the window its contract names: the sequential form of the
    /// pipelined sweeps of `tempora-tiling` (consecutive parts are the
    /// §3.4 parallelogram tiles).
    pub(crate) fn run_in_parts<K: KernelSpace>(
        engine: Engine,
        grid: &K::Grid,
        kern: &K,
        steps: usize,
        s: Option<usize>,
        cut: usize,
    ) -> K::Grid {
        let (dims, lay) = (grid.dims(), grid.layout());
        let (mut g, mut bufs, nx) = (grid.clone(), K::step_bufs(dims), lay.nx);
        let parts = |hi: usize| {
            (1..=hi)
                .step_by(cut)
                .map(move |x0| (x0, (x0 + cut - 1).min(hi)))
        };
        let mut scalar_steps = steps;
        if let Some(s) = s.filter(|s| nx >= K::VL * s) {
            let (mut sc, reach) = (K::scratch(dims, s), K::VL * s);
            let x_max = nx + 1 - reach;
            scalar_steps %= K::VL;
            for _ in 0..steps / K::VL {
                for (x0, x1) in parts(x_max) {
                    let lo = if x0 == 1 { 0 } else { x0 };
                    let hi = if x1 == x_max { nx + 1 } else { x1 + reach };
                    kern.sweep::<false>(engine, &lay, window(&mut g, lo, hi), x0..=x1, s, &mut sc);
                }
            }
        }
        for _ in 0..scalar_steps {
            for (x0, x1) in parts(nx) {
                let a = window(&mut g, x0 - 1, x1 + 1);
                kern.scalar_sweep(engine, &lay, a, x0..=x1, &mut bufs);
            }
        }
        g
    }

    /// `steps` multi-load steps ping-ponging `grid` and a twin, every step
    /// cut into parts of `cut` slabs on the windows the contract names.
    pub(crate) fn multiload_in_parts<K: KernelSpace>(
        engine: Engine,
        grid: &K::Grid,
        kern: &K,
        steps: usize,
        cut: usize,
    ) -> K::Grid {
        let lay = grid.layout();
        let (mut a, mut b) = (grid.clone(), grid.clone());
        for _ in 0..steps {
            for x0 in (1..=lay.nx).step_by(cut) {
                let x1 = (x0 + cut - 1).min(lay.nx);
                let src = Slabs {
                    data: &a.data()[(x0 - 1) * lay.slab..(x1 + 2) * lay.slab],
                    first: x0 - 1,
                };
                kern.multiload_sweep(engine, &lay, src, window(&mut b, x0, x1), x0..=x1);
            }
            core::mem::swap(&mut a, &mut b);
        }
        a
    }

    /// [`run_in_parts`] with one part per sweep: the whole-grid run.
    pub(crate) fn run_whole<K: KernelSpace>(
        engine: Engine,
        grid: &K::Grid,
        kern: &K,
        steps: usize,
        s: usize,
    ) -> K::Grid {
        run_in_parts(engine, grid, kern, steps, Some(s), grid.dims()[0])
    }

    /// Resolve `sel` for the shape, then [`run_whole`] with the result.
    fn run<K: KernelSpace>(
        sel: Select,
        g: &K::Grid,
        kern: &K,
        steps: usize,
        s: usize,
    ) -> (K::Grid, Engine) {
        let engine = K::resolve(sel);
        (run_whole(engine, g, kern, steps, s), engine)
    }

    fn heat1d(n: usize, seed: u64) -> Grid1<f64> {
        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.0));
        fill_random_1d(&mut g, seed, -1.0, 1.0);
        g
    }

    #[test]
    fn select_parses_all_names() {
        assert_eq!(Select::parse("auto"), Some(Select::Auto));
        assert_eq!(Select::parse(""), Some(Select::Auto));
        assert_eq!(Select::parse("Portable"), Some(Select::Portable));
        assert_eq!(Select::parse(" AVX2 "), Some(Select::Avx2));
        assert_eq!(Select::parse("sse"), None);
        for sel in [Select::Auto, Select::Portable, Select::Avx2] {
            assert_eq!(Select::parse(sel.name()), Some(sel));
        }
    }

    #[test]
    fn portable_selection_always_reports_portable() {
        let c = Heat1dCoeffs::classic(0.25);
        let g = heat1d(200, 1);
        let (r, e) = run(Select::Portable, &g, &JacobiKern1d(c), 8, 7);
        assert_eq!(e, Engine::Portable);
        assert!(r.interior_eq(&reference::heat1d(&g, c, 8)));
    }

    #[test]
    fn auto_matches_portable_bitwise() {
        let kern = JacobiKern1d(Heat1dCoeffs::new(0.3, 0.45, 0.25));
        let g = heat1d(500, 9);
        let (auto, _) = run(Select::Auto, &g, &kern, 12, 7);
        let (port, _) = run(Select::Portable, &g, &kern, 12, 7);
        assert!(auto.interior_eq(&port));
    }

    #[test]
    fn degenerate_shapes_resolve_by_capability() {
        // Shapes whose every step runs the scalar schedule resolve like
        // any other: the engine is the codegen context of that schedule
        // too (portable would pay libm `fma` per point on an AVX2 host).
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        let (small, big) = (heat1d(5, 4), heat1d(200, 5));
        let auto = Select::Auto.resolve(true);
        for (sel, expect) in [(Select::Auto, auto), (Select::Portable, Engine::Portable)] {
            // n = 5 < VL·s = 8: no vector tile fits.
            let (r, e) = run(sel, &small, &kern, 8, 2);
            assert_eq!(e, expect, "{sel:?}");
            assert!(r.interior_eq(&reference::heat1d(&small, c, 8)));
            // steps = 3 < VL: only scalar remainder steps run.
            let (r, e) = run(sel, &big, &kern, 3, 2);
            assert_eq!(e, expect, "{sel:?}");
            assert!(r.interior_eq(&reference::heat1d(&big, c, 3)));
        }
        let c2 = tempora_stencil::Heat2dCoeffs::classic(0.12);
        let mut g2 = Grid2::new(5, 9, 1, Boundary::Dirichlet(0.0));
        tempora_grid::fill_random_2d(&mut g2, 6, -1.0, 1.0);
        let (r, e) = run(Select::Auto, &g2, &JacobiKern2d(c2), 8, 2);
        assert_eq!(e, auto);
        assert!(r.interior_eq(&reference::heat2d(&g2, c2, 8)));
    }

    /// Every engine this host can run.
    fn engines() -> Vec<Engine> {
        let mut engines = vec![Engine::Portable];
        if avx2_available() {
            engines.push(Engine::Avx2);
        }
        engines
    }

    #[test]
    fn stride_remainder_table_matches_reference_bitwise() {
        // Every stride the 1-D kinds accept — the register-specialised
        // ones and the rolled ring — against every way the unrolled
        // `R = s + 1` chunks can end: a steady state of one iteration
        // (`n = VL·s`), whole chunks, and chunks plus 1 or `R - 1`
        // remainder iterations. Whole tiles and parts, both engines.
        const VL: usize = 4;
        let heat = [
            Heat1dCoeffs::classic(0.25),
            Heat1dCoeffs::new(0.3, 0.45, 0.25),
        ];
        let gs = [Gs1dCoeffs::classic(0.25), Gs1dCoeffs::new(0.37, 0.4, 0.23)];
        for s in 2..=<JacobiKern1d as KernelSpace>::MAX_STRIDE {
            let r = s + 1;
            for x_max in [1, 3 * r, 3 * r + 1, 4 * r - 1] {
                let n = x_max - 1 + VL * s;
                for steps in [4usize, 8, 13] {
                    let g = heat1d(n, (n + steps) as u64);
                    for engine in engines() {
                        for c in heat {
                            let ours = run_whole(engine, &g, &JacobiKern1d(c), steps, s);
                            let gold = reference::heat1d(&g, c, steps);
                            assert!(
                                ours.interior_eq(&gold),
                                "heat1d {engine:?} s={s} n={n} steps={steps} {:?}",
                                ours.first_diff(&gold)
                            );
                        }
                        for c in gs {
                            let ours = run_whole(engine, &g, &GsKern1d(c), steps, s);
                            let gold = reference::gs1d(&g, c, steps);
                            assert!(
                                ours.interior_eq(&gold),
                                "gs1d {engine:?} s={s} n={n} steps={steps} {:?}",
                                ours.first_diff(&gold)
                            );
                        }
                    }
                }
            }
            // Parts: a sweep cut every `4·R + rem` anchors enters the
            // steady state at ring rotations `k·rem mod R` — every chunk
            // whole, one iteration over, one short — and hands the ring
            // from part to part; the remainder steps are cut the same way.
            for rem in [0, 1, r - 1] {
                let cut = 4 * r + rem;
                let n = 4 * cut + 3 + VL * s;
                let g = heat1d(n, (n + s) as u64);
                for steps in [4usize, 8, 13] {
                    for engine in engines() {
                        for c in heat {
                            let ours =
                                run_in_parts(engine, &g, &JacobiKern1d(c), steps, Some(s), cut);
                            let gold = reference::heat1d(&g, c, steps);
                            assert!(
                                ours.interior_eq(&gold),
                                "heat1d parts {engine:?} s={s} cut={cut} steps={steps} {:?}",
                                ours.first_diff(&gold)
                            );
                        }
                        for c in gs {
                            let ours = run_in_parts(engine, &g, &GsKern1d(c), steps, Some(s), cut);
                            let gold = reference::gs1d(&g, c, steps);
                            assert!(
                                ours.interior_eq(&gold),
                                "gs1d parts {engine:?} s={s} cut={cut} steps={steps} {:?}",
                                ours.first_diff(&gold)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn multiload_parts_match_reference_bitwise() {
        let c = Heat1dCoeffs::new(0.3, 0.45, 0.25);
        let g = heat1d(203, 11);
        for engine in engines() {
            for cut in [1, 2, 5, 64, 203, 500] {
                for steps in [0usize, 1, 2, 7] {
                    let ours = multiload_in_parts(engine, &g, &JacobiKern1d(c), steps, cut);
                    let gold = reference::heat1d(&g, c, steps);
                    assert!(
                        ours.interior_eq(&gold),
                        "{engine:?} cut={cut} steps={steps} {:?}",
                        ours.first_diff(&gold)
                    );
                }
            }
        }
    }

    #[test]
    fn workloads_without_avx2_impl_resolve_portable() {
        // A workload that does not reach an AVX2 context resolves portable
        // under every selection (`Select::Avx2` still needs the CPU) …
        assert_eq!(Select::Auto.resolve(false), Engine::Portable);
        assert_eq!(Select::Portable.resolve(false), Engine::Portable);
        if avx2_available() {
            assert_eq!(Select::Avx2.resolve(false), Engine::Portable);
        }
        // … and no stride of the 1-D kinds is such a workload: the widest
        // the ring holds resolves like any other (the rolled loop serves
        // it), where it used to fall off the AVX2 engine silently.
        let c = Heat1dCoeffs::classic(0.25);
        let g = heat1d(4096, 2);
        let wide = <JacobiKern1d as KernelSpace>::MAX_STRIDE;
        let (r, e) = run(Select::Auto, &g, &JacobiKern1d(c), 4, wide);
        assert_eq!(e, Select::Auto.resolve(true));
        assert!(r.interior_eq(&reference::heat1d(&g, c, 4)));
    }
}
