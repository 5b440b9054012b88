//! Unified engine dispatch: one place that decides, per workload, whether
//! the portable pack steady state or the hand-scheduled `std::arch` AVX2
//! steady state runs.
//!
//! The entry point is the `tempora_plan` crate's
//! `Problem → PlanBuilder → Plan → Report` lifecycle, which resolves the
//! selection once per plan, reuses scratch across runs and reports the
//! [`Engine`] that actually executed, so callers (the bench harness in
//! particular) can state honestly which instruction mix was measured.
//! Everything above the tile — ghost and skew workspaces, plan executors,
//! the plan builder — reaches the kernels through one trait,
//! [`KernelSpace`] (plus [`GsSpace`] for the Gauss-Seidel band executors),
//! so those layers are written once for all dimensionalities. The
//! selection policy is a three-valued [`Select`]:
//!
//! * [`Select::Auto`] (the default) — AVX2+FMA steady state whenever the
//!   CPU supports it and the workload has one, portable otherwise;
//! * [`Select::Portable`] — always the portable pack engine;
//! * [`Select::Avx2`] — require the AVX2 path (panics if the CPU lacks
//!   AVX2+FMA; workloads with no hand-scheduled variant still resolve to
//!   portable, reported as such).
//!
//! Every workload now has a hand-scheduled steady state: the f64 kernels
//! run at `vl = 4` double lanes, and the two integer workloads — Life
//! and LCS — at the paper's `vl = 8` i32 lanes. Degenerate shapes that
//! cannot exercise a vector steady state at all — fewer than one full
//! `vl`-level time tile, or an outer extent below `vl·s` (for LCS, a row
//! segment below `vl·s + 1`) — resolve portable, because every engine
//! would run the identical scalar schedule there and reporting `avx2`
//! would misname the instruction mix that actually executed.
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
//! [`KernelSpace`] / [`GsSpace`] method takes it and runs *everything* —
//! tile prologue and epilogue, degenerate fallback, remainder scalar
//! steps, edge bands, the spatial multi-load steps — in that engine's
//! codegen context. The phase functions are one `#[inline(always)]`
//! source, instantiated once for baseline x86-64 and once inside
//! `#[target_feature(enable = "avx2,fma")]` sandwiches — for the 2-D/3-D
//! kernels a single one, [`crate::slab_avx2`], generic over the kernel's
//! row updates, so their impls below name a grid, a lane count and
//! `Rows2`/`Rows3` and forward to [`crate::slab`]. The reason is
//! `f64::mul_add`: outside a feature context it is a call into libm's
//! `fma` (≈ 3 ns), inside it is one `vfmadd`. Both are the
//! exactly-rounded fused operation and Rust never contracts separate
//! `*`/`+`, so results are bit-identical; only the boundary code stops
//! running 20× slower per point than the vector loop it brackets.
//! [`Engine::Avx2`] is only ever resolved on x86-64 with AVX2+FMA
//! present; on other targets the AVX2 arms are compiled out and every
//! engine value runs the portable instantiation.

use crate::kernels::{
    BoxKern2d, GsKern1d, GsKern2d, GsKern3d, JacobiKern1d, JacobiKern2d, JacobiKern3d, Kernel1d,
    Kernel2d, Kernel3d, LifeKern2d,
};
use crate::slab::{self, BandScratch, Rows2, Rows3, Scratch};
use crate::t1d::Scratch1d;
use crate::{spatial, t1d, t1d_band};
use tempora_grid::{Grid1, Grid2, Grid3, SlabGrid};
use tempora_simd::arch::avx2_available;

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
    /// has a hand-scheduled AVX2 steady state. Public so the tiled layer
    /// (`tempora-tiling`) can resolve its in-tile engine **once per run**
    /// and report it honestly; degenerate geometries must pass
    /// `has_avx2_impl = false`.
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
    /// The hand-scheduled `std::arch` AVX2+FMA engine.
    Avx2,
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

/// True when a workload shape can actually exercise a vector steady
/// state at vector length `vl` (4 for the f64 kernels, 8 for the
/// integer Life kernel): at least one full `vl`-level time tile, and an
/// outer extent that hosts the vector schedule (`n ≥ vl·s`). Degenerate
/// shapes run the scalar schedule in *every* engine, so dispatch
/// resolves them portable — the returned [`Engine`] must name the
/// steady state that executes, not the one that was asked for.
pub fn shape_has_vector_tiles(vl: usize, n_outer: usize, steps: usize, s: usize) -> bool {
    steps >= vl && n_outer >= vl * s
}

// ---------------------------------------------------------------------
// One kernel-space trait for everything above the tile
// ---------------------------------------------------------------------

/// What the layers above the tile — the ghost and skew workspaces of
/// `tempora-tiling`, the executors and the builder of `tempora-plan` —
/// need from one kernel, and nothing else. Each benchmark kernel
/// implements it once, naming its grid type, lane count and scratch and
/// forwarding to its tile primitives (`t1d*`, or [`crate::slab`] with the
/// kernel's row updates), so those layers are
/// written once and every call monomorphises to the same tile loop a
/// hand-written per-dimension caller would contain.
///
/// Extents travel as `[outer, middle, inner]` with unused trailing
/// dimensions 1 (see [`SlabGrid::dims`]).
pub trait KernelSpace: Copy + Send + Sync + 'static {
    /// The grid this kernel advances.
    type Grid: SlabGrid;
    /// Scratch of one temporal tile. The portable and the AVX2 steady
    /// state both run at [`KernelSpace::VL`] lanes and share it.
    type Scratch: Send;
    /// Old-slab buffers of the in-place scalar step (none in 1-D).
    type StepBufs: Send;

    /// Production lane count: 4 `f64` lanes, 8 `i32` lanes for Life. One
    /// temporal tile advances this many time levels.
    const VL: usize;
    /// Minimum legal temporal stride (the kernel's dependence bound).
    const MIN_STRIDE: usize;
    /// Maximum supported temporal stride (the 1-D ring has a fixed
    /// capacity; the 2-D/3-D rings live in scratch).
    const MAX_STRIDE: usize = usize::MAX;

    /// Allocate tile scratch for interior extents `dims` and stride `s`.
    fn scratch(dims: [usize; 3], s: usize) -> Self::Scratch;

    /// Allocate scalar-step buffers for interior extents `dims`.
    fn step_bufs(dims: [usize; 3]) -> Self::StepBufs;

    /// One in-place scalar time step in `engine`'s codegen context,
    /// bit-identical to the reference.
    fn scalar_step(&self, engine: Engine, g: &mut Self::Grid, bufs: &mut Self::StepBufs);

    /// One multi-load (spatially vectorized) Jacobi step `dst = S(src)`
    /// in `engine`'s codegen context.
    fn multiload_step(&self, engine: Engine, src: &Self::Grid, dst: &mut Self::Grid);

    /// One whole temporal tile ([`KernelSpace::VL`] levels, in place) —
    /// boundary phases and steady state — with the resolved `engine`
    /// (bit-identical either way). [`Engine::Avx2`] needs
    /// [`KernelSpace::has_avx2_tile`]. `COUNT` turns on the portable
    /// steady state's reorganization-op accounting
    /// ([`tempora_simd::count`]; the AVX2 tile ignores it).
    fn tile<const COUNT: bool>(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        s: usize,
        sc: &mut Self::Scratch,
    );

    /// True when this kernel has a hand-scheduled AVX2 temporal tile at
    /// stride `s` **and** the CPU supports AVX2+FMA — a `true` return is
    /// the licence to pass [`Engine::Avx2`] to [`KernelSpace::tile`].
    /// Always false off x86-64 and under Miri.
    fn has_avx2_tile(s: usize) -> bool;

    /// Resolve `sel` for an untiled run of `steps` levels over `outer`
    /// slabs: AVX2 needs the kernel's tile and a shape that reaches the
    /// vector steady state (see [`shape_has_vector_tiles`]).
    fn resolve(sel: Select, outer: usize, steps: usize, s: usize) -> Engine {
        sel.resolve(Self::has_avx2_tile(s) && shape_has_vector_tiles(Self::VL, outer, steps, s))
    }
}

/// An untiled run the way every layer above drives [`KernelSpace`]:
/// `steps / VL` whole tiles, then the `steps mod VL` remainder as scalar
/// steps, all in `engine`'s codegen context, on a copy of `grid`.
/// Bit-identical to the scalar reference sweeps for either engine;
/// [`Engine::Avx2`] needs [`KernelSpace::has_avx2_tile`].
pub fn run<K: KernelSpace>(
    engine: Engine,
    grid: &K::Grid,
    kern: &K,
    steps: usize,
    s: usize,
) -> K::Grid {
    let dims = grid.dims();
    let (mut g, mut sc, mut bufs) = (grid.clone(), K::scratch(dims, s), K::step_bufs(dims));
    for _ in 0..steps / K::VL {
        kern.tile::<false>(engine, &mut g, s, &mut sc);
    }
    for _ in 0..steps % K::VL {
        kern.scalar_step(engine, &mut g, &mut bufs);
    }
    g
}

/// The element type of kernel `K`'s grid, as its boundary condition
/// spells it.
pub type Elem<K> = <<K as KernelSpace>::Grid as SlabGrid>::Elem;

/// The skewed-band executors of the three Gauss-Seidel kernels (paper
/// §3.4), on top of [`KernelSpace`]: what `tempora-tiling`'s skew
/// workspace runs inside one parallelogram.
pub trait GsSpace: KernelSpace {
    /// Scratch of one band (none in 1-D).
    type BandScratch: Send;

    /// Allocate band scratch for interior extents `dims` and stride `s`.
    fn band_scratch(dims: [usize; 3], s: usize) -> Self::BandScratch;

    /// One scalar skewed band of `levels` levels anchored at `[xl, xr]`,
    /// in `engine`'s codegen context.
    fn band_scalar(&self, engine: Engine, g: &mut Self::Grid, xl: usize, xr: usize, levels: usize);

    /// One temporally vectorized skewed band ([`KernelSpace::VL`] levels)
    /// with the resolved `engine`; edge or narrow bands run the scalar
    /// band in the same codegen context (identical results).
    /// [`Engine::Avx2`] needs [`GsSpace::has_avx2_band`].
    fn band(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        xl: usize,
        xr: usize,
        s: usize,
        sc: &mut Self::BandScratch,
    );

    /// True when the AVX2 band executor exists at stride `s` and the CPU
    /// supports AVX2+FMA (the licence to pass [`Engine::Avx2`] to
    /// [`GsSpace::band`]).
    fn has_avx2_band(s: usize) -> bool;
}

/// [`t1d::scalar_step_inplace`] in `engine`'s codegen context.
fn scalar_step_1d<K: Kernel1d>(engine: Engine, g: &mut Grid1<f64>, kern: &K) {
    let n = g.n();
    match engine {
        #[cfg(target_arch = "x86_64")]
        Engine::Avx2 => crate::t1d_avx2::scalar_step_avx2(g.data_mut(), n, kern),
        _ => t1d::scalar_step_inplace(g.data_mut(), n, kern),
    }
}

impl KernelSpace for JacobiKern1d {
    type Grid = Grid1<f64>;
    type Scratch = Scratch1d<4>;
    type StepBufs = ();
    const VL: usize = 4;
    const MIN_STRIDE: usize = <Self as Kernel1d>::MIN_STRIDE;
    const MAX_STRIDE: usize = t1d::RING_CAP - 1;

    fn scratch(_dims: [usize; 3], s: usize) -> Scratch1d<4> {
        Scratch1d::new(s)
    }

    fn step_bufs(_dims: [usize; 3]) {}

    fn scalar_step(&self, engine: Engine, g: &mut Grid1<f64>, _bufs: &mut ()) {
        scalar_step_1d(engine, g, self);
    }

    fn multiload_step(&self, engine: Engine, src: &Grid1<f64>, dst: &mut Grid1<f64>) {
        spatial::step_1d(engine, src.data(), dst.data_mut(), src.n(), self);
    }

    fn tile<const COUNT: bool>(
        &self,
        engine: Engine,
        g: &mut Grid1<f64>,
        s: usize,
        sc: &mut Scratch1d<4>,
    ) {
        let n = g.n();
        match engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2 => crate::t1d_avx2::tile_avx2(g.data_mut(), n, self, s, sc),
            _ => t1d::tile::<4, COUNT, Self>(g.data_mut(), n, self, s, sc),
        }
    }

    /// The AVX2 tile is capped at stride [`crate::t1d_avx2::MAX_STRIDE`];
    /// wider strides resolve portable.
    fn has_avx2_tile(s: usize) -> bool {
        s <= crate::t1d_avx2::MAX_STRIDE && avx2_available()
    }
}

impl KernelSpace for GsKern1d {
    type Grid = Grid1<f64>;
    type Scratch = Scratch1d<4>;
    type StepBufs = ();
    const VL: usize = 4;
    const MIN_STRIDE: usize = <Self as Kernel1d>::MIN_STRIDE;
    const MAX_STRIDE: usize = t1d::RING_CAP - 1;

    fn scratch(_dims: [usize; 3], s: usize) -> Scratch1d<4> {
        Scratch1d::new(s)
    }

    fn step_bufs(_dims: [usize; 3]) {}

    fn scalar_step(&self, engine: Engine, g: &mut Grid1<f64>, _bufs: &mut ()) {
        scalar_step_1d(engine, g, self);
    }

    fn multiload_step(&self, engine: Engine, src: &Grid1<f64>, dst: &mut Grid1<f64>) {
        spatial::step_1d(engine, src.data(), dst.data_mut(), src.n(), self);
    }

    fn tile<const COUNT: bool>(
        &self,
        engine: Engine,
        g: &mut Grid1<f64>,
        s: usize,
        sc: &mut Scratch1d<4>,
    ) {
        let n = g.n();
        match engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2 => crate::t1d_avx2::tile_avx2(g.data_mut(), n, self, s, sc),
            _ => t1d::tile::<4, COUNT, Self>(g.data_mut(), n, self, s, sc),
        }
    }

    fn has_avx2_tile(s: usize) -> bool {
        s <= crate::t1d_avx2::MAX_STRIDE && avx2_available()
    }
}

impl GsSpace for GsKern1d {
    type BandScratch = ();

    fn band_scratch(_dims: [usize; 3], _s: usize) {}

    fn band_scalar(&self, engine: Engine, g: &mut Grid1<f64>, xl: usize, xr: usize, levels: usize) {
        let n = g.n();
        match engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2 => t1d_band::band_scalar_gs_avx2(g.data_mut(), xl, xr, levels, n, self),
            _ => t1d_band::band_scalar_gs(g.data_mut(), xl, xr, levels, n, self),
        }
    }

    fn band(
        &self,
        engine: Engine,
        g: &mut Grid1<f64>,
        xl: usize,
        xr: usize,
        s: usize,
        _sc: &mut (),
    ) {
        let n = g.n();
        match engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2 => t1d_band::band_temporal_gs_avx2(g.data_mut(), xl, xr, n, s, self),
            _ => t1d_band::band_temporal_gs::<4, Self>(g.data_mut(), xl, xr, n, s, self),
        }
    }

    fn has_avx2_band(s: usize) -> bool {
        s <= t1d_band::MAX_BAND_STRIDE && avx2_available()
    }
}

impl KernelSpace for JacobiKern2d {
    type Grid = Grid2<f64>;
    type Scratch = Scratch<f64, 4>;
    type StepBufs = [Vec<f64>; 2];
    const VL: usize = 4;
    const MIN_STRIDE: usize = <Self as Kernel2d<f64>>::MIN_STRIDE;

    fn scratch(dims: [usize; 3], s: usize) -> Self::Scratch {
        Scratch::new::<Self::Grid>(dims, s)
    }

    fn step_bufs(dims: [usize; 3]) -> Self::StepBufs {
        slab::step_bufs::<Self::Grid>(dims)
    }

    fn scalar_step(&self, engine: Engine, g: &mut Self::Grid, bufs: &mut Self::StepBufs) {
        slab::scalar_step::<f64, 4, _, _>(engine, g, &Rows2(self), bufs);
    }

    fn multiload_step(&self, engine: Engine, src: &Self::Grid, dst: &mut Self::Grid) {
        spatial::step_2d(engine, src, dst, self);
    }

    fn tile<const COUNT: bool>(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        s: usize,
        sc: &mut Self::Scratch,
    ) {
        slab::tile::<f64, 4, COUNT, _, _>(engine, g, &Rows2(self), s, sc);
    }

    fn has_avx2_tile(_s: usize) -> bool {
        avx2_available()
    }
}

impl KernelSpace for BoxKern2d {
    type Grid = Grid2<f64>;
    type Scratch = Scratch<f64, 4>;
    type StepBufs = [Vec<f64>; 2];
    const VL: usize = 4;
    const MIN_STRIDE: usize = <Self as Kernel2d<f64>>::MIN_STRIDE;

    fn scratch(dims: [usize; 3], s: usize) -> Self::Scratch {
        Scratch::new::<Self::Grid>(dims, s)
    }

    fn step_bufs(dims: [usize; 3]) -> Self::StepBufs {
        slab::step_bufs::<Self::Grid>(dims)
    }

    fn scalar_step(&self, engine: Engine, g: &mut Self::Grid, bufs: &mut Self::StepBufs) {
        slab::scalar_step::<f64, 4, _, _>(engine, g, &Rows2(self), bufs);
    }

    fn multiload_step(&self, engine: Engine, src: &Self::Grid, dst: &mut Self::Grid) {
        spatial::step_2d(engine, src, dst, self);
    }

    fn tile<const COUNT: bool>(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        s: usize,
        sc: &mut Self::Scratch,
    ) {
        slab::tile::<f64, 4, COUNT, _, _>(engine, g, &Rows2(self), s, sc);
    }

    fn has_avx2_tile(_s: usize) -> bool {
        avx2_available()
    }
}

impl KernelSpace for GsKern2d {
    type Grid = Grid2<f64>;
    type Scratch = Scratch<f64, 4>;
    type StepBufs = [Vec<f64>; 2];
    const VL: usize = 4;
    const MIN_STRIDE: usize = <Self as Kernel2d<f64>>::MIN_STRIDE;

    fn scratch(dims: [usize; 3], s: usize) -> Self::Scratch {
        Scratch::new::<Self::Grid>(dims, s)
    }

    fn step_bufs(dims: [usize; 3]) -> Self::StepBufs {
        slab::step_bufs::<Self::Grid>(dims)
    }

    fn scalar_step(&self, engine: Engine, g: &mut Self::Grid, bufs: &mut Self::StepBufs) {
        slab::scalar_step::<f64, 4, _, _>(engine, g, &Rows2(self), bufs);
    }

    fn multiload_step(&self, engine: Engine, src: &Self::Grid, dst: &mut Self::Grid) {
        spatial::step_2d(engine, src, dst, self);
    }

    fn tile<const COUNT: bool>(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        s: usize,
        sc: &mut Self::Scratch,
    ) {
        slab::tile::<f64, 4, COUNT, _, _>(engine, g, &Rows2(self), s, sc);
    }

    fn has_avx2_tile(_s: usize) -> bool {
        avx2_available()
    }
}

impl GsSpace for GsKern2d {
    type BandScratch = BandScratch<f64, 4>;

    fn band_scratch(dims: [usize; 3], s: usize) -> Self::BandScratch {
        BandScratch::new::<Self::Grid>(dims, s)
    }

    fn band_scalar(&self, engine: Engine, g: &mut Self::Grid, xl: usize, xr: usize, levels: usize) {
        slab::band_scalar::<f64, 4, _, _>(engine, g, &Rows2(self), xl, xr, levels);
    }

    fn band(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        xl: usize,
        xr: usize,
        s: usize,
        sc: &mut Self::BandScratch,
    ) {
        slab::band(engine, g, &Rows2(self), xl, xr, s, sc);
    }

    fn has_avx2_band(_s: usize) -> bool {
        avx2_available()
    }
}

/// The integer Life steady state runs at `vl = 8` i32 lanes (one full
/// `__m256i`) in both engines, so the layers above dispatch it exactly like
/// the f64 kernels.
impl KernelSpace for LifeKern2d {
    type Grid = Grid2<i32>;
    type Scratch = Scratch<i32, 8>;
    type StepBufs = [Vec<i32>; 2];
    const VL: usize = 8;
    const MIN_STRIDE: usize = <Self as Kernel2d<i32>>::MIN_STRIDE;

    fn scratch(dims: [usize; 3], s: usize) -> Self::Scratch {
        Scratch::new::<Self::Grid>(dims, s)
    }

    fn step_bufs(dims: [usize; 3]) -> Self::StepBufs {
        slab::step_bufs::<Self::Grid>(dims)
    }

    fn scalar_step(&self, engine: Engine, g: &mut Self::Grid, bufs: &mut Self::StepBufs) {
        slab::scalar_step::<i32, 8, _, _>(engine, g, &Rows2(self), bufs);
    }

    fn multiload_step(&self, engine: Engine, src: &Self::Grid, dst: &mut Self::Grid) {
        spatial::step_2d(engine, src, dst, self);
    }

    fn tile<const COUNT: bool>(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        s: usize,
        sc: &mut Self::Scratch,
    ) {
        slab::tile::<i32, 8, COUNT, _, _>(engine, g, &Rows2(self), s, sc);
    }

    fn has_avx2_tile(_s: usize) -> bool {
        avx2_available()
    }
}

impl KernelSpace for JacobiKern3d {
    type Grid = Grid3<f64>;
    type Scratch = Scratch<f64, 4>;
    type StepBufs = [Vec<f64>; 2];
    const VL: usize = 4;
    const MIN_STRIDE: usize = <Self as Kernel3d<f64>>::MIN_STRIDE;

    fn scratch(dims: [usize; 3], s: usize) -> Self::Scratch {
        Scratch::new::<Self::Grid>(dims, s)
    }

    fn step_bufs(dims: [usize; 3]) -> Self::StepBufs {
        slab::step_bufs::<Self::Grid>(dims)
    }

    fn scalar_step(&self, engine: Engine, g: &mut Self::Grid, bufs: &mut Self::StepBufs) {
        slab::scalar_step::<f64, 4, _, _>(engine, g, &Rows3(self), bufs);
    }

    fn multiload_step(&self, engine: Engine, src: &Self::Grid, dst: &mut Self::Grid) {
        spatial::step_3d(engine, src, dst, self);
    }

    fn tile<const COUNT: bool>(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        s: usize,
        sc: &mut Self::Scratch,
    ) {
        slab::tile::<f64, 4, COUNT, _, _>(engine, g, &Rows3(self), s, sc);
    }

    fn has_avx2_tile(_s: usize) -> bool {
        avx2_available()
    }
}

impl KernelSpace for GsKern3d {
    type Grid = Grid3<f64>;
    type Scratch = Scratch<f64, 4>;
    type StepBufs = [Vec<f64>; 2];
    const VL: usize = 4;
    const MIN_STRIDE: usize = <Self as Kernel3d<f64>>::MIN_STRIDE;

    fn scratch(dims: [usize; 3], s: usize) -> Self::Scratch {
        Scratch::new::<Self::Grid>(dims, s)
    }

    fn step_bufs(dims: [usize; 3]) -> Self::StepBufs {
        slab::step_bufs::<Self::Grid>(dims)
    }

    fn scalar_step(&self, engine: Engine, g: &mut Self::Grid, bufs: &mut Self::StepBufs) {
        slab::scalar_step::<f64, 4, _, _>(engine, g, &Rows3(self), bufs);
    }

    fn multiload_step(&self, engine: Engine, src: &Self::Grid, dst: &mut Self::Grid) {
        spatial::step_3d(engine, src, dst, self);
    }

    fn tile<const COUNT: bool>(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        s: usize,
        sc: &mut Self::Scratch,
    ) {
        slab::tile::<f64, 4, COUNT, _, _>(engine, g, &Rows3(self), s, sc);
    }

    fn has_avx2_tile(_s: usize) -> bool {
        avx2_available()
    }
}

impl GsSpace for GsKern3d {
    type BandScratch = BandScratch<f64, 4>;

    fn band_scratch(dims: [usize; 3], s: usize) -> Self::BandScratch {
        BandScratch::new::<Self::Grid>(dims, s)
    }

    fn band_scalar(&self, engine: Engine, g: &mut Self::Grid, xl: usize, xr: usize, levels: usize) {
        slab::band_scalar::<f64, 4, _, _>(engine, g, &Rows3(self), xl, xr, levels);
    }

    fn band(
        &self,
        engine: Engine,
        g: &mut Self::Grid,
        xl: usize,
        xr: usize,
        s: usize,
        sc: &mut Self::BandScratch,
    ) {
        slab::band(engine, g, &Rows3(self), xl, xr, s, sc);
    }

    fn has_avx2_band(_s: usize) -> bool {
        avx2_available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_grid::{fill_random_1d, Boundary};
    use tempora_stencil::{reference, Gs1dCoeffs, Heat1dCoeffs};

    /// Resolve `sel` for the shape, then [`super::run`] with the result.
    fn run<K: KernelSpace>(
        sel: Select,
        g: &K::Grid,
        kern: &K,
        steps: usize,
        s: usize,
    ) -> (K::Grid, Engine) {
        let engine = K::resolve(sel, g.dims()[0], steps, s);
        (super::run(engine, g, kern, steps, s), engine)
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
    fn degenerate_shapes_resolve_portable() {
        // Shapes whose every step runs the scalar schedule must report
        // the portable engine, whatever the selection policy — on these
        // shapes no AVX2 steady-state instruction ever executes.
        let c = Heat1dCoeffs::classic(0.25);
        let kern = JacobiKern1d(c);
        let (small, big) = (heat1d(5, 4), heat1d(200, 5));
        for sel in [Select::Auto, Select::Portable] {
            // n = 5 < VL·s = 8: no vector tile fits.
            let (r, e) = run(sel, &small, &kern, 8, 2);
            assert_eq!(e, Engine::Portable, "{sel:?}");
            assert!(r.interior_eq(&reference::heat1d(&small, c, 8)));
            // steps = 3 < VL: only scalar remainder steps run.
            let (r, e) = run(sel, &big, &kern, 3, 2);
            assert_eq!(e, Engine::Portable, "{sel:?}");
            assert!(r.interior_eq(&reference::heat1d(&big, c, 3)));
        }
        let c2 = tempora_stencil::Heat2dCoeffs::classic(0.12);
        let mut g2 = Grid2::new(5, 9, 1, Boundary::Dirichlet(0.0));
        tempora_grid::fill_random_2d(&mut g2, 6, -1.0, 1.0);
        let (r, e) = run(Select::Auto, &g2, &JacobiKern2d(c2), 8, 2);
        assert_eq!(e, Engine::Portable);
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
        // Every stride the AVX2 tile accepts — the register-specialised
        // ones and the rolled fallback — against every way the unrolled
        // `R = s + 1` chunks can end: a steady state of one iteration
        // (`n = VL·s`), whole chunks, and chunks plus 1 or `R - 1`
        // remainder iterations. Tile and skewed band, both engines.
        const VL: usize = 4;
        let heat = [
            Heat1dCoeffs::classic(0.25),
            Heat1dCoeffs::new(0.3, 0.45, 0.25),
        ];
        let gs = [Gs1dCoeffs::classic(0.25), Gs1dCoeffs::new(0.37, 0.4, 0.23)];
        for s in 2..=crate::t1d_avx2::MAX_STRIDE {
            let r = s + 1;
            for x_max in [1, 3 * r, 3 * r + 1, 4 * r - 1] {
                let n = x_max - 1 + VL * s;
                for steps in [4usize, 8, 13] {
                    let g = heat1d(n, (n + steps) as u64);
                    for engine in engines() {
                        for c in heat {
                            let ours = super::run(engine, &g, &JacobiKern1d(c), steps, s);
                            let gold = reference::heat1d(&g, c, steps);
                            assert!(
                                ours.interior_eq(&gold),
                                "heat1d {engine:?} s={s} n={n} steps={steps} {:?}",
                                ours.first_diff(&gold)
                            );
                        }
                        for c in gs {
                            let ours = super::run(engine, &g, &GsKern1d(c), steps, s);
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
            // Skewed bands: an interior block of width `block` runs
            // `block + VL - VL·s` steady iterations from an anchor that
            // moves with the block, so the ring enters rotated.
            for rem in [0, 1, r - 1] {
                let block = 4 * r + rem + VL * s - VL;
                let n = 4 * block + 3;
                let g = heat1d(n, (n + s) as u64);
                for steps in [4usize, 8, 13] {
                    for engine in engines() {
                        for c in gs {
                            let kern = GsKern1d(c);
                            let mut ours = g.clone();
                            for _ in 0..steps / VL {
                                let span = n + VL - 1;
                                for i in 0..span.div_ceil(block) {
                                    let (xl, xr) = (i * block + 1, ((i + 1) * block).min(span));
                                    kern.band(engine, &mut ours, xl, xr, s, &mut ());
                                }
                            }
                            for _ in 0..steps % VL {
                                kern.scalar_step(engine, &mut ours, &mut ());
                            }
                            let gold = reference::gs1d(&g, c, steps);
                            assert!(
                                ours.interior_eq(&gold),
                                "band {engine:?} s={s} block={block} steps={steps} {:?}",
                                ours.first_diff(&gold)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn workloads_without_avx2_impl_resolve_portable() {
        // Stride beyond the 1-D register-ring cap must resolve portable
        // even under Auto on an AVX2 host.
        let c = Heat1dCoeffs::classic(0.25);
        let g = heat1d(4096, 2);
        let wide = crate::t1d_avx2::MAX_STRIDE + 1;
        let (r, e) = run(Select::Auto, &g, &JacobiKern1d(c), 4, wide);
        assert_eq!(e, Engine::Portable);
        assert!(r.interior_eq(&reference::heat1d(&g, c, 4)));
    }
}
