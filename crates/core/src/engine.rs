//! Unified engine dispatch: one place that decides, per workload, whether
//! its sweeps run in the portable register form (`Packs`, compiled for
//! baseline x86-64), in the `std::arch` AVX2 one (`Ymm`, compiled inside
//! an AVX2+FMA sandwich) or — the 1-D and `f64` 2-D kinds and LCS — in the
//! AVX-512 one (`Zmm`, eight `f64` or sixteen `i32` lanes, inside an
//! AVX-512F+AVX2+FMA sandwich).
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
//! * [`Select::Auto`] (the default) — the widest `std::arch` engine the
//!   CPU supports and the kernel and shape reach (below), portable
//!   otherwise;
//! * [`Select::Portable`] — always the portable pack engine;
//! * [`Select::Avx2`] — require the four-lane AVX2 engine (eight lanes
//!   for the integer kinds; panics if the CPU lacks AVX2+FMA; an LCS shape
//!   that never reaches the vector steady state still resolves to
//!   portable, reported as such). It never resolves [`Engine::Avx512`].
//!
//! Every workload's steady state is one source instantiated per engine
//! (see [`tempora_simd::Lanes`]): the f64 kernels run at `vl = 4` double
//! lanes — Heat-1D, GS-1D, Heat-2D, 2D9P and GS-2D at `vl = 8` on
//! [`Engine::Avx512`] — and the two integer workloads — Life and LCS — at
//! the paper's `vl = 8` i32 lanes ([`KernelSpace::vl`], [`crate::lcs::vl`]),
//! LCS at `vl = 16` on [`Engine::Avx512`]. The grid kernels resolve
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
//! `Select::Auto` takes [`Engine::Avx512`] for the kinds with a wider
//! sweep (Heat-1D, GS-1D, Heat-2D, 2D9P, GS-2D at eight `f64` lanes, LCS
//! at sixteen `i32` lanes) where the CPU has AVX-512F and one formula
//! prices the wider sweep lower ([`SweepCost::widen`]). A temporal vector
//! costs one rotate plus one blend at any width, and every anchor of a
//! sweep, the masked ends included, one steady iteration; so a run of
//! `steps` levels over `nx` outer slabs at `VL` lanes and stride `s`
//! costs `⌊steps/VL⌋ · (nx + (VL−1)·s) · c(kind, VL) + (steps mod VL) ·
//! nx · c_scalar(kind)`, all of it scalar steps where `nx < VL·s`. `s` is
//! the given stride, else the width's default; a tie keeps the narrower
//! width, and so does a grid without a wide steady anchor. The constants
//! sit beside each kind's default stride with the `repro ablate-vl`
//! readings they came from. The 2-D kinds reach eight lanes because the
//! steady state keeps their ring in L1 by segments ([`crate::slab`]).
//! Life (its `i32 × 16` width is one arm of `slab_kernel_space!` away)
//! and the 3-D kinds (every plane tried read 0.67–1.03× at eight lanes)
//! keep one width and have no constants.
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
//! [`KernelSpace`] method takes it and runs *everything* — a sweep's front
//! and back, remainder scalar steps, the spatial multi-load steps — in
//! that engine's codegen context ([`Engine::codegen`]). The phase
//! functions, steady states included, are one `#[inline(always)]` source,
//! instantiated once for baseline x86-64 with `Packs` and once inside the
//! AVX2 sandwich with `Ymm`: each dispatch hands the token's one codegen
//! function, [`Ymm::run`] (`#[target_feature(enable = "avx2,fma")]`), an
//! `#[inline(always)]` closure over its phase function. The dispatch
//! sites are few: the 2-D/3-D kernels' one impl below (a macro, one line
//! per kernel, that names a grid, a lane count and `Rows2`/`Rows3` and
//! forwards to [`crate::slab`]), the 1-D sweep that Heat-1D, GS-1D and
//! the LCS bands share (`t1d::sweep`, from the 1-D impl below and from
//! [`crate::lcs::sweep`]), the 1-D scalar step and the multi-load steps
//! of [`crate::spatial`]. The 1-D sweep and the `f64` 2-D sweeps run a
//! third time at the AVX-512 width with `Zmm` inside [`Zmm::run`]
//! (`avx512f,avx2,fma`). Whatever does not run at eight lanes in an
//! AVX-512 plan — scalar steps, multi-load steps — runs in the AVX2
//! context: a `Zmm` implies a `Ymm`. The reason is
//! `f64::mul_add`: outside a feature context it is a call into libm's
//! `fma` (≈ 3 ns), inside it is one `vfmadd`. Both are the
//! exactly-rounded fused operation and Rust never contracts separate
//! `*`/`+`, so results are bit-identical; only the boundary code stops
//! running 20× slower per point than the vector loop it brackets. No
//! dispatch has a catch-all arm that could route a `std::arch` engine to
//! the baseline context. [`Engine::Avx2`] and [`Engine::Avx512`] are only
//! ever resolved on x86-64 with their features present; on other targets
//! their arms are compiled out and only [`Engine::Portable`] resolves.

use crate::kernels::{
    BoxKern2d, GsKern2d, GsKern3d, JacobiKern2d, JacobiKern3d, Kernel1d, Kernel2d, Kernel3d,
    LifeKern2d,
};
use crate::slab::{self, Rows2, Rows3, Scratch};
use crate::t1d::Scratch1d;
use crate::{spatial, t1d};
use core::ops::RangeInclusive;
use tempora_grid::{Grid1, Grid2, Grid3, SlabGrid, SlabLayout, Slabs, SlabsMut};
use tempora_simd::arch::{avx2_available, avx512_available};
#[cfg(target_arch = "x86_64")]
use tempora_simd::arch::{Ymm, Zmm};
use tempora_simd::Packs;

/// Environment variable consulted by [`Select::from_env`].
pub const ENV_VAR: &str = "TEMPORA_ENGINE";

/// Engine-selection policy (see the [module docs](self)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Select {
    /// Best available: AVX-512 for the kinds with an eight-lane sweep where
    /// the CPU has it and the shape makes it pay, AVX2 where supported and
    /// implemented, else portable.
    #[default]
    Auto,
    /// Force the portable pack engine.
    Portable,
    /// Require the `std::arch` AVX2 engine (panics without AVX2+FMA): four
    /// `f64` lanes, eight `i32` lanes.
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
    /// and report it honestly. Never [`Engine::Avx512`]: only
    /// [`KernelSpace::resolve`] widens an `Auto` run to it, for a kind with
    /// an eight-lane sweep.
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
    /// The `std::arch` AVX-512 engine of the 1-D and `f64` 2-D kinds and of
    /// LCS: their sweeps at eight `f64` lanes, LCS's band sweeps at sixteen
    /// `i32` lanes, everything else of the plan in the AVX2 context.
    Avx512,
}

/// The register form of [`Engine::Avx2`], on the way into a sandwich.
///
/// # Panics
/// Panics if the CPU lacks AVX2+FMA: no selection resolves
/// [`Engine::Avx2`] or [`Engine::Avx512`] there.
#[cfg(target_arch = "x86_64")]
pub(crate) fn ymm() -> Ymm {
    // Panic-justification: `Select::resolve` yields `Engine::Avx2` only
    // after `avx2_available()`; a hand-made one on a lesser CPU stops here.
    Ymm::detect().expect("AVX2+FMA not available on this CPU")
}

/// The register form of [`Engine::Avx512`], on the way into a sandwich.
///
/// # Panics
/// Panics if the CPU lacks AVX-512F: no selection resolves
/// [`Engine::Avx512`] there.
#[cfg(target_arch = "x86_64")]
pub(crate) fn zmm() -> Zmm {
    // Panic-justification: only `KernelSpace::resolve` yields
    // `Engine::Avx512`, after `avx512_available()`; a hand-made one on a
    // lesser CPU stops here.
    Zmm::detect().expect("AVX-512F not available on this CPU")
}

/// The register forms of [`Engine::Avx2`] and [`Engine::Avx512`], under
/// names a trait bound can use on every target: off x86-64, where neither
/// engine resolves, `Packs` stands in for both.
#[cfg(target_arch = "x86_64")]
pub(crate) type Avx2Lanes = Ymm;
#[cfg(target_arch = "x86_64")]
pub(crate) type Avx512Lanes = Zmm;
#[cfg(not(target_arch = "x86_64"))]
pub(crate) type Avx2Lanes = Packs;
#[cfg(not(target_arch = "x86_64"))]
pub(crate) type Avx512Lanes = Packs;

/// The codegen context an engine runs its four-lane and scalar code in
/// ([`Engine::codegen`]).
#[derive(Clone, Copy, Debug)]
pub enum Codegen {
    /// Baseline x86-64: `mul_add` is a libm call.
    Baseline,
    /// The AVX2+FMA sandwich ([`Ymm::run`]), entered with its token.
    #[cfg(target_arch = "x86_64")]
    Avx2(Ymm),
}

impl Engine {
    /// The engine name as recorded in bench output and reports
    /// (`portable` | `avx2` | `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Portable => "portable",
            Engine::Avx2 => "avx2",
            Engine::Avx512 => "avx512",
        }
    }

    /// Where everything of this engine's plans that is not an eight-lane
    /// sweep runs: the AVX2 context for both `std::arch` engines (a `Zmm`
    /// implies a `Ymm`), the baseline one for the portable engine. Each
    /// dispatch matches on this, so no engine can fall into the baseline
    /// context through a catch-all arm.
    ///
    /// # Panics
    /// Panics on a `std::arch` engine the CPU cannot run (no selection
    /// resolves one).
    pub fn codegen(self) -> Codegen {
        match self {
            Engine::Portable => Codegen::Baseline,
            #[cfg(target_arch = "x86_64")]
            Engine::Avx2 | Engine::Avx512 => Codegen::Avx2(ymm()),
            #[cfg(not(target_arch = "x86_64"))]
            Engine::Avx2 | Engine::Avx512 => {
                unreachable!("the x86-64 engines resolve on x86-64 only")
            }
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
/// forwarding to its sweep primitives ([`crate::t1d`], or [`crate::slab`]
/// with the kernel's row updates), so those layers are written once and
/// every call monomorphises to the same loop a hand-written per-dimension
/// caller would contain.
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
    /// each other, at the lane count of the engine it was allocated for
    /// ([`KernelSpace::scratch`]).
    type Scratch: Send;
    /// What the parts of an in-place scalar step hand each other: the old
    /// values already overwritten and still needed (a cell in 1-D, two
    /// slabs above).
    type StepBufs: Send;

    /// Minimum legal temporal stride (the kernel's dependence bound).
    const MIN_STRIDE: usize;
    /// Maximum supported temporal stride (the 1-D ring has a fixed
    /// capacity; the 2-D/3-D rings live in scratch).
    const MAX_STRIDE: usize = usize::MAX;

    /// Lane count `VL` of `engine`'s temporal sweep: 4 `f64` lanes, 8
    /// `i32` lanes for Life, 8 `f64` lanes for the 1-D and `f64` 2-D kinds
    /// on [`Engine::Avx512`]. One temporal sweep advances this many time
    /// levels.
    fn vl(engine: Engine) -> usize;

    /// Allocate sweep scratch for `engine`'s sweeps over interior extents
    /// `dims` at stride `s`.
    fn scratch(engine: Engine, dims: [usize; 3], s: usize) -> Self::Scratch;

    /// Allocate scalar-step state for interior extents `dims`.
    fn step_bufs(dims: [usize; 3]) -> Self::StepBufs;

    /// The anchors `xs ⊆ 1 ..= x_max` (`x_max = nx + 1 - VL·s`,
    /// `VL = vl(engine)`) of one temporal sweep — `VL` levels, in place —
    /// with the resolved `engine` (bit-identical either way): the sweep's
    /// masked front when `xs` starts at 1, the steady state over `xs`, its
    /// masked back when `xs` ends at `x_max`.
    /// Touches the slabs from `xs.start()` (from ghost slab 0 with the
    /// front) to `xs.end() + VL·s` (to ghost slab `nx + 1` with the back),
    /// which `a` must hold. `sc`
    /// must come from [`KernelSpace::scratch`] for the same engine; a
    /// `std::arch` engine needs a CPU with its features. `COUNT` turns on
    /// the steady state's reorganization-op accounting
    /// ([`tempora_simd::count`]).
    ///
    /// # Panics
    /// Panics when the outer extent cannot host the vector schedule
    /// (`nx < VL·s`; run scalar sweeps instead, as `tempora_tiling::Sweeps`
    /// does), or when `sc` was allocated for another lane count.
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

    /// The width formula's constants of a kernel with a wider sweep.
    const COST: Option<SweepCost> = None;

    /// Resolve `sel` for a temporal run of `steps` levels over `nx` outer
    /// slabs at the `stride` given (else each width's default): AVX2
    /// wherever the CPU has the features, whatever the stride and shape (a
    /// run too short or narrow for the vector schedule runs scalar steps in
    /// that codegen context), widened by [`SweepCost::widen`].
    fn resolve(sel: Select, nx: usize, steps: usize, stride: Option<usize>) -> Engine {
        let narrow = sel.resolve(avx2_available());
        let s = |e| stride.unwrap_or_else(|| Self::default_stride(e));
        let at = |e| (Self::vl(e), s(e));
        Self::COST.map_or(narrow, |c| c.widen(sel, narrow, nx, steps, at))
    }

    /// The temporal stride a plan runs on `engine` when none is given:
    /// the minimum legal stride 2. A slab ring of `s + 2` slabs lives in
    /// memory at any stride, so the narrowest ring (the shortest boundary
    /// phases) is the fastest of `2 ..= 4` for all six slab kinds in
    /// `repro ablate-stride`. The 1-D kinds' defaults depend on the
    /// engine.
    fn default_stride(_engine: Engine) -> usize {
        2
    }
}

/// The width formula of a kind with a wider sweep (see the
/// [module docs](self)), in ns per inner unit (a 1-D cell, a 2-D column,
/// an LCS column). Fit to `repro ablate-vl` on the 2-vCPU AVX-512
/// container (LCS 29 runs; the `f64` kinds' wide anchors refit to 40 runs
/// once the eight-lane rotate-with-insert became one `vpermt2pd`, Heat-1D
/// to the 20 of them at its new default stride): `anchor[0]` is the narrow
/// reading of the kind's largest shape without remainder levels;
/// `anchor[1]` and `scalar` are the multiples of it that fit the
/// narrow-over-wide time ratios of its shapes best (least squares in the
/// logarithm of the medians, shapes where both widths have a steady
/// anchor), among those that keep `auto` on the one width whose worst
/// reading is within 0.85 of the other's (the second-worst of 20 or 40
/// runs: one disturbed run per shape is dropped).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepCost {
    /// `c(kind, VL)`: one anchor of a sweep at the narrow (portable, AVX2)
    /// and the wide ([`Engine::Avx512`]) width.
    pub anchor: [f64; 2],
    /// `c_scalar(kind)`: one point of a scalar step.
    pub scalar: f64,
}

impl SweepCost {
    /// The cost of `levels` levels over `nx` outer slabs on `engine`, whose
    /// sweep runs `vl` lanes at stride `s`.
    pub fn run(&self, engine: Engine, (vl, s): (usize, usize), nx: usize, levels: usize) -> f64 {
        let sweeps = (nx >= vl.saturating_mul(s)) as usize * (levels / vl);
        let anchors = nx as f64 + (vl - 1) as f64 * s as f64;
        let anchor = self.anchor[(engine == Engine::Avx512) as usize];
        sweeps as f64 * anchors * anchor + (levels - sweeps * vl) as f64 * nx as f64 * self.scalar
    }

    /// The one width rule ([`KernelSpace::resolve`], LCS's `la` rows over
    /// `B` in [`crate::lcs::resolve`]): `narrow`, the engine `sel`
    /// resolves by capability, widened under `Select::Auto` where the CPU
    /// has AVX-512F, the wide sweep has a steady anchor (`nx ≥ VL·s`; four
    /// lanes read 1.1–1.9× the scalar steps on 12², 1.2–1.3× on Heat-2D's
    /// 12 and 16 rows at `s = 3`) and `t` levels over `nx` outer slabs
    /// cost less there (a tie stays narrow), `at(engine)` giving each
    /// width's lanes and stride.
    pub fn widen(
        &self,
        sel: Select,
        narrow: Engine,
        nx: usize,
        t: usize,
        at: impl Fn(Engine) -> (usize, usize),
    ) -> Engine {
        let cost = |engine| self.run(engine, at(engine), nx, t);
        let (vl, s) = at(Engine::Avx512);
        let cheaper = nx >= vl.saturating_mul(s) && cost(Engine::Avx512) < cost(Engine::Avx2);
        match narrow {
            Engine::Avx2 if sel == Select::Auto && cheaper && avx512_available() => Engine::Avx512,
            engine => engine,
        }
    }
}

/// The scratch of a sweep at its engine's lane count, for the kernels with
/// a wider sweep on [`Engine::Avx512`]: the 1-D kinds
/// (`ScratchVl<Scratch1d<f64, 4>, Scratch1d<f64, 8>>`), the LCS bands
/// ([`crate::lcs::Scratch`], eight and sixteen `i32` lanes) and the `f64`
/// 2-D kinds (`ScratchVl<Scratch<f64, 4>, Scratch<f64, 8>>`).
pub enum ScratchVl<N, W> {
    /// The portable and AVX2 engines' width.
    Narrow(N),
    /// [`Engine::Avx512`]'s width.
    Wide(W),
}

/// The lane count of `engine`'s sweep for a kernel with an eight-lane one.
fn vl_of(engine: Engine) -> usize {
    match engine {
        Engine::Avx512 => 8,
        Engine::Portable | Engine::Avx2 => 4,
    }
}

/// Every 1-D kernel — Heat-1D and GS-1D — through `t1d::sweep`, at four
/// `f64` lanes or, on [`Engine::Avx512`], eight; the slab of a line is a
/// cell, so only the outer extent of the layout is read.
impl<K: Kernel1d + Send + 'static> KernelSpace for K {
    type Grid = Grid1<f64>;
    type Scratch = ScratchVl<Scratch1d<f64, 4>, Scratch1d<f64, 8>>;
    /// The old value of the last cell updated (Jacobi's west operand).
    type StepBufs = f64;
    const MIN_STRIDE: usize = <K as Kernel1d>::MIN_STRIDE;
    const MAX_STRIDE: usize = t1d::RING_CAP - 1;

    fn vl(engine: Engine) -> usize {
        vl_of(engine)
    }

    fn scratch(engine: Engine, _dims: [usize; 3], s: usize) -> Self::Scratch {
        ScratchVl::new(engine, s)
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
        sc: &mut Self::Scratch,
    ) {
        t1d::sweep::<f64, 4, 8, COUNT, K>(engine, a.data, a.first, lay.nx, *self, s, sc, xs)
    }

    fn scalar_sweep(
        &self,
        engine: Engine,
        _lay: &SlabLayout<f64>,
        a: SlabsMut<'_, f64>,
        xs: RangeInclusive<usize>,
        old_west: &mut f64,
    ) {
        match engine.codegen() {
            #[cfg(target_arch = "x86_64")]
            Codegen::Avx2(isa) => {
                let kern = *self; // by value: its coefficients hoist out of the loop
                isa.run(
                    #[inline(always)]
                    move || t1d::scalar_cells(a.data, a.first, &kern, xs, old_west),
                )
            }
            Codegen::Baseline => t1d::scalar_cells(a.data, a.first, self, xs, old_west),
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

    /// `c(kind, 4)` is the four-lane reading at 4096 × 32 ([`SweepCost`]);
    /// the fit multiples are Heat-1D 1.18 and 0.975, GS-1D 1.12 and 1.825
    /// (its scalar steps are one dependence chain; both scalar multiples
    /// fit as well as a refit one, so they stay). At 32 steps they cross
    /// at 80 and 56 points, the narrowest lines eight lanes host at the
    /// default strides 10 and 7; at twelve steps four lanes win at every
    /// extent.
    const COST: Option<SweepCost> = Some(match K::IS_GS {
        true => SweepCost {
            anchor: [1.60, 1.79],
            scalar: 2.92,
        },
        false => SweepCost {
            anchor: [1.12, 1.32],
            scalar: 1.09,
        },
    });

    /// The smallest register-specialised stride within 3 % of the kind's
    /// plateau on `engine` in `repro ablate-vl`'s stride rows at this
    /// repo's benchmark geometry (65536 points × 32 steps, where the
    /// boundary is a few per mille; a unit test of `tempora_plan` ties
    /// each to its engine's specialised set: `t1d::REGISTER_STRIDES` /
    /// `ZMM_REGISTER_STRIDES`). Heat-1D's chain advances `s - 1`
    /// iterations per hop. At eight lanes ([`Engine::Avx512`]) it levels
    /// off from 10 (0.97 of the best stride, medians of 20 runs; 9 reads
    /// 0.96, 13 0.96), and at the served 4096 points 10 reads 0.98 against
    /// 13's 0.93 (`ablate-stride`). At four lanes 10 was fit the same way
    /// (0.97 then) and reads 0.93 in the same runs. GS-1D is bound by its
    /// output chain from 7 (0.97–0.98 at either width), and a wider stride
    /// would only raise the skew tiling's minimum block.
    fn default_stride(_engine: Engine) -> usize {
        match K::IS_GS {
            true => 7,
            false => 10,
        }
    }
}

/// The six slab kernels differ in what one invocation line names: the
/// grid and its element, the lane count (the integer Life steady state
/// runs at `vl = 8` i32 lanes — one full `__m256i` — in every engine, so
/// the layers above dispatch it exactly like the f64 kernels), the
/// dimension's kernel trait and row updates, and its multi-load step.
/// Everything else forwards to [`crate::slab`], in the codegen context and
/// with the rows' register form of the resolved engine ([`Engine::codegen`]).
///
/// A line `x $vl` runs one lane count on every engine (an
/// [`Engine::Avx512`] handed to it runs its AVX2 rows); a line `x 4 | 8`
/// — the `f64` 2-D kinds — runs eight `f64` lanes on [`Engine::Avx512`],
/// the rows computing in `Zmm` inside [`Zmm::run`], its
/// scratch a [`ScratchVl`] and its width formula's constants
/// `$anchor, $scalar` ([`KernelSpace::COST`]).
macro_rules! slab_kernel_space {
    ($($kern:ty: $grid:ident<$t:ty> x $vl:literal, $kernel:path, $rows:ident, $step:path;)*) => {$(
        impl KernelSpace for $kern {
            slab_kernel_space!(@shared $grid<$t> x $vl, $kernel, $rows, $step);
            type Scratch = Scratch<$t, $vl>;

            fn vl(_engine: Engine) -> usize {
                $vl
            }

            fn scratch(_engine: Engine, dims: [usize; 3], s: usize) -> Self::Scratch {
                Scratch::new::<Self::Grid>(dims, s, <Self as $kernel>::IS_GS)
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
                match engine.codegen() {
                    #[cfg(target_arch = "x86_64")]
                    Codegen::Avx2(isa) => isa.run(
                        #[inline(always)]
                        move || slab::sweep_body::<$t, $vl, COUNT, _>(
                            lay, a, &$rows(*self, isa), xs, s, sc,
                        ),
                    ),
                    Codegen::Baseline => slab::sweep_body::<$t, $vl, COUNT, _>(
                        lay, a, &$rows(*self, Packs), xs, s, sc,
                    ),
                }
            }
        }
    )*};
    ($($kern:ty: Grid2<f64> x 4 | 8 at $anchor:expr, $scalar:literal, $step:path;)*) => {$(
        impl KernelSpace for $kern {
            slab_kernel_space!(@shared Grid2<f64> x 4, Kernel2d<f64>, Rows2, $step);
            type Scratch = ScratchVl<Scratch<f64, 4>, Scratch<f64, 8>>;
            const COST: Option<SweepCost> = Some(SweepCost { anchor: $anchor, scalar: $scalar });

            fn vl(engine: Engine) -> usize {
                vl_of(engine)
            }

            fn scratch(engine: Engine, dims: [usize; 3], s: usize) -> Self::Scratch {
                let gs = <Self as Kernel2d<f64>>::IS_GS;
                match engine {
                    Engine::Avx512 => ScratchVl::Wide(Scratch::new::<Grid2<f64>>(dims, s, gs)),
                    Engine::Portable | Engine::Avx2 => {
                        ScratchVl::Narrow(Scratch::new::<Grid2<f64>>(dims, s, gs))
                    }
                }
            }

            fn sweep<const COUNT: bool>(
                &self,
                engine: Engine,
                lay: &SlabLayout<f64>,
                a: SlabsMut<'_, f64>,
                xs: RangeInclusive<usize>,
                s: usize,
                sc: &mut Self::Scratch,
            ) {
                match (engine, sc) {
                    #[cfg(target_arch = "x86_64")]
                    (Engine::Avx512, ScratchVl::Wide(sc)) => {
                        let isa = zmm();
                        isa.run(
                            #[inline(always)]
                            move || slab::sweep_body::<f64, 8, COUNT, _>(
                                lay, a, &Rows2(*self, isa), xs, s, sc,
                            ),
                        )
                    }
                    #[cfg(target_arch = "x86_64")]
                    (Engine::Avx2, ScratchVl::Narrow(sc)) => {
                        let isa = ymm();
                        isa.run(
                            #[inline(always)]
                            move || slab::sweep_body::<f64, 4, COUNT, _>(
                                lay, a, &Rows2(*self, isa), xs, s, sc,
                            ),
                        )
                    }
                    (Engine::Portable, ScratchVl::Narrow(sc)) => slab::sweep_body::<f64, 4, COUNT, _>(
                        lay, a, &Rows2(*self, Packs), xs, s, sc,
                    ),
                    (engine, _) => {
                        panic!("sweep scratch was allocated for another engine than {engine:?}")
                    }
                }
            }
        }
    )*};
    // What every slab kernel shares: its grid, and its one-level steps at
    // its four-lane (Life: eight-lane) width in every engine.
    (@shared $grid:ident<$t:ty> x $vl:literal, $kernel:path, $rows:ident, $step:path) => {
            type Grid = $grid<$t>;
            type StepBufs = [Vec<$t>; 2];
            const MIN_STRIDE: usize = <Self as $kernel>::MIN_STRIDE;

            fn step_bufs(dims: [usize; 3]) -> Self::StepBufs {
                slab::step_bufs::<Self::Grid>(dims)
            }

            fn scalar_sweep(
                &self,
                engine: Engine,
                lay: &SlabLayout<$t>,
                a: SlabsMut<'_, $t>,
                xs: RangeInclusive<usize>,
                bufs: &mut Self::StepBufs,
            ) {
                match engine.codegen() {
                    #[cfg(target_arch = "x86_64")]
                    Codegen::Avx2(isa) => isa.run(
                        #[inline(always)]
                        move || slab::scalar_sweep_body::<$t, $vl, _>(
                            lay, a, &$rows(*self, isa), xs, bufs,
                        ),
                    ),
                    Codegen::Baseline => slab::scalar_sweep_body::<$t, $vl, _>(
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
    };
}

slab_kernel_space! {
    LifeKern2d: Grid2<i32> x 8, Kernel2d<i32>, Rows2, spatial::step_2d;
    JacobiKern3d: Grid3<f64> x 4, Kernel3d, Rows3, spatial::step_3d;
    GsKern3d: Grid3<f64> x 4, Kernel3d, Rows3, spatial::step_3d;
}

// The width formula's constants (`SweepCost`): `c(kind, 4)` is the
// four-lane reading at 256² × 16; the fit multiples are Heat-2D 1.16 and
// 0.40, 2D9P 1.25 and 0.40 (a Jacobi scalar step in 2-D is spatially
// vectorised; their scalar multiples fit as well as a refit one, so they
// stay), GS-2D 1.21 and 0.99. At 8, 9, 12 (the Jacobi kinds) or 16 steps
// all three cross at 16 rows, the narrowest grid eight lanes host at
// `s = 2`; at twelve steps GS-2D stays on four lanes.
slab_kernel_space! {
    JacobiKern2d: Grid2<f64> x 4 | 8 at [1.69, 1.96], 0.68, spatial::step_2d;
    BoxKern2d: Grid2<f64> x 4 | 8 at [2.37, 2.96], 0.95, spatial::step_2d;
    GsKern2d: Grid2<f64> x 4 | 8 at [2.18, 2.64], 2.16, spatial::step_2d;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::{GsKern1d, JacobiKern1d};
    use tempora_grid::{fill_random, Boundary};
    use tempora_stencil::{reference, Gs1dCoeffs, Heat1dCoeffs};

    /// The window of `g` holding slabs `lo ..= hi`: what a part is given,
    /// so that a part reaching outside its documented slabs panics.
    pub(crate) fn window<G: SlabGrid>(g: &mut G, lo: usize, hi: usize) -> SlabsMut<'_, G::Elem> {
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
        let (mut scalar_steps, vl) = (steps, K::vl(engine));
        if let Some(s) = s.filter(|s| nx >= vl * s) {
            let (mut sc, reach) = (K::scratch(engine, dims, s), vl * s);
            let x_max = nx + 1 - reach;
            scalar_steps %= vl;
            for _ in 0..steps / vl {
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
        let engine = K::resolve(sel, g.dims()[0], steps, Some(s));
        (run_whole(engine, g, kern, steps, s), engine)
    }

    fn heat1d(n: usize, seed: u64) -> Grid1<f64> {
        let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.0));
        fill_random(&mut g, seed, -1.0, 1.0);
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
        tempora_grid::fill_random(&mut g2, 6, -1.0, 1.0);
        let (r, e) = run(Select::Auto, &g2, &JacobiKern2d(c2), 8, 2);
        assert_eq!(e, auto);
        assert!(r.interior_eq(&reference::heat2d(&g2, c2, 8)));
    }

    /// Every engine this host can run.
    pub(crate) fn engines() -> Vec<Engine> {
        let mut engines = vec![Engine::Portable];
        if avx2_available() {
            engines.push(Engine::Avx2);
        }
        if avx512_available() {
            engines.push(Engine::Avx512);
        }
        engines
    }

    /// Heat-1D and GS-1D, two coefficient sets each (the asymmetric ones
    /// tell the operands apart), run whole or in parts of `cut` on
    /// `engine` ≡ the reference; `at` names the row.
    fn both_1d_kinds(engine: Engine, g: &Grid1<f64>, steps: usize, s: usize, cut: usize, at: &str) {
        let heat = [
            Heat1dCoeffs::classic(0.25),
            Heat1dCoeffs::new(0.3, 0.45, 0.25),
        ];
        let gs = [Gs1dCoeffs::classic(0.25), Gs1dCoeffs::new(0.37, 0.4, 0.23)];
        for c in heat {
            let ours = run_in_parts(engine, g, &JacobiKern1d(c), steps, Some(s), cut);
            let gold = reference::heat1d(g, c, steps);
            assert!(
                ours.interior_eq(&gold),
                "heat1d {engine:?} {at} s={s} n={} steps={steps} {:?}",
                g.n(),
                ours.first_diff(&gold)
            );
        }
        for c in gs {
            let ours = run_in_parts(engine, g, &GsKern1d(c), steps, Some(s), cut);
            let gold = reference::gs1d(g, c, steps);
            assert!(
                ours.interior_eq(&gold),
                "gs1d {engine:?} {at} s={s} n={} steps={steps} {:?}",
                g.n(),
                ours.first_diff(&gold)
            );
        }
    }

    #[test]
    fn stride_remainder_table_matches_reference_bitwise() {
        // Every stride the 1-D kinds accept — the register-specialised
        // ones and the rolled ring — against every way the unrolled
        // `R = s + 1` chunks can end: a steady state of one iteration
        // (`n = VL·s`), whole chunks, and chunks plus 1 or `R - 1`
        // remainder iterations; one cell short of a vector tile
        // (`n = VL·s - 1`: scalar steps only); and lines of `VL·s + 1 ..=
        // 2·VL·s + 1` cells, where the masked front and back meet inside
        // one part. Whole tiles and tiles cut at half their steady
        // anchors, then parts, every engine of the host at its own lane
        // count (`steps` a sweep, two, and 13: sweeps plus a scalar
        // remainder at either width).
        for engine in engines() {
            let vl = JacobiKern1d::vl(engine);
            for s in 2..=<JacobiKern1d as KernelSpace>::MAX_STRIDE {
                let r = s + 1;
                for x_max in [
                    0,
                    1,
                    2,
                    3 * r,
                    3 * r + 1,
                    4 * r - 1,
                    vl * s / 2 + 2,
                    vl * s + 2,
                ] {
                    let n = x_max + vl * s - 1;
                    for steps in [vl, 2 * vl, 13] {
                        let g = heat1d(n, (n + steps) as u64);
                        for cut in [n, x_max.div_ceil(2).max(1)] {
                            both_1d_kinds(engine, &g, steps, s, cut, &format!("cut={cut}"));
                        }
                    }
                }
                // Parts: a sweep cut every `4·R + rem` anchors enters the
                // steady state at ring rotations `k·rem mod R` — every
                // chunk whole, one iteration over, one short — and hands
                // the ring from part to part; the remainder steps are cut
                // the same way.
                for rem in [0, 1, r - 1] {
                    let cut = 4 * r + rem;
                    let n = 4 * cut + 3 + vl * s;
                    let g = heat1d(n, (n + s) as u64);
                    for steps in [vl, 2 * vl, 13] {
                        both_1d_kinds(engine, &g, steps, s, cut, &format!("cut={cut}"));
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

    /// The first outer extent, below 2¹⁶, at which eight lanes have a
    /// steady anchor and `K`'s formula prices `steps` levels cheaper there
    /// than at four, at stride `s` (`None`: each width's default).
    fn crossover<K: KernelSpace>(steps: usize, s: Option<usize>) -> Option<usize> {
        let cost = K::COST?;
        let at = |e| (K::vl(e), s.unwrap_or_else(|| K::default_stride(e)));
        let run = |e, nx| cost.run(e, at(e), nx, steps);
        let (vl, s) = at(Engine::Avx512);
        (1..1 << 16).find(|&nx| nx >= vl * s && run(Engine::Avx512, nx) < run(Engine::Avx2, nx))
    }

    /// `K` under `Auto` at the crossovers `(steps, w)` its formula gives at
    /// the default strides: eight lanes from `w` on (where the CPU has
    /// them), four below it and at every extent without one; the other
    /// selections never widen.
    fn widens_at_the_crossover<K: KernelSpace>(crossovers: &[(usize, Option<usize>)]) {
        let auto = Select::Auto.resolve(true);
        let wide = if avx512_available() {
            Engine::Avx512
        } else {
            auto
        };
        for &(steps, w) in crossovers {
            assert_eq!(crossover::<K>(steps, None), w, "{steps} steps");
            let resolve = |nx| K::resolve(Select::Auto, nx, steps, None);
            match w {
                Some(w) => {
                    assert_eq!(resolve(w), wide, "{w} x {steps}");
                    assert_eq!(resolve(1 << 16), wide, "65536 x {steps}");
                    assert_eq!(resolve(w - 1), auto, "{} x {steps}", w - 1);
                }
                None => assert_eq!(resolve(1 << 16), auto, "65536 x {steps}"),
            }
        }
        assert_eq!(
            K::resolve(Select::Portable, 1 << 16, 32, None),
            Engine::Portable
        );
        if avx2_available() {
            assert_eq!(K::resolve(Select::Avx2, 1 << 16, 32, None), Engine::Avx2);
        }
    }

    #[test]
    fn auto_widens_1d_at_the_measured_crossover() {
        widens_at_the_crossover::<JacobiKern1d>(&[(32, Some(80)), (9, Some(80)), (12, None)]);
        widens_at_the_crossover::<GsKern1d>(&[(32, Some(56)), (9, Some(56)), (12, None)]);
        // A given stride enters the formula at both widths: `auto` widens
        // from that stride's crossover on.
        fn at_stride<K: KernelSpace>(s: usize, steps: usize) {
            let w = crossover::<K>(steps, Some(s)).expect("every stride has a crossover");
            let resolve = |nx| K::resolve(Select::Auto, nx, steps, Some(s));
            let auto = Select::Auto.resolve(true);
            assert_eq!(resolve(w - 1), auto, "s={s}: {} x {steps}", w - 1);
            let wide = if avx512_available() {
                Engine::Avx512
            } else {
                auto
            };
            assert_eq!(resolve(w), wide, "s={s}: {w} x {steps}");
        }
        for s in 2..=<JacobiKern1d as KernelSpace>::MAX_STRIDE {
            for steps in [8, 9, 32] {
                at_stride::<JacobiKern1d>(s, steps);
                at_stride::<GsKern1d>(s, steps);
            }
        }
    }

    /// The `f64` 2-D kinds widen by the same formula: from 16 rows, the
    /// narrowest grid that hosts eight lanes at `s = 2`, except GS-2D at
    /// twelve steps (never); Life and the 3-D kinds have one width and
    /// never widen.
    #[test]
    fn auto_widens_the_f64_2d_kinds_at_their_crossover() {
        let jacobi = [(8, Some(16)), (9, Some(16)), (12, Some(16)), (16, Some(16))];
        widens_at_the_crossover::<JacobiKern2d>(&jacobi);
        widens_at_the_crossover::<BoxKern2d>(&jacobi);
        widens_at_the_crossover::<GsKern2d>(&[(8, Some(16)), (9, Some(16)), (12, None)]);
        let auto = Select::Auto.resolve(true);
        assert_eq!(LifeKern2d::COST, None);
        assert_eq!(LifeKern2d::resolve(Select::Auto, 1 << 12, 32, None), auto);
        assert_eq!(JacobiKern3d::resolve(Select::Auto, 1 << 12, 32, None), auto);
        assert_eq!(GsKern3d::resolve(Select::Auto, 1 << 12, 32, None), auto);
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
