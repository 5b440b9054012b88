//! [`PlanBuilder`] → [`Plan`] → [`Report`]: compile a [`Problem`] into a
//! reusable execution plan.

use crate::exec::{Dlt1d, Exec, RectLcs, Reorg1d, StateGrid, Tiled};
use crate::{PlanError, Problem, State};
use tempora_baseline::dlt::dlt_applicable;
use tempora_core::engine::{Elem, Engine, KernelSpace, Select};
use tempora_core::kernels::{
    BoxKern2d, GsKern1d, GsKern2d, GsKern3d, JacobiKern1d, JacobiKern2d, JacobiKern3d, LifeKern2d,
};
use tempora_core::lcs_avx2;
use tempora_grid::Boundary;
use tempora_parallel::{Pool, PoolConfig};
use tempora_simd::count;
use tempora_tiling::{LcsRect, Mode, Sweeps};

/// What the builder hands [`Plan`]: the executor, the engine it resolved
/// (temporal methods only), the tile geometry (tiled plans only) and the
/// temporal stride.
type Built = (Box<dyn Exec>, Option<Engine>, Option<TileGeometry>, usize);

/// The lane count tile heights are validated against: the integer Life
/// kernel's 8, the four `f64` lanes of every other kind (an eight-lane
/// plan of a 1-D or `f64` 2-D kind validates as four: the rule is on the
/// wire, and which width runs is the engine's business, not the
/// request's).
fn tile_vl(problem: &Problem) -> usize {
    if matches!(problem, Problem::Life { .. }) {
        8
    } else {
        4
    }
}

/// The vectorization scheme a plan executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Method {
    /// The paper's temporal vectorization (the "our" curves).
    #[default]
    Temporal,
    /// Spatial multi-load vectorization (the "auto" curves); illegal for
    /// Gauss-Seidel stencils and the LCS wavefront.
    Multiload,
    /// The data-reorganization baseline (§2.2), Heat-1D only. One-shot by
    /// design — rebuilds its transposed layout per run.
    Reorg,
    /// The dimension-lifted-transpose baseline (§2.2), Heat-1D only.
    /// One-shot by design. A size DLT cannot lift (`n` not a multiple of
    /// 4, or below 8) runs the multi-load sweeps instead.
    Dlt,
    /// The scalar reference sweep.
    Scalar,
}

/// The time-space tiling a plan wraps around the method.
///
/// Every grid plan runs the same executor: the method's sweeps —
/// `steps / VL` temporal sweeps plus `steps % VL` scalar ones, or one
/// scalar or multi-load sweep per step — are cut into chunks of `block`
/// anchors along the outer dimension and pipelined through the grid **in
/// place** by one wavefront: the next sweep starts on a chunk as soon as
/// the sweep before has finished the chunk after it (see
/// `tempora_tiling::sweeps`). Consecutive chunks of a sweep are the
/// paper's parallelogram tiles; nothing is copied and no level runs
/// outside the wavefront — the `steps % VL` remainder levels are chunked
/// sweeps like the rest, not scalar steps on the calling thread.
/// [`Tiling::None`] is the one-chunk case of that schedule; the two grid
/// variants differ in the stencils they accept and the geometry rules
/// they validate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Tiling {
    /// No tiling: each sweep is one chunk (LCS: the table is one
    /// rectangle), run by the calling thread — the sequential engine. The
    /// [`Report`] of such a plan carries no [`TileGeometry`].
    #[default]
    None,
    /// Pipelined in-place sweeps — Jacobi stencils only.
    Ghost {
        /// Anchors (outer slabs) per chunk of a sweep; a narrower value is
        /// widened to `max(VL·s, 2)`, the slabs a chunk reads ahead.
        block: usize,
        /// Validated (a positive multiple of the vector length) and echoed
        /// in [`TileGeometry`], but **it no longer shapes the schedule**:
        /// a sweep is `VL` levels deep whatever the height. Kept because
        /// the wire format and the benchmark name it.
        height: usize,
    },
    /// Pipelined in-place sweeps — Gauss-Seidel stencils only.
    Skew {
        /// Anchors (outer slabs) per chunk of a sweep; validated against
        /// `height + VL·s + VL` (stride 0 for the scalar method).
        block: usize,
        /// Validated (a positive multiple of 4) and echoed in
        /// [`TileGeometry`], but **it no longer shapes the schedule**, as
        /// for [`Tiling::Ghost`].
        height: usize,
    },
    /// Rectangle tiling with pipelined wavefronts — LCS only. The
    /// temporal method runs one band sweep per `VL` DP rows, cut at the
    /// block columns and resumed across them (`tempora_tiling::lcs_rect`);
    /// the scalar method, and a shape no band sweep fits, scalar rows
    /// over `xblock × yblock` rectangles. Both extents are clamped to the
    /// sequence lengths.
    LcsRect {
        /// DP rows per rectangle of the scalar rows. Validated and echoed,
        /// but it **does not shape the band sweeps**, which are `VL` rows
        /// deep whatever `xblock` is.
        xblock: usize,
        /// DP columns per block column.
        yblock: usize,
    },
}

/// Tile geometry a plan resolved (for tiled plans).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileGeometry {
    /// Chunks per sweep (grid tilings), or the tasks of the wave that
    /// runs (LCS: bands × block columns, or rectangles of the scalar
    /// rows).
    pub tiles: usize,
    /// Anchors per chunk along the outer dimension — the `block` asked
    /// for, widened to `max(VL·s, 2)` when narrower (LCS: the DP rows of
    /// one task — the band's `VL`, or the clamped `xblock` of the scalar
    /// rows).
    pub block: usize,
    /// The `height` the tiling was given, echoed; the grid tilings'
    /// schedule does not depend on it (LCS: the DP columns of one task,
    /// the clamped `yblock`).
    pub height: usize,
}

/// What one [`Plan::run`] call did: the resolved engine, the work
/// executed, and optional instrumentation.
#[derive(Clone, Debug)]
pub struct Report {
    /// The steady state that executed, for dispatched (temporal) methods:
    /// `Some(Engine::Avx512)` (the 1-D and `f64` 2-D kinds at eight lanes,
    /// LCS at sixteen),
    /// `Some(Engine::Avx2)` or `Some(Engine::Portable)`; `None` for
    /// non-dispatched methods (scalar, multi-load, baselines).
    pub engine: Option<Engine>,
    /// Time steps advanced (DP rows for LCS).
    pub steps: usize,
    /// Worker threads the plan's pool runs.
    pub threads: usize,
    /// True when per-core pinning was requested with
    /// [`PlanBuilder::pin`] and every pool thread was successfully
    /// pinned.
    pub pinned: bool,
    /// Tile geometry, for tiled plans.
    pub tiles: Option<TileGeometry>,
    /// Reorganization-op counts of this run, when the plan was built with
    /// [`PlanBuilder::count_reorg`].
    pub reorg: Option<count::Counts>,
    /// The LCS length, for LCS problems.
    pub lcs_length: Option<i32>,
}

/// Builder for a [`Plan`]: method, tiling, engine selection, worker
/// count, temporal stride and optional instrumentation. Every invalid
/// combination is reported as a [`PlanError`] by [`PlanBuilder::build`] —
/// no panics, no silent fallbacks beyond the documented engine-resolution
/// ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanBuilder {
    method: Method,
    tiling: Tiling,
    select: Select,
    threads: Option<usize>,
    stride: Option<usize>,
    count_reorg: bool,
    pin: bool,
}

impl PlanBuilder {
    /// A builder with the defaults: temporal method, no tiling,
    /// [`Select::Auto`], one thread, per-kind default stride.
    pub fn new() -> PlanBuilder {
        PlanBuilder::default()
    }

    /// Set the vectorization method.
    pub fn method(mut self, method: Method) -> PlanBuilder {
        self.method = method;
        self
    }

    /// Set the time-space tiling.
    pub fn tiling(mut self, tiling: Tiling) -> PlanBuilder {
        self.tiling = tiling;
        self
    }

    /// Set the engine selection policy (default [`Select::Auto`]; use
    /// [`Select::from_env`] to honour `TEMPORA_ENGINE`).
    pub fn select(mut self, select: Select) -> PlanBuilder {
        self.select = select;
        self
    }

    /// Set the worker-thread count (default 1). More than one thread
    /// requires a tiling scheme.
    pub fn threads(mut self, threads: usize) -> PlanBuilder {
        self.threads = Some(threads);
        self
    }

    /// Set the temporal space stride `s`. The default is per kind and
    /// resolved engine ([`KernelSpace::default_stride`]): the paper's 2 in
    /// 2-D/3-D, and in 1-D the start of the measured plateau of the
    /// register-ring steady states (`repro ablate-stride`) — for Heat-1D
    /// 10 at four lanes and 13 at eight, 7 for GS-1D; 2 for LCS at either
    /// width.
    /// [`Plan::stride`] reports what a built plan runs.
    pub fn stride(mut self, stride: usize) -> PlanBuilder {
        self.stride = Some(stride);
        self
    }

    /// Pin each pool thread to one CPU (best-effort;
    /// `sched_setaffinity` on Linux/x86_64, an honest no-op elsewhere).
    /// The built plan reports whether pinning took effect via
    /// [`Plan::is_pinned`] and [`Report::pinned`]. Default off.
    pub fn pin(mut self, pin: bool) -> PlanBuilder {
        self.pin = pin;
        self
    }

    /// Record data-reorganization operation counts in each run's
    /// [`Report`]. Only the instrumented paths support this: 1-D temporal
    /// without tiling (the counters are per thread), on whichever engine
    /// the plan resolves, and the reorg baseline.
    pub fn count_reorg(mut self, on: bool) -> PlanBuilder {
        self.count_reorg = on;
        self
    }

    /// Compile `problem` into a [`Plan`]: validate the configuration,
    /// resolve the engine, the stride and the tile geometry once, and
    /// allocate the thread pool and every scratch arena the execution will
    /// need.
    ///
    /// # Errors
    /// Any invalid configuration returns a descriptive [`PlanError`];
    /// see the variants for the catalogue. Degenerate-but-legal
    /// geometries (interiors below `VL·s`, fewer than `VL` steps) are
    /// *not* errors: they build fine, run scalar steps and report the
    /// engine whose codegen context runs them (LCS: portable).
    pub fn build(&self, problem: &Problem) -> Result<Plan, PlanError> {
        let threads = self.threads.unwrap_or(1);
        if threads == 0 {
            return Err(PlanError::ZeroThreads);
        }
        if matches!(self.tiling, Tiling::None) && threads > 1 {
            return Err(PlanError::ThreadsRequireTiling { threads });
        }
        if problem.extents().contains(&0) && !matches!(problem, Problem::Lcs { .. }) {
            return Err(PlanError::EmptyDomain);
        }
        if self.select == Select::Avx2 && !tempora_simd::arch::avx2_available() {
            return Err(PlanError::Avx2Unavailable);
        }
        if self.stride == Some(0) {
            return Err(PlanError::ZeroStride);
        }
        self.check_method(problem)?;
        self.check_tiling(problem)?;
        self.check_count(problem)?;

        let (exec, engine, tiles, s) = self.build_exec(problem)?;
        let pool = Pool::with_config(PoolConfig::new(threads).pin(self.pin));
        Ok(Plan {
            problem: *problem,
            method: self.method,
            tiling: self.tiling,
            stride: s,
            engine,
            tiles,
            threads,
            count_reorg: self.count_reorg,
            pool,
            exec,
            poisoned: None,
        })
    }

    /// Method × problem legality.
    fn check_method(&self, problem: &Problem) -> Result<(), PlanError> {
        let reject = |why| {
            Err(PlanError::MethodUnsupported {
                method: self.method,
                problem: problem.kind_name(),
                why,
            })
        };
        match self.method {
            Method::Multiload if problem.is_gauss_seidel() => {
                reject("spatial auto-vectorization of Gauss-Seidel loops is illegal (loop-carried dependence)")
            }
            Method::Multiload if matches!(problem, Problem::Lcs { .. }) => {
                reject("the LCS wavefront has no spatial multi-load form")
            }
            Method::Reorg | Method::Dlt if !matches!(problem, Problem::Heat1d { .. }) => {
                reject("this baseline is implemented for Heat-1D only")
            }
            _ => Ok(()),
        }
    }

    /// Tiling × problem/method legality plus the tile-geometry checks that
    /// do not depend on the stride ([`PlanBuilder::check_block`] does).
    fn check_tiling(&self, problem: &Problem) -> Result<(), PlanError> {
        let reject = |why| {
            Err(PlanError::TilingUnsupported {
                tiling: self.tiling,
                problem: problem.kind_name(),
                why,
            })
        };
        let is_jacobi_grid = matches!(
            problem,
            Problem::Heat1d { .. }
                | Problem::Heat2d { .. }
                | Problem::Box2d { .. }
                | Problem::Life { .. }
                | Problem::Heat3d { .. }
        );
        match self.tiling {
            Tiling::None => Ok(()),
            Tiling::Ghost { block, height } | Tiling::Skew { block, height } => {
                let skew = matches!(self.tiling, Tiling::Skew { .. });
                if skew && !problem.is_gauss_seidel() {
                    return reject(
                        "skewed (parallelogram) tiling applies to Gauss-Seidel stencils only",
                    );
                }
                if !skew && !is_jacobi_grid {
                    return reject("ghost-zone tiling applies to Jacobi stencils only");
                }
                if matches!(self.method, Method::Reorg | Method::Dlt) {
                    return Err(PlanError::MethodUnsupported {
                        method: self.method,
                        problem: problem.kind_name(),
                        why: "the reorg/DLT baselines have no tiled form",
                    });
                }
                if block == 0 {
                    return Err(PlanError::ZeroTileExtent);
                }
                let vl = tile_vl(problem);
                if height < vl || height % vl != 0 {
                    return Err(PlanError::BadTileHeight { height, vl });
                }
                Ok(())
            }
            Tiling::LcsRect { xblock, yblock } => {
                if !matches!(problem, Problem::Lcs { .. }) {
                    return reject("rectangle tiling applies to the LCS wavefront only");
                }
                if xblock == 0 || yblock == 0 {
                    return Err(PlanError::ZeroTileExtent);
                }
                Ok(())
            }
        }
    }

    /// The skewed bands' wave-disjointness bound, `height + VL·s + VL`
    /// (stride 0 for the scalar method), checked once the stride is
    /// resolved. The pipelined sweeps need only `VL·s` and widen to it
    /// themselves, but the rule is part of the validated surface
    /// (`BlockTooNarrow` is on the wire), so it stays — with `VL` the
    /// four lanes it was written for, whatever engine the plan resolves,
    /// and saturating: no block clears a stride whose `VL·s` overflows.
    fn check_block(&self, problem: &Problem, s: usize) -> Result<(), PlanError> {
        let Tiling::Skew { block, height } = self.tiling else {
            return Ok(());
        };
        let vl = tile_vl(problem);
        let s_eff = if self.method == Method::Temporal {
            s
        } else {
            0
        };
        match height.saturating_add(vl.saturating_mul(s_eff.saturating_add(1))) {
            min if block < min => Err(PlanError::BlockTooNarrow { block, min }),
            _ => Ok(()),
        }
    }

    /// Reorg-op counting support.
    fn check_count(&self, problem: &Problem) -> Result<(), PlanError> {
        if !self.count_reorg {
            return Ok(());
        }
        match self.method {
            Method::Reorg => Ok(()),
            Method::Temporal => {
                if !matches!(problem, Problem::Heat1d { .. } | Problem::Gs1d { .. }) {
                    Err(PlanError::CountUnsupported {
                        why: "only the 1-D temporal engine is instrumented",
                    })
                } else if !matches!(self.tiling, Tiling::None) {
                    Err(PlanError::CountUnsupported {
                        why: "tiled runs are not instrumented",
                    })
                } else {
                    Ok(())
                }
            }
            _ => Err(PlanError::CountUnsupported {
                why: "this method has no instrumented form",
            }),
        }
    }

    /// Construct the executor, resolved engine, tile geometry and stride.
    fn build_exec(&self, problem: &Problem) -> Result<Built, PlanError> {
        let p = problem;
        match *problem {
            Problem::Heat1d {
                n,
                steps,
                coeffs,
                boundary,
            } => {
                let isa = self.isa();
                let baseline: Box<dyn Exec> = match self.method {
                    Method::Reorg => Box::new(Reorg1d {
                        coeffs,
                        steps,
                        isa,
                        counted: self.count_reorg,
                    }),
                    Method::Dlt if dlt_applicable(n) => Box::new(Dlt1d { coeffs, steps, isa }),
                    _ => return self.plan_grid(p, JacobiKern1d(coeffs), boundary),
                };
                // The baselines run no temporal sweep; they report the
                // stride a temporal plan of the problem would run.
                let (_, s) = self.resolve::<JacobiKern1d>(n, steps);
                Ok((baseline, None, None, s))
            }
            Problem::Gs1d {
                coeffs, boundary, ..
            } => self.plan_grid(p, GsKern1d(coeffs), boundary),
            Problem::Heat2d {
                coeffs, boundary, ..
            } => self.plan_grid(p, JacobiKern2d(coeffs), boundary),
            Problem::Box2d {
                coeffs, boundary, ..
            } => self.plan_grid(p, BoxKern2d(coeffs), boundary),
            Problem::Gs2d {
                coeffs, boundary, ..
            } => self.plan_grid(p, GsKern2d(coeffs), boundary),
            Problem::Life { rule, boundary, .. } => self.plan_grid(p, LifeKern2d(rule), boundary),
            Problem::Heat3d {
                coeffs, boundary, ..
            } => self.plan_grid(p, JacobiKern3d(coeffs), boundary),
            Problem::Gs3d {
                coeffs, boundary, ..
            } => self.plan_grid(p, GsKern3d(coeffs), boundary),
            Problem::Lcs { la, lb } => self.plan_lcs(la, lb),
        }
    }

    /// The engine kernel `K`'s temporal sweeps resolve to for `steps`
    /// levels over `nx` outer slabs, and the stride they run: the one
    /// given, else that engine's default. One resolution and one stride
    /// table, both the kernel's ([`KernelSpace::resolve`],
    /// [`KernelSpace::default_stride`]); tiling does not enter, since a
    /// tiled plan runs the same sweeps, cut into chunks.
    fn resolve<K: KernelSpace>(&self, nx: usize, steps: usize) -> (Engine, usize) {
        let engine = K::resolve(self.select, nx, steps);
        let s = self.stride.unwrap_or_else(|| K::default_stride(engine));
        (engine, s)
    }

    /// Stride legality for the temporal method (spatial methods ignore
    /// the stride entirely).
    fn check_stride<K: KernelSpace>(&self, s: usize) -> Result<(), PlanError> {
        if self.method != Method::Temporal {
            return Ok(());
        }
        if s < K::MIN_STRIDE {
            return Err(PlanError::StrideTooSmall {
                stride: s,
                min: K::MIN_STRIDE,
            });
        }
        if s > K::MAX_STRIDE {
            return Err(PlanError::StrideTooLarge {
                stride: s,
                max: K::MAX_STRIDE,
            });
        }
        Ok(())
    }

    /// The one grid builder, for any kernel, dimensionality, method and
    /// tiling: the pipelined-sweep workspace, built for the engine and
    /// stride [`PlanBuilder::resolve`] gives (the spatial methods run in
    /// the selection's codegen context instead and report no engine). An
    /// untiled plan cuts each sweep into one chunk and reports no tile
    /// geometry.
    fn plan_grid<K: KernelSpace>(
        &self,
        problem: &Problem,
        kern: K,
        bc: Boundary<Elem<K>>,
    ) -> Result<Built, PlanError>
    where
        K::Grid: StateGrid,
    {
        let (dims, steps) = (problem.extents(), problem.steps());
        let (temporal, s) = self.resolve::<K>(dims[0], steps);
        self.check_stride::<K>(s)?;
        self.check_block(problem, s)?;
        let (block, height) = match self.tiling {
            Tiling::None => (dims[0], None),
            Tiling::Ghost { block, height } | Tiling::Skew { block, height } => {
                (block, Some(height))
            }
            Tiling::LcsRect { .. } => unreachable!("validated: LcsRect is LCS-only"),
        };
        let (mode, engine) = match self.method {
            Method::Temporal => (Mode::Temporal(s), temporal),
            // DLT reaches here only on a size it cannot lift.
            Method::Multiload | Method::Dlt => (Mode::Auto, self.isa()),
            Method::Scalar => (Mode::Scalar, self.isa()),
            Method::Reorg => unreachable!("handled per-problem"),
        };
        let w =
            Sweeps::new(kern, dims, bc, steps, block, mode, engine).count_reorg(self.count_reorg);
        let geometry = height.map(|height| TileGeometry {
            tiles: w.chunks(),
            block: w.chunk(),
            height,
        });
        let engine = w.engine();
        Ok((Box::new(Tiled(w)), engine, geometry, s))
    }

    /// The one LCS builder: the band wave, over one block column when
    /// untiled, at the stride given or 2 (the peak of `repro
    /// ablate-stride`'s LCS rows at both widths). The band sweeps need a
    /// full `VL`-row band and block columns hosting the sweep
    /// (`tempora_core::lcs_avx2::resolve`); a degenerate shape runs the
    /// portable scalar rows in every engine — integer, so no slower for
    /// it, unlike the grid kernels' `mul_add` — and reports portable.
    fn plan_lcs(&self, la: usize, lb: usize) -> Result<Built, PlanError> {
        let s = self.stride.unwrap_or(2);
        let (xblock, yblock) = match self.tiling {
            Tiling::None => (la, lb),
            Tiling::LcsRect { xblock, yblock } => (xblock, yblock),
            Tiling::Ghost { .. } | Tiling::Skew { .. } => {
                unreachable!("validated: grid tilings are not LCS tilings")
            }
        };
        // An empty sequence still builds (and has LCS length 0): the
        // workspace clamps the extents to `max(len, 1)`.
        let (xblock, yblock) = (xblock.max(1), yblock.max(1));
        let engine = (self.method == Method::Temporal)
            .then(|| lcs_avx2::resolve(self.select, la, lb, yblock, s));
        let w = LcsRect::new(la, lb, xblock, yblock, s, engine);
        let geometry = (self.tiling != Tiling::None).then(|| {
            let (tiles, block, height) = w.wave();
            TileGeometry {
                tiles,
                block,
                height,
            }
        });
        let engine = w.engine();
        Ok((Box::new(RectLcs(w)), engine, geometry, s))
    }

    /// The codegen context of the spatial methods (scalar, multi-load,
    /// reorg, DLT): they run no temporal steady state and report no
    /// engine, but their `mul_add`s still follow the selection — AVX2+FMA
    /// code when the policy and the CPU allow it, portable otherwise.
    fn isa(&self) -> Engine {
        self.select.resolve(true)
    }
}

/// A compiled, reusable execution plan: geometry validated, engine
/// resolved, thread pool and scratch arenas allocated — once. Call
/// [`Plan::run`] as many times as you like; after the first call no path
/// except the documented one-shot baselines (reorg/DLT) allocates.
pub struct Plan {
    problem: Problem,
    method: Method,
    tiling: Tiling,
    stride: usize,
    engine: Option<Engine>,
    tiles: Option<TileGeometry>,
    threads: usize,
    count_reorg: bool,
    pool: Pool,
    exec: Box<dyn Exec>,
    /// `Some(panic message)` after a run panicked mid-step: the state (and
    /// in principle the executor scratch) may be half advanced, so `run`
    /// refuses to produce further `Report`s until [`Plan::reset`].
    poisoned: Option<String>,
}

// A plan is the unit a serving system caches, pools and dispatches per
// request, so it must stay transferable across threads.
const _: () = {
    fn assert_send<T: Send>() {}
    fn plan_is_send() {
        assert_send::<Plan>();
    }
    let _ = plan_is_send;
};

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("problem", &self.problem)
            .field("method", &self.method)
            .field("tiling", &self.tiling)
            .field("stride", &self.stride)
            .field("engine", &self.engine)
            .field("tiles", &self.tiles)
            .field("threads", &self.threads)
            .finish()
    }
}

impl Plan {
    /// The problem this plan was compiled for.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The method this plan executes.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The tiling this plan executes.
    pub fn tiling(&self) -> Tiling {
        self.tiling
    }

    /// The temporal space stride the plan resolved at build time: the
    /// [`PlanBuilder::stride`] given, else the kind's default. Only the
    /// temporal method reads it.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The engine the plan resolved at build time (`Some` for the
    /// dispatched temporal method, `None` otherwise).
    pub fn engine(&self) -> Option<Engine> {
        self.engine
    }

    /// Worker threads the plan's pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when [`PlanBuilder::pin`] was requested and every pool
    /// thread was successfully pinned to a CPU.
    pub fn is_pinned(&self) -> bool {
        self.pool.is_pinned()
    }

    /// Advance `state` by the problem's time extent (compute the DP table
    /// for LCS), reusing every arena the plan allocated at build time.
    /// Returns a [`Report`] describing what executed.
    ///
    /// # Errors
    /// [`PlanError::StateMismatch`] / [`PlanError::StateShapeMismatch`]
    /// when `state` does not belong to this plan's problem.
    /// [`PlanError::Poisoned`] when a run panicked mid-step — for the
    /// panicking call itself (the panic is caught here, never re-thrown)
    /// and for every later call until [`Plan::reset`]. A failed run never
    /// fabricates a [`Report`].
    pub fn run(&mut self, state: &mut State) -> Result<Report, PlanError> {
        if let Some(panic) = &self.poisoned {
            return Err(PlanError::Poisoned {
                panic: panic.clone(),
            });
        }
        self.problem.check_state(state)?;
        let session = self.count_reorg.then(count::Session::start);
        // AssertUnwindSafe: on a panic the executor scratch and `state`
        // may be mid-update, which is exactly what the poisoned flag
        // records — neither is read again before an explicit reset.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.exec.run(state, &self.pool)
        }));
        let reorg = session.map(count::Session::finish);
        let result = match result {
            Ok(r) => r,
            Err(payload) => {
                let panic = panic_message(payload.as_ref());
                self.poisoned = Some(panic.clone());
                return Err(PlanError::Poisoned { panic });
            }
        };
        result?;
        Ok(Report {
            engine: self.engine,
            steps: self.problem.steps(),
            threads: self.threads,
            pinned: self.pool.is_pinned(),
            tiles: self.tiles,
            reorg,
            lcs_length: state.lcs().and_then(|l| l.length),
        })
    }

    /// True when a previous [`Plan::run`] panicked and the plan refuses
    /// to run until [`Plan::reset`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Clear poisoning after a panicked run.
    ///
    /// The caller re-initializes `state`'s payload data first (a panicked
    /// run may have advanced it partially); `reset` re-validates that the
    /// state still belongs to this plan's problem and then restores the
    /// plan to a runnable configuration. Every executor fully rewrites
    /// the scratch it reads at the start of each run (the invariant the
    /// plan-reuse bitwise tests pin down), so after `reset` a run on a
    /// freshly initialized state is bitwise-identical to a fresh plan's.
    ///
    /// # Errors
    /// [`PlanError::StateMismatch`] / [`PlanError::StateShapeMismatch`]
    /// when `state` does not belong to this plan's problem; the plan
    /// stays poisoned in that case. Calling `reset` on a healthy plan is
    /// a no-op.
    pub fn reset(&mut self, state: &mut State) -> Result<(), PlanError> {
        self.problem.check_state(state)?;
        self.poisoned = None;
        Ok(())
    }
}

/// Render a caught panic payload for [`PlanError::Poisoned`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}
