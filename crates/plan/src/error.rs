//! [`PlanError`] — every way a plan can fail to build or run.
//!
//! The solver API never panics on an invalid *configuration*: each
//! rejected combination maps to a descriptive variant here, and
//! configurations with a documented honest fallback (degenerate
//! geometries, workloads without an AVX2 steady state) build fine and
//! report the engine that actually runs. Panics remain only for
//! programming errors (e.g. poisoned internal invariants).

use crate::{Method, Tiling};

/// A validation or execution error of the `Problem → Plan` pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// The temporal space stride was zero.
    ZeroStride,
    /// The temporal space stride is below the kernel's dependence bound
    /// (`min_stride` of the stencil's dependence set).
    StrideTooSmall {
        /// Requested stride.
        stride: usize,
        /// Minimum legal stride for this stencil.
        min: usize,
    },
    /// The temporal space stride exceeds the engine's ring capacity.
    StrideTooLarge {
        /// Requested stride.
        stride: usize,
        /// Maximum supported stride.
        max: usize,
    },
    /// The builder asked for zero worker threads.
    ZeroThreads,
    /// The builder asked for more worker threads than a plan may run
    /// ([`crate::MAX_THREADS`]); rejected before any thread starts.
    TooManyThreads {
        /// Requested worker count.
        threads: usize,
        /// The bound, [`crate::MAX_THREADS`].
        max: usize,
    },
    /// More than one thread was requested without a tiling scheme — an
    /// untiled plan is one chunk per sweep, which extra workers cannot
    /// share, so this is almost certainly a misconfiguration.
    ThreadsRequireTiling {
        /// Requested worker count.
        threads: usize,
    },
    /// The problem has an empty interior.
    EmptyDomain,
    /// `Select::Avx2` was requested but this CPU lacks AVX2+FMA.
    Avx2Unavailable,
    /// The method cannot execute this problem (e.g. spatial multi-load
    /// vectorization of a Gauss-Seidel stencil is illegal; the reorg/DLT
    /// baselines exist only for Heat-1D).
    MethodUnsupported {
        /// The rejected method.
        method: Method,
        /// The problem kind it was applied to.
        problem: &'static str,
        /// Why the combination is rejected.
        why: &'static str,
    },
    /// The tiling scheme does not apply to this problem or method (ghost
    /// tiling is Jacobi-only, skewed tiling is Gauss-Seidel-only,
    /// rectangle tiling is LCS-only).
    TilingUnsupported {
        /// The rejected tiling.
        tiling: Tiling,
        /// The problem kind it was applied to.
        problem: &'static str,
        /// Why the combination is rejected.
        why: &'static str,
    },
    /// A tile extent (block / xblock / yblock) was zero.
    ZeroTileExtent,
    /// The time-tile height must be a positive multiple of the engine's
    /// vector length.
    BadTileHeight {
        /// Requested height.
        height: usize,
        /// The engine's vector length for this problem.
        vl: usize,
    },
    /// A `Tiling::Skew` block narrower than `height + VL·s + VL`: the
    /// bound under which the wavefront tasks of the skewed bands stayed
    /// apart, kept as the variant's validation rule.
    BlockTooNarrow {
        /// Requested block width.
        block: usize,
        /// Minimum block width for wave disjointness.
        min: usize,
    },
    /// Reorg-op counting is only meaningful where a plan is instrumented
    /// (untiled 1-D temporal, and the reorg baseline).
    CountUnsupported {
        /// Why counting is unavailable here.
        why: &'static str,
    },
    /// `Plan::run` was handed a state of the wrong variant.
    StateMismatch {
        /// State variant the plan's problem expects.
        expected: &'static str,
        /// State variant that was passed.
        got: &'static str,
    },
    /// `Plan::run` was handed a state whose shape does not match the
    /// problem the plan was built for.
    StateShapeMismatch {
        /// Interior extents the problem declares.
        expected: [usize; 3],
        /// Interior extents of the passed state.
        got: [usize; 3],
    },
    /// `Plan::run` was handed a grid with a halo width other than 1; the
    /// solver engines assume the halo-1 layout.
    UnsupportedHalo {
        /// Halo width of the passed grid.
        halo: usize,
    },
    /// A run of this plan panicked mid-step, so the state may be half
    /// advanced. The panicking `Plan::run` call and every subsequent one
    /// return this variant until [`crate::Plan::reset`] is called with a
    /// re-initialized state; no `Report` is fabricated for a failed run.
    Poisoned {
        /// Panic message of the run that poisoned the plan.
        panic: String,
    },
    /// `Plan::run` was handed a grid whose boundary condition is not, bit
    /// for bit, the one of the problem the plan was built for.
    StateBoundaryMismatch {
        /// The problem's boundary condition.
        expected: String,
        /// The boundary condition of the passed grid.
        got: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ZeroStride => write!(f, "temporal stride must be at least 1"),
            PlanError::StrideTooSmall { stride, min } => write!(
                f,
                "temporal stride {stride} violates the stencil's dependence bound (min {min})"
            ),
            PlanError::StrideTooLarge { stride, max } => write!(
                f,
                "temporal stride {stride} exceeds the engine ring capacity (max {max})"
            ),
            PlanError::ZeroThreads => write!(f, "thread count must be at least 1"),
            PlanError::TooManyThreads { threads, max } => {
                write!(f, "{threads} threads requested; a plan runs at most {max}")
            }
            PlanError::ThreadsRequireTiling { threads } => write!(
                f,
                "{threads} threads requested but no tiling scheme selected; \
                 an untiled plan uses exactly one worker — pick a tiling or threads(1)"
            ),
            PlanError::EmptyDomain => write!(f, "problem interior is empty"),
            PlanError::Avx2Unavailable => {
                write!(f, "Select::Avx2 requested but this CPU lacks AVX2+FMA")
            }
            PlanError::MethodUnsupported {
                method,
                problem,
                why,
            } => write!(f, "method {method:?} cannot run {problem}: {why}"),
            PlanError::TilingUnsupported {
                tiling,
                problem,
                why,
            } => write!(f, "tiling {tiling:?} cannot run {problem}: {why}"),
            PlanError::ZeroTileExtent => write!(f, "tile extents must be at least 1"),
            PlanError::BadTileHeight { height, vl } => write!(
                f,
                "time-tile height {height} must be a positive multiple of the vector length {vl}"
            ),
            PlanError::BlockTooNarrow { block, min } => write!(
                f,
                "skewed block width {block} below the wave-disjointness bound {min}"
            ),
            PlanError::CountUnsupported { why } => {
                write!(f, "reorg-op counting unavailable: {why}")
            }
            PlanError::StateMismatch { expected, got } => {
                write!(f, "plan expects a {expected} state, got {got}")
            }
            PlanError::StateShapeMismatch { expected, got } => write!(
                f,
                "state shape {got:?} does not match the plan's problem shape {expected:?}"
            ),
            PlanError::UnsupportedHalo { halo } => write!(
                f,
                "grid has halo width {halo}; the solver engines require halo 1"
            ),
            PlanError::Poisoned { panic } => write!(
                f,
                "plan is poisoned by a panicked run ({panic}); \
                 re-initialize the state and call Plan::reset"
            ),
            PlanError::StateBoundaryMismatch { expected, got } => write!(
                f,
                "state boundary {got} does not match the plan's problem boundary {expected}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}
